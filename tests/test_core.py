import dataclasses
import math
import re
import tracemalloc
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qnnwitness
from qnnwitness import core
from qnnwitness.core import (
    DENSE_BYTES_BUDGET,
    PARITY_CACHE,
    ArrayCache,
    Circuit,
    DimensionError,
    GateKind,
    GateOp,
    apply_circuit,
    bounded_zz,
    circuit_unitary,
    density_matrix,
    expectation_zz,
    frobenius_distance,
    ising_diagonal,
    n_qubits_of,
    pair_readout,
    qubit_pairs,
    require_dense,
    zz_moments,
)
from qnnwitness.compiler import compile_schedule, export_qasm, parse_qasm
from qnnwitness.hamiltonian import ChunkParams, Schedule, _single_qubit_factor, evolve_states, pair_dicke_operators

from helpers import (
    CNOT_MATRIX,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    apply_gates_per_qubit,
    basis_state,
    circuit_unitary_dense,
    count_calls,
    embed_gate_dense,
    evolve_chunked_per_qubit,
    expm_eigh,
    is_unitary,
    random_circuit,
    random_state,
    run_circuit_unfused,
    z_diagonal,
    zz_moments_reference,
)


def test_package_exports_functions_not_modules():
    assert not [name for name in qnnwitness.__all__ if isinstance(getattr(qnnwitness, name), ModuleType)]
    retired = {"rotation_matrix", "pauli_exponential", "apply_gate", "purity", "sample_zz_witness",
               "confidence_interval", "z_score", "zz_terms", "pair_parity", "z_diagonal"}
    assert not retired & set(qnnwitness.__all__)
    assert not [name for name in retired if hasattr(qnnwitness.core, name) or hasattr(qnnwitness.sampler, name)]

angles = st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False)
rotation_kinds = st.sampled_from([GateKind.ROT_X, GateKind.ROT_Y, GateKind.ROT_Z])


def rotation(kind: GateKind, angle: float) -> np.ndarray:
    """The 2x2 matrix the gate kernel applies for one rotation."""
    return circuit_unitary(Circuit(1, (GateOp(kind, 0, angle=angle),)))


class TestRotationMatrix:
    def test_zero_rotation_is_identity(self):
        assert np.allclose(rotation(GateKind.ROT_Z, 0.0), np.eye(2))

    def test_z_pi(self):
        assert np.allclose(rotation(GateKind.ROT_Z, math.pi), np.diag([-1j, 1j]))

    def test_y_against_exponential_oracle(self):
        theta = 0.7
        expected = expm_eigh(PAULI_Y, theta / 2)
        assert np.max(np.abs(rotation(GateKind.ROT_Y, theta) - expected)) < 1e-12

    def test_bad_axis(self):
        # a kind that is not a GateKind would match no rotation run and stall the kernel
        with pytest.raises(ValueError, match="gate kind"):
            GateOp("w", 0, angle=0.5)

    @given(kind=rotation_kinds, a=angles, b=angles)
    @settings(deadline=None)
    def test_composition(self, kind, a, b):
        # two gates on one qubit go through the kernel's run fusion
        combined = circuit_unitary(Circuit(1, (GateOp(kind, 0, angle=b), GateOp(kind, 0, angle=a))))
        assert np.max(np.abs(combined - rotation(kind, a + b))) < 1e-12

    @given(kind=rotation_kinds, a=angles)
    @settings(deadline=None)
    def test_unitary(self, kind, a):
        assert is_unitary(rotation(kind, a))


class TestPauliExponential:
    # exp(-i dt (K X + eps Z)) = cos(dt m) I - i sin(dt m) (K X + eps Z) / m, with m = hypot(K, eps)
    def test_z_axis_is_diagonal(self):
        alpha = 0.83
        u = _single_qubit_factor(0.0, 1.0, alpha)
        assert np.allclose(u, np.diag([np.exp(-1j * alpha), np.exp(1j * alpha)]))

    def test_zero_angle(self):
        assert np.allclose(_single_qubit_factor(1.0, 0.0, 0.0), np.eye(2))

    def test_transverse_axis_against_oracle(self):
        k, eps = 2.49, 0.0930
        expected = expm_eigh(k * PAULI_X + eps * PAULI_Z, 1.0)
        assert np.max(np.abs(_single_qubit_factor(k, eps, 1.0) - expected)) < 1e-12

    def test_matches_eigendecomposition_for_1000_random_axes(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            k, eps = rng.normal(size=2)
            dt = rng.uniform(-2 * math.pi, 2 * math.pi)
            expected = expm_eigh(k * PAULI_X + eps * PAULI_Z, dt)
            worst = max(worst, np.max(np.abs(_single_qubit_factor(k, eps, dt) - expected)))
        assert worst < 1e-12


class TestGateOpValidation:
    def test_cnot_needs_distinct_qubits(self):
        with pytest.raises(ValueError):
            GateOp(GateKind.CNOT, 1, control=1)

    def test_rotation_needs_angle(self):
        with pytest.raises(ValueError):
            GateOp(GateKind.ROT_Y, 0)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_rotation_needs_finite_angle(self, angle):
        with pytest.raises(ValueError, match="finite"):
            GateOp(GateKind.ROT_X, 0, angle=angle)

    def test_rotation_refuses_control(self):
        with pytest.raises(ValueError):
            GateOp(GateKind.ROT_Y, 0, control=1, angle=0.3)

    def test_circuit_bounds_check(self):
        with pytest.raises(ValueError):
            Circuit(2, (GateOp(GateKind.ROT_Z, 2, angle=0.1),))
        with pytest.raises(ValueError, match="qubit index 3 out of range for 3 qubits"):
            Circuit(3, (GateOp(GateKind.ROT_Z, 0, angle=0.1), GateOp(GateKind.CNOT, 4, control=3)))
        with pytest.raises(ValueError, match="qubit index -1 out of range"):
            Circuit(3, (GateOp(GateKind.CNOT, 1, control=-1),))

    def test_messages_repr_equality_hash_and_immutability(self):
        refusals = [((GateKind.CNOT, 1), {}, "CNOT takes a control qubit and no angle"),
                    ((GateKind.CNOT, 1), {"control": 0, "angle": 0.5}, "CNOT takes a control qubit and no angle"),
                    ((GateKind.CNOT, 1), {"control": 1}, "CNOT control and target must differ"),
                    (("rz", 0), {"angle": 0.5}, "unknown gate kind 'rz'"),
                    ((GateKind.ROT_Z, 0), {"control": 1, "angle": 0.5}, "rotations take no control qubit"),
                    ((GateKind.ROT_Z, 0), {}, "rotation angle must be a finite number")]
        for args, kwargs, message in refusals:
            with pytest.raises(ValueError, match=f"^{message}$"):
                GateOp(*args, **kwargs)
        op = GateOp(GateKind.ROT_Z, 1, angle=-0.0)
        assert repr(op) == "GateOp(kind=<GateKind.ROT_Z: 'rz'>, target=1, control=None, angle=-0.0)"
        assert op == GateOp(GateKind.ROT_Z, 1, None, 0.0) and hash(op) == hash(GateOp(GateKind.ROT_Z, 1, angle=0.0))
        assert GateOp(GateKind.CNOT, 1, control=0) != GateOp(GateKind.CNOT, 0, control=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.angle = 1.0
        assert dataclasses.replace(op, angle=0.25) == GateOp(GateKind.ROT_Z, 1, angle=0.25)


class TestApplyGate:
    def test_cnot_control_unset(self):
        out = apply_circuit(basis_state(2, 0b00), Circuit(2, (GateOp(GateKind.CNOT, 1, control=0),)))
        assert np.allclose(out, basis_state(2, 0b00))

    def test_cnot_control_set(self):
        out = apply_circuit(basis_state(2, 0b10), Circuit(2, (GateOp(GateKind.CNOT, 1, control=0),)))
        assert np.allclose(out, basis_state(2, 0b11))

    @pytest.mark.parametrize("kind", [GateKind.ROT_X, GateKind.ROT_Y, GateKind.ROT_Z], ids=["rx", "ry", "rz"])
    def test_rotation_matches_dense_embedding(self, kind):
        # the dense oracle exponentiates the Pauli, so this pins the rotation entries
        rng = np.random.default_rng(3)
        state = random_state(3, rng)
        op = GateOp(kind, 1, angle=0.3)
        dense = circuit_unitary_dense([op], 3) @ state
        assert np.max(np.abs(apply_circuit(state, Circuit(3, (op,))) - dense)) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            apply_circuit(basis_state(2), Circuit(2, (GateOp(GateKind.ROT_X, 5, angle=0.1),)))

    def test_streaming_equals_dense_on_random_circuits(self):
        # gate-embedding equivalence, >= 100 randomized trials up to 5 qubits
        rng = np.random.default_rng(11)
        for trial in range(120):
            n = int(rng.integers(1, 6))
            ops = random_circuit(n, int(rng.integers(1, 12)), rng)
            state = random_state(n, rng)
            streamed = state
            for op in ops:
                streamed = apply_circuit(streamed, Circuit(n, (op,)))
            dense = circuit_unitary_dense(ops, n) @ state
            assert np.max(np.abs(streamed - dense)) < 1e-10

    def test_norm_preserved_on_random_circuits(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            circuit = Circuit(n, tuple(random_circuit(n, 10, rng)))
            out = apply_circuit(random_state(n, rng), circuit)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10


class TestCircuitUnitary:
    def test_empty_circuit(self):
        assert np.allclose(circuit_unitary(Circuit(2)), np.eye(4))

    def test_single_cnot(self):
        circuit = Circuit(2, (GateOp(GateKind.CNOT, 1, control=0),))
        assert np.allclose(circuit_unitary(circuit), CNOT_MATRIX)

    def test_y_z_conjugation_identity(self):
        # Ry(b) Rz(a) Ry(-b) as a matrix product rotates about (sin b, 0, cos b);
        # in application order the Ry(-b) comes first.
        beta, alpha = 0.9, 1.3
        circuit = Circuit(
            2,
            (
                GateOp(GateKind.ROT_Y, 0, angle=-beta),
                GateOp(GateKind.ROT_Z, 0, angle=alpha),
                GateOp(GateKind.ROT_Y, 0, angle=beta),
            ),
        )
        generator = math.sin(beta) * PAULI_X + math.cos(beta) * PAULI_Z
        expected = np.kron(expm_eigh(generator, alpha / 2), np.eye(2))
        assert np.max(np.abs(circuit_unitary(circuit) - expected)) < 1e-12

    def test_unitary_within_tolerance(self):
        rng = np.random.default_rng(5)
        circuit = Circuit(3, tuple(random_circuit(3, 20, rng)))
        assert is_unitary(circuit_unitary(circuit), tol=1e-12)

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            circuit_unitary(Circuit(11))


@pytest.mark.parametrize("n", range(2, 11))
def test_a_lone_cnot_is_the_row_permutation_of_its_dense_embedding_bit_for_bit(n):
    # the runner permutes the rows of its columns; the oracle multiplies by
    # the 0/1 matrix, which moves each amplitude and adds only zeros to it
    rng = np.random.default_rng(n)
    columns = rng.normal(size=(2**n, 5)) + 1j * rng.normal(size=(2**n, 5))
    for control in range(n):
        for target in range(n):
            if control == target:
                continue
            op = GateOp(GateKind.CNOT, target, control=control)
            circuit, matrix = Circuit(n, (op,)), embed_gate_dense(op, n)
            np.testing.assert_array_equal(apply_circuit(columns, circuit), matrix @ columns)
            np.testing.assert_array_equal(apply_circuit(columns[:, 0].copy(), circuit), matrix @ columns[:, 0])
            np.testing.assert_array_equal(circuit_unitary(circuit), matrix)  # the product with the identity


def pattern_circuit(n: int, blocks: int, rng: np.random.Generator) -> list[GateOp]:
    """Random circuit made of the shapes the gate kernel rewrites and their near
    misses, which ``random_circuit`` rarely draws. Needs three qubits."""

    def rot(q, kind=GateKind.ROT_Z):
        return GateOp(kind, q, angle=float(rng.uniform(-np.pi, np.pi)))

    def cnot(c, t):
        return GateOp(GateKind.CNOT, t, control=c)

    ops = []
    for _ in range(blocks):
        c, t, third = (int(q) for q in rng.permutation(n)[:3])  # either CNOT direction
        shape = int(rng.integers(0, 8))
        if shape == 0:  # Rz run
            ops += [rot(t) for _ in range(rng.integers(1, 4))]
        elif shape == 1:  # Z_c Z_t phase
            ops += [cnot(c, t), *(rot(t) for _ in range(rng.integers(1, 3))), cnot(c, t)]
        elif shape == 2:  # middle Rz on the control
            ops += [cnot(c, t), rot(c), cnot(c, t)]
        elif shape == 3:  # middle Rz on a third qubit
            ops += [cnot(c, t), rot(third), cnot(c, t)]
        elif shape == 4:  # lone CNOT between two diagonal runs
            ops += [rot(c), rot(third), cnot(c, t), rot(t)]
        elif shape == 5:  # closing CNOT reversed
            ops += [cnot(c, t), rot(t), cnot(t, c)]
        elif shape == 6:  # middle run not diagonal
            ops += [cnot(c, t), rot(t), rot(t, GateKind.ROT_Y), cnot(c, t)]
        else:  # mixed rotation run
            kinds = (GateKind.ROT_X, GateKind.ROT_Y, GateKind.ROT_Z)
            ops += [rot(t, kinds[k]) for k in rng.integers(0, 3, 3)]
    return ops + [rot(int(rng.integers(0, n)))]  # a diagonal left pending at the end


def random_sparse_schedule(n: int, rng: np.random.Generator) -> Schedule:
    """Non-uniform schedule with exact zeros, so that elision drops whole
    blocks or the axis rotations around a bias-only Rz."""

    def draw(size):
        return tuple(float(v) for v in np.where(rng.random(size) < 0.3, 0.0, rng.uniform(-2, 2, size)))

    chunks = tuple(ChunkParams(draw(n), draw(n), draw(n * (n - 1) // 2)) for _ in range(int(rng.integers(1, 4))))
    return Schedule(n, float(rng.uniform(0.5, 2.0)), chunks)


class TestGateKernel:
    def test_rewrite_patterns_match_dense_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(3, 6))
            ops = pattern_circuit(n, int(rng.integers(1, 10)), rng)
            circuit, dense = Circuit(n, tuple(ops)), circuit_unitary_dense(ops, n)
            state = random_state(n, rng)
            kept = state.copy()
            assert np.max(np.abs(apply_circuit(state, circuit) - dense @ state)) <= 1e-12
            assert np.max(np.abs(circuit_unitary(circuit) - dense)) <= 1e-12
            assert np.array_equal(state, kept)

    def test_elided_compiled_schedules_and_qasm_round_trips(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            circuit = compile_schedule(random_sparse_schedule(n, rng), elide=True)
            dense = circuit_unitary_dense(circuit.ops, n)
            assert np.max(np.abs(circuit_unitary(circuit) - dense)) <= 1e-12
            parsed = parse_qasm(export_qasm(circuit))
            assert np.max(np.abs(circuit_unitary(parsed) - dense)) <= 1e-12

    def test_batch_columns_match_per_column_calls(self):
        rng = np.random.default_rng(23)
        n = 4
        circuit = Circuit(n, tuple(pattern_circuit(n, 12, rng) + random_circuit(n, 12, rng)))
        columns = np.stack([random_state(n, rng) for _ in range(5)], axis=1)
        batch = apply_circuit(columns, circuit)
        assert batch.shape == columns.shape
        for k in range(columns.shape[1]):
            assert np.max(np.abs(batch[:, k] - apply_circuit(columns[:, k], circuit))) <= 1e-15
        with pytest.raises(ValueError, match="batch"):
            apply_circuit(np.zeros((4, 2, 2), dtype=complex), Circuit(2))


@st.composite
def gate_lists(draw) -> Circuit:
    """A circuit of 1 to 3 qubits, few so that patterns recur, drawn as
    segments: a single gate; a run on one qubit, mostly Rz, which an Rx or
    Ry may break; or ``CNOT(c, t)``, an Rz run on t and a CNOT on t whose
    control may differ, and which may be the opening gate object itself, as
    in a compiled schedule."""
    n = draw(st.integers(1, 3))
    qubits = st.integers(0, n - 1)
    rotations = st.builds(lambda kind, q, angle: GateOp(kind, q, angle=angle), rotation_kinds, qubits, angles)
    run_kinds = st.sampled_from([GateKind.ROT_Z, GateKind.ROT_Z, GateKind.ROT_X, GateKind.ROT_Y])
    runs = st.builds(lambda q, run: [GateOp(kind, q, angle=angle) for kind, angle in run],
                     qubits, st.lists(st.tuples(run_kinds, angles), min_size=1, max_size=4))
    segments = [rotations.map(lambda op: [op]), runs]
    if n > 1:
        cnots = st.builds(lambda c, shift: GateOp(GateKind.CNOT, (c + shift) % n, control=c),
                          qubits, st.integers(1, n - 1))

        @st.composite
        def blocks(draw):
            opening = draw(cnots)
            middle = [GateOp(GateKind.ROT_Z, opening.target, angle=a) for a in draw(st.lists(angles, max_size=3))]
            control = draw(qubits.filter(lambda c: c != opening.target))
            shared = control == opening.control and draw(st.booleans())
            closing = opening if shared else GateOp(GateKind.CNOT, opening.target, control=control)
            return [opening, *middle, closing]

        segments += [cnots.map(lambda op: [op]), blocks()]
    return Circuit(n, tuple(op for segment in draw(st.lists(st.one_of(segments), max_size=12)) for op in segment))


class TestFusedSteps:
    @settings(max_examples=100, deadline=None)
    @given(circuit=gate_lists())
    def test_nbytes_is_what_the_built_steps_keep(self, circuit):
        sized = circuit.nbytes
        phases = [step for step in circuit.steps if isinstance(step, core._PhaseRun)]
        # sizing fuses the gate list but builds no phase vector
        assert all(step._vector is None for step in phases)
        circuit_unitary(circuit)
        blocks = [step[0] for step in circuit.steps if isinstance(step, tuple)]
        gates = core._GATE_BYTES * len({id(op) for op in circuit.ops}) + core._SLOT_BYTES * len(circuit.ops)
        assert sized == (gates + core._STEP_BYTES * len(circuit.steps)
                         + sum(block.nbytes for block in blocks) + sum(step._vector.nbytes for step in phases))

    def test_nbytes_charges_a_shared_gate_once(self, table3):
        circuit = compile_schedule.__wrapped__(table3)
        # 21 CNOTs at both ends of their pair's block in all 4 chunks, and 4 x (21 + 21) rotations
        assert len(circuit.ops) == 336 and len({id(op) for op in circuit.ops}) == 21 + 168
        unshared = Circuit(7, tuple(GateOp(op.kind, op.target, op.control, op.angle) for op in circuit.ops))
        assert unshared.ops == circuit.ops
        assert unshared.nbytes - circuit.nbytes == core._GATE_BYTES * (336 - 189)

    @pytest.mark.parametrize("elide", [True, False])
    @pytest.mark.parametrize("name", ["table2", "table3"])
    def test_kept_steps_equal_the_regrouped_kernel_bit_for_bit(self, request, name, elide):
        schedule = request.getfixturevalue(name)
        circuit = compile_schedule.__wrapped__(schedule, elide=elide)  # a new circuit, fused here
        n = circuit.n_qubits
        identity = np.eye(2**n, dtype=complex)
        assert np.array_equal(circuit_unitary(circuit), run_circuit_unfused(identity, circuit))
        states = random_state(n, np.random.default_rng(3)), np.eye(2**n, dtype=complex)[:, :5]
        for state in states + states:  # the second pass runs on the kept steps
            assert np.array_equal(apply_circuit(state, circuit),
                                  run_circuit_unfused(state.reshape(2**n, -1), circuit).reshape(state.shape))

    @settings(max_examples=100, deadline=None)
    @given(circuit=gate_lists(), seed=st.integers(0, 2**32 - 1))
    def test_kept_steps_equal_the_regrouped_kernel_on_drawn_gate_lists(self, circuit, seed):
        n = circuit.n_qubits
        rng = np.random.default_rng(seed)
        columns = rng.normal(size=(2**n, 3)) + 1j * rng.normal(size=(2**n, 3))
        assert np.array_equal(apply_circuit(columns, circuit), run_circuit_unfused(columns, circuit))

    def test_patterns_fuse_to_their_steps(self):
        cnot, other = GateOp(GateKind.CNOT, 1, control=0), GateOp(GateKind.CNOT, 1, control=2)
        rz, rx = GateOp(GateKind.ROT_Z, 1, angle=0.3), GateOp(GateKind.ROT_X, 1, angle=0.2)

        def kinds(*ops):
            steps = Circuit(3, ops).steps
            return [type(step).__name__ if not isinstance(step, tuple) else "block" for step in steps]

        assert kinds(cnot, rz, cnot) == ["_PhaseRun"]
        assert kinds(cnot) == ["GateOp"] and kinds(cnot, cnot) == ["_PhaseRun"]
        # a closing CNOT with another control leaves two lone CNOTs around an Rz run
        assert kinds(cnot, rz, other) == ["GateOp", "_PhaseRun", "GateOp"]
        # an Rx breaks an Rz run into one 2x2
        assert kinds(rz, rz) == ["_PhaseRun"] and kinds(rz, rx, rz) == ["block"]
        assert kinds(cnot, rz, rx, cnot) == ["GateOp", "block", "GateOp"]

    def test_steps_are_built_once_per_circuit(self, monkeypatch, table3):
        calls = count_calls(monkeypatch, [(core, "_fuse")])
        circuit = compile_schedule.__wrapped__(table3)
        first = apply_circuit(basis_state(7), circuit)
        assert np.array_equal(apply_circuit(basis_state(7), circuit), first)
        circuit_unitary(circuit)
        assert calls == {"_fuse": 1}
        phases = [step for step in circuit.steps if isinstance(step, core._PhaseRun)]
        assert len(phases) == 4 and all(not step.vector.flags.writeable for step in phases)
        # an equal circuit keeps its own steps
        assert Circuit(7, circuit.ops) == circuit
        apply_circuit(basis_state(7), Circuit(7, circuit.ops))
        assert calls == {"_fuse": 2}

    @pytest.mark.parametrize("elide", [True, False])
    @pytest.mark.parametrize("name,n", [("table2", 2), ("table3", 7), ("table3", 10)],
                             ids=["table2", "table3", "table3_on_10"])
    def test_nbytes_covers_what_a_run_circuit_keeps(self, request, name, n, elide):
        # on 10 qubits the four phase vectors (64 KiB) outweigh the slack in
        # the per-gate and per-step bytes, so leaving them uncounted fails
        schedule = request.getfixturevalue(name)
        schedule = Schedule(n, schedule.total_time, tuple(ChunkParams.uniform(n, *ck.shared) for ck in schedule.chunks))
        state = basis_state(n)
        # one compile and run first, so that what is traced is this circuit's
        # bytes and not the process's first compile filling its free lists
        apply_circuit(state, compile_schedule.__wrapped__(schedule, elide=elide))
        tracemalloc.start()
        try:
            circuit = compile_schedule.__wrapped__(schedule, elide=elide)
            apply_circuit(state, circuit)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= circuit.nbytes

    def test_blocks_cover_the_register(self):
        assert core._blocks(2) == ((0, 2),) and core._blocks(7) == ((0, 4), (4, 3))
        for n in range(1, 15):
            sizes = [k for _, k in core._blocks(n)]
            assert len(sizes) == -(-n // core.BLOCK_QUBITS) and max(sizes) - min(sizes) <= 1
            assert [q for q, _ in core._blocks(n)] == [sum(sizes[:b]) for b in range(len(sizes))]

    def test_table3_fuses_to_four_phase_runs_and_eight_blocks(self, table3):
        steps = compile_schedule.__wrapped__(table3).steps
        shapes = [type(step) if not isinstance(step, tuple) else (step[0].shape, step[1]) for step in steps]
        assert shapes == [core._PhaseRun, ((16, 16), 0), ((8, 8), 4)] * 4

    @pytest.mark.parametrize("batch", [1, 4, 132])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_blocks_match_one_2x2_per_qubit(self, n, batch):
        rng = np.random.default_rng(100 * n + batch)
        schedule = random_sparse_schedule(n, rng)
        columns = rng.normal(size=(2**n, batch)) + 1j * rng.normal(size=(2**n, batch))
        chunked = evolve_states(columns.T, schedule, "chunked").T
        assert np.max(np.abs(chunked - evolve_chunked_per_qubit(columns, schedule))) <= 1e-13
        # the elided circuit drops gates, so Rz-only qubits split its layers
        for elide in (False, True):
            circuit = compile_schedule.__wrapped__(schedule, elide=elide)
            gates = apply_circuit(columns, circuit)
            assert np.max(np.abs(gates - apply_gates_per_qubit(columns, circuit))) <= 1e-13


class TestExpectationZZ:
    def test_basis_states(self):
        assert expectation_zz(basis_state(2, 0b00), 0, 1) == 1.0
        assert expectation_zz(basis_state(2, 0b01), 0, 1) == -1.0

    def test_flat_state(self):
        flat = np.full(4, 0.5, dtype=complex)
        assert abs(expectation_zz(flat, 0, 1)) < 1e-15

    def test_three_term_superposition(self):
        state = np.array([0, 1, 1, 1], dtype=complex) / math.sqrt(3)
        assert abs(expectation_zz(state, 0, 1) - (-1 / 3)) < 1e-12

    def test_density_matrix_refused(self):
        rho = density_matrix(np.full(4, 0.5, dtype=complex))
        with pytest.raises(ValueError, match="state vector"):
            expectation_zz(rho, 0, 1)

    def test_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            expectation_zz(basis_state(2), 1, 1)

    def test_non_finite_rejected(self):
        # clamping would turn NaN into -1, a plausible-looking <ZZ>
        state = np.full(4, np.nan, dtype=complex)
        with pytest.raises(ValueError, match="not finite"):
            expectation_zz(state, 0, 1)

    def test_refusals_keep_their_messages(self):
        state = basis_state(2)
        with pytest.raises(ValueError, match="^expectation_zz needs two distinct qubits$"):
            expectation_zz(state, 0, 0)
        for i, j, bad in ((0, 2, 2), (-1, 1, -1), (1, 5, 5)):
            with pytest.raises(ValueError, match=f"^qubit index {bad} out of range for 2 qubits$"):
                expectation_zz(state, i, j)
        with pytest.raises(ValueError, match=r"^<Z_i Z_j> is not finite; the state holds non-finite amplitudes$"):
            expectation_zz(np.array([np.inf, 0, 0, 0], dtype=complex), 0, 1)
        with pytest.raises(ValueError, match="^expected a state vector$"):
            expectation_zz(state[np.newaxis, :], 0, 1)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_equals_the_weighted_sum_of_probabilities(self, n):
        # the one-pass read-out against |psi|^2 . Z_i . Z_j summed, for every
        # pair in both orders and for a strided view of the same state
        rng = np.random.default_rng(n)
        for state in (random_state(n, rng), random_state(n, rng)):
            probs = np.abs(state) ** 2
            strided = np.stack([state, state], axis=1)[:, 0]
            for i in range(n):
                for j in range(n):
                    if i != j:
                        want = float((probs * z_diagonal(n, i) * z_diagonal(n, j)).sum())
                        assert abs(expectation_zz(state, i, j) - want) <= 1e-15
                        assert expectation_zz(strided, i, j) == expectation_zz(state, i, j)

    def test_pair_readout_is_ones_then_the_pair_parity(self):
        readout = pair_readout(3, 0, 2)
        assert readout.shape == (2, 8) and np.array_equal(readout[0], np.ones(8))
        assert np.array_equal(readout[1], z_diagonal(3, 0) * z_diagonal(3, 2))
        assert not readout.flags.writeable
        for i, j in ((2, 0), (1, 1), (0, 3)):
            with pytest.raises(ValueError, match="is not two ordered qubits of 3"):
                pair_readout(3, i, j)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_moments_match_the_two_pass_oracle(self, n):
        # one product against a sum and a dot product over the squared parts,
        # for every pair in both orders, on the state as it is, a strided view,
        # its real part as float64 and as a Python list
        rng = np.random.default_rng(1000 + n)
        state = random_state(n, rng)
        real = np.ascontiguousarray(state.real)
        inputs = (state, np.stack([state, state], axis=1)[:, 0], real, real.tolist(), state.tolist())
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for arr in inputs:
            for i, j in pairs:
                got, want = zz_moments(arr, i, j), zz_moments_reference(arr, i, j)
                assert all(type(value) is float for value in got)
                assert abs(got[0] - want[0]) <= 1e-15 and abs(got[1] - want[1]) <= 1e-15, (i, j)
        if n == 1:  # no pair: both refuse qubit 1 alike
            for reader in (zz_moments, zz_moments_reference):
                with pytest.raises(ValueError, match="^qubit index 1 out of range for 1 qubits$"):
                    reader(state, 0, 1)

    def test_refusals_match_the_two_pass_oracle(self):
        # every input expectation_zz refuses, refused by the one-product
        # read-out with the two-pass read-out's message
        cases = [
            (basis_state(2), 1, 1), (basis_state(2), 0, 2), (basis_state(2), -1, 0), (basis_state(3), 5, 1),
            (density_matrix(basis_state(2)), 0, 1), (np.zeros(0), 0, 1), (np.zeros(3, dtype=complex), 0, 1),
            (np.zeros(6), 0, 1), (np.array(1.0 + 0j), 0, 1), (np.full(4, np.nan, dtype=complex), 0, 1),
            (np.array([np.inf, 0, 0, 0]), 0, 1),
        ]
        for state, i, j in cases:
            with pytest.raises(ValueError) as want:
                bounded_zz(zz_moments_reference(state, i, j)[1])
            with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
                expectation_zz(state, i, j)

    def test_a_zero_length_state_is_not_a_power_of_two(self):
        message = "^state dimension 0 is not a power of two$"
        with pytest.raises(ValueError, match=message):
            expectation_zz(np.zeros(0, dtype=complex), 0, 1)
        with pytest.raises(ValueError, match=message):
            apply_circuit(np.zeros(0, dtype=complex), Circuit(1))
        with pytest.raises(ValueError, match=message):
            apply_circuit(np.zeros((0, 3), dtype=complex), Circuit(2))

    def test_read_out_is_one_product_with_the_cached_pair_readout(self, monkeypatch):
        # a C-contiguous complex128 vector is read as it is: no conversion
        state = random_state(5, np.random.default_rng(5))
        pair_readout(5, 1, 3)
        calls = count_calls(monkeypatch, [(np, "asarray"), (np, "ascontiguousarray")])
        misses = pair_readout.cache_info().misses
        zz_moments(state, 3, 1)
        assert calls == {"asarray": 0, "ascontiguousarray": 0}
        assert pair_readout.cache_info().misses == misses
        zz_moments(state[::-1], 3, 1)
        assert calls == {"asarray": 1, "ascontiguousarray": 1}

    def test_real_input_reads_as_complex(self):
        state = np.array([0.6, 0.0, 0.0, 0.8])
        assert expectation_zz(state, 0, 1) == expectation_zz(state.astype(complex), 0, 1)
        assert expectation_zz(state, 0, 1) == pytest.approx(1.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=50)
    def test_bounded(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        state = random_state(n, rng)
        i, j = sorted(rng.choice(n, size=2, replace=False))
        assert -1.0 <= expectation_zz(state, int(i), int(j)) <= 1.0


class TestRequireDense:
    def test_budget_boundary_is_exact(self):
        assert DENSE_BYTES_BUDGET == 2**27
        require_dense(23, 1)  # exactly the budget in 16-byte items
        require_dense(16, 2**7)
        require_dense(1, 0)
        for n, count in ((24, 1), (23, 2), (16, 2**7 + 1)):
            with pytest.raises(DimensionError):
                require_dense(n, count)

    def test_pair_readout_cache_is_bounded(self):
        # the n = 2 and n = 7 read-outs take a few KiB of the byte bound, so
        # sweeps cycling through their pairs never miss twice
        assert PARITY_CACHE.max_bytes <= DENSE_BYTES_BUDGET
        pair_readout.cache_clear()
        for n in (2, 7):
            for i, j in qubit_pairs(n):
                pair_readout(n, i, j)
        for n in (2, 7):
            for i, j in qubit_pairs(n):
                pair_readout(n, i, j)
        assert pair_readout.cache_info().misses == 22

    def test_parity_caches_keep_at_most_the_byte_bound(self):
        # qubit 0's pairs of n = 19 are 18 read-outs of 8 MiB; the 16 most
        # recent fill the 128 MiB bound, which the pair (x) Dicke operators share
        n, size = 19, 8 * 2**20
        pair_readout.cache_clear()
        pair_dicke_operators.cache_clear()
        pair_dicke_operators(7)
        assert pair_dicke_operators.cache_info().currsize == 1
        try:
            for j in range(1, n):
                pair_readout(n, 0, j)
            info = pair_readout.cache_info()
            assert PARITY_CACHE.nbytes <= PARITY_CACHE.max_bytes
            assert (info.currsize, info.nbytes) == (16, 16 * size)
            assert pair_dicke_operators.cache_info().currsize == 0  # evicted first, as least recently used
            misses = info.misses
            pair_readout(n, 0, n - 1)
            assert pair_readout.cache_info().misses == misses
            pair_readout(n, 0, 1)
            assert pair_readout.cache_info().misses == misses + 1
        finally:
            pair_readout.cache_clear()

    def test_running_total_is_the_sum_over_entries(self):
        # the store keeps its byte total as entries come and go, rather than
        # summing them on each miss: inserts, evictions of either function's
        # entries, an oversized value returned but not kept, and cache_clear
        cache = ArrayCache(100)
        small = cache(lambda size: np.zeros(size, dtype=np.uint8))
        other = cache(lambda size: np.ones(size, dtype=np.uint8))

        def held() -> int:
            return sum(value.nbytes for value in cache._entries.values())

        for call, size in [(small, 30), (other, 40), (small, 20), (small, 30), (other, 50), (small, 101), (other, 10),
                           (small, 100), (other, 5), (small, 1)]:
            call(size)
            assert cache.nbytes == held() <= cache.max_bytes, (size, cache.nbytes)
        assert len(cache._entries) == 2 and small.cache_info().nbytes == 1
        small.cache_clear()
        assert cache.nbytes == held() == 5
        other(60)
        other.cache_clear()
        assert cache.nbytes == held() == 0 and not cache._entries


class TestArrayCache:
    @staticmethod
    def _lru_model(max_bytes, calls):
        """The entries, hits and misses a byte-bounded LRU store should hold
        after each call, written as plainly as possible."""
        entries, counts, states = [], {}, []
        for name, size in calls:
            entry = (name, size)
            hits, misses = counts.get(name, (0, 0))
            if entry in entries:
                entries.remove(entry)
                entries.append(entry)
                hits += 1
            else:
                misses += 1
                if size <= max_bytes:
                    entries.append(entry)
                    while sum(s for _, s in entries) > max_bytes:
                        entries.pop(0)
            counts[name] = (hits, misses)
            states.append((list(entries), dict(counts)))
        return states

    def test_hits_misses_and_lru_order_follow_the_model(self):
        cache = ArrayCache(100)
        functions = {"zeros": cache(lambda size: np.zeros(size, dtype=np.uint8)),
                     "ones": cache(lambda size: np.ones(size, dtype=np.uint8))}
        rng = np.random.default_rng(3)
        calls = [(("zeros", "ones")[int(rng.integers(2))], int(rng.choice([5, 10, 20, 30, 40, 101])))
                 for _ in range(300)]
        for (name, size), (entries, counts) in zip(calls, self._lru_model(100, calls)):
            value = functions[name](size)
            assert value.nbytes == size and value[0] == (name == "ones")
            owner = {fn.__wrapped__: key for key, fn in functions.items()}
            assert [(owner[fn], args[0]) for fn, args in cache._entries] == entries
            for key, fn in functions.items():
                assert fn.cache_info()[:2] == counts.get(key, (0, 0))

    def test_a_hit_returns_the_stored_value(self):
        cache = ArrayCache(100)
        make = cache(lambda size: np.zeros(size))
        first = make(3)
        assert make(3) is first and make.cache_info() == (1, 1, 1, 24)

    def test_a_keyword_argument_under_the_positional_key_is_refused(self):
        make = ArrayCache(100)(lambda size: np.zeros(size, dtype=np.uint8))
        make(4)
        with pytest.raises(TypeError):
            make(size=4)
        with pytest.raises(TypeError):
            make(size=5)
        assert make.cache_info() == (0, 1, 1, 4)

    def test_a_custom_key_runs_once_per_call(self):
        keys = []

        def key(size, *, fill=0):
            keys.append((size, fill))
            return size, fill

        make = ArrayCache(100)(lambda size, *, fill=0: np.full(size, fill, dtype=np.uint8), key=key)
        assert make(3).tolist() == [0, 0, 0]
        assert make(3, fill=1).tolist() == [1, 1, 1]
        assert make(3).tolist() == [0, 0, 0]
        assert make(3, fill=1).tolist() == [1, 1, 1]
        assert keys == [(3, 0), (3, 1), (3, 0), (3, 1)]
        assert make.cache_info() == (2, 2, 2, 6)

    def test_a_failed_call_counts_as_a_miss_and_keeps_nothing(self):
        make = ArrayCache(100)(lambda n, i, j: pair_readout(n, i, j))
        with pytest.raises(ValueError):
            make(3, 1, 0)
        assert make.cache_info() == (0, 1, 0, 0)


class TestQubitCount:
    @pytest.mark.parametrize("k", [0, 1, 2, 7, 30, 52, 53, 54, 64, 70])
    def test_powers_of_two_and_their_neighbours(self, k):
        # integer arithmetic: exact where log2 of a float is not
        assert n_qubits_of(SimpleNamespace(shape=(2**k,))) == k
        for dim in {2**k - 1, 2**k + 1, 3 * 2**k} - {1, 2}:
            with pytest.raises(ValueError, match=f"^state dimension {dim} is not a power of two$"):
                n_qubits_of(SimpleNamespace(shape=(dim,)))

    def test_zero_is_not_a_power_of_two(self):
        with pytest.raises(ValueError, match="^state dimension 0 is not a power of two$"):
            n_qubits_of(np.zeros(0))


class TestIsingDiagonal:
    @pytest.mark.parametrize("n", [1, 2, 7, 13])  # 13 qubits span two blocks of the index
    def test_matches_the_sum_of_qubit_diagonals(self, n):
        rng = np.random.default_rng(n)
        fields, couplings = rng.normal(size=n), np.triu(rng.normal(size=(n, n)), 1)
        want = sum(fields[q] * z_diagonal(n, q) for q in range(n))
        want = want + sum(couplings[i, j] * z_diagonal(n, i) * z_diagonal(n, j) for i in range(n) for j in range(i + 1, n))
        assert np.max(np.abs(ising_diagonal(fields, couplings) - want)) <= 1e-12

    def test_holds_a_few_blocks_besides_its_output(self):
        # the C(20, 2) pair diagonals of 20 qubits would take 1.5 GiB
        n = 20
        tracemalloc.start()
        try:
            ising_diagonal(np.ones(n), np.triu(np.ones((n, n)), 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**n + 4 * 2**20


class TestFrobeniusDistance:
    def test_identical(self):
        assert frobenius_distance(np.eye(3), np.eye(3)) == 0.0

    def test_unit_difference(self):
        assert frobenius_distance(np.diag([1.0, 0.0]), np.diag([0.0, 0.0])) == 1.0

    def test_matches_elementwise_sum(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        expected = math.sqrt(float(np.sum(np.abs(a - b) ** 2)))
        assert abs(frobenius_distance(a, b) - expected) < 1e-12

    def test_symmetry(self):
        a, b = np.diag([1.0, 2.0]), np.diag([2.0, -1.0])
        assert frobenius_distance(a, b) == frobenius_distance(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_distance(np.eye(2), np.eye(3))
