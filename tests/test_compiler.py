import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnnwitness import compiler, hamiltonian, witness
from qnnwitness.compiler import (
    CIRCUIT_CACHE,
    compile_schedule,
    compile_single_qubit,
    compile_zz,
    export_qasm,
    extract_rotation_angles,
    gate_counts,
    parse_qasm,
    verify_equivalence,
)
from qnnwitness.core import (
    DENSE_BYTES_BUDGET,
    Circuit,
    GateKind,
    GateOp,
    apply_circuit,
    circuit_unitary,
    density_matrix,
    frobenius_distance,
    qubit_pairs,
    z_diagonal,
)
from qnnwitness.hamiltonian import (
    ChunkParams,
    Schedule,
    chunk_propagators,
    exact_chunk_propagator,
    load_schedule,
    save_schedule,
)

from helpers import PAULI_X, PAULI_Z, basis_state, count_calls, expm_eigh, random_state, verify_report_dense

DT = 1.58 / 4


def chunked_unitary(schedule):
    u = np.eye(2**schedule.n_qubits, dtype=complex)
    for factor in chunk_propagators(schedule, "chunked"):
        u = factor @ u
    return u


def random_schedule_uniform(rng, n, n_chunks):
    chunks = tuple(
        ChunkParams(
            tuple(rng.uniform(-3, 3, size=n)),
            tuple(rng.uniform(-3, 3, size=n)),
            tuple(rng.uniform(-3, 3, size=n * (n - 1) // 2)),
        )
        for _ in range(n_chunks)
    )
    return Schedule(n, float(rng.uniform(0.5, 3.0)), chunks)


class TestExtractRotationAngles:
    def test_pure_tunneling(self):
        beta, alpha = extract_rotation_angles(1.0, 0.0, 1.0)
        assert beta == pytest.approx(math.pi / 2)
        assert alpha == pytest.approx(2.0)

    def test_pure_bias(self):
        beta, alpha = extract_rotation_angles(0.0, 1.0, 1.0)
        assert beta == 0.0
        assert alpha == pytest.approx(2.0)

    def test_table2_interval_1(self):
        beta, alpha = extract_rotation_angles(2.49, 0.0930, 0.395)
        assert beta == pytest.approx(math.atan2(2.49, 0.0930))
        assert beta == pytest.approx(1.5335, abs=1e-4)
        assert alpha == pytest.approx(2 * 0.395 * math.hypot(2.49, 0.0930))

    def test_negative_bias_lands_on_correct_branch(self):
        beta, _ = extract_rotation_angles(2.49, -0.0693, 0.395)
        assert beta > math.pi / 2  # arcsin form would fold this back

    def test_identity_short_circuit(self):
        assert extract_rotation_angles(0.0, 0.0, 1.0) == (0.0, 0.0)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            extract_rotation_angles(1.0, 0.0, 0.0)


class TestCompileSingleQubit:
    def test_identity_emits_nothing(self):
        assert compile_single_qubit(0.0, 0.0, 1.0, 0) == []

    def test_pure_tunneling_quarter_turn(self):
        ops = compile_single_qubit(1.0, 0.0, math.pi / 4, 0)
        u = circuit_unitary(Circuit(1, tuple(ops)))
        expected = math.cos(math.pi / 4) * np.eye(2) - 1j * math.sin(math.pi / 4) * PAULI_X
        assert np.max(np.abs(u - expected)) < 1e-12

    def test_table2_interval_1_matches_exponential(self):
        ops = compile_single_qubit(2.49, 0.0930, DT, 0)
        u = circuit_unitary(Circuit(1, tuple(ops)))
        expected = expm_eigh(2.49 * PAULI_X + 0.0930 * PAULI_Z, DT)
        assert np.max(np.abs(u - expected)) < 1e-12

    def test_pure_bias_elides_axis_rotations(self):
        ops = compile_single_qubit(0.0, 1.0, 1.0, 0, elide=True)
        assert [op.kind for op in ops] == [GateKind.ROT_Z]

    def test_block_correctness_1000_random(self):
        # pins the factor of 2 and the sign/order conventions
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(1000):
            k, e = rng.uniform(-3, 3, size=2)
            dt = rng.uniform(0.01, 2.0)
            ops = compile_single_qubit(k, e, dt, 0, elide=False)
            u = circuit_unitary(Circuit(1, tuple(ops)))
            expected = expm_eigh(k * PAULI_X + e * PAULI_Z, dt)
            worst = max(worst, np.max(np.abs(u - expected)))
        assert worst < 1e-12


class TestCompileZZ:
    def test_zero_coupling_elided(self):
        assert compile_zz(0.0, 1.0, 0, 1, elide=True) == []

    def test_quarter_period_diagonal(self):
        ops = compile_zz(1.0, math.pi / 2, 0, 1)  # zeta*dt = pi/2
        u = circuit_unitary(Circuit(2, tuple(ops)))
        assert np.max(np.abs(u - np.diag([-1j, 1j, 1j, -1j]))) < 1e-12

    def test_table2_coupling_matches_exponential(self):
        ops = compile_zz(0.0382, DT, 0, 1)
        u = circuit_unitary(Circuit(2, tuple(ops)))
        expected = expm_eigh(np.kron(PAULI_Z, PAULI_Z), 0.0382 * DT)
        assert np.max(np.abs(u - expected)) < 1e-12

    def test_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            compile_zz(1.0, 1.0, 0, 0)

    def test_block_correctness_1000_random(self):
        rng = np.random.default_rng(37)
        worst = 0.0
        for _ in range(1000):
            w0 = rng.uniform(-4, 4)
            ops = compile_zz(w0, 1.0, 0, 1, elide=False)
            u = circuit_unitary(Circuit(2, tuple(ops)))
            expected = np.diag(np.exp(-1j * w0 * np.array([1, -1, -1, 1])))
            worst = max(worst, np.max(np.abs(u - expected)))
        assert worst < 1e-12

    def test_gate_structure(self):
        ops = compile_zz(0.5, DT, 0, 1)
        assert [op.kind for op in ops] == [GateKind.CNOT, GateKind.ROT_Z, GateKind.CNOT]
        assert ops[1].angle == pytest.approx(2 * 0.5 * DT)
        assert ops[1].target == 1  # rotation sits on the target qubit


# signed zeros compile to different gates (atan2(-0.0, -1) = -pi, rz(-0));
# +-1e-17 couplings and biases give angles under the elision threshold
schedule_entries = st.one_of(st.sampled_from([0.0, -0.0, 1e-17, -1e-17]), st.floats(-3, 3, allow_nan=False))


@st.composite
def signed_zero_schedules(draw) -> Schedule:
    n = draw(st.integers(1, 4))

    def entries(size):
        return draw(st.lists(schedule_entries, min_size=size, max_size=size))

    n_chunks = draw(st.integers(1, 3))
    chunks = tuple(ChunkParams(entries(n), entries(n), entries(n * (n - 1) // 2)) for _ in range(n_chunks))
    return Schedule(n, draw(st.floats(0.1, 3.0)), chunks)


class TestCompileSchedule:
    @pytest.mark.parametrize("elide", [False, True])
    @settings(max_examples=100, deadline=None)
    @given(schedule=signed_zero_schedules())
    def test_ops_are_each_chunks_pair_and_qubit_gates(self, schedule, elide):
        n, dt = schedule.n_qubits, schedule.dt
        expected = []
        for ck in schedule.chunks:
            for coupling, (i, j) in zip(ck.coupling, qubit_pairs(n)):
                expected += compile_zz(coupling, dt, i, j, elide=elide)
            for q in range(n):
                expected += compile_single_qubit(ck.tunneling[q], ck.bias[q], dt, q, elide=elide)
        ops = compile_schedule.__wrapped__(schedule, elide=elide).ops
        assert list(map(repr, ops)) == list(map(repr, expected))  # repr tells -0.0 from 0.0
        # one CNOT object per pair, at both ends of its block in every chunk
        cnots = [op for op in ops if op.kind is GateKind.CNOT]
        assert len({id(op) for op in cnots}) == len({(op.control, op.target) for op in cnots})

    def test_table2_gate_count(self, table2):
        circuit = compile_schedule(table2, elide=False)
        assert len(circuit) == 36
        assert gate_counts(circuit) == (28, 8)

    def test_all_zero_schedule_empty(self, zero_schedule):
        assert len(compile_schedule(zero_schedule, elide=True)) == 0

    def test_table2_matches_chunked_propagator(self, table2):
        u_gates = circuit_unitary(compile_schedule(table2))
        assert frobenius_distance(u_gates, chunked_unitary(table2)) < 1e-12

    def test_ordering_zz_before_single_qubit(self, table2):
        kinds = [op.kind for op in compile_schedule(table2).ops[:9]]
        assert kinds[:3] == [GateKind.CNOT, GateKind.ROT_Z, GateKind.CNOT]
        assert kinds[3:] == [GateKind.ROT_Y, GateKind.ROT_Z, GateKind.ROT_Y] * 2

    def test_soundness_200_random_schedules(self):
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 5))
            schedule = random_schedule_uniform(rng, n, int(rng.integers(1, 9)))
            u_gates = circuit_unitary(compile_schedule(schedule))
            worst = max(worst, frobenius_distance(u_gates, chunked_unitary(schedule)))
        assert worst < 1e-10

    def test_angle_perturbation_is_detectable(self, table2):
        # an injected 1e-3 angle error must show up far above the 1e-9 gate
        circuit = compile_schedule(table2)
        bad_ops = list(circuit.ops)
        op = bad_ops[3]
        bad_ops[3] = GateOp(op.kind, op.target, angle=op.angle + 1e-3)
        u_bad = circuit_unitary(Circuit(2, tuple(bad_ops)))
        assert frobenius_distance(u_bad, chunked_unitary(table2)) > 1e-9


class TestCircuitStore:
    def test_bound_is_half_a_mib(self):
        assert CIRCUIT_CACHE.max_bytes == 2**19

    def test_signed_zeros_get_their_own_circuits(self):
        # equal and hashed alike as schedules, yet atan2(+-0.0, -1) = +-pi
        # and rz(+-0) differ: the store keys on the numbers bit for bit
        plus, minus = (Schedule(2, 1.58, (ChunkParams.uniform(2, zero, -1.0, zero),) * 2) for zero in (0.0, -0.0))
        assert plus == minus and hash(plus) == hash(minus)
        compile_schedule.cache_clear()
        texts = [export_qasm(compile_schedule(schedule, elide=False)) for schedule in (plus, minus, plus, minus)]
        assert texts[0] != texts[1] and texts[2:] == texts[:2]
        assert "rz(-0) q[1];" in texts[1] and "rz(-0)" not in texts[0]
        assert texts[:2] == [export_qasm(compile_schedule.__wrapped__(s, elide=False)) for s in (plus, minus)]
        info = compile_schedule.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 2, 2)

    def test_equal_schedules_from_two_files_share_one_entry_per_elide(self, table3, tmp_path):
        for name in ("a.json", "b.json"):
            save_schedule(table3, tmp_path / name)
        first, second = load_schedule(tmp_path / "a.json"), load_schedule(tmp_path / "b.json")
        assert first is not second
        compile_schedule.cache_clear()
        for elide in (True, False):
            assert compile_schedule(first, elide=elide) is compile_schedule(second, elide)
        assert compile_schedule(first) is compile_schedule(first, elide=False)
        info = compile_schedule.cache_info()
        assert (info.hits, info.misses, info.currsize) == (4, 2, 2)

    def test_store_keeps_at_most_its_bound(self):
        compile_schedule.cache_clear()
        # four 128 KiB phase vectors: returned, not kept
        big = Schedule(13, 1.58, tuple(ChunkParams.uniform(13, 2.5, 0.1 * k, 0.05) for k in range(4)))
        circuit = compile_schedule(big)
        assert len(circuit) == 4 * (3 * 78 + 3 * 13) and circuit.nbytes > CIRCUIT_CACHE.max_bytes
        assert compile_schedule.cache_info().currsize == 0
        # about 64 KB each, a CNOT object per pair shared by the four chunks:
        # the first ones are evicted, least recent first
        rng = np.random.default_rng(5)
        schedules = [random_schedule_uniform(rng, 7, 4) for _ in range(10)]
        for schedule in schedules:
            apply_circuit(basis_state(7), compile_schedule(schedule))  # builds its phase vectors
            info = compile_schedule.cache_info()
            assert info.nbytes == CIRCUIT_CACHE.nbytes <= CIRCUIT_CACHE.max_bytes
        assert info.currsize == 8
        misses = info.misses
        compile_schedule(schedules[-1])
        compile_schedule(schedules[0])
        assert compile_schedule.cache_info().misses == misses + 1
        compile_schedule.cache_clear()

    def test_the_benchmark_resets_the_store(self):
        # perfbench/workloads.reset_caches(every=True) clears every qnnwitness
        # module attribute that has cache_clear and names that module as its own
        compile_schedule(Schedule(2, 1.0, (ChunkParams.uniform(2, 1.0, 0.5, 0.25),)))
        found = [value for value in vars(compiler).values()
                 if hasattr(value, "cache_clear") and getattr(value, "__module__", "") == compiler.__name__]
        assert compile_schedule in found
        for value in found:
            value.cache_clear()
        assert compile_schedule.cache_info() == (0, 0, 0, 0)


class TestVerifyEquivalence:
    def test_table2_report(self, table2, table3):
        reports = {"table2": verify_equivalence(table2), "table3": verify_equivalence(table3)}
        for name, report in reports.items():
            assert report["frobenius_gate_vs_chunked"]["unitary"] < 1e-12, name
            for value in report["frobenius_gate_vs_chunked"]["density_matrix"].values():
                assert value < 1e-12, name
        # the Trotter band is table2's; table3's split error is about ten times larger
        for value in reports["table2"]["frobenius_chunked_vs_exact"]["density_matrix"].values():
            assert 0.005 <= value <= 0.05

    def test_zero_coupling_schedule(self):
        chunk = ChunkParams.uniform(2, 2.49, 0.0930, 0.0)
        schedule = Schedule(2, 1.58, (chunk,) * 4)
        report = verify_equivalence(schedule)
        assert report["frobenius_chunked_vs_exact"]["unitary"] < 1e-12
        assert report["frobenius_gate_vs_chunked"]["unitary"] < 1e-12

    @pytest.mark.parametrize("name", ["table2", "table3", "uniform_9", "non_uniform_3", "non_uniform_8"])
    def test_report_matches_the_dense_oracle(self, name, table2, table3):
        # 8 qubits take two blocks of basis rows and 9 four; the others one.
        # Uniform chunks read chunked-vs-exact from the total-spin sectors
        # (five at n = 9), the oracle from the dense exact propagators
        schedule = {"table2": table2, "table3": table3, "uniform_9": _lifted(table3, 9),
                    "non_uniform_3": _non_uniform_schedule(3), "non_uniform_8": _non_uniform_schedule(8)}[name]
        report, oracle = verify_equivalence(schedule), verify_report_dense(schedule)
        assert report["n_qubits"] == oracle["n_qubits"] == schedule.n_qubits
        for key in ("frobenius_gate_vs_chunked", "frobenius_chunked_vs_exact"):
            assert report[key]["unitary"] == pytest.approx(oracle[key]["unitary"], rel=1e-12, abs=0.0)
            assert report[key]["density_matrix"].keys() == oracle[key]["density_matrix"].keys() == {"Bell", "Flat", "C", "P"}
        trotter, oracle_trotter = (r["frobenius_chunked_vs_exact"]["density_matrix"] for r in (report, oracle))
        for kind, value in oracle_trotter.items():
            assert value > 1e-3 and trotter[kind] == pytest.approx(value, rel=1e-12, abs=0.0)
        assert all(0.0 <= value < 1e-14 for value in report["frobenius_gate_vs_chunked"]["density_matrix"].values())

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-8, 1e-15, 0.0])
    def test_density_distances_match_the_dense_matrices(self, scale):
        # from far apart down to round-off, where 2 - 2|<a|b>|^2 reads about 1e-8.
        # The matrix b b^+ - a a^+ is built as a d^+ + d a^+ + d d^+ with d = b - a,
        # so that it too holds no terms of order one that cancel
        rng = np.random.default_rng(3)
        a = np.stack([random_state(4, rng) for _ in range(5)])
        b = a + scale * np.stack([random_state(4, rng) for _ in range(5)])
        got = compiler._density_distances(a, b)
        for row, value in enumerate(got):
            x, d = a[row], b[row] - a[row]
            want = np.linalg.norm(np.outer(x, d.conj()) + np.outer(d, x.conj()) + np.outer(d, d.conj()))
            assert value >= 0.0
            assert value == pytest.approx(want, rel=1e-12, abs=1e-300)
            if scale == 1.0:
                assert value == pytest.approx(frobenius_distance(density_matrix(a[row]), density_matrix(b[row])), rel=1e-12)

    def test_ten_qubits_peak_under_the_dense_budget(self):
        # four distinct non-uniform chunks from cold caches: the peak counts the
        # four 16 MiB exact propagators the cache keeps; holding the whole
        # evolved basis of each picture, or the three unitaries, does not fit
        schedule = _non_uniform_schedule(10)
        for cache in (exact_chunk_propagator, compile_schedule, z_diagonal):
            cache.cache_clear()
        tracemalloc.start()
        try:
            report = verify_equivalence(schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            exact_chunk_propagator.cache_clear()
        assert peak < DENSE_BYTES_BUDGET
        assert report["frobenius_gate_vs_chunked"]["unitary"] < 1e-12
        assert all(value < 1e-14 for value in report["frobenius_gate_vs_chunked"]["density_matrix"].values())
        assert report["frobenius_chunked_vs_exact"]["unitary"] > 1.0


    def test_exact_propagators_serve_only_non_uniform_chunks(self, monkeypatch, table3):
        # under uniform chunks the exact picture runs in the total-spin
        # sectors alone: no 2**n state is evolved by the exact method
        calls = count_calls(monkeypatch, [(hamiltonian, "exact_chunk_propagator")])
        methods = []
        evolve_states = witness.evolve_states  # the one that evolve_dense calls

        def recorded(states, schedule, method):
            methods.append(method)
            return evolve_states(states, schedule, method)

        monkeypatch.setattr(witness, "evolve_states", recorded)
        verify_equivalence(table3)
        assert calls["exact_chunk_propagator"] == 0
        assert methods == ["chunked"]
        verify_equivalence(_non_uniform_schedule(7))
        assert calls["exact_chunk_propagator"] == 4
        assert methods == ["chunked", "chunked", "exact"]

    def test_uniform_ten_qubits_peak_under_the_dense_budget(self, table3):
        # exact runs in the spin sectors, so no 16 MiB propagator is built or cached
        schedule = _lifted(table3, 10)
        for cache in (exact_chunk_propagator, compile_schedule, z_diagonal):
            cache.cache_clear()
        tracemalloc.start()
        try:
            report = verify_equivalence(schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < DENSE_BYTES_BUDGET
        assert exact_chunk_propagator.cache_info().currsize == 0
        assert report["frobenius_gate_vs_chunked"]["unitary"] < 1e-12
        assert report["frobenius_chunked_vs_exact"]["unitary"] > 1e-3


def _lifted(schedule: Schedule, n: int) -> Schedule:
    """The uniform schedule's shared parameters on n qubits."""
    return Schedule(n, schedule.total_time, tuple(ChunkParams.uniform(n, *ck.shared) for ck in schedule.chunks))


def _non_uniform_schedule(n: int) -> Schedule:
    """Four distinct chunks whose tunneling, bias and coupling differ from qubit to qubit and pair to pair."""
    pairs = len(qubit_pairs(n))
    return Schedule(n, 1.58, tuple(
        ChunkParams(tuple(2.5 + 0.01 * q + 0.03 * k for q in range(n)), tuple(0.1 - 0.02 * q for q in range(n)),
                    tuple(0.05 + 0.001 * p for p in range(pairs)))
        for k in range(4)))


class TestQasm:
    def test_empty_circuit_header_only(self):
        text = export_qasm(Circuit(2))
        assert text.splitlines() == [
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            "qreg q[2];",
            "creg c[2];",
        ]

    def test_cnot_line(self):
        text = export_qasm(Circuit(2, (GateOp(GateKind.CNOT, 1, control=0),)))
        assert "cx q[0],q[1];" in text.splitlines()

    def test_table2_round_trip(self, table2):
        circuit = compile_schedule(table2, elide=False)
        text = export_qasm(circuit)
        gate_lines = [line for line in text.splitlines() if line.startswith(("rx", "ry", "rz", "cx"))]
        assert len(gate_lines) == 36
        parsed = parse_qasm(text)
        assert frobenius_distance(circuit_unitary(parsed), circuit_unitary(circuit)) < 1e-12

    def test_byte_determinism(self, table2):
        circuit = compile_schedule(table2)
        assert export_qasm(circuit) == export_qasm(circuit)

    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=8))
    @settings(deadline=None, max_examples=60)
    def test_round_trip_random_rotations(self, angles):
        kinds = (GateKind.ROT_X, GateKind.ROT_Y, GateKind.ROT_Z)
        ops = tuple(GateOp(kinds[i % 3], i % 2, angle=a) for i, a in enumerate(angles))
        circuit = Circuit(2, ops)
        parsed = parse_qasm(export_qasm(circuit))
        assert frobenius_distance(circuit_unitary(parsed), circuit_unitary(circuit)) < 1e-12

    def test_parse_rejects_unknown_gate(self):
        with pytest.raises(ValueError, match="line 5"):
            parse_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\nh q[0];')

    def test_parse_requires_qreg(self):
        with pytest.raises(ValueError, match="qreg"):
            parse_qasm("OPENQASM 2.0;")
