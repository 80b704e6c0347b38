import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnnwitness.core import (
    DENSE_BYTES_BUDGET,
    Circuit,
    DimensionError,
    GateKind,
    GateOp,
    apply_circuit,
    apply_gate,
    basis_state,
    circuit_unitary,
    density_matrix,
    expectation_zz,
    frobenius_distance,
    is_unitary,
    pauli_exponential,
    require_dense,
    rotation_matrix,
    z_diagonal,
)
from qnnwitness.compiler import compile_schedule, export_qasm, parse_qasm
from qnnwitness.hamiltonian import ChunkParams, Schedule

from helpers import (
    CNOT_MATRIX,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    circuit_unitary_dense,
    expm_eigh,
    random_circuit,
    random_state,
)

angles = st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False)


class TestRotationMatrix:
    def test_zero_rotation_is_identity(self):
        assert np.allclose(rotation_matrix("z", 0.0), np.eye(2))

    def test_z_pi(self):
        assert np.allclose(rotation_matrix("z", math.pi), np.diag([-1j, 1j]))

    def test_y_against_exponential_oracle(self):
        theta = 0.7
        expected = expm_eigh(PAULI_Y, theta / 2)
        assert np.max(np.abs(rotation_matrix("y", theta) - expected)) < 1e-12

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            rotation_matrix("w", 0.5)

    def test_non_finite_angle(self):
        with pytest.raises(ValueError):
            rotation_matrix("x", float("nan"))

    @given(axis=st.sampled_from("xyz"), a=angles, b=angles)
    @settings(deadline=None)
    def test_composition(self, axis, a, b):
        combined = rotation_matrix(axis, a) @ rotation_matrix(axis, b)
        assert np.max(np.abs(combined - rotation_matrix(axis, a + b))) < 1e-12

    @given(axis=st.sampled_from("xyz"), a=angles)
    @settings(deadline=None)
    def test_unitary(self, axis, a):
        assert is_unitary(rotation_matrix(axis, a))


class TestPauliExponential:
    def test_z_axis_is_diagonal(self):
        alpha = 0.83
        u = pauli_exponential(np.array([0.0, 0.0, 1.0]), alpha)
        assert np.allclose(u, np.diag([np.exp(-1j * alpha), np.exp(1j * alpha)]))

    def test_zero_angle(self):
        u = pauli_exponential(np.array([1.0, 0.0, 0.0]), 0.0)
        assert np.allclose(u, np.eye(2))

    def test_transverse_axis_against_oracle(self):
        k, eps = 2.49, 0.0930
        axis = np.array([k, 0.0, eps]) / math.hypot(k, eps)
        generator = axis[0] * PAULI_X + axis[1] * PAULI_Y + axis[2] * PAULI_Z
        assert np.max(np.abs(pauli_exponential(axis, 1.0) - expm_eigh(generator, 1.0))) < 1e-12

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError):
            pauli_exponential(np.array([1.0, 1.0, 0.0]), 0.5)

    def test_matches_eigendecomposition_for_1000_random_axes(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            alpha = rng.uniform(-2 * math.pi, 2 * math.pi)
            generator = v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z
            worst = max(worst, np.max(np.abs(pauli_exponential(v, alpha) - expm_eigh(generator, alpha))))
        assert worst < 1e-12


class TestGateOpValidation:
    def test_cnot_needs_distinct_qubits(self):
        with pytest.raises(ValueError):
            GateOp(GateKind.CNOT, 1, control=1)

    def test_rotation_needs_angle(self):
        with pytest.raises(ValueError):
            GateOp(GateKind.ROT_Y, 0)

    def test_rotation_refuses_control(self):
        with pytest.raises(ValueError):
            GateOp(GateKind.ROT_Y, 0, control=1, angle=0.3)

    def test_circuit_bounds_check(self):
        with pytest.raises(ValueError):
            Circuit(2, (GateOp(GateKind.ROT_Z, 2, angle=0.1),))


class TestApplyGate:
    def test_cnot_control_unset(self):
        out = apply_gate(basis_state(2, 0b00), GateOp(GateKind.CNOT, 1, control=0))
        assert np.allclose(out, basis_state(2, 0b00))

    def test_cnot_control_set(self):
        out = apply_gate(basis_state(2, 0b10), GateOp(GateKind.CNOT, 1, control=0))
        assert np.allclose(out, basis_state(2, 0b11))

    def test_rotation_matches_dense_embedding(self):
        rng = np.random.default_rng(3)
        state = random_state(3, rng)
        op = GateOp(GateKind.ROT_Y, 1, angle=0.3)
        dense = circuit_unitary_dense([op], 3) @ state
        assert np.max(np.abs(apply_gate(state, op) - dense)) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(basis_state(2), GateOp(GateKind.ROT_X, 5, angle=0.1))

    def test_streaming_equals_dense_on_random_circuits(self):
        # gate-embedding equivalence, >= 100 randomized trials up to 5 qubits
        rng = np.random.default_rng(11)
        for trial in range(120):
            n = int(rng.integers(1, 6))
            ops = random_circuit(n, int(rng.integers(1, 12)), rng)
            state = random_state(n, rng)
            streamed = state
            for op in ops:
                streamed = apply_gate(streamed, op)
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
            circuit = compile_schedule(random_sparse_schedule(n, rng))
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

    def test_density_matrix_input(self):
        rng = np.random.default_rng(17)
        state = random_state(3, rng)
        rho = density_matrix(state)
        assert abs(expectation_zz(rho, 0, 2) - expectation_zz(state, 0, 2)) < 1e-12

    def test_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            expectation_zz(basis_state(2), 1, 1)

    def test_non_finite_rejected(self):
        # clamping would turn NaN into -1, a plausible-looking <ZZ>
        state = np.full(4, np.nan, dtype=complex)
        with pytest.raises(ValueError, match="not finite"):
            expectation_zz(state, 0, 1)
        with pytest.raises(ValueError, match="not finite"):
            expectation_zz(density_matrix(state), 0, 1)

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
        require_dense(27, 1, itemsize=1)  # exactly the budget
        require_dense(20, 2**7, itemsize=1)
        require_dense(1, 0)
        for n, count, itemsize in ((27, 1, 2), (26, 3, 1), (20, 2**7 + 1, 1), (24, 1, 16)):
            with pytest.raises(DimensionError):
                require_dense(n, count, itemsize)

    def test_z_diagonal_cache_is_bounded(self):
        # every qubit of the largest single state the budget admits (n = 23)
        # fits, so a gate list cycling through its qubits never misses twice
        maxsize = z_diagonal.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize >= 23
        require_dense(23)
        with pytest.raises(DimensionError):
            require_dense(24)
        z_diagonal.cache_clear()
        for n in (2, 7):
            for q in range(n):
                z_diagonal(n, q)
        for n in (2, 7):
            for q in range(n):
                z_diagonal(n, q)
        assert z_diagonal.cache_info().misses == 9


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
