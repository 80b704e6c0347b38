import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnnwitness.compiler import (
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
    Circuit,
    GateKind,
    GateOp,
    circuit_unitary,
    frobenius_distance,
)
from qnnwitness.hamiltonian import ChunkParams, Schedule, chunk_propagators

from helpers import PAULI_X, PAULI_Z, expm_eigh

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
        ops = compile_single_qubit(0.0, 1.0, 1.0, 0)
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
        assert compile_zz(0.0, 1.0, 0, 1) == []

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


class TestCompileSchedule:
    def test_table2_gate_count(self, table2):
        circuit = compile_schedule(table2, elide=False)
        assert len(circuit) == 36
        assert gate_counts(circuit) == (28, 8)

    def test_all_zero_schedule_empty(self, zero_schedule):
        assert len(compile_schedule(zero_schedule)) == 0

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
