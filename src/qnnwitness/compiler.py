"""Compile parameter schedules into Ry/Rz/CNOT circuits.

Each chunk factor has a closed-form decomposition:

* a single-qubit factor ``exp(-i dt (K X + eps Z))`` equals the matrix
  product ``Ry(beta) Rz(alpha) Ry(-beta)`` with ``beta = atan2(K, eps)``
  and ``alpha = 2 dt sqrt(K^2 + eps^2)``. The factor of 2 reconciles the
  full-angle generator with the half-angle gate convention. In circuit
  (application) order the rightmost factor comes first, so the emitted
  gates are ``Ry(-beta), Rz(alpha), Ry(beta)``.
* a pair factor ``exp(-i dt zeta Z_i Z_j)`` is a CNOT conjugation of a
  target-qubit rotation: ``CNOT(i,j), Rz_j(2 zeta dt), CNOT(i,j)``.

Gate order mirrors the chunked propagator exactly (pair blocks, then
single-qubit blocks, chunk by chunk), so compiled circuits match it to
round-off; any residual witness error comes from the non-commuting
Trotter split, not from the gate translation.

``atan2`` rather than the arcsin form keeps negative biases on the
correct branch; the two agree for eps >= 0.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .core import (
    DEFAULT_UNITARY_CAP,
    Circuit,
    DimensionError,
    GateKind,
    GateOp,
    circuit_unitary,
    density_matrix,
    frobenius_distance,
    qubit_pairs,
)
from .hamiltonian import Schedule, evolve_states

ELISION_THRESHOLD = 1e-15  # gates with |angle| below this are identity to double precision


def extract_rotation_angles(tunneling: float, bias: float, dt: float) -> tuple[float, float]:
    """Axis angle ``beta`` and Rz argument ``alpha`` for one single-qubit factor.

    Returns (0.0, 0.0) when both coefficients vanish (the factor is the
    identity and the rotation axis is undefined).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if tunneling == 0.0 and bias == 0.0:
        return 0.0, 0.0
    beta = math.atan2(tunneling, bias)
    alpha = 2.0 * dt * math.hypot(tunneling, bias)
    return beta, alpha


def compile_single_qubit(
    tunneling: float, bias: float, dt: float, qubit: int, elide: bool = True
) -> list[GateOp]:
    """Gates for ``exp(-i dt (K X_q + eps Z_q))``, first-applied first."""
    beta, alpha = extract_rotation_angles(tunneling, bias, dt)
    if beta == 0.0 and alpha == 0.0:
        return []
    if elide and abs(alpha) < ELISION_THRESHOLD:
        return []
    ops = [
        GateOp(GateKind.ROT_Y, qubit, angle=-beta),
        GateOp(GateKind.ROT_Z, qubit, angle=alpha),
        GateOp(GateKind.ROT_Y, qubit, angle=beta),
    ]
    if elide:
        ops = [op for op in ops if abs(op.angle) >= ELISION_THRESHOLD]
    return ops


def compile_zz(coupling: float, dt: float, control: int, target: int, elide: bool = True) -> list[GateOp]:
    """Gates for ``exp(-i dt zeta Z_i Z_j)`` via CNOT conjugation."""
    if control == target:
        raise ValueError("pair factor needs two distinct qubits")
    angle = 2.0 * coupling * dt
    if elide and abs(angle) < ELISION_THRESHOLD:
        return []
    return [
        GateOp(GateKind.CNOT, target, control=control),
        GateOp(GateKind.ROT_Z, target, angle=angle),
        GateOp(GateKind.CNOT, target, control=control),
    ]


def compile_schedule(schedule: Schedule, elide: bool = True) -> Circuit:
    """Full circuit for the schedule, matching the chunked propagator's ordering.

    Per chunk: pair blocks over lexicographic (i, j), then single-qubit
    blocks in ascending qubit order. Without elision the gate count is
    ``n_chunks * (3 * n_pairs + 3 * n_qubits)`` whenever no single-qubit
    factor is exactly the identity.
    """
    n = schedule.n_qubits
    dt = schedule.dt
    ops: list[GateOp] = []
    for ck in schedule.chunks:
        for idx, (i, j) in enumerate(qubit_pairs(n)):
            ops.extend(compile_zz(ck.coupling[idx], dt, i, j, elide=elide))
        for q in range(n):
            ops.extend(compile_single_qubit(ck.tunneling[q], ck.bias[q], dt, q, elide=elide))
    return Circuit(n, tuple(ops))


def gate_counts(circuit: Circuit) -> tuple[int, int]:
    """(single-qubit, two-qubit) gate counts."""
    two = sum(1 for op in circuit.ops if op.kind is GateKind.CNOT)
    return len(circuit.ops) - two, two


def verify_equivalence(schedule: Schedule) -> dict:
    """Frobenius distances between the gate, chunked, and exact pictures.

    Compares full unitaries and, for the four reference pair states on
    qubits (0, 1), the final density matrices. Gate-vs-chunked distances
    sit at round-off; chunked-vs-exact carries the whole Trotter error.
    """
    from .witness import PairStateKind, make_pair_state  # local import avoids a cycle

    n = schedule.n_qubits
    if n > DEFAULT_UNITARY_CAP:
        raise DimensionError(f"refusing dense verification for {n} > {DEFAULT_UNITARY_CAP} qubits")
    if n < 2:
        raise DimensionError(f"verification needs the reference pair (0, 1), which {n} qubit cannot hold")
    u_gates = circuit_unitary(compile_schedule(schedule))
    # evolve_states maps each basis row e_k to U e_k, so the stack comes back as U^T
    identity = np.eye(2**n, dtype=complex)
    u_chunked = evolve_states(identity, schedule, "chunked").T
    u_exact = evolve_states(identity, schedule, "exact").T

    report: dict = {
        "n_qubits": n,
        "frobenius_gate_vs_chunked": {"unitary": frobenius_distance(u_gates, u_chunked), "density_matrix": {}},
        "frobenius_chunked_vs_exact": {"unitary": frobenius_distance(u_chunked, u_exact), "density_matrix": {}},
    }
    for kind in PairStateKind:
        psi = make_pair_state(kind, (0, 1), n)
        rho_g = density_matrix(u_gates @ psi)
        rho_c = density_matrix(u_chunked @ psi)
        rho_e = density_matrix(u_exact @ psi)
        report["frobenius_gate_vs_chunked"]["density_matrix"][kind.value] = frobenius_distance(rho_g, rho_c)
        report["frobenius_chunked_vs_exact"]["density_matrix"][kind.value] = frobenius_distance(rho_c, rho_e)
    return report


# --- OpenQASM 2.0 -------------------------------------------------------

_QASM_GATE_NAMES = {GateKind.ROT_X: "rx", GateKind.ROT_Y: "ry", GateKind.ROT_Z: "rz"}


def export_qasm(circuit: Circuit) -> str:
    """OpenQASM 2.0 text, one line per gate, angles at 17 significant digits."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.n_qubits}];",
        f"creg c[{circuit.n_qubits}];",
    ]
    for op in circuit.ops:
        if op.kind is GateKind.CNOT:
            lines.append(f"cx q[{op.control}],q[{op.target}];")
        else:
            lines.append(f"{_QASM_GATE_NAMES[op.kind]}({op.angle:.17g}) q[{op.target}];")
    return "\n".join(lines) + "\n"


_QASM_ROTATION = re.compile(r"^(rx|ry|rz)\(([^)]+)\)\s+q\[(\d+)\];$")
_QASM_CNOT = re.compile(r"^cx\s+q\[(\d+)\]\s*,\s*q\[(\d+)\];$")
_QASM_QREG = re.compile(r"^qreg\s+q\[(\d+)\];$")

_ROTATION_KINDS = {"rx": GateKind.ROT_X, "ry": GateKind.ROT_Y, "rz": GateKind.ROT_Z}


def parse_qasm(text: str) -> Circuit:
    """Parse the subset of OpenQASM 2.0 emitted by :func:`export_qasm`."""
    n_qubits = None
    ops: list[GateOp] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if line == "OPENQASM 2.0;" or line.startswith("include") or line.startswith("creg"):
            continue
        m = _QASM_QREG.match(line)
        if m:
            n_qubits = int(m.group(1))
            continue
        m = _QASM_ROTATION.match(line)
        if m:
            name, angle, target = m.groups()
            ops.append(GateOp(_ROTATION_KINDS[name], int(target), angle=float(angle)))
            continue
        m = _QASM_CNOT.match(line)
        if m:
            control, target = (int(g) for g in m.groups())
            ops.append(GateOp(GateKind.CNOT, target, control=control))
            continue
        raise ValueError(f"unsupported QASM on line {lineno}: {line!r}")
    if n_qubits is None:
        raise ValueError("QASM text declares no qreg")
    return Circuit(n_qubits, tuple(ops))
