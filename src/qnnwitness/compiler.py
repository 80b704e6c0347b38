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

:func:`compile_schedule` builds each pair's ``CNOT(i, j)`` once per call
and puts that one frozen gate object at both ends of the pair's block in
every chunk; nothing is shared across calls. The circuit still holds
only gates: :func:`qnnwitness.core.apply_circuit` fuses them in one pass
over the gate list and never reads the schedule.

``atan2`` rather than the arcsin form keeps negative biases on the
correct branch; the two agree for eps >= 0.

:func:`verify_equivalence` checks that claim through the witness's one
dense dispatcher, :func:`~qnnwitness.witness.evolve_dense`, without
building a unitary or a density matrix: at 10 qubits it fits 128 MiB.

Nothing is elided unless asked: the ``gates`` witness, ``verify`` and
``sample`` run the circuit ``compile --no-elide`` prints, and only the
``compile`` command's default QASM drops identity-angle gates.
:func:`compile_schedule` keeps its circuits in one LRU store,
``CIRCUIT_CACHE``, keyed on the schedule's numbers bit for bit and on
``elide``, and bounded by the bytes its circuits keep alive, their fused
steps included (``Circuit.nbytes``).
"""

from __future__ import annotations

import math
import re
import struct
from functools import partial

import numpy as np

from .core import ArrayCache, Circuit, DimensionError, GateKind, GateOp, qubit_pairs, require_square
from .core import _CNOT, _ROT_Y, _ROT_Z
from .core import circuit_unitary  # unused here; the benchmark tracer patches compiler.circuit_unitary
from .hamiltonian import Schedule, sector_trotter_error
from .witness import PairStateKind, evolve_dense, make_pair_state, orbit_coordinates

ELISION_THRESHOLD = 1e-15  # gates with |angle| below this are identity to double precision

# Eight 7-qubit schedules of four chunks, one full circuit of about 64 KB each
# with its fused steps. A circuit that alone needs more, such as four chunks
# on 13 qubits with a 128 KiB phase vector each, is compiled on every call.
# A 2 MiB store, held full, slowed the benchmark's other n=2 CLI calls by 4.7%.
CIRCUIT_CACHE = ArrayCache(2**19)

VERIFY_BLOCK_ROWS = 128  # basis rows per evolution in verify: all of them up to 7 qubits


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
    tunneling: float, bias: float, dt: float, qubit: int, elide: bool = False
) -> list[GateOp]:
    """Gates for ``exp(-i dt (K X_q + eps Z_q))``, first-applied first."""
    beta, alpha = extract_rotation_angles(tunneling, bias, dt)
    if (beta == 0.0 and alpha == 0.0) or (elide and abs(alpha) < ELISION_THRESHOLD):
        return []
    ops = [
        GateOp(_ROT_Y, qubit, angle=-beta),
        GateOp(_ROT_Z, qubit, angle=alpha),
        GateOp(_ROT_Y, qubit, angle=beta),
    ]
    if elide:
        ops = [op for op in ops if abs(op.angle) >= ELISION_THRESHOLD]
    return ops


def compile_zz(coupling: float, dt: float, control: int, target: int, elide: bool = False) -> list[GateOp]:
    """Gates for ``exp(-i dt zeta Z_i Z_j)`` via CNOT conjugation."""
    if control == target:
        raise ValueError("pair factor needs two distinct qubits")
    return _zz_gates(GateOp(_CNOT, target, control=control), coupling, dt, elide)


def _zz_gates(cnot: GateOp, coupling: float, dt: float, elide: bool) -> list[GateOp]:
    """``cnot``, the Rz on its target, then the same ``cnot`` object again:
    a frozen gate is safe to share, and one object per pair saves a build."""
    angle = 2.0 * coupling * dt
    if elide and abs(angle) < ELISION_THRESHOLD:
        return []
    return [cnot, GateOp(_ROT_Z, cnot.target, angle=angle), cnot]


def _schedule_key(schedule: Schedule, elide: bool = False) -> tuple:
    """The schedule's numbers bit for bit, and ``elide``. Schedules compare
    their floats with ``==``, which equates -0.0 and +0.0; those compile to
    different gates (``atan2(-0.0, -1) = -pi``)."""
    values = [schedule.total_time]
    for ck in schedule.chunks:
        values += (*ck.tunneling, *ck.bias, *ck.coupling)
    return schedule.n_qubits, struct.pack(f"{len(values)}d", *values), bool(elide)


@partial(CIRCUIT_CACHE, key=_schedule_key)
def compile_schedule(schedule: Schedule, elide: bool = False) -> Circuit:
    """Full circuit for the schedule, matching the chunked propagator's ordering.

    Per chunk: pair blocks over lexicographic (i, j), then single-qubit
    blocks in ascending qubit order. Without elision (the default) the
    gate count is ``n_chunks * (3 * n_pairs + 3 * n_qubits)`` whenever no
    single-qubit factor is exactly the identity. Equal schedules share one
    circuit per ``elide`` through ``CIRCUIT_CACHE``.
    """
    n = schedule.n_qubits
    dt = schedule.dt
    cnots = [GateOp(_CNOT, j, control=i) for i, j in qubit_pairs(n)]  # each shared by every chunk
    ops: list[GateOp] = []
    for ck in schedule.chunks:
        for cnot, coupling in zip(cnots, ck.coupling):
            ops += _zz_gates(cnot, coupling, dt, elide)
        for q in range(n):
            ops += compile_single_qubit(ck.tunneling[q], ck.bias[q], dt, q, elide=elide)
    return Circuit(n, tuple(ops))


def gate_counts(circuit: Circuit) -> tuple[int, int]:
    """(single-qubit, two-qubit) gate counts."""
    two = sum(1 for op in circuit.ops if op.kind is _CNOT)
    return len(circuit.ops) - two, two


def verify_equivalence(schedule: Schedule) -> dict:
    """Frobenius distances between the gate, chunked, and exact pictures.

    Compares full unitaries and, for the four reference pair states on
    qubits (0, 1), the final density matrices. Gate-vs-chunked distances
    sit at round-off; chunked-vs-exact carries the whole Trotter error.
    Each dense picture evolves the basis states ``VERIFY_BLOCK_ROWS`` at a
    time, the pair states with the first block, as C-ordered ``(2**n,
    batch)`` columns; a unitary distance sums the blocks' squares. Each
    picture is compared with the one before it, so two are held at a time.
    Under a schedule of uniform chunks, chunked-vs-exact comes from the
    total-spin sectors instead (:func:`~qnnwitness.hamiltonian.sector_trotter_error`):
    the pair states evolve there as pair (x) Dicke coordinates, an
    isometric image of the ``2**n`` states, so their density distances
    are the dense ones, and ``exact`` evolves no ``2**n`` state.
    """
    n = schedule.n_qubits
    require_square(n)
    if n < 2:
        raise DimensionError(f"verification needs the reference pair (0, 1), which {n} qubit cannot hold")
    if schedule.symmetric:  # refused, if at all, before any dense work; the pair states in PairStateKind order
        sectors = _distances(*sector_trotter_error(orbit_coordinates(n), schedule))
    dim = 2**n
    methods = ("gates", "chunked") if schedule.symmetric else ("gates", "chunked", "exact")
    names = {"chunked": "frobenius_gate_vs_chunked", "exact": "frobenius_chunked_vs_exact"}
    block_distances: dict = {name: [] for name in names.values()}
    finals = {}
    for start in range(0, dim, VERIFY_BLOCK_ROWS):
        rows = min(VERIFY_BLOCK_ROWS, dim - start)
        # basis states start .. start + rows - 1, then in the first block four columns the pair states overwrite
        columns = np.eye(dim, rows + 4 * (start == 0), -start, dtype=complex)
        if start == 0:
            for column, kind in enumerate(PairStateKind, rows):
                columns[:, column] = make_pair_state(kind, (0, 1), n)
        previous = None
        for method in methods:
            evolved = evolve_dense(columns.T, schedule, method)
            if start == 0:
                finals[method] = evolved[rows:].copy()  # not a view, which would keep the whole block
            if previous is not None:
                block_distances[names[method]].append(np.linalg.norm(previous[:rows] - evolved[:rows]))
            previous = evolved
    report: dict = {"n_qubits": n}
    for before, method in zip(methods, methods[1:]):
        report[names[method]] = _distances(math.hypot(*block_distances[names[method]]), finals[before], finals[method])
    if schedule.symmetric:
        report[names["exact"]] = sectors
    return report


def _distances(unitary: float, a: np.ndarray, b: np.ndarray) -> dict:
    """One section of the report: a unitary distance, and the density distance of each kind's rows of a and b."""
    density = _density_distances(a, b).tolist()
    return {"unitary": unitary, "density_matrix": {kind.value: d for kind, d in zip(PairStateKind, density)}}


def _density_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``||a a^+ - b b^+||_F`` of each row pair. Every term is of second order
    in ``d = b - a``, so none of order one cancel, as they would in
    ``2 - 2 |<a|b>|^2``, which reads a 1e-16 distance as about 1e-8."""
    d = b - a
    alpha, delta = (np.abs(a) ** 2).sum(axis=1), (np.abs(d) ** 2).sum(axis=1)
    gamma = (a.conj() * d).sum(axis=1)  # <a|d>
    squared = 2 * alpha * delta + 2 * gamma.real**2 - 2 * gamma.imag**2 + 4 * delta * gamma.real + delta**2
    return np.sqrt(np.maximum(squared, 0.0))  # round-off below zero is clamped


# --- OpenQASM 2.0 -------------------------------------------------------

def export_qasm(circuit: Circuit) -> str:
    """OpenQASM 2.0 text, one line per gate, angles at 17 significant digits."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.n_qubits}];",
        f"creg c[{circuit.n_qubits}];",
    ]
    for op in circuit.ops:
        if op.kind is _CNOT:
            lines.append(f"cx q[{op.control}],q[{op.target}];")
        else:
            lines.append(f"{op.kind.value}({op.angle:.17g}) q[{op.target}];")  # the kinds' values are QASM names
    return "\n".join(lines) + "\n"


_QASM_ROTATION = re.compile(r"^(rx|ry|rz)\(([^)]+)\)\s+q\[(\d+)\];$")
_QASM_CNOT = re.compile(r"^cx\s+q\[(\d+)\]\s*,\s*q\[(\d+)\];$")
_QASM_QREG = re.compile(r"^qreg\s+q\[(\d+)\];$")


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
            ops.append(GateOp(GateKind(name), int(target), angle=float(angle)))
            continue
        m = _QASM_CNOT.match(line)
        if m:
            control, target = (int(g) for g in m.groups())
            ops.append(GateOp(_CNOT, target, control=control))
            continue
        raise ValueError(f"unsupported QASM on line {lineno}: {line!r}")
    if n_qubits is None:
        raise ValueError("QASM text declares no qreg")
    return Circuit(n_qubits, tuple(ops))
