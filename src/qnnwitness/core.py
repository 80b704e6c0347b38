"""Dense complex linear algebra for small qubit registers.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of the computational-basis index,
  so ``|q0 q1 ... q_{n-1}>`` maps to the integer ``q0 q1 ... q_{n-1}``
  read as binary. A state vector holds ``2**n`` complex amplitudes in
  that order; a density matrix is the matching ``2**n x 2**n`` array.
* Rotation gates use the half-angle convention,
  ``R_a(theta) = exp(-i (theta/2) sigma_a)``; ``pauli_exponential`` uses
  the full-angle form ``exp(-i alpha n.sigma)``. Callers convert between
  the two (the gate compiler centralizes the factor of 2).
* Everything is double-precision dense numpy; at <= 7 qubits (dim 128)
  sparsity buys nothing.
* One kernel applies every gate list (``apply_circuit``, ``apply_gate``,
  ``circuit_unitary``). It folds each run of rotations on one qubit into
  one 2x2, and collects Rz runs and ``CNOT, Rz, CNOT`` blocks, which are
  ``Z`` and ``Z Z`` phases, into one diagonal. The rewrites are exact
  identities, so results match the gate-by-gate product to round-off,
  and they read only the gate list, so the compiled circuit is still an
  independent check of the schedule it came from.

All functions are pure: inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations
import math

import numpy as np

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

_PAULIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

DEFAULT_UNITARY_CAP = 10  # circuit_unitary and verify_equivalence refuse larger registers

# Largest dense allocation accepted, in bytes: 128 MiB holds the 4 C(14, 2)
# training states of 14 qubits (95 MB) but not those of 15 (220 MB).
DENSE_BYTES_BUDGET = 2**27


class DimensionError(ValueError):
    """The register is too large for the dense arrays a computation needs."""


def require_dense(n: int, count: int = 1, itemsize: int = 16) -> None:
    """Refuse ``count`` arrays of ``2**n`` items before any is allocated.

    ``count * itemsize * 2**n > budget`` is tested as ``count * itemsize >
    budget >> n``, which is exact for integers and never builds ``2**n``.
    """
    if count * itemsize > DENSE_BYTES_BUDGET >> n:
        raise DimensionError(f"refusing {count} dense arrays of 2**{n} items for {n} qubits "
                             f"(budget {DENSE_BYTES_BUDGET} bytes)")


def rotation_matrix(axis: str, theta: float) -> np.ndarray:
    """2x2 rotation ``exp(-i (theta/2) sigma_axis)`` for axis in {x, y, z}."""
    if axis not in _PAULIS:
        raise ValueError(f"unknown rotation axis {axis!r}, expected 'x', 'y' or 'z'")
    if not math.isfinite(theta):
        raise ValueError("rotation angle must be finite")
    half = 0.5 * theta
    c, s = math.cos(half), math.sin(half)
    if axis == "x":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "y":
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.array([[c - 1j * s, 0], [0, c + 1j * s]])


def pauli_exponential(axis_vector: np.ndarray, alpha: float) -> np.ndarray:
    """``exp(-i alpha n.sigma) = I cos(alpha) - i (n.sigma) sin(alpha)``.

    ``axis_vector`` is a real 3-vector (x, y, z components) of unit norm.
    Note the full-angle convention: this rotates by ``2*alpha`` on the
    Bloch sphere, unlike the half-angle ``rotation_matrix``.
    """
    n = np.asarray(axis_vector, dtype=float)
    if n.shape != (3,):
        raise ValueError("axis vector must have exactly 3 components")
    if abs(np.linalg.norm(n) - 1.0) > 1e-10:
        raise ValueError("axis vector must have unit norm")
    n_dot_sigma = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    return math.cos(alpha) * IDENTITY_2 - 1j * math.sin(alpha) * n_dot_sigma


class GateKind(Enum):
    ROT_X = "rx"
    ROT_Y = "ry"
    ROT_Z = "rz"
    CNOT = "cx"


@dataclass(frozen=True)
class GateOp:
    """A single primitive gate: an axis rotation or a CNOT.

    Rotations carry ``angle`` (radians, half-angle convention) and no
    control; CNOT carries ``control`` and no angle.
    """

    kind: GateKind
    target: int
    control: int | None = None
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.kind is GateKind.CNOT:
            if self.control is None or self.angle is not None:
                raise ValueError("CNOT takes a control qubit and no angle")
            if self.control == self.target:
                raise ValueError("CNOT control and target must differ")
        else:
            if self.control is not None:
                raise ValueError("rotations take no control qubit")
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError("rotation angle must be a finite number")

    @property
    def qubits(self) -> tuple[int, ...]:
        if self.control is None:
            return (self.target,)
        return (self.control, self.target)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list; ``ops[0]`` is applied to the state first."""

    n_qubits: int
    ops: tuple[GateOp, ...] = ()

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            for q in op.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"qubit index {q} out of range for {self.n_qubits} qubits")

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)


def qubit_pairs(n: int) -> list[tuple[int, int]]:
    """All unordered qubit pairs (i, j) with i < j, in lexicographic order."""
    return list(combinations(range(n), 2))


def basis_state(n: int, index: int = 0) -> np.ndarray:
    """Computational basis state |index> of an n-qubit register."""
    state = np.zeros(2**n, dtype=complex)
    state[index] = 1.0
    return state


@lru_cache(maxsize=32)  # every qubit of the largest register the dense budget admits (23)
def z_diagonal(n: int, q: int) -> np.ndarray:
    """Diagonal of Z on qubit q as a length-2^n array of +-1."""
    if not 0 <= q < n:
        raise ValueError(f"qubit index {q} out of range for {n} qubits")
    bits = (np.arange(2**n) >> (n - 1 - q)) & 1
    diag = 1.0 - 2.0 * bits
    diag.flags.writeable = False
    return diag


def n_qubits_of(state: np.ndarray) -> int:
    """Register size implied by a state's dimension; rejects non-powers of two."""
    n = int(round(math.log2(state.shape[0])))
    if 2**n != state.shape[0]:
        raise ValueError(f"state dimension {state.shape[0]} is not a power of two")
    return n


def _apply_1q(tensor: np.ndarray, u: np.ndarray, q: int) -> np.ndarray:
    """Apply the 2x2 ``u`` to qubit ``q``: the one-qubit update of gates and
    of chunked evolution. ``tensor`` holds the amplitudes first, as ``[2]*n``
    axes or one ``2**n`` axis, then any batch axes."""
    # qubit 0 is the most significant bit: qubits 0..q-1 fold into the
    # leading axis, the later qubits and the batch into the trailing one
    return np.matmul(u, tensor.reshape(2**q, 2, -1)).reshape(tensor.shape)


def _apply_cnot(tensor: np.ndarray, control: int, target: int) -> np.ndarray:
    out = tensor.copy()
    sel0 = [slice(None)] * tensor.ndim
    sel1 = [slice(None)] * tensor.ndim
    sel0[control] = sel1[control] = 1
    sel0[target], sel1[target] = 0, 1
    out[tuple(sel0)] = tensor[tuple(sel1)]
    out[tuple(sel1)] = tensor[tuple(sel0)]
    return out


# tuples, not sets: membership then compares by identity, while an Enum hashes in Python
_ROTATIONS = (GateKind.ROT_X, GateKind.ROT_Y, GateKind.ROT_Z)
_Z_ONLY = (GateKind.ROT_Z,)


def _rotation_run_end(ops: tuple[GateOp, ...], start: int, q: int, kinds: tuple[GateKind, ...]) -> int:
    """Index just past the run of ``kinds`` rotations on qubit ``q`` from ``start``."""
    end = start
    while end < len(ops) and ops[end].kind in kinds and ops[end].target == q:
        end += 1
    return end


def _run_matrix(run: tuple[GateOp, ...]) -> np.ndarray:
    """The 2x2 product of a run of rotations on one qubit, first gate
    rightmost. The entries are ``rotation_matrix``'s, multiplied out as
    Python scalars: for 2x2 factors that is several times faster than
    building and multiplying arrays."""
    u00, u01, u10, u11 = 1.0, 0.0, 0.0, 1.0
    for g in run:
        c, s = math.cos(0.5 * g.angle), math.sin(0.5 * g.angle)
        if g.kind is GateKind.ROT_X:
            r00, r01, r10, r11 = c, -1j * s, -1j * s, c
        elif g.kind is GateKind.ROT_Y:
            r00, r01, r10, r11 = c, -s, s, c
        else:
            r00, r01, r10, r11 = c - 1j * s, 0.0, 0.0, c + 1j * s
        u00, u01, u10, u11 = (r00 * u00 + r01 * u10, r00 * u01 + r01 * u11,
                              r10 * u00 + r11 * u10, r10 * u01 + r11 * u11)
    return np.array([[u00, u01], [u10, u11]], dtype=complex)


def _run_circuit(columns: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Apply ``circuit`` to the ``(2**n, batch)`` ``columns``: the one gate kernel.

    It reads only the gate list and makes three exact rewrites, so that a
    compiled schedule touches the columns once per qubit and chunk rather
    than once per gate:

    * a run of rotations on one qubit is multiplied into one 2x2;
    * a run of Rz on qubit q is the diagonal ``exp(-i (a/2) Z_q)``, with
      ``a`` the sum of its angles, and ``CNOT(c, t)``, an Rz run on t, then
      the same ``CNOT(c, t)`` is ``exp(-i (a/2) Z_c Z_t)``, because the CNOT
      maps ``Z_t`` to ``Z_c Z_t`` and is its own inverse. Diagonal gates
      commute, so their half-angles add up in one real vector, applied as
      one phase multiply before the next non-diagonal gate and at the end;
    * every other CNOT permutes the amplitudes.
    """
    n, ops = circuit.n_qubits, circuit.ops
    half = None  # summed half-angles of the diagonal gates not yet applied
    i = 0
    while i < len(ops):
        op = ops[i]
        diagonal = None
        if op.kind is GateKind.CNOT:
            end = _rotation_run_end(ops, i + 1, op.target, _Z_ONLY)
            closing = ops[end] if end < len(ops) else None
            if closing is not None and closing.kind is GateKind.CNOT and closing.qubits == op.qubits:
                angle = sum(g.angle for g in ops[i + 1 : end])
                diagonal = 0.5 * angle * z_diagonal(n, op.control) * z_diagonal(n, op.target)
                end += 1
            else:
                end = i + 1
        else:
            end = _rotation_run_end(ops, i, op.target, _ROTATIONS)
            if _rotation_run_end(ops, i, op.target, _Z_ONLY) == end:
                diagonal = 0.5 * sum(g.angle for g in ops[i:end]) * z_diagonal(n, op.target)
        if diagonal is not None:
            half = diagonal if half is None else half + diagonal
        else:
            if half is not None:
                columns, half = np.exp(-1j * half)[:, np.newaxis] * columns, None
            if op.kind is GateKind.CNOT:
                tensor = columns.reshape([2] * n + [-1])
                columns = _apply_cnot(tensor, op.control, op.target).reshape(columns.shape)
            else:
                columns = _apply_1q(columns, _run_matrix(ops[i:end]), op.target)
        i = end
    if half is not None:
        columns = np.exp(-1j * half)[:, np.newaxis] * columns
    return columns


def apply_gate(state: np.ndarray, gate: GateOp) -> np.ndarray:
    """Apply one gate to a state vector: a circuit of one gate."""
    return apply_circuit(state, Circuit(n_qubits_of(state), (gate,)))


def apply_circuit(state: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Apply circuit.ops in order to a state vector, or to each column of a
    ``(2**n, batch)`` array, by stride updates (no 2^N matrix).

    Rotation runs and diagonal gates are fused before they touch the state
    (see :func:`_run_circuit`); the result equals the gate-by-gate product
    to round-off.
    """
    n = n_qubits_of(state)
    if n != circuit.n_qubits:
        raise ValueError(f"state has {n} qubits but circuit expects {circuit.n_qubits}")
    if state.ndim not in (1, 2):
        raise ValueError("expected a state vector or a (2**n, batch) array of them")
    return _run_circuit(state.reshape(2**n, -1), circuit).reshape(state.shape)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense 2^N x 2^N unitary of the circuit (first op rightmost in the product)."""
    n = circuit.n_qubits
    if n > DEFAULT_UNITARY_CAP:
        raise DimensionError(f"refusing dense unitary for {n} > {DEFAULT_UNITARY_CAP} qubits")
    # the basis columns, evolved at once
    return _run_circuit(np.eye(2**n, dtype=complex), circuit)


def expectation_zz(state: np.ndarray, i: int, j: int) -> float:
    """<Z_i Z_j> of a state vector or density matrix; always in [-1, 1].

    Round-off just outside the range is clamped; a non-finite value raises.
    """
    if i == j:
        raise ValueError("expectation_zz needs two distinct qubits")
    arr = np.asarray(state)
    if arr.ndim == 1:
        n = n_qubits_of(arr)
        probs = np.abs(arr) ** 2
    elif arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        n = n_qubits_of(arr[:, 0])
        probs = np.real(np.diag(arr))
    else:
        raise ValueError("expected a state vector or a square density matrix")
    for q in (i, j):
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")
    value = float(np.sum(probs * z_diagonal(n, i) * z_diagonal(n, j)))
    if not math.isfinite(value):
        raise ValueError("<Z_i Z_j> is not finite; the state holds non-finite amplitudes")
    return min(1.0, max(-1.0, value))


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Entrywise L2 norm of a - b."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def is_unitary(m: np.ndarray, tol: float = 1e-12) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]))) < tol


def is_hermitian(m: np.ndarray, tol: float = 1e-12) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return float(np.linalg.norm(m - m.conj().T)) < tol


def assert_normalized(state: np.ndarray, tol: float = 1e-10) -> None:
    norm_sq = float(np.sum(np.abs(state) ** 2))
    if not abs(norm_sq - 1.0) <= tol:  # also refuses NaN
        raise ValueError(f"state is not normalized: sum |amp|^2 = {norm_sq}")


def density_matrix(state: np.ndarray) -> np.ndarray:
    """Pure-state density matrix |psi><psi|."""
    state = np.asarray(state, dtype=complex)
    return np.outer(state, state.conj())


def purity(rho: np.ndarray) -> float:
    """Tr[rho^2]; 1 for pure states."""
    return float(np.real(np.trace(rho @ rho)))
