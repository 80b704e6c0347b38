"""Dense complex linear algebra for small qubit registers.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of the computational-basis index,
  so ``|q0 q1 ... q_{n-1}>`` maps to the integer ``q0 q1 ... q_{n-1}``
  read as binary. A state vector holds ``2**n`` complex amplitudes in
  that order; a density matrix is the matching ``2**n x 2**n`` array.
* Rotation gates use the half-angle convention,
  ``R_a(theta) = exp(-i (theta/2) sigma_a)``; the gate compiler
  centralizes the factor of 2.
* Everything is double-precision dense numpy; at <= 7 qubits (dim 128)
  sparsity buys nothing.
* Every dense picture holds ``(2**n, batch)`` columns, a state per column,
  addressed by basis index. One runner (``_run_steps``) applies every
  dense evolution in all three pictures: gate lists (``apply_circuit``,
  ``circuit_unitary``), chunked and exact Hamiltonian evolution. Its steps
  are phase vectors, which scale the rows, lone CNOTs, which permute them,
  and blocks: a ``2**k``-square matrix on the k neighbouring qubits
  q..q+k-1, applied in one ``matmul`` over the ``(2**q, 2**k, rest)`` view
  of the columns. An exact chunk propagator is one block on all n qubits. A chunk's single-qubit layer is ``ceil(n / BLOCK_QUBITS)``
  such blocks of near-equal size (``_blocks``), each the Kronecker product
  of its qubits' 2x2s, so the state is read a few times per chunk, not
  once per qubit.
* A gate list is fused once, in one pass over it, the first time the
  circuit runs or is sized (``Circuit.nbytes``), and the result is kept
  on it (``Circuit.steps``): each rotation run on one qubit becomes one
  2x2, neighbouring 2x2s become blocks, and each run of Rz and
  ``CNOT, Rz, CNOT`` blocks, which are ``Z`` and ``Z Z`` phases, becomes
  one phase vector, built the first time it is applied. The rewrites are
  exact identities, so results match the gate-by-gate product to
  round-off, and they read only the gate list, so the compiled circuit
  is still an independent check of the schedule it came from.

All functions are pure: inputs are never mutated.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, wraps
from itertools import combinations
from operator import attrgetter
import math
from typing import NamedTuple

import numpy as np

# The largest register any dense 2**n x 2**n array is built for (a unitary,
# a Hamiltonian, a chunk propagator), through require_square: one complex
# such array is 16 MiB at the cap.
DEFAULT_UNITARY_CAP = 10

# Largest dense allocation accepted, in bytes: 128 MiB holds the 4 C(14, 2)
# training states of 14 qubits (95 MB) but not those of 15 (220 MB).
DENSE_BYTES_BUDGET = 2**27


class CacheInfo(NamedTuple):
    """Hits and misses of one function in an ``ArrayCache``, and the entries and bytes it holds there."""

    hits: int
    misses: int
    currsize: int
    nbytes: int


class ArrayCache:
    """LRU store of read-only values from several functions, bounded by their total bytes.

    Decorating a function memoises it here; each value reports the bytes
    it keeps alive as ``nbytes``, as an array does. A new value evicts the
    least recently used ones, whichever function made them, and a value
    larger than ``max_bytes`` is returned but not kept. ``key`` maps a
    call's arguments to its entry; without it the entry is the tuple of
    positional arguments itself, and a keyword argument raises
    ``TypeError``. A hit is one dictionary lookup and a move to the most
    recent end. Each decorated function gets ``cache_info()`` and
    ``cache_clear()`` over its own entries.
    """

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self._entries: OrderedDict = OrderedDict()  # (function, key) -> value, least recent first
        self.nbytes = 0  # what the entries report, kept as they come and go

    def __call__(self, fn, key=None):
        entries = self._entries
        get, move_to_end = entries.get, entries.move_to_end
        hits = misses = 0

        def miss(entry, *args, **kwargs):
            nonlocal misses
            misses += 1
            value = fn(*args, **kwargs)
            if value.nbytes <= self.max_bytes:
                entries[entry] = value
                self.nbytes += value.nbytes
                while self.nbytes > self.max_bytes:
                    self.nbytes -= entries.popitem(last=False)[1].nbytes
            return value

        def cached(*args, **kwargs):  # values report nbytes, so none is None
            nonlocal hits
            if kwargs and key is None:
                raise TypeError(f"{fn.__name__}() is stored by its positional arguments alone, got {sorted(kwargs)}")
            entry = (fn, args if key is None else key(*args, **kwargs))
            value = get(entry)
            if value is None:
                return miss(entry, *args, **kwargs)
            hits += 1
            move_to_end(entry)
            return value

        def cache_info() -> CacheInfo:
            own = [value for (owner, _), value in entries.items() if owner is fn]
            return CacheInfo(hits, misses, len(own), sum(value.nbytes for value in own))

        def cache_clear() -> None:
            nonlocal hits, misses
            for entry in [entry for entry in entries if entry[0] is fn]:
                self.nbytes -= entries.pop(entry).nbytes
            hits = misses = 0

        cached = wraps(fn)(cached)
        cached.cache_info = cache_info
        cached.cache_clear = cache_clear
        return cached


# Every array derived from n alone: ``pair_readout`` (the one entry
# ``expectation_zz`` and the sampler read per pair, 16 B x 2^n),
# ``hamiltonian.pair_dicke_operators``,
# ``hamiltonian.sector_terms`` and ``hamiltonian.wigner_basis`` (the J_x eigenbasis
# that every ``chunked`` sector step shares between its per-chunk diagonals,
# without ``eigh``, Feng et al., Phys. Rev. E 92, 043307 (2015)) keep at most
# one dense budget between them.
# No 2^n basis of the total-spin sectors is built. The dense phases and
# batched read-outs store nothing here: they read their signs from the index
# bits (``z_signs``).
PARITY_CACHE = ArrayCache(DENSE_BYTES_BUDGET)


class DimensionError(ValueError):
    """The register is too large for the dense arrays a computation needs."""


def require_dense(n: int, count: int = 1) -> None:
    """Refuse ``count`` complex arrays of ``2**n`` items before any is allocated.

    ``count * 16 * 2**n > budget`` is tested as ``count * 16 > budget >> n``,
    which is exact for integers and never builds ``2**n``.
    """
    if count * 16 > DENSE_BYTES_BUDGET >> n:
        raise DimensionError(f"refusing {count} dense arrays of 2**{n} items for {n} qubits "
                             f"(budget {DENSE_BYTES_BUDGET} bytes)")


def require_square(n: int) -> None:
    """Refuse a dense ``2**n x 2**n`` array above ``DEFAULT_UNITARY_CAP`` qubits, before any is allocated."""
    if n > DEFAULT_UNITARY_CAP:
        raise DimensionError(f"refusing dense 2**{n} x 2**{n} arrays for {n} > {DEFAULT_UNITARY_CAP} qubits")


class GateKind(Enum):
    ROT_X = "rx"
    ROT_Y = "ry"
    ROT_Z = "rz"
    CNOT = "cx"


# A member read as a class attribute goes through EnumType's attribute hook
# on CPython 3.10 and 3.11, about 0.2 us against 25 ns for a module global;
# code that runs once per gate reads these names instead
_ROT_X, _ROT_Y, _ROT_Z, _CNOT = GateKind.ROT_X, GateKind.ROT_Y, GateKind.ROT_Z, GateKind.CNOT
_set_field = object.__setattr__  # how a frozen dataclass sets its fields


@dataclass(frozen=True, init=False)
class GateOp:
    """A single primitive gate: an axis rotation or a CNOT.

    Rotations carry ``angle`` (radians, half-angle convention) and no
    control; CNOT carries ``control`` and no angle. ``__init__`` checks
    the arguments, then sets the fields as a frozen dataclass does; it is
    written out rather than generated so that the checks need no
    ``__post_init__`` call reading the fields back.
    """

    kind: GateKind
    target: int
    control: int | None = None
    angle: float | None = None

    def __init__(self, kind: GateKind, target: int, control: int | None = None, angle: float | None = None) -> None:
        if kind is _CNOT:
            if control is None or angle is not None:
                raise ValueError("CNOT takes a control qubit and no angle")
            if control == target:
                raise ValueError("CNOT control and target must differ")
        elif not isinstance(kind, GateKind):
            raise ValueError(f"unknown gate kind {kind!r}")
        elif control is not None:
            raise ValueError("rotations take no control qubit")
        elif angle is None or not math.isfinite(angle):
            raise ValueError("rotation angle must be a finite number")
        _set_field(self, "kind", kind)
        _set_field(self, "target", target)
        _set_field(self, "control", control)
        _set_field(self, "angle", angle)

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
        n = self.n_qubits
        for op in self.ops:
            if not (0 <= op.target < n and (op.control is None or 0 <= op.control < n)):
                q = next(q for q in op.qubits if not 0 <= q < n)
                raise ValueError(f"qubit index {q} out of range for {n} qubits")

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    @cached_property
    def steps(self) -> tuple:
        """The gate list fused once (see :func:`_fuse`) and kept with the
        circuit, outside the fields, as ``Schedule.symmetric`` is."""
        return _fuse(self.n_qubits, self.ops)

    @cached_property
    def nbytes(self) -> int:
        """The bytes the circuit keeps alive once it has run: its gates, each
        object once however many positions share it, and a pointer per
        position; its fused steps with each block's matrix and each phase
        vector, counted before any phase vector is built."""
        gates = _GATE_BYTES * len(set(map(id, self.ops))) + _SLOT_BYTES * len(self.ops)
        return gates + sum(_STEP_BYTES + _step_data_bytes(step, self.n_qubits) for step in self.steps)


def qubit_pairs(n: int) -> list[tuple[int, int]]:
    """All unordered qubit pairs (i, j) with i < j, in lexicographic order."""
    return list(combinations(range(n), 2))


@PARITY_CACHE
def pair_readout(n: int, i: int, j: int) -> np.ndarray:
    """A read-only ``(2, 2**n)`` array: a row of ones, then the +-1 of
    Z_i Z_j at each basis index. Times a state's squared real and imaginary
    parts, viewed as ``(2**n, 2)``, it gives the norm and <Z_i Z_j> in one
    product (``zz_moments``)."""
    if not 0 <= i < j < n:
        raise ValueError(f"pair ({i}, {j}) is not two ordered qubits of {n}")
    readout = np.ones((2, 2**n))
    readout[1] = z_signs(n, (i, j), np.arange(2**n)).prod(axis=0)
    readout.flags.writeable = False
    return readout


_Z_EIGENVALUES = np.array([1.0, -1.0])  # of a qubit's bit 0 and bit 1


def z_signs(n: int, qubits, index: np.ndarray) -> np.ndarray:
    """The +-1 of Z on each of ``qubits`` at each basis index in ``index``,
    read from the index bits: a ``(len(qubits), len(index))`` float array."""
    return _Z_EIGENVALUES[(index >> (n - 1 - np.asarray(qubits))[:, np.newaxis]) & 1]


# Basis indices per block of ising_diagonal: the block's index bits, its
# signs and their product with the couplings are a few n x 4096 arrays,
# 2.6 MiB at n = 20, where the output is 8 MiB.
_ISING_ROWS = 2**12


def ising_diagonal(fields: np.ndarray, couplings: np.ndarray) -> np.ndarray:
    """``sum_q a_q z_q + sum_{i<j} b_ij z_i z_j`` at each of the 2**n basis
    states: the one ZZ-phase kernel. ``fields`` holds the n coefficients
    ``a``; ``couplings`` is the n-square ``b``, zero on and below its
    diagonal. It runs over blocks of the basis index with the block's
    ``(n, rows)`` signs S, as ``((b @ S + a) * S).sum(0)``, so besides its
    output it holds O(n) floats per row of one block."""
    n = len(fields)
    qubits, fields = np.arange(n), np.asarray(fields)[:, np.newaxis]
    out = np.empty(2**n)
    for start in range(0, 2**n, _ISING_ROWS):
        signs = z_signs(n, qubits, np.arange(start, min(start + _ISING_ROWS, 2**n)))
        terms = couplings @ signs + fields
        terms *= signs
        terms.sum(axis=0, out=out[start : start + signs.shape[1]])
    return out


def n_qubits_of(state: np.ndarray) -> int:
    """Register size implied by a state's dimension; rejects non-powers of two."""
    dim = state.shape[0]
    n = dim.bit_length() - 1
    if dim < 1 or 1 << n != dim:
        raise ValueError(f"state dimension {dim} is not a power of two")
    return n


# The most qubits one block step spans. A block of k qubits costs a 4**k
# matrix and a 2**k-deep product per amplitude, against k passes over the
# state for k 2x2s; BENCH_kron_blocks.json holds the table of block sizes
# this was chosen from.
BLOCK_QUBITS = 4


def _blocks(n: int) -> tuple[tuple[int, int], ...]:
    """The ``(first qubit, size)`` blocks that cover n qubits: ``ceil(n / BLOCK_QUBITS)``
    contiguous blocks of near-equal size, the larger first, so (4, 3) at n = 7."""
    count = -(-n // BLOCK_QUBITS)
    size, larger = divmod(n, count)
    sizes = [size + 1] * larger + [size] * (count - larger)
    return tuple((sum(sizes[:b]), k) for b, k in enumerate(sizes))


def _kron(factors) -> np.ndarray:
    """Kronecker product of square matrices, the first on the most significant
    qubits. Broadcasting builds it in a few small multiplies; ``np.kron``
    takes about 120 us for one 7-qubit layer."""
    out = factors[0]
    for factor in factors[1:]:
        a, b = len(out), len(factor)
        out = (out[:, np.newaxis, :, np.newaxis] * factor[np.newaxis, :, np.newaxis, :]).reshape(a * b, a * b)
    return out


def _apply_block(columns: np.ndarray, u: np.ndarray, q: int) -> np.ndarray:
    """Apply the ``2**k``-square ``u`` to qubits q..q+k-1 of the ``(2**n,
    batch)`` ``columns``: the one matrix update of the dense kernels, which
    hold no other layout (a CNOT permutes the rows, a phase scales them)."""
    # qubit 0 is the most significant bit: qubits 0..q-1 fold into the
    # leading axis, the later qubits and the batch into the trailing one
    return np.matmul(u, columns.reshape(2**q, len(u), -1)).reshape(columns.shape)


def _run_matrix(run: tuple[GateOp, ...]) -> np.ndarray:
    """The 2x2 product of a run of rotations on one qubit, first gate
    rightmost. With ``c, s = cos(theta/2), sin(theta/2)`` the factors are
    ``Rx = [[c, -is], [-is, c]]``, ``Ry = [[c, -s], [s, c]]`` and
    ``Rz = diag(c - is, c + is)``, multiplied out as Python scalars: for
    2x2 factors that is several times faster than building and
    multiplying arrays."""
    u00, u01, u10, u11 = 1.0, 0.0, 0.0, 1.0
    for g in run:
        c, s = math.cos(0.5 * g.angle), math.sin(0.5 * g.angle)
        if g.kind is _ROT_X:
            r00, r01, r10, r11 = c, -1j * s, -1j * s, c
        elif g.kind is _ROT_Y:
            r00, r01, r10, r11 = c, -s, s, c
        else:
            r00, r01, r10, r11 = c - 1j * s, 0.0, 0.0, c + 1j * s
        u00, u01, u10, u11 = (r00 * u00 + r01 * u10, r00 * u01 + r01 * u11,
                              r10 * u00 + r11 * u10, r10 * u01 + r11 * u11)
    u = np.array([[u00, u01], [u10, u11]], dtype=complex)
    u.flags.writeable = False
    return u


# Bytes of one GateOp with its angle and its share of a phase run's terms
# (kept until the run's vector is built), and of one fused step besides its
# array data (a block step's tuple and array headers take 296), rounded up
# from tracemalloc on CPython 3.11; Circuit.nbytes adds each block's matrix
# and each phase vector (_step_data_bytes)
_GATE_BYTES = 160
_STEP_BYTES = 320
_SLOT_BYTES = 8  # one position of the ops tuple


class _PhaseRun:
    """A run of diagonal gates: its ``(angle, qubits)`` terms in gate order,
    each the phase ``exp(-i (angle/2) Z_q..)``, until their product's
    diagonal is built on first use."""

    __slots__ = ("n", "_terms", "_vector")

    def __init__(self, n: int, terms: tuple) -> None:
        self.n, self._terms, self._vector = n, terms, None

    @property
    def vector(self) -> np.ndarray:
        if self._vector is None:
            # diagonal gates commute: sum the half-angles per qubit and per pair
            fields, couplings = np.zeros(self.n), np.zeros((self.n, self.n))
            for angle, qubits in self._terms:
                if len(qubits) == 1:
                    fields[qubits[0]] += 0.5 * angle
                else:
                    couplings[min(qubits), max(qubits)] += 0.5 * angle
            vector = np.exp(-1j * ising_diagonal(fields, couplings))
            vector.flags.writeable = False
            self._vector, self._terms = vector, None
        return self._vector


def _step_data_bytes(step, n: int) -> int:
    """The array bytes a fused step keeps: a block's matrix or a phase vector."""
    if isinstance(step, _PhaseRun):
        return 16 * 2**n
    return step[0].nbytes if isinstance(step, tuple) else 0


def _fuse(n: int, ops: tuple[GateOp, ...]) -> tuple:
    """Read a gate list once into steps, so that a compiled schedule touches
    the state a few times per chunk rather than once per gate.

    It makes four exact rewrites:

    * a run of rotations on one qubit is one 2x2, multiplied out here
      (:func:`_run_matrix`);
    * consecutive 2x2s on the ascending qubits of one of the :func:`_blocks`
      of n are one ``(matrix, first qubit)`` block step, their Kronecker
      product (:func:`_kron`), so a chunk's single-qubit layer is
      ``ceil(n / BLOCK_QUBITS)`` steps;
    * a run of Rz on qubit q is the diagonal ``exp(-i (a/2) Z_q)``, with
      ``a`` the sum of its angles, and ``CNOT(c, t)``, an Rz run on t, then
      the same ``CNOT(c, t)`` is ``exp(-i (a/2) Z_c Z_t)``, because the CNOT
      maps ``Z_t`` to ``Z_c Z_t`` and is its own inverse. Diagonal gates
      commute, so a run of them is one :class:`_PhaseRun` step, closed by
      the next non-diagonal gate or the end;
    * every other CNOT is its own step and permutes the amplitudes.

    One pass: a CNOT looks ahead once for its Rz run and the CNOT closing
    it, and a rotation run is scanned once, noting whether it is Rz only.
    """
    cnot, rot_z = _CNOT, _ROT_Z  # locals: read several times per gate
    angle_of = attrgetter("angle")
    block_of = [b for b, (_, k) in enumerate(_blocks(n)) for _ in range(k)]
    steps = []
    terms = []  # the diagonal run not yet closed
    layer = []  # the (2x2, qubit) run not yet closed, on ascending qubits of one block

    def close_layer():
        if layer:
            steps.append((_kron([u for u, _ in layer]), layer[0][1]))
            layer.clear()

    count = len(ops)
    i = 0
    while i < count:
        op = ops[i]
        kind, q = op.kind, op.target
        end = i + 1
        if kind is cnot:
            while end < count and (g := ops[end]).kind is rot_z and g.target == q:
                end += 1
            if end < count and (g := ops[end]).kind is cnot and g.target == q and g.control == op.control:
                terms.append((sum(map(angle_of, ops[i + 1 : end])), (op.control, q)))
                i = end + 1
                continue
            end = i + 1  # a lone CNOT; the Rz run after it is read as its own run
        else:
            diagonal = kind is rot_z
            while end < count and (g := ops[end]).kind is not cnot and g.target == q:
                diagonal = diagonal and g.kind is rot_z
                end += 1
            if diagonal:
                terms.append((sum(map(angle_of, ops[i:end])), (q,)))
                i = end
                continue
        if terms:
            close_layer()
            steps.append(_PhaseRun(n, tuple(terms)))
            terms = []
        if kind is cnot:
            close_layer()
            steps.append(op)
        else:
            if layer and (q != layer[-1][1] + 1 or block_of[q] != block_of[layer[-1][1]]):
                close_layer()
            layer.append((_run_matrix(ops[i:end]), q))
        i = end
    close_layer()
    if terms:
        steps.append(_PhaseRun(n, tuple(terms)))
    return tuple(steps)


def _run_steps(columns: np.ndarray, steps) -> np.ndarray:
    """Apply ``steps`` in order to the ``(2**n, batch)`` ``columns``: the one
    runner of the dense kernels. A step is a ``(matrix, first qubit)`` block,
    a CNOT ``GateOp``, which moves each row to its index with the target bit
    flipped where the control bit is set, a phase vector, or a
    :class:`_PhaseRun` that builds its vector on first use."""
    for step in steps:
        if isinstance(step, tuple):
            columns = _apply_block(columns, *step)
        elif isinstance(step, GateOp):
            n, index = n_qubits_of(columns), np.arange(len(columns))
            columns = columns[index ^ (((index >> (n - 1 - step.control)) & 1) << (n - 1 - step.target))]
        else:
            vector = step.vector if isinstance(step, _PhaseRun) else step
            columns = vector[:, np.newaxis] * columns
    return columns


def apply_circuit(state: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Apply circuit.ops in order to a state vector, or to each column of a
    ``(2**n, batch)`` array, without building any 2^N matrix.

    The gates are fused once per circuit (see :func:`_fuse`): a chunk's
    single-qubit layer touches the state as a few Kronecker blocks and its
    diagonal gates as one phase vector. The result equals the gate-by-gate
    product to round-off.
    """
    n = n_qubits_of(state)
    if n != circuit.n_qubits:
        raise ValueError(f"state has {n} qubits but circuit expects {circuit.n_qubits}")
    if state.ndim not in (1, 2):
        raise ValueError("expected a state vector or a (2**n, batch) array of them")
    return _run_steps(state.reshape(2**n, -1), circuit.steps).reshape(state.shape)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense 2^N x 2^N unitary of the circuit (first op rightmost in the product)."""
    n = circuit.n_qubits
    require_square(n)
    # the basis columns, evolved at once
    return _run_steps(np.eye(2**n, dtype=complex), circuit.steps)


def expectation_zz(state: np.ndarray, i: int, j: int) -> float:
    """<Z_i Z_j> of a state vector; always in [-1, 1].

    Round-off just outside the range is clamped; a non-finite value raises.
    """
    return bounded_zz(zz_moments(state, i, j)[1])


_COMPLEX = np.dtype(np.complex128)
_PARTS = np.dtype((np.float64, 2))  # a complex128 vector viewed as one (real, imaginary) row per amplitude
NON_FINITE_ZZ = "<Z_i Z_j> is not finite; the state holds non-finite amplitudes"  # every read-out's refusal


def zz_moments(state: np.ndarray, i: int, j: int) -> tuple[float, float]:
    """A state vector's sum of squared moduli and its unclamped <Z_i Z_j>.

    Both come from one product: the squared real and imaginary parts,
    viewed as ``(2**n, 2)``, times ``pair_readout``. A C-contiguous
    complex128 vector is read as it is; anything else is converted first.
    Refuses what ``expectation_zz`` refuses.
    """
    if i == j:
        raise ValueError("expectation_zz needs two distinct qubits")
    ready = type(state) is np.ndarray and state.dtype is _COMPLEX and state.flags.c_contiguous
    arr = state if ready else np.asarray(state)
    if arr.ndim != 1:
        raise ValueError("expected a state vector")
    n = n_qubits_of(arr)
    for q in (i, j):
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")
    squares = np.square((arr if ready else np.ascontiguousarray(arr, dtype=_COMPLEX)).view(_PARTS))
    readout = pair_readout(n, i, j) if i < j else pair_readout(n, j, i)
    (re_norm, im_norm), (re_zz, im_zz) = readout.dot(squares).tolist()
    return re_norm + im_norm, re_zz + im_zz


def bounded_zz(value: float) -> float:
    """A read-out of <Z_i Z_j>, with round-off just outside [-1, 1] clamped;
    a non-finite one raises."""
    if not math.isfinite(value):
        raise ValueError(NON_FINITE_ZZ)
    return min(1.0, max(-1.0, value))


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Entrywise L2 norm of a - b."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def check_norm(norm_sq: float) -> None:
    """Refuse a state whose sum of squared moduli ``norm_sq`` is not 1 to 1e-10."""
    if not abs(norm_sq - 1.0) <= 1e-10:  # also refuses NaN
        raise ValueError(f"state is not normalized: sum |amp|^2 = {norm_sq}")


def density_matrix(state: np.ndarray) -> np.ndarray:
    """Pure-state density matrix |psi><psi|."""
    state = np.asarray(state, dtype=complex)
    return np.outer(state, state.conj())
