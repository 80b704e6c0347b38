"""Pairwise-coupled transverse-field Hamiltonians and their propagators.

The model is ``H = sum_q (K_q X_q + eps_q Z_q) + sum_{i<j} zeta_ij Z_i Z_j``
with all-to-all coupling, piecewise constant in time: a Schedule splits the
total evolution time into equal chunks, each with its own parameter set.
All quantities are dimensionless with hbar = 1.

Two propagation methods are provided. ``exact`` exponentiates the full
Hamiltonian of each chunk: on 2^n states as a dense propagator per chunk,
and under uniform chunks in the total-spin sectors, blocks at most n + 1
square. ``chunked`` splits each chunk into the product of its
single-qubit and pair exponentials, which is a first-order approximation
because the transverse terms do not commute with the couplings. Within a
chunk the pair factors act first, then the single-qubit factors in
ascending qubit order; chunks apply in chronological order. The gate
compiler reproduces exactly this ordering, so ``chunked`` and compiled
circuits agree to round-off.

Every dense ZZ phase and Hamiltonian diagonal comes from one kernel,
:func:`qnnwitness.core.ising_diagonal`, which reads the +-1 of each Z from
the bits of the basis index a block of rows at a time: no table of the
C(n, 2) pair diagonals is built, so ``chunked`` runs wherever the compiled
circuit does. A schedule document is checked in bulk, chunk by chunk
(sizes, then its pair keys as one set, then its numbers in one pass), and
walked value by value only to word a refusal.

States are dense ``2**n`` vectors, or, under a schedule of uniform chunks,
coordinates in the ``4(n-1)``-dimensional pair (x) Dicke space: a state
whose qubits 2..n-1 are permutation symmetric stays there. Callers supply
those coordinates directly; both methods run on them in the space's
total-spin sectors, three real blocks of at most n + 1 rows per chunk, and
nothing 4(n-1)-square is built. ``exact`` diagonalises each chunk's blocks
by one batched ``eigh``; ``chunked`` builds no per-chunk block: its
single-qubit layer is the spin-J image of one 2x2 rotation, three
diagonals per chunk around one cached J_x eigenbasis per n and sector count
(Feng et al., Phys. Rev. E 92, 043307 (2015); :func:`wigner_basis`).
On all n/2 + 1 sectors the same forward step gives ``verify`` a uniform
schedule's Trotter error (:func:`sector_trotter_error`).
Adjoint gradients run only in the pair (x) Dicke space and return each
chunk's shared (tunneling, bias, coupling) partials; dense states are
evolved but never differentiated.

Each method's sector steps of a schedule (:func:`_sector_steps`) and each
chunk's dense ``chunked`` steps (:func:`_dense_chunk_steps`) are built once
per process and kept read-only in ``core.SCHEDULE_CACHE``, beside the
compiled circuits, keyed on the numbers they are built from bit for bit
(:func:`float_bits`): a schedule evaluated again builds no eigendecomposition,
diagonal, phase vector or Kronecker block.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import chain
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .core import DEFAULT_UNITARY_CAP, DENSE_BYTES_BUDGET, PARITY_CACHE, SCHEDULE_CACHE, DimensionError, Steps
from .core import _blocks, _kron, _run_steps, ising_diagonal, require_square

PROPAGATION_METHODS = ("exact", "chunked")  # the Hamiltonian's; the witness adds the compiled circuit's "gates"


@dataclass(frozen=True)
class ChunkParams:
    """Hamiltonian parameters held constant over one time chunk.

    ``tunneling`` (X coefficients) and ``bias`` (Z coefficients) are
    per-qubit; ``coupling`` (ZZ coefficients) is per unordered pair in
    lexicographic order, matching :func:`qnnwitness.core.qubit_pairs`.
    ``norm_bound``, outside the fields as ``is_symmetric`` is, sums every |K|, |eps|
    and |zeta| (inf past the float range); by the triangle inequality it bounds ``||H||``.
    """

    tunneling: tuple[float, ...]
    bias: tuple[float, ...]
    coupling: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tunneling", tuple(map(float, self.tunneling)))
        object.__setattr__(self, "bias", tuple(map(float, self.bias)))
        object.__setattr__(self, "coupling", tuple(map(float, self.coupling)))
        n = len(self.tunneling)
        if n < 1:
            raise ValueError("need at least one qubit")
        if len(self.bias) != n:
            raise ValueError("tunneling and bias arrays must have equal length")
        if len(self.coupling) != n * (n - 1) // 2:
            raise ValueError(f"expected {n * (n - 1) // 2} couplings for {n} qubits, got {len(self.coupling)}")
        diagonal = sum(map(abs, self.bias + self.coupling))  # bounds every entry of a Hamiltonian diagonal
        if not (all(map(math.isfinite, self.tunneling)) and math.isfinite(diagonal)):
            raise ValueError("Hamiltonian parameters must be finite, and so must the sum of their magnitudes")
        object.__setattr__(self, "norm_bound", diagonal + sum(map(abs, self.tunneling)))

    @property
    def n_qubits(self) -> int:
        return len(self.tunneling)

    @cached_property
    def is_symmetric(self) -> bool:
        # computed once per chunk, in one comparison pass a field (no set of the C(n, 2) couplings), and kept
        # outside the fields, so equality, hashing and the exact-propagator cache key still read fields only
        return all(values.count(values[0]) == len(values) for values in (self.tunneling, self.bias, self.coupling)
                   if values)

    @classmethod
    def uniform(cls, n: int, tunneling: float, bias: float, coupling: float) -> "ChunkParams":
        """Fully symmetric parameters: same values on every qubit and pair."""
        return cls((tunneling,) * n, (bias,) * n, (coupling,) * (n * (n - 1) // 2))

    @property
    def shared(self) -> tuple[float, float, float]:
        """The (tunneling, bias, coupling) every qubit and pair of a uniform chunk shares."""
        if not self.is_symmetric:
            raise ValueError("cannot extract shared parameters from a non-symmetric chunk: "
                             "its K, eps and zeta are not uniform")
        return self.tunneling[0], self.bias[0], self.coupling[0] if self.coupling else 0.0


@dataclass(frozen=True)
class Schedule:
    """Piecewise-constant parameter schedule over a fixed total time.

    ``symmetric`` (every chunk uniform) is derived, never stored. Reader and
    writer keep the JSON schema: its optional ``"symmetric"`` key is checked
    against the chunks on read and written as the derived value.
    A ``dt`` that rounds to 0, or a ``total_time`` that :func:`require_phase_range`
    refuses, is refused here, once for every method; no method squares a
    parameter (:func:`_single_qubit_factor_and_partials`), so nothing else is.
    """

    n_qubits: int
    total_time: float
    chunks: tuple[ChunkParams, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "chunks", tuple(self.chunks))
        if not self.chunks:
            raise ValueError("schedule needs at least one chunk")
        if not math.isfinite(self.total_time) or self.total_time <= 0:
            raise ValueError("total_time must be positive and finite")
        for ck in self.chunks:
            if ck.n_qubits != self.n_qubits:
                raise ValueError(f"chunk is sized for {ck.n_qubits} qubits, schedule for {self.n_qubits}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive: total_time {self.total_time!r} over {self.n_chunks} chunks is 0")
        require_phase_range(self.total_time, max(ck.norm_bound for ck in self.chunks))

    @cached_property
    def symmetric(self) -> bool:
        return all(ck.is_symmetric for ck in self.chunks)

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    @property
    def dt(self) -> float:
        return self.total_time / len(self.chunks)


def float_bits(values) -> bytes:
    """A sequence of a schedule's floats packed bit for bit: the one key of its numbers in
    ``core.SCHEDULE_CACHE``. Schedules and chunks compare floats with ``==``, which equates -0.0 and +0.0, and
    those compile and evolve to different bits (``atan2(-0.0, -1) = -pi``)."""
    return struct.pack(f"{len(values)}d", *values)


def require_phase_range(time: float, norm_bound: float) -> None:
    """Refuse a ``time`` over which the phases of ``||H|| <= norm_bound`` keep no digit. The largest number a
    method forms is ``2 time norm_bound``: a gate angle (``2 dt`` formed first), a phase difference, or one
    circuit phase for consecutive chunks' diagonal gates with nothing between them. From 2**52 on, floats are
    1 or more apart, so such a phase holds nothing of its value mod 2 pi and the methods would print
    different numbers; below it nothing overflows. Python floats overflow to inf without a numpy warning."""
    phase = 2 * time * norm_bound
    if not phase < 2**52:
        raise ValueError(f"a phase of exp(-i H dt) keeps no digit: a chunk's energies over a time of {time!r} reach "
                         f"{phase:.3g} radians, not below 2**52")


def build_hamiltonian(params: ChunkParams, n: int) -> np.ndarray:
    """Dense 2^n x 2^n Hamiltonian for one chunk's parameters.

    Every term is real in the computational basis, so the matrix is real
    symmetric: ``X_q`` flips bit ``q`` of the row index, ``Z`` and ``ZZ``
    terms fill the diagonal.
    """
    if params.n_qubits != n:
        raise ValueError(f"parameters are sized for {params.n_qubits} qubits, not {n}")
    require_square(n)
    rows = np.arange(2**n)
    h = np.zeros((2**n, 2**n))
    for q in range(n):
        h[rows, rows ^ (1 << (n - 1 - q))] = params.tunneling[q]
    h[rows, rows] = ising_diagonal(np.array(params.bias), _coupling_matrix(params))
    return h


def _coupling_matrix(params: ChunkParams) -> np.ndarray:
    """The chunk's ``zeta_ij`` above the diagonal of an n-square matrix, zeros elsewhere."""
    qubits = np.arange(params.n_qubits)
    upper = np.zeros((len(qubits), len(qubits)))
    upper[qubits[:, np.newaxis] < qubits] = params.coupling  # row-major (i, j > i): the order of qubit_pairs
    return upper


@lru_cache(maxsize=DENSE_BYTES_BUDGET // (16 * 4**DEFAULT_UNITARY_CAP))
def exact_chunk_propagator(params: ChunkParams, n: int, dt: float) -> np.ndarray:
    """``exp(-i H dt)`` by eigendecomposition of the real symmetric chunk Hamiltonian.

    The cache keeps the 8 most recent propagators for every dense exact
    evolution, uniform schedules included, and for ``chunk_propagators``,
    the dense reference of every exact path. Its bound follows from the
    10-qubit cap that ``build_hamiltonian`` enforces: 8 propagators of
    16 MiB fill the 128 MiB dense budget, and at n = 7 they take 2 MiB.
    The CLI reaches it only on a schedule with a non-uniform chunk. ``dt``
    comes from the caller, so the range rule of :class:`Schedule` runs here.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    require_phase_range(dt, params.norm_bound)
    h = build_hamiltonian(params, n)
    eigvals, eigvecs = np.linalg.eigh(h)
    # V exp(-i lambda dt) V^T as two real products
    u = (eigvecs * np.cos(eigvals * dt)) @ eigvecs.T - 1j * ((eigvecs * np.sin(eigvals * dt)) @ eigvecs.T)
    u.flags.writeable = False
    return u


def _rotation(tunneling: float, bias: float, dt: float) -> tuple[complex, complex, float, float, float]:
    """A chunk's single-qubit factor ``F = exp(-i dt (K X + eps Z)) = [[a, b], [b, conj(a)]]`` as ``(a, b, x, sin x,
    m)``, ``a = cos x - i s eps`` and ``b = -i s K`` with ``m = hypot(K, eps)``, ``x = dt m`` and ``s = sin(x)/m`` (dt
    where x is 0): the one closed form that the dense layer, the sector steps and their partials all read."""
    magnitude = math.hypot(tunneling, bias)
    x = dt * magnitude
    sine = math.sin(x)
    s = sine / magnitude if x else dt
    return complex(math.cos(x), -s * bias), complex(0.0, -s * tunneling), x, sine, magnitude


def _single_qubit_factor(tunneling: float, bias: float, dt: float) -> np.ndarray:
    """``exp(-i dt (K X + eps Z))`` as the matrix ``[[a, b], [b, conj(a)]]`` of :func:`_rotation`."""
    a, b = _rotation(tunneling, bias, dt)[:2]
    return np.array([[a, b], [b, a.conjugate()]])


def _single_qubit_factor_and_partials(tunneling: float, bias: float, dt: float) -> np.ndarray:
    """:func:`_single_qubit_factor` and its derivatives by ``tunneling`` and by ``bias``, stacked.

    The factor is ``c I - i s (K X + eps Z)`` with ``c = cos x`` and the rest
    as in :func:`_rotation`, but for ``s`` read as ``dt sin(x)/x``: a
    subnormal x holds too few bits for ``sin(x)/m``. Since ``dc/dK = -dt K
    s`` and ``ds/dK = (K/m) h/m`` with ``h = dt c - s``, the K derivative is
    ``-dt K s I - i (h (K/m) (K X + eps Z)/m + s X)``, and likewise for eps
    with Z. ``h`` is summed from its series in x below x = 0.05, where ``dt
    c - s`` cancels; only x is squared, so no finite chunk loses a term.
    """
    a, b, x, sine, magnitude = _rotation(tunneling, bias, dt)
    s = dt * (sine / x) if x else dt
    x2 = x * x
    h = dt * x2 * (-1 / 3 + x2 * (1 / 30 - x2 * (1 / 840 - x2 / 45360))) if x < 0.05 else dt * a.real - s
    k, e = (tunneling / magnitude, bias / magnitude) if magnitude else (0.0, 0.0)
    # [[p, q], [q, conj(p)]]: F, then per v = K, eps with g = h v/m, p = -dt v s - i (g e + 0|s), q = -i (g k + s|0)
    return np.array([[[p, q], [q, p.conjugate()]] for p, q in (
        (a, b), *((complex(-dt * v * s, -(g * e + z)), complex(0.0, -(g * k + w)))
                  for v, g, w, z in ((tunneling, h * k, s, 0.0), (bias, h * e, 0.0, s))))])


def _chunked_steps(chunks: tuple[ChunkParams, ...], n: int, dt: float):
    """Each chunk's split-operator steps, read one chunk at a time from the
    store (:func:`_dense_chunk_steps`), so that no chunk is fetched or built
    before the runner reaches it."""
    for ck in chunks:
        yield from _dense_chunk_steps(ck, n, dt)


def _dense_chunk_key(ck: ChunkParams, n: int, dt: float) -> tuple:
    return n, float_bits((dt, *ck.tunneling, *ck.bias, *ck.coupling))


@partial(SCHEDULE_CACHE, key=_dense_chunk_key)
def _dense_chunk_steps(ck: ChunkParams, n: int, dt: float) -> Steps:
    """One chunk's read-only split-operator steps: its ZZ phase vector, then
    its single-qubit layer as the Kronecker blocks of
    :func:`qnnwitness.core._blocks`. Kept in ``core.SCHEDULE_CACHE`` by n, dt
    and the chunk's numbers bit for bit; a phase vector alone passes its
    bound from 15 qubits, so no larger chunk is kept."""
    phase = np.exp(-1j * dt * ising_diagonal(np.zeros(n), _coupling_matrix(ck)))  # each exp(-i dt zeta Z_i Z_j)
    # a symmetric chunk has one distinct (K, eps), so one factor
    factors = {key: _single_qubit_factor(*key, dt) for key in set(zip(ck.tunneling, ck.bias))}
    layer = [factors[key] for key in zip(ck.tunneling, ck.bias)]
    blocks = [(_kron(layer[q : q + k]), q) for q, k in _blocks(n)]
    return Steps((phase, *blocks), (phase, *(block for block, _ in blocks)))


# --- total-spin sectors -------------------------------------------------
#
# With J = sum_q sigma_q / 2 the collective spin, a uniform chunk's
# Hamiltonian is K 2J_x + eps 2J_z + zeta (4J_z^2 - n)/2: the
# Lipkin-Meshkov-Glick model (Nucl. Phys. 62, 188 (1965)). It commutes with
# every qubit permutation, so in the coupled basis |J, M, a> it is one
# tridiagonal (2J+1)-square block per J, the same on each copy a of the
# sector J = n/2 - k. A state of Hamming weight w has M = n/2 - w, so a
# change to the coupled basis is one real orthogonal block per weight.
# Every block here is laid out on the n + 1 weights, with zero rows where
# |M| > J: the exponential of a zero row is the identity, so those rows
# never mix with the sector's.


@PARITY_CACHE
def sector_terms(n: int, blocks: int) -> np.ndarray:
    """Per sector J = n/2 - k, k < ``blocks``, and weight w = 0..n (M = n/2 -
    w), built once per n and count: the ladder ``<J, M|J_+|J, M-1> =
    sqrt((J+M)(J-M+1))`` to the next weight, ``2M`` and ``(4M^2 - n)/2``,
    stacked ``(3, blocks, n+1)`` and zero where the sector has no row."""
    twice, twice_m = (n - 2 * np.arange(blocks, dtype=float))[:, np.newaxis], n - 2 * np.arange(n + 1.0)  # 2J, 2M
    inside = np.abs(twice_m) <= twice
    # the product vanishes at M = -J and at M = J + 1, and is negative past them
    ladder = np.sqrt(np.maximum((twice + twice_m) * (twice - twice_m + 2), 0.0)) / 2
    terms = np.stack([ladder, inside * twice_m, inside * (twice_m * twice_m - n) / 2])
    terms.flags.writeable = False
    return terms


@PARITY_CACHE
def wigner_basis(n: int, blocks: int) -> np.ndarray:
    """X, the real eigenvectors of J_x per sector J = n/2 - k, k < ``blocks``,
    stacked ``(blocks, n+1, n+1)``, column w for the eigenvalue M = n/2 - w
    and the identity outside the sector; built once per n and count from the
    ladder of :func:`sector_terms`. Every ``chunked`` sector step shares it:
    ``e^{-i theta J_x} = X e^{-i theta M} X^T`` is the middle of a rotation's
    Euler form, the diagonals around it per chunk (Feng et al., Phys. Rev. E
    92, 043307 (2015), with ``J_y = S J_x S^dagger``, ``S = e^{-i pi J_z/2}``,
    folded into the diagonals; :func:`_chunk_sweeps`). Each column solves
    ``2 J_x v = 2 M v`` row by row from the edge M = J, where it starts at
    ``d^J_{J M}(pi/2) = 2^-J sqrt(C(2J, J - M))``, or at e^-700 where that
    is smaller (edge columns past J = 1009.5; the normalisation undoes the
    scale, where an underflow to 0 would not), and grows, to the middle,
    and takes the other half from its parity ``(-1)^(J - M)`` under the
    reflection M -> -M, with which J_x commutes. Built and normalised in
    place, a block needs nothing of its size beside it."""
    ladder = sector_terms(n, blocks)[0]
    eigvecs = np.zeros((blocks, n + 1, n + 1))
    for k in range(blocks):  # sector k's rows start at weight k
        rows, spin = n - 2 * k + 1, n / 2 - k
        mu, half = spin - np.arange(rows), (rows + 1) // 2
        links = ladder[k, k : k + rows - 1]
        steps = np.log((2 * spin - np.arange(rows - 1)) / np.arange(1.0, rows))  # log C(2J, i+1) / C(2J, i)
        log_binomial = np.concatenate([[0.0], np.cumsum(steps)])
        np.fill_diagonal(eigvecs[k], 1.0)  # the identity outside the sector
        v = eigvecs[k, k : k + rows, k : k + rows]  # built in place: every row is written
        # mu and -mu start from the same sum, so their columns differ by (-1)^w exactly
        v[0] = np.exp(np.maximum((log_binomial + log_binomial[::-1]) / 4 - spin * math.log(2), -700.0))
        for j in range(half - 1):  # row j: links[j-1] v[j-1] + links[j] v[j+1] = 2 mu v[j]
            v[j + 1] = (2 * mu * v[j] - (links[j - 1] * v[j - 1] if j else 0.0)) / links[j]
        parity = (-1.0) ** np.arange(rows)
        np.multiply(parity, v[: rows - half][::-1], out=v[half:])
        if rows % 2:
            v[rows // 2, parity < 0] = 0.0  # an odd column vanishes on the middle row M = 0
        norm_squares = np.zeros(rows)
        for row in v:  # the columns' squared norms summed row by row, as np.linalg.norm(v, axis=0) sums them
            norm_squares += row * row
        v /= np.sqrt(norm_squares)
    eigvecs.flags.writeable = False
    return eigvecs


def spin_sector_hamiltonian(shared, n: int, blocks: int) -> np.ndarray:
    """The Hamiltonian of a uniform n-qubit chunk on the total-spin sectors
    J = n/2 - k, k < ``blocks``: real symmetric tridiagonal blocks on the
    |J, M> with M = n/2 - w, w = 0..n, ``2 eps M + zeta (4 M^2 - n)/2`` on the
    diagonal and ``K sqrt((J+M)(J-M+1))`` beside it, zero where |M| > J.
    ``shared`` is the chunk's ``(K, eps, zeta)`` or a ``(..., 3)`` stack of
    them, for a ``(..., blocks, n+1, n+1)`` stack. ``exact`` diagonalises
    these; ``chunked`` never builds them (:func:`wigner_basis`)."""
    ladder, twice_m, quadratic = sector_terms(n, blocks)
    shared = np.asarray(shared, dtype=float)[..., np.newaxis, np.newaxis, :]
    size = n + 1
    h = np.zeros(shared.shape[:-3] + (blocks, size * size))  # row-major: (r, r) is entry r (size + 1)
    h[..., :: size + 1] = shared[..., 1] * twice_m + shared[..., 2] * quadratic
    h[..., 1 :: size + 1] = h[..., size :: size + 1] = shared[..., 0] * ladder[:, :-1]  # (r, r + 1) and (r + 1, r)
    return h.reshape(h.shape[:-1] + (size, size))


# --- pair (x) Dicke space -----------------------------------------------
#
# A uniform chunk commutes with every permutation of the spectators (qubits
# 2..n-1), so a state that is symmetric in them stays so. Such a state has
# coordinates on |p> (x) |D_w>, with p = 2 b_0 + b_1 the bits of qubits 0
# and 1 and |D_w> the normalized sum of the C(m, w) spectator strings with w
# ones, m = n - 2: 4(n-1) coordinates, p-major, so qubits 0 and 1 stay the
# two leading bits of the index: the permutation-symmetric reduction of
# PIQS (Shammah et al., arXiv:1805.05129). The pair's spin 1 (+) 0 times the
# spectators' m/2 holds the sectors J = n/2, n/2 - 1 twice and n/2 - 2 (one
# J = 0 at n = 2, no n/2 - 2 at n = 3), and the change to them is in closed
# form: Clebsch-Gordan coefficients, and the singlet. Both methods run there
# on coupled columns ``(blocks, n+1, 2, batch)``: block k = n/2 - J, weight,
# copy (the second one zero outside block 1), state. One forward step
# applies a chunk to them, and one backward step undoes it.

_PAIR_WEIGHTS = (0, 1, 1, 2)  # the ones among qubits 0 and 1 of p = 0..3


class PairDicke(NamedTuple):
    """Real operators of the pair (x) Dicke space of n qubits: O(n) entries."""

    readout: np.ndarray  # diagonal of Z_0 Z_1
    change: np.ndarray  # (n+1, 2 blocks, 4): per weight W, the coupled states over the |p> (x) |D_{W - bits(p)}>
    at: np.ndarray  # the row 4 W + p of each |p> (x) |D_w> among the (n+1, 4) that the change reads

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for array in self)


@PARITY_CACHE
def pair_dicke_operators(n: int) -> PairDicke:
    """The pair (x) Dicke space's Z_0 Z_1 read-out and its change to the
    coupled basis, built once per n: per weight W, a real orthogonal block of
    at most 4 x 4 in closed form. Its rows couple the pair's |1, m1> (|00>,
    (|01> + |10>)/sqrt 2, |11>) with the spectators' |s, M - m1> = |D_{W-1+m1}>,
    s = (n-2)/2, to J = s + 1, s, s - 1 by Clebsch-Gordan coefficients in
    Condon-Shortley phases, which give J_- the positive entries of
    :func:`spin_sector_hamiltonian`; the singlet (|01> - |10>)/sqrt 2 is block 1's first copy."""
    if n < 2:
        raise ValueError("the pair (x) Dicke space needs at least 2 qubits")
    m = n - 2
    s, spin_z = m / 2, n / 2 - np.arange(n + 1.0)  # M at weight W
    u, d = np.maximum(s + spin_z, 0), np.maximum(s - spin_z, 0)  # s + M and s - M, 0 where no coefficient is read
    held = np.abs(spin_z - np.array([[1.0], [0.0], [-1.0]])) <= s  # (m1, W): the spectators hold M - m1
    r = math.sqrt(0.5)
    triplet = np.array([[1.0, 0, 0, 0], [0, r, r, 0], [0, 0, 0, 1.0]])  # |1, m1> over p
    change = np.zeros((n + 1, 2 * min(3, n // 2 + 1), 4))  # slot 2 k + a: block k = n/2 - J, copy a
    change[1:n, 2, 1:3] = r, -r  # the singlet (x) |D_{W-1}>
    sectors = [  # per slot: J, its coefficients' numerators over m1, and their denominator squared
        (0, s + 1, np.sqrt([u * (u + 1) / 2, (u + 1) * (d + 1), d * (d + 1) / 2]), (2 * s + 1) * (s + 1)),
        (3, s, [-np.sqrt(u * (d + 1) / 2), spin_z, np.sqrt(d * (u + 1) / 2)], s * (s + 1)),
        (4, s - 1, [np.sqrt(d * (d + 1) / 2), -np.sqrt(u * d), np.sqrt(u * (u + 1) / 2)], s * (2 * s + 1)),
    ]
    for slot, spin, coefficients, square in sectors[: min(3, n - 1)]:  # J = s from n = 3, J = s - 1 from n = 4
        change[:, slot] = (np.array(coefficients) / math.sqrt(square) * held * (np.abs(spin_z) <= spin)).T @ triplet
    at = 4 * np.add.outer(_PAIR_WEIGHTS, np.arange(m + 1)) + np.arange(4)[:, np.newaxis]
    ops = PairDicke(readout=np.repeat([1.0, -1.0, -1.0, 1.0], m + 1), change=change, at=at.ravel())
    for array in ops:
        array.flags.writeable = False
    return ops


def _to_sectors(columns: np.ndarray, ops: PairDicke) -> np.ndarray:
    """``(4(n-1), batch)`` pair (x) Dicke columns as the float view of coupled columns."""
    rows, slots = ops.change.shape[:2]
    by_weight = np.zeros((4 * rows, columns.shape[1]), dtype=complex)  # the rows past a p's weights stay zero
    by_weight[ops.at] = columns
    coupled = ops.change @ by_weight.view(float).reshape(rows, 4, -1)  # the change is real
    return np.ascontiguousarray(coupled.reshape(rows, slots // 2, -1).transpose(1, 0, 2))


def _from_sectors(coupled: np.ndarray, ops: PairDicke) -> np.ndarray:
    """The float view of coupled columns as ``(4(n-1), batch)`` pair (x) Dicke columns."""
    rows, slots = ops.change.shape[:2]
    by_slot = coupled.reshape(slots // 2, rows, 2, -1).transpose(1, 0, 2, 3).reshape(rows, slots, -1)
    return (ops.change.swapaxes(1, 2) @ by_slot).reshape(4 * rows, -1).view(complex)[ops.at]


def _forward_step(columns: np.ndarray, lead, vectors: np.ndarray, mid: np.ndarray, trail) -> None:
    """One chunk on the float view of coupled columns, in place: ``trail V
    mid V^T lead`` per block, with ``mid`` a diagonal and ``lead`` and
    ``trail`` diagonals (``chunked``) or None (``exact``). V is real, so each
    product with it is a real product on the float view."""
    if lead is not None:
        columns.view(complex)[...] *= lead
    rotated = vectors.swapaxes(-1, -2) @ columns
    rotated.view(complex)[...] *= mid
    np.matmul(vectors, rotated, out=columns)
    if trail is not None:
        columns.view(complex)[...] *= trail


# --- adjoint gradients --------------------------------------------------
#
# A backward step, one per method, takes the coupled columns [states | co-states] just after one
# chunk of :func:`_forward_step`, which it may overwrite, returns them just before it, and reads the
# partials 2 Re <lam| dU U^dagger |psi> of the chunk's shared tunneling, bias and coupling on the way.


def _states_and_costates(both: np.ndarray, batch: int) -> np.ndarray:
    """The float view of coupled [states | co-states] columns as two
    contiguous ``(blocks * (n+1), 2 batch)`` complex arrays, copies side by side."""
    blocks, rows = both.shape[:2]
    return both.view(complex).reshape(blocks * rows, 2, 2, batch).transpose(2, 0, 1, 3).reshape(2, blocks * rows, -1)


def _chunked_backward(both: np.ndarray, step: tuple, terms: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """``chunked``'s backward step. The coupling partial comes from the
    diagonal ``lead``, which holds the ZZ phase. The single-qubit layer acts
    last and its factors commute, so the K (or eps) partial is ``2 Re <lam|
    sum_q (dF F^dagger)_q |psi>`` at the chunk's end: ``sum(G * R)`` with
    ``R`` the collective 2x2 overlaps, ``n/2 + J_z`` and ``n/2 - J_z`` on
    the diagonal and J_+, J_- off it."""
    lead, basis, mid, trail, shared = step
    ladder, twice_m, quadratic = terms
    rows, batch = both.shape[1], both.shape[-1] // 8  # floats: copy, [states | co-states], real and imaginary
    psi, lam = _states_and_costates(both, batch)  # the blocks' rows end to end: a block's last row links to nothing
    links, total = ladder.reshape(-1, 1)[:-1], np.vdot(lam, psi)
    spin_z = np.vdot(lam, twice_m.reshape(-1, 1) * psi) / 2
    reduced = np.array([[(rows - 1) / 2 * total + spin_z, np.vdot(lam[:-1], links * psi[1:])],
                        [np.vdot(lam[1:], links * psi[:-1]), (rows - 1) / 2 * total - spin_z]])
    both.view(complex)[...] /= trail
    coords = basis.swapaxes(1, 2) @ both
    coords.view(complex)[...] /= mid
    before = basis @ coords
    # lead is diagonal and unimodular, so the coupling partial reads the same on either side of it
    psi, lam = _states_and_costates(before, batch)
    # sum((dF F^dagger) * R) = sum(dF * (R F^dagger)); F is symmetric, so F^dagger is its conjugate
    stacked = _single_qubit_factor_and_partials(*shared[:2], dt)
    overlaps = (reduced @ stacked[0].conj()).ravel()
    tunneling, bias = (stacked[1:].reshape(2, 4) @ overlaps).real.tolist()
    coupling = np.vdot(lam, quadratic.reshape(-1, 1) * psi).imag
    before.view(complex)[...] /= lead
    return before, np.array([2 * tunneling, 2 * bias, 2 * dt * coupling])


def _exact_backward(both: np.ndarray, step: tuple, terms: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """``exact``'s backward step, by the Daleckii-Krein formula on each
    block: ``dU = V (Phi o V^T dH V) V^T`` with ``Phi_jk = -i dt exp(-i dt
    (l_j + l_k)/2) sinc(dt (l_j - l_k)/2)``, which needs no branch for
    degenerate eigenvalues, so a partial is ``2 sum_xy dH_xy Re M_xy`` with
    ``M = V (Phi o S) V^T``, ``S_jk = sum_b conj(V^T lam)_j (V^T
    psi_before)_k`` and dH the ladder, 2M or (4M^2 - n)/2."""
    _, vectors, _, _, eigvals = step
    ladder, twice_m, quadratic = terms
    blocks, rows = both.shape[:2]
    batch = both.shape[-1] // 8  # floats: copy, [states | co-states], real and imaginary part
    coords = vectors.swapaxes(1, 2) @ both
    split = coords.view(complex)
    half = np.exp(0.5j * dt * eigvals)[:, :, np.newaxis]
    split *= half
    psi, lam = _states_and_costates(coords, batch).reshape(2, blocks, rows, -1)
    split *= half
    before = vectors @ coords
    # Re(Phi o S) = dt sinc o Im(e o S) with the rank-one e_jk = exp(-i dt (l_j + l_k)/2);
    # Im(conj(a) b) is the real product of the float views of a and -i b
    x = dt * eigvals / 2
    x = x[:, :, np.newaxis] - x[:, np.newaxis, :]
    zero = x == 0
    x[zero] = 1.0
    weights = np.sin(x)
    weights /= x  # sin x / x before the product: the product divided by a subnormal x overflows
    weights[zero] = 1.0  # the limit of sin x / x at 0
    del x, zero
    weights *= lam.view(float) @ (-1j * psi).view(float).swapaxes(1, 2)
    # V is real, so Re M = V Re(Phi o S) V^T: its diagonal and both off-diagonals are
    # row products of V Re(Phi o S) with V; dt and 2 multiply the three partials
    product = vectors @ weights
    del weights
    on = np.einsum("kij,kij->ki", product, vectors)
    beside = np.einsum("kij,kij->ki", product[:, :-1], vectors[:, 1:]) + np.einsum(
        "kij,kij->ki", product[:, 1:], vectors[:, :-1])
    return before, 2 * dt * np.array([np.vdot(ladder[:, :-1], beside), np.vdot(twice_m, on), np.vdot(quadratic, on)])


def _chunk_sweeps(schedule: Schedule, *methods: str, width: int, blocks: int | None = None,
                  backward: bool) -> tuple:
    """The sector terms, and per method of ``methods`` each chunk's read-only
    step, built once per process and kept by :func:`_sector_steps`:
    ``(lead, X, mid, trail, shared)`` under ``chunked``, ``(None, V, mid,
    None, lam)`` under ``exact``. :func:`_forward_step` reads it up to
    ``trail``, :func:`_chunked_backward` or :func:`_exact_backward` what its
    method needs. ``exact`` diagonalises each chunk's Hamiltonian, one
    batched ``eigh`` of every chunk's blocks: V its eigenvectors, lam their
    eigenvalues and ``mid = exp(-i lam dt)``. ``chunked`` applies its ZZ
    phase ``zeta (4M^2 - n)/2`` first, as a diagonal, then its single-qubit
    layer, the order the gate compiler reproduces. That layer is the spin-J image of one 2x2
    rotation ``F = exp(-i dt (K X + eps Z)) = [[a, b], [b, conj(a)]]``
    (:func:`_rotation`). Its ZYZ Euler angles ``(-arg a - pi/2, theta, pi/2 -
    arg a)`` with ``theta/2 = atan2(-Im b, |a|)`` give F itself, not -F (which
    differs by -1 on a half-integer J), so ``D^J(F) = e^{-i phi1 J_z} S X
    e^{-i theta M} X^T S^dagger e^{-i phi2 J_z}`` with ``S = e^{-i pi
    J_z/2}`` and X the cached :func:`wigner_basis`, and S folds into the
    outer diagonals: ``P X e^{-i theta M} X^T P``, ``P = e^{i arg(a) J_z}``.
    So every chunk's V is the one X; ``lead`` is its ZZ phase times P,
    ``mid`` is ``e^{-i theta M}`` and ``trail`` is P: O(n) numbers a chunk,
    each 1 outside the sector, beside its ``shared`` ``(K, eps, zeta)``.
    The sectors are J = n/2 - k, k < ``blocks`` (default: the pair (x)
    Dicke space's three).

    The one size rule of the sector kernel refuses them before anything is
    built or looked up, with the ``width`` complex columns per block row that
    the caller carries through the sweeps: through forward steps only, or
    also through backward ones if ``backward`` is True; a stored sweep is
    charged as one built anew. The schedule has already admitted their
    phases (:func:`require_phase_range`)."""
    for method in methods:
        if method not in PROPAGATION_METHODS:
            raise ValueError(f"unknown propagation method {method!r}")
    n, dt, count = schedule.n_qubits, schedule.dt, schedule.n_chunks
    blocks, size = blocks or min(3, n // 2 + 1), (n + 1) * (n + 1)
    # held throughout, per chunk and method: 2 KiB of Python objects, and chunked's three diagonals, 48
    # bytes a row, or exact's real eigenvectors and 40 bytes a row (eigenvalues, phases); chunked's basis,
    # built in place; 1 KiB a row. Beside them the larger of the build, freed once it is done, and the steps
    # after it: three arrays of the caller's columns in a forward step (input, rotation, one more), six in a
    # backward one (finals and co-states, [states | co-states], input copy, rotation, output, output copy)
    # with exact's 2.5 blocks of working arrays. The build: chunked's phases as reals, 24 bytes a row,
    # exponentiated in place; exact's generators, with its eigenvectors as eigh returns them
    rows, steps = count * blocks * (n + 1), (96 if backward else 48) * blocks * (n + 1) * width
    held, build = len(methods) * count * 2048 + 1024 * (n + 1), 0
    if "chunked" in methods:
        held += 8 * blocks * size + 48 * rows
        build = 24 * rows
    if "exact" in methods:
        held += count * 8 * blocks * size + 40 * rows
        build = max(build, count * 8 * blocks * size)
        steps += 20 * blocks * size if backward else 0
    nbytes = held + max(build, steps)
    if nbytes > DENSE_BYTES_BUDGET:
        raise DimensionError(f"refusing {nbytes} bytes of {' and '.join(methods)} sweeps for {n} qubits and {count} "
                             f"chunks (budget {DENSE_BYTES_BUDGET} bytes)")
    shared = [ck.shared for ck in schedule.chunks]
    return sector_terms(n, blocks), [_sector_steps(n, dt, shared, method, blocks) for method in methods]


def _sector_key(n: int, dt: float, shared: list, method: str, blocks: int) -> tuple:
    # the shared values, not the per-qubit tuples: is_symmetric counts 0.0 and -0.0 as equal, and this is O(chunks)
    return n, float_bits((dt, *chain.from_iterable(shared))), method, blocks


@partial(SCHEDULE_CACHE, key=_sector_key)
def _sector_steps(n: int, dt: float, shared: list, method: str, blocks: int) -> Steps:
    """Each chunk's read-only sector step under ``method`` (see
    :func:`_chunk_sweeps`), from every chunk's ``shared`` ``(K, eps,
    zeta)``. Kept in ``core.SCHEDULE_CACHE`` by n, dt, the shared values
    bit for bit, the method and the sector count."""
    if method == "chunked":
        terms = sector_terms(n, blocks)
        basis = wigner_basis(n, blocks)
        # per chunk, the phases of lead, mid and trail over (M, (4M^2 - n)/2), both 0 outside the sector:
        # arg(a) M less the ZZ phase, -theta M, and arg(a) M
        coefficients = []
        for tunneling, bias, coupling in shared:
            a, b = _rotation(tunneling, bias, dt)[:2]
            turn, theta = math.atan2(a.imag, a.real), 2 * math.atan2(-b.imag, math.hypot(a.real, a.imag))
            coefficients.append(((turn, -dt * coupling), (-theta, 0.0), (turn, 0.0)))
        diagonals = 1j * (np.array(coefficients) @ np.stack([terms[1] / 2, terms[2]]).reshape(2, -1))
        np.exp(diagonals, out=diagonals)
        diagonals = diagonals.reshape(len(shared), 3, blocks, n + 1, 1)
        steps = ((lead, basis, mid, trail, chunk) for (lead, mid, trail), chunk in zip(diagonals, shared))
        return Steps(steps, (diagonals, basis))
    values, vectors = np.linalg.eigh(spin_sector_hamiltonian(shared, n, blocks))
    phases = np.exp(-1j * dt * values)[..., np.newaxis]
    return Steps(((None, v, p, None, e) for v, p, e in zip(vectors, phases, values)), (values, vectors, phases))


def _coordinate_columns(coords, n: int) -> np.ndarray:
    """A ``(batch, 4(n-1))`` stack of pair (x) Dicke coordinates as
    ``(4(n-1), batch)`` complex columns; any other shape is refused."""
    columns = np.asarray(coords, dtype=complex).T
    if columns.ndim != 2 or len(columns) != 4 * (n - 1):
        raise ValueError(f"pair (x) Dicke coordinates of {n} qubits are a (batch, 4(n-1)) = (batch, {4 * (n - 1)}) "
                         f"stack, not shape {np.shape(coords)}")
    return columns


def _forward_sweep(coords: np.ndarray, schedule: Schedule, method: str, backward: bool):
    """A ``(batch, 4(n-1))`` stack of pair (x) Dicke coordinates through
    every chunk: the sector terms and each chunk's step of :func:`_chunk_sweeps`
    (charged for a backward sweep after it if ``backward``), the space's
    operators, and the float view of the final coupled columns."""
    columns = _coordinate_columns(coords, schedule.n_qubits)
    width = (4 if backward else 2) * columns.shape[1]  # each copy's states, and a backward sweep's co-states
    terms, (steps,) = _chunk_sweeps(schedule, method, width=width, backward=backward)
    ops = pair_dicke_operators(schedule.n_qubits)
    columns = _to_sectors(columns, ops)
    for step in steps:
        _forward_step(columns, *step[:4])
    return terms, steps, ops, columns


def evolve_pair_dicke(coords: np.ndarray, schedule: Schedule, method: str = "exact") -> np.ndarray:
    """Evolve a ``(batch, 4(n-1))`` stack of pair (x) Dicke coordinates
    through a schedule of uniform chunks; the result matches the dense
    :func:`evolve_states` of the embedded states to round-off."""
    _, _, ops, finals = _forward_sweep(coords, schedule, method, backward=False)
    return _from_sectors(finals, ops).T


def sector_trotter_error(coords: np.ndarray, schedule: Schedule) -> tuple[float, np.ndarray, np.ndarray]:
    """``||U_chunked - U_exact||_F`` of a schedule of uniform chunks, from
    its total-spin sectors, and ``coords``, a ``(batch, 4(n-1))`` stack of
    pair (x) Dicke coordinates, evolved by each method.

    Each method carries its half of one ``(2, blocks, n+1, n+1 + 2 batch)`` array
    through :func:`_forward_step`, one step per chunk: per sector J = n/2 - k, k = 0..n/2,
    the block's n + 1 basis columns, which end as its unitary (the identity
    outside the sector under both methods), then the states' two copies
    (zero past the first three blocks). Sector k occurs ``C(n, k) - C(n, k-1)``
    times among the ``2**n`` states, so ``||U_c - U_e||_F^2`` sums the sectors'
    squared distances times those counts. The evolved states come back as
    rows of their coupled coordinates in the first three sectors: an
    isometric image, so density distances read as on ``2**n`` vectors.
    """
    n = schedule.n_qubits
    columns = _coordinate_columns(coords, n)
    blocks, batch = n // 2 + 1, columns.shape[1]
    width = n + 1 + 2 * batch  # a block's basis columns, then the states' two copies
    _, sweeps = _chunk_sweeps(schedule, "chunked", "exact", width=2 * width, blocks=blocks, backward=False)
    coupled = _to_sectors(columns, pair_dicke_operators(n)).view(complex)  # (3 blocks, n+1, copy x batch)
    swept = np.zeros((2, blocks, n + 1, width), dtype=complex)  # chunked, then exact
    swept[..., : n + 1] = np.eye(n + 1)
    swept[:, : len(coupled), :, n + 1 :] = coupled
    for floats, steps in zip(swept.view(float), sweeps):
        for step in steps:
            _forward_step(floats, *step[:4])
    copies = [math.comb(n, k) - (math.comb(n, k - 1) if k else 0) for k in range(blocks)]
    difference = (swept[0, ..., : n + 1] - swept[1, ..., : n + 1]).view(float)
    squares = np.einsum("kij,kij->k", difference, difference)
    finals = swept[:, : len(coupled), :, n + 1 :].reshape(2, len(coupled), n + 1, 2, batch).transpose(0, 4, 1, 2, 3)
    return math.sqrt(copies @ squares), *finals.reshape(2, batch, -1)


def adjoint_partials(coords: np.ndarray, schedule: Schedule, method: str, costate) -> np.ndarray:
    """Every chunk's shared-parameter derivatives of a real function F of the evolved states.

    ``coords`` is a ``(batch, 4(n-1))`` stack of pair (x) Dicke coordinates
    and every chunk must be uniform. ``costate(finals)`` receives the
    evolved stack and returns the co-states ``lam`` (same shape) with
    ``dF = 2 Re sum_b <lam_b | d final_b>``. One forward sweep evolves the
    states; one backward sweep un-evolves states and co-states together,
    chunk by chunk (every factor is unitary, so no intermediate state is
    kept). Both run in the total-spin sectors, which the finals leave and
    the co-states enter once. Returns ``(n_chunks, 3)`` partials: per
    chunk, the shared tunneling, bias and coupling.
    """
    terms, steps, ops, finals = _forward_sweep(coords, schedule, method, backward=True)
    costates = _to_sectors(_coordinate_columns(costate(_from_sectors(finals, ops).T), schedule.n_qubits), ops)
    blocks, rows = finals.shape[:2]  # per copy: states, then co-states
    both = np.concatenate([c.reshape(blocks, rows, 2, -1) for c in (finals, costates)], axis=-1).reshape(blocks, rows, -1)
    out = []
    for step in reversed(steps):
        undo = _exact_backward if step[0] is None else _chunked_backward  # exact has no lead
        both, partials = undo(both, step, terms, schedule.dt)
        out.append(partials)
    return np.array(out[::-1])


def chunked_chunk_propagator(params: ChunkParams, n: int, dt: float) -> np.ndarray:
    """Split-operator propagator: pair exponentials first, then single-qubit ones; range rule as ``exact``."""
    if params.n_qubits != n:
        raise ValueError(f"parameters are sized for {params.n_qubits} qubits, not {n}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    require_phase_range(dt, params.norm_bound)
    require_square(n)
    return _run_steps(np.eye(2**n, dtype=complex), _chunked_steps((params,), n, dt))


def chunk_propagators(schedule: Schedule, method: str = "exact") -> Iterator[np.ndarray]:
    """Per-chunk dense unitaries in chronological order, each built as it is read.

    An unknown method is refused by the call, before anything is read.
    """
    build = dict(zip(PROPAGATION_METHODS, (exact_chunk_propagator, chunked_chunk_propagator))).get(method)
    if build is None:
        raise ValueError(f"unknown propagation method {method!r}")
    return (build(ck, schedule.n_qubits, schedule.dt) for ck in schedule.chunks)


def evolve_states(states: np.ndarray, schedule: Schedule, method: str = "exact") -> np.ndarray:
    """Evolve a (dim,) state or a (batch, dim) stack of states.

    The stack is evolved as one C-ordered ``(2**n, batch)`` array by the
    gate kernel's runner under both methods. ``chunked`` streams each
    chunk's phase vector and its single-qubit layer as a few Kronecker
    blocks, built once per process and chunk (:func:`_dense_chunk_steps`),
    without building any 2^N matrix. ``exact``'s blocks are the
    cached dense chunk propagators on all n qubits, on every schedule, so
    it refuses more than 10 qubits; a schedule of uniform chunks evolves
    without them in its total-spin sectors (:func:`evolve_pair_dicke`,
    :func:`sector_trotter_error`).
    """
    arr = np.asarray(states, dtype=complex)
    single = arr.ndim == 1
    batch = arr[np.newaxis, :] if single else arr
    n = schedule.n_qubits
    if batch.shape[1] != 2**n:
        raise ValueError(f"state dimension {batch.shape[1]} does not match {n} qubits")
    if method == "chunked":
        steps = _chunked_steps(schedule.chunks, n, schedule.dt)
    else:  # chunk_propagators refuses an unknown method
        steps = ((u, 0) for u in chunk_propagators(schedule, method))
    columns = _run_steps(np.ascontiguousarray(batch.T), steps)
    return columns.T[0] if single else columns.T


def propagate(initial: np.ndarray, schedule: Schedule, method: str = "exact") -> np.ndarray:
    """Evolve a state vector or density matrix through the whole schedule."""
    arr = np.asarray(initial, dtype=complex)
    if arr.ndim == 1:
        return evolve_states(arr, schedule, method)
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        # evolve_states maps the rows r of its input to U r, i.e. X -> X U^T
        left = evolve_states(arr.T, schedule, method).T  # U rho
        return evolve_states(left.conj(), schedule, method).conj()  # U rho U^dagger
    raise ValueError("expected a state vector or a square density matrix")


def refine_schedule(schedule: Schedule, factor: int) -> Schedule:
    """Split every chunk into ``factor`` equal chunks with identical parameters."""
    if factor < 1:
        raise ValueError("refinement factor must be >= 1")
    chunks = tuple(ck for ck in schedule.chunks for _ in range(factor))
    return Schedule(schedule.n_qubits, schedule.total_time, chunks)


# --- JSON serialization -------------------------------------------------
#
# On-disk schema:
#   {"n_qubits": int, "total_time": float, "symmetric": bool (optional),
#    "chunks": [{"K": [...], "eps": [...], "zeta": {"i,j": value}}]}

_SCHEDULE_KEYS = {"n_qubits", "total_time", "symmetric", "chunks"}
_CHUNK_KEYS = {"K", "eps", "zeta"}


class ScheduleFormatError(ValueError):
    """Raised when a schedule document violates the JSON schema."""


def schedule_to_json(schedule: Schedule) -> str:
    return json.dumps(_schedule_document(schedule), indent=2) + "\n"


def _pair_keys(n: int) -> list[str]:
    """The C(n, 2) ``"i,j"`` zeta keys in the order of ``qubit_pairs``: each
    row's ``"i,"`` prefix joined to the column strings after it, so that no
    pair is formatted on its own."""
    columns = [str(j) for j in range(n)]
    rows = [column + "," for column in columns]
    return [row + column for i, row in enumerate(rows) for column in columns[i + 1 :]]


def _schedule_document(schedule: Schedule) -> dict:
    """The JSON object ``schedule_to_json`` lays out, as Python values."""
    keys = _pair_keys(schedule.n_qubits)
    return {
        "n_qubits": schedule.n_qubits,
        "total_time": schedule.total_time,
        "symmetric": schedule.symmetric,
        "chunks": [
            {
                "K": list(ck.tunneling),
                "eps": list(ck.bias),
                "zeta": dict(zip(keys, ck.coupling)),
            }
            for ck in schedule.chunks
        ],
    }


def _json_number(value, what: str) -> float:
    # bool is an int subclass and float() would also accept numeric strings;
    # the bound refuses json.loads' NaN/Infinity and ints float() cannot hold
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ScheduleFormatError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _json_numbers(value, what: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ScheduleFormatError(f"{what} must be a list of numbers, got {value!r}")
    return tuple(_json_number(item, f"{what} entry {idx}") for idx, item in enumerate(value))


def _refuse_pair_keys(zeta: dict, n: int, pos: int) -> None:
    """Walk a chunk's zeta keys, only to word the first one that is not a pair
    of n qubits, or else the first pair it lacks; return if it lacks none."""
    seen = set()
    for key in zeta:
        try:
            i, j = (int(part) for part in key.split(","))
        except ValueError as exc:
            raise ScheduleFormatError(f"bad zeta pair key {key!r} in chunk {pos}") from exc
        if key != f"{i},{j}":
            raise ScheduleFormatError(f"bad zeta pair key {key!r} in chunk {pos}, expected 'i,j'")
        if not (0 <= i < j < n):
            raise ScheduleFormatError(f"zeta pair {key!r} out of range in chunk {pos}")
        seen.add((i, j))
    if len(seen) != n * (n - 1) // 2:
        # every pair before the first missing one is in seen, so this reads no more pairs than the document holds
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in seen)
        raise ScheduleFormatError(f"zeta is missing pair '{i},{j}' in chunk {pos}")


def _chunk_from_json(raw: dict, keys: list[str], pos: int) -> ChunkParams:
    """One chunk whose keys and sizes are checked. Its numbers are checked in
    one pass; they are walked one by one only to word a refusal."""
    tunneling, bias = raw["K"], raw["eps"]
    coupling = list(map(raw["zeta"].__getitem__, keys))
    # exact types: json.loads makes no subclass of int or float, and a bool is no number here
    if type(tunneling) is list and type(bias) is list and {
        *map(type, coupling), *map(type, tunneling), *map(type, bias)
    } <= {int, float}:
        try:
            return ChunkParams(tunneling, bias, coupling)
        except (ValueError, OverflowError):  # a non-finite value or sum, or an int that float() cannot hold
            pass
    coupling = tuple(_json_number(value, f"zeta pair '{key}' in chunk {pos}") for key, value in zip(keys, coupling))
    tunneling = _json_numbers(tunneling, f"'K' in chunk {pos}")
    bias = _json_numbers(bias, f"'eps' in chunk {pos}")
    try:  # finite entries can still sum past the largest float
        return ChunkParams(tunneling, bias, coupling)
    except (TypeError, ValueError) as exc:
        raise ScheduleFormatError(f"bad chunk {pos}: {exc}") from exc


def schedule_from_json(text: str) -> Schedule:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScheduleFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScheduleFormatError("schedule document must be a JSON object")
    unknown = set(doc) - _SCHEDULE_KEYS
    if unknown:
        raise ScheduleFormatError(f"unknown key {sorted(unknown)[0]!r} in schedule document")
    missing = _SCHEDULE_KEYS - {"symmetric"} - set(doc)
    if missing:
        raise ScheduleFormatError(f"missing key {sorted(missing)[0]!r} in schedule document")
    n = doc["n_qubits"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ScheduleFormatError("'n_qubits' must be a positive integer")
    if not isinstance(doc["chunks"], list):
        raise ScheduleFormatError("'chunks' must be a list of chunk objects")
    total_time = _json_number(doc["total_time"], "'total_time'")
    if not doc["chunks"]:
        raise ScheduleFormatError("schedule needs at least one chunk")
    # each chunk's sizes are checked against n before the C(n, 2) pair keys
    # are built, so that refusing a document takes time in proportion to its
    # length; the keys are then built once, and each chunk's compared at once
    keys = expected = None
    for pos, raw in enumerate(doc["chunks"]):
        if not isinstance(raw, dict):
            raise ScheduleFormatError(f"chunk {pos} must be a JSON object")
        unknown = set(raw) - _CHUNK_KEYS
        if unknown:
            raise ScheduleFormatError(f"unknown key {sorted(unknown)[0]!r} in chunk {pos}")
        missing = _CHUNK_KEYS - set(raw)
        if missing:
            raise ScheduleFormatError(f"missing key {sorted(missing)[0]!r} in chunk {pos}")
        zeta = raw["zeta"]
        if not isinstance(zeta, dict):
            raise ScheduleFormatError(f"'zeta' in chunk {pos} must be an object keyed by 'i,j'")
        wrong = [key for key in ("K", "eps") if isinstance(raw[key], list) and len(raw[key]) != n]
        if len(zeta) == n * (n - 1) // 2 and not wrong:
            if keys is None:
                keys = _pair_keys(n)
                expected = set(keys)
            if zeta.keys() == expected:
                continue
        _refuse_pair_keys(zeta, n, pos)  # a key's refusal comes before its chunk's sizes
        key = wrong[0]
        raise ScheduleFormatError(f"'{key}' in chunk {pos} has {len(raw[key])} entries for {n} qubits")
    chunks = tuple(_chunk_from_json(raw, keys, pos) for pos, raw in enumerate(doc["chunks"]))
    symmetric = doc.get("symmetric", False)
    if not isinstance(symmetric, bool):
        raise ScheduleFormatError(f"'symmetric' must be true or false, got {symmetric!r}")
    try:
        schedule = Schedule(n_qubits=n, total_time=total_time, chunks=chunks)
    except (TypeError, ValueError) as exc:
        raise ScheduleFormatError(str(exc)) from exc
    if symmetric and not schedule.symmetric:
        raise ScheduleFormatError("'symmetric' is true but the chunk parameters are not uniform")
    return schedule


def load_schedule(path: str | Path) -> Schedule:
    return schedule_from_json(Path(path).read_text())


def save_schedule(schedule: Schedule, path: str | Path) -> None:
    Path(path).write_text(schedule_to_json(schedule))
