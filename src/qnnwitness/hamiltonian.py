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
nothing 4(n-1)-square is built. On all n/2 + 1 sectors the same kernel
gives ``verify`` a uniform schedule's Trotter error (:func:`sector_trotter_error`).
Adjoint gradients run only in the pair (x) Dicke space and return each
chunk's shared (tunneling, bias, coupling) partials; dense states are
evolved but never differentiated.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .core import DEFAULT_UNITARY_CAP, DENSE_BYTES_BUDGET, PARITY_CACHE, DimensionError
from .core import _blocks, _kron, _run_steps, ising_diagonal, require_square


@dataclass(frozen=True)
class ChunkParams:
    """Hamiltonian parameters held constant over one time chunk.

    ``tunneling`` (X coefficients) and ``bias`` (Z coefficients) are
    per-qubit; ``coupling`` (ZZ coefficients) is per unordered pair in
    lexicographic order, matching :func:`qnnwitness.core.qubit_pairs`.
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
        # a Hamiltonian diagonal entry is at most the sum of every |bias| and |coupling|
        if not (all(map(math.isfinite, self.tunneling)) and math.isfinite(sum(map(abs, self.bias + self.coupling)))):
            raise ValueError("Hamiltonian parameters must be finite, and so must the sum of their magnitudes")

    @property
    def n_qubits(self) -> int:
        return len(self.tunneling)

    @cached_property
    def is_symmetric(self) -> bool:
        # computed once per chunk and kept outside the fields, so equality,
        # hashing and the exact-propagator cache key still read fields only
        return (
            len(set(self.tunneling)) == 1
            and len(set(self.bias)) == 1
            and (not self.coupling or len(set(self.coupling)) == 1)
        )

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

    @cached_property
    def symmetric(self) -> bool:
        return all(ck.is_symmetric for ck in self.chunks)

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    @property
    def dt(self) -> float:
        return self.total_time / len(self.chunks)


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
    The CLI reaches it only on a schedule with a non-uniform chunk.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    h = build_hamiltonian(params, n)
    eigvals, eigvecs = np.linalg.eigh(h)
    _require_finite_phases(dt, float(np.abs(eigvals).max()))
    # V exp(-i lambda dt) V^T as two real products
    u = (eigvecs * np.cos(eigvals * dt)) @ eigvecs.T - 1j * ((eigvecs * np.sin(eigvals * dt)) @ eigvecs.T)
    u.flags.writeable = False
    return u


def _require_finite_phases(dt: float, *largest: float) -> None:
    """Refuse a chunk whose phases ``dt * H`` pass the float range. ``largest`` holds the largest
    magnitude of each factor the phases multiply after dt, in order: by monotone rounding, some phase
    overflows exactly when their product does, here in Python floats, which raise no numpy warning."""
    if not math.isfinite(math.prod(largest, start=dt)):
        raise ValueError(f"a phase of exp(-i H dt) is not finite: a chunk's energies times dt = {dt!r} overflow")


def _single_qubit_factor(tunneling: float, bias: float, dt: float) -> np.ndarray:
    """``exp(-i dt (K X + eps Z))`` in closed form."""
    magnitude = math.hypot(tunneling, bias)
    c = math.cos(dt * magnitude)
    s = math.sin(dt * magnitude) / magnitude if magnitude else dt
    off = complex(0.0, -s * tunneling)
    return np.array([[complex(c, -s * bias), off], [off, complex(c, s * bias)]])


def _single_qubit_factor_partials(tunneling: float, bias: float, dt: float) -> np.ndarray:
    """Derivatives of :func:`_single_qubit_factor` by ``tunneling`` and by ``bias``, stacked.

    The factor is ``c I - i s (K X + eps Z)`` with ``m = hypot(K, eps)``,
    ``c = cos(dt m)`` and ``s = sin(dt m)/m``. Since ``dc/dK = -dt K s`` and
    ``ds/dK = K f`` with ``f = (dt c - s)/m^2``, the K derivative is
    ``-dt K s I - i (K f (K X + eps Z) + s X)``, and likewise for eps with Z.
    ``f`` is summed from its series where ``dt c - s`` cancels. ``m^2`` must
    not overflow, or ``f = 0`` would drop ``K f (K X + eps Z)``: :func:`require_differentiable`
    refuses such a chunk before any sweep.
    """
    magnitude = math.hypot(tunneling, bias)
    x = dt * magnitude
    s = dt * (math.sin(x) / x if x else 1.0)
    if x < 0.05:
        x2 = x * x
        f = dt**3 * (-1 / 3 + x2 * (1 / 30 - x2 * (1 / 840 - x2 / 45360)))
    else:
        f = (dt * math.cos(x) - s) / (magnitude * magnitude)
    # entry by entry, for v = K then eps: -dt v s I - i (v f (K X + eps Z) + s X, or s Z)
    return np.array([[[complex(-dt * v * s, -(v * f * bias + z)), complex(0.0, -(v * f * tunneling + x))],
                      [complex(0.0, -(v * f * tunneling + x)), complex(-dt * v * s, v * f * bias + z)]]
                     for v, x, z in ((tunneling, s, 0.0), (bias, 0.0, s))])


def _chunked_steps(chunks: tuple[ChunkParams, ...], n: int, dt: float):
    """Each chunk's split-operator steps, built as they are read: its ZZ
    phase vector, then its single-qubit layer as the Kronecker blocks of
    :func:`qnnwitness.core._blocks`."""
    blocks = _blocks(n)
    for ck in chunks:
        energies = ising_diagonal(np.zeros(n), _coupling_matrix(ck))
        _require_finite_phases(dt, float(np.abs(energies).max()))
        yield np.exp(-1j * dt * energies)  # every exp(-i dt zeta_ij Z_i Z_j)
        # a symmetric chunk has one distinct (K, eps), so one factor
        factors = {key: _single_qubit_factor(*key, dt) for key in set(zip(ck.tunneling, ck.bias))}
        layer = [factors[key] for key in zip(ck.tunneling, ck.bias)]
        for q, k in blocks:
            yield _kron(layer[q : q + k]), q


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
def sector_terms(n: int, spins: tuple[float, ...]) -> np.ndarray:
    """Per sector J in ``spins`` and weight w = 0..n (M = n/2 - w), built
    once per n and spins: the ladder ``<J, M|J_+|J, M-1> = sqrt((J+M)(J-M+1))``
    to the next weight, ``2M`` and ``(4M^2 - n)/2``, stacked ``(3,
    len(spins), n+1)`` and zero where the sector has no row. Each J must
    leave n/2 - J a whole number from 0 to n/2."""
    twice = [2 * j for j in spins]
    if any(t != round(t) or not 0 <= t <= n or (n - t) % 2 for t in twice):
        raise ValueError(f"total spins {tuple(spins)} are not sectors of {n} qubits")
    twice = np.array(twice, dtype=float)[:, np.newaxis]
    twice_m = n - 2 * np.arange(n + 1.0)
    inside = np.abs(twice_m) <= twice
    # the product vanishes at M = -J and at M = J + 1, and is negative past them
    ladder = np.sqrt(np.maximum((twice + twice_m) * (twice - twice_m + 2), 0.0)) / 2
    terms = np.stack([ladder, inside * twice_m, inside * (twice_m * twice_m - n) / 2])
    terms.flags.writeable = False
    return terms


def _largest_terms(n: int) -> tuple[float, float]:
    """The largest ladder entry and ``|(4M^2 - n)/2|`` of n qubits, as :func:`sector_terms` rounds
    them: J = n/2's at the middle weights, and at M = n/2 the number of pairs."""
    return math.sqrt((n - n // 2) * (n // 2 + 1)), n * (n - 1) / 2


def spin_sector_hamiltonian(shared, n: int, spins) -> np.ndarray:
    """The Hamiltonian of a uniform n-qubit chunk on the total-spin sectors
    ``spins``: real symmetric tridiagonal blocks on the |J, M> with M = n/2 - w,
    w = 0..n, ``2 eps M + zeta (4 M^2 - n)/2`` on the diagonal and
    ``K sqrt((J+M)(J-M+1))`` beside it, zero where |M| > J. ``shared`` is the
    chunk's ``(K, eps, zeta)`` or a ``(..., 3)`` stack of them, for a
    ``(..., len(spins), n+1, n+1)`` stack. Every uniform chunk's blocks come
    from here: ``exact`` diagonalises them with the chunk's zeta, ``chunked``
    with zeta = 0 and its ZZ phase applied apart."""
    ladder, twice_m, quadratic = sector_terms(n, tuple(spins))
    shared = np.asarray(shared, dtype=float)[..., np.newaxis, np.newaxis, :]
    size = n + 1
    h = np.zeros(shared.shape[:-3] + (len(spins), size * size))  # row-major: (r, r) is entry r (size + 1)
    h[..., :: size + 1] = shared[..., 1] * twice_m + shared[..., 2] * quadratic
    h[..., 1 :: size + 1] = h[..., size :: size + 1] = shared[..., 0] * ladder[:, :-1]  # (r, r + 1) and (r + 1, r)
    return h.reshape(h.shape[:-1] + (size, size))


def _lowered_sectors(lowerings: list[np.ndarray], n: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """The coupled basis of a space of n spins 1/2 with J_- from weight w to
    w + 1 ``lowerings[w]``: per sector k = n/2 - J it holds and weight
    w = k..n-k, ``(k, w, states)``, the copies |J, M = n/2 - w, a> as
    columns over the weight-w basis. The highest-weight states of J are the
    null space of J_+ from weight k to k - 1; J_- lowers them one weight at
    a time, divided by ``sqrt((J+M)(J-M+1))``, so that J_- has the positive
    entries :func:`spin_sector_hamiltonian` puts beside the diagonal."""
    for k in range(n // 2 + 1):
        if k:
            raising = lowerings[k - 1].T
            copies = raising.shape[1] - raising.shape[0]
            if not copies:
                return
            # the rows of vt past its singular values span the null space
            states = np.linalg.svd(raising)[2][-copies:].T
        else:
            states = np.ones((1, 1))
        for w in range(k, n - k + 1):
            yield k, w, states
            if w < n - k:
                twice_j, twice_m = n - 2 * k, n - 2 * w
                states = lowerings[w] @ states / (0.5 * math.sqrt((twice_j + twice_m) * (twice_j - twice_m + 2)))


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
# J = 0 at n = 2, no n/2 - 2 at n = 3). Both methods run there on coupled
# columns ``(blocks, n+1, 2, batch)``: block k = n/2 - J, weight, copy (the
# second one zero outside block 1), state.

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
    coupled basis, built once per n: a real orthogonal block of at most
    4 x 4 per weight. J_- takes |p> (x) |D_w> to the |p'> (x) |D_w> where
    qubit 0 or 1 went from 0 to 1, and to ``sqrt((w+1)(m-w)) |p> (x)
    |D_{w+1}>``."""
    if n < 2:
        raise ValueError("the pair (x) Dicke space needs at least 2 qubits")
    m = n - 2
    # J_- from weight W to W + 1 on all four p, then restricted to the |p> (x) |D_{W - bits(p)}> that exist
    spectators = np.arange(n)[:, np.newaxis] - np.array(_PAIR_WEIGHTS)  # w at total weight W
    lowering = np.zeros((n, 4, 4))
    lowering[:, [2, 3, 1, 3], [0, 1, 0, 2]] = 1.0  # qubit 0 takes p to p | 2, qubit 1 takes p to p | 1
    lowering[:, range(4), range(4)] = np.sqrt(np.maximum((spectators + 1) * (m - spectators), 0))
    present = [[p for p in range(4) if 0 <= W - _PAIR_WEIGHTS[p] <= m] for W in range(n + 1)]
    lowerings = [lowering[W][np.ix_(present[W + 1], present[W])] for W in range(n)]
    change = np.zeros((n + 1, 2 * min(3, n // 2 + 1), 4))
    for k, w, states in _lowered_sectors(lowerings, n):
        change[w][2 * k : 2 * k + states.shape[1], present[w]] = states.T
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


def _forward_step(columns: np.ndarray, eigvecs: np.ndarray, phases: np.ndarray, diagonal) -> np.ndarray:
    """One chunk on the float view of coupled columns: its ZZ phase
    ``diagonal`` where it is split off (``chunked``, else None), applied
    in place, then ``V exp(-i lam dt) V^T`` per block. The eigenvectors are
    real, so each product with them is a real product on the float view."""
    if diagonal is not None:
        columns.view(complex)[...] *= diagonal
    rotated = eigvecs.swapaxes(1, 2) @ columns
    rotated.view(complex)[...] *= phases
    return eigvecs @ rotated


# --- adjoint gradients --------------------------------------------------
#
# A backward step takes the coupled columns [states | co-states] just after
# one chunk, returns them just before it, and reads the partials
# 2 Re <lam| dU U^dagger |psi> of the chunk's shared tunneling, bias and
# coupling on the way.


def _states_and_costates(both: np.ndarray, batch: int) -> np.ndarray:
    """The float view of coupled [states | co-states] columns as two
    contiguous ``(blocks * (n+1), 2 batch)`` complex arrays, copies side by side."""
    blocks, rows = both.shape[:2]
    return both.view(complex).reshape(blocks * rows, 2, 2, batch).transpose(2, 0, 1, 3).reshape(2, blocks * rows, -1)


def _backward_step(
    both: np.ndarray, eigvecs: np.ndarray, eigvals: np.ndarray, phases: np.ndarray, diagonal, shared,
    terms: np.ndarray, dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Undo one chunk of :func:`_forward_step` and read its three partials.

    ``exact`` reads them by the Daleckii-Krein formula on each block:
    ``dU = V (Phi o V^T dH V) V^T`` with ``Phi_jk = -i dt exp(-i dt (l_j +
    l_k)/2) sinc(dt (l_j - l_k)/2)``, which needs no branch for degenerate
    eigenvalues, so a partial is ``2 sum_xy dH_xy Re M_xy`` with ``M = V
    (Phi o S) V^T``, ``S_jk = sum_b conj(V^T lam)_j (V^T psi_before)_k``
    and dH the ladder, 2M or (4M^2 - n)/2. ``chunked`` reads its coupling
    partial from the diagonal between the blocks and its ZZ phase. Its
    single-qubit layer acts last and its factors commute, so the K (or
    eps) partial is ``2 Re <lam| sum_q (dF F^dagger)_q |psi>`` at the
    chunk's end: ``sum(G * R)`` with ``R`` the collective 2x2 overlaps,
    ``n/2 + J_z`` and ``n/2 - J_z`` on the diagonal and J_+, J_- off it.
    """
    ladder, twice_m, quadratic = terms
    blocks, rows = eigvals.shape
    batch = both.shape[-1] // 8  # floats: copy, [states | co-states], real and imaginary part
    if diagonal is not None:  # the blocks' rows end to end: a block's last row links to nothing
        psi, lam = _states_and_costates(both, batch)
        links, total = ladder.reshape(-1, 1)[:-1], np.vdot(lam, psi)
        spin_z = np.vdot(lam, twice_m.reshape(-1, 1) * psi) / 2
        reduced = np.array([[(rows - 1) / 2 * total + spin_z, np.vdot(lam[:-1], links * psi[1:])],
                            [np.vdot(lam[1:], links * psi[:-1]), (rows - 1) / 2 * total - spin_z]])
    coords = eigvecs.swapaxes(1, 2) @ both
    split = coords.view(complex)
    if diagonal is None:
        half = np.exp(0.5j * dt * eigvals)[:, :, np.newaxis]
        split *= half
        psi, lam = _states_and_costates(coords, batch).reshape(2, blocks, rows, -1)
        split *= half
    else:
        split /= phases
    before = eigvecs @ coords
    if diagonal is not None:
        psi, lam = _states_and_costates(before, batch)
        # sum((dF F^dagger) * R) = sum(dF * (R F^dagger)), F symmetric; F(dt)^dagger = F(-dt)
        overlaps = (reduced @ _single_qubit_factor(*shared[:2], -dt)).ravel()
        tunneling, bias = (_single_qubit_factor_partials(*shared[:2], dt).reshape(2, 4) @ overlaps).real.tolist()
        coupling = np.vdot(lam, quadratic.reshape(-1, 1) * psi).imag
        before.view(complex)[...] /= diagonal
        return before, np.array([2 * tunneling, 2 * bias, 2 * dt * coupling])
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
    product = eigvecs @ weights
    del weights
    on = np.einsum("kij,kij->ki", product, eigvecs)
    beside = np.einsum("kij,kij->ki", product[:, :-1], eigvecs[:, 1:]) + np.einsum(
        "kij,kij->ki", product[:, 1:], eigvecs[:, :-1])
    return before, 2 * dt * np.array([np.vdot(ladder[:, :-1], beside), np.vdot(twice_m, on), np.vdot(quadratic, on)])


def _chunk_sweeps(schedule: Schedule, *methods: str, blocks: int | None = None) -> tuple:
    """What each chunk's steps read under each of ``methods``, from one
    batched ``eigh`` of every chunk's blocks: the sector terms, then
    eigenvectors, eigenvalues and ``exp(-i lam dt)``, stacked ``(method,
    chunk, ...)``, the ZZ phases per method (a None per chunk for
    ``exact``) and the shared parameters. ``exact`` diagonalises the
    chunk's Hamiltonian; ``chunked`` applies its ZZ phase ``zeta (4M^2 -
    n)/2`` first, as a diagonal, then ``exp(-i dt (K 2J_x + eps 2J_z))``:
    the order the gate compiler reproduces. The sectors are J = n/2 - k,
    k < ``blocks`` (default: the pair (x) Dicke space's three). The one size
    rule of the sector kernel refuses them before anything is built."""
    for method in methods:
        if method not in ("exact", "chunked"):
            raise ValueError(f"unknown propagation method {method!r}")
    n, dt, count = schedule.n_qubits, schedule.dt, schedule.n_chunks
    blocks, size = blocks or min(3, n // 2 + 1), (n + 1) * (n + 1)
    # per chunk and method: its real eigenvectors, its generator while they are built, 40 bytes a row
    # (eigenvalues, phases, ZZ phase) and 2 KiB of Python objects; then an exact backward step's 2.5 blocks
    # of working arrays, and 1 KiB a row for the columns of 4 states and 4 co-states
    per_chunk = 16 * blocks * size + 40 * blocks * (n + 1) + 2048
    nbytes = len(methods) * count * per_chunk + 20 * blocks * size + 1024 * (n + 1)
    if nbytes > DENSE_BYTES_BUDGET:
        raise DimensionError(f"refusing {nbytes} bytes of {' and '.join(methods)} sweeps for {n} qubits and {count} "
                             f"chunks (budget {DENSE_BYTES_BUDGET} bytes)")
    spins = tuple(n / 2 - k for k in range(blocks))
    shared = [ck.shared for ck in schedule.chunks]
    terms = sector_terms(n, spins)
    # a chunk's bias and couplings sum to a finite float, but K times the ladder need not: checked as
    # in _require_finite_phases
    ladder, quadratic = _largest_terms(n)
    if math.isinf(max(abs(ck[0]) for ck in shared) * ladder):
        raise ValueError(f"the sector blocks of {n} qubits are not finite: a chunk's K, eps or zeta overflows them")
    generators = np.array([shared] * len(methods))
    diagonals = []
    for method, generator in zip(methods, generators):
        if method == "chunked":
            _require_finite_phases(dt, max(abs(ck[2]) for ck in shared), quadratic)
            diagonals.append(np.exp(-1j * dt * generator[:, 2, np.newaxis, np.newaxis] * terms[2])[..., np.newaxis])
            generator[:, 2] = 0.0
        else:
            diagonals.append([None] * count)
    eigvals, eigvecs = np.linalg.eigh(spin_sector_hamiltonian(generators, n, spins))
    _require_finite_phases(dt, float(np.abs(eigvals).max()))
    phases = np.exp(-1j * dt * eigvals)[..., np.newaxis]
    return terms, eigvecs, eigvals, phases, diagonals, shared


def _forward_sweep(coords: np.ndarray, schedule: Schedule, method: str):
    """A ``(batch, 4(n-1))`` stack of pair (x) Dicke coordinates through
    every chunk: the sector terms of :func:`_chunk_sweeps`, each chunk's
    steps, the space's operators, and the float view of the final coupled
    columns."""
    columns = np.asarray(coords, dtype=complex).T
    if columns.shape[0] != 4 * (schedule.n_qubits - 1):
        raise ValueError(f"{columns.shape[0]} coordinates do not match {schedule.n_qubits} qubits")
    terms, eigvecs, eigvals, phases, diagonals, shared = _chunk_sweeps(schedule, method)
    chunks = list(zip(eigvecs[0], eigvals[0], phases[0], diagonals[0], shared))  # the one method's
    ops = pair_dicke_operators(schedule.n_qubits)
    columns = _to_sectors(columns, ops)
    for vectors, _, exponentials, diagonal, _ in chunks:
        columns = _forward_step(columns, vectors, exponentials, diagonal)
    return terms, chunks, ops, columns


def evolve_pair_dicke(coords: np.ndarray, schedule: Schedule, method: str = "exact") -> np.ndarray:
    """Evolve a ``(batch, 4(n-1))`` stack of pair (x) Dicke coordinates
    through a schedule of uniform chunks; the result matches the dense
    :func:`evolve_states` of the embedded states to round-off."""
    _, _, ops, finals = _forward_sweep(coords, schedule, method)
    return _from_sectors(finals, ops).T


def sector_trotter_error(coords: np.ndarray, schedule: Schedule) -> tuple[float, np.ndarray, np.ndarray]:
    """``||U_chunked - U_exact||_F`` of a schedule of uniform chunks, from
    its total-spin sectors, and ``coords``, a ``(batch, 4(n-1))`` stack of
    pair (x) Dicke coordinates, evolved by each method.

    One batched ``eigh`` gives every chunk's unitary on each sector
    J = n/2 - k, k = 0..n/2, under both methods. Sector k occurs
    ``C(n, k) - C(n, k-1)`` times among the ``2**n`` states, so
    ``||U_c - U_e||_F^2`` is the sum of the sectors' squared distances
    times those counts; a block's rows outside its sector are the identity
    under both methods. The evolved states come back as rows of their
    coupled coordinates in the first three sectors: an isometric image,
    so density distances read as on ``2**n`` vectors.
    """
    n = schedule.n_qubits
    ops = pair_dicke_operators(n)
    coupled = _to_sectors(np.asarray(coords, dtype=complex).T, ops).view(complex)  # (3 blocks, n+1, copy x batch)
    _, eigvecs, _, phases, diagonals, _ = _chunk_sweeps(schedule, "chunked", "exact", blocks=n // 2 + 1)
    # the (method, chunk, block) unitaries, complex and so outside the sweeps' budget, 1 MiB at a time
    step = max(1, 2**20 // (2 * 16 * eigvecs[:, 0].size))
    products = None
    for start in range(0, schedule.n_chunks, step):
        part = slice(start, start + step)
        unitaries = (eigvecs[:, part] * phases[:, part].swapaxes(-1, -2)) @ eigvecs[:, part].swapaxes(-1, -2)
        unitaries[0] *= diagonals[0][part].swapaxes(-1, -2)  # the chunked ZZ phase acts first
        for chunk in range(unitaries.shape[1]):
            products = unitaries[:, chunk] if products is None else unitaries[:, chunk] @ products
    evolved = products[:, : len(coupled)] @ coupled  # (method, block, n+1, copy x batch)
    batch = coupled.shape[-1] // 2
    finals = evolved.reshape(*evolved.shape[:3], 2, batch).transpose(0, 4, 1, 2, 3).reshape(2, batch, -1)
    copies = [math.comb(n, k) - (math.comb(n, k - 1) if k else 0) for k in range(n // 2 + 1)]
    return math.sqrt(copies @ (np.abs(products[0] - products[1]) ** 2).sum(axis=(1, 2))), *finals


def require_differentiable(schedule: Schedule) -> None:
    """Refuse a chunk whose ``hypot(K, eps)**2`` overflows, past about
    1.3e154: there the chunked partials would lose a term, and a schedule
    that one method cannot differentiate is not trained by the other."""
    for ck in schedule.chunks:
        magnitude = math.hypot(*ck.shared[:2])
        if math.isinf(magnitude * magnitude):
            raise ValueError(f"chunk parameters too large to differentiate: |(K, eps)| = {magnitude!r}")


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
    require_differentiable(schedule)
    terms, chunks, ops, finals = _forward_sweep(coords, schedule, method)
    costates = _to_sectors(np.asarray(costate(_from_sectors(finals, ops).T), dtype=complex).T, ops)
    blocks, rows = finals.shape[:2]  # per copy: states, then co-states
    both = np.concatenate([c.reshape(blocks, rows, 2, -1) for c in (finals, costates)], axis=-1).reshape(blocks, rows, -1)
    out = []
    for chunk in reversed(chunks):
        both, partials = _backward_step(both, *chunk, terms, schedule.dt)
        out.append(partials)
    return np.array(out[::-1])


def chunked_chunk_propagator(params: ChunkParams, n: int, dt: float) -> np.ndarray:
    """Split-operator propagator: pair exponentials first, then single-qubit ones."""
    if params.n_qubits != n:
        raise ValueError(f"parameters are sized for {params.n_qubits} qubits, not {n}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    require_square(n)
    return _run_steps(np.eye(2**n, dtype=complex), _chunked_steps((params,), n, dt))


def chunk_propagators(schedule: Schedule, method: str = "exact") -> Iterator[np.ndarray]:
    """Per-chunk dense unitaries in chronological order, each built as it is read.

    An unknown method is refused by the call, before anything is read.
    """
    build = {"exact": exact_chunk_propagator, "chunked": chunked_chunk_propagator}.get(method)
    if build is None:
        raise ValueError(f"unknown propagation method {method!r}")
    return (build(ck, schedule.n_qubits, schedule.dt) for ck in schedule.chunks)


def evolve_states(states: np.ndarray, schedule: Schedule, method: str = "exact") -> np.ndarray:
    """Evolve a (dim,) state or a (batch, dim) stack of states.

    The stack is evolved as one C-ordered ``(2**n, batch)`` array.
    ``chunked`` streams each chunk's phase vector and its single-qubit
    layer as a few Kronecker blocks through the gate kernel's runner,
    without building any 2^N matrix. ``exact`` multiplies by the cached
    dense chunk propagators, on every schedule, and so refuses more than
    10 qubits; a schedule of uniform chunks evolves without them in its
    total-spin sectors (:func:`evolve_pair_dicke`, :func:`sector_trotter_error`).
    """
    arr = np.asarray(states, dtype=complex)
    single = arr.ndim == 1
    batch = arr[np.newaxis, :] if single else arr
    n = schedule.n_qubits
    if batch.shape[1] != 2**n:
        raise ValueError(f"state dimension {batch.shape[1]} does not match {n} qubits")
    columns = np.ascontiguousarray(batch.T)
    if method == "chunked":
        columns = _run_steps(columns, _chunked_steps(schedule.chunks, n, schedule.dt))
    else:  # chunk_propagators refuses an unknown method
        for u in chunk_propagators(schedule, method):
            columns = u @ columns
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
