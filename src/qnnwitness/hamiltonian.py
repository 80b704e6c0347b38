"""Pairwise-coupled transverse-field Hamiltonians and their propagators.

The model is ``H = sum_q (K_q X_q + eps_q Z_q) + sum_{i<j} zeta_ij Z_i Z_j``
with all-to-all coupling, piecewise constant in time: a Schedule splits the
total evolution time into equal chunks, each with its own parameter set.
All quantities are dimensionless with hbar = 1.

Two propagation methods are provided. ``exact`` exponentiates the full
Hamiltonian of each chunk: under a schedule of uniform chunks in its
total-spin sectors, whose blocks are at most n + 1 square, and otherwise
as a dense 2^n x 2^n propagator per chunk. ``chunked`` splits each chunk
into the product of its single-qubit and pair exponentials, which is a
first-order approximation because the transverse terms do not commute
with the couplings. Within a chunk the pair factors act first, then the
single-qubit factors in ascending qubit order; chunks apply in
chronological order. The gate compiler reproduces exactly this ordering,
so ``chunked`` and compiled circuits agree to round-off.

States are dense ``2**n`` vectors, or, under a schedule of uniform chunks,
coordinates in the ``4(n-1)``-dimensional pair (x) Dicke space: a state
whose qubits 2..n-1 are permutation symmetric stays there, and both
methods run on O(n) real arrays built once per n; nothing 4(n-1)-square
is kept between calls. Callers supply those coordinates directly. Adjoint
gradients run only there and return each chunk's shared (tunneling, bias,
coupling) partials; dense states are evolved but never differentiated.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import combinations
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .core import DEFAULT_UNITARY_CAP, DENSE_BYTES_BUDGET, PARITY_CACHE, PAULI_X, PAULI_Z, DimensionError
from .core import _apply_block, _blocks, _kron, _run_steps, qubit_pairs, require_dense, require_square, z_diagonal


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
    diag = np.asarray(params.coupling) @ _pair_parities(n)
    for q in range(n):
        h[rows, rows ^ (1 << (n - 1 - q))] = params.tunneling[q]
        diag += params.bias[q] * z_diagonal(n, q)
    h[rows, rows] = diag
    return h


@lru_cache(maxsize=DENSE_BYTES_BUDGET // (16 * 4**DEFAULT_UNITARY_CAP))
def exact_chunk_propagator(params: ChunkParams, n: int, dt: float) -> np.ndarray:
    """``exp(-i H dt)`` by eigendecomposition of the real symmetric chunk Hamiltonian.

    The cache keeps the 8 most recent propagators for the exact evolution
    of schedules with a non-uniform chunk, and for ``chunk_propagators``,
    the dense reference of every exact path. Its bound follows from the
    10-qubit cap that ``build_hamiltonian`` enforces: 8 propagators of
    16 MiB fill the 128 MiB dense budget, and at n = 7 they take 2 MiB.
    A schedule of uniform chunks evolves in its total-spin sectors (see
    :func:`evolve_states`) and training in the pair (x) Dicke space;
    neither calls it.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    h = build_hamiltonian(params, n)
    eigvals, eigvecs = np.linalg.eigh(h)
    # V exp(-i lambda dt) V^T as two real products
    u = (eigvecs * np.cos(eigvals * dt)) @ eigvecs.T - 1j * ((eigvecs * np.sin(eigvals * dt)) @ eigvecs.T)
    u.flags.writeable = False
    return u


def _single_qubit_factor(tunneling: float, bias: float, dt: float) -> np.ndarray:
    """``exp(-i dt (K X + eps Z))`` in closed form."""
    magnitude = math.hypot(tunneling, bias)
    c = math.cos(dt * magnitude)
    s = math.sin(dt * magnitude) / magnitude if magnitude else dt
    off = complex(0.0, -s * tunneling)
    return np.array([[complex(c, -s * bias), off], [off, complex(c, s * bias)]])


def _single_qubit_factor_partials(tunneling: float, bias: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of :func:`_single_qubit_factor` by ``tunneling`` and by ``bias``.

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
    generator = np.array([[bias, tunneling], [tunneling, -bias]])
    d_tunneling = -dt * tunneling * s * np.eye(2) - 1j * (tunneling * f * generator + s * PAULI_X)
    d_bias = -dt * bias * s * np.eye(2) - 1j * (bias * f * generator + s * PAULI_Z)
    return d_tunneling, d_bias


@PARITY_CACHE  # each entry up to 128 MiB
def _pair_parities(n: int) -> np.ndarray:
    """``(C(n, 2), 2**n)`` array of the ``Z_i Z_j`` diagonals in ``qubit_pairs`` order."""
    require_dense(n, n * (n - 1) // 2, itemsize=8)
    out = np.empty((n * (n - 1) // 2, 2**n))
    for row, (i, j) in zip(out, qubit_pairs(n)):  # filled in place: no list of rows beside the table
        np.multiply(z_diagonal(n, i), z_diagonal(n, j), out=row)
    out.flags.writeable = False
    return out


def _chunked_steps(chunks: tuple[ChunkParams, ...], n: int, dt: float):
    """Each chunk's split-operator steps, built as they are read: its ZZ
    phase vector, then its single-qubit layer as the Kronecker blocks of
    :func:`qnnwitness.core._blocks`."""
    blocks = _blocks(n)
    for ck in chunks:
        yield np.exp(-1j * dt * (np.asarray(ck.coupling) @ _pair_parities(n)))  # every exp(-i dt zeta_ij Z_i Z_j)
        # a symmetric chunk has one distinct (K, eps), so one factor
        factors = {key: _single_qubit_factor(*key, dt) for key in set(zip(ck.tunneling, ck.bias))}
        layer = [factors[key] for key in zip(ck.tunneling, ck.bias)]
        for q, k in blocks:
            yield _kron(layer[q : q + k]), q


# --- pair (x) Dicke space -----------------------------------------------
#
# A uniform chunk commutes with every permutation of the spectators (qubits
# 2..n-1), so a state that is symmetric in them stays so. Such a state has
# coordinates on |p> (x) |D_w>, with p = 2 b_0 + b_1 the bits of qubits 0
# and 1 and |D_w> the normalized sum of the C(m, w) spectator strings with w
# ones, m = n - 2: 4(n-1) coordinates, p-major, so qubits 0 and 1 stay the
# two leading bits of the index. There the spectators' X and Z sums are the
# collective S_x (tridiagonal, <D_{w+1}|S_x|D_w> = sqrt((w+1)(m-w))) and
# S_z = diag(m - 2w), and their ZZ sum is (S_z^2 - m)/2: the
# permutation-symmetric reduction of PIQS (Shammah et al., arXiv:1805.05129).


class PairDicke(NamedTuple):
    """Real operators of the pair (x) Dicke space of n qubits, m = n - 2: O(n) entries."""

    bias: np.ndarray  # diagonal of Z_0 + Z_1 + S_z
    coupling: np.ndarray  # diagonal of sum_{i<j} Z_i Z_j = Z_0 Z_1 + (Z_0 + Z_1) S_z + (S_z^2 - m)/2
    readout: np.ndarray  # diagonal of Z_0 Z_1
    spin_x: np.ndarray  # <D_{w+1}|S_x|D_w> = sqrt((w+1)(m-w)), the m entries beside the Dicke block's diagonal
    spin_z: np.ndarray  # diagonal of S_z on the Dicke block
    transverse_at: np.ndarray  # flat positions of X_0 + X_1 + S_x's nonzero entries in the 4(n-1)-square matrix
    transverse: np.ndarray  # the entries there: 1 for the block swaps, spin_x on the Dicke ladder

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for array in self)


@PARITY_CACHE
def pair_dicke_operators(n: int) -> PairDicke:
    """The pair (x) Dicke space's diagonals and its sparse X_0 + X_1 + S_x,
    built once per n: 14 (n - 1) - 1 floats and 16 (n - 1) - 8 positions and values."""
    if n < 2:
        raise ValueError("the pair (x) Dicke space needs at least 2 qubits")
    m = n - 2
    w = np.arange(m + 1.0)
    spin_z = m - 2 * w
    spin_x = np.sqrt(w[1:] * (m - w[:-1]))
    z0, z1 = np.repeat([1.0, 1.0, -1.0, -1.0], m + 1), np.repeat([1.0, -1.0, 1.0, -1.0], m + 1)
    sz = np.tile(spin_z, 4)
    # X_0 and X_1 swap the blocks p and p ^ 2, p and p ^ 1; S_x links w and w + 1 in each block
    index, p = np.arange(4 * (m + 1)).reshape(4, m + 1), np.arange(4)
    rows = np.concatenate([index, index, index[:, 1:], index[:, :-1]], axis=None)
    cols = np.concatenate([index[p ^ 1], index[p ^ 2], index[:, :-1], index[:, 1:]], axis=None)
    ops = PairDicke(
        bias=z0 + z1 + sz,
        coupling=z0 * z1 + (z0 + z1) * sz + (sz * sz - m) / 2,
        readout=z0 * z1,
        spin_x=spin_x,
        spin_z=spin_z,
        transverse_at=rows * (4 * (m + 1)) + cols,
        transverse=np.concatenate([np.ones(8 * (m + 1)), np.tile(spin_x, 8)]),
    )
    for array in ops:
        array.flags.writeable = False
    return ops


def pair_dicke_hamiltonian(params: ChunkParams, n: int) -> np.ndarray:
    """A uniform chunk's Hamiltonian on the pair (x) Dicke space: real symmetric, 4(n-1) square."""
    if params.n_qubits != n:
        raise ValueError(f"parameters are sized for {params.n_qubits} qubits, not {n}")
    tunneling, bias, coupling = params.shared
    ops = pair_dicke_operators(n)
    h = np.zeros((len(ops.bias),) * 2)
    h.flat[ops.transverse_at] = tunneling * ops.transverse
    h.flat[:: len(h) + 1] = bias * ops.bias + coupling * ops.coupling
    return h


def _pair_dicke_factors(params: ChunkParams, ops: PairDicke, dt: float):
    """One chunk's split-operator factors in the pair (x) Dicke space: the
    ZZ phase diagonal, the shared 2x2 factor and its m-fold symmetric power
    on the Dicke block (None when m = 0, where the block is a scalar)."""
    tunneling, bias, coupling = params.shared
    phases = np.exp(-1j * dt * coupling * ops.coupling)
    factor = _single_qubit_factor(tunneling, bias, dt)
    if len(ops.spin_z) == 1:
        return phases, factor, None
    # the factor's power on symmetric spectators is exp(-i dt (K S_x + eps S_z));
    # an eigh of that real tridiagonal generator keeps full precision at any
    # m, where expanding the power binomially cancels terms of size 2^(m/2)
    generator = np.diag(bias * ops.spin_z)  # eigh reads its lower triangle alone
    generator.flat[len(generator) :: len(generator) + 1] = tunneling * ops.spin_x
    eigvals, eigvecs = np.linalg.eigh(generator)
    del generator  # not held through the power's complex products
    return phases, factor, (eigvecs * np.exp(-1j * dt * eigvals)) @ eigvecs.T


def _pair_dicke_chunk(columns: np.ndarray, factors) -> np.ndarray:
    """Evolve ``(4(n-1), batch)`` pair (x) Dicke columns through one split-operator chunk."""
    phases, factor, power = factors
    columns = _apply_block(columns * phases[:, np.newaxis], _kron([factor, factor]), 0)
    if power is None:
        return columns
    return np.matmul(power, columns.reshape(4, len(power), -1)).reshape(columns.shape)


# --- adjoint gradients --------------------------------------------------
#
# A backward step takes the pair (x) Dicke columns [states | co-states] just
# after one chunk, returns them just before it, and reads the partials
# 2 Re <lam| dU U^dagger |psi> of the chunk's shared tunneling, bias and
# coupling on the way.


def _qubit_overlap(both: np.ndarray, q: int) -> np.ndarray:
    """2x2 ``R[a, b] = sum conj(lam) psi`` over the entries where qubit ``q``
    is ``a`` in ``lam`` and ``b`` in ``psi``, so ``sum(G * R) = <lam| G_q |psi>``."""
    batch = both.shape[1] // 2
    split = both.reshape(2**q, 2, -1, 2, batch)  # (.., qubit q, .., psi | lam, batch)
    return np.einsum("iajk,ibjk->ab", split[..., 1, :].conj(), split[..., 0, :])


def _pair_dicke_backward_step(
    both: np.ndarray, params: ChunkParams, factors, ops: PairDicke, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Undo one split-operator chunk in the pair (x) Dicke space.

    The factors of a chunk's single-qubit layer commute, so the shared K
    (or eps) partial is ``2 Re <lam| sum_q (dU U^dagger)_q |psi>`` read at
    the chunk's end: ``sum(G * R)`` with ``R`` the 2x2 overlaps of qubits 0
    and 1 plus the spectators' collective one. On the Dicke block
    ``sum_q |a><b|_q`` is ``N_0 = (m + S_z)/2`` or ``N_1 = (m - S_z)/2`` on
    the diagonal and the half of ``S_x`` that raises or lowers w off it.
    """
    batch = both.shape[1] // 2
    phases, factor, power = factors
    tunneling, bias, _ = params.shared
    inverse = factor.conj().T
    reduced = _qubit_overlap(both, 0) + _qubit_overlap(both, 1)
    if power is not None:
        blocks = both.reshape(4, len(power), 2, batch)
        lam, psi = blocks[:, :, 1].conj(), blocks[:, :, 0]
        along = np.sum(lam * psi, axis=(0, 2))
        m = len(power) - 1
        reduced = reduced + np.array([
            [(m + ops.spin_z) / 2 @ along, ops.spin_x @ np.sum(lam[:, :-1] * psi[:, 1:], axis=(0, 2))],
            [ops.spin_x @ np.sum(lam[:, 1:] * psi[:, :-1], axis=(0, 2)), (m - ops.spin_z) / 2 @ along],
        ])
        both = np.matmul(power.conj().T, both.reshape(4, len(power), -1)).reshape(both.shape)
    d_tunneling, d_bias = (d @ inverse for d in _single_qubit_factor_partials(tunneling, bias, dt))
    both = _apply_block(both, _kron([inverse, inverse]), 0)
    overlap = np.sum(both[:, batch:].conj() * both[:, :batch], axis=1)
    partials = np.array([
        2 * np.sum(d_tunneling * reduced).real,
        2 * np.sum(d_bias * reduced).real,
        2 * dt * (ops.coupling @ overlap.imag),
    ])
    return both * phases.conj()[:, np.newaxis], partials


def _exact_chunk(columns: np.ndarray, eigvals: np.ndarray, eigvecs: np.ndarray, dt: float) -> np.ndarray:
    """Evolve columns by ``exp(-i H dt)`` given ``H = V diag(eigvals) V^T``."""
    return eigvecs @ (np.exp(-1j * dt * eigvals)[:, np.newaxis] * (eigvecs.T @ columns))


def _exact_backward_step(
    both: np.ndarray, eigvals: np.ndarray, eigvecs: np.ndarray, dt: float, ops: PairDicke
) -> tuple[np.ndarray, np.ndarray]:
    """Undo one ``exp(-i H dt)`` given ``H = V diag(eigvals) V^T``.

    By the Daleckii-Krein formula ``dU = V (Phi o V^T dH V) V^T`` with
    ``Phi_jk = -i dt exp(-i dt (l_j + l_k)/2) sinc(dt (l_j - l_k)/2)`` and
    ``sinc x = sin x / x``, which needs no branch for degenerate
    eigenvalues. So every partial is ``2 sum_xy dH_xy Re M_xy`` with
    ``M = V (Phi o S) V^T`` and ``S_jk = sum_b conj(V^T lam)_j (V^T psi_before)_k``.
    """
    batch = both.shape[1] // 2
    backward = np.exp(1j * dt * eigvals)[:, np.newaxis]
    coords = eigvecs.T @ both
    coords[:, :batch] *= backward  # states before the chunk
    phases = dt * eigvals
    half_phase = np.exp(-0.5j * phases)[:, np.newaxis]
    lam, psi = coords[:, batch:].conj() * half_phase, coords[:, :batch] * half_phase
    coords[:, batch:] *= backward
    before = eigvecs @ coords  # evolved back before any square working array exists
    # Re(Phi o S) = dt sinc o Im(e o S) with the rank-one e_jk = exp(-i dt (l_j + l_k)/2),
    # and Im(a b^T) = Im a Re b^T + Re a Im b^T is one real product
    x = np.subtract.outer(phases / 2, phases / 2)
    zero = x == 0
    x[zero] = 1.0
    weights = np.sin(x)
    weights /= x  # sin x / x before the product: the product divided by a subnormal x overflows
    weights[zero] = 1.0  # the limit of sin x / x at 0
    del x, zero
    weights *= np.hstack((lam.imag, lam.real)) @ np.hstack((psi.real, psi.imag)).T
    # V is real, so Re M = V Re(Phi o S) V^T; dt and 2 multiply the three partials
    re_m = eigvecs @ weights
    del weights
    re_m = re_m @ eigvecs.T
    diagonal = re_m.diagonal()
    partials = 2 * dt * np.array([
        ops.transverse @ re_m.flat[ops.transverse_at],
        ops.bias @ diagonal,
        ops.coupling @ diagonal,
    ])
    return before, partials


def _chunk_sweeps(schedule: Schedule, method: str) -> list[tuple]:
    """Per chunk, in chronological order, its forward map of pair (x) Dicke
    columns and its backward step. An exact chunk's one eigendecomposition
    serves both. The one size rule of the pair (x) Dicke path refuses them,
    before anything is built, if what each chunk holds and the working
    arrays of building the last one would pass the dense budget."""
    n, dt, count = schedule.n_qubits, schedule.dt, schedule.n_chunks
    k = n - 1
    if method == "chunked":  # a complex k-square power and 4k phases; the power's eigenvectors and two complex copies
        held, building = 16 * k * k + 64 * k, 40 * k * k
    elif method == "exact":  # 4k-square eigenvectors; to build the last, the chunk matrix, eigh's copy and
        # 2 (4k)^2 workspace, and one to spare: an evolve or backward step later holds at most 2.2 (4k)^2
        held, building = 128 * k * k + 32 * k, 640 * k * k
    else:
        raise ValueError(f"unknown propagation method {method!r}")
    # 2 KiB of Python objects per chunk; 1 KiB per k for the operators and the columns of 4 states and 4 co-states
    nbytes = count * (held + 2048) + building + 1024 * k
    if nbytes > DENSE_BYTES_BUDGET:
        raise DimensionError(f"refusing {nbytes} bytes of {method} sweeps for {n} qubits and {count} chunks "
                             f"(budget {DENSE_BYTES_BUDGET} bytes)")
    ops = pair_dicke_operators(n)
    sweeps = []
    for ck in schedule.chunks:
        if method == "chunked":
            factors = _pair_dicke_factors(ck, ops, dt)
            sweeps.append((
                partial(_pair_dicke_chunk, factors=factors),
                partial(_pair_dicke_backward_step, params=ck, factors=factors, ops=ops, dt=dt),
            ))
        else:
            eigvals, eigvecs = np.linalg.eigh(pair_dicke_hamiltonian(ck, n))
            sweeps.append((
                partial(_exact_chunk, eigvals=eigvals, eigvecs=eigvecs, dt=dt),
                partial(_exact_backward_step, eigvals=eigvals, eigvecs=eigvecs, dt=dt, ops=ops),
            ))
    return sweeps


def evolve_pair_dicke(coords: np.ndarray, schedule: Schedule, method: str = "exact") -> np.ndarray:
    """Evolve a ``(batch, 4(n-1))`` stack of pair (x) Dicke coordinates
    through a schedule of uniform chunks; the result matches the dense
    :func:`evolve_states` of the embedded states to round-off."""
    columns = np.asarray(coords, dtype=complex).T
    if columns.shape[0] != 4 * (schedule.n_qubits - 1):
        raise ValueError(f"{columns.shape[0]} coordinates do not match {schedule.n_qubits} qubits")
    for forward, _ in _chunk_sweeps(schedule, method):
        columns = forward(columns)
    return columns.T


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
    kept). Returns ``(n_chunks, 3)`` partials: per chunk, the shared
    tunneling, bias and coupling.
    """
    require_differentiable(schedule)
    sweeps = _chunk_sweeps(schedule, method)
    finals = np.asarray(coords, dtype=complex).T
    for forward, _ in sweeps:
        finals = forward(finals)
    both = np.concatenate((finals, np.asarray(costate(finals.T), dtype=complex).T), axis=1)
    out = []
    for _, backward in reversed(sweeps):
        both, partials = backward(both)
        out.append(partials)
    return np.array(out[::-1])


# --- total-spin sectors -------------------------------------------------
#
# With J = sum_q sigma_q / 2 the collective spin, a uniform chunk's
# Hamiltonian is K 2J_x + eps 2J_z + zeta (4J_z^2 - n)/2: the
# Lipkin-Meshkov-Glick model (Nucl. Phys. 62, 188 (1965)). It commutes with
# every qubit permutation, so in the coupled basis |J, M, a> it is one
# tridiagonal (2J+1)-square block per J, the same on each of the
# C(n, k) - C(n, k-1) copies a of the sector J = n/2 - k. A computational
# state of Hamming weight w has M = n/2 - w, so the change of basis is one
# real orthogonal C(n, w)-square block per weight.


class SpinSectors(NamedTuple):
    """The coupled basis of n qubits, one entry per Hamming weight w = 0..n.

    Column ``i`` of ``blocks[w]`` is a state |J, M = n/2 - w, a> over the
    computational states ``indices[w]`` (ascending), with k = n/2 - J
    ascending, then a; ``positions[w][i]`` is its row in the sector-major
    order, where sector k = 0, 1, .. is a C-ordered ``(2J+1, copies)`` slab
    with M from J down to -J.
    """

    indices: tuple[np.ndarray, ...]
    positions: tuple[np.ndarray, ...]
    blocks: tuple[np.ndarray, ...]

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for part in self for array in part)


def _sector_copies(n: int, k: int) -> int:
    """The number of copies of the sector J = n/2 - k, k <= n/2."""
    return math.comb(n, k) - (math.comb(n, k - 1) if k else 0)


@PARITY_CACHE
def spin_sectors(n: int) -> SpinSectors:
    """The coupled (total-spin) basis of n qubits, built once per n: C(2n, n)
    floats, 1.5 MB at n = 10, the 10-qubit cap of the dense path it replaces.

    The highest-weight states of J = n/2 - k are the null space of the
    raising map J_+ from weight k to k - 1. J_- lowers each of them one
    weight at a time, divided by ``sqrt((J+M)(J-M+1))`` at each step, so
    that J_- has the positive entries :func:`spin_sector_hamiltonian`
    puts beside the diagonal.
    """
    require_square(n)
    index = np.arange(2**n)
    weight = sum((index >> q) & 1 for q in range(n))
    indices = [np.flatnonzero(weight == w) for w in range(n + 1)]
    position = np.empty(2**n, dtype=np.intp)
    for rows in indices:
        position[rows] = np.arange(len(rows))
    lowerings = []  # J_- from weight w to w + 1, C(n, w+1) x C(n, w)
    for w in range(n):
        lowering = np.zeros((len(indices[w + 1]), len(indices[w])))
        for q in range(n):
            source = indices[w][(indices[w] >> q) & 1 == 0]
            lowering[position[source | 1 << q], position[source]] = 1.0
        lowerings.append(lowering)
    columns: list[list[np.ndarray]] = [[] for _ in range(n + 1)]
    positions: list[list[np.ndarray]] = [[] for _ in range(n + 1)]
    offset = 0
    for k in range(n // 2 + 1):
        copies = _sector_copies(n, k)
        # J_+ maps weight k onto weight k - 1: the rows of vt past its C(n, k-1) singular values span its null space
        states = np.linalg.svd(lowerings[k - 1].T)[2][-copies:].T if k else np.ones((1, 1))
        for w in range(k, n - k + 1):
            columns[w].append(states)
            positions[w].append(offset + (w - k) * copies + np.arange(copies))
            if w < n - k:
                twice_j, twice_m = n - 2 * k, n - 2 * w
                states = lowerings[w] @ states / (0.5 * math.sqrt((twice_j + twice_m) * (twice_j - twice_m + 2)))
        offset += (n - 2 * k + 1) * copies
    basis = SpinSectors(tuple(indices), tuple(map(np.concatenate, positions)), tuple(map(np.hstack, columns)))
    for part in basis:
        for array in part:
            array.flags.writeable = False
    return basis


def spin_sector_hamiltonian(shared, n: int, spins) -> np.ndarray:
    """The Hamiltonian of a uniform n-qubit chunk on the total-spin sectors
    ``spins``, block diagonal in their order, each block in the |J, M>
    basis with M from J down to -J.

    ``shared`` is the chunk's ``(K, eps, zeta)``, or a ``(..., 3)`` stack of
    them for a stack of blocks. A block is real symmetric tridiagonal:
    ``2 eps M + zeta (4 M^2 - n)/2`` on the diagonal and ``K
    sqrt((J+M)(J-M+1))`` beside it. Each J must leave n/2 - J a whole
    number from 0 to n/2.
    """
    twice = [2 * j for j in spins]
    if any(t != round(t) or not 0 <= t <= n or (n - t) % 2 for t in twice):
        raise ValueError(f"total spins {tuple(spins)} are not sectors of {n} qubits")
    # per row |J, M>: the bias and coupling terms 2M and (4M^2 - n)/2, and <J, M|J_+|J, M-1>
    # to the next row, which vanishes from M = -J into the next block
    twice_m, quadratic, ladder = np.array([
        (2 * m, (4 * m * m - n) / 2, math.sqrt((t / 2 + m) * (t / 2 - m + 1)))
        for t in twice for m in (t / 2 - r for r in range(round(t) + 1))
    ]).T
    shared = np.asarray(shared, dtype=float)
    tunneling, bias, coupling = shared[..., 0, np.newaxis], shared[..., 1, np.newaxis], shared[..., 2, np.newaxis]
    size = len(ladder)
    h = np.zeros(shared.shape[:-1] + (size * size,))  # row-major: (r, r) is entry r (size + 1)
    h[..., :: size + 1] = bias * twice_m + coupling * quadratic
    h[..., 1 :: size + 1] = h[..., size :: size + 1] = tunneling * ladder[:-1]  # (r, r + 1) and (r + 1, r)
    return h.reshape(shared.shape[:-1] + (size, size))


def _evolve_sectors(columns: np.ndarray, schedule: Schedule) -> np.ndarray:
    """``exp(-i H dt)`` chunk by chunk on C-ordered ``(2**n, batch)`` columns,
    for a schedule of uniform chunks, in its total-spin sectors: one batched
    eigendecomposition of the chunks' blocks, their product in that reduced
    space, then one change of basis there and back."""
    n = schedule.n_qubits
    basis = spin_sectors(n)
    spins = [n / 2 - k for k in range(n // 2 + 1)]
    eigvals, eigvecs = np.linalg.eigh(spin_sector_hamiltonian([ck.shared for ck in schedule.chunks], n, spins))
    unitaries = (eigvecs * np.exp(-1j * schedule.dt * eigvals)[:, np.newaxis, :]) @ eigvecs.transpose(0, 2, 1)
    product = unitaries[0]
    for u in unitaries[1:]:
        product = u @ product
    # the basis is real: change it on the real and imaginary parts at once
    real = columns.view(float)
    coupled = np.empty_like(real)
    for rows, at, block in zip(*basis):
        coupled[at] = block.T @ real[rows]
    coupled = coupled.view(complex)
    start = low = 0  # the sector's first row in the coupled columns and in the product
    for k in range(len(spins)):
        dim = n - 2 * k + 1
        stop = start + dim * _sector_copies(n, k)
        sector = product[low : low + dim, low : low + dim]
        coupled[start:stop] = (sector @ coupled[start:stop].reshape(dim, -1)).reshape(stop - start, -1)
        start, low = stop, low + dim
    real = coupled.view(float)
    out = np.empty_like(real)
    for rows, at, block in zip(*basis):
        out[rows] = block @ real[at]
    return out.view(complex)


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
    without building any 2^N matrix. ``exact`` on a schedule of uniform chunks (the
    ``Schedule.symmetric`` test) works in the total-spin sectors: one
    eigendecomposition of at most (n+1)-square blocks per chunk and a
    change to the coupled basis (:func:`spin_sectors`) and back, with no
    2^N matrix. On any other schedule it multiplies by cached dense chunk
    propagators. Both exact paths refuse more than 10 qubits.
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
    elif method == "exact" and schedule.symmetric:
        columns = _evolve_sectors(columns, schedule)
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
    pairs = qubit_pairs(schedule.n_qubits)
    doc = {
        "n_qubits": schedule.n_qubits,
        "total_time": schedule.total_time,
        "symmetric": schedule.symmetric,
        "chunks": [
            {
                "K": list(ck.tunneling),
                "eps": list(ck.bias),
                "zeta": {f"{i},{j}": ck.coupling[idx] for idx, (i, j) in enumerate(pairs)},
            }
            for ck in schedule.chunks
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


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
    # every size is checked against n before the C(n, 2) pairs are built, so
    # that refusing a document takes time in proportion to its length
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
            # every pair before the first missing one is in seen
            i, j = next(pair for pair in combinations(range(n), 2) if pair not in seen)
            raise ScheduleFormatError(f"zeta is missing pair '{i},{j}' in chunk {pos}")
        for key in ("K", "eps"):
            if isinstance(raw[key], list) and len(raw[key]) != n:
                raise ScheduleFormatError(f"'{key}' in chunk {pos} has {len(raw[key])} entries for {n} qubits")
    pairs = qubit_pairs(n)
    chunks = []
    for pos, raw in enumerate(doc["chunks"]):
        coupling = tuple(_json_number(raw["zeta"][f"{i},{j}"], f"zeta pair '{i},{j}' in chunk {pos}") for i, j in pairs)
        tunneling = _json_numbers(raw["K"], f"'K' in chunk {pos}")
        bias = _json_numbers(raw["eps"], f"'eps' in chunk {pos}")
        try:  # finite entries can still sum past the largest float
            chunks.append(ChunkParams(tunneling, bias, coupling))
        except (TypeError, ValueError) as exc:
            raise ScheduleFormatError(f"bad chunk {pos}: {exc}") from exc
    symmetric = doc.get("symmetric", False)
    if not isinstance(symmetric, bool):
        raise ScheduleFormatError(f"'symmetric' must be true or false, got {symmetric!r}")
    try:
        schedule = Schedule(n_qubits=n, total_time=total_time, chunks=tuple(chunks))
    except (TypeError, ValueError) as exc:
        raise ScheduleFormatError(str(exc)) from exc
    if symmetric and not schedule.symmetric:
        raise ScheduleFormatError("'symmetric' is true but the chunk parameters are not uniform")
    return schedule


def load_schedule(path: str | Path) -> Schedule:
    return schedule_from_json(Path(path).read_text())


def save_schedule(schedule: Schedule, path: str | Path) -> None:
    Path(path).write_text(schedule_to_json(schedule))
