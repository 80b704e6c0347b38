"""Independent numerical oracles used across the test suite.

These deliberately avoid the code paths they check: matrix exponentials
come from an eigendecomposition or a scaled Taylor series rather than
the package's closed forms, gate embeddings are built as dense
2^n x 2^n Kronecker products rather than block updates, a run of shots draws
one basis state per shot rather than one binomial count, a state's norm and
<Z_i Z_j> are two passes over its squared parts rather than one product with
a cached read-out, a run's stream is keyed from the stdlib's ``hashlib`` and
``struct`` through Philox's own ``key`` argument rather than the sampler's
packing, masking and key adapter, gradients
come from finite differences of the loss, or from tangents carried
forward through dense 2^n states, rather than an adjoint sweep, and the
verification report comes from full unitaries and density matrices
rather than evolved blocks of basis rows, the dense kernels' Kronecker
blocks are checked against one 2x2 per gate or qubit, and the pair (x)
Dicke Hamiltonian is summed from its matrix elements rather than from
the Clebsch-Gordan change of basis, a ``chunked`` sector block's
single-qubit layer is exponentiated by ``eigh`` rather than built from
Wigner's d-matrix, and the N -> infinity limit of the ``chunked`` witness
is one mean-field 2x2 propagator rather than a sweep of the sectors. A call counter lets
tests pin how often a kernel runs. Two references are not independent but
pin arithmetic: :func:`run_circuit_unfused` regroups a gate list, its
blocks included, on every call, where the gate kernel keeps its fused
steps on the circuit, and :func:`wigner_basis_apart` builds each J_x
eigenbasis block in an array of its own and normalises it into another.
"""

from __future__ import annotations

import math
import struct
from functools import reduce
from hashlib import blake2b

import numpy as np

from qnnwitness import core
from qnnwitness.compiler import compile_schedule
from qnnwitness.core import GateKind, GateOp, check_norm, circuit_unitary, density_matrix, frobenius_distance
from qnnwitness.core import bounded_zz, n_qubits_of
from qnnwitness.hamiltonian import ChunkParams, Schedule, evolve_states, sector_terms, spin_sector_hamiltonian
from qnnwitness.witness import PairStateKind, make_pair_state

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def basis_state(n: int, index: int = 0) -> np.ndarray:
    """Computational basis state |index> of an n-qubit register."""
    state = np.zeros(2**n, dtype=complex)
    state[index] = 1.0
    return state


def is_unitary(m: np.ndarray, tol: float = 1e-12) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]))) < tol


def expm_eigh(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(-i h t) for Hermitian h via eigendecomposition."""
    eigvals, eigvecs = np.linalg.eigh(h)
    return (eigvecs * np.exp(-1j * eigvals * t)) @ eigvecs.conj().T


def expm_taylor(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(-i h t) by scaling-and-squaring with a Taylor series."""
    a = -1j * t * np.asarray(h, dtype=complex)
    norm = np.linalg.norm(a)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1)
    a = a / (2**squarings)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 40):
        term = term @ a / k
        out = out + term
        if np.linalg.norm(term) < 1e-18:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def embed_gate_dense(op: GateOp, n: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix of one gate (Kronecker-product oracle)."""
    if op.kind is GateKind.CNOT:
        dim = 2**n
        m = np.zeros((dim, dim), dtype=complex)
        for basis in range(dim):
            c_bit = (basis >> (n - 1 - op.control)) & 1
            out = basis ^ (c_bit << (n - 1 - op.target))
            m[out, basis] = 1.0
        return m
    pauli = {GateKind.ROT_X: PAULI_X, GateKind.ROT_Y: PAULI_Y, GateKind.ROT_Z: PAULI_Z}[op.kind]
    mats = [IDENTITY_2] * n
    mats[op.target] = expm_eigh(pauli, op.angle / 2)
    return reduce(np.kron, mats)


def circuit_unitary_dense(ops, n: int) -> np.ndarray:
    """Oracle circuit unitary: product of dense embedded gates."""
    u = np.eye(2**n, dtype=complex)
    for op in ops:
        u = embed_gate_dense(op, n) @ u
    return u


def z_diagonal(n: int, q: int) -> np.ndarray:
    """Diagonal of Z on qubit q as a length-2^n array of +-1, from the index bits."""
    if not 0 <= q < n:
        raise ValueError(f"qubit index {q} out of range for {n} qubits")
    return 1.0 - 2.0 * ((np.arange(2**n) >> (n - 1 - q)) & 1)


def zz_moments_reference(state: np.ndarray, i: int, j: int) -> tuple[float, float]:
    """A state's sum of squared moduli and unclamped <Z_i Z_j> in two passes over
    its squared real and imaginary parts, side by side: their sum, then their
    dot product with the +-1 of Z_i Z_j written twice. Refuses what
    ``expectation_zz`` refuses, with the same messages."""
    if i == j:
        raise ValueError("expectation_zz needs two distinct qubits")
    arr = np.asarray(state)
    if arr.ndim != 1:
        raise ValueError("expected a state vector")
    n = n_qubits_of(arr)
    for q in (i, j):
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")
    parts = np.ascontiguousarray(arr, dtype=np.complex128).view(np.float64)
    squares, parity = parts * parts, np.repeat(z_diagonal(n, i) * z_diagonal(n, j), 2)
    return float(squares.sum()), float(np.dot(squares, parity))


def sample_zz_mean_reference(
    final_state: np.ndarray, pair: tuple[int, int], n_shots: int, rng: np.random.Generator
) -> float:
    """Unsquared estimator: mean parity of n_shots from one binomial count, the
    state read in two passes (:func:`zz_moments_reference`)."""
    if n_shots < 1:
        raise ValueError("n_shots must be positive")
    norm_sq, zz = zz_moments_reference(final_state, *pair)
    check_norm(norm_sq)
    k = rng.binomial(n_shots, (1.0 + bounded_zz(zz)) / 2.0)
    return (2 * int(k) - n_shots) / n_shots


def sample_zz_mean_per_shot(
    final_state: np.ndarray, pair: tuple[int, int], n_shots: int, rng: np.random.Generator
) -> float:
    """Unsquared estimator: mean parity over n_shots basis-state samples (inverse CDF)."""
    if n_shots < 1:
        raise ValueError("n_shots must be positive")
    check_norm(float(np.vdot(final_state, final_state).real))
    n = n_qubits_of(final_state)
    probs = np.abs(final_state) ** 2
    parity = z_diagonal(n, pair[0]) * z_diagonal(n, pair[1])
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0  # guard the top edge against rounding
    draws = np.searchsorted(cdf, rng.random(n_shots), side="right")
    return float(np.mean(parity[draws]))


def rng_stream_reference(seed: int, shot_count: int, iteration: int) -> np.random.Generator:
    """The Philox stream of one (seed, shot_count, iteration) cell: its key the
    16-byte BLAKE2b digest of the three values, each mod 2**64 and packed as
    little-endian uint64 words, read as one little-endian 128-bit integer."""
    cell = struct.pack("<3Q", seed % 2**64, shot_count % 2**64, iteration % 2**64)
    key = int.from_bytes(blake2b(cell, digest_size=16).digest(), "little")
    return np.random.Generator(np.random.Philox(key=key))


def central_difference_gradient(loss, params: np.ndarray, indices=None, h: float = 1e-4) -> np.ndarray:
    """Fourth-order central differences of ``loss`` at ``params``:
    ``(f(x-2h) - 8 f(x-h) + 8 f(x+h) - f(x+2h)) / 12h`` per coordinate.

    Truncation error is O(h^4), so at h = 1e-4 round-off (about 1e-12 of
    the loss) dominates. ``indices`` limits the coordinates evaluated.
    """
    out = []
    for index in range(len(params)) if indices is None else indices:
        values = []
        for step in (-2, -1, 1, 2):
            shifted = np.array(params, dtype=float)
            shifted[index] += step * h
            values.append(loss(shifted))
        out.append((values[0] - 8 * values[1] + 8 * values[2] - values[3]) / (12 * h))
    return np.array(out)


def _shared_generators(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense sum_q X_q, and the diagonals of sum_q Z_q and sum_{i<j} Z_i Z_j."""
    index = np.arange(2**n)
    z = 1 - 2 * ((index[:, np.newaxis] >> (n - 1 - np.arange(n))) & 1)
    transverse = np.zeros((2**n, 2**n))
    for q in range(n):
        transverse[index, index ^ (1 << (n - 1 - q))] += 1
    z_sum = z.sum(axis=1).astype(float)
    return transverse, z_sum, (z_sum**2 - n) / 2


def pair_dicke_hamiltonian(shared, n: int) -> np.ndarray:
    """A uniform chunk's ``(K, eps, zeta)`` Hamiltonian on the |p> (x) |D_w>,
    p-major, from its matrix elements: 4(n-1) square, with no 2^n array.
    X_0 and X_1 flip a bit of p; the spectators' sum of X takes |D_w> to
    ``sqrt((w+1)(m-w)) |D_{w+1}>`` and back, m = n - 2; on the diagonal, the
    pair's Z_0, Z_1 and the spectators' sum m - 2w of Z form every Z and ZZ."""
    tunneling, bias, coupling = shared
    m = n - 2
    spectators = m - 2.0 * np.arange(m + 1)
    pair = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])[:, :, np.newaxis]  # Z_0, Z_1 of p = 2 b_0 + b_1
    z_sum, zz = pair.sum(axis=1), pair.prod(axis=1)
    diagonal = bias * (z_sum + spectators) + coupling * (zz + z_sum * spectators + (spectators**2 - m) / 2)
    ladder = np.sqrt((np.arange(m) + 1.0) * (m - np.arange(m)))
    flips = np.zeros((4, 4))
    flips[range(4), [2, 3, 0, 1]] = flips[range(4), [1, 0, 3, 2]] = 1.0
    transverse = np.kron(flips, np.eye(m + 1)) + np.kron(np.eye(4), np.diag(ladder, 1) + np.diag(ladder, -1))
    return np.diag(diagonal.ravel()) + tunneling * transverse


def sector_layer_propagators(shared, n: int, blocks: int, dt: float) -> np.ndarray:
    """``exp(-i dt (K 2J_x + eps 2J_z))`` on each sector block J = n/2 - k, k < ``blocks``:
    the eigendecomposition of the uniform chunk's sector Hamiltonian with its
    coupling set to 0, ``V exp(-i lam dt) V^T``, stacked ``(blocks, n+1, n+1)``."""
    eigvals, eigvecs = np.linalg.eigh(spin_sector_hamiltonian((*shared[:2], 0.0), n, blocks))
    return (eigvecs * np.exp(-1j * dt * eigvals)[:, np.newaxis, :]) @ eigvecs.swapaxes(1, 2)


def kac_lifted(schedule: Schedule, n: int) -> Schedule:
    """A uniform schedule's shared values on n qubits, its coupling times
    (m - 1)/(n - 1) for its m qubits: the Kac scaling, which holds each
    qubit's summed coupling zeta (n - 1) fixed."""
    scale = schedule.n_qubits - 1
    chunks = tuple(ChunkParams.uniform(n, ck.tunneling[0], ck.bias[0], ck.coupling[0] * scale / (n - 1))
                   for ck in schedule.chunks)
    return Schedule(n, schedule.total_time, chunks)


def mean_field_witness(schedule, kac_coupling) -> np.ndarray:
    """The N -> infinity limit of the ``chunked`` witness of the four kinds,
    in PairStateKind order, on the pair (0, 1) with spectators in |0>, for
    the schedule's (K, eps) per chunk and a coupling ``kac_coupling[c] /
    (n - 1)``, the Kac scaling that holds ``g = zeta (n - 1)`` fixed.

    Every qubit then sees ``K X + (eps + g zbar) Z``, zbar the spectators'
    <Z>, and all share one 2x2 propagator U, so zbar = <0|U^dagger Z U|0>.
    ``chunked`` applies each chunk's ZZ phase first, during which zbar stands
    still, so per chunk ``U <- exp(-i dt (K X + eps Z)) exp(-i dt g zbar Z) U``
    in closed form; the pair's own coupling is O(1/n) and drops out. The
    witness is ``<psi|(U^dagger Z U) (x) (U^dagger Z U)|psi>^2``."""
    dt, u = schedule.dt, np.eye(2, dtype=complex)
    for chunk, g in zip(schedule.chunks, kac_coupling):
        zbar = (u.conj().T @ PAULI_Z @ u)[0, 0].real
        u = expm_eigh(chunk.tunneling[0] * PAULI_X + chunk.bias[0] * PAULI_Z, dt) @ expm_eigh(g * zbar * PAULI_Z, dt) @ u
    heisenberg = u.conj().T @ PAULI_Z @ u
    states = np.stack([make_pair_state(kind, (0, 1), 2) for kind in PairStateKind])
    return np.einsum("ki,ij,kj->k", states.conj(), np.kron(heisenberg, heisenberg), states).real ** 2


def _on_qubit(u: np.ndarray, states: np.ndarray, q: int, n: int) -> np.ndarray:
    """Apply the 2x2 ``u`` to qubit ``q`` of every ``2**n`` row of ``states``."""
    split = states.reshape(*states.shape[:-1], 2**q, 2, 2 ** (n - 1 - q))
    return np.einsum("ab,...ibj->...iaj", u, split).reshape(states.shape)


def _divided_differences(eigvals: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Phases ``exp(-i l dt)`` and the divided differences
    ``D_jk = (exp(-i l_j dt) - exp(-i l_k dt)) / (l_j - l_k)``: the
    first-order change of ``V exp(-i L dt) V^T`` along ``G`` is
    ``V (D o V^T G V) V^T``. Where the eigenvalues nearly coincide,
    ``|x| < 1e-3`` with ``x = dt (l_j - l_k)``, the quotient cancels, and
    ``D_jk`` is summed from the series
    ``dt exp(-i l_k dt) (-i - x/2 + i x^2/6 + x^3/24)`` instead.
    """
    phases = np.exp(-1j * dt * eigvals)
    gaps = np.subtract.outer(eigvals, eigvals)
    near = np.abs(dt * gaps) < 1e-3
    divided = np.subtract.outer(phases, phases) / np.where(near, 1.0, gaps)
    j, k = np.nonzero(near)
    x = dt * gaps[j, k]
    divided[j, k] = dt * phases[k] * (-1j - x / 2 + 1j * x**2 / 6 + x**3 / 24)
    return phases, divided


def _exact_tangent_chunk(psi, tangents, hamiltonian, generators, dt):
    """One ``exp(-i H dt)`` on ``psi`` and on every tangent, plus the first-order
    change of ``exp(-i H dt)`` along each generator applied to ``psi``."""
    eigvals, eigvecs = np.linalg.eigh(hamiltonian)
    phases, divided = _divided_differences(eigvals, dt)
    # a generator is a matrix or the diagonal of one
    rotated = (eigvecs.T @ (g @ eigvecs if g.ndim == 2 else g[:, np.newaxis] * eigvecs) for g in generators)
    basis = eigvecs.astype(complex)  # cast once for the complex products below
    coords = basis.T @ psi.T  # columns V^T psi
    changes = [(basis @ ((divided * g) @ coords)).T for g in rotated]
    return (basis @ (phases[:, np.newaxis] * coords)).T, (tangents @ basis * phases) @ basis.T, changes


def _chunked_tangent_chunk(psi, tangents, shared, coupling_diagonal, n, dt):
    """One split-operator chunk on ``psi`` and on every tangent: the ZZ phases,
    then the 2x2 factor on each qubit in ascending order, plus the chunk's
    own first-order changes. A factor and its derivatives come from the
    eigendecomposition of its 2x2 generator ``h``, as in the exact chunk;
    scaling and squaring the non-normal block ``[[h, g], [0, h]]`` instead
    put an n=5 gradient 1.6e-12 off at ``dt = 2.375``."""
    tunneling, bias, coupling = shared
    phases = np.exp(-1j * dt * coupling * coupling_diagonal)
    changes = [np.zeros_like(psi), np.zeros_like(psi), -1j * dt * coupling_diagonal * phases * psi]
    psi, tangents = phases * psi, phases * tangents
    eigvals, eigvecs = np.linalg.eigh(tunneling * PAULI_X + bias * PAULI_Z)
    factor_phases, divided = _divided_differences(eigvals, dt)
    factor = (eigvecs * factor_phases) @ eigvecs.conj().T
    partials = [eigvecs @ (divided * (eigvecs.conj().T @ g @ eigvecs)) @ eigvecs.conj().T for g in (PAULI_X, PAULI_Z)]
    for q in range(n):
        changes = [_on_qubit(factor, change, q, n) for change in changes]
        for k, partial in enumerate(partials):
            changes[k] += _on_qubit(partial, psi, q, n)
        psi, tangents = _on_qubit(factor, psi, q, n), _on_qubit(factor, tangents, q, n)
    return psi, tangents, changes


def tangent_loss_gradient(states, parity, rows, targets, schedule, method):
    """Witness values and shared-parameter gradient of the summed squared
    witness error, by forward-mode differentiation of dense ``2**n`` states.

    ``states`` are the evolved rows, ``parity`` the read-out diagonal, and
    item ``k`` reads row ``rows[k]`` against ``targets[k]``. Every chunk must
    be uniform; the gradient is chunk-major (tunneling, bias, coupling), as
    the trainer lays it out. A tangent per parameter rides along with the
    states, so no adjoint sweep is involved.
    """
    n, dt = schedule.n_qubits, schedule.dt
    transverse, bias_diagonal, coupling_diagonal = _shared_generators(n)
    psi = np.asarray(states, dtype=complex)
    tangents = np.zeros((schedule.n_chunks, 3, *psi.shape), dtype=complex)
    for c, chunk in enumerate(schedule.chunks):
        assert chunk.is_symmetric
        shared = (chunk.tunneling[0], chunk.bias[0], chunk.coupling[0] if chunk.coupling else 0.0)
        if method == "exact":
            hamiltonian = shared[0] * transverse + np.diag(shared[1] * bias_diagonal + shared[2] * coupling_diagonal)
            generators = (transverse, bias_diagonal, coupling_diagonal)
            psi_after, tangents, changes = _exact_tangent_chunk(psi, tangents, hamiltonian, generators, dt)
        else:
            psi_after, tangents, changes = _chunked_tangent_chunk(psi, tangents, shared, coupling_diagonal, n, dt)
        tangents[c] += np.stack(changes)
        psi = psi_after
    zz = np.abs(psi) ** 2 @ parity
    d_zz = 2 * np.real(np.sum(psi.conj() * parity * tangents, axis=-1))  # (chunks, 3, rows)
    item_zz = zz[rows]
    grad = np.sum(2 * (item_zz**2 - targets) * 2 * item_zz * d_zz[..., rows], axis=-1)
    return (zz**2)[rows], grad.ravel()


def orbit_tangent_gradient(schedule, training_set, method):
    """:func:`tangent_loss_gradient` of ``training_set`` on the schedule's
    size: the four orbit states evolved as ``2**n`` vectors, each item read
    on its own row against its target."""
    n = schedule.n_qubits
    kinds = list(PairStateKind)
    states = np.stack([make_pair_state(kind, (0, 1), n) for kind in kinds])
    rows = np.array([kinds.index(item.kind) for item in training_set.items])
    targets = np.array([item.target for item in training_set.items])
    parity = z_diagonal(n, 0) * z_diagonal(n, 1)
    return tangent_loss_gradient(states, parity, rows, targets, schedule, method)


def count_calls(monkeypatch, targets) -> dict[str, int]:
    """Count the calls made through each ``(module, name)`` global."""
    calls = {}
    for module, name in targets:
        calls[name] = 0
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def random_circuit(n: int, depth: int, rng: np.random.Generator):
    ops = []
    for _ in range(depth):
        roll = rng.integers(0, 4)
        if roll == 3 and n >= 2:
            control, target = rng.choice(n, size=2, replace=False)
            ops.append(GateOp(GateKind.CNOT, int(target), control=int(control)))
        else:
            kind = (GateKind.ROT_X, GateKind.ROT_Y, GateKind.ROT_Z)[roll % 3]
            ops.append(GateOp(kind, int(rng.integers(0, n)), angle=float(rng.uniform(-np.pi, np.pi))))
    return ops


def rotation_run_end(ops, start: int, q: int, kinds) -> int:
    """Index just past the run of ``kinds`` rotations on qubit ``q`` from ``start``."""
    end = start
    while end < len(ops) and ops[end].kind in kinds and ops[end].target == q:
        end += 1
    return end


def wigner_basis_apart(n: int, blocks: int) -> np.ndarray:
    """``hamiltonian.wigner_basis`` as it was built with each block in its
    own array, normalised by ``np.linalg.norm`` into a second one, then
    copied into the basis beside an identity."""
    ladder = sector_terms(n, blocks)[0]
    eigvecs = np.zeros((blocks, n + 1, n + 1))
    for block, spin in enumerate(n / 2 - k for k in range(blocks)):
        first, rows = round(n / 2 - spin), round(2 * spin) + 1
        mu, half = spin - np.arange(rows), (rows + 1) // 2
        links = ladder[block, first : first + rows - 1]
        steps = np.log((2 * spin - np.arange(rows - 1)) / np.arange(1.0, rows))
        log_binomial = np.concatenate([[0.0], np.cumsum(steps)])
        v = np.empty((rows, rows))
        v[0] = np.exp((log_binomial + log_binomial[::-1]) / 4 - spin * math.log(2))
        for j in range(half - 1):
            v[j + 1] = (2 * mu * v[j] - (links[j - 1] * v[j - 1] if j else 0.0)) / links[j]
        parity = (-1.0) ** np.arange(rows)
        v[half:] = (parity * v[: rows - half])[::-1]
        if rows % 2:
            v[rows // 2, parity < 0] = 0.0
        eigvecs[block] = np.eye(n + 1)
        eigvecs[block, first : first + rows, first : first + rows] = v / np.linalg.norm(v, axis=0)
    return eigvecs


def run_circuit_unfused(columns: np.ndarray, circuit) -> np.ndarray:
    """The gate kernel with its runs regrouped on every call: the same
    rewrites, in the same order and with the same arithmetic, as the fused
    steps that ``apply_circuit`` keeps on a circuit, so results match them
    bit for bit. A diagonal run sums its half-angles per qubit and per pair
    and forms its phases with ``core.ising_diagonal``, as a kept run does.
    Unlike ``core._fuse``, it finds each run's end by scanning it twice, for
    all rotations and for Rz only (:func:`rotation_run_end`)."""
    n, ops = circuit.n_qubits, circuit.ops
    rotations, z_only = (GateKind.ROT_X, GateKind.ROT_Y, GateKind.ROT_Z), (GateKind.ROT_Z,)
    block_of = [b for b, (_, k) in enumerate(core._blocks(n)) for _ in range(k)]
    half = None  # the diagonal run's (fields, couplings), not yet applied
    layer = []  # (2x2, qubit) on ascending qubits of one block, not yet applied

    def apply_layer(columns):
        if layer:
            columns = core._apply_block(columns, core._kron([u for u, _ in layer]), layer[0][1])
            layer.clear()
        return columns

    i = 0
    while i < len(ops):
        op = ops[i]
        term = None
        if op.kind is GateKind.CNOT:
            end = rotation_run_end(ops, i + 1, op.target, z_only)
            closing = ops[end] if end < len(ops) else None
            if closing is not None and closing.kind is GateKind.CNOT and closing.qubits == op.qubits:
                term = sum(g.angle for g in ops[i + 1 : end]), (op.control, op.target)
                end += 1
            else:
                end = i + 1
        else:
            end = rotation_run_end(ops, i, op.target, rotations)
            if rotation_run_end(ops, i, op.target, z_only) == end:
                term = sum(g.angle for g in ops[i:end]), (op.target,)
        if term is not None:
            if half is None:
                half = np.zeros(n), np.zeros((n, n))
            angle, qubits = term
            if len(qubits) == 1:
                half[0][qubits[0]] += 0.5 * angle
            else:
                half[1][min(qubits), max(qubits)] += 0.5 * angle
        else:
            if half is not None:
                columns = apply_layer(columns)
                columns, half = np.exp(-1j * core.ising_diagonal(*half))[:, np.newaxis] * columns, None
            if op.kind is GateKind.CNOT:
                columns = apply_layer(columns)
                index = np.arange(2**n)  # the kernel's row permutation: the target bit flips where the control's is set
                columns = columns[index ^ (((index >> (n - 1 - op.control)) & 1) << (n - 1 - op.target))]
            else:
                q = op.target
                if layer and (q != layer[-1][1] + 1 or block_of[q] != block_of[layer[-1][1]]):
                    columns = apply_layer(columns)
                layer.append((core._run_matrix(ops[i:end]), q))
        i = end
    columns = apply_layer(columns)
    if half is not None:
        columns = np.exp(-1j * core.ising_diagonal(*half))[:, np.newaxis] * columns
    return columns


def apply_gates_per_qubit(columns: np.ndarray, circuit) -> np.ndarray:
    """Oracle for the gate kernel: every gate on its own, a rotation as its
    2x2 on one qubit and a CNOT as a permutation of the rows, no fusing."""
    n = circuit.n_qubits
    index = np.arange(2**n)
    pauli = {GateKind.ROT_X: PAULI_X, GateKind.ROT_Y: PAULI_Y, GateKind.ROT_Z: PAULI_Z}
    for op in circuit.ops:
        if op.kind is GateKind.CNOT:
            control = (index >> (n - 1 - op.control)) & 1
            columns = columns[index ^ (control << (n - 1 - op.target))]
        else:
            u = np.cos(op.angle / 2) * IDENTITY_2 - 1j * np.sin(op.angle / 2) * pauli[op.kind]
            columns = _on_qubit(u, columns.T, op.target, n).T
    return columns


def evolve_chunked_per_qubit(columns: np.ndarray, schedule) -> np.ndarray:
    """Oracle for the chunked kernel: per chunk the product of the ZZ phases,
    then ``exp(-i dt (K X + eps Z))`` from an eigendecomposition, one 2x2 per
    qubit in ascending order."""
    n, dt = schedule.n_qubits, schedule.dt
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for ck in schedule.chunks:
        generator = sum((zeta * z_diagonal(n, i) * z_diagonal(n, j) for zeta, (i, j) in zip(ck.coupling, pairs)),
                        np.zeros(2**n))
        columns = np.exp(-1j * dt * generator)[:, np.newaxis] * columns
        for q, (tunneling, bias) in enumerate(zip(ck.tunneling, ck.bias)):
            columns = _on_qubit(expm_eigh(tunneling * PAULI_X + bias * PAULI_Z, dt), columns.T, q, n).T
    return columns


def verify_report_dense(schedule) -> dict:
    """``verify_equivalence``'s report from the three full unitaries and the
    twelve 2^n x 2^n density matrices that it never builds."""
    n = schedule.n_qubits
    u_gates = circuit_unitary(compile_schedule(schedule))
    # evolve_states maps each basis row e_k to U e_k, so the stack comes back as U^T
    identity = np.eye(2**n, dtype=complex)
    u_chunked = evolve_states(identity, schedule, "chunked").T
    u_exact = evolve_states(identity, schedule, "exact").T
    report = {
        "n_qubits": n,
        "frobenius_gate_vs_chunked": {"unitary": frobenius_distance(u_gates, u_chunked), "density_matrix": {}},
        "frobenius_chunked_vs_exact": {"unitary": frobenius_distance(u_chunked, u_exact), "density_matrix": {}},
    }
    for kind in PairStateKind:
        psi = make_pair_state(kind, (0, 1), n)
        rho_g, rho_c, rho_e = (density_matrix(u @ psi) for u in (u_gates, u_chunked, u_exact))
        report["frobenius_gate_vs_chunked"]["density_matrix"][kind.value] = frobenius_distance(rho_g, rho_c)
        report["frobenius_chunked_vs_exact"]["density_matrix"][kind.value] = frobenius_distance(rho_c, rho_e)
    return report
