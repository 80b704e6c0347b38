"""Independent numerical oracles used across the test suite.

These deliberately avoid the code paths they check: matrix exponentials
come from an eigendecomposition or a scaled Taylor series rather than
the package's closed forms, gate embeddings are built as dense
Kronecker products rather than stride updates, a run of shots draws
one basis state per shot rather than one binomial count, and gradients
come from finite differences of the loss, or from tangents carried
forward through dense 2^n states, rather than an adjoint sweep.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from qnnwitness.core import GateKind, GateOp, assert_normalized, n_qubits_of, rotation_matrix, z_diagonal

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


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
    axis = {GateKind.ROT_X: "x", GateKind.ROT_Y: "y", GateKind.ROT_Z: "z"}[op.kind]
    mats = [IDENTITY_2] * n
    mats[op.target] = rotation_matrix(axis, op.angle)
    return reduce(np.kron, mats)


def circuit_unitary_dense(ops, n: int) -> np.ndarray:
    """Oracle circuit unitary: product of dense embedded gates."""
    u = np.eye(2**n, dtype=complex)
    for op in ops:
        u = embed_gate_dense(op, n) @ u
    return u


def sample_zz_mean_per_shot(
    final_state: np.ndarray, pair: tuple[int, int], n_shots: int, rng: np.random.Generator
) -> float:
    """Unsquared estimator: mean parity over n_shots basis-state samples (inverse CDF)."""
    if n_shots < 1:
        raise ValueError("n_shots must be positive")
    assert_normalized(final_state)
    n = n_qubits_of(final_state)
    probs = np.abs(final_state) ** 2
    parity = z_diagonal(n, pair[0]) * z_diagonal(n, pair[1])
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0  # guard the top edge against rounding
    draws = np.searchsorted(cdf, rng.random(n_shots), side="right")
    return float(np.mean(parity[draws]))


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


def _on_qubit(u: np.ndarray, states: np.ndarray, q: int, n: int) -> np.ndarray:
    """Apply the 2x2 ``u`` to qubit ``q`` of every ``2**n`` row of ``states``."""
    split = states.reshape(*states.shape[:-1], 2**q, 2, 2 ** (n - 1 - q))
    return np.einsum("ab,...ibj->...iaj", u, split).reshape(states.shape)


def _exact_tangent_chunk(psi, tangents, hamiltonian, generators, dt):
    """One ``exp(-i H dt)`` on ``psi`` and on every tangent, plus the first-order
    change of ``V exp(-i L dt) V^T`` along each generator applied to ``psi``.

    That change is ``V (D o V^T G V) V^T`` with the divided differences
    ``D_jk = (exp(-i l_j dt) - exp(-i l_k dt)) / (l_j - l_k)``. Where the
    eigenvalues nearly coincide, ``|x| < 1e-3`` with ``x = dt (l_j - l_k)``,
    the quotient cancels, and ``D_jk`` is summed from the series
    ``dt exp(-i l_k dt) (-i - x/2 + i x^2/6 + x^3/24)`` instead.
    """
    eigvals, eigvecs = np.linalg.eigh(hamiltonian)
    phases = np.exp(-1j * dt * eigvals)
    gaps = np.subtract.outer(eigvals, eigvals)
    near = np.abs(dt * gaps) < 1e-3
    divided = np.subtract.outer(phases, phases) / np.where(near, 1.0, gaps)
    j, k = np.nonzero(near)
    x = dt * gaps[j, k]
    divided[j, k] = dt * phases[k] * (-1j - x / 2 + 1j * x**2 / 6 + x**3 / 24)
    # a generator is a matrix or the diagonal of one
    rotated = (eigvecs.T @ (g @ eigvecs if g.ndim == 2 else g[:, np.newaxis] * eigvecs) for g in generators)
    basis = eigvecs.astype(complex)  # cast once for the complex products below
    coords = basis.T @ psi.T  # columns V^T psi
    changes = [(basis @ ((divided * g) @ coords)).T for g in rotated]
    return (basis @ (phases[:, np.newaxis] * coords)).T, (tangents @ basis * phases) @ basis.T, changes


def _chunked_tangent_chunk(psi, tangents, shared, coupling_diagonal, n, dt):
    """One split-operator chunk on ``psi`` and on every tangent: the ZZ phases,
    then the 2x2 factor on each qubit in ascending order, plus the chunk's
    own first-order changes. A factor and its derivatives come from
    ``exp(-i dt [[h, g], [0, h]])``, whose upper-right block is the
    derivative of ``exp(-i dt h)`` along ``g``."""
    tunneling, bias, coupling = shared
    phases = np.exp(-1j * dt * coupling * coupling_diagonal)
    changes = [np.zeros_like(psi), np.zeros_like(psi), -1j * dt * coupling_diagonal * phases * psi]
    psi, tangents = phases * psi, phases * tangents
    h = tunneling * PAULI_X + bias * PAULI_Z
    blocks = [expm_taylor(np.block([[h, g], [np.zeros((2, 2)), h]]), dt) for g in (PAULI_X, PAULI_Z)]
    factor = blocks[0][:2, :2]
    for q in range(n):
        changes = [_on_qubit(factor, change, q, n) for change in changes]
        for k, block in enumerate(blocks):
            changes[k] += _on_qubit(block[:2, 2:], psi, q, n)
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
