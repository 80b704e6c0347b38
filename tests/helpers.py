"""Independent numerical oracles used across the test suite.

These deliberately avoid the code paths they check: matrix exponentials
come from an eigendecomposition or a scaled Taylor series rather than
the package's closed forms, gate embeddings are built as dense
Kronecker products rather than stride updates, a run of shots draws
one basis state per shot rather than one binomial count, and gradients
come from finite differences of the loss rather than an adjoint sweep.
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
