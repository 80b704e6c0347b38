"""Pairwise-coupled transverse-field Hamiltonians and their propagators.

The model is ``H = sum_q (K_q X_q + eps_q Z_q) + sum_{i<j} zeta_ij Z_i Z_j``
with all-to-all coupling, piecewise constant in time: a Schedule splits the
total evolution time into equal chunks, each with its own parameter set.
All quantities are dimensionless with hbar = 1.

Two propagation methods are provided. ``exact`` exponentiates the full
Hamiltonian of each chunk; ``chunked`` splits each chunk into the product
of its single-qubit and pair exponentials, which is a first-order
approximation because the transverse terms do not commute with the
couplings. Within a chunk the pair factors act first, then the single-qubit
factors in ascending qubit order; chunks apply in chronological order.
The gate compiler reproduces exactly this ordering, so ``chunked`` and
compiled circuits agree to round-off.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from .core import PAULI_X, PAULI_Z, _apply_1q, is_hermitian, qubit_pairs, z_diagonal


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
        object.__setattr__(self, "tunneling", tuple(float(x) for x in self.tunneling))
        object.__setattr__(self, "bias", tuple(float(x) for x in self.bias))
        object.__setattr__(self, "coupling", tuple(float(x) for x in self.coupling))
        n = len(self.tunneling)
        if n < 1:
            raise ValueError("need at least one qubit")
        if len(self.bias) != n:
            raise ValueError("tunneling and bias arrays must have equal length")
        if len(self.coupling) != n * (n - 1) // 2:
            raise ValueError(f"expected {n * (n - 1) // 2} couplings for {n} qubits, got {len(self.coupling)}")

    @property
    def n_qubits(self) -> int:
        return len(self.tunneling)

    @property
    def is_symmetric(self) -> bool:
        return (
            len(set(self.tunneling)) == 1
            and len(set(self.bias)) == 1
            and (not self.coupling or len(set(self.coupling)) == 1)
        )

    @classmethod
    def uniform(cls, n: int, tunneling: float, bias: float, coupling: float) -> "ChunkParams":
        """Fully symmetric parameters: same values on every qubit and pair."""
        return cls((tunneling,) * n, (bias,) * n, (coupling,) * (n * (n - 1) // 2))


@dataclass(frozen=True)
class Schedule:
    """Piecewise-constant parameter schedule over a fixed total time."""

    n_qubits: int
    total_time: float
    chunks: tuple[ChunkParams, ...]
    symmetric: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "chunks", tuple(self.chunks))
        if not self.chunks:
            raise ValueError("schedule needs at least one chunk")
        if not math.isfinite(self.total_time) or self.total_time <= 0:
            raise ValueError("total_time must be positive and finite")
        for ck in self.chunks:
            if ck.n_qubits != self.n_qubits:
                raise ValueError(f"chunk is sized for {ck.n_qubits} qubits, schedule for {self.n_qubits}")
        if self.symmetric and not all(ck.is_symmetric for ck in self.chunks):
            raise ValueError("symmetric schedule contains non-uniform chunk parameters")

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
    if not all(map(math.isfinite, params.tunneling + params.bias + params.coupling)):
        raise ValueError("Hamiltonian parameters must be finite")
    rows = np.arange(2**n)
    h = np.zeros((2**n, 2**n))
    diag = np.asarray(params.coupling) @ _pair_parities(n)
    for q in range(n):
        h[rows, rows ^ (1 << (n - 1 - q))] = params.tunneling[q]
        diag += params.bias[q] * z_diagonal(n, q)
    h[rows, rows] = diag
    return h


@lru_cache(maxsize=64)
def exact_chunk_propagator(params: ChunkParams, n: int, dt: float) -> np.ndarray:
    """``exp(-i H dt)`` by eigendecomposition of the real symmetric chunk Hamiltonian.

    The cache keeps the 64 most recent propagators (about 17 MB at n=7):
    training evaluates each new schedule once, so most keys are used once.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    h = build_hamiltonian(params, n)
    assert is_hermitian(h, tol=1e-12)
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
    ``f`` is summed from its series where ``dt c - s`` cancels.
    """
    magnitude = math.hypot(tunneling, bias)
    x = dt * magnitude
    s = dt * (math.sin(x) / x if x else 1.0)
    if x < 0.05:
        x2 = x * x
        f = dt**3 * (-1 / 3 + x2 * (1 / 30 - x2 * (1 / 840 - x2 / 45360)))
    else:
        f = (dt * math.cos(x) - s) / magnitude**2
    generator = np.array([[bias, tunneling], [tunneling, -bias]])
    d_tunneling = -dt * tunneling * s * np.eye(2) - 1j * (tunneling * f * generator + s * PAULI_X)
    d_bias = -dt * bias * s * np.eye(2) - 1j * (bias * f * generator + s * PAULI_Z)
    return d_tunneling, d_bias


@lru_cache(maxsize=None)
def _pair_parities(n: int) -> np.ndarray:
    """``(C(n, 2), 2**n)`` array of the ``Z_i Z_j`` diagonals in ``qubit_pairs`` order."""
    out = np.array([z_diagonal(n, i) * z_diagonal(n, j) for i, j in qubit_pairs(n)]).reshape(-1, 2**n)
    out.flags.writeable = False
    return out


def _pair_phase_diagonal(params: ChunkParams, n: int, dt: float) -> np.ndarray:
    """Diagonal of the product of all ``exp(-i dt zeta_ij Z_i Z_j)`` factors."""
    return np.exp(-1j * dt * (np.asarray(params.coupling) @ _pair_parities(n)))


def _evolve_chunked(columns: np.ndarray, chunks: tuple[ChunkParams, ...], n: int, dt: float) -> np.ndarray:
    """Stream the split-operator evolution over a (2**n, batch) column array."""
    for ck in chunks:
        columns = columns * _pair_phase_diagonal(ck, n, dt)[:, np.newaxis]
        # a symmetric chunk has one distinct (K, eps), so one factor
        factors = {key: _single_qubit_factor(*key, dt) for key in set(zip(ck.tunneling, ck.bias))}
        for q, key in enumerate(zip(ck.tunneling, ck.bias)):
            columns = _apply_1q(columns, factors[key], q)
    return columns


# --- adjoint gradients --------------------------------------------------
#
# A backward step takes the columns [states | co-states] just after one
# chunk, returns them just before it, and reads each parameter's partial
# 2 Re <lam| dU U^dagger |psi> on the way. Partials come in the full
# layout: n tunnelings, n biases, C(n,2) couplings.


def _chunked_backward_step(
    both: np.ndarray, params: ChunkParams, n: int, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Undo one split-operator chunk: the single-qubit factors in descending
    qubit order, each contracted on its qubit's 2x2 reduced matrix of
    ``(lam, psi)``, then the diagonal pair phases."""
    batch = both.shape[1] // 2
    keys = list(zip(params.tunneling, params.bias))
    factors = {}
    for key in set(keys):
        inverse = _single_qubit_factor(*key, dt).conj().T
        factors[key] = (inverse, *(d @ inverse for d in _single_qubit_factor_partials(*key, dt)))
    partials = np.empty(2 * n + len(params.coupling))
    for q in reversed(range(n)):
        inverse, d_tunneling, d_bias = factors[keys[q]]
        split = both.reshape(2**q, 2, -1, 2, batch)  # (.., qubit q, .., psi | lam, batch)
        reduced = np.einsum("iajk,ibjk->ab", split[..., 1, :].conj(), split[..., 0, :])
        partials[q] = 2 * np.sum(d_tunneling * reduced).real
        partials[n + q] = 2 * np.sum(d_bias * reduced).real
        both = _apply_1q(both, inverse, q)
    # d/dzeta of exp(-i dt zeta Z_i Z_j) is -i dt Z_i Z_j times the factor
    overlap = np.sum(both[:, batch:].conj() * both[:, :batch], axis=1)
    partials[2 * n :] = 2 * dt * (_pair_parities(n) @ overlap.imag)
    return both * _pair_phase_diagonal(params, n, dt).conj()[:, np.newaxis], partials


def _exact_backward_step(
    both: np.ndarray, eigvals: np.ndarray, eigvecs: np.ndarray, n: int, dt: float
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
    # Re(Phi o S) = dt sinc o Im(e o S) with the rank-one e_jk = exp(-i dt (l_j + l_k)/2)
    half_phase = np.exp(-0.5j * phases)[:, np.newaxis]
    overlap = (coords[:, batch:].conj() * half_phase) @ (coords[:, :batch] * half_phase).T
    weights = dt * np.sinc(np.subtract.outer(phases, phases) / (2 * np.pi)) * overlap.imag
    # V is real, so Re M = V Re(Phi o S) V^T; keep its left half and contract rows
    half = eigvecs @ weights
    diagonal = np.sum(half * eigvecs, axis=1)
    rows = np.arange(2**n)
    partials = np.concatenate((
        [2 * np.sum(half * eigvecs[rows ^ (1 << (n - 1 - q))]) for q in range(n)],  # X_q flips bit q
        [2 * z_diagonal(n, q) @ diagonal for q in range(n)],
        2 * _pair_parities(n) @ diagonal,
    ))
    coords[:, batch:] *= backward
    return eigvecs @ coords, partials


def adjoint_partials(states: np.ndarray, schedule: Schedule, method: str, costate) -> np.ndarray:
    """Every chunk parameter's derivative of a real function F of the evolved states.

    ``states`` is a ``(batch, 2**n)`` stack. ``costate(finals)`` receives
    the evolved stack and returns the co-states ``lam`` (same shape) with
    ``dF = 2 Re sum_b <lam_b | d final_b>``. One forward sweep evolves the
    states; one backward sweep un-evolves states and co-states together,
    chunk by chunk (every factor is unitary, so no intermediate state is
    kept). Returns ``(n_chunks, 2n + C(n,2))`` partials: per chunk, the n
    tunnelings, the n biases and the couplings in ``qubit_pairs`` order.
    The cost does not depend on the number of parameters.
    """
    n, dt = schedule.n_qubits, schedule.dt
    columns = np.asarray(states, dtype=complex).T
    if method == "chunked":
        finals = _evolve_chunked(columns, schedule.chunks, n, dt)
        steps = [partial(_chunked_backward_step, params=ck, n=n, dt=dt) for ck in schedule.chunks]
    elif method == "exact":
        # one eigendecomposition per chunk serves both sweeps
        eighs = [np.linalg.eigh(build_hamiltonian(ck, n)) for ck in schedule.chunks]
        finals = columns
        for eigvals, eigvecs in eighs:
            finals = eigvecs @ (np.exp(-1j * dt * eigvals)[:, np.newaxis] * (eigvecs.T @ finals))
        steps = [partial(_exact_backward_step, eigvals=w, eigvecs=v, n=n, dt=dt) for w, v in eighs]
    else:
        raise ValueError(f"unknown propagation method {method!r}")
    both = np.concatenate((finals, np.asarray(costate(finals.T), dtype=complex).T), axis=1)
    out = []
    for step in reversed(steps):
        both, partials = step(both)
        out.append(partials)
    return np.array(out[::-1])


def chunked_chunk_propagator(params: ChunkParams, n: int, dt: float) -> np.ndarray:
    """Split-operator propagator: pair exponentials first, then single-qubit ones."""
    if params.n_qubits != n:
        raise ValueError(f"parameters are sized for {params.n_qubits} qubits, not {n}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    return _evolve_chunked(np.eye(2**n, dtype=complex), (params,), n, dt)


def chunk_propagators(schedule: Schedule, method: str = "exact") -> list[np.ndarray]:
    """Per-chunk dense unitaries in chronological order."""
    if method == "exact":
        return [exact_chunk_propagator(ck, schedule.n_qubits, schedule.dt) for ck in schedule.chunks]
    if method == "chunked":
        return [chunked_chunk_propagator(ck, schedule.n_qubits, schedule.dt) for ck in schedule.chunks]
    raise ValueError(f"unknown propagation method {method!r}")


def evolve_states(states: np.ndarray, schedule: Schedule, method: str = "exact") -> np.ndarray:
    """Evolve a (dim,) state or a (batch, dim) stack of states.

    ``chunked`` streams diagonal phases and 2x2 updates without building
    any 2^N matrix; ``exact`` multiplies by cached dense chunk propagators.
    """
    arr = np.asarray(states, dtype=complex)
    single = arr.ndim == 1
    batch = arr[np.newaxis, :] if single else arr
    n = schedule.n_qubits
    if batch.shape[1] != 2**n:
        raise ValueError(f"state dimension {batch.shape[1]} does not match {n} qubits")
    if method == "chunked":
        out = _evolve_chunked(batch.T, schedule.chunks, n, schedule.dt).T
    elif method == "exact":
        out = batch.T
        for u in chunk_propagators(schedule, "exact"):
            out = u @ out
        out = out.T
    else:
        raise ValueError(f"unknown propagation method {method!r}")
    return out[0] if single else out


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
    return Schedule(schedule.n_qubits, schedule.total_time, chunks, schedule.symmetric)


# --- JSON serialization -------------------------------------------------
#
# On-disk schema:
#   {"n_qubits": int, "total_time": float, "symmetric": bool,
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
    pairs = qubit_pairs(n)
    chunks = []
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
        for key, value in zeta.items():
            try:
                i, j = (int(part) for part in key.split(","))
            except ValueError as exc:
                raise ScheduleFormatError(f"bad zeta pair key {key!r} in chunk {pos}") from exc
            if not (0 <= i < j < n):
                raise ScheduleFormatError(f"zeta pair {key!r} out of range in chunk {pos}")
            seen.add((i, j))
        if seen != set(pairs):
            missing_pair = sorted(set(pairs) - seen)[0]
            raise ScheduleFormatError(f"zeta is missing pair '{missing_pair[0]},{missing_pair[1]}' in chunk {pos}")
        coupling = tuple(_json_number(zeta[f"{i},{j}"], f"zeta pair '{i},{j}' in chunk {pos}") for i, j in pairs)
        tunneling = _json_numbers(raw["K"], f"'K' in chunk {pos}")
        bias = _json_numbers(raw["eps"], f"'eps' in chunk {pos}")
        try:
            # C(n, 2) couplings pin the chunk to the document's n qubits
            chunks.append(ChunkParams(tunneling, bias, coupling))
        except (TypeError, ValueError) as exc:
            raise ScheduleFormatError(f"bad chunk {pos}: {exc}") from exc
    symmetric = doc.get("symmetric", False)
    if not isinstance(symmetric, bool):
        raise ScheduleFormatError(f"'symmetric' must be true or false, got {symmetric!r}")
    try:
        return Schedule(n_qubits=n, total_time=total_time, chunks=tuple(chunks), symmetric=symmetric)
    except (TypeError, ValueError) as exc:
        raise ScheduleFormatError(str(exc)) from exc


def load_schedule(path: str | Path) -> Schedule:
    return schedule_from_json(Path(path).read_text())


def save_schedule(schedule: Schedule, path: str | Path) -> None:
    Path(path).write_text(schedule_to_json(schedule))
