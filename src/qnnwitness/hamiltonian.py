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
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import _apply_1q, is_hermitian, qubit_pairs, z_diagonal


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
    training perturbs every parameter in turn, so most keys are used once.
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
