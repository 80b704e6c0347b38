"""Reference pair states and the pairwise entanglement witness.

The witness is the squared two-qubit correlation ``<Z_i Z_j>^2`` of the
evolved state. Four reference two-qubit states with known targets make up
the training set: a maximally entangled state (target 1), two unentangled
states (target 0, one of them classically correlated), and a partially
entangled state whose optimized target is 0.443. For registers larger
than the pair, the pair state is embedded with every spectator qubit
in |0>.

A training item names its reference state (kind and pair) rather than
storing it. Every reference state has its spectators in |0...0>, so under
a symmetric schedule a training set is evaluated as its four orbit states
(the pair moved to qubits 0, 1) in the 4(n-1)-dimensional pair (x) Dicke
space; every other evaluation evolves each item as a 2^n vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .core import apply_circuit, expectation_zz, qubit_pairs, require_dense, z_signs
from .core import circuit_unitary  # unused here; the benchmark tracer patches witness.circuit_unitary
from .hamiltonian import Schedule, evolve_pair_dicke, evolve_states, pair_dicke_operators

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)


class PairStateKind(Enum):
    BELL = "Bell"  # (|00> + |11>)/sqrt(2), maximally entangled
    FLAT = "Flat"  # (|00> + |01> + |10> + |11>)/2, product state
    C = "C"        # (2|00> + |01>)/sqrt(5), classically correlated, unentangled
    P = "P"        # (|01> + |10> + |11>)/sqrt(3), partially entangled


# two-qubit amplitudes keyed by the (b_i, b_j) basis index
_PAIR_AMPLITUDES: dict[PairStateKind, dict[int, float]] = {
    PairStateKind.BELL: {0b00: 1 / _SQRT2, 0b11: 1 / _SQRT2},
    PairStateKind.FLAT: {0b00: 0.5, 0b01: 0.5, 0b10: 0.5, 0b11: 0.5},
    PairStateKind.C: {0b00: 2 / _SQRT5, 0b01: 1 / _SQRT5},
    PairStateKind.P: {0b01: 1 / _SQRT3, 0b10: 1 / _SQRT3, 0b11: 1 / _SQRT3},
}

# the same amplitudes as a (kind, p) table, kinds in PairStateKind order
_PAIR_TABLE = np.array([[_PAIR_AMPLITUDES[kind].get(p, 0.0) for p in range(4)] for kind in PairStateKind])

WITNESS_TARGETS: dict[PairStateKind, float] = {
    PairStateKind.BELL: 1.0,
    PairStateKind.FLAT: 0.0,
    PairStateKind.C: 0.0,
    PairStateKind.P: 0.443,
}

METHODS = ("exact", "chunked", "gates")


def _checked_pair(pair: tuple[int, int], n: int) -> tuple[int, int]:
    i, j = pair
    if not 0 <= i < j < n:
        raise ValueError(f"pair {pair} must satisfy 0 <= i < j < {n}")
    return i, j


def make_pair_state(kind: PairStateKind, pair: tuple[int, int], n: int) -> np.ndarray:
    """Reference pair state on qubits (i, j) of an n-qubit register."""
    i, j = _checked_pair(pair, n)
    require_dense(n)
    state = np.zeros(2**n, dtype=complex)
    for bits, amplitude in _PAIR_AMPLITUDES[kind].items():
        index = ((bits >> 1) & 1) << (n - 1 - i) | (bits & 1) << (n - 1 - j)
        state[index] = amplitude
    return state


@dataclass(frozen=True)
class TrainingItem:
    kind: PairStateKind
    pair: tuple[int, int]
    target: float


@dataclass(frozen=True)
class TrainingSet:
    """Named reference states, each with its target, on pairs checked as in
    :func:`make_pair_state`. :func:`build_training_set` returns all four kinds on every pair."""

    n_qubits: int
    items: tuple[TrainingItem, ...]

    def __post_init__(self) -> None:
        for item in self.items:
            _checked_pair(item.pair, self.n_qubits)

    def __len__(self) -> int:
        return len(self.items)

    @cached_property
    def targets(self) -> np.ndarray:
        """Each item's target, in item order."""
        targets = np.array([item.target for item in self.items])
        targets.flags.writeable = False
        return targets

    @cached_property
    def pair_dicke_orbits(self) -> tuple[np.ndarray, np.ndarray]:
        """The orbit state of each kind as ``(4, 4(n-1))`` pair (x) Dicke
        coordinates, and each item's row among them.

        A qubit permutation commutes with a symmetric schedule's propagator,
        so ``<Z_i Z_j>`` of an evolved item is ``<Z_0 Z_1>`` of its kind's
        state on the pair (0, 1). With every spectator in |0>, that state's
        only coordinates are on ``|p> (x) |D_0>``: the pair amplitudes.
        """
        coords = orbit_coordinates(self.n_qubits)
        rows = np.array([list(PairStateKind).index(item.kind) for item in self.items])
        coords.flags.writeable = rows.flags.writeable = False
        return coords, rows


def orbit_coordinates(n: int) -> np.ndarray:
    """Each kind's reference state on the pair (0, 1) of n qubits, in
    :class:`PairStateKind` order, as ``(4, 4(n-1))`` pair (x) Dicke
    coordinates: with every spectator in |0>, only the ``|p> (x) |D_0>``
    hold amplitudes."""
    coords = np.zeros((len(PairStateKind), 4 * (n - 1)), dtype=complex)
    coords[:, :: n - 1] = _PAIR_TABLE  # |p> (x) |D_0> is coordinate p (n - 1)
    return coords


def check_training_set_size(n: int) -> None:
    """Refuse a training set whose dense per-item stack would not fit the dense budget."""
    if n < 2:
        raise ValueError("a pairwise training set needs at least 2 qubits")
    require_dense(n, 4 * (n * (n - 1) // 2))


def check_training_set(training_set: TrainingSet, schedule: Schedule) -> None:
    """Refuse a training set for another register than ``schedule``'s, or an empty one."""
    n = training_set.n_qubits
    if n != schedule.n_qubits:
        raise ValueError(f"training set is for {n} qubits, schedule for {schedule.n_qubits}")
    if not training_set.items:
        raise ValueError("training set is empty")


def build_training_set(n: int) -> TrainingSet:
    check_training_set_size(n)
    items = tuple(
        TrainingItem(kind, (i, j), WITNESS_TARGETS[kind])
        for i, j in qubit_pairs(n)
        for kind in PairStateKind
    )
    return TrainingSet(n, items)


def evolve_dense(states: np.ndarray, schedule: Schedule, method: str) -> np.ndarray:
    """Evolve a ``(batch, 2**n)`` stack of state vectors by ``method``: the
    package's one dense dispatcher. ``gates`` runs the full compiled circuit,
    ``chunked`` the split-operator propagator and ``exact`` the full
    exponential, chunk by chunk, each on one C-ordered ``(2**n, batch)``
    array; the witness, ``verify`` and ``sample`` all evolve their ``2**n``
    vectors here."""
    if method == "gates":
        from .compiler import compile_schedule  # local import avoids a cycle

        return apply_circuit(np.ascontiguousarray(states.T), compile_schedule(schedule)).T
    return evolve_states(states, schedule, method)


def witness_value(
    initial: np.ndarray, pair: tuple[int, int], schedule: Schedule, method: str = "chunked"
) -> float:
    """``<Z_i Z_j>^2`` of one evolved state vector; always in [0, 1].

    The dense single-state reference that tests hold :func:`witness_values`
    to: ``initial`` is evolved as a ``2**n`` vector whatever the schedule,
    ``gates`` through the full compiled circuit, ``chunked`` through the
    split-operator propagator, ``exact`` through the full exponential.
    """
    initial = np.asarray(initial, dtype=complex)
    dim = 2**schedule.n_qubits
    if initial.shape != (dim,):
        raise ValueError(f"expected a state vector of dimension {dim}, got shape {initial.shape}")
    final = evolve_dense(initial[np.newaxis, :], schedule, method)[0]
    return expectation_zz(final, pair[0], pair[1]) ** 2


def witness_values(training_set: TrainingSet, schedule: Schedule, method: str = "chunked") -> np.ndarray:
    """Witness of every training item, evaluated as one batch.

    ``exact`` and ``chunked`` under a symmetric schedule evolve the four
    orbit states in the pair (x) Dicke space and read each on ``Z_0 Z_1``;
    every other evaluation evolves each item as a ``2**n`` vector and reads
    the item's own pair. Values are in [0, 1]: round-off just outside is
    clamped and a non-finite ``<Z_i Z_j>`` raises, as in ``expectation_zz``.
    """
    check_training_set(training_set, schedule)
    n = training_set.n_qubits
    if schedule.symmetric and method in ("exact", "chunked"):
        coords, rows = training_set.pair_dicke_orbits
        finals = evolve_pair_dicke(coords, schedule, method)  # past the budget the sweeps refuse first
        parities = pair_dicke_operators(n).readout[np.newaxis, :]
    else:
        items = training_set.items
        rows = np.arange(len(items))
        require_dense(n, len(items))
        finals = evolve_dense(np.stack([make_pair_state(item.kind, item.pair, n) for item in items]), schedule, method)
        # each pair's Z_i Z_j from its two index bits, not from cached diagonals
        index = np.arange(2**n)
        parity = {pair: z_signs(n, pair, index).prod(axis=0) for pair in dict.fromkeys(item.pair for item in items)}
        parities = np.stack([parity[item.pair] for item in items])
    return witness_readout(np.sum(np.abs(finals) ** 2 * parities, axis=1), rows)


def witness_readout(zz: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each item's witness from the ``<Z_i Z_j>`` of its evolved row.

    A non-finite ``zz`` raises, as in ``expectation_zz``; round-off just
    outside [-1, 1] is clamped before squaring.
    """
    if not np.isfinite(zz).all():
        raise ValueError("<Z_i Z_j> is not finite; the state holds non-finite amplitudes")
    zz = zz.clip(-1.0, 1.0)
    return (zz * zz)[rows]
