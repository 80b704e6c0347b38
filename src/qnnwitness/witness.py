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
space; every other evaluation writes each item into a column of one ``(2**n,
batch)`` array (:func:`pair_columns`), the layout :func:`evolve_dense` evolves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .core import NON_FINITE_ZZ, apply_circuit, qubit_pairs, require_dense, z_signs
from .core import circuit_unitary  # unused here; the benchmark tracer patches witness.circuit_unitary
from .hamiltonian import PROPAGATION_METHODS, Schedule, evolve_pair_dicke, evolve_states, pair_dicke_operators

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)


class PairStateKind(Enum):
    BELL = "Bell"  # (|00> + |11>)/sqrt(2), maximally entangled
    FLAT = "Flat"  # (|00> + |01> + |10> + |11>)/2, product state
    C = "C"        # (2|00> + |01>)/sqrt(5), classically correlated, unentangled
    P = "P"        # (|01> + |10> + |11>)/sqrt(3), partially entangled


# two-qubit amplitudes over the basis index p = 2 b_i + b_j, a row per kind in PairStateKind order
_PAIR_TABLE = np.array([[1 / _SQRT2, 0.0, 0.0, 1 / _SQRT2], [0.5, 0.5, 0.5, 0.5],
                        [2 / _SQRT5, 1 / _SQRT5, 0.0, 0.0], [0.0, 1 / _SQRT3, 1 / _SQRT3, 1 / _SQRT3]])
_KIND_ROWS = {kind: row for row, kind in enumerate(PairStateKind)}

WITNESS_TARGETS: dict[PairStateKind, float] = {
    PairStateKind.BELL: 1.0,
    PairStateKind.FLAT: 0.0,
    PairStateKind.C: 0.0,
    PairStateKind.P: 0.443,
}

METHODS = (*PROPAGATION_METHODS, "gates")


def _checked_pair(pair: tuple[int, int], n: int) -> tuple[int, int]:
    i, j = pair
    if not 0 <= i < j < n:
        raise ValueError(f"pair {pair} must satisfy 0 <= i < j < {n}")
    return i, j


def pair_columns(cells, n: int) -> np.ndarray:
    """Each ``(kind, (i, j))`` of ``cells`` as a column of one ``(2**n, len(cells))`` array, the one writer of dense
    reference states: the kind's amplitudes land at the indices whose bits i, j read p and whose others read 0. The
    pairs are checked and the columns charged to the dense budget before anything is allocated."""
    pairs = [_checked_pair(pair, n) for _, pair in cells]
    require_dense(n, len(cells))
    columns = np.zeros((2**n, len(cells)), dtype=complex)
    for column, ((kind, _), (i, j)) in enumerate(zip(cells, pairs)):
        bit_i, bit_j = 1 << (n - 1 - i), 1 << (n - 1 - j)
        columns[[0, bit_j, bit_i, bit_i | bit_j], column] = _PAIR_TABLE[_KIND_ROWS[kind]]
    return columns


def make_pair_state(kind: PairStateKind, pair: tuple[int, int], n: int) -> np.ndarray:
    """Reference pair state on qubits (i, j) of an n-qubit register: the one column of :func:`pair_columns`."""
    return pair_columns([(kind, pair)], n)[:, 0]


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
        rows = np.array([_KIND_ROWS[item.kind] for item in self.items])
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


def evolve_dense(columns: np.ndarray, schedule: Schedule, method: str) -> np.ndarray:
    """Evolve ``(2**n, batch)`` columns, a state each, by ``method`` and return
    columns: the package's one dense dispatcher. ``gates`` runs the full
    compiled circuit, ``chunked`` the split-operator propagator and ``exact``
    the full exponential, chunk by chunk, each on the columns as the runner
    holds them, copied only if not C-ordered; the witness, ``verify`` and
    ``sample`` all evolve their ``2**n`` vectors here."""
    if method == "gates":
        from .compiler import compile_schedule  # local import avoids a cycle

        return apply_circuit(columns, compile_schedule(schedule))
    return evolve_states(columns.T, schedule, method).T  # its public rows are views of these columns


def witness_value(
    initial: np.ndarray, pair: tuple[int, int], schedule: Schedule, method: str = "chunked"
) -> float:
    """``<Z_i Z_j>^2`` of one evolved state vector; always in [0, 1].

    The dense single-state reference that tests hold :func:`witness_values`
    to: ``initial`` is evolved as a ``2**n`` vector whatever the schedule
    (``gates``: the full compiled circuit, ``chunked``: the split-operator
    propagator, ``exact``: the full exponential) and read as the batch reads.
    """
    initial = np.asarray(initial, dtype=complex)
    dim = 2**schedule.n_qubits
    if initial.shape != (dim,):
        raise ValueError(f"expected a state vector of dimension {dim}, got shape {initial.shape}")
    pair = _checked_pair(tuple(sorted(pair)), schedule.n_qubits)  # in either order
    return float(_dense_witness(evolve_dense(initial[:, np.newaxis], schedule, method), [pair], schedule.n_qubits)[0])


def witness_values(training_set: TrainingSet, schedule: Schedule, method: str = "chunked") -> np.ndarray:
    """Witness of every training item, evaluated as one batch.

    ``exact`` and ``chunked`` under a symmetric schedule evolve the four
    orbit states in the pair (x) Dicke space and read each on ``Z_0 Z_1``
    (:func:`orbit_zz`); every other evaluation evolves the items as the
    columns of one ``(2**n, batch)`` array and reads each on its pair
    (:func:`_dense_witness`). An unknown method is refused first; values are
    in [0, 1], round-off just outside clamped, a non-finite ``<Z_i Z_j>`` refused.
    """
    if method not in METHODS:
        raise ValueError(f"unknown propagation method {method!r}")
    check_training_set(training_set, schedule)
    n = training_set.n_qubits
    if schedule.symmetric and method in PROPAGATION_METHODS:
        coords, rows = training_set.pair_dicke_orbits  # the sweeps refuse n past the budget first
        return witness_readout(orbit_zz(evolve_pair_dicke(coords, schedule, method), n), rows)
    columns = pair_columns([(item.kind, item.pair) for item in training_set.items], n)
    return _dense_witness(evolve_dense(columns, schedule, method), [item.pair for item in training_set.items], n)


def _dense_witness(finals: np.ndarray, pairs: list[tuple[int, int]], n: int) -> np.ndarray:
    """The one dense read-out: each column's squared moduli times its pair's Z_i Z_j signs, summed pairwise along it."""
    terms = np.abs(finals.T, order="C")  # a row per item
    terms *= terms
    signs = {pair: z_signs(n, pair, np.arange(2**n)).prod(axis=0) for pair in dict.fromkeys(pairs)}
    for row, pair in zip(terms, pairs):
        row *= signs[pair]
    return witness_readout(terms.sum(axis=1), np.arange(len(pairs)))


def orbit_zz(finals: np.ndarray, n: int) -> np.ndarray:
    """The unclamped ``<Z_0 Z_1>`` of each row of pair (x) Dicke coordinates: the one orbit read-out."""
    return np.sum(np.abs(finals) ** 2 * pair_dicke_operators(n).readout, axis=1)


def witness_readout(zz: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each item's witness from the ``<Z_i Z_j>`` of its evolved row.

    A non-finite ``zz`` raises, as in ``bounded_zz``; round-off just
    outside [-1, 1] is clamped before squaring.
    """
    if not np.isfinite(zz).all():
        raise ValueError(NON_FINITE_ZZ)
    zz = zz.clip(-1.0, 1.0)
    return (zz * zz)[rows]
