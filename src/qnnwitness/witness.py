"""Reference pair states and the pairwise entanglement witness.

The witness is the squared two-qubit correlation ``<Z_i Z_j>^2`` of the
evolved state. Four reference two-qubit states with known targets make up
the training set: a maximally entangled state (target 1), two unentangled
states (target 0, one of them classically correlated), and a partially
entangled state whose optimized target is 0.443. For registers larger
than the pair, the pair state is embedded with every spectator qubit
in |0>.

A symmetric schedule evaluates a training set once per symmetry orbit,
and, when the orbit states' spectators are permutation symmetric (as
those of the reference states are), in the 4(n-1)-dimensional pair (x)
Dicke space rather than in the 2^n-dimensional register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .core import apply_circuit, circuit_unitary, expectation_zz, qubit_pairs, require_dense, z_diagonal
from .hamiltonian import (
    Schedule,
    evolve_pair_dicke,
    evolve_states,
    pair_dicke_coordinates,
    pair_dicke_operators,
    propagate,
)

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

WITNESS_TARGETS: dict[PairStateKind, float] = {
    PairStateKind.BELL: 1.0,
    PairStateKind.FLAT: 0.0,
    PairStateKind.C: 0.0,
    PairStateKind.P: 0.443,
}

METHODS = ("exact", "chunked", "gates")


def make_pair_state(kind: PairStateKind, pair: tuple[int, int], n: int) -> np.ndarray:
    """Reference pair state on qubits (i, j) of an n-qubit register."""
    i, j = pair
    if not 0 <= i < j < n:
        raise ValueError(f"pair {pair} must satisfy 0 <= i < j < {n}")
    require_dense(n)
    state = np.zeros(2**n, dtype=complex)
    for bits, amplitude in _PAIR_AMPLITUDES[kind].items():
        index = ((bits >> 1) & 1) << (n - 1 - i) | (bits & 1) << (n - 1 - j)
        state[index] = amplitude
    return state


@dataclass(frozen=True)
class TrainingItem:
    kind: PairStateKind
    state: np.ndarray
    pair: tuple[int, int]
    target: float


@dataclass(frozen=True)
class TrainingSet:
    """All four reference states on every qubit pair: 4 * C(n, 2) items."""

    n_qubits: int
    items: tuple[TrainingItem, ...]

    def __len__(self) -> int:
        return len(self.items)

    @cached_property
    def orbits(self) -> tuple[np.ndarray, np.ndarray]:
        """Each item's state with its pair moved to qubits (0, 1), deduplicated.

        Returns the distinct moved states as a ``(orbits, 2**n)`` stack and
        each item's row in it. A qubit permutation commutes with a symmetric
        schedule's propagator, so ``<Z_i Z_j>`` of an evolved item is
        ``<Z_0 Z_1>`` of its evolved row.
        """
        n = self.n_qubits
        row_of: dict[bytes, int] = {}
        distinct, index = [], []
        for item in self.items:
            i, j = item.pair
            axes = [i, j, *(q for q in range(n) if q not in (i, j))]
            moved = np.ascontiguousarray(np.reshape(item.state, [2] * n).transpose(axes)).reshape(-1)
            key = moved.tobytes()
            if key not in row_of:
                row_of[key] = len(distinct)
                distinct.append(moved)
            index.append(row_of[key])
        states, rows = np.stack(distinct), np.array(index)
        states.flags.writeable = rows.flags.writeable = False
        return states, rows

    @cached_property
    def pair_dicke_orbits(self) -> np.ndarray | None:
        """The orbit states as ``(orbits, 4(n-1))`` pair (x) Dicke coordinates,
        or None when some orbit state's spectators are not permutation symmetric."""
        coords = pair_dicke_coordinates(self.orbits[0], self.n_qubits)
        if coords is not None:
            coords.flags.writeable = False
        return coords


def check_training_set_size(n: int) -> None:
    """Refuse, before anything is allocated, a training set that cannot be built."""
    if n < 2:
        raise ValueError("a pairwise training set needs at least 2 qubits")
    require_dense(n, 4 * (n * (n - 1) // 2))


def build_training_set(n: int) -> TrainingSet:
    check_training_set_size(n)
    items = tuple(
        TrainingItem(kind, make_pair_state(kind, (i, j), n), (i, j), WITNESS_TARGETS[kind])
        for i, j in qubit_pairs(n)
        for kind in PairStateKind
    )
    return TrainingSet(n, items)


def _final_state(initial: np.ndarray, schedule: Schedule, method: str) -> np.ndarray:
    if method == "gates":
        from .compiler import compile_schedule  # local import avoids a cycle

        circuit = compile_schedule(schedule)
        if initial.ndim == 1:
            return apply_circuit(initial, circuit)
        u = circuit_unitary(circuit)
        return u @ initial @ u.conj().T
    if method in ("exact", "chunked"):
        return propagate(initial, schedule, method)
    raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")


def witness_value(
    initial: np.ndarray, pair: tuple[int, int], schedule: Schedule, method: str = "chunked"
) -> float:
    """``<Z_i Z_j>^2`` of the evolved state; always in [0, 1].

    ``initial`` may be a state vector or a density matrix. ``gates``
    routes through the compiled circuit, ``chunked`` through the
    split-operator propagator, ``exact`` through the full exponential.
    """
    initial = np.asarray(initial, dtype=complex)
    dim = 2**schedule.n_qubits
    if initial.shape[0] != dim:
        raise ValueError(f"state dimension {initial.shape[0]} does not match schedule ({dim})")
    final = _final_state(initial, schedule, method)
    return expectation_zz(final, pair[0], pair[1]) ** 2


def witness_inputs(
    training_set: TrainingSet, n_qubits: int, by_orbit: bool, reducible: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """What to evolve for a training set's witnesses, and how to read it out.

    Returns ``(states, rows, parities, pair_dicke)``: the states to evolve,
    each item's row among them, the ``Z_i Z_j`` diagonal of each row (one
    shared row when ``by_orbit``), and whether the states are pair (x)
    Dicke coordinates. ``by_orbit`` evolves only the orbit states and reads
    ``Z_0 Z_1``, which is exact for any schedule whose chunks are uniform;
    with ``reducible`` too, and when every orbit state lies in the pair (x)
    Dicke space, it returns their ``(orbits, 4(n-1))`` coordinates there.
    Otherwise every item is evolved as a ``2**n`` vector and read on its
    own pair.
    """
    n = training_set.n_qubits
    if n != n_qubits:
        raise ValueError(f"training set is for {n} qubits, schedule for {n_qubits}")
    if by_orbit:
        states, rows = training_set.orbits
        if reducible and training_set.pair_dicke_orbits is not None:
            return training_set.pair_dicke_orbits, rows, pair_dicke_operators(n).readout[np.newaxis, :], True
        return states, rows, (z_diagonal(n, 0) * z_diagonal(n, 1))[np.newaxis, :], False
    states = np.stack([item.state for item in training_set.items])
    parities = np.stack([z_diagonal(n, i) * z_diagonal(n, j) for i, j in (item.pair for item in training_set.items)])
    return states, np.arange(len(training_set.items)), parities, False


def witness_values(training_set: TrainingSet, schedule: Schedule, method: str = "chunked") -> np.ndarray:
    """Witness of every training item, evaluated as one batch.

    A symmetric schedule evolves only the training set's orbit states and
    reads ``Z_0 Z_1`` of each, in the pair (x) Dicke space for ``exact``
    and ``chunked`` when the orbit states lie in it; any other schedule
    evolves every item and reads the item's own pair.
    """
    reducible = method in ("exact", "chunked")
    states, rows, parities, pair_dicke = witness_inputs(training_set, schedule.n_qubits, schedule.symmetric, reducible)
    if pair_dicke:
        finals = evolve_pair_dicke(states, schedule, method)
    elif method == "gates":
        from .compiler import compile_schedule

        circuit = compile_schedule(schedule)
        finals = np.stack([apply_circuit(s, circuit) for s in states])
    else:
        finals = evolve_states(states, schedule, method)
    zz = np.sum(np.abs(finals) ** 2 * parities, axis=1)
    return (zz * zz)[rows]
