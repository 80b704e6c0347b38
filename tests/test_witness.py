import math

import numpy as np
import pytest

from qnnwitness.compiler import compile_schedule
from qnnwitness.core import apply_circuit, z_diagonal
from qnnwitness.hamiltonian import ChunkParams, Schedule
from qnnwitness.witness import (
    PairStateKind,
    TrainingItem,
    TrainingSet,
    WITNESS_TARGETS,
    build_training_set,
    make_pair_state,
    witness_value,
    witness_values,
)

from helpers import random_state


class TestMakePairState:
    def test_bell_on_two_qubits(self):
        state = make_pair_state(PairStateKind.BELL, (0, 1), 2)
        assert np.allclose(state, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])

    def test_classically_correlated(self):
        state = make_pair_state(PairStateKind.C, (0, 1), 2)
        assert np.allclose(state, [2 / math.sqrt(5), 1 / math.sqrt(5), 0, 0])

    def test_flat(self):
        assert np.allclose(make_pair_state(PairStateKind.FLAT, (0, 1), 2), [0.5] * 4)

    def test_partial(self):
        state = make_pair_state(PairStateKind.P, (0, 1), 2)
        assert np.allclose(state, [0, 1 / math.sqrt(3), 1 / math.sqrt(3), 1 / math.sqrt(3)])

    def test_bell_embedded_with_spectator(self):
        state = make_pair_state(PairStateKind.BELL, (0, 2), 3)
        expected = np.zeros(8)
        expected[0b000] = expected[0b101] = 1 / math.sqrt(2)
        assert np.allclose(state, expected)

    def test_normalized(self):
        for kind in PairStateKind:
            state = make_pair_state(kind, (1, 3), 5)
            assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_bad_pair_rejected(self):
        with pytest.raises(ValueError):
            make_pair_state(PairStateKind.BELL, (1, 0), 3)
        with pytest.raises(ValueError):
            make_pair_state(PairStateKind.BELL, (0, 2), 2)


class TestWitnessValue:
    @pytest.mark.parametrize(
        "kind,expected,tol",
        [
            (PairStateKind.BELL, 0.999, 5e-3),
            (PairStateKind.C, 1.87e-5, 1e-3),
            (PairStateKind.P, 0.446, 8e-3),
        ],
    )
    def test_published_chunked_values(self, table2, kind, expected, tol):
        state = make_pair_state(kind, (0, 1), 2)
        assert witness_value(state, (0, 1), table2, "chunked") == pytest.approx(expected, abs=tol)

    def test_gates_agrees_with_chunked(self, table2):
        for kind in PairStateKind:
            state = make_pair_state(kind, (0, 1), 2)
            gates = witness_value(state, (0, 1), table2, "gates")
            chunked = witness_value(state, (0, 1), table2, "chunked")
            assert abs(gates - chunked) < 1e-9

    def test_partial_state_gates_value(self, table2):
        state = make_pair_state(PairStateKind.P, (0, 1), 2)
        assert witness_value(state, (0, 1), table2, "gates") == pytest.approx(0.446, abs=8e-3)

    def test_range(self, table2):
        rng = np.random.default_rng(1)
        for _ in range(25):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = amps / np.linalg.norm(amps)
            for method in ("exact", "chunked", "gates"):
                assert 0.0 <= witness_value(state, (0, 1), table2, method) <= 1.0

    def test_dimension_mismatch(self, table2):
        state = make_pair_state(PairStateKind.BELL, (0, 1), 3)
        with pytest.raises(ValueError):
            witness_value(state, (0, 1), table2, "chunked")

    def test_density_matrix_refused(self, table2):
        state = make_pair_state(PairStateKind.P, (0, 1), 2)
        with pytest.raises(ValueError, match="state vector"):
            witness_value(np.outer(state, state.conj()), (0, 1), table2, "chunked")

    def test_unknown_method(self, table2):
        state = make_pair_state(PairStateKind.BELL, (0, 1), 2)
        with pytest.raises(ValueError):
            witness_value(state, (0, 1), table2, "quantum")


class TestTrainingSet:
    def test_sizes(self):
        assert len(build_training_set(2)) == 4
        assert len(build_training_set(3)) == 12
        assert len(build_training_set(7)) == 84

    def test_three_qubit_pairs(self):
        pairs = {item.pair for item in build_training_set(3).items}
        assert pairs == {(0, 1), (0, 2), (1, 2)}

    def test_targets(self):
        for item in build_training_set(2).items:
            assert item.target == WITNESS_TARGETS[item.kind]
        assert WITNESS_TARGETS[PairStateKind.P] == 0.443

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_training_set(1)

    def test_targets_are_one_read_only_array(self):
        training_set = build_training_set(3)
        targets = training_set.targets
        assert targets is training_set.targets and not targets.flags.writeable
        assert targets.tolist() == [item.target for item in training_set.items]


class TestWitnessValues:
    def test_matches_individual_evaluation(self, table2):
        ts = build_training_set(2)
        batch = witness_values(ts, table2, "chunked")
        for idx, item in enumerate(ts.items):
            single = witness_value(make_pair_state(item.kind, item.pair, 2), item.pair, table2, "chunked")
            assert batch[idx] == pytest.approx(single, abs=1e-12)

    def test_gates_values_are_the_full_circuits_bit_for_bit(self, table3):
        # a first chunk with no tunneling and no coupling: the elided circuit drops gates
        schedule = Schedule(7, table3.total_time, (ChunkParams.uniform(7, 0.0, 0.3, 0.0),) + table3.chunks[1:])
        full = compile_schedule.__wrapped__(schedule)  # a new circuit, not the store's
        assert len(compile_schedule.__wrapped__(schedule, elide=True)) < len(full)
        training_set = build_training_set(7)
        states = np.stack([make_pair_state(item.kind, item.pair, 7) for item in training_set.items])
        finals = apply_circuit(states.T, full).T
        parities = np.stack([z_diagonal(7, i) * z_diagonal(7, j) for i, j in (item.pair for item in training_set.items)])
        zz = np.clip(np.sum(np.abs(finals) ** 2 * parities, axis=1), -1.0, 1.0)
        assert np.array_equal(witness_values(training_set, schedule, "gates"), zz * zz)

    def test_gates_method(self, table2):
        ts = build_training_set(2)
        batch_gates = witness_values(ts, table2, "gates")
        batch_chunked = witness_values(ts, table2, "chunked")
        assert np.max(np.abs(batch_gates - batch_chunked)) < 1e-9

    def test_permutation_symmetry(self, table3):
        # fully symmetric schedule: every pair sees the same witness
        ts = build_training_set(7)
        values = witness_values(ts, table3, "chunked")
        by_kind = {}
        for idx, item in enumerate(ts.items):
            by_kind.setdefault(item.kind, []).append(values[idx])
        for kind, vals in by_kind.items():
            assert np.ptp(vals) < 1e-10, f"{kind} witness varies across pairs"
        # the batch evolves one state per orbit; each item still matches its
        # own full evolution
        _assert_matches_items(ts, table3)

    def test_symmetric_schedule_on_arbitrary_states(self):
        # the orbit reduction rests on qubit permutations commuting with a
        # symmetric schedule's propagator; that holds for any states, not
        # only the reference ones
        rng = np.random.default_rng(7)
        chunks = tuple(ChunkParams.uniform(4, 2.4 - 0.3 * k, 0.2 * k - 0.3, 0.15 - 0.1 * k) for k in range(3))
        schedule = Schedule(4, 1.2, chunks)
        for pair in ((0, 1), (1, 3), (0, 2), (2, 3)):
            state = random_state(4, rng)
            others = [q for q in range(4) if q not in pair]
            moved = np.transpose(state.reshape((2,) * 4), [*pair, *others]).reshape(-1)  # pair -> (0, 1)
            for method in ("exact", "chunked", "gates"):
                value = witness_value(state, pair, schedule, method)
                assert value == pytest.approx(witness_value(moved, (0, 1), schedule, method), abs=1e-12), method

    def test_non_symmetric_schedule(self):
        chunks = tuple(
            ChunkParams((1.1 + k, 0.7, -0.4), (0.3, -0.2 * k, 0.5), (0.25, -0.6, 0.1 * k)) for k in range(2)
        )
        _assert_matches_items(build_training_set(3), Schedule(3, 1.0, chunks))

    def test_reference_set_has_four_orbits(self):
        # one orbit state per kind, each item on its kind's row
        kinds = list(PairStateKind)
        for n in range(2, 8):
            ts = build_training_set(n)
            coords, rows = ts.pair_dicke_orbits
            assert coords.shape == (4, 4 * (n - 1))
            assert rows.tolist() == [kinds.index(item.kind) for item in ts.items]
            assert not coords.flags.writeable and not rows.flags.writeable

    @pytest.mark.parametrize("method", ["exact", "chunked", "gates"])
    def test_requested_kinds_on_one_pair(self, table3, method):
        # the witness command's set: some kinds on one pair, in any order
        kinds = [PairStateKind.P, PairStateKind.BELL]
        ts = TrainingSet(7, tuple(TrainingItem(kind, (2, 5), WITNESS_TARGETS[kind]) for kind in kinds))
        single = [witness_value(make_pair_state(kind, (2, 5), 7), (2, 5), table3, method) for kind in kinds]
        assert np.max(np.abs(witness_values(ts, table3, method) - single)) <= 1e-12

    def test_non_finite_correlation_refused(self):
        # the sector blocks overflow at |K| = 1e308; a clamped NaN would
        # read as a plausible witness
        schedule = Schedule(4, 1.0, (ChunkParams.uniform(4, 1e308, 0.1, 0.05),) * 2)
        with pytest.raises(ValueError, match="not finite"):
            witness_values(build_training_set(4), schedule, "chunked")

    def test_size_mismatch(self, table2):
        with pytest.raises(ValueError):
            witness_values(build_training_set(3), table2)


def _assert_matches_items(training_set, schedule):
    # batched values against one full evolution per item, bound 1e-12
    for method in ("exact", "chunked", "gates"):
        batch = witness_values(training_set, schedule, method)
        n = training_set.n_qubits
        single = [
            witness_value(make_pair_state(item.kind, item.pair, n), item.pair, schedule, method)
            for item in training_set.items
        ]
        assert np.max(np.abs(batch - single)) <= 1e-12, method
