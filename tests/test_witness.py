import math

import numpy as np
import pytest

from qnnwitness.compiler import compile_schedule
from qnnwitness.core import DimensionError, apply_circuit, qubit_pairs
from qnnwitness import witness
from qnnwitness.hamiltonian import ChunkParams, Schedule, evolve_pair_dicke
from qnnwitness.witness import (
    PairStateKind,
    TrainingItem,
    TrainingSet,
    WITNESS_TARGETS,
    build_training_set,
    make_pair_state,
    pair_columns,
    witness_value,
    witness_values,
)

from helpers import count_calls, kac_lifted, random_state, z_diagonal


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


# each kind's amplitudes over |b_i b_j> = |00>, |01>, |10>, |11>, from the kind's definition
_AMPLITUDES = {
    PairStateKind.BELL: np.array([1, 0, 0, 1]) / np.sqrt(2),
    PairStateKind.FLAT: np.array([1, 1, 1, 1]) / 2,
    PairStateKind.C: np.array([2, 1, 0, 0]) / np.sqrt(5),
    PairStateKind.P: np.array([0, 1, 1, 1]) / np.sqrt(3),
}


def _embedded(kind: PairStateKind, pair: tuple[int, int], n: int) -> np.ndarray:
    """The kind's amplitudes (x) |0...0> on qubits 0, 1, then the pair moved
    to (i, j) by index bits: each index's bits of qubits 0 and 1 become
    those of i and j, its spectator bits (all 0) fill the other qubits."""
    on_first = np.kron(_AMPLITUDES[kind], np.eye(2 ** (n - 2))[0])
    spectators = [q for q in range(n) if q not in pair]
    moved = np.zeros(2**n, dtype=complex)
    for index, amplitude in enumerate(on_first):
        bits = [(index >> (n - 1 - q)) & 1 for q in range(n)]
        target = dict(zip(pair, bits[:2])) | dict(zip(spectators, bits[2:]))
        moved[sum(bit << (n - 1 - q) for q, bit in target.items())] = amplitude
    return moved


class TestPairColumns:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_kind_on_every_pair_is_its_embedding(self, n):
        cells = [(kind, pair) for pair in qubit_pairs(n) for kind in PairStateKind]
        columns = pair_columns(cells, n)
        assert columns.shape == (2**n, len(cells)) and columns.dtype == complex
        for column, (kind, pair) in zip(columns.T, cells):
            np.testing.assert_array_equal(column, _embedded(kind, pair, n))
            np.testing.assert_array_equal(make_pair_state(kind, pair, n), column)

    def test_the_columns_are_charged_before_any_is_written(self):
        # one column of 2**23 complex items fills the 128 MiB budget, so two pass it
        with pytest.raises(DimensionError, match="refusing 2 dense arrays of 2\\*\\*23 items"):
            pair_columns([(PairStateKind.BELL, (0, 1))] * 2, 23)
        with pytest.raises(DimensionError, match="refusing 1 dense arrays of 2\\*\\*24 items"):
            pair_columns([(PairStateKind.BELL, (0, 1))], 24)
        with pytest.raises(ValueError, match="must satisfy"):  # a pair is checked first
            pair_columns([(PairStateKind.BELL, (0, 1)), (PairStateKind.P, (2, 1))], 30)

    def test_the_dense_witness_reads_the_writer_alone(self, monkeypatch, table3):
        calls = count_calls(monkeypatch, [(witness, "make_pair_state"), (witness, "pair_columns")])
        skewed = Schedule(7, table3.total_time, (ChunkParams(
            (table3.chunks[0].tunneling[0] + 0.01, *table3.chunks[0].tunneling[1:]),
            table3.chunks[0].bias, table3.chunks[0].coupling), *table3.chunks[1:]))
        for schedule, method in ((table3, "gates"), (skewed, "chunked"), (skewed, "exact")):
            witness_values(build_training_set(7), schedule, method)
        assert calls == {"make_pair_state": 0, "pair_columns": 3}


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

    def test_gates_values_sum_each_item_to_round_off_at_18_qubits(self, table3):
        # 2**18 terms per item: a sum along a strided axis drifts by 3.4e-12
        n = 18
        schedule = kac_lifted(table3, n)
        ts = TrainingSet(n, tuple(TrainingItem(kind, (0, 1), WITNESS_TARGETS[kind]) for kind in PairStateKind))
        gates = witness_values(ts, schedule, "gates")
        single = [witness_value(make_pair_state(kind, (0, 1), n), (0, 1), schedule, "gates") for kind in PairStateKind]
        assert np.max(np.abs(gates - single)) <= 1e-13
        assert np.max(np.abs(gates - witness_values(ts, schedule, "chunked"))) <= 1e-13

    def test_one_state_reads_as_the_batch_at_17_qubits(self, table3):
        # witness_value sums its 2**17 terms pairwise, as the batch does: a BLAS dot
        # product of the same terms reads 5.4e-14 off the sector kernel here
        n = 17
        schedule = kac_lifted(table3, n)
        ts = TrainingSet(n, tuple(TrainingItem(kind, (0, 1), WITNESS_TARGETS[kind]) for kind in PairStateKind))
        single = [witness_value(make_pair_state(kind, (0, 1), n), (0, 1), schedule, "gates") for kind in PairStateKind]
        assert np.max(np.abs(witness_values(ts, schedule, "chunked") - single)) <= 1e-14

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

    def test_non_finite_correlation_refused(self, table3, monkeypatch):
        # the schedule admits only finite phases, so a NaN row is planted in
        # the sweep's output; clamped, it would read as a plausible witness
        def sweep_with_a_nan_row(coords, schedule, method):
            finals = evolve_pair_dicke(coords, schedule, method)
            finals[1] = np.nan
            return finals

        monkeypatch.setattr(witness, "evolve_pair_dicke", sweep_with_a_nan_row)
        with pytest.raises(ValueError, match="not finite"):
            witness_values(build_training_set(7), table3, "chunked")

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
