"""The store of values built from a schedule's numbers: ``core.SCHEDULE_CACHE``.

It keeps each compiled circuit, each method's sector steps of a uniform
schedule and each chunk's dense ``chunked`` steps, keyed on the numbers bit
for bit. A schedule evaluated again in one process builds none of them again
and gets the same bits back.
"""

import numpy as np
import pytest

from qnnwitness import hamiltonian
from qnnwitness.compiler import compile_schedule, verify_equivalence
from qnnwitness.core import SCHEDULE_CACHE, qubit_pairs
from qnnwitness.hamiltonian import (
    ChunkParams,
    Schedule,
    adjoint_partials,
    evolve_pair_dicke,
    evolve_states,
    load_schedule,
    save_schedule,
    sector_trotter_error,
)
from qnnwitness.trainer import TrainerConfig, random_schedule, train
from qnnwitness.witness import PairStateKind, TrainingItem, TrainingSet, build_training_set, orbit_coordinates
from qnnwitness.witness import witness_values

from helpers import count_calls, random_state

OCCUPANTS = (compile_schedule, hamiltonian._sector_steps, hamiltonian._dense_chunk_steps)
BUILDS = [(np.linalg, "eigh"), (hamiltonian, "spin_sector_hamiltonian"), (hamiltonian, "wigner_basis"),
          (hamiltonian, "ising_diagonal"), (hamiltonian, "_kron")]


def _non_uniform(n: int) -> Schedule:
    """Four distinct chunks whose numbers differ from qubit to qubit and pair to pair."""
    pairs = len(qubit_pairs(n))
    return Schedule(n, 1.58, tuple(
        ChunkParams(tuple(2.5 + 0.01 * q + 0.03 * k for q in range(n)), tuple(0.1 - 0.02 * q for q in range(n)),
                    tuple(0.05 + 0.001 * p for p in range(pairs)))
        for k in range(4)))


def _costates(finals):
    return np.cos(np.arange(finals.size)).reshape(finals.shape) * finals


# each returns the arrays a caller reads; the schedule is uniform unless it is dense
EVALUATIONS = {
    "witness_values": lambda s, method: [witness_values(build_training_set(s.n_qubits), s, method)],
    "evolve_pair_dicke": lambda s, method: [evolve_pair_dicke(orbit_coordinates(s.n_qubits), s, method)],
    "adjoint_partials": lambda s, method: [adjoint_partials(orbit_coordinates(s.n_qubits), s, method, _costates)],
    "sector_trotter_error": lambda s, _: [np.array(value) for value in sector_trotter_error(orbit_coordinates(s.n_qubits), s)],
}
DENSE = {
    "evolve_states": lambda s: [evolve_states(np.stack([random_state(s.n_qubits, np.random.default_rng(k))
                                                        for k in range(3)]), s, "chunked")],
    "witness_values": lambda s: [witness_values(build_training_set(s.n_qubits), s, "chunked")],
}


def _twins(tmp_path, schedule: Schedule) -> tuple[Schedule, Schedule]:
    """Two equal schedule objects, each loaded from the same file."""
    path = tmp_path / "schedule.json"
    save_schedule(schedule, path)
    first, second = load_schedule(path), load_schedule(path)
    assert first == second and first is not second
    return first, second


def _evaluated_twice(monkeypatch, evaluate, first, second):
    SCHEDULE_CACHE.clear()
    calls = count_calls(monkeypatch, BUILDS)
    before = evaluate(first)
    built = dict(calls)
    calls.update(dict.fromkeys(calls, 0))
    after = evaluate(second)
    return before, built, after, calls


class TestRepeatedEvaluation:
    @pytest.mark.parametrize("method", ["chunked", "exact"])
    @pytest.mark.parametrize("name", sorted(EVALUATIONS))
    def test_a_second_sector_evaluation_builds_nothing_and_returns_the_same_bits(
            self, monkeypatch, tmp_path, table3, name, method):
        first, second = _twins(tmp_path, table3)
        evaluate = EVALUATIONS[name]
        before, built, after, calls = _evaluated_twice(monkeypatch, lambda s: evaluate(s, method), first, second)
        assert built["wigner_basis" if method == "chunked" or name == "sector_trotter_error" else "eigh"] > 0
        assert calls == dict.fromkeys(calls, 0)
        assert [a.tobytes() for a in after] == [b.tobytes() for b in before]

    @pytest.mark.parametrize("name", sorted(DENSE))
    def test_a_second_dense_chunked_evaluation_builds_nothing_and_returns_the_same_bits(
            self, monkeypatch, tmp_path, name):
        first, second = _twins(tmp_path, _non_uniform(5))
        before, built, after, calls = _evaluated_twice(monkeypatch, DENSE[name], first, second)
        assert (built["ising_diagonal"], built["_kron"]) == (4, 8)  # per chunk, a phase vector and two blocks
        assert calls == dict.fromkeys(calls, 0)
        assert [a.tobytes() for a in after] == [b.tobytes() for b in before]

    def test_a_first_evaluation_adds_one_entry_per_build(self, table3):
        # verify's pictures: gates (one circuit), dense chunked (one entry per distinct chunk), and
        # the sectors under both methods; a repeat of the whole report adds nothing
        SCHEDULE_CACHE.clear()
        report = verify_equivalence(table3)
        assert [(fn.cache_info().misses, fn.cache_info().currsize) for fn in OCCUPANTS] == [(1, 1), (2, 2), (4, 4)]
        assert verify_equivalence(table3) == report
        assert [fn.cache_info().misses for fn in OCCUPANTS] == [1, 2, 4]


class TestKeys:
    @staticmethod
    def _twins():
        # equal and hashed alike as schedules, yet exp(-i dt zeta) and the sector eigenvectors differ in bits
        return tuple(Schedule(2, 1.58, (ChunkParams.uniform(2, zero, -1.0, zero),) * 2) for zero in (0.0, -0.0))

    def test_signed_zero_twins_get_separate_sector_entries(self):
        plus, minus = self._twins()
        assert plus == minus and hash(plus) == hash(minus)
        SCHEDULE_CACHE.clear()
        stored = {}
        for schedule in (plus, minus, plus, minus):
            for method in ("chunked", "exact"):
                evolve_pair_dicke(orbit_coordinates(2), schedule, method)
                args = (2, schedule.dt, [ck.shared for ck in schedule.chunks], method, 2)
                fresh = hamiltonian._sector_steps.__wrapped__(*args)
                steps = stored.setdefault((schedule.chunks[0].tunneling[0].hex(), method),
                                          hamiltonian._sector_steps(*args))
                assert hamiltonian._sector_steps(*args) is steps
                assert _bits(steps) == _bits(fresh)
        info = hamiltonian._sector_steps.cache_info()
        assert (info.misses, info.currsize) == (4, 4)
        assert _bits(stored["0x0.0p+0", "exact"]) != _bits(stored["-0x0.0p+0", "exact"])

    def test_signed_zero_twins_get_separate_dense_entries(self):
        plus, minus = self._twins()
        SCHEDULE_CACHE.clear()
        state = random_state(2, np.random.default_rng(3))
        finals = [evolve_states(state, schedule, "chunked").tobytes() for schedule in (plus, minus, plus, minus)]
        assert finals[2:] == finals[:2]
        info = hamiltonian._dense_chunk_steps.cache_info()
        assert (info.misses, info.currsize) == (2, 2)  # the two chunks of a schedule are one entry
        steps = [hamiltonian._dense_chunk_steps(s.chunks[0], 2, s.dt) for s in (plus, minus)]
        assert _bits(steps[0]) != _bits(steps[1])
        assert [_bits(s) for s in steps] == [_bits(hamiltonian._dense_chunk_steps.__wrapped__(s.chunks[0], 2, s.dt))
                                             for s in (plus, minus)]


def _arrays(steps) -> list[np.ndarray]:
    return [array for item in steps for array in (item if isinstance(item, tuple) else (item,))
            if isinstance(array, np.ndarray)]


def _bits(steps) -> list[bytes]:
    return [array.tobytes() for array in _arrays(steps)]


class TestStoredValues:
    @pytest.mark.parametrize("method", ["chunked", "exact"])
    def test_stored_sector_arrays_are_read_only(self, table3, method):
        steps = hamiltonian._sector_steps(7, table3.dt, [ck.shared for ck in table3.chunks], method, 3)
        arrays = _arrays(steps)
        assert len(arrays) == 4 * (4 if method == "chunked" else 3)
        assert not any(array.flags.writeable for array in arrays)
        with pytest.raises(ValueError, match="read-only"):
            arrays[-1][...] = 0

    def test_stored_dense_arrays_are_read_only(self):
        schedule = _non_uniform(7)
        steps = hamiltonian._dense_chunk_steps(schedule.chunks[0], 7, schedule.dt)
        arrays = _arrays(steps)
        assert len(arrays) == 3  # the phase vector and two blocks
        assert not any(array.flags.writeable for array in arrays)
        with pytest.raises(ValueError, match="read-only"):
            arrays[0][0] = 0

    def test_the_byte_total_holds_through_twenty_one_epoch_trains(self):
        # the store starts full of compiled circuits, so the steps the trains add evict them
        SCHEDULE_CACHE.clear()
        for seed in range(8):
            compile_schedule(random_schedule(7, 4, seed=100 + seed))
        circuits = compile_schedule.cache_info().currsize
        training_set = build_training_set(7)
        for seed in range(20):
            method = ("chunked", "exact")[seed % 2]
            train(random_schedule(7, 4, seed=seed), training_set, TrainerConfig(max_epochs=1, target_rms=0.0,
                                                                                method=method))
            _assert_within_bound()
        assert compile_schedule.cache_info().currsize < circuits
        assert hamiltonian._sector_steps.cache_info().misses == 40  # each train's two schedules

    def test_the_byte_total_holds_through_a_14_qubit_dense_chunked_witness(self, monkeypatch):
        # a 14-qubit chunk's steps take about 272 KiB, so the store keeps one at a time
        stored = hamiltonian._dense_chunk_steps

        def checked(*args):
            steps = stored(*args)
            _assert_within_bound()
            return steps

        monkeypatch.setattr(hamiltonian, "_dense_chunk_steps", checked)
        schedule = _non_uniform(14)
        items = tuple(TrainingItem(kind, (0, 1), 0.0) for kind in PairStateKind)
        SCHEDULE_CACHE.clear()
        values = witness_values(TrainingSet(14, items), schedule, "chunked")
        assert np.all((values >= 0) & (values <= 1))
        info = stored.cache_info()
        assert (info.misses, info.currsize) == (4, 1)
        _assert_within_bound()


def _assert_within_bound():
    assert SCHEDULE_CACHE.nbytes == sum(fn.cache_info().nbytes for fn in OCCUPANTS) <= SCHEDULE_CACHE.max_bytes
