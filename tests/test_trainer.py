import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnnwitness.hamiltonian import ChunkParams, Schedule, refine_schedule
from qnnwitness.trainer import (
    TrainerConfig,
    TrainingDiverged,
    bootstrap,
    bootstrap_summary_csv,
    gradient,
    random_schedule,
    rms_error,
    rms_history_csv,
    schedule_parameters,
    schedule_with_parameters,
    train,
    training_loss,
)
from qnnwitness.witness import TrainingItem, TrainingSet, build_training_set, witness_values

from helpers import central_difference_gradient


@pytest.fixture(scope="module")
def ts2():
    return build_training_set(2)


class TestRmsError:
    def test_table2_matches_published_error(self, table2, ts2):
        assert rms_error(table2, ts2, "chunked") == pytest.approx(1.4e-3, abs=5e-3)

    def test_zero_when_targets_met(self, table2, ts2):
        # replace targets with the schedule's own outputs
        values = witness_values(ts2, table2, "chunked")
        items = tuple(
            TrainingItem(item.kind, item.pair, float(values[idx]))
            for idx, item in enumerate(ts2.items)
        )
        assert rms_error(table2, TrainingSet(2, items), "chunked") == 0.0

    def test_table3_seven_qubits(self, table3):
        assert rms_error(table3, build_training_set(7), "chunked") <= 0.05

    def test_empty_set_rejected(self, table2):
        with pytest.raises(ValueError):
            rms_error(table2, TrainingSet(2, ()), "chunked")


class TestParameterVector:
    def test_symmetric_round_trip(self, table2):
        vec = schedule_parameters(table2, symmetric=True)
        assert len(vec) == 12
        assert schedule_with_parameters(table2, vec, symmetric=True) == table2

    def test_full_round_trip(self):
        rng = np.random.default_rng(0)
        chunks = tuple(
            ChunkParams(tuple(rng.normal(size=3)), tuple(rng.normal(size=3)), tuple(rng.normal(size=3)))
            for _ in range(2)
        )
        schedule = Schedule(3, 1.0, chunks)
        vec = schedule_parameters(schedule, symmetric=False)
        assert len(vec) == 2 * (3 + 3 + 3)
        assert schedule_with_parameters(schedule, vec, symmetric=False) == schedule

    def test_wrong_length_rejected(self, table2):
        with pytest.raises(ValueError):
            schedule_with_parameters(table2, np.zeros(7), symmetric=True)


def random_schedule_with_idle_chunk(n: int = 3) -> Schedule:
    """Non-symmetric schedule with distinct per-qubit values and one K = eps = 0 chunk."""
    rng = np.random.default_rng(7)
    n_pairs = n * (n - 1) // 2
    chunks = [
        ChunkParams(tuple(rng.uniform(-3, 3, n)), tuple(rng.uniform(-1, 1, n)), tuple(rng.uniform(-1, 1, n_pairs)))
        for _ in range(2)
    ]
    chunks.insert(1, ChunkParams((0.0,) * n, (0.0,) * n, tuple(rng.uniform(-1, 1, n_pairs))))
    return Schedule(n, 1.58, tuple(chunks))


def assert_matches_oracle(schedule, symmetric, method, indices=None, floor=0.0):
    training_set = build_training_set(schedule.n_qubits)
    grad = gradient(schedule, training_set, TrainerConfig(symmetric=symmetric, method=method))
    params = schedule_parameters(schedule, symmetric)
    assert grad.shape == params.shape

    def loss(vector):
        return training_loss(schedule_with_parameters(schedule, vector, symmetric), training_set, method)

    picked = np.arange(len(params)) if indices is None else np.asarray(indices)
    oracle = central_difference_gradient(loss, params, picked)
    assert np.max(np.abs(grad[picked] - oracle)) <= 1e-8 * np.linalg.norm(grad) + floor


# (schedule, layout, parameter indices to check; None checks every one).
# table3's full layout has 140 parameters, so every seventh is checked:
# that still covers K, eps and zeta of every chunk.
ORACLE_CASES = {
    "table2-symmetric": ("table2", True, None),
    "table2-full": ("table2", False, None),
    "table3-symmetric": ("table3", True, None),
    "table3-full": ("table3", False, range(0, 140, 7)),
    "random3-full": ("random3", False, None),
}


@st.composite
def schedules(draw):
    n = draw(st.integers(2, 3))
    n_chunks = draw(st.integers(1, 3))
    symmetric = draw(st.booleans())
    value = st.floats(-3, 3)
    chunks = []
    for _ in range(n_chunks):
        if symmetric:
            chunks.append(ChunkParams.uniform(n, draw(value), draw(value), draw(value)))
        else:
            size = n * (n - 1) // 2
            chunks.append(ChunkParams(*(tuple(draw(value) for _ in range(k)) for k in (n, n, size))))
    return Schedule(n, draw(st.floats(0.2, 2.0)), tuple(chunks), symmetric)


class TestGradient:
    @pytest.mark.parametrize("method", ["chunked", "exact"])
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_fourth_order_oracle(self, case, method, table2, table3):
        name, symmetric, indices = ORACLE_CASES[case]
        schedule = {"table2": table2, "table3": table3, "random3": random_schedule_with_idle_chunk()}[name]
        assert_matches_oracle(schedule, symmetric, method, indices)

    @given(schedules(), st.sampled_from(["chunked", "exact"]))
    @settings(deadline=None, max_examples=40)
    def test_matches_oracle_on_drawn_schedules(self, schedule, method):
        # a drawn schedule can sit on a stationary point (all zeros does), where
        # the oracle's own round-off, about 1e-13 here, is all that is left
        for symmetric in {False, schedule.symmetric}:
            assert_matches_oracle(schedule, symmetric, method, floor=1e-10)

    def test_symmetric_layout_refuses_non_uniform_chunks(self):
        with pytest.raises(ValueError, match="non-symmetric chunk"):
            gradient(random_schedule_with_idle_chunk(), build_training_set(3), TrainerConfig())

    def test_small_near_minimum(self, table2, ts2):
        settled = train(table2, ts2, TrainerConfig(target_rms=0.0, max_epochs=300))
        grad = gradient(settled.schedule, ts2, TrainerConfig())
        assert np.linalg.norm(grad) < 1e-4


class TestTrain:
    def test_table2_converges_immediately(self, table2, ts2):
        result = train(table2, ts2, TrainerConfig(target_rms=5e-3))
        assert result.converged
        assert result.epochs_used == 0
        assert result.final_rms <= 5e-3

    def test_random_init_two_qubits(self, ts2):
        result = train(random_schedule(2, 4, seed=0), ts2, TrainerConfig())
        assert result.converged
        assert result.epochs_used <= 2000
        assert result.final_rms <= 1e-3

    def test_deterministic(self, ts2):
        config = TrainerConfig(max_epochs=25, target_rms=0.0)
        init = random_schedule(2, 4, seed=3)
        a = train(init, ts2, config)
        b = train(init, ts2, config)
        assert a.schedule == b.schedule
        assert a.rms_history == b.rms_history

    def test_symmetry_preserved(self, ts2):
        result = train(random_schedule(2, 4, seed=1), ts2, TrainerConfig(max_epochs=30, target_rms=0.0))
        assert result.schedule.symmetric
        assert all(ck.is_symmetric for ck in result.schedule.chunks)

    def test_history_layout(self, ts2, table2):
        result = train(table2, ts2, TrainerConfig(max_epochs=5, target_rms=0.0))
        assert len(result.rms_history) == 6  # initial value plus one entry per epoch
        assert result.epochs_used == 5

    def test_descent_step_decreases_loss(self, ts2):
        rng = np.random.default_rng(9)
        checked = 0
        for seed in range(40):
            schedule = random_schedule(2, 4, seed=1000 + seed)
            grad = gradient(schedule, ts2, TrainerConfig())
            if np.linalg.norm(grad) < 1e-6:
                continue
            vec = schedule_parameters(schedule, True) - 1e-3 * grad
            stepped = schedule_with_parameters(schedule, vec, True)
            assert training_loss(stepped, ts2) < training_loss(schedule, ts2)
            checked += 1
            if checked == 20:
                break
        assert checked == 20

    def test_divergence_guard(self, table2, ts2):
        with pytest.raises(TrainingDiverged) as excinfo:
            train(table2, ts2, TrainerConfig(learning_rate=10.0, momentum=0.0, max_epochs=500, target_rms=1e-9))
        exc = excinfo.value
        assert rms_error(exc.last_good, ts2) <= rms_error(table2, ts2) + 1e-12
        assert len(exc.rms_history) >= 50

    def test_eight_chunk_refinement_trains(self, table2, ts2):
        refined = refine_schedule(table2, 2)
        result = train(refined, ts2, TrainerConfig(target_rms=5e-3, max_epochs=50))
        assert result.schedule.n_chunks == 8
        assert result.final_rms <= 5e-3


class TestBootstrap:
    def test_three_from_two(self, ts2):
        base = train(random_schedule(2, 4, seed=0), ts2, TrainerConfig())
        result = bootstrap(base, 3, TrainerConfig(target_rms=2e-3, max_epochs=500))
        assert result.converged
        assert result.epochs_used <= 500
        assert result.final_rms <= 2e-3

    def test_requires_symmetric_source(self, ts2):
        base = train(random_schedule(2, 4, seed=0), ts2, TrainerConfig(max_epochs=0, target_rms=0.0))
        asym = Schedule(2, 1.58, base.schedule.chunks, symmetric=False)
        from qnnwitness.trainer import TrainResult

        with pytest.raises(ValueError):
            bootstrap(TrainResult(asym, (1.0,), 0, False), 3, TrainerConfig())

    def test_requires_larger_target(self, ts2):
        base = train(random_schedule(2, 4, seed=0), ts2, TrainerConfig(max_epochs=0, target_rms=1.0))
        with pytest.raises(ValueError):
            bootstrap(base, 2, TrainerConfig())

    def test_bootstrapping_beats_random_init(self, ts2):
        # mean epochs to rms <= 2e-3 over 5 seeds, bootstrap vs fresh random
        # init; random runs that miss the cap count as the cap itself. The
        # random baselines at k=4 and k=5 never converge and wander
        # chaotically, so round-off decides whether one stops at the cap or
        # trips the divergence guard first; either way it missed the cap.
        # The bootstrap side must not diverge, so it is left uncaught.
        cap = 200
        config = TrainerConfig(target_rms=2e-3, max_epochs=cap)
        boot_epochs = {3: [], 4: [], 5: []}
        random_epochs = {3: [], 4: [], 5: []}
        for seed in range(5):
            prev = train(random_schedule(2, 4, seed=seed), ts2, config)
            for k in (3, 4, 5):
                prev = bootstrap(prev, k, config)
                boot_epochs[k].append(prev.epochs_used)
                try:
                    fresh = train(
                        random_schedule(k, 4, seed=seed + 100), build_training_set(k), config
                    )
                    random_epochs[k].append(fresh.epochs_used)
                except TrainingDiverged:
                    random_epochs[k].append(cap)
        for k in (3, 4, 5):
            assert np.mean(boot_epochs[k]) < np.mean(random_epochs[k]), (
                f"k={k}: bootstrap {boot_epochs[k]} vs random {random_epochs[k]}"
            )


class TestConfigValidation:
    def test_positive_fields(self):
        with pytest.raises(ValueError):
            TrainerConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainerConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainerConfig(target_rms=-1e-3)

    @pytest.mark.parametrize("field", ["learning_rate", "target_rms"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_settings_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainerConfig(**{field: value})

    def test_unknown_method_refused(self):
        with pytest.raises(ValueError, match="method"):
            TrainerConfig(method="gates")


class TestArtifacts:
    def test_rms_history_csv(self, table2, ts2):
        result = train(table2, ts2, TrainerConfig(max_epochs=3, target_rms=0.0))
        lines = rms_history_csv(result).splitlines()
        assert lines[0] == "epoch,rms"
        assert len(lines) == 5
        assert float(lines[1].split(",")[1]) == result.rms_history[0]

    def test_bootstrap_summary_csv(self, ts2):
        config = TrainerConfig(target_rms=5e-3, max_epochs=100)
        r2 = train(random_schedule(2, 4, seed=0), ts2, config)
        r3 = bootstrap(r2, 3, config)
        text = bootstrap_summary_csv({2: r2, 3: r3})
        lines = text.splitlines()
        assert lines[0].startswith("n_qubits,epochs,rms,K_0,eps_0,zeta_0")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "2"
        assert lines[2].split(",")[0] == "3"
