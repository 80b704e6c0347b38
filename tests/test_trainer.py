import numpy as np
import pytest

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
            TrainingItem(item.kind, item.state, item.pair, float(values[idx]))
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


class TestGradient:
    def test_matches_manual_central_difference(self, table2, ts2):
        config = TrainerConfig()
        grad = gradient(table2, ts2, config)
        h = config.gradient_step
        vec = schedule_parameters(table2, True)
        for index in (0, 5, 11):
            plus, minus = vec.copy(), vec.copy()
            plus[index] += h
            minus[index] -= h
            expected = (
                training_loss(schedule_with_parameters(table2, plus, True), ts2)
                - training_loss(schedule_with_parameters(table2, minus, True), ts2)
            ) / (2 * h)
            assert grad[index] == pytest.approx(expected, abs=1e-15)

    def test_richardson_consistency(self, ts2):
        schedule = random_schedule(2, 4, seed=5)
        g_coarse = gradient(schedule, ts2, TrainerConfig(gradient_step=1e-5))
        g_fine = gradient(schedule, ts2, TrainerConfig(gradient_step=1e-6))
        assert np.linalg.norm(g_coarse - g_fine) <= 1e-2 * np.linalg.norm(g_fine)

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
            TrainerConfig(gradient_step=-1e-5)
        with pytest.raises(ValueError):
            TrainerConfig(momentum=1.0)


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
