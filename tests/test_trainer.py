import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnnwitness import hamiltonian, trainer
from qnnwitness.hamiltonian import ChunkParams, Schedule, refine_schedule
from qnnwitness.trainer import (
    MAX_CHUNKS,
    TrainerConfig,
    TrainingDiverged,
    bootstrap,
    bootstrap_chain,
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
from qnnwitness.witness import PairStateKind, TrainingItem, TrainingSet, build_training_set, witness_values

from helpers import central_difference_gradient, count_calls, orbit_tangent_gradient


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
        for epochs in (0, 1):  # train's forward-only and gradient evaluations
            with pytest.raises(ValueError, match="training set is empty"):
                train(table2, TrainingSet(2, ()), TrainerConfig(max_epochs=epochs))


ENTRY_POINTS = {
    "witness_values": lambda schedule, training_set, method: witness_values(training_set, schedule, method),
    "rms_error": rms_error,
    "gradient": lambda schedule, training_set, method: gradient(schedule, training_set, TrainerConfig(method=method)),
}


@pytest.mark.parametrize("entry, method", [
    (entry, method) for entry in ENTRY_POINTS for method in ("chunked", "exact", "gates")
    if (entry, method) != ("gradient", "gates")  # a gradient takes chunked or exact
])
@pytest.mark.parametrize("training_set, message", [
    (TrainingSet(2, ()), "training set is empty"),
    (build_training_set(3), "training set is for 3 qubits, schedule for 2"),
    (TrainingSet(3, ()), "training set is for 3 qubits, schedule for 2"),  # the register is checked first
], ids=["empty", "other_register", "empty_other_register"])
def test_each_entry_point_refuses_a_set_that_does_not_fit(table2, entry, method, training_set, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ENTRY_POINTS[entry](table2, training_set, method)


@pytest.mark.parametrize("entry, method", [
    (entry, method) for entry in ("witness_values", "rms_error", "train") for method in ("chunked", "exact", "gates")
    if (entry, method) != ("train", "gates")  # training takes chunked or exact
])
@pytest.mark.parametrize("pair", [(5, 9), (3, 3), (4, 2), (-1, 2)])
def test_no_entry_point_reads_a_pair_the_register_does_not_hold(table3, entry, method, pair):
    # chunked and exact under a symmetric schedule read only each item's kind
    evaluate = {
        "witness_values": ENTRY_POINTS["witness_values"],
        "rms_error": rms_error,
        "train": lambda schedule, training_set, method: train(
            schedule, training_set, TrainerConfig(max_epochs=1, method=method)),
    }[entry]
    with pytest.raises(ValueError, match=re.escape(f"pair {pair} must satisfy 0 <= i < j < 7")):
        evaluate(table3, TrainingSet(7, (TrainingItem(PairStateKind.BELL, pair, 1.0),)), method)


class TestParameterVector:
    def test_symmetric_round_trip(self, table2):
        vec = schedule_parameters(table2)
        assert len(vec) == 12
        assert schedule_with_parameters(table2, vec) == table2

    def test_wrong_length_rejected(self, table2):
        with pytest.raises(ValueError):
            schedule_with_parameters(table2, np.zeros(7))


def schedule_with_idle_chunk(n: int = 3) -> Schedule:
    """Uniform schedule whose middle chunk has K = eps = 0, so only its couplings act."""
    chunks = (ChunkParams.uniform(n, 2.1, -0.4, 0.3), ChunkParams.uniform(n, 0.0, 0.0, -0.7),
              ChunkParams.uniform(n, -1.2, 0.8, 0.5))
    return Schedule(n, 1.58, chunks)


def non_uniform_schedule(n: int = 3) -> Schedule:
    """A schedule whose qubits do not share their parameters."""
    chunk = ChunkParams(tuple(0.5 + 0.1 * q for q in range(n)), (0.2,) * n, (0.3,) * (n * (n - 1) // 2))
    return Schedule(n, 1.58, (chunk, chunk))


def assert_matches_oracle(schedule, method, floor=0.0):
    training_set = build_training_set(schedule.n_qubits)
    _, grad = gradient(schedule, training_set, TrainerConfig(method=method))
    params = schedule_parameters(schedule)
    assert grad.shape == params.shape

    def loss(vector):
        return training_loss(schedule_with_parameters(schedule, vector), training_set, method)

    oracle = central_difference_gradient(loss, params)
    assert np.max(np.abs(grad - oracle)) <= 1e-8 * np.linalg.norm(grad) + floor


ORACLE_CASES = {
    "table2-symmetric": "table2",
    "table3-symmetric": "table3",
    "idle3-symmetric": "idle3",
}


@st.composite
def schedules(draw):
    n = draw(st.integers(2, 3))
    value = st.floats(-3, 3)
    chunks = [ChunkParams.uniform(n, draw(value), draw(value), draw(value)) for _ in range(draw(st.integers(1, 3)))]
    return Schedule(n, draw(st.floats(0.2, 2.0)), tuple(chunks))


class TestGradient:
    @pytest.mark.parametrize("method", ["chunked", "exact"])
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_fourth_order_oracle(self, case, method, table2, table3):
        schedule = {"table2": table2, "table3": table3, "idle3": schedule_with_idle_chunk()}[ORACLE_CASES[case]]
        assert_matches_oracle(schedule, method)

    @given(schedules(), st.sampled_from(["chunked", "exact"]))
    @settings(deadline=None, max_examples=40)
    def test_matches_oracle_on_drawn_schedules(self, schedule, method):
        # a drawn schedule can sit on a stationary point (all zeros does), where
        # the oracle's own round-off, about 1e-13 here, is all that is left
        assert_matches_oracle(schedule, method, floor=1e-10)

    def test_symmetric_layout_refuses_non_uniform_chunks(self):
        with pytest.raises(ValueError, match="non-symmetric chunk"):
            gradient(non_uniform_schedule(), build_training_set(3), TrainerConfig())

    # |(K, eps)|^2 overflows a float in both, and the closed-form partials never form it; 2 total_time
    # times a chunk's norm bound reaches 6e-40 and 6e10 radians, where floats are that times 2**-52 apart
    @pytest.mark.parametrize("method", ["chunked", "exact"])
    @pytest.mark.parametrize("tunneling, total_time, chunks", [(1e155, 1e-195, 4), (1e200, 1e-190, 1)],
                             ids=["K_1e155", "K_1e200"])
    def test_huge_tunneling_gradient_matches_the_tangent_reference(self, method, tunneling, total_time, chunks):
        schedule = Schedule(3, total_time, (ChunkParams.uniform(3, tunneling, 0.3, 0.2),) * chunks)
        _, want = orbit_tangent_gradient(schedule, build_training_set(3), method)
        _, got = gradient(schedule, build_training_set(3), TrainerConfig(method=method))
        # chunked's three diagonals hold its phases to round-off (measured 1.3e-13 and 1.8e-15); exact's
        # eigh carries a few units of the largest phase's last place into every entry (measured 1.7e-14,
        # and 4e-6 against a bound of 5.3e-5 at 6e10 radians)
        phase = 2 * total_time * max(ck.norm_bound for ck in schedule.chunks)
        bound = 1e-12 if method == "chunked" else max(1e-12, 2**-50 * phase)
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

    # x = dt |(K, eps)| is subnormal and holds few bits, so sin(x)/|(K, eps)| is far from dt: factor
    # partials that read their s as that quotient put chunked 0.43 and 1.4e-4 of the largest entry off
    @pytest.mark.parametrize("method", ["chunked", "exact"])
    @pytest.mark.parametrize("tunneling", [5e-324, 1e-320])
    def test_subnormal_rotation_gradient_matches_the_tangent_reference(self, method, tunneling):
        schedule = Schedule(3, 0.7, (ChunkParams.uniform(3, tunneling, 0.0, 0.2),))
        _, want = orbit_tangent_gradient(schedule, build_training_set(3), method)
        _, got = gradient(schedule, build_training_set(3), TrainerConfig(method=method))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_small_near_minimum(self, table2, ts2):
        settled = train(table2, ts2, TrainerConfig(target_rms=0.0, max_epochs=300))
        _, grad = gradient(settled.schedule, ts2, TrainerConfig())
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
            _, grad = gradient(schedule, ts2, TrainerConfig())
            if np.linalg.norm(grad) < 1e-6:
                continue
            vec = schedule_parameters(schedule) - 1e-3 * grad
            stepped = schedule_with_parameters(schedule, vec)
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

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning, which a cold process prints, fails the test
    def test_a_step_past_the_float_range_is_refused_naming_the_rate_and_the_epoch(self):
        # the learning rate times the first gradient overflows a float: refused by name, with no numpy warning
        config = TrainerConfig(learning_rate=1.992853074454984e307, max_epochs=1)
        with pytest.raises(ValueError, match=r"^learning rate 1\.992853074454984e\+307 overflows a parameter at epoch 1$"):
            train(random_schedule(4, 4, 0), build_training_set(4), config)

    def test_the_initial_schedule_is_evaluated_as_given(self, monkeypatch, table2, ts2):
        calls = count_calls(monkeypatch, [(trainer, "schedule_with_parameters")])
        for epochs in (0, 1):
            result = train(table2, ts2, TrainerConfig(max_epochs=epochs, target_rms=0.0))
            assert result.rms_history[0] == rms_error(table2, ts2)
        assert result.schedule is not table2 and calls == {"schedule_with_parameters": 1}  # the one step
        assert train(table2, ts2, TrainerConfig(target_rms=5e-3)).schedule is table2

    def test_non_uniform_initial_schedule_is_refused(self):
        # the trainer's only parameters are the ones every qubit shares
        with pytest.raises(ValueError, match="cannot extract shared parameters"):
            train(non_uniform_schedule(), build_training_set(3), TrainerConfig(max_epochs=1))

    def test_eight_chunk_refinement_trains(self, table2, ts2):
        refined = refine_schedule(table2, 2)
        result = train(refined, ts2, TrainerConfig(target_rms=5e-3, max_epochs=50))
        assert result.schedule.n_chunks == 8
        assert result.final_rms <= 5e-3


# both methods: a chunk's forward step, its backward step under chunked and under exact; then the one build
# of every chunk's sector steps: exact's Hamiltonians for its batched eigh, chunked's cached basis that its
# diagonals share
SWEEP_STEPS = ("_forward_step", "_chunked_backward", "_exact_backward", "spin_sector_hamiltonian", "wigner_basis")


class TestSweepsPerEpoch:
    # train reads each stepped schedule's rms from gradient's forward sweep
    # and evaluates forward-only only the schedule it stops at

    @pytest.mark.parametrize("method", ["chunked", "exact"])
    @pytest.mark.parametrize("n", [2, 7])
    def test_reported_rms_is_the_rms_of_each_epochs_schedule(self, table2, table3, n, method):
        init, training_set = {2: table2, 7: table3}[n], build_training_set(n)
        history = train(init, training_set, TrainerConfig(max_epochs=5, target_rms=0.0, method=method)).rms_history
        assert len(history) == 6
        for k, reported in enumerate(history):
            # a k-epoch train takes the same first k steps, so it ends at epoch k's schedule
            schedule = train(init, training_set, TrainerConfig(max_epochs=k, target_rms=0.0, method=method)).schedule
            assert abs(reported - rms_error(schedule, training_set, method)) <= 1e-12

    @pytest.mark.parametrize("method", ["chunked", "exact"])
    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_k_epochs_cost_k_plus_one_forward_and_k_backward_sweeps(self, monkeypatch, table3, method, epochs):
        forward, chunked_backward, exact_backward, hamiltonians, basis = SWEEP_STEPS
        calls = count_calls(monkeypatch, [(hamiltonian, name) for name in SWEEP_STEPS] + [(np.linalg, "eigh")])
        result = train(table3, build_training_set(7), TrainerConfig(max_epochs=epochs, target_rms=0.0, method=method))
        assert result.epochs_used == epochs
        chunks = table3.n_chunks
        # one build of every chunk's blocks per forward sweep, shared by its backward sweep: exact's one
        # batched eigendecomposition, chunked's closed form, which diagonalises nothing
        builds = {hamiltonians: epochs + 1, "eigh": epochs + 1, basis: 0} if method == "exact" else {
            hamiltonians: 0, "eigh": 0, basis: epochs + 1}
        steps = {forward: (epochs + 1) * chunks, chunked_backward: 0, exact_backward: 0}
        assert calls == {**steps, f"_{method}_backward": epochs * chunks, **builds}

    @pytest.mark.parametrize("method", ["chunked", "exact"])
    def test_schedule_at_target_returns_after_at_most_one_backward_sweep(self, monkeypatch, table2, ts2, method):
        target = rms_error(table2, ts2, method)
        forward, backward = SWEEP_STEPS[0], f"_{method}_backward"
        calls = count_calls(monkeypatch, [(hamiltonian, forward), (hamiltonian, backward)])
        result = train(table2, ts2, TrainerConfig(target_rms=target, method=method))
        assert (result.epochs_used, result.converged) == (0, True)
        assert calls[forward] == table2.n_chunks
        assert calls[backward] <= table2.n_chunks


class TestBootstrap:
    def test_three_from_two(self, ts2):
        base = train(random_schedule(2, 4, seed=0), ts2, TrainerConfig())
        result = bootstrap(base, 3, TrainerConfig(target_rms=2e-3, max_epochs=500))
        assert result.converged
        assert result.epochs_used <= 500
        assert result.final_rms <= 2e-3

    def test_requires_symmetric_source(self):
        # a source is symmetric when its chunks are uniform; here one K differs
        asym = Schedule(2, 1.58, (ChunkParams((2.5, 2.4), (0.1, 0.1), (0.05,)),) * 4)
        from qnnwitness.trainer import TrainResult

        with pytest.raises(ValueError, match="cannot extract shared parameters"):
            bootstrap(TrainResult(asym, (1.0,), False), 3, TrainerConfig())

    def test_chain_from_a_given_start(self, ts2):
        # the default start is the config's random schedule; a given one is
        # trained as it is
        config = TrainerConfig(target_rms=2e-3, max_epochs=50, seed=3)
        default = bootstrap_chain(3, config)
        given_start = bootstrap_chain(3, config, random_schedule(2, 4, seed=3))
        assert [r.rms_history for r in default.values()] == [r.rms_history for r in given_start.values()]
        refined = bootstrap_chain(3, TrainerConfig(target_rms=2e-3, max_epochs=50, chunk_count=8),
                                  refine_schedule(default[2].schedule, 2))
        assert sorted(refined) == [2, 3] and refined[3].schedule.n_chunks == 8
        with pytest.raises(ValueError):  # the n=2 training set does not fit it
            bootstrap_chain(3, config, random_schedule(3, 4, seed=3))

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

    def test_chunk_count_is_bounded(self):
        assert TrainerConfig(chunk_count=MAX_CHUNKS).chunk_count == MAX_CHUNKS
        for chunks in (0, MAX_CHUNKS + 1, 10**12):
            with pytest.raises(ValueError, match=f"chunk count must lie in 1..{MAX_CHUNKS}"):
                TrainerConfig(chunk_count=chunks)
            with pytest.raises(ValueError, match=f"chunk count must lie in 1..{MAX_CHUNKS}"):
                random_schedule(2, chunks, seed=0)

    @pytest.mark.parametrize("seed", [-1, -5, 1.5, "0", None, True, np.float64(2.0)])
    def test_a_seed_that_is_not_a_non_negative_int_is_refused_by_name(self, seed):
        message = re.escape(f"seed must be a non-negative integer, got {seed!r}")
        with pytest.raises(ValueError, match=message):
            TrainerConfig(seed=seed)
        with pytest.raises(ValueError, match=message):
            random_schedule(2, 4, seed)

    def test_large_and_numpy_integer_seeds_are_accepted(self):
        for seed in (0, 2**64, np.int64(7)):
            assert TrainerConfig(seed=seed).seed == seed
            assert random_schedule(2, 4, seed).n_qubits == 2


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
