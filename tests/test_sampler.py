import re

import numpy as np
import pytest

from qnnwitness import sampler, witness
from qnnwitness.compiler import compile_schedule
from qnnwitness.core import apply_circuit, check_norm, expectation_zz
from qnnwitness.sampler import (
    MAX_ITERATIONS,
    Z_SCORE,
    ShotConfig,
    rng_stream,
    sample_zz_mean,
    sweep,
    sweep_csv,
)
from qnnwitness.witness import PairStateKind, make_pair_state

from helpers import basis_state, random_state, rng_stream_reference, sample_zz_mean_per_shot, sample_zz_mean_reference
from helpers import z_diagonal

ROW_FIELDS = ("mean", "variance", "ci_half_width", "std", "stderr", "zz_mean", "zz_variance")


def _row_bits(stats, index: int) -> tuple[str, ...]:
    """Every per-count statistic of row ``index``, as exact float hex."""
    return tuple(float.hex(getattr(stats, name)[index]) for name in ROW_FIELDS)


class TestShotConfig:
    def test_default_grid(self):
        config = ShotConfig()
        assert len(config.shot_counts) == 400
        assert config.shot_counts[0] == 50
        assert config.shot_counts[-1] == 20000

    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            ShotConfig(shot_counts=(100, 100))
        with pytest.raises(ValueError):
            ShotConfig(shot_counts=(200, 100))

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            ShotConfig(shot_counts=(0, 10))

    def test_iterations_are_bounded(self):
        assert ShotConfig(iterations=MAX_ITERATIONS).iterations == MAX_ITERATIONS
        for iterations in (0, MAX_ITERATIONS + 1, 10**12):
            with pytest.raises(ValueError, match=f"iterations must lie in 1..{MAX_ITERATIONS}"):
                ShotConfig(iterations=iterations)


    @pytest.mark.parametrize("field, value", [
        ("shot_counts", (50.7,)), ("shot_counts", (50.0,)), ("shot_counts", ("60",)), ("shot_counts", (True,)),
        ("shot_counts", (np.bool_(True),)), ("iterations", 2.5), ("iterations", "100"), ("iterations", False),
        ("seed", 1.5), ("seed", "0"), ("seed", True),
    ])
    def test_non_integers_refused(self, field, value):
        # a float, even a whole one, is refused rather than truncated into a row labelled otherwise
        with pytest.raises(ValueError, match="must be an integer, got"):
            ShotConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        config = ShotConfig(shot_counts=(np.int64(50), np.uint16(100)), iterations=np.int32(7), seed=np.uint64(3))
        assert config == ShotConfig(shot_counts=(50, 100), iterations=7, seed=3)
        assert all(type(value) is int for value in (*config.shot_counts, config.iterations, config.seed))


class TestSampleZZWitness:
    def test_deterministic_state_always_one(self):
        rng = rng_stream(0, 100, 0)
        assert sample_zz_mean(basis_state(2, 0b00), (0, 1), 100, rng) ** 2 == 1.0

    def test_flat_state_estimator_mean_is_one_over_n(self):
        # E[(mean of +-1 with p=1/2)^2] = 1/n
        flat = np.full(4, 0.5, dtype=complex)
        n_shots = 1000
        estimates = [
            sample_zz_mean(flat, (0, 1), n_shots, rng_stream(1, n_shots, it)) ** 2 for it in range(1000)
        ]
        assert np.mean(estimates) == pytest.approx(1.0 / n_shots, rel=0.2)

    def test_bell_through_table2_circuit(self, table2):
        from qnnwitness.compiler import compile_schedule
        from qnnwitness.core import apply_circuit
        from qnnwitness.witness import make_pair_state, witness_value

        bell = make_pair_state(PairStateKind.BELL, (0, 1), 2)
        final = apply_circuit(bell, compile_schedule(table2))
        exact = witness_value(bell, (0, 1), table2, "gates")
        estimate = sample_zz_mean(final, (0, 1), 15000, rng_stream(2, 15000, 0)) ** 2
        assert abs(estimate - exact) < 0.01
        assert abs(estimate - 0.999) < 0.01

    def test_unnormalized_rejected(self):
        state = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            sample_zz_mean(state, (0, 1), 10, rng_stream(0, 10, 0))

    def test_nan_state_rejected(self):
        # abs(nan - 1) > tol is false, so a plain tolerance test lets NaN through
        state = np.full(4, np.nan, dtype=complex)
        with pytest.raises(ValueError):
            check_norm(float(np.vdot(state, state).real))
        with pytest.raises(ValueError):
            sample_zz_mean(state, (0, 1), 10, rng_stream(0, 10, 0))

    def test_normalization_tolerance_and_message(self):
        # the norm comes from the same squared moduli as <ZZ>, refused to 1e-10 as before
        flat = np.full(4, 0.5, dtype=complex)
        sample_zz_mean(flat * np.sqrt(1 + 0.5e-10), (0, 1), 10, rng_stream(0, 10, 0))
        with pytest.raises(ValueError, match=r"^state is not normalized: sum \|amp\|\^2 = 1\.0000000002"):
            sample_zz_mean(flat * np.sqrt(1 + 2e-10), (0, 1), 10, rng_stream(0, 10, 0))

    @pytest.mark.parametrize("value, message", [
        (10.5, "^n_shots must be an integer, got 10.5$"), (10.0, "^n_shots must be an integer, got 10.0$"),
        (True, "^n_shots must be an integer, got True$"), (np.bool_(True), "^n_shots must be an integer, got "),
        ("10", "^n_shots must be an integer, got '10'$"), (0, "^n_shots must be positive$"),
        (-3, "^n_shots must be positive$"),
        (sampler._MAX_SHOTS + 1, f"^n_shots must not exceed {sampler._MAX_SHOTS}, the largest binomial draw$"),
    ])
    def test_shot_counts_are_refused_as_shot_config_refuses_them(self, value, message):
        with pytest.raises(ValueError, match=message):
            sample_zz_mean(basis_state(2), (0, 1), value, rng_stream(0, 10, 0))
        with pytest.raises(ValueError):
            ShotConfig(shot_counts=(value,))

    def test_numpy_shot_counts_draw_as_ints(self):
        flat = np.full(4, 0.5, dtype=complex)
        want = sample_zz_mean(flat, (0, 1), 1000, rng_stream(0, 1000, 0))
        for count in (np.int64(1000), np.uint16(1000)):
            got = sample_zz_mean(flat, (0, 1), count, rng_stream(0, 1000, 0))
            assert type(got) is float and got == want

    def test_refusals_keep_the_two_pass_messages(self):
        cases = [
            (basis_state(2), (1, 1)), (basis_state(2), (0, 2)), (basis_state(2), (-1, 0)),
            (np.stack([basis_state(2)] * 2), (0, 1)), (np.zeros(0), (0, 1)), (np.zeros(3, dtype=complex), (0, 1)),
            (np.full(4, np.nan, dtype=complex), (0, 1)), (np.array([1.0, 1.0, 0.0, 0.0]), (0, 1)),
            (np.array([np.inf, 0, 0, 0]), (0, 1)),
        ]
        for state, pair in cases:
            with pytest.raises(ValueError) as want:
                sample_zz_mean_reference(state, pair, 10, rng_stream(0, 10, 0))
            with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
                sample_zz_mean(state, pair, 10, rng_stream(0, 10, 0))
        with pytest.raises(ValueError, match="^state dimension 0 is not a power of two$"):
            sample_zz_mean(np.zeros(0, dtype=complex), (0, 1), 10, rng_stream(0, 10, 0))

    def test_sweep_csv_is_the_two_pass_read_out_byte_for_byte(self, monkeypatch, table3):
        config = ShotConfig(shot_counts=(50, 1000, 20000), iterations=300, seed=7)
        text = sweep_csv(sweep(table3, PairStateKind.P, (0, 1), config))
        monkeypatch.setattr(sampler, "sample_zz_mean", sample_zz_mean_reference)
        assert sweep_csv(sweep(table3, PairStateKind.P, (0, 1), config)) == text

    @pytest.mark.parametrize("n", [2, 7])
    def test_one_binomial_draw_on_the_cell_stream(self, n):
        # each run is (2k - n)/n for k the cell stream's one binomial draw at
        # p = (1 + <ZZ>)/2, whatever numpy's binomial algorithm
        rng = np.random.default_rng(n)
        cells = zip(rng.integers(1, 20001, size=200), rng.integers(0, 100, size=200))
        for index, (count, it) in enumerate(cells):
            state = random_state(n, rng) if index % 20 == 0 else state
            pair = (0, 1) if index % 2 else (n - 1, 0)
            parity = z_diagonal(n, pair[0]) * z_diagonal(n, pair[1])
            zz = min(1.0, max(-1.0, float((np.abs(state) ** 2 * parity).sum())))
            count, it = int(count), int(it)
            k = int(rng_stream(11, count, it).binomial(count, (1.0 + zz) / 2.0))
            assert sample_zz_mean(state, pair, count, rng_stream(11, count, it)) == (2 * k - count) / count

    def test_estimator_bias_matches_binomial_model(self):
        # E[zbar^2] = <ZZ>^2 + (1 - <ZZ>^2)/n; flat state has <ZZ> = 0
        flat = np.full(4, 0.5, dtype=complex)
        n_shots = 1000
        estimates = [
            sample_zz_mean(flat, (0, 1), n_shots, rng_stream(3, n_shots, it)) ** 2 for it in range(1000)
        ]
        bias = float(np.mean(estimates))
        assert abs(bias - 1.0 / n_shots) < 0.2 / n_shots


ORACLE_CASES = pytest.mark.parametrize(
    "schedule_name, kind, check_variance",
    [("table2", PairStateKind.P, True), ("table2", PairStateKind.C, True), ("table3", PairStateKind.BELL, False)],
    ids=["P_table2", "C_table2", "Bell_table3"],
)


class TestBinomialMatchesPerShot:
    """The one-draw sampler against the per-shot inverse-CDF oracle."""

    RUNS = 2000
    SHOTS = 400

    def _final_and_model(self, schedule, kind, pair):
        """Final state, exact <ZZ>, one run's variance and the stderr of a RUNS-run mean."""
        final = apply_circuit(make_pair_state(kind, pair, schedule.n_qubits), compile_schedule(schedule))
        exact = expectation_zz(final, *pair)
        run_variance = (1.0 - exact**2) / self.SHOTS
        return final, exact, run_variance, (run_variance / self.RUNS) ** 0.5

    @ORACLE_CASES
    def test_same_mean_and_variance(self, request, schedule_name, kind, check_variance):
        schedule = request.getfixturevalue(schedule_name)
        pair = (0, 1)
        final, exact, run_variance, stderr = self._final_and_model(schedule, kind, pair)
        for sampler in (sample_zz_mean, sample_zz_mean_per_shot):
            zbars = np.array(
                [sampler(final, pair, self.SHOTS, rng_stream(0, self.SHOTS, it)) for it in range(self.RUNS)]
            )
            assert abs(float(np.mean(zbars)) - exact) <= 4 * stderr, sampler.__name__
            if check_variance:
                assert float(np.var(zbars, ddof=1)) == pytest.approx(run_variance, rel=0.15), sampler.__name__

    @ORACLE_CASES
    def test_sweep_matches_the_oracle(self, request, schedule_name, kind, check_variance):
        # a whole sweep row, not single runs, against per-shot sampling
        schedule = request.getfixturevalue(schedule_name)
        pair = (0, 1)
        final, exact, run_variance, stderr = self._final_and_model(schedule, kind, pair)
        stats = sweep(schedule, kind, pair, ShotConfig(shot_counts=(self.SHOTS,), iterations=self.RUNS, seed=0))
        oracle = np.array(
            [sample_zz_mean_per_shot(final, pair, self.SHOTS, rng_stream(1, self.SHOTS, it)) for it in range(self.RUNS)]
        )
        assert abs(stats.zz_mean[0] - exact) <= 4 * stderr
        assert abs(stats.zz_mean[0] - float(np.mean(oracle))) <= 4 * stderr
        if check_variance:
            assert stats.zz_variance[0] == pytest.approx(run_variance, rel=0.15)
            assert stats.zz_variance[0] == pytest.approx(float(np.var(oracle, ddof=1)), rel=0.15)


class TestRngStreams:
    def test_same_key_same_stream(self):
        a = rng_stream(7, 500, 3).random(5)
        b = rng_stream(7, 500, 3).random(5)
        assert np.array_equal(a, b)

    def test_different_iterations_differ(self):
        a = rng_stream(7, 500, 3).random(5)
        b = rng_stream(7, 500, 4).random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = rng_stream(7, 500, 3).random(5)
        b = rng_stream(8, 500, 3).random(5)
        assert not np.array_equal(a, b)

    def test_different_counts_differ(self):
        a = rng_stream(7, 500, 3).random(5)
        b = rng_stream(7, 550, 3).random(5)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("value", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, -1])
    def test_key_is_the_digest_of_the_cell(self, value):
        # the key is the BLAKE2b digest of [seed, shot_count, iteration], each
        # mod 2**64, at every word boundary and in every position
        for seed, count, it in ((value, 500, 3), (7, value, 3), (7, 500, value)):
            assert np.array_equal(rng_stream(seed, count, it).random(4),
                                  rng_stream_reference(seed, count, it).random(4)), (seed, count, it)

    def test_streams_are_the_reference_on_random_cells(self):
        # the first and last iterations a sweep takes, and 64-bit seeds and
        # counts with 64-bit and negative iterations
        rng = np.random.default_rng(37)
        ends = (0, MAX_ITERATIONS - 1)
        cells = [(seed, count, it) for seed, count in ((0, 50), (7, 20000), (2**40, 2**63)) for it in ends]
        for seed, count, it in rng.integers(0, 2**64, size=(200, 3), dtype=np.uint64).tolist():
            cells.append((seed, count, (it % MAX_ITERATIONS, it, -it)[seed % 3]))
        for seed, count, it in cells:
            assert np.array_equal(rng_stream(seed, count, it).random(4),
                                  rng_stream_reference(seed, count, it).random(4)), (seed, count, it)

    def test_sweep_csv_is_the_reference_streams_byte_for_byte(self, monkeypatch, table2):
        config = ShotConfig(shot_counts=(50, 1000, 20000), iterations=300, seed=3)
        text = sweep_csv(sweep(table2, PairStateKind.FLAT, (0, 1), config))
        monkeypatch.setattr(sampler, "rng_stream", rng_stream_reference)
        assert sweep_csv(sweep(table2, PairStateKind.FLAT, (0, 1), config)) == text

    def test_a_stream_cannot_spawn(self):
        # its seed sequence is the precomputed key, which has no spawn key to extend
        with pytest.raises(TypeError):
            rng_stream(7, 500, 3).spawn(1)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.SFC64])
    def test_a_stream_key_seeds_no_other_bit_generator(self, bit_generator):
        # the key is Philox's two words whatever size is asked for; an array of them
        # would let PCG64 read four words from two, past the key's end
        with pytest.raises(TypeError):
            bit_generator(rng_stream(7, 500, 3).bit_generator.seed_seq)


class TestConfidenceInterval:
    def test_constant_samples(self, zero_schedule):
        # every run of a deterministic state gives the same estimate, so the interval closes on it
        config = ShotConfig(shot_counts=(50, 200), iterations=10, seed=0)
        stats = sweep(zero_schedule, PairStateKind.BELL, (0, 1), config)
        assert stats.ci_low == stats.ci_high == stats.mean == (1.0, 1.0)

    def test_z_score_pinned(self):
        assert Z_SCORE == pytest.approx(1.959964, abs=1e-6)

    def test_interval_is_mean_plus_minus_z_std(self, table2):
        # the interval covers single-experiment outcomes: mean +- z * std(ddof=1)
        count, iterations = 200, 30
        final = apply_circuit(make_pair_state(PairStateKind.C, (0, 1), 2), compile_schedule(table2))
        estimates = [sample_zz_mean(final, (0, 1), count, rng_stream(5, count, it)) ** 2 for it in range(iterations)]
        stats = sweep(table2, PairStateKind.C, (0, 1), ShotConfig(shot_counts=(count,), iterations=iterations, seed=5))
        half = 1.959964 * float(np.std(estimates, ddof=1))
        assert stats.ci_low[0] == pytest.approx(float(np.mean(estimates)) - half, rel=1e-6)
        assert stats.ci_high[0] == pytest.approx(float(np.mean(estimates)) + half, rel=1e-6)


class TestSweep:
    def test_deterministic_state_zero_variance(self, zero_schedule):
        # Bell through the identity circuit: both outcomes have parity +1
        config = ShotConfig(shot_counts=(50, 100, 200), iterations=20, seed=0)
        stats = sweep(zero_schedule, PairStateKind.BELL, (0, 1), config)
        assert stats.variance == (0.0, 0.0, 0.0)
        assert stats.mean == (1.0, 1.0, 1.0)

    def test_bell_ci_width_at_15000(self, table2):
        config = ShotConfig(shot_counts=(15000,), iterations=100, seed=0)
        stats = sweep(table2, PairStateKind.BELL, (0, 1), config)
        assert stats.ci_half_width[0] <= 0.002
        assert stats.mean[0] == pytest.approx(0.9988, abs=2e-3)

    def test_flat_variance_slopes(self, table2):
        # unsquared estimator: var ~ 1/n; squared witness estimator: ~ 1/n^2
        counts = tuple(range(500, 16001, 500))
        stats = sweep(table2, PairStateKind.FLAT, (0, 1), ShotConfig(shot_counts=counts, iterations=100, seed=0))
        logn = np.log(np.array(counts))
        zz_slope = np.polyfit(logn, np.log(np.array(stats.zz_variance)), 1)[0]
        w_slope = np.polyfit(logn, np.log(np.array(stats.variance)), 1)[0]
        assert zz_slope == pytest.approx(-1.0, abs=0.15)
        assert w_slope == pytest.approx(-2.0, abs=0.3)

    def test_fitted_variance_decreases_for_all_states(self, table2):
        counts = tuple(range(250, 8001, 250))
        logn = np.log(np.array(counts))
        for kind in PairStateKind:
            stats = sweep(table2, kind, (0, 1), ShotConfig(shot_counts=counts, iterations=60, seed=1))
            variance = np.array(stats.variance)
            if np.all(variance == 0.0):
                continue  # deterministic outcome
            slope = np.polyfit(logn, np.log(variance), 1)[0]
            assert slope < 0, f"{kind} variance trend is not decreasing"

    def test_unsquared_estimator_unbiased(self, table2):
        from qnnwitness.compiler import compile_schedule
        from qnnwitness.core import apply_circuit, expectation_zz
        from qnnwitness.witness import make_pair_state

        state = make_pair_state(PairStateKind.P, (0, 1), 2)
        exact = expectation_zz(apply_circuit(state, compile_schedule(table2)), 0, 1)
        config = ShotConfig(shot_counts=(4000,), iterations=200, seed=2)
        stats = sweep(table2, PairStateKind.P, (0, 1), config)
        stderr = np.sqrt(stats.zz_variance[0] / config.iterations)
        assert abs(stats.zz_mean[0] - exact) <= 3 * stderr

    def test_each_row_equals_its_one_count_sweep(self, table2):
        # a count's row is keyed on (seed, count, iteration) alone: neither
        # the other counts in the grid nor the order they run in change its bits
        counts = (50, 150, 400, 1000, 2500)
        def run(shot_counts):
            return sweep(table2, PairStateKind.C, (0, 1), ShotConfig(shot_counts=shot_counts, iterations=30, seed=4))

        full = run(counts)
        shuffled = [int(i) for i in np.random.default_rng(0).permutation(len(counts))]
        for order in (range(len(counts)), shuffled):
            for index in order:
                assert _row_bits(run((counts[index],)), 0) == _row_bits(full, index)
        subset = run(counts[1::2])
        assert [_row_bits(subset, i) for i in range(2)] == [_row_bits(full, i) for i in (1, 3)]

    @pytest.mark.parametrize("scale", [2.0, np.nan], ids=["unnormalized", "nan"])
    def test_bad_final_state_refused(self, monkeypatch, table2, scale):
        # the sweep's final state comes from the dense dispatcher's gate run
        original = witness.apply_circuit
        monkeypatch.setattr(witness, "apply_circuit", lambda state, circuit: scale * original(state, circuit))
        with pytest.raises(ValueError, match="not normalized"):
            sweep(table2, PairStateKind.BELL, (0, 1), ShotConfig(shot_counts=(50,), iterations=5))

    def test_reproducible(self, table2):
        config = ShotConfig(shot_counts=(50, 150), iterations=10, seed=9)
        a = sweep(table2, PairStateKind.C, (0, 1), config)
        b = sweep(table2, PairStateKind.C, (0, 1), config)
        assert a == b

    def test_csv_layout(self, table2):
        config = ShotConfig(shot_counts=(50, 100), iterations=5, seed=0)
        stats = sweep(table2, PairStateKind.BELL, (0, 1), config)
        lines = sweep_csv(stats).splitlines()
        assert lines[0] == "shot_count,mean,variance,ci_low,ci_high,std,stderr,zz_mean,zz_variance"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "50"
        assert float(first[3]) <= float(first[1]) <= float(first[4])
