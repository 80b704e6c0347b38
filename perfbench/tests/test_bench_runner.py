"""Tests of op accounting and tracing in the benchmark harness.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import math

import qnnwitness.sampler as sampler
from qnnwitness import ShotConfig, fixture_schedule
from qnnwitness.witness import PairStateKind
from spans import ATTRS, NAME, OP, PARENT, Tracer
from workloads import Missed, Refused, Runner, rounds_for


def failed_ops_ratio(runner):
    return runner.failed / runner.attempted


def test_a_failing_check_counts_as_failed_and_wrong():
    runner = Runner()
    runner.op("n2", 2, lambda: 1.0, check=lambda result: [])
    runner.op("n2", 2, lambda: 2.0, check=lambda result: ["deliberately failing check"])
    assert (runner.attempted, runner.failed) == (2, 1)
    assert failed_ops_ratio(runner) == 0.5
    assert list(runner.wrong) == [2]
    assert runner.sample_lists()["n2"][1] == math.inf


def test_each_timed_op_is_paired_with_a_reference_kernel_time():
    runner = Runner()
    runner.op(None, 2, lambda: 0)  # warm-up: not timed
    runner.op("n2", 2, lambda: sum(range(100000)))
    assert list(runner.kernel) == [2]
    (ratio,) = runner.ratio_lists()["n2"]
    assert ratio == runner.sample_lists()["n2"][0] / runner.kernel[2] > 0


def test_exceptions_refusals_and_misses_all_count_as_failed():
    runner = Runner()

    def boom():
        raise ValueError("undocumented")

    def refuse(result):
        raise Refused("no convergence")

    def miss(result):
        raise Missed("rms went up")

    runner.op("n7", 7, boom)
    runner.op("n7", 7, lambda: None, check=refuse)
    runner.op("n7", 7, lambda: None, check=miss)
    runner.op("n7", 7, lambda: None)
    assert runner.failed == 3
    assert failed_ops_ratio(runner) == 0.75
    assert list(runner.wrong) == [1] and list(runner.refused) == [2] and list(runner.missed) == [3]
    samples = runner.sample_lists()["n7"]
    assert samples[:2] == [math.inf, math.inf]  # no usable result
    assert math.isfinite(samples[2]) and math.isfinite(samples[3])  # the work was done


def test_a_joint_check_fails_every_op_it_covers():
    runner = Runner()
    for _ in range(3):
        runner.op("n2", 2, lambda: 0)
    runner.fail([1, 3], "slope out of range")
    assert runner.failed == 2
    assert runner.sample_lists()["n2"][0] == math.inf


def test_a_run_does_a_fixed_number_of_rounds_set_by_seconds():
    assert rounds_for(30, 0.24, 100) == 125
    assert rounds_for(30, 10.0, 2) == 3
    assert rounds_for(1, 0.24, 100) == 100  # never below the minimum


def test_tracer_records_spans_inside_ops_and_restores_attributes():
    original = sampler.rng_stream
    schedule = fixture_schedule("table2")
    config = ShotConfig(shot_counts=(10,), iterations=2)
    tracer = Tracer()
    with tracer:
        runner = Runner(tracer)
        runner.op("n2", 2, lambda: sampler.sweep(schedule, PairStateKind.BELL, (0, 1), config))
        sampler.rng_stream(0, 1, 2)  # outside an op: not recorded
    assert sampler.rng_stream is original
    names = [span[NAME] for span in tracer.spans]
    assert names.count("sampler.rng_stream") == 2
    assert names.count("sampler.sample_zz_mean") == 2
    assert names[0] == "op.n2" and tracer.spans[0][PARENT] is None
    assert all(span[OP] == 1 for span in tracer.spans)
    draws = [span for span in tracer.spans if span[NAME] == "sampler.sample_zz_mean"]
    assert all(span[ATTRS] == {"shots": 10} for span in draws)
    mapped = names.index("parallel.map_ordered")
    assert all(tracer.spans[names.index(name)][PARENT] == mapped for name in ("sampler.rng_stream",))


def test_a_metric_left_infinite_by_failed_ops_is_reported_as_null():
    from run import result_line

    line = json.loads(result_line(True, 10, 10, {"a": math.inf, "b": 1.5}, {"a": "ratio", "b": "s"}))
    assert line == {"correct": True, "attempted": 10, "failed": 10,
                    "metrics": {"a": {"value": None, "unit": "ratio"}, "b": {"value": 1.5, "unit": "s"}}}
