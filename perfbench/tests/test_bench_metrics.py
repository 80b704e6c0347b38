"""Tests of the benchmark's own arithmetic (percentiles, medians, self time,
cache size, gated op groups) and of BENCHMARK.json against the metrics it prints.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import math
from pathlib import Path

import pytest

from metrics import END_TO_END_UNITS, PER_LAYER_UNITS, end_to_end, exact_cache_mb, median, p90, tracing_overhead_pct
from spans import self_times


def test_p90_needs_ten_samples_beyond_it():
    assert p90(range(99)) is None
    assert p90(range(100)) == 89  # nearest rank 90: samples 90..99 lie beyond
    assert p90(range(110)) == 98
    assert p90([]) is None


def test_gated_groups_average_the_median_ratio_of_each_op_kind():
    ratios = {"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0, 7.0], "c": [2.0, 2.0, math.inf]}
    values = end_to_end({"n2": ["a"], "n7": ["a", "b"], "alt": ["c"]}, ratios, 0.5, 100.0)
    assert values["op_vs_ref.n2.p50"] == 2.0
    assert values["op_vs_ref.n7.p50"] == pytest.approx((2.0 + 5.5) / 2)
    assert values["op_vs_ref.alt.p50"] == 2.0  # one failed op in three: the median stands
    assert set(values) == set(END_TO_END_UNITS)
    failing = end_to_end({"n2": ["a"], "n7": ["a"], "alt": ["a", "c"]}, {"a": [1.0], "c": [math.inf] * 2}, 0.5, 1.0)
    assert failing["op_vs_ref.alt.p50"] == math.inf


def test_failed_ops_enter_medians_as_inf():
    assert median([0.1, 0.2, math.inf]) == 0.2
    assert median([0.1, math.inf]) == math.inf
    assert median([0.3, 0.1, math.inf, math.inf, 0.2]) == 0.3
    assert p90([1.0] * 95 + [math.inf] * 15) == math.inf


def test_median_of_a_layer_that_never_ran_is_zero():
    assert median([]) == 0.0


def span(name, start, end, parent=None):
    return [name, start, end, parent, 1, None]


def test_self_time_subtracts_nested_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),
        span("b", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("root", 0.0, 10.0), span("a", 1.0, 4.0, parent=0), span("b", 3.0, 5.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(6.0)


def test_exact_cache_mb_is_entries_times_4_to_the_n_times_16_bytes():
    assert exact_cache_mb({7: 512}) == pytest.approx(512 * 128 * 128 * 16 / 1e6)  # about 134 MB
    assert exact_cache_mb({2: 10, 7: 1}) == pytest.approx((10 * 16 * 16 + 4**7 * 16) / 1e6)
    assert exact_cache_mb({}) == 0.0


def test_tracing_overhead_compares_traced_with_untraced_ops():
    op_times = [("n2", True, 1.1), ("n2", False, 1.0), ("n7", True, 3.3), ("n7", False, 3.0),
                ("chain", True, 50.0)]  # chains run in traced rounds only: left out
    assert tracing_overhead_pct(op_times) == pytest.approx(10.0)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
