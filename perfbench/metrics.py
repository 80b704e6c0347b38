"""Summary statistics and the metric tables the benchmark prints.

A timing is summarised by its median and, in the printed detail, its 90th
percentile. The p90 is reported only when at least ten samples lie beyond
it, so every op kind that reports one runs at least 100 times. A failed op enters its kind's
samples as +inf: it counts as slower than any op that succeeded.

The gated timings are ratios instead: each op's time over the time of a
fixed reference kernel run just before it (``workloads.py``). On a shared
machine other tenants slow every op by up to about 40%, for seconds to
minutes at a time, so a run's median in ms moves with how busy the machine
was during that run; the ratio's median moves with the program.
"""

from __future__ import annotations

import statistics
from collections import Counter

from spans import ATTRS, END, NAME, OP, PARENT, START, self_times

BYTES_PER_AMPLITUDE = 16  # complex128
MB = 1e6


def median(values) -> float:
    """Median with failed samples as +inf; 0.0 for a layer that never ran."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def p90(values) -> float | None:
    """Nearest-rank 90th percentile, or None when fewer than ten samples lie beyond it."""
    ordered = sorted(values)
    rank = (9 * len(ordered) + 9) // 10  # ceil(0.9 * n) without float rounding
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def exact_cache_mb(entries_by_n: dict[int, int]) -> float:
    """Memory held by cached dense propagators: entries x 4^n amplitudes x 16 B."""
    return sum(count * 4**n * BYTES_PER_AMPLITUDE for n, count in entries_by_n.items()) / MB


# --- end-to-end metrics ---------------------------------------------------
#
# BENCHMARK.json gates every workload on the same names, so each name below
# is defined for every workload (the op kinds are each workload's
# ``groups``). op_vs_ref.<group>.p50 is the median over the group's ops of
# op time / reference kernel time; a group of several op kinds (one per
# shot count) takes the mean of its kinds' medians.
#   op_vs_ref.n2.p50   reference: the CLI trio witness+verify+compile on table2
#                      train:     one fixed-epoch chunked descent at n=2, per epoch
#                      shots:     one sweep cell on table2, over the count grid
#   op_vs_ref.n7.p50   the same on table3 (n=7)
#   op_vs_ref.alt.p50  reference: the n=7 trio again on the same schedule (cache hits)
#                      train:     one exact-method descent at n=7, per epoch
#                      shots:     the cells of <= 1000 shots (per-cell overhead)
# The workloads' own names (medians and p90s in ms, chain_s.p50,
# shots_per_s) are printed beside them but not gated: over ten seeds on a
# shared 2-core machine their quartile spread reached 0.2-0.4, above the
# largest bound a gate may have. chain_s.p50 has no gated ratio: the ten
# chains of a run are ten different inputs, so their median is one chain's
# single time.

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_vs_ref.n2.p50": "ratio",
    "op_vs_ref.n7.p50": "ratio",
    "op_vs_ref.alt.p50": "ratio",
}


def end_to_end(groups: dict[str, list[str]], ratios: dict[str, list[float]], setup_s: float,
               peak_rss_mb: float) -> dict[str, float]:
    """The gated metrics from per-kind op time ratios."""
    values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    for group, kinds in groups.items():
        values[f"op_vs_ref.{group}.p50"] = statistics.fmean(median(ratios[kind]) for kind in kinds)
    return values


def detail(workload: str, samples: dict[str, list[float]], facts: dict) -> dict[str, tuple[float, str]]:
    """The same runs under the workload's own metric names, with units."""
    ms = {kind: [1e3 * v for v in values] for kind, values in samples.items()}
    out: dict[str, tuple[float, str]] = {}
    if workload == "reference":
        for kind in ("n2", "n7", "n7.repeat"):
            out[f"eval_ms.{kind}.p50"] = (median(ms[kind]), "ms")
            out[f"eval_ms.{kind}.p90"] = (p90(ms[kind]), "ms")
    elif workload == "train":
        out["chain_s.p50"] = (median(samples["chain"]), "s")
        for n in (2, 7):
            out[f"epoch_ms.n{n}.p50"] = (median(ms[f"n{n}"]), "ms")
            out[f"epoch_ms.n{n}.p90"] = (p90(ms[f"n{n}"]), "ms")
        out["exact_epoch_ms.n7.p50"] = (median(ms["exact.n7"]), "ms")
    elif workload == "shots":
        cells = [value for values in ms.values() for value in values]
        out["cell_ms.p50"] = (median(cells), "ms")
        out["cell_ms.p90"] = (p90(cells), "ms")
        out["shots_per_s"] = (facts["shots_drawn"] / facts["sweep_seconds"], "1/s")
    return out


# --- per-layer metrics from the traced rounds -----------------------------

PER_LAYER_UNITS: dict[str, str] = {}
for _n in (2, 7):
    PER_LAYER_UNITS[f"cli.main.self_ms.p50.n{_n}"] = "ms"
for _fn in ("apply_circuit", "circuit_unitary"):
    for _n in (2, 7):
        PER_LAYER_UNITS[f"core.{_fn}.ms.p50.n{_n}"] = "ms"
PER_LAYER_UNITS.update({
    "core.apply_circuit.calls": "count",
    "hamiltonian.exact_chunk_propagator.calls": "count",
    "hamiltonian.exact_chunk_propagator.misses": "count",
    "hamiltonian.exact_chunk_propagator.hit_ratio": "ratio",
    "hamiltonian.exact_chunk_propagator.miss_ms.p50.n7": "ms",
    "hamiltonian.exact_cache_mb": "MB",
    "hamiltonian.chunked_chunk_propagator.ms.p50.n7": "ms",
    "hamiltonian.evolve_states.calls": "count",
    "hamiltonian.evolve_states.ms.p50.n2": "ms",
    "hamiltonian.evolve_states.ms.p50.n7": "ms",
})
for _fn in ("compile_schedule", "verify_equivalence"):
    for _n in (2, 7):
        PER_LAYER_UNITS[f"compiler.{_fn}.ms.p50.n{_n}"] = "ms"
PER_LAYER_UNITS["compiler.export_qasm.ms.p50.n7"] = "ms"
for _n in (2, 7):
    for _q in ("1q", "2q"):
        PER_LAYER_UNITS[f"compiler.gates_{_q}.n{_n}"] = "count"
for _method in ("exact", "chunked", "gates"):
    PER_LAYER_UNITS[f"witness.witness_value.ms.p50.{_method}.n7"] = "ms"
PER_LAYER_UNITS.update({
    "witness.witness_values.calls": "count",
    "witness.witness_values.ms.p50.n2": "ms",
    "witness.witness_values.ms.p50.n7": "ms",
    "trainer.gradient.ms.p50.n2": "ms",
    "trainer.gradient.ms.p50.n7": "ms",
    "trainer.gradient.exact.ms.p50.n7": "ms",
    "trainer.loss_evals_per_epoch": "count",
})
for _n in range(2, 8):
    PER_LAYER_UNITS[f"trainer.epochs_to_solution.n{_n}"] = "count"
PER_LAYER_UNITS.update({
    "trainer.diverged_chains": "count",
    "parallel.map_ordered.self_ms.p50": "ms",
    "sampler.rng_stream.calls": "count",
    "sampler.rng_stream.us.p50": "us",
    "sampler.sample_zz_mean.calls": "count",
    "sampler.sample_zz_mean.shots": "count",
    "sampler.sample_zz_mean.ms_per_1k_shots.p50": "ms",
    "failed_ops_ratio": "ratio",
    "tracing_overhead_pct": "%",
})


def per_layer(spans: list[list], cached_n: list[int], facts: dict, failed_ops_ratio: float,
              overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics; a layer a workload never calls reads 0.

    ``cached_n`` holds the qubit count of every entry left in the exact
    propagator's cache.
    """
    selfs = self_times(spans)
    op_n = {span[OP]: span[ATTRS]["n"] for span in spans if span[PARENT] is None and span[ATTRS]}
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(index)

    def select(name, **match):
        out = []
        for index in by_name.get(name, ()):
            attrs = spans[index][ATTRS] or {}
            if all(attrs.get(key) == value for key, value in match.items()):
                out.append(index)
        return out

    def dur_ms(indices, scale=1e3):
        return median(scale * (spans[i][END] - spans[i][START]) for i in indices)

    out: dict[str, float] = {}
    for n in (2, 7):
        cli = [i for i in by_name.get("cli.main", ()) if op_n.get(spans[i][OP]) == n]
        out[f"cli.main.self_ms.p50.n{n}"] = median(1e3 * selfs[i] for i in cli)
        for fn in ("apply_circuit", "circuit_unitary"):
            out[f"core.{fn}.ms.p50.n{n}"] = dur_ms(select(f"core.{fn}", n=n))
    out["core.apply_circuit.calls"] = len(by_name.get("core.apply_circuit", ()))

    exact = "hamiltonian.exact_chunk_propagator"
    calls = len(by_name.get(exact, ()))
    misses = len(select(exact, miss=True))
    out[f"{exact}.calls"] = calls
    out[f"{exact}.misses"] = misses
    out[f"{exact}.hit_ratio"] = (calls - misses) / calls if calls else 0.0
    out[f"{exact}.miss_ms.p50.n7"] = dur_ms(select(exact, n=7, miss=True))
    out["hamiltonian.exact_cache_mb"] = exact_cache_mb(Counter(cached_n))
    out["hamiltonian.chunked_chunk_propagator.ms.p50.n7"] = dur_ms(select("hamiltonian.chunked_chunk_propagator", n=7))
    out["hamiltonian.evolve_states.calls"] = len(by_name.get("hamiltonian.evolve_states", ()))
    for n in (2, 7):
        out[f"hamiltonian.evolve_states.ms.p50.n{n}"] = dur_ms(select("hamiltonian.evolve_states", n=n))

    for n in (2, 7):
        for fn in ("compile_schedule", "verify_equivalence"):
            out[f"compiler.{fn}.ms.p50.n{n}"] = dur_ms(select(f"compiler.{fn}", n=n))
    out["compiler.export_qasm.ms.p50.n7"] = dur_ms(select("compiler.export_qasm", n=7))
    for n in (2, 7):
        ones, twos = facts.get("gates", {}).get(n, (0, 0))
        out[f"compiler.gates_1q.n{n}"] = ones
        out[f"compiler.gates_2q.n{n}"] = twos

    for method in ("exact", "chunked", "gates"):
        out[f"witness.witness_value.ms.p50.{method}.n7"] = dur_ms(select("witness.witness_value", n=7, method=method))
    out["witness.witness_values.calls"] = len(by_name.get("witness.witness_values", ()))
    for n in (2, 7):
        out[f"witness.witness_values.ms.p50.n{n}"] = dur_ms(select("witness.witness_values", n=n))

    for n in (2, 7):
        out[f"trainer.gradient.ms.p50.n{n}"] = dur_ms(select("trainer.gradient", n=n, method="chunked"))
    out["trainer.gradient.exact.ms.p50.n7"] = dur_ms(select("trainer.gradient", n=7, method="exact"))
    gradients = set(by_name.get("trainer.gradient", ()))
    in_gradient = 0
    for index in by_name.get("witness.witness_values", ()):
        parent = spans[index][PARENT]
        while parent is not None and parent not in gradients:
            parent = spans[parent][PARENT]
        in_gradient += parent is not None
    out["trainer.loss_evals_per_epoch"] = in_gradient / len(gradients) if gradients else 0.0
    for n in range(2, 8):
        out[f"trainer.epochs_to_solution.n{n}"] = facts.get("epochs_to_solution", {}).get(n, 0)
    out["trainer.diverged_chains"] = facts.get("diverged_chains", 0)

    mapped = by_name.get("parallel.map_ordered", ())
    out["parallel.map_ordered.self_ms.p50"] = median(1e3 * selfs[i] for i in mapped)

    streams = by_name.get("sampler.rng_stream", ())
    out["sampler.rng_stream.calls"] = len(streams)
    out["sampler.rng_stream.us.p50"] = dur_ms(streams, scale=1e6)
    draws = by_name.get("sampler.sample_zz_mean", ())
    out["sampler.sample_zz_mean.calls"] = len(draws)
    out["sampler.sample_zz_mean.shots"] = sum(spans[i][ATTRS]["shots"] for i in draws)
    out["sampler.sample_zz_mean.ms_per_1k_shots.p50"] = median(
        1e6 * (spans[i][END] - spans[i][START]) / spans[i][ATTRS]["shots"] for i in draws
    )
    out["failed_ops_ratio"] = failed_ops_ratio
    out["tracing_overhead_pct"] = overhead_pct
    return out


def tracing_overhead_pct(op_times) -> float:
    """Mean op time of traced rounds over that of untraced rounds, minus one.

    Both halves run in one process on inputs drawn the same way, so the
    ratio is free of the first-pass costs (allocator growth, cache fill)
    that a traced pass after an untraced one would not pay. Op times are
    taken over the reference kernel's, as the gated metrics are. Op kinds
    that ran in only one half (the chains, on even rounds) are left out.
    """
    sums: dict[tuple[str, bool], list[float]] = {}
    for kind, traced, seconds in op_times:
        sums.setdefault((kind, traced), []).append(seconds)
    both = {kind for kind, traced in sums if (kind, not traced) in sums}
    traced, untraced = (sum(statistics.fmean(sums[kind, half]) for kind in both) for half in (True, False))
    return 100.0 * (traced / untraced - 1.0)
