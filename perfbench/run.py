"""qnnwitness benchmark.

    python3 perfbench/run.py --workload {reference,train,shots} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src/`` directory, never from an installed copy. Each workload is a
closed loop with one client (see ``workloads.py`` for what each one
sends and why).

``--trace 0`` measures the end-to-end metrics with tracing off and prints
them, together with the workload's own metric names in ms and a record of
the machine. The gated op timings are each op's time over that of a fixed
reference kernel run around it (see ``metrics.py``). ``setup_s`` is the time from the start of the process, before
``import numpy`` and ``import qnnwitness``, until the imports are done,
plus the median over several set-ups of the rest: fixture load,
training-set build and one untimed warm-up op, each set-up starting with
the program's caches empty.

A run does a fixed number of rounds: with ``--trace 0``, ``--seconds``
over the workload's nominal round time (see ``workloads.rounds_for``), so
a seed's ops and their outcomes repeat exactly from run to run; with
``--trace 1``, the workload's minimum number of rounds. In a traced run
even rounds are traced and odd rounds are not; it prints the per-layer
metrics of the traced rounds and the tracing overhead (mean op time of
traced over untraced rounds), and writes the spans to ``perfbench/out/``.
Calls into the program outside a traced op pass through the patched
functions unrecorded; that pass-through cost, under a microsecond a call,
is not part of the overhead figure.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys
import time

SETUP_START = time.perf_counter()

# Pinned before numpy loads: the BLAS pool size moves the n=7 timings by
# about 20%, and one thread is what a shared machine gives steadily.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("QNN_THREADS", None)  # the program's default of one worker

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
SHOWN_FAILURES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("reference", "train", "shots"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import qnnwitness from this checkout's src/, or exit with an error."""
    package = SRC / "qnnwitness" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from a qnnwitness source checkout")
    sys.path.insert(0, str(SRC))
    import qnnwitness

    if Path(qnnwitness.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported qnnwitness from {qnnwitness.__file__}, not {package}")


def blas_record():
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libraries = sorted({line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line})
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads_pinned": BLAS_THREADS,
            "threads_reported": threads}


def environment(seed):
    import numpy as np

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu_model = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "seed": seed,
        "QNN_THREADS": os.environ.get("QNN_THREADS"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def run_pass(workload, tracer, rounds):
    """One closed-loop pass of ``rounds`` rounds; returns its runner."""
    from workloads import Runner, reset_caches

    reset_caches()
    runner = Runner(tracer)
    workload.run(runner, rounds)
    return runner


def result_line(correct, attempted, failed, values, units):
    """The result as one line of JSON; a metric that is +inf because too
    many ops failed is written as null, since JSON has no infinity."""
    metrics = {}
    for name, unit in units.items():
        value = values[name]
        metrics[name] = {"value": value if math.isfinite(value) else None, "unit": unit}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def set_up(workloads, args, scratch):
    """Build the workload and warm it up ``SETUP_REPEATS`` times from empty
    caches; returns the last workload, the warm-up runners and the median time."""
    runners, times = [], []
    for _ in range(SETUP_REPEATS):
        workloads.reset_caches(every=True)
        start = time.perf_counter()
        inputs = workloads.Inputs(ROOT, args.seed, scratch)
        workload = workloads.WORKLOADS[args.workload](inputs)
        runners.append(workloads.Runner())
        workload.warm_up(runners[-1])
        times.append(time.perf_counter() - start)
    return workload, runners, statistics.median(times)


def report_failures(runners) -> None:
    labels = [f"set-up {index}" for index in range(1, len(runners))] + ["run"]
    for label, runner in zip(labels, runners):
        for outcome in ("wrong", "refused", "missed"):
            failures = getattr(runner, outcome)
            for op_id, message in sorted(failures.items())[:SHOWN_FAILURES]:
                print(f"# {label} op {op_id} {outcome}: {message.strip().splitlines()[-1]}")
            if len(failures) > SHOWN_FAILURES:
                print(f"# ... {len(failures)} {label} ops {outcome} in all")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import metrics
    import workloads
    from spans import Tracer

    import_s = time.perf_counter() - SETUP_START
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        workload, setup_runners, build_s = set_up(workloads, args, scratch)
        setup_s = import_s + build_s
        env = environment(args.seed)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

        if args.trace == 0:
            rounds = workloads.rounds_for(args.seconds, workload.round_s, workload.min_rounds)
            runner = run_pass(workload, None, rounds)
        else:
            rounds = workload.min_rounds
            tracer = Tracer()
            with tracer:
                runner = run_pass(workload, tracer, rounds)
            tracer.write(OUT / f"spans-{stem}.jsonl")
        runners = [*setup_runners, runner]
        attempted = sum(r.attempted for r in runners)
        failed = sum(r.failed for r in runners)
        correct = not any(r.wrong for r in runners)
        samples = runner.sample_lists()
        counts = {kind: len(values) for kind, values in samples.items()}

        if args.trace == 0:
            values = metrics.end_to_end(workload.groups, runner.ratio_lists(), setup_s, peak_rss_mb())
            units = metrics.END_TO_END_UNITS
            named = metrics.detail(args.workload, samples, runner.facts)
            named["setup_s"] = (setup_s, "s")
            named["reference_kernel_ms.p50"] = (metrics.median(1e3 * v for v in runner.kernel.values()), "ms")
            named["peak_rss_mb"] = (values["peak_rss_mb"], "MB")
        else:
            overhead_pct = metrics.tracing_overhead_pct(runner.op_times)
            values = metrics.per_layer(tracer.spans, list(tracer.exact_cache.values()), runner.facts,
                                       failed / attempted, overhead_pct)
            units = metrics.PER_LAYER_UNITS
            named = {"tracing_overhead_pct": (overhead_pct, "%"), "spans": (len(tracer.spans), "count")}
        named["failed_ops_ratio"] = (failed / attempted, "ratio")
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "rounds": rounds, "samples": counts, "environment": env,
                  "facts": {"warm-up": setup_runners[-1].facts, "run": runner.facts},
                  "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
                  "metrics": values, "correct": correct, "attempted": attempted, "failed": failed}
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

        print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: {rounds} rounds, "
              f"{sum(counts.values())} timed ops of {len(counts)} kinds")
        print(f"# environment {json.dumps(env)}")
        for name, (value, unit) in named.items():
            print(f"# {name} = {value} {unit}")
        report_failures(runners)
        print(result_line(correct, attempted, failed, values, units))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
