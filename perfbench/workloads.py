"""The benchmark's workloads: seeded inputs, timed ops and output checks.

Every workload is a closed loop with one client: an op starts only after
the previous one returned. Inputs are generated here from ``--seed`` with
numpy's own generator and the fixture JSON files, so the program receives
nothing but finished schedule files, schedules and configs.

An op's outcome is one of four. It passes its checks. It is wrong: an
exception the program does not document, or an output that fails a
consistency check (exit codes, unitary distances, gate counts, a reported
rms that recomputes differently, sampling statistics). It is refused: the
program itself reported that it could not reach the target
(``TrainingDiverged``, or a chain that reports no convergence). Or it
missed: a consistent result that falls short of a quality target, such as
a fixed-epoch descent that ends above its initial rms. All three count as
failed. Wrong and refused ops produced no usable result and enter their
kind's timing samples as +inf; a missed op did the work it was timed for
and keeps its time. Only wrong ops make the run incorrect.
"""

from __future__ import annotations

import copy
import io
import json
import math
import re
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from qnnwitness import cli
from qnnwitness.compiler import compile_schedule, parse_qasm
from qnnwitness.hamiltonian import exact_chunk_propagator, propagate, schedule_from_json
from qnnwitness.sampler import ShotConfig, sweep
from qnnwitness.trainer import TrainerConfig, TrainingDiverged, bootstrap_chain, rms_error, train
from qnnwitness.witness import PairStateKind, build_training_set, make_pair_state

JITTER = 1e-3  # relative standard deviation of the per-chunk schedule jitter
MIN_ROUNDS = 100  # every op kind that reports a p90 runs at least 100 times; a traced run does exactly this many
FIXTURES = {2: "table2", 7: "table3"}
STREAMS = {"reference": 1, "train": 2, "exact": 3, "shot_seed": 4, "grid_order": 5}  # keep numbers stable: they fix the inputs
STATES = ("Bell", "Flat", "C", "P")
TABLE1_CHUNKED = {"Bell": 0.999, "Flat": 5.99e-7, "C": 1.87e-5, "P": 0.446}


# The reference kernel: fixed work of the three kinds the program spends
# its time on, small numpy contractions over a 7-qubit register, a dense
# Hermitian eigendecomposition and interpreter steps, about 2.5 ms on one
# core. It runs right before and right after every timed op. Other tenants
# of a shared machine slow the op and the kernel around it in about the
# same proportion, for seconds to minutes at a time, so their ratio follows
# the program and not the machine's load.
KERNEL_U = np.array([[0.6, 0.8], [-0.8, 0.6]])
KERNEL_STATE = np.random.default_rng(0).random([2] * 7 + [84])
KERNEL_MATRIX = np.random.default_rng(1).standard_normal((48, 48, 2)).view(complex)[..., 0]
KERNEL_MATRIX = KERNEL_MATRIX + KERNEL_MATRIX.conj().T


def reference_kernel_seconds() -> float:
    start = perf_counter()
    state = KERNEL_STATE
    for qubit in range(7):
        for _ in range(4):
            state = np.moveaxis(np.tensordot(KERNEL_U, state, axes=([1], [qubit])), 0, qubit)
    np.linalg.eigh(KERNEL_MATRIX)
    total = 0
    for i in range(10000):
        total += i * i
    return perf_counter() - start


class Refused(Exception):
    """The program reported that it could not produce the requested result."""


class Missed(Exception):
    """A consistent result that falls short of a quality target."""


class Runner:
    """Times ops, checks their outputs and counts failures.

    With a tracer, ops record spans only while ``recording`` is set. The
    workloads call :meth:`trace_round` at each round (each step of a sweep
    cycle in ``shots``), so even rounds are traced and odd rounds run
    untraced on inputs drawn the same way; the two halves give the tracing overhead
    within one process (see :func:`metrics.tracing_overhead_pct`).
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.recording = tracer is not None
        self.op_times: list[tuple[str, bool, float]] = []  # (kind, traced, op time over kernel time)
        self.samples: dict[str, dict[int, float]] = {}
        self.kernel: dict[int, float] = {}  # op id -> mean reference kernel time just before and after the op
        self.attempted = 0
        self.refused: dict[int, str] = {}
        self.wrong: dict[int, str] = {}
        self.missed: dict[int, str] = {}
        self.facts: dict = {"gates": {}, "epochs_to_solution": {}, "diverged_chains": 0,
                            "shots_drawn": 0, "sweep_seconds": 0.0}

    @property
    def failed(self) -> int:
        return len(set(self.refused) | set(self.wrong) | set(self.missed))

    def op(self, kind, n, fn, check=None, per=None, refusals=()):
        """Run ``fn`` timed, then ``check(result)`` untimed.

        ``kind`` names the sample list (None for an untimed warm-up op),
        ``per(result)`` divides the op time (epochs per op), and ``check``
        returns a list of problems or raises :class:`Refused` or
        :class:`Missed`. Returns
        ``(result, seconds)``, with result None when the op failed.
        """
        self.attempted += 1
        op_id = self.attempted
        tracer = self.tracer if kind is not None and self.recording else None
        if kind is not None:
            kernel_before = reference_kernel_seconds()
        if tracer:
            tracer.op = op_id
            root = tracer.open(f"op.{kind}", {"n": n})
        start = perf_counter()
        try:
            result = fn()
        except refusals as exc:
            self.refused[op_id] = f"{type(exc).__name__}: {exc}"
        except Exception:
            self.wrong[op_id] = traceback.format_exc(limit=3)
        finally:
            elapsed = perf_counter() - start
            if tracer:
                tracer.close(root)
                tracer.op = None
        if kind is not None:
            self.kernel[op_id] = (kernel_before + reference_kernel_seconds()) / 2
            self.op_times.append((kind, tracer is not None, elapsed / self.kernel[op_id]))
        ok = op_id not in self.refused and op_id not in self.wrong
        if ok and check is not None:
            try:
                problems = check(result)
            except Refused as exc:
                self.refused[op_id] = str(exc)
            except Missed as exc:
                self.missed[op_id] = str(exc)
            except Exception:
                self.wrong[op_id] = "check raised: " + traceback.format_exc(limit=3)
            else:
                if problems:
                    self.wrong[op_id] = "; ".join(problems)
            ok = op_id not in self.refused and op_id not in self.wrong
        if kind is not None:
            self.samples.setdefault(kind, {})[op_id] = (elapsed / per(result) if per else elapsed) if ok else math.inf
        return (result if ok else None), elapsed

    def trace_round(self, index: int) -> None:
        """Record spans in the ops that follow when ``index`` is even."""
        self.recording = self.tracer is not None and index % 2 == 0

    def fail(self, op_ids, message: str) -> None:
        """Mark ops whose joint check failed as wrong; their samples become +inf."""
        for op_id in op_ids:
            self.wrong.setdefault(op_id, message)
            for values in self.samples.values():
                if op_id in values:
                    values[op_id] = math.inf

    def sample_lists(self) -> dict[str, list[float]]:
        return {kind: list(values.values()) for kind, values in self.samples.items()}

    def ratio_lists(self) -> dict[str, list[float]]:
        """Each op's time over the reference kernel's time around it."""
        return {kind: [seconds / self.kernel[op_id] for op_id, seconds in values.items()]
                for kind, values in self.samples.items()}


def rounds_for(seconds: float, round_s: float, minimum: int) -> int:
    """The number of rounds a run of ``seconds`` does: ``seconds`` over the
    workload's nominal round time, and at least ``minimum``.

    The work of a run is fixed, not its length, so a seed's ops, and which
    of them fail, repeat exactly from run to run. The nominal round times
    are those of the workloads on one core of a 2-core x86-64 machine; a
    faster program ends its runs sooner instead of doing more rounds.
    """
    return max(minimum, round(seconds / round_s))


class Inputs:
    """Everything derived from ``--seed``: schedule jitter, chain seeds, shot seeds, grid order."""

    def __init__(self, root: Path, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        fixtures = root / "src" / "qnnwitness" / "fixtures"
        self.fixtures = {n: json.loads((fixtures / f"{name}.json").read_text()) for n, name in FIXTURES.items()}
        # The ten seeds whose chains were measured (seed 4 diverges), in an
        # order set by --seed. The set itself does not vary: chain time runs
        # from 0.3 s to 3.4 s across seeds, so a different set per run would
        # move chain_s.p50 by more than its bound.
        self.chain_seeds = [(seed + k) % 10 for k in range(10)]

    def shot_seed(self, cycle: int) -> int:
        """``ShotConfig.seed`` of sweep cycle ``cycle``."""
        return int(np.random.default_rng([self.seed, STREAMS["shot_seed"], cycle]).integers(2**31))

    def grid_order(self, cycle: int, size: int) -> list[int]:
        """The order in which sweep cycle ``cycle`` visits the shot-count grid."""
        return [int(i) for i in np.random.default_rng([self.seed, STREAMS["grid_order"], cycle]).permutation(size)]

    def fixture(self, n: int) -> dict:
        return copy.deepcopy(self.fixtures[n])

    def jittered(self, n: int, stream: str, index: int) -> dict:
        """Fixture ``n`` with each chunk's shared K, eps and zeta scaled by
        1 + N(0, JITTER); every qubit and pair gets the same factor, so a
        symmetric schedule stays symmetric."""
        rng = np.random.default_rng([self.seed, STREAMS[stream], n, index])
        doc = self.fixture(n)
        for chunk in doc["chunks"]:
            k, e, z = 1.0 + JITTER * rng.standard_normal(3)
            chunk["K"] = [value * k for value in chunk["K"]]
            chunk["eps"] = [value * e for value in chunk["eps"]]
            chunk["zeta"] = {pair: value * z for pair, value in chunk["zeta"].items()}
        return doc

    def write(self, doc: dict, name: str) -> Path:
        path = self.scratch / name
        path.write_text(json.dumps(doc))
        return path


def schedule_of(doc: dict):
    return schedule_from_json(json.dumps(doc))


class Reference:
    """Table 1 / verify / compile traffic: the CLI trio, called in process.

    Why: each CLI invocation is a cold process for its user. A freshly
    jittered schedule per op reproduces the one eigendecomposition miss per
    chunk that the user pays, followed by the cache hits inside the same
    op; without the jitter the exact propagator would be free after the
    first op. Ops alternate between n=2 (table2) and n=7 (table3), and each
    n=7 schedule is evaluated a second time, as a user re-evaluating it
    from Python would: its exact propagators then all hit, so the cache's
    mechanism is both bypassed and exercised. All three witness methods
    run; trainer and sampler stay idle.
    """

    # Gated op kinds: a fresh n=2 trio, a fresh n=7 trio, and the n=7 trio
    # again on the same schedule.
    groups = {"n2": ["n2"], "n7": ["n7"], "alt": ["n7.repeat"]}

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs

    def warm_up(self, runner: Runner) -> None:
        for n in (2, 7):
            self.trio(runner, None, n, self.inputs.fixture(n), table1=n == 2)

    min_rounds = MIN_ROUNDS
    round_s = 0.24  # three trios and six reference kernels

    def run(self, runner: Runner, rounds: int) -> None:
        for index in range(rounds):
            runner.trace_round(index)
            for n in (2, 7):
                doc = self.inputs.jittered(n, "reference", index)
                self.trio(runner, f"n{n}", n, doc)
            self.trio(runner, "n7.repeat", 7, doc)

    def trio(self, runner: Runner, kind, n: int, doc: dict, table1: bool = False):
        path = self.inputs.write(doc, f"schedule_n{n}.json")
        qasm = path.with_suffix(".qasm")
        argvs = (
            ["witness", "--schedule", str(path), "--state", "all", "--method", "all"],
            ["verify", "--schedule", str(path)],
            ["compile", "--schedule", str(path), "--no-elide", "--out", str(qasm)],
        )

        def op():
            outputs = []
            for argv in argvs:
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                outputs.append((code, out.getvalue()))
            return outputs

        return runner.op(kind, n, op, check=partial(self.check, runner, n, doc, qasm, table1))

    @staticmethod
    def check(runner: Runner, n: int, doc: dict, qasm: Path, table1: bool, outputs) -> list[str]:
        codes = [code for code, _ in outputs]
        if codes != [0, 0, 0]:
            return [f"exit codes {codes}, want [0, 0, 0]"]
        witness_out, verify_out, compile_out = (text for _, text in outputs)
        problems = []
        values = {}
        for line in witness_out.splitlines()[1:]:
            state, _pair, method, value = line.split(",")
            values[state, method] = float(value)
        for state in STATES:
            gap = abs(values[state, "gates"] - values[state, "chunked"])
            if gap > 1e-9:
                problems.append(f"{state}: gates vs chunked witness {gap:.2e} > 1e-9")
        chunked = {state: values[state, "chunked"] for state in STATES}
        separation = chunked["Bell"] / max(chunked["Flat"], chunked["C"])
        if not separation > 100:
            problems.append(f"Bell/max(Flat, C) = {separation:.1f}, want > 100")
        if table1:
            # Criterion 2: the published column, else the fallback checked above.
            runner.facts["table1_within_5e-3"] = all(
                abs(chunked[state] - TABLE1_CHUNKED[state]) <= 5e-3 for state in STATES)
        distance = json.loads(verify_out)["frobenius_gate_vs_chunked"]["unitary"]
        if not distance <= 1e-12:
            problems.append(f"gate vs chunked unitary {distance:.2e} > 1e-12")
        n_chunks, n_pairs = len(doc["chunks"]), n * (n - 1) // 2
        want = (n_chunks * (3 * n + n_pairs), n_chunks * 2 * n_pairs)
        counts = re.fullmatch(r"1q=(\d+) 2q=(\d+)", compile_out.strip())
        got = tuple(int(group) for group in counts.groups()) if counts else None
        if got != want:
            problems.append(f"gate counts {compile_out.strip()!r}, want 1q={want[0]} 2q={want[1]}")
        else:
            runner.facts["gates"][n] = got
        expected = compile_schedule(schedule_of(doc), elide=False)
        parsed = parse_qasm(qasm.read_text())
        if parsed.n_qubits != n or parsed.ops != expected.ops:
            problems.append("QASM does not parse back to the compiled gate list")
        return problems


EPOCHS_PER_OP = 1
EXACT_EVERY = 5  # one exact-method op per this many rounds
TARGET_RMS = 1e-3


class Train:
    """Training traffic: 2->7 bootstrap chains among fixed-epoch descents.

    Why: the finite-difference gradient is nearly all of the time. The
    chains are what a user waits for to reach rms <= 1e-3; one runs every
    tenth round, so chains and descents both spread over the whole run.
    The chunked fixed-epoch ops exercise the streamed chunked kernel at n=2
    and n=7.
    The exact-method ops use the hamiltonian layer differently: in
    ``reference`` the exact-propagator cache is read and hits, here every
    perturbation is a new key that misses (512 entries x 256 KiB, about
    134 MB at n=7, full after about 18 exact epochs), so a cache change that
    helps one use and costs the other shows. compiler and sampler stay idle.
    """

    # Gated op kinds; the chains are printed as chain_s.p50 but not gated
    # (see metrics.py).
    groups = {"n2": ["n2"], "n7": ["n7"], "alt": ["exact.n7"]}

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.sets = {n: build_training_set(n) for n in range(2, 8)}

    def warm_up(self, runner: Runner) -> None:
        for n in (2, 7):
            self.epoch(runner, None, n, self.inputs.fixture(n), "chunked")

    min_rounds = MIN_ROUNDS
    round_s = 0.3  # two chunked descents, a fifth of an exact one and a tenth of a chain

    def run(self, runner: Runner, rounds: int) -> None:
        chains = list(self.inputs.chain_seeds)
        every = MIN_ROUNDS // len(chains)  # chains spread over the first MIN_ROUNDS rounds, on even rounds
        for index in range(rounds):
            runner.trace_round(index)
            if chains and index % every == 0:
                runner.op("chain", 7, partial(self.chain, runner, chains.pop(0)),
                          check=partial(self.check_chain, runner), refusals=(TrainingDiverged,))
            for n in (2, 7):
                self.epoch(runner, f"n{n}", n, self.inputs.jittered(n, "train", index), "chunked")
            if index % EXACT_EVERY == 0:
                self.epoch(runner, "exact.n7", 7, self.inputs.jittered(7, "exact", index), "exact")

    @staticmethod
    def chain(runner: Runner, seed: int):
        try:
            return bootstrap_chain(7, TrainerConfig(seed=seed, target_rms=TARGET_RMS))
        except TrainingDiverged:
            runner.facts["diverged_chains"] += 1
            raise

    def check_chain(self, runner: Runner, results) -> list[str]:
        problems = []
        for n, result in results.items():
            recomputed = rms_error(result.schedule, self.sets[n])
            if abs(recomputed - result.final_rms) > 1e-12:
                problems.append(f"n={n}: reported rms {result.final_rms!r}, recomputed {recomputed!r}")
        if problems:
            return problems
        unmet = [n for n, result in results.items() if not result.final_rms <= TARGET_RMS]
        if unmet:
            raise Refused(f"chain stopped above rms {TARGET_RMS} at n={unmet}")
        for n, result in results.items():
            runner.facts["epochs_to_solution"][n] = runner.facts["epochs_to_solution"].get(n, 0) + result.epochs_used
        return []

    def epoch(self, runner: Runner, kind, n: int, doc: dict, method: str):
        init = schedule_of(doc)
        config = TrainerConfig(max_epochs=EPOCHS_PER_OP, target_rms=0.0, method=method)
        return runner.op(kind, n, partial(train, init, self.sets[n], config),
                         check=partial(self.check_epoch, n, method), per=lambda result: result.epochs_used)

    def check_epoch(self, n: int, method: str, result) -> list[str]:
        problems = []
        if result.epochs_used != EPOCHS_PER_OP:
            problems.append(f"{result.epochs_used} epochs, want {EPOCHS_PER_OP}")
        initial, final = result.rms_history[0], result.final_rms
        recomputed = rms_error(result.schedule, self.sets[n], method)
        if not (math.isfinite(final) and abs(recomputed - final) <= 1e-12):
            problems.append(f"reported rms {final!r}, recomputed {recomputed!r}")
        if problems:
            return problems
        if not final <= initial:
            raise Missed(f"n={n} {method}: rms {final!r} after descent from {initial!r}")
        return []


# The published 50..20000 grid thinned to 41 counts, keeping 50, 15000 and
# 20000, so that a run holds several cycles and every count has more than
# one sample.
SHOT_GRID = (50,) + tuple(range(500, 20001, 500))
ITERATIONS = 100
PAIR = (0, 1)


class Shots:
    """Shot-count sweep traffic: one op is ``sweep`` over a single shot count.

    Why: the sampler is nearly all of the time. Cell cost spans about 400x
    over the grid, so both per-cell overhead (Philox stream construction at
    small counts) and per-shot cost (large counts) show. Sweeps: Bell and
    Flat on table2 as in acceptance criterion 4, and Bell on table3 pair
    (0, 1). compile_schedule and apply_circuit run once per op; trainer
    stays idle.
    """

    # Gated op kinds: the cells of every count at n=2 and at n=7, and the
    # cells of 1000 shots or fewer, where per-cell overhead is most of the time.
    groups = {
        "n2": [f"n2.c{count}" for count in SHOT_GRID],
        "n7": [f"n7.c{count}" for count in SHOT_GRID],
        "alt": [f"n{n}.c{count}" for n in (2, 7) for count in SHOT_GRID if count <= 1000],
    }

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.sweeps = []
        for n, kind in ((2, PairStateKind.BELL), (2, PairStateKind.FLAT), (7, PairStateKind.BELL)):
            schedule = schedule_of(inputs.fixture(n))
            self.sweeps.append((n, schedule, kind, exact_zz(schedule, kind)))

    def warm_up(self, runner: Runner) -> None:
        for n, schedule, kind, zz in self.sweeps:
            self.cell(runner, None, n, schedule, kind, zz, SHOT_GRID[0], self.inputs.shot_seed(0))

    # A traced run does two cycles. Counts alternate between traced and
    # untraced along each cycle, so the two halves hold about the same work
    # spread over the same stretch of time.
    min_rounds = 2
    round_s = 10.0  # one cycle: 123 cells

    def run(self, runner: Runner, rounds: int) -> None:
        """One round is a cycle: the three sweeps over the whole grid with
        one shot seed, visiting the counts in the cycle's own seeded order."""
        for cycle in range(rounds):
            seed = self.inputs.shot_seed(cycle)
            cells = [{} for _ in self.sweeps]
            for step, position in enumerate(self.inputs.grid_order(cycle, len(SHOT_GRID))):
                runner.trace_round(cycle + step)
                count = SHOT_GRID[position]
                for index, (n, schedule, kind, zz) in enumerate(self.sweeps):
                    op_id = runner.attempted + 1
                    stats, _seconds = self.cell(runner, f"n{n}.c{count}", n, schedule, kind, zz, count, seed)
                    cells[index][count] = (op_id, stats)
            for (n, _schedule, kind, _zz), sweep_cells in zip(self.sweeps, cells):
                self.check_sweep(runner, n, kind, sweep_cells)

    def cell(self, runner: Runner, kind, n, schedule, state, zz, count, seed):
        config = ShotConfig(shot_counts=(count,), iterations=ITERATIONS, seed=seed)
        stats, seconds = runner.op(kind, n, partial(sweep, schedule, state, PAIR, config),
                                   check=partial(self.check_cell, zz, count))
        if kind is not None and stats is not None:
            runner.facts["shots_drawn"] += count * ITERATIONS
            runner.facts["sweep_seconds"] += seconds
        return stats, seconds

    @staticmethod
    def check_cell(zz: float, count: int, stats) -> list[str]:
        stderr = math.sqrt(max(1.0 - zz * zz, 0.0) / (count * ITERATIONS))
        deviation = abs(stats.zz_mean[0] - zz)
        if deviation > 5 * stderr:
            return [f"{count} shots: zz_mean {stats.zz_mean[0]!r} is {deviation / stderr:.1f} stderr from {zz!r}"]
        return []

    @staticmethod
    def check_sweep(runner: Runner, n: int, kind, cells) -> None:
        if any(stats is None for _, stats in cells.values()):
            return  # already counted as failed
        if kind is PairStateKind.FLAT:
            counts = [c for c in cells if c >= 500]
            variances = [cells[c][1].zz_variance[0] for c in counts]
            slope = np.polyfit(np.log(counts), np.log(variances), 1)[0]
            if abs(slope + 1.0) > 0.15:
                runner.fail([cells[c][0] for c in counts], f"Flat zz_variance slope {slope:.3f}, want -1 +- 0.15")
        if kind is PairStateKind.BELL and n == 2:
            op_id, stats = cells[15000]
            if stats.ci_half_width[0] > 0.002:
                runner.fail([op_id], f"Bell CI half-width {stats.ci_half_width[0]:.2e} at 15000 shots > 0.002")


def exact_zz(schedule, kind) -> float:
    """<Z0 Z1> of the final state by the chunked propagator, not the gate path the sweep uses."""
    final = propagate(make_pair_state(kind, PAIR, schedule.n_qubits), schedule, "chunked")
    n = schedule.n_qubits
    bits = np.arange(2**n)
    parity = 1 - 2 * (((bits >> (n - 1 - PAIR[0])) ^ (bits >> (n - 1 - PAIR[1]))) & 1)
    return float(np.sum(np.abs(final) ** 2 * parity))


WORKLOADS = {"reference": Reference, "train": Train, "shots": Shots}


def reset_caches(every: bool = False) -> None:
    """Empty the exact-propagator cache, which each timed pass starts without.

    With ``every``, empty all of qnnwitness's function caches, as a fresh
    process has them; each repeated set-up starts this way.
    """
    exact_chunk_propagator.cache_clear()
    if every:
        for name, module in list(sys.modules.items()):
            if name.startswith("qnnwitness."):
                for value in vars(module).values():
                    if hasattr(value, "cache_clear") and getattr(value, "__module__", "") == name:
                        value.cache_clear()
