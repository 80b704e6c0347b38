"""Command-line front end.

Subcommands cover the whole pipeline: ``witness`` evaluates the trained
witness on a reference state, ``verify`` reports gate/chunked/exact
equivalence, ``compile`` emits OpenQASM, ``train`` and ``bootstrap`` fit
schedules and write their artifacts, ``sample`` runs the finite-shot
sweep. ``--list-repro`` prints the command that regenerates each
published table or figure.

Exit codes: 0 success, 1 verification or threshold failure, 2 input
error (also a ``--chunks`` or ``--iterations`` past its bound, or a
schedule file's optional ``"symmetric": true`` over non-uniform chunks),
3 dimension error (a pair outside the register, or a register too large
for the dense arrays a command needs: ``witness`` under uniform chunks,
whatever the ``"symmetric"`` key says, needs none for ``exact`` and
``chunked``, but ``gates`` and any other schedule evolve 2^n vectors),
4 training divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .compiler import compile_schedule, export_qasm, gate_counts, verify_equivalence
from .core import DimensionError
from .fixtures import FIXTURE_NAMES, fixture_path
from .hamiltonian import Schedule, ScheduleFormatError, load_schedule, save_schedule
from .sampler import MAX_ITERATIONS, ShotConfig, sweep, sweep_csv
from .trainer import (
    MAX_CHUNKS,
    TrainerConfig,
    TrainingDiverged,
    bootstrap_chain,
    bootstrap_summary_csv,
    random_schedule,
    rms_history_csv,
    train,
)
from .witness import METHODS, WITNESS_TARGETS, PairStateKind, TrainingItem, TrainingSet
from .witness import build_training_set, check_training_set_size, witness_values
from .witness import witness_value  # unused here; the benchmark tracer patches cli.witness_value

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_INPUT = 2
EXIT_DIMENSION = 3
EXIT_DIVERGED = 4

GATE_EQUIVALENCE_THRESHOLD = 1e-9

_REPRO_LINES = [
    "Table 1 (witness per state/method)    : qnnwitness witness --schedule table2 --pair 0,1 --state all --method all",
    "Table 2 (2-qubit parameters)          : bundled fixture 'table2' (qnnwitness compile --schedule table2 --out table2.qasm)",
    "Table 3 (7-qubit parameters)          : bundled fixture 'table3' (qnnwitness witness --schedule table3 --pair 0,1 --state all)",
    "Figs 3-4 / Table 4 4-chunk column     : qnnwitness bootstrap --n-max 7 --chunks 4 --seed 0 --out-dir out",
    "Fig 5 / Table 4 4+8-chunk comparison  : python scripts/bootstrap_scan.py --out-dir results/bootstrap",
    "Figs 1-2 (shot statistics)            : qnnwitness sample --schedule table2 --state Bell --pair 0,1 --seed 0 --out-dir out",
    "Gate/chunk equivalence check          : qnnwitness verify --schedule table2",
]


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _resolve_schedule(spec: str) -> Schedule:
    if spec in FIXTURE_NAMES:
        path = fixture_path(spec)
    else:
        path = Path(spec)
        if not path.exists():
            raise _CliError(EXIT_INPUT, f"schedule file not found: {spec}")
    try:
        return load_schedule(path)
    except ScheduleFormatError as exc:
        raise _CliError(EXIT_INPUT, f"bad schedule {spec}: {exc}") from exc


def _parse_pair(text: str, n_qubits: int) -> tuple[int, int]:
    try:
        i, j = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise _CliError(EXIT_INPUT, f"bad pair {text!r}, expected 'i,j'") from exc
    if i >= j:
        raise _CliError(EXIT_INPUT, f"pair {text!r} must satisfy i < j")
    if j >= n_qubits:
        raise _CliError(EXIT_DIMENSION, f"pair {text!r} out of range for {n_qubits} qubits")
    return i, j


def _parse_state(name: str) -> PairStateKind:
    for kind in PairStateKind:
        if kind.value == name:
            return kind
    raise _CliError(EXIT_INPUT, f"unknown state {name!r}, expected one of "
                    f"{[k.value for k in PairStateKind]} or 'all'")


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The --config file's entries as ``--flag=value`` tokens; unknown keys
    and values that no flag could spell fail."""
    if not getattr(args, "config", None):
        return []
    path = Path(args.config)
    if not path.exists():
        raise _CliError(EXIT_INPUT, f"config file not found: {args.config}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise _CliError(EXIT_INPUT, f"bad config file: {exc}") from exc
    if not isinstance(doc, dict):
        raise _CliError(EXIT_INPUT, "config file must hold a JSON object")
    flags = []
    for key, value in doc.items():
        if key == "config" or not hasattr(args, key):
            raise _CliError(EXIT_INPUT, f"unknown key {key!r} in config file")
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, key), bool):  # a switch such as --no-elide
            if not isinstance(value, bool):
                raise _CliError(EXIT_INPUT, f"config key {key!r} must be true or false, got {value!r}")
            flags += [flag] if value else []
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            flags.append(f"{flag}={value}")
        else:
            raise _CliError(EXIT_INPUT, f"config key {key!r} must be a string or a number, got {value!r}")
    return flags


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    if "config" in names:
        parser.add_argument("--config", help="JSON config file; explicit flags override its values")
    if "schedule" in names:
        parser.add_argument("--schedule", help=f"schedule JSON path or bundled name {FIXTURE_NAMES}")
    if "pair" in names:
        parser.add_argument("--pair", default="0,1", help="qubit pair as 'i,j' (default 0,1)")
    if "seed" in names:
        parser.add_argument("--seed", type=int, default=0)
    if "out_dir" in names:
        parser.add_argument("--out-dir", dest="out_dir", help="directory for output artifacts")
    if "training" in names:
        parser.add_argument("--chunks", type=int, default=4, help=f"chunks per schedule, at most {MAX_CHUNKS}")
        parser.add_argument("--epochs", type=int, default=2000, help="maximum training epochs")
        parser.add_argument("--target-rms", dest="target_rms", type=float, default=1e-3)
        parser.add_argument("--learning-rate", dest="learning_rate", type=float, default=0.05)
        parser.add_argument("--momentum", type=float, default=0.9)
        parser.add_argument("--method", default="chunked", choices=("chunked", "exact"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qnnwitness", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--list-repro", action="store_true",
                        help="print the command that regenerates each table/figure and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("witness", help="evaluate the witness for a reference state")
    _add_common(p, "config", "schedule", "pair")
    p.add_argument("--state", default="all", help="Bell, Flat, C, P, or 'all'")
    p.add_argument("--method", default="chunked", help="exact, chunked, gates, or 'all'")

    p = sub.add_parser("verify", help="gate/chunked/exact equivalence report (JSON)")
    _add_common(p, "config", "schedule")

    p = sub.add_parser("compile", help="compile a schedule to OpenQASM 2.0")
    _add_common(p, "config", "schedule")
    p.add_argument("--out", help="output .qasm path (stdout when omitted)")
    p.add_argument("--no-elide", dest="no_elide", action="store_true",
                   help="keep identity-angle gates (exact gate-count reproduction)")

    p = sub.add_parser("train", help="gradient-descent training of a schedule")
    _add_common(p, "config", "schedule", "seed", "out_dir", "training")
    p.add_argument("--n-qubits", dest="n_qubits", type=int, default=2)

    p = sub.add_parser("bootstrap", help="train 2 qubits, then bootstrap up to --n-max")
    _add_common(p, "config", "seed", "out_dir", "training")
    p.add_argument("--n-max", dest="n_max", type=int, default=7)

    p = sub.add_parser("sample", help="finite-shot sweep of the witness estimator")
    _add_common(p, "config", "schedule", "pair", "seed", "out_dir")
    p.add_argument("--state", default="Bell")
    p.add_argument("--shots", type=int, help="single shot count (default: grid 50..20000 step 50)")
    p.add_argument("--iterations", type=int, default=100, help=f"runs per shot count, at most {MAX_ITERATIONS}")

    return parser


def _require_schedule(args: argparse.Namespace) -> Schedule:
    if not getattr(args, "schedule", None):
        raise _CliError(EXIT_INPUT, "--schedule is required")
    return _resolve_schedule(args.schedule)


def _cmd_witness(args: argparse.Namespace) -> int:
    schedule = _require_schedule(args)
    pair = _parse_pair(args.pair, schedule.n_qubits)
    kinds = list(PairStateKind) if args.state == "all" else [_parse_state(args.state)]
    methods = list(METHODS) if args.method == "all" else [args.method]
    for method in methods:
        if method not in METHODS:
            raise _CliError(EXIT_INPUT, f"unknown method {method!r}, expected one of {METHODS} or 'all'")
    requested = TrainingSet(schedule.n_qubits, tuple(TrainingItem(kind, pair, WITNESS_TARGETS[kind]) for kind in kinds))
    # every method returns before any row is printed, so a refusal leaves stdout empty
    values = {method: witness_values(requested, schedule, method) for method in methods}
    print("state_kind,pair,method,value")
    for row, kind in enumerate(kinds):
        for method in methods:
            print(f"{kind.value},{pair[0]}-{pair[1]},{method},{float(values[method][row])!r}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    schedule = _require_schedule(args)
    report = verify_equivalence(schedule)
    print(json.dumps(report, indent=2, sort_keys=True))
    if report["frobenius_gate_vs_chunked"]["unitary"] > GATE_EQUIVALENCE_THRESHOLD:
        print("FAIL: gate circuit deviates from the chunked propagator", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def _cmd_compile(args: argparse.Namespace) -> int:
    schedule = _require_schedule(args)
    circuit = compile_schedule(schedule, elide=not args.no_elide)
    text = export_qasm(circuit)
    ones, twos = gate_counts(circuit)
    if args.out:
        Path(args.out).write_text(text)
        print(f"1q={ones} 2q={twos}")
    else:
        sys.stdout.write(text)
        print(f"1q={ones} 2q={twos}", file=sys.stderr)
    return EXIT_OK


def _trainer_config(args: argparse.Namespace, chunks: int) -> TrainerConfig:
    return TrainerConfig(
        learning_rate=args.learning_rate,
        momentum=args.momentum,
        max_epochs=args.epochs,
        target_rms=args.target_rms,
        chunk_count=chunks,
        seed=args.seed,
        method=args.method,
    )


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir) if args.out_dir else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_train(args: argparse.Namespace) -> int:
    if getattr(args, "schedule", None):
        init = _resolve_schedule(args.schedule)
    else:
        check_training_set_size(args.n_qubits)
        init = random_schedule(args.n_qubits, args.chunks, args.seed)
    config = _trainer_config(args, init.n_chunks)
    training_set = build_training_set(init.n_qubits)
    out = _out_dir(args)
    try:
        result = train(init, training_set, config)
    except TrainingDiverged as exc:
        save_schedule(exc.last_good, out / "last_good_schedule.json")
        print(f"diverged: {exc}", file=sys.stderr)
        print(f"last good schedule saved to {out / 'last_good_schedule.json'}", file=sys.stderr)
        return EXIT_DIVERGED
    save_schedule(result.schedule, out / "trained_schedule.json")
    (out / "rms_history.csv").write_text(rms_history_csv(result))
    print(f"n={init.n_qubits} epochs={result.epochs_used} rms={result.final_rms!r} converged={result.converged}")
    return EXIT_OK


def _cmd_bootstrap(args: argparse.Namespace) -> int:
    if args.n_max < 2:
        raise _CliError(EXIT_INPUT, "--n-max must be at least 2")
    check_training_set_size(args.n_max)
    config = _trainer_config(args, args.chunks)
    out = _out_dir(args)
    try:
        results = bootstrap_chain(args.n_max, config)
    except TrainingDiverged as exc:
        save_schedule(exc.last_good, out / "last_good_schedule.json")
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    for n, result in results.items():
        save_schedule(result.schedule, out / f"schedule_n{n}.json")
        (out / f"rms_history_n{n}.csv").write_text(rms_history_csv(result))
        print(f"n={n} epochs={result.epochs_used} rms={result.final_rms!r}")
    (out / "bootstrap_summary.csv").write_text(bootstrap_summary_csv(results))
    print(f"summary written to {out / 'bootstrap_summary.csv'}")
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    schedule = _require_schedule(args)
    pair = _parse_pair(args.pair, schedule.n_qubits)
    kind = _parse_state(args.state)
    counts = (args.shots,) if args.shots is not None else tuple(range(50, 20001, 50))
    config = ShotConfig(shot_counts=counts, iterations=args.iterations, seed=args.seed)
    stats = sweep(schedule, kind, pair, config)
    text = sweep_csv(stats)
    if args.out_dir:
        out = _out_dir(args)
        path = out / f"sweep_{kind.value}.csv"
        path.write_text(text)
        print(f"sweep written to {path}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "witness": _cmd_witness,
    "verify": _cmd_verify,
    "compile": _cmd_compile,
    "train": _cmd_train,
    "bootstrap": _cmd_bootstrap,
    "sample": _cmd_sample,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_repro:
        for line in _REPRO_LINES:
            print(line)
        return EXIT_OK
    if not args.command:
        parser.print_help()
        return EXIT_INPUT
    try:
        flags = _config_flags(args)
        if flags:
            # parsed before the explicit flags, which therefore win
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + flags + argv[at:])
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (ValueError, OSError) as exc:  # ScheduleFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
