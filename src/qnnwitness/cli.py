"""Command-line front end.

Subcommands cover the whole pipeline: ``witness`` evaluates the trained
witness on a reference state, ``verify`` reports gate/chunked/exact
equivalence, ``compile`` emits OpenQASM, ``train`` and ``bootstrap`` fit
schedules and write their artifacts, ``sample`` runs the finite-shot
sweep. ``--list-repro`` prints the command that regenerates each
published table or figure.

Exit codes: 0 success, 1 verification or threshold failure, 2 input
error (also a ``--chunks`` or ``--iterations`` past its bound, a schedule
file's optional ``"symmetric": true`` over non-uniform chunks, or a
schedule whose dt is 0 or whose phases keep no digit, by every command:
2 total_time times a chunk's sum of every |K|, |eps| and |zeta| at 2**52
or more, where floats are 1 or more apart), 3 dimension error (a pair
outside the register; a dense square array above 10 qubits, built by
``verify`` and by ``exact`` on a schedule with a non-uniform chunk; or
arrays past the 128 MiB budget: dense states, refused at one size for
``gates`` and for ``chunked`` on a non-uniform schedule, training sets,
and the pair (x) Dicke sweeps of ``witness`` under uniform chunks, with 4
chunks past 2307 qubits for ``chunked`` and 831 for ``exact``; each refused
before allocation), 4 training divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .compiler import compile_schedule, export_qasm, gate_counts, verify_equivalence
from .core import DimensionError
from .fixtures import FIXTURE_NAMES, fixture_path
from .hamiltonian import Schedule, ScheduleFormatError, save_schedule, schedule_from_json
from .sampler import MAX_ITERATIONS, ShotConfig, sweep, sweep_csv
from .trainer import (
    MAX_CHUNKS,
    TRAINING_METHODS,
    TrainerConfig,
    TrainingDiverged,
    bootstrap_chain,
    bootstrap_summary_csv,
    random_schedule,
    rms_history_csv,
    train,
)
from .witness import METHODS, WITNESS_TARGETS, PairStateKind, TrainingItem, TrainingSet
from .witness import build_training_set, witness_values
from .witness import witness_value  # unused here; the benchmark tracer patches cli.witness_value

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_INPUT = 2
EXIT_DIMENSION = 3
EXIT_DIVERGED = 4

GATE_EQUIVALENCE_THRESHOLD = 1e-9
_STATES = {kind.value: kind for kind in PairStateKind}

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


def _read(path: Path, what: str, spec: str) -> str:
    """The file's text, read once: a file missing when it is read is reported as missing."""
    try:
        return path.read_text()
    except FileNotFoundError as exc:
        raise _CliError(EXIT_INPUT, f"{what} file not found: {spec}") from exc


def _resolve_schedule(spec: str) -> Schedule:
    text = _read(fixture_path(spec) if spec in FIXTURE_NAMES else Path(spec), "schedule", spec)
    try:
        return schedule_from_json(text)
    except ScheduleFormatError as exc:
        raise _CliError(EXIT_INPUT, f"bad schedule {spec}: {exc}") from exc


def _parse_pair(text: str, n_qubits: int) -> tuple[int, int]:
    try:
        i, j = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise _CliError(EXIT_INPUT, f"bad pair {text!r}, expected 'i,j'") from exc
    if i >= j:
        raise _CliError(EXIT_INPUT, f"pair {text!r} must satisfy i < j")
    if i < 0 or j >= n_qubits:
        raise _CliError(EXIT_DIMENSION, f"pair {text!r} out of range for {n_qubits} qubits")
    return i, j


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The --config file's entries as ``--flag=value`` tokens; unknown keys
    and values that no flag could spell fail."""
    if not getattr(args, "config", None):
        return []
    text = _read(Path(args.config), "config", args.config)
    try:
        doc = json.loads(text)
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
        parser.add_argument("--chunks", type=int, default=TrainerConfig.chunk_count,
                            help=f"chunks per schedule, at most {MAX_CHUNKS}")
        parser.add_argument("--epochs", type=int, default=TrainerConfig.max_epochs, help="maximum training epochs")
        parser.add_argument("--target-rms", dest="target_rms", type=float, default=TrainerConfig.target_rms)
        parser.add_argument("--learning-rate", dest="learning_rate", type=float, default=TrainerConfig.learning_rate)
        parser.add_argument("--momentum", type=float, default=TrainerConfig.momentum)
        parser.add_argument("--method", default=TrainerConfig.method, choices=TRAINING_METHODS)


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser with every subcommand.

    ``main`` builds it only for the text it alone prints: the top-level
    help and usage, and the errors reported under them.
    """
    parser = argparse.ArgumentParser(prog="qnnwitness", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--list-repro", action="store_true",
                        help="print the command that regenerates each table/figure and exit")
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, add_arguments, _run) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def command_parser(command: str) -> argparse.ArgumentParser:
    """``command``'s parser alone, built as ``build_parser`` builds it under the tree."""
    parser = argparse.ArgumentParser(prog=f"qnnwitness {command}")
    _help, add_arguments, _run = _COMMANDS[command]
    add_arguments(parser)
    return parser


def _require_schedule(args: argparse.Namespace) -> Schedule:
    if not getattr(args, "schedule", None):
        raise _CliError(EXIT_INPUT, "--schedule is required")
    return _resolve_schedule(args.schedule)


def _witness_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p, "config", "schedule", "pair")
    p.add_argument("--state", default="all", help="Bell, Flat, C, P, or 'all'")
    p.add_argument("--method", default="chunked", help="exact, chunked, gates, or 'all'")


def _cmd_witness(args: argparse.Namespace) -> int:
    schedule = _require_schedule(args)
    pair = _parse_pair(args.pair, schedule.n_qubits)
    if args.state != "all" and args.state not in _STATES:
        raise _CliError(EXIT_INPUT, f"unknown state {args.state!r}, expected one of {list(_STATES)} or 'all'")
    if args.method != "all" and args.method not in METHODS:
        raise _CliError(EXIT_INPUT, f"unknown method {args.method!r}, expected one of {METHODS} or 'all'")
    kinds = list(PairStateKind) if args.state == "all" else [_STATES[args.state]]
    methods = list(METHODS) if args.method == "all" else [args.method]
    requested = TrainingSet(schedule.n_qubits, tuple(TrainingItem(kind, pair, WITNESS_TARGETS[kind]) for kind in kinds))
    # every method returns before any row is printed, so a refusal leaves stdout empty
    values = {method: witness_values(requested, schedule, method) for method in methods}
    print("state_kind,pair,method,value")
    for row, kind in enumerate(kinds):
        for method in methods:
            print(f"{kind.value},{pair[0]}-{pair[1]},{method},{float(values[method][row])!r}")
    return EXIT_OK


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p, "config", "schedule")


def _cmd_verify(args: argparse.Namespace) -> int:
    schedule = _require_schedule(args)
    report = verify_equivalence(schedule)
    print(json.dumps(report, indent=2, sort_keys=True))
    if report["frobenius_gate_vs_chunked"]["unitary"] > GATE_EQUIVALENCE_THRESHOLD:
        print("FAIL: gate circuit deviates from the chunked propagator", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def _compile_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p, "config", "schedule")
    p.add_argument("--out", help="output .qasm path (stdout when omitted)")
    p.add_argument("--no-elide", dest="no_elide", action="store_true",
                   help="keep identity-angle gates (exact gate-count reproduction)")


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


def report_diverged(exc: TrainingDiverged, out: Path) -> int:
    """Save the last good schedule in ``out`` and report the divergence on stderr."""
    path = out / "last_good_schedule.json"
    save_schedule(exc.last_good, path)
    print(f"diverged: {exc}", file=sys.stderr)
    print(f"last good schedule saved to {path}", file=sys.stderr)
    return EXIT_DIVERGED


def report_error(exc: Exception) -> int:
    """Print ``error: exc`` on stderr; its exit code, 3 for a dimension error and 2 for any other."""
    print(f"error: {exc}", file=sys.stderr)
    if isinstance(exc, _CliError):
        return exc.code
    return EXIT_DIMENSION if isinstance(exc, DimensionError) else EXIT_INPUT


def _train_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p, "config", "schedule", "seed", "out_dir", "training")
    p.add_argument("--n-qubits", dest="n_qubits", type=int, default=2)


def _cmd_train(args: argparse.Namespace) -> int:
    if getattr(args, "schedule", None):
        init = _resolve_schedule(args.schedule)
    else:
        init = random_schedule(args.n_qubits, args.chunks, args.seed)
    config = _trainer_config(args, init.n_chunks)
    training_set = build_training_set(init.n_qubits)
    out = _out_dir(args)
    try:
        result = train(init, training_set, config)
    except TrainingDiverged as exc:
        return report_diverged(exc, out)
    save_schedule(result.schedule, out / "trained_schedule.json")
    (out / "rms_history.csv").write_text(rms_history_csv(result))
    print(f"n={init.n_qubits} epochs={result.epochs_used} rms={result.final_rms!r} converged={result.converged}")
    return EXIT_OK


def _bootstrap_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p, "config", "seed", "out_dir", "training")
    p.add_argument("--n-max", dest="n_max", type=int, default=7)


def _cmd_bootstrap(args: argparse.Namespace) -> int:
    config = _trainer_config(args, args.chunks)
    try:
        results = bootstrap_chain(args.n_max, config)
    except TrainingDiverged as exc:
        return report_diverged(exc, _out_dir(args))
    out = _out_dir(args)
    for n, result in results.items():
        save_schedule(result.schedule, out / f"schedule_n{n}.json")
        (out / f"rms_history_n{n}.csv").write_text(rms_history_csv(result))
        print(f"n={n} epochs={result.epochs_used} rms={result.final_rms!r}")
    (out / "bootstrap_summary.csv").write_text(bootstrap_summary_csv(results))
    print(f"summary written to {out / 'bootstrap_summary.csv'}")
    return EXIT_OK


def _sample_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p, "config", "schedule", "pair", "seed", "out_dir")
    p.add_argument("--state", default="Bell")
    p.add_argument("--shots", type=int, help="single shot count (default: grid 50..20000 step 50)")
    p.add_argument("--iterations", type=int, default=ShotConfig.iterations,
                   help=f"runs per shot count, at most {MAX_ITERATIONS}")


def _cmd_sample(args: argparse.Namespace) -> int:
    schedule = _require_schedule(args)
    pair = _parse_pair(args.pair, schedule.n_qubits)
    if args.state not in _STATES:  # witness alone also takes 'all'
        raise _CliError(EXIT_INPUT, f"unknown state {args.state!r}, expected one of {list(_STATES)}")
    kind = _STATES[args.state]
    counts = (args.shots,) if args.shots is not None else ShotConfig.shot_counts
    config = ShotConfig(shot_counts=counts, iterations=args.iterations, seed=args.seed)
    stats = sweep(schedule, kind, pair, config)
    text = sweep_csv(stats)
    if args.out_dir:
        path = _out_dir(args) / f"sweep_{kind.value}.csv"
        path.write_text(text)
        print(f"sweep written to {path}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# name: (help, add-arguments, run), in the order --help lists them
_COMMANDS = {
    "witness": ("evaluate the witness for a reference state", _witness_arguments, _cmd_witness),
    "verify": ("gate/chunked/exact equivalence report (JSON)", _verify_arguments, _cmd_verify),
    "compile": ("compile a schedule to OpenQASM 2.0", _compile_arguments, _cmd_compile),
    "train": ("gradient-descent training of a schedule", _train_arguments, _cmd_train),
    "bootstrap": ("train 2 qubits, then bootstrap up to --n-max", _bootstrap_arguments, _cmd_bootstrap),
    "sample": ("finite-shot sweep of the witness estimator", _sample_arguments, _cmd_sample),
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # A call that names its subcommand first parses with that subcommand's
    # parser alone, which prints the same help and value errors as under
    # the tree. The full tree is built only for the text it alone prints:
    # the top-level help and usage (no subcommand, or a flag before it),
    # and an argument the subcommand does not know, reported under them.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if command:
        parser = command_parser(command)
        args, unknown = parser.parse_known_args(argv[1:])
    if not command or unknown:
        # parse_args exits for -h and for every error; what is left asks for
        # --list-repro or names no subcommand (argparse, 3.10 to 3.13 at
        # least, refuses "--" before one as an invalid choice)
        parser = build_parser()
        if parser.parse_args(argv).list_repro:
            for line in _REPRO_LINES:
                print(line)
            return EXIT_OK
        parser.print_help()
        return EXIT_INPUT
    try:
        flags = _config_flags(args)
        if flags:
            # parsed before the explicit flags, which therefore win
            args = parser.parse_args(flags + argv[1:])
        _help, _add_arguments, run = _COMMANDS[command]
        return run(args)
    except (_CliError, ValueError, OSError) as exc:  # DimensionError and ScheduleFormatError are ValueErrors
        return report_error(exc)


if __name__ == "__main__":
    sys.exit(main())
