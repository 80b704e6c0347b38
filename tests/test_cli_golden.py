"""The CLI's help, usage and error text, pinned byte for byte.

``cli_golden.json`` holds the exit code, stdout and stderr of each argv in
``GOLDEN_ARGVS``, recorded with ``COLUMNS=80`` while every call still
parsed under the top-level parser: the first fifteen from the full tree,
the last five just before a call naming its subcommand first started to
parse with that subcommand's parser alone. Those five pin the value
errors that parser now prints and the ``unrecognized arguments`` text it
leaves to the full tree.
The top-level help prints the ``cli`` module docstring, so when its list
of dimension errors changed, again when its list of input errors did,
again when both did, again when the input errors lost a qubit's
K^2 + eps^2, again when ``chunked``'s largest size at 4 chunks moved, and
again when both methods' did, the three entries that print it were edited in
that paragraph alone. The
argparse text is the CLI's contract too: a parser built differently (say,
``add_subparsers(metavar=...)``) can keep every parsed value and still
change what a user reads, such as ``argument command: invalid choice``.
"""

import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qnnwitness import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")
COLUMNS = "80"
SUBCOMMANDS = ("witness", "verify", "compile", "train", "bootstrap", "sample")
CONFIG = "{config}"  # replaced by a config file holding one unknown key
RERUN = "{rerun}"  # replaced by a config file holding a known key, so main parses twice

GOLDEN_ARGVS = (
    ["--help"],
    ["-h", "witness"],
    *([command, "-h"] for command in SUBCOMMANDS),
    [],
    ["bogus"],
    ["witness", "--bogus"],
    ["--bogus", "witness", "--schedule", "table2"],
    ["verify", "--schedule"],
    ["--list-repro"],
    ["verify", "--config", CONFIG],
    ["witness", "--pair"],
    ["sample", "--shots", "x"],
    ["train", "--method", "gates"],
    ["compile", "--no-elide=yes"],
    ["verify", "--list-repro"],
)


def capture(argv: list[str], config: Path) -> dict:
    """Exit code, stdout and stderr of one ``cli.main`` call; argparse's exits count as codes."""
    files = {CONFIG: str(config), RERUN: str(config.with_name("rerun.json"))}
    argv = [files.get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture()
def config(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"no_such_key": 1}))
    path.with_name("rerun.json").write_text(json.dumps({"pair": "0,1"}))
    return path


@pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_text_and_exit_code_match_the_recorded_ones(argv, config):
    recorded = json.loads(GOLDEN.read_text())[" ".join(argv)]
    assert capture(argv, config) == recorded


def test_every_recorded_argv_is_checked():
    assert set(json.loads(GOLDEN.read_text())) == {" ".join(argv) for argv in GOLDEN_ARGVS}


def _parsers_built(monkeypatch, argv: list[str], config: Path) -> int:
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    capture(argv, config)
    return len(built)


@pytest.mark.parametrize("argv", [
    ["witness", "-h"],
    ["verify", "--schedule"],
    ["sample", "--shots", "x"],
    ["train", "--method", "gates"],
    ["compile", "--no-elide=yes"],
    ["verify", "--config", CONFIG],
    ["witness", "--config", RERUN, "--schedule", "no-such-file.json"],
    ["compile", "--schedule", "no-such-file.json"],
    ["sample", "--schedule", "table2", "--state", "Bell", "--shots", "50", "--iterations", "2"],
], ids=lambda argv: " ".join(argv))
def test_a_call_naming_its_subcommand_first_builds_one_parser(argv, config, monkeypatch):
    assert _parsers_built(monkeypatch, argv, config) == 1


@pytest.mark.parametrize("argv", [
    ["witness", "--bogus"], ["verify", "--list-repro"],
], ids=lambda argv: " ".join(argv))
def test_an_argument_the_subcommand_does_not_know_builds_the_full_tree_after_it(argv, config, monkeypatch):
    assert _parsers_built(monkeypatch, argv, config) == 1 + 1 + len(SUBCOMMANDS)


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h", "witness"], [], ["bogus"], ["--bogus", "witness"], ["--list-repro"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_any_other_call_builds_the_full_tree(argv, config, monkeypatch):
    assert _parsers_built(monkeypatch, argv, config) == 1 + len(SUBCOMMANDS)


@pytest.mark.parametrize("argv", [
    ["witness"],
    ["witness", "--schedule", "table3", "--pair", "2,5", "--state", "Bell", "--method", "all"],
    ["verify", "--schedule=table2"],
    ["compile", "--schedule", "table2", "--no-elide", "--out", "x.qasm"],
    ["train"],
    ["train", "--n-qubits", "3", "--chunks", "8", "--method", "exact", "--learning-rate", "0.01"],
    ["bootstrap", "--n-max", "4", "--seed", "7", "--out-dir", "out", "--config", "c.json"],
    ["sample"],
    ["sample", "--schedule", "table2", "--shots", "100", "--iterations", "5", "--state", "Flat"],
], ids=lambda argv: " ".join(argv))
def test_the_command_parser_parses_as_the_full_tree(argv):
    alone = cli.command_parser(argv[0]).parse_args(argv[1:])
    assert argparse.Namespace(command=argv[0], list_repro=False, **vars(alone)) == cli.build_parser().parse_args(argv)
