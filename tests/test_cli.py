import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnnwitness import cli, core
from qnnwitness.compiler import compile_schedule
from qnnwitness.fixtures import fixture_path
from qnnwitness.hamiltonian import ChunkParams, Schedule, load_schedule, save_schedule
from qnnwitness.sampler import MAX_ITERATIONS, ShotConfig
from qnnwitness.trainer import MAX_CHUNKS, TrainerConfig
from qnnwitness.witness import PairStateKind, make_pair_state, witness_value


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_measured(capsys, *argv):
    """``run_cli`` plus its wall time in seconds and its tracemalloc peak in bytes."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, *argv)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out, err, elapsed, peak


def witness_rows(out):
    lines = out.strip().splitlines()
    assert lines[0] == "state_kind,pair,method,value"
    rows = {}
    for line in lines[1:]:
        state, pair, method, value = line.split(",")
        rows[(state, method)] = float(value)
    return rows


def _lifted(schedule: Schedule, n: int) -> Schedule:
    """The symmetric schedule's shared parameters on n qubits."""
    chunks = tuple(ChunkParams.uniform(n, ck.tunneling[0], ck.bias[0], ck.coupling[0]) for ck in schedule.chunks)
    return Schedule(n, schedule.total_time, chunks)


class TestWitnessCommand:
    def test_bell_chunked(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--schedule", "table2", "--state", "Bell", "--method", "chunked")
        assert code == 0
        rows = witness_rows(out)
        assert abs(rows[("Bell", "chunked")] - 0.999) <= 5e-3

    @pytest.mark.parametrize("method", ["exact", "chunked", "gates", "all"])
    @pytest.mark.parametrize("schedule, pair, n", [("table2", "-1,1", 2), ("table3", "-1,2", 7)])
    def test_a_negative_pair_index_is_out_of_range(self, capsys, method, schedule, pair, n):
        # exact and chunked under a symmetric schedule read no pair, yet print no row for this one
        code, out, err = run_cli(capsys, "witness", "--schedule", schedule, f"--pair={pair}", "--method", method)
        assert (code, out, err) == (3, "", f"error: pair {pair!r} out of range for {n} qubits\n")

    def test_an_unknown_state_exits_2_offering_all(self, capsys):
        code, out, err = run_cli(capsys, "witness", "--schedule", "table2", "--state", "bell")
        assert (code, out) == (2, "")
        assert err == "error: unknown state 'bell', expected one of ['Bell', 'Flat', 'C', 'P'] or 'all'\n"

    def test_flat_gates_is_tiny(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--schedule", "table2", "--state", "Flat", "--method", "gates")
        assert code == 0
        assert witness_rows(out)[("Flat", "gates")] <= 1e-3

    def test_all_states_all_methods(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--schedule", "table2", "--state", "all", "--method", "all")
        assert code == 0
        assert len(out.strip().splitlines()) == 13  # header + 4 states x 3 methods

    @pytest.mark.parametrize("n", [7, 10])
    def test_rows_match_the_dense_single_state_reference(self, tmp_path, capsys, table3, n):
        # exact and chunked read the pair (x) Dicke orbit states, gates the
        # compiled circuit on the whole batch; each row against one 2^n vector
        path = tmp_path / "s.json"
        schedule = _lifted(table3, n)
        save_schedule(schedule, path)
        for pair in ((0, 1), (n - 2, n - 1)):
            code, out, _ = run_cli(capsys, "witness", "--schedule", str(path), "--pair", f"{pair[0]},{pair[1]}",
                                   "--state", "all", "--method", "all")
            assert code == 0
            rows = witness_rows(out)
            assert len(rows) == 12
            for (state, method), value in rows.items():
                dense = witness_value(make_pair_state(PairStateKind(state), pair, n), pair, schedule, method)
                assert abs(value - dense) <= 1e-12, (pair, state, method)

    @pytest.mark.parametrize("method", ["chunked", "exact"])
    def test_symmetric_schedule_at_sixty_four_qubits(self, tmp_path, capsys, table3, method):
        # past the dense budget, which only gates would need
        path = tmp_path / "s64.json"
        save_schedule(_lifted(table3, 64), path)
        code, out, err = run_cli(capsys, "witness", "--schedule", str(path), "--pair", "17,63", "--method", method)
        assert code == 0, err
        rows = witness_rows(out)
        assert len(rows) == 4
        assert all(0.0 <= value <= 1.0 for value in rows.values())

    @pytest.mark.parametrize("flag", [True, False, None], ids=["symmetric_true", "symmetric_false", "symmetric_missing"])
    def test_uniform_chunks_are_symmetric_whatever_the_flag(self, tmp_path, capsys, table3, flag):
        # uniformity is read from the chunks; the optional key only has to agree
        def written(schedule, name):
            path = tmp_path / name
            save_schedule(schedule, path)
            doc = json.loads(path.read_text())
            if flag is None:
                del doc["symmetric"]
            else:
                doc["symmetric"] = flag
            path.write_text(json.dumps(doc))
            return str(path)

        every = ("--state", "all", "--method", "all")
        _, expected, _ = run_cli(capsys, "witness", "--schedule", "table3", *every)
        code, out, err = run_cli(capsys, "witness", "--schedule", written(table3, "t3.json"), *every)
        assert (code, out) == (0, expected), err
        forty = written(_lifted(table3, 40), "s40.json")
        code, out, err = run_cli(capsys, "witness", "--schedule", forty, "--method", "chunked")
        assert code == 0, err
        assert len(witness_rows(out)) == 4
        code, out, err = run_cli(capsys, "witness", "--schedule", forty, "--method", "gates")
        assert (code, out) == (3, "")

    def test_malformed_schedule_names_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_qubits": 2, "total_time": 1.0, "chunks": [], "bogus_key": 3}')
        code, _, err = run_cli(capsys, "witness", "--schedule", str(bad))
        assert code == 2
        assert "bogus_key" in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"n_qubits": 2, "total_time": NaN, "chunks": [CHUNK]}', "total_time"),
            ('{"n_qubits": 2, "total_time": 1.0, "chunks": 5}', "chunks"),
            ('{"n_qubits": 2, "total_time": 1.0, "chunks": [{"K": [1, 1], "eps": [0, 0], "zeta": {"0,1": [1]}}]}',
             "zeta"),
            ('{"n_qubits": true, "total_time": 1.0, "chunks": [CHUNK]}', "n_qubits"),
            ('{"n_qubits": 2, "total_time": 1.0, "chunks": [{"K": "22", "eps": [0, 0], "zeta": {"0,1": 0.5}}]}', "K"),
            ('{"n_qubits": 2, "total_time": 1.0, "symmetric": "no", "chunks": [CHUNK]}', "symmetric"),
            ('{"n_qubits": 2, "total_time": 1.0, "chunks": [{"K": [NaN, NaN], "eps": [0, 0], "zeta": {"0,1": 0.5}}]}',
             "K"),
            # parsed as the pair (0, 1), then looked up as "0,1": a KeyError traceback
            ('{"n_qubits": 2, "total_time": 1.0, "chunks": [{"K": [1, 1], "eps": [0, 0], "zeta": {"0, 1": 0.5}}]}',
             "'0, 1'"),
        ],
        ids=["nan_total_time", "chunks_not_a_list", "zeta_not_a_number", "bool_n_qubits", "k_string",
             "symmetric_string", "nan_K", "zeta_key_with_space"],
    )
    def test_malformed_schedule_is_refused(self, tmp_path, capsys, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(doc.replace("CHUNK", '{"K": [1, 1], "eps": [0, 0], "zeta": {"0,1": 0.5}}'))
        code, out, err = run_cli(capsys, "witness", "--schedule", str(bad), "--state", "Flat")
        assert code == 2
        assert message in err
        assert out == ""

    def test_missing_schedule_file(self, capsys):
        code, _, err = run_cli(capsys, "witness", "--schedule", "nope.json")
        assert code == 2
        assert "not found" in err

    def test_pair_out_of_range_is_dimension_error(self, capsys):
        code, _, err = run_cli(capsys, "witness", "--schedule", "table2", "--pair", "0,5")
        assert code == 3


class TestVerifyCommand:
    def test_table2_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--schedule", "table2")
        assert code == 0
        report = json.loads(out)
        assert report["frobenius_gate_vs_chunked"]["unitary"] < 1e-12
        for value in report["frobenius_chunked_vs_exact"]["density_matrix"].values():
            assert 0.005 <= value <= 0.05

    def test_zero_coupling_schedule(self, tmp_path, capsys):
        doc = {
            "n_qubits": 2,
            "total_time": 1.58,
            "symmetric": True,
            "chunks": [{"K": [2.49, 2.49], "eps": [0.093, 0.093], "zeta": {"0,1": 0.0}}] * 4,
        }
        path = tmp_path / "zeta0.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--schedule", str(path))
        assert code == 0
        assert json.loads(out)["frobenius_chunked_vs_exact"]["unitary"] < 1e-12

    def test_threshold_failure_exits_1(self, capsys, monkeypatch):
        def fake_verify(schedule):
            return {
                "n_qubits": 2,
                "frobenius_gate_vs_chunked": {"unitary": 1e-3, "density_matrix": {}},
                "frobenius_chunked_vs_exact": {"unitary": 0.01, "density_matrix": {}},
            }

        monkeypatch.setattr(cli, "verify_equivalence", fake_verify)
        code, _, err = run_cli(capsys, "verify", "--schedule", "table2")
        assert code == 1
        assert "FAIL" in err


class TestCompileCommand:
    def test_table2_counts(self, tmp_path, capsys):
        out_path = tmp_path / "t2.qasm"
        code, out, _ = run_cli(capsys, "compile", "--schedule", "table2", "--out", str(out_path), "--no-elide")
        assert code == 0
        assert out.strip() == "1q=28 2q=8"
        text = out_path.read_text()
        gate_lines = [l for l in text.splitlines() if l.startswith(("rx", "ry", "rz", "cx"))]
        assert len(gate_lines) == 36

    def test_all_zero_schedule(self, tmp_path, capsys):
        doc = {
            "n_qubits": 2,
            "total_time": 1.0,
            "chunks": [{"K": [0.0, 0.0], "eps": [0.0, 0.0], "zeta": {"0,1": 0.0}}] * 4,
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "zero.qasm"
        code, out, _ = run_cli(capsys, "compile", "--schedule", str(path), "--out", str(out_path))
        assert code == 0
        assert out.strip() == "1q=0 2q=0"
        assert all(not l.startswith(("rx", "ry", "rz", "cx")) for l in out_path.read_text().splitlines())

    def test_table3_counts(self, tmp_path, capsys):
        # 4 chunks x (3*21 pair gates + 3*7 rotations) = 336 gates total
        out_path = tmp_path / "t3.qasm"
        code, out, _ = run_cli(capsys, "compile", "--schedule", "table3", "--out", str(out_path), "--no-elide")
        assert code == 0
        assert out.strip() == "1q=168 2q=168"


class TestOneCircuitPerSchedule:
    def test_a_fresh_schedule_is_compiled_once_by_witness_verify_and_compile(self, tmp_path, capsys, table3):
        # the gates witness and verify run the circuit that compile --no-elide prints
        factors = np.random.default_rng(20).normal(1.0, 1e-3, size=(table3.n_chunks, 3))
        chunks = tuple(ChunkParams.uniform(7, *np.multiply(ck.shared, f)) for ck, f in zip(table3.chunks, factors))
        path = tmp_path / "jittered.json"
        save_schedule(Schedule(7, table3.total_time, chunks), path)
        misses = compile_schedule.cache_info().misses
        for argv in (["witness", "--state", "all", "--method", "all"], ["verify"],
                     ["compile", "--no-elide", "--out", str(tmp_path / "t3.qasm")]):
            code, _, err = run_cli(capsys, *argv, "--schedule", str(path))
            assert code == 0, (argv, err)
        assert compile_schedule.cache_info().misses == misses + 1

    def test_elided_compile_of_24_qubits_builds_no_phase_vector(self, tmp_path, capsys, monkeypatch):
        # each of the four phase vectors would be 256 MiB; compile only sizes the circuit
        path = tmp_path / "s24.json"
        save_schedule(Schedule(24, 1.58, tuple(ChunkParams.uniform(24, 2.5, 0.1 * k, 0.05) for k in range(4))), path)
        compiled = []

        def kept_compile(*args, **kwargs):
            compiled.append(compile_schedule(*args, **kwargs))
            return compiled[-1]

        monkeypatch.setattr(cli, "compile_schedule", kept_compile)
        code, out, _, _, peak = run_cli_measured(capsys, "compile", "--schedule", str(path),
                                                 "--out", str(tmp_path / "s24.qasm"))
        assert (code, out.strip()) == (0, f"1q={4 * (276 + 3 * 24)} 2q={4 * 2 * 276}")
        assert peak < 4 * 2**20
        phases = [step for step in compiled[0].steps if isinstance(step, core._PhaseRun)]
        assert len(phases) == 4 and all(step._vector is None for step in phases)


class TestTrainCommand:
    def test_table2_rms_at_epoch_zero(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "train", "--schedule", "table2", "--epochs", "0", "--out-dir", str(tmp_path)
        )
        assert code == 0
        history = (tmp_path / "rms_history.csv").read_text().splitlines()
        assert float(history[1].split(",")[1]) <= 5e-3
        trained = load_schedule(tmp_path / "trained_schedule.json")
        assert trained.n_qubits == 2

    def test_random_init_writes_artifacts(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "train", "--n-qubits", "2", "--chunks", "4", "--seed", "0",
            "--epochs", "200", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "trained_schedule.json").exists()
        assert (tmp_path / "rms_history.csv").exists()
        assert "converged=True" in out

    def test_divergence_exit_code(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "train", "--schedule", "table2", "--learning-rate", "10.0", "--momentum", "0.0",
            "--epochs", "500", "--target-rms", "1e-9", "--out-dir", str(tmp_path),
        )
        assert code == 4
        assert (tmp_path / "last_good_schedule.json").exists()
        assert "diverged" in err

    @pytest.mark.parametrize("flag", [False, None], ids=["symmetric_false", "symmetric_missing"])
    def test_uniform_chunks_train_whatever_the_symmetric_flag(self, tmp_path, capsys, flag):
        # the trainer needs uniform chunks, not the flag that asserts them
        doc = json.loads(fixture_path("table2").read_text())
        if flag is None:
            del doc["symmetric"]
        else:
            doc["symmetric"] = flag
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "train", "--schedule", str(path), "--epochs", "0", "--out-dir", str(tmp_path))
        assert code == 0
        assert load_schedule(tmp_path / "trained_schedule.json").symmetric

    def test_non_uniform_chunks_are_refused(self, tmp_path, capsys):
        chunk = {"K": [2.49, 2.0], "eps": [0.093, 0.093], "zeta": {"0,1": 0.0382}}
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"n_qubits": 2, "total_time": 1.58, "symmetric": False, "chunks": [chunk] * 4}))
        code, out, err = run_cli(capsys, "train", "--schedule", str(path), "--epochs", "0", "--out-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert "cannot extract shared parameters" in err
        assert not (tmp_path / "trained_schedule.json").exists()


    @pytest.mark.parametrize(
        "argv, field",
        [
            (["train", "--target-rms", "nan"], "target_rms"),
            (["bootstrap", "--n-max", "3", "--target-rms", "nan"], "target_rms"),
            (["train", "--learning-rate", "inf"], "learning_rate"),
            (["train", "--learning-rate", "nan"], "learning_rate"),
        ],
        ids=["train_nan_target", "bootstrap_nan_target", "train_inf_rate", "train_nan_rate"],
    )
    def test_non_finite_settings_refused(self, tmp_path, capsys, argv, field):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *argv, "--out-dir", str(out))
        assert code == 2
        assert field in err
        assert stdout == ""
        assert not out.exists()


class TestBootstrapCommand:
    def test_small_chain(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "bootstrap", "--n-max", "3", "--seed", "0", "--out-dir", str(tmp_path),
        )
        assert code == 0
        summary = (tmp_path / "bootstrap_summary.csv").read_text().splitlines()
        assert len(summary) == 3  # header + n=2 + n=3
        assert (tmp_path / "schedule_n2.json").exists()
        assert (tmp_path / "schedule_n3.json").exists()
        for n in (2, 3):
            rms = float(summary[n - 1].split(",")[2])
            assert rms <= 1e-3

    def test_chain_shorter_than_two_qubits_is_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, "bootstrap", "--n-max", "1", "--out-dir", str(out))
        assert (code, stdout) == (2, "")
        assert "a pairwise training set needs at least 2 qubits" in err
        assert not out.exists()

    def test_divergence_is_reported_as_train_reports_it(self, tmp_path, capsys):
        settings = ["--learning-rate", "10.0", "--momentum", "0.0", "--epochs", "500", "--target-rms", "1e-9"]
        errs = []
        for argv in (["train", "--schedule", "table2"], ["bootstrap", "--n-max", "3"]):
            out = tmp_path / argv[0]
            code, stdout, err = run_cli(capsys, *argv, *settings, "--out-dir", str(out))
            assert (code, stdout) == (4, "")
            assert (out / "last_good_schedule.json").exists()
            errs.append(err.replace(str(out), "OUT"))
        assert [err.splitlines()[-1] for err in errs] == ["last good schedule saved to OUT/last_good_schedule.json"] * 2
        assert all(err.startswith("diverged: rms ") for err in errs)


class TestSampleCommand:
    def test_single_count_ci(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample", "--schedule", "table2", "--state", "Bell", "--shots", "15000",
            "--iterations", "100", "--seed", "0", "--out-dir", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "sweep_Bell.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        half_width = (float(row["ci_high"]) - float(row["ci_low"])) / 2
        assert half_width <= 0.002

    def test_default_grid_row_count(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys,
            "sample", "--schedule", "table2", "--state", "Bell",
            "--iterations", "1", "--seed", "0", "--out-dir", str(tmp_path),
        )
        assert code == 0
        rows = (tmp_path / "sweep_Bell.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(50, 20001, 50))

    def test_seed_reproducibility(self, tmp_path, capsys):
        args = ("sample", "--schedule", "table2", "--state", "P", "--shots", "300",
                "--iterations", "20", "--seed", "5")
        code, _, _ = run_cli(capsys, *args, "--out-dir", str(tmp_path / "a"))
        assert code == 0
        code, _, _ = run_cli(capsys, *args, "--out-dir", str(tmp_path / "b"))
        assert code == 0
        assert (tmp_path / "a" / "sweep_P.csv").read_bytes() == (tmp_path / "b" / "sweep_P.csv").read_bytes()

    def test_stdout_when_no_out_dir(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--schedule", "table2", "--shots", "100", "--iterations", "3", "--seed", "1"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("shot_count,mean,variance")

    @pytest.mark.parametrize("state", ["all", "bell"])
    def test_an_unknown_state_exits_2_naming_only_what_sample_takes(self, capsys, state):
        # witness takes 'all'; sample draws one state and must not offer it
        code, out, err = run_cli(capsys, "sample", "--schedule", "table2", "--state", state, "--iterations", "1")
        assert (code, out) == (2, "")
        assert err == f"error: unknown state {state!r}, expected one of ['Bell', 'Flat', 'C', 'P']\n"

    def test_a_negative_pair_index_is_out_of_range(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--schedule", "table2", "--pair=-1,1", "--iterations", "1")
        assert (code, out, err) == (3, "", "error: pair '-1,1' out of range for 2 qubits\n")

    def test_shot_count_beyond_int64_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--schedule", "table2", "--shots", str(10**20), "--iterations", "1")
        assert (code, out) == (2, "")
        assert "shot counts must not exceed" in err
        # the largest count a binomial draw takes still runs
        code, out, _ = run_cli(capsys, "sample", "--schedule", "table2", "--shots", str(2**63 - 1), "--iterations", "1")
        assert code == 0 and out.startswith("shot_count,")


class TestConfigFile:
    def test_values_from_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"schedule": "table2", "state": "Bell", "method": "chunked"}))
        code, out, _ = run_cli(capsys, "witness", "--config", str(config))
        assert code == 0
        assert abs(witness_rows(out)[("Bell", "chunked")] - 0.999) <= 5e-3

    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"schedule": "table2", "state": "Bell"}))
        code, out, _ = run_cli(capsys, "witness", "--config", str(config), "--state", "Flat")
        assert code == 0
        rows = witness_rows(out)
        assert ("Flat", "chunked") in rows and ("Bell", "chunked") not in rows

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"schedule": "table2", "shotz": 100}))
        code, _, err = run_cli(capsys, "witness", "--config", str(config))
        assert code == 2
        assert "shotz" in err

    @pytest.mark.parametrize("key, value", [("command", "verify"), ("list_repro", True)])
    def test_a_top_level_name_is_an_unknown_key(self, tmp_path, capsys, key, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value}))
        code, out, err = run_cli(capsys, "witness", "--config", str(config))
        assert (code, out, err) == (2, "", f"error: unknown key {key!r} in config file\n")


class TestFilesRemovedWhileRead:
    """A file that exists when the command starts but is gone when it is read
    is reported as missing, as one that never existed is."""

    @pytest.fixture
    def vanishing(self, tmp_path, monkeypatch):
        path = tmp_path / "gone.json"
        path.write_text(json.dumps({"schedule": "table2"}))
        read_text = Path.read_text

        def read_after_removal(self, *args, **kwargs):
            if self == path:
                path.unlink()
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", read_after_removal)
        return str(path)

    def test_schedule_file(self, capsys, vanishing):
        code, out, err = run_cli(capsys, "witness", "--schedule", vanishing)
        assert (code, out, err) == (2, "", f"error: schedule file not found: {vanishing}\n")

    def test_config_file(self, capsys, vanishing):
        code, out, err = run_cli(capsys, "witness", "--config", vanishing)
        assert (code, out, err) == (2, "", f"error: config file not found: {vanishing}\n")


class TestNegativeSeed:
    @pytest.mark.parametrize("argv", [["train", "--seed", "-5"], ["train", "--schedule", "table2", "--seed", "-5"],
                                      ["bootstrap", "--seed", "-5"]], ids=["train", "train_schedule", "bootstrap"])
    def test_a_negative_seed_exits_2_naming_it(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *argv, "--out-dir", str(out))
        assert (code, stdout, err) == (2, "", "error: seed must be a non-negative integer, got -5\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "bootstrap"])
    def test_a_negative_seed_in_a_config_file_exits_2_naming_it(self, tmp_path, capsys, command):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": -3}))
        code, stdout, err = run_cli(capsys, command, "--config", str(config), "--out-dir", str(tmp_path / "out"))
        assert (code, stdout, err) == (2, "", "error: seed must be a non-negative integer, got -3\n")


class TestTopLevel:
    def test_list_repro(self, capsys):
        code, out, _ = run_cli(capsys, "--list-repro")
        assert code == 0
        assert "Table 1" in out and "Figs 1-2" in out and "bootstrap" in out

    def test_parsed_defaults_are_the_config_defaults(self):
        parser = cli.build_parser()
        for command in ("train", "bootstrap"):
            args = parser.parse_args([command])
            assert cli._trainer_config(args, args.chunks) == TrainerConfig()
        args = parser.parse_args(["sample"])
        assert (args.shots, args.iterations, args.seed) == (None, ShotConfig().iterations, ShotConfig().seed)

    def test_no_command_shows_help(self, capsys):
        code, out, _ = run_cli(capsys)
        assert code == 2

    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qnnwitness.cli", "--list-repro"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "Table 1" in proc.stdout


class TestDimensionRefusals:
    def test_verify_refuses_eleven_qubits_with_exit_3(self, tmp_path, capsys):
        path = tmp_path / "s11.json"
        save_schedule(Schedule(11, 1.58, (ChunkParams.uniform(11, 2.5, 0.1, 0.05),) * 4), path)
        code, out, err = run_cli(capsys, "verify", "--schedule", str(path))
        assert code == 3
        assert "refusing dense 2**11 x 2**11 arrays for 11 > 10 qubits" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [["verify"], ["witness", "--method", "exact"], ["witness", "--method", "all"]],
                             ids=["verify", "witness_exact", "witness_all"])
    def test_dense_exact_above_ten_qubits_exits_3(self, tmp_path, capsys, argv):
        # a non-uniform chunk keeps exact on 2^n x 2^n propagators, capped at 10 qubits
        path = tmp_path / "s11.json"
        chunk = ChunkParams(tuple(2.5 + 0.01 * q for q in range(11)), (0.1,) * 11, (0.05,) * 55)
        save_schedule(Schedule(11, 1.58, (chunk,) * 4), path)
        code, out, err = run_cli(capsys, *argv, "--schedule", str(path))
        assert (code, out) == (3, "")
        assert "refusing dense 2**11 x 2**11 arrays for 11 > 10 qubits" in err

    def test_verify_of_one_qubit_exits_3_like_witness(self, tmp_path, capsys):
        path = tmp_path / "s1.json"
        save_schedule(Schedule(1, 1.58, (ChunkParams((2.5,), (0.1,), ()),)), path)
        for argv in (["verify"], ["witness", "--pair", "0,1"]):
            code, out, err = run_cli(capsys, *argv, "--schedule", str(path))
            assert (code, out) == (3, ""), argv
            assert "(0, 1)" in err or "'0,1'" in err

    @pytest.mark.parametrize(
        "argv",
        [["train", "--n-qubits", "40"], ["bootstrap", "--n-max", "40"],
         ["train", "--n-qubits", "10000000"], ["bootstrap", "--n-max", "10000000"]],
        ids=["train", "bootstrap", "train_1e7", "bootstrap_1e7"],
    )
    def test_register_too_large_for_training_exits_3_without_allocating(self, tmp_path, capsys, argv):
        # at 10^7 qubits, 2**n alone would be a 1.25 MB integer with 3 million digits
        out = tmp_path / "out"
        code, stdout, err, elapsed, peak = run_cli_measured(capsys, *argv, "--out-dir", str(out))
        assert code == 3
        assert f"{argv[-1]} qubits" in err and stdout == ""
        assert elapsed < 0.5 and peak < 2**20
        assert not out.exists()

    @pytest.mark.parametrize("method", ["gates", "all"])
    def test_witness_refuses_a_forty_qubit_schedule(self, tmp_path, capsys, method):
        # the symmetric schedule's exact and chunked values need no 2^40
        # vector, but the gate circuit does; no row is printed before it refuses
        path = tmp_path / "s40.json"
        save_schedule(Schedule(40, 1.58, (ChunkParams.uniform(40, 2.5, 0.1, 0.05),)), path)
        code, out, err = run_cli(capsys, "witness", "--schedule", str(path), "--state", "Bell", "--method", method)
        assert (code, out) == (3, "")
        assert "40 qubits" in err


class TestSizeRefusals:
    @pytest.mark.parametrize(
        "argv",
        [["train", "--chunks", str(MAX_CHUNKS + 1)], ["train", "--chunks", str(10**12)],
         ["bootstrap", "--chunks", str(MAX_CHUNKS + 1)], ["bootstrap", "--chunks", str(10**12)],
         ["sample", "--schedule", "table2", "--iterations", str(MAX_ITERATIONS + 1)],
         ["sample", "--schedule", "table2", "--iterations", str(10**12)]],
        ids=["train", "train_1e12", "bootstrap", "bootstrap_1e12", "sample", "sample_1e12"],
    )
    def test_size_past_its_bound_exits_2_without_running(self, tmp_path, capsys, argv):
        # past the bound a run would take as long as its size asks, or never end
        out = tmp_path / "out"
        code, stdout, err, elapsed, peak = run_cli_measured(capsys, *argv, "--out-dir", str(out))
        assert (code, stdout) == (2, "")
        bound = MAX_ITERATIONS if argv[0] == "sample" else MAX_CHUNKS
        assert f"1..{bound}, got {argv[-1]}" in err
        assert elapsed < 0.5 and peak < 2**20
        assert not out.exists()


def _uniform_document(n: int, tunneling: float, bias: float, coupling: float = 0.1, total_time: float = 1.58) -> str:
    pairs = {f"{i},{j}": coupling for i in range(n) for j in range(i + 1, n)}
    chunk = {"K": [tunneling] * n, "eps": [bias] * n, "zeta": pairs}
    return json.dumps({"n_qubits": n, "total_time": total_time, "symmetric": True, "chunks": [chunk] * 4})


def _fixture_with(name: str, **changes) -> str:
    """A bundled fixture with ``total_time`` or every chunk's ``K`` replaced."""
    doc = json.loads(fixture_path(name).read_text())
    if "K" in changes:
        for chunk in doc["chunks"]:
            chunk["K"] = [changes["K"]] * len(chunk["K"])
    doc["total_time"] = changes.get("total_time", doc["total_time"])
    return json.dumps(doc)


def _phases_over_4e300(uniform: bool) -> str:
    # every parameter sum is finite, but dt = 1e300 times the chunk's energies is not
    doc = json.loads(_uniform_document(3, 0.5, 0.2, 1e10))
    doc["total_time"] = 4e300
    if not uniform:
        del doc["symmetric"]
        doc["chunks"][0]["zeta"]["1,2"] = 2e10
    return json.dumps(doc)


def _range_message(time: str, phase: str) -> str:
    return (f"a phase of exp(-i H dt) keeps no digit: a chunk's energies over a time of {time} reach {phase} radians, "
            "not below 2**52")


# name: (document, the refusal every command prints)
_OUT_OF_RANGE = {
    # S is inf: K times a sector block's ladder overflows, and the gate angles are past 1e307
    "table3_K_1e308": lambda: (_fixture_with("table3", K=1e308), _range_message("1.58", "inf")),
    "total_time_4e300_uniform": lambda: (_phases_over_4e300(True), _range_message("4e+300", "inf")),
    "total_time_4e300_non_uniform": lambda: (_phases_over_4e300(False), _range_message("4e+300", "inf")),
    # finite phases that hold no digit mod 2 pi: each method printed its own witness values, and exited 0
    "table3_total_time_1e300": lambda: (_fixture_with("table3", total_time=1e300), _range_message("1e+300", "4.06e+301")),
    "table3_K_1e200": lambda: (_fixture_with("table3", K=1e200), _range_message("1.58", "2.21e+201")),
    # dt = 5e-324 / 4 rounds to 0
    "table3_dt_0": lambda: (_fixture_with("table3", total_time=5e-324),
                            "dt must be positive: total_time 5e-324 over 4 chunks is 0"),
    # the sum of every |K| is finite, but 2 total_time times that sum is not
    "table2_K_8e307": lambda: (_fixture_with("table2", K=8e307), _range_message("1.58", "inf")),
    # each chunk's 2 dt zeta = 1.2e15 keeps its digits, but the circuit runs the 8 chunks' ZZ gates,
    # nothing between, as one phase, 2 total_time zeta = 9.6e15: why the rule's time is the whole schedule's
    "zz_only_8_chunks": lambda: (json.dumps({"n_qubits": 2, "total_time": 2.4, "chunks": [
        {"K": [0.0, 0.0], "eps": [0.0, 0.0], "zeta": {"0,1": 2e15}}] * 8}), _range_message("2.4", "9.6e+15")),
}

# |(K, eps)| past 1e154, whose square overflows a float, with phases under 2**52 at a total time of 1e-195
_HUGE_BUT_IN_RANGE = {
    "huge_K_1e155": lambda: _uniform_document(3, 1e155, 0.1, total_time=1e-195),
    "huge_eps_1e200": lambda: _uniform_document(3, 2.5, 1e200, total_time=1e-195),
}


# every command that reads a schedule, by id; OUT is a directory that must not be made
_EVERY_COMMAND = {
    "witness_exact": ["witness", "--method", "exact"], "witness_chunked": ["witness", "--method", "chunked"],
    "witness_gates": ["witness", "--method", "gates"], "witness_all": ["witness", "--state", "all", "--method", "all"],
    "verify": ["verify"], "compile": ["compile"],
    "compile_no_elide": ["compile", "--no-elide"],
    "sample": ["sample", "--shots", "50", "--iterations", "1", "--out-dir", "OUT"],
    "train": ["train", "--epochs", "1", "--out-dir", "OUT"],
}


class TestExtremeSchedules:
    @pytest.mark.parametrize(
        "doc",
        [{"n_qubits": 9000, "total_time": 1.0, "chunks": []},
         {"n_qubits": 9000, "total_time": 1.0, "chunks": [{"K": [1.0], "eps": [1.0], "zeta": {}}]}],
        ids=["no_chunks", "chunk_sized_for_one_qubit"],
    )
    def test_short_document_is_refused_without_building_its_pairs(self, tmp_path, capsys, doc):
        # the C(9000, 2) = 40 million pairs of the claimed register would take gigabytes
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        code, out, err, elapsed, peak = run_cli_measured(capsys, "witness", "--schedule", str(path))
        assert (code, out) == (2, "")
        assert "chunk" in err
        assert elapsed < 0.5 and peak < 2**20

    @pytest.mark.parametrize(
        "method, epochs",
        [("chunked", []), ("exact", []), ("chunked", ["--epochs", "1"]), ("exact", ["--epochs", "1"])],
        ids=["chunked", "exact", "chunked-one_epoch", "exact-one_epoch"],
    )
    def test_a_step_to_huge_parameters_is_refused_at_the_next_gradient(self, tmp_path, capsys, method, epochs):
        # the first step takes K to about -5.7e306, whose phases keep no digit:
        # refused as it lands, also when it is the last step and no gradient follows
        code, _, err = run_cli(capsys, "train", "--learning-rate", "1e308", "--out-dir", str(tmp_path),
                               "--method", method, *epochs)
        assert code == 2
        assert "keeps no digit" in err
        assert not (tmp_path / "trained_schedule.json").exists()

    def test_a_step_past_the_float_range_is_refused_in_one_line(self, tmp_path, capsys):
        # learning rate times the first gradient overflows: one line naming both, no numpy warning
        code, out, err = run_cli(capsys, "train", "--n-qubits", "4", "--epochs", "1", "--learning-rate",
                                 "1.992853074454984e+307", "--out-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == "error: learning rate 1.992853074454984e+307 overflows a parameter at epoch 1\n"
        assert not (tmp_path / "trained_schedule.json").exists()

    @pytest.mark.parametrize("command", sorted(_EVERY_COMMAND))
    @pytest.mark.parametrize("name", sorted(_OUT_OF_RANGE))
    @pytest.mark.filterwarnings("error")  # a numpy warning, which a cold process prints, fails the test
    def test_every_command_refuses_a_schedule_out_of_range_alike(self, tmp_path, capsys, name, command):
        # the range rule runs as the schedule is read, so every command prints
        # the same one line and nothing else, the gate circuit and training too
        text, message = _OUT_OF_RANGE[name]()
        path, out_dir = tmp_path / "s.json", tmp_path / "out"
        path.write_text(text)
        argv = [str(out_dir) if token == "OUT" else token for token in _EVERY_COMMAND[command]]
        code, out, err = run_cli(capsys, *argv, "--schedule", str(path))
        assert (code, out, err) == (2, "", f"error: bad schedule {path}: {message}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", sorted(_EVERY_COMMAND))
    @pytest.mark.parametrize("name", sorted(_HUGE_BUT_IN_RANGE))
    @pytest.mark.filterwarnings("error")
    def test_every_command_runs_a_schedule_whose_magnitude_squared_overflows(self, tmp_path, capsys, name, command):
        # the range rule bounds every phase, and no method squares |(K, eps)|, the chunked gradient
        # included, so these run under every command as any schedule in range does
        path = tmp_path / "s.json"
        path.write_text(_HUGE_BUT_IN_RANGE[name]())
        argv = [str(tmp_path / "out") if token == "OUT" else token for token in _EVERY_COMMAND[command]]
        code, out, err = run_cli(capsys, *argv, "--schedule", str(path))
        assert code == 0, err
        # compile writes its QASM to stdout and the gate counts to stderr
        assert re.fullmatch(r"1q=\d+ 2q=\d+\n" if command.startswith("compile") else "", err)
        if command.startswith("witness"):
            values = [float(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:]]
            assert values and all(0.0 <= value <= 1.0 for value in values), out

    def test_overflowing_parameters_are_refused_alike_by_every_method(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(_uniform_document(2, 1.7e308, 1.7e308))
        errors = set()
        for method in ("exact", "chunked", "gates"):
            code, out, err = run_cli(capsys, "witness", "--schedule", str(path), "--method", method)
            assert (code, out) == (2, ""), method
            errors.add(err)
        assert len(errors) == 1
        assert "Hamiltonian parameters must be finite" in errors.pop()


# --- fuzzing ------------------------------------------------------------

_ODD_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 3), st.sampled_from([0.0, 1e308, -1e308, 5e-324])
)
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2), st.just({}))


@st.composite
def _schedule_texts(draw):
    """Schedule files near the schema: mostly well formed, with one field in
    about twenty of the wrong size, type or value, and now and then no JSON."""

    def rare() -> bool:
        return draw(st.integers(0, 19)) == 0

    if rare():
        return draw(st.text(max_size=20))
    n = draw(st.integers(1, 4))

    def near(value):
        return draw(_JUNK) if rare() else value

    def number():
        return draw(_ODD_NUMBERS) if rare() else draw(st.floats(-5, 5))

    def numbers(count):
        return near([number() for _ in range(count + (draw(st.sampled_from([-1, 1])) if rare() else 0))])

    shared = draw(st.booleans())
    chunks = []
    for _ in range(0 if rare() else draw(st.integers(1, 3))):
        pairs = [f"{i},{j}" for i in range(n) for j in range(i + 1, n)]
        if pairs and rare():
            pairs[draw(st.integers(0, len(pairs) - 1))] = draw(st.sampled_from(["0,0", "1,0", "0,9", "a", "0,1,2"]))
        k, eps, zeta = number(), number(), number()
        chunks.append(near({
            "K": near([k] * n) if shared else numbers(n),
            "eps": near([eps] * n) if shared else numbers(n),
            "zeta": near({key: zeta if shared else number() for key in pairs}),
        }))
    doc = {
        "n_qubits": near(n),
        "total_time": number() if rare() else draw(st.floats(0.1, 3)),
        "symmetric": near(shared if not rare() else not shared),
        "chunks": near(chunks),
    }
    if rare():
        key = draw(st.sampled_from(["n_qubits", "total_time", "symmetric", "chunks", "extra"]))
        doc.pop(key) if key in doc else doc.setdefault(key, 1)
    return json.dumps(doc)


_WITNESS_FLAGS = st.lists(st.one_of(
    st.tuples(st.just("--pair"), st.sampled_from(["0,1", "1,2", "0,3", "2,1", "0,9", "-1,1", "a,b", "0,1,2", ""])),
    st.tuples(st.just("--state"), st.sampled_from(["Bell", "Flat", "C", "P", "all", "bell", ""])),
    st.tuples(st.just("--method"), st.sampled_from(["exact", "chunked", "gates", "all", "dense"])),
), max_size=3)
_COMPILE_FLAGS = st.lists(st.sampled_from([("--no-elide",), ("--out", "OUT"), ("--out", "DIR")]), max_size=2)
_CONFIG_VALUES = st.one_of(st.text(max_size=4), st.integers(-2, 12), st.booleans(), st.none(), st.floats(), st.lists(st.integers(), max_size=2))


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["witness", "verify", "compile"]))
    flags = {"witness": _WITNESS_FLAGS, "verify": st.just([]), "compile": _COMPILE_FLAGS}[command]
    argv = [command, *(token for flag in draw(flags) for token in flag)]
    schedule = draw(st.sampled_from(["FILE"] * 12 + ["table2", "DIR", "missing.json", None]))
    if schedule is not None:
        argv += ["--schedule", schedule]
    config = None
    if draw(st.integers(0, 9)) == 0:
        keys = {"witness": ["pair", "state", "method", "schedule"], "verify": ["schedule"],
                "compile": ["out", "no_elide", "schedule"]}[command] + ["bogus"]
        config = draw(st.dictionaries(st.sampled_from(keys), _CONFIG_VALUES, max_size=2))
        argv += ["--config", "CONFIG"]
    return argv, config


_MALFORMED = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e3", "0.5", "1e999", "--"])
_ANY_REAL = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def _value(draw, valid, odd):
    """A flag value: drawn from ``valid`` two times in three, else an ``odd``
    number or a malformed token."""
    pick = draw(st.integers(0, 5))
    return draw(_MALFORMED) if pick == 0 else str(draw(odd if pick == 1 else valid))


_SEEDS = _value(st.integers(0, 2**70), st.just(-1))
_TRAINING_FLAGS = {
    "--chunks": _value(st.integers(1, 4), st.integers(-1, 0)),
    "--learning-rate": _value(st.floats(1e-3, 0.5), _ANY_REAL),
    "--momentum": _value(st.floats(0, 0.99), _ANY_REAL),
    "--target-rms": _value(st.floats(0, 0.1), _ANY_REAL),
    "--method": st.sampled_from(["chunked", "exact", "gates"]),
    "--seed": _SEEDS,
}
# sizes stay at 4 qubits or below, or at 15 and above, where they are refused
_SIZES = _value(st.one_of(st.integers(2, 4), st.integers(15, 10**12)), st.sampled_from([-1, 0, 1, 10**30]))
_EPOCHS = _value(st.integers(0, 3), st.just(-1))
# flags every draw passes, so that a valid draw stays cheap, and the others
_RUN_FLAGS = {
    "train": ({"--n-qubits": _SIZES, "--epochs": _EPOCHS},
              {**_TRAINING_FLAGS, "--schedule": st.sampled_from(["table2", "missing.json"])}),
    "bootstrap": ({"--n-max": _SIZES, "--epochs": _EPOCHS}, _TRAINING_FLAGS),
    "sample": ({"--schedule": st.sampled_from(["table2", "table3"]),
                "--iterations": _value(st.integers(1, 3), st.integers(-1, 0)),
                "--shots": _value(st.integers(1, 10**6), st.sampled_from([-1, 0, 2**63 - 1, 2**63, 10**20]))},
               {"--state": st.sampled_from(["Bell", "Flat", "C", "P", "all"]),
                "--pair": st.sampled_from(["0,1", "1,6", "0,9", "1,0"]),
                "--seed": _SEEDS}),
}


@st.composite
def _run_argvs(draw):
    command = draw(st.sampled_from(sorted(_RUN_FLAGS)))
    required, optional = _RUN_FLAGS[command]
    chosen = [*required, *draw(st.lists(st.sampled_from(sorted(optional)), max_size=3, unique=True))]
    flags = {**required, **optional}
    return [command, *(token for flag in chosen for token in (flag, draw(flags[flag])))]


_OVERFLOWING = json.dumps({"n_qubits": 2, "total_time": 1.0, "symmetric": True,
                          "chunks": [{"K": [1, 1], "eps": [1e308, 1e308], "zeta": {"0,1": 1e308}}]})
# its couplings sum to a finite float, but dt = 2 times them does not
_PHASE_OVERFLOWING = json.dumps({"n_qubits": 3, "total_time": 2.0, "chunks": [
    {"K": [0.0] * 3, "eps": [0.0] * 3, "zeta": {"0,1": 0.0, "0,2": 0.0, "1,2": 8.98846567431158e307}}]})


class TestFuzz:
    # each example ended in a traceback before it was fixed: an exact
    # Hamiltonian whose diagonal overflows (AssertionError), a directory as
    # the schedule or the output (IsADirectoryError), and a config value of
    # the wrong JSON type (AttributeError); and a phase dt * H past the float
    # range, by either dense method (RuntimeWarning)
    @example(text=_OVERFLOWING, argv_config=(["witness", "--method", "exact", "--schedule", "FILE"], None))
    @example(text=_PHASE_OVERFLOWING, argv_config=(["witness", "--method", "exact", "--schedule", "FILE"], None))
    @example(text=_PHASE_OVERFLOWING, argv_config=(["witness", "--method", "chunked", "--schedule", "FILE"], None))
    @example(text="", argv_config=(["verify", "--schedule", "DIR"], None))
    @example(text="", argv_config=(["compile", "--schedule", "table2", "--out", "DIR"], None))
    @example(text="", argv_config=(["witness", "--schedule", "table2", "--config", "CONFIG"], {"pair": 5}))
    @settings(max_examples=110, deadline=None)
    @given(text=_schedule_texts(), argv_config=_argvs())
    def test_every_input_ends_in_a_documented_exit_code(self, text, argv_config):
        argv, config = argv_config
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "schedule.json").write_text(text)
            (tmp / "config.json").write_text(json.dumps(config))
            places = {"FILE": tmp / "schedule.json", "DIR": tmp, "OUT": tmp / "out.qasm", "CONFIG": tmp / "config.json"}
            argv = [str(places.get(token, token)) for token in argv]
            cwd = os.getcwd()
            os.chdir(tmp)  # a relative --out from a config value lands here
            stdout = io.StringIO()
            try:
                with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
            finally:
                os.chdir(cwd)
        assert code in range(5)
        if argv[0] == "witness" and code == 0:
            # a refused value exits 2; a printed one is a witness
            values = [float(line.rsplit(",", 1)[1]) for line in stdout.getvalue().splitlines()[1:]]
            assert values and all(0.0 <= value <= 1.0 for value in values), stdout.getvalue()

    # the first two built 2**n for the refusal message and exited 2 (Python's
    # limit on integer-to-string conversion); the third overflowed the
    # binomial draw and ended in a traceback
    @example(argv=["train", "--n-qubits", "10000000", "--epochs", "3"])
    @example(argv=["bootstrap", "--n-max", "10000000", "--epochs", "3"])
    @example(argv=["sample", "--schedule", "table2", "--iterations", "3", "--shots", str(10**20)])
    # the first step overflowed numpy's multiply, and its RuntimeWarning escaped main
    @example(argv=["train", "--n-qubits", "4", "--epochs", "1", "--learning-rate", "1.992853074454984e+307"])
    @settings(max_examples=80, deadline=None)
    @given(argv=_run_argvs())
    def test_training_and_sampling_argv_end_in_a_documented_exit_code(self, tmp_path_factory, argv):
        out = tmp_path_factory.mktemp("fuzz")
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = cli.main([*argv, "--out-dir", str(out)])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        assert code in range(5)
