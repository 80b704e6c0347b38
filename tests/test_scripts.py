"""The experiment scripts in ``scripts/`` run end to end on small settings."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qnnwitness.hamiltonian import load_schedule

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True, text=True, env=env, timeout=300
    )


def test_bootstrap_scan(tmp_path):
    proc = run_script("bootstrap_scan.py", "--n-max", "3", "--epochs", "20", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for label in ("4chunk", "8chunk"):
        assert (tmp_path / f"summary_{label}.csv").is_file()
        for n in (2, 3):
            assert (tmp_path / f"schedule_{label}_n{n}.json").is_file()


def test_shot_noise_study(tmp_path):
    proc = run_script("shot_noise_study.py", "--iterations", "2", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for state in ("Bell", "Flat", "C", "P"):
        assert (tmp_path / f"sweep_{state}.csv").is_file()


@pytest.mark.parametrize("name, args, message", [
    ("shot_noise_study.py", ("--iterations", "0"), "iterations must lie in 1..100000, got 0"),
    ("bootstrap_scan.py", ("--n-max", "1"), "a pairwise training set needs at least 2 qubits"),
    ("bootstrap_scan.py", ("--target-rms", "nan"), "target_rms must be non-negative and finite, got nan"),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else value)
def test_a_setting_out_of_range_exits_2_with_one_error_line(tmp_path, name, args, message):
    proc = run_script(name, *args, "--out-dir", str(tmp_path / "out"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_a_diverging_chain_exits_4_saving_its_last_good_schedule(tmp_path):
    proc = run_script("bootstrap_scan.py", "--seed", "4", "--n-max", "5", "--out-dir", str(tmp_path))
    assert (proc.returncode, proc.stdout) == (4, "")
    saved = tmp_path / "last_good_schedule.json"
    # a diverging descent grows round-off about tenfold an epoch, so the last rms is the kernel's round-off
    # amplified: the per-chunk d-matrix kernel, whose values differ by 1e-13, printed 2.551e-01 here
    assert proc.stderr.splitlines() == [
        "diverged: rms 5.111e-01 exceeded 10x the initial 8.040e-03 for 50 consecutive epochs (epoch 52)",
        f"last good schedule saved to {saved}",
    ]
    assert load_schedule(saved).n_qubits == 5
