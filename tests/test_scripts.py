"""The experiment scripts in ``scripts/`` run end to end on small settings."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path


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
