"""Smoke runs of the scripts under ``scripts/``, each as its own process."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("LDBFN_THREADS", None)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_toy_example_runs_its_corner_without_errors(tmp_path):
    done = run_script("toy_example.py", "--blocks", "8", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    out = done.stdout
    report = json.loads(out[out.index("{\n"):out.index("\nfirst three channel uses")])
    assert report["errors"] == 0 and report["blocks"] == 8 and report["target"] == [2, 1]
    assert out.startswith("nf=0 regime=D region=")


def test_run_sweep_writes_every_tuple_and_reports_no_failure(tmp_path):
    target = tmp_path / "sweep.csv"
    done = run_script("run_sweep.py", "--max", "1", "--oracle", "--simulate", "--out", str(target),
                      cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    verdict = done.stdout.splitlines()[-1]
    assert verdict.startswith("simulated ") and " over 16 tuples: 0 failures in " in verdict
    with open(target, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    assert all(row["thm2_equal"] == row["fm_oracle_equal"] == "True" for row in rows)
