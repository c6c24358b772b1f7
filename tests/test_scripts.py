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


def error_lines(done):
    assert "Traceback" not in done.stderr
    return [line for line in done.stderr.splitlines() if "error:" in line]


def test_run_sweep_rejects_too_few_blocks_before_any_work(tmp_path):
    target = tmp_path / "sweep.csv"
    done = run_script("run_sweep.py", "--max", "1", "--simulate", "--blocks", "2", "--out", str(target),
                      cwd=tmp_path)
    assert done.returncode == 2
    assert error_lines(done) == ["run_sweep.py: error: argument --blocks: must be at least 3, got 2"]
    assert done.stdout == "" and not target.exists()


def test_run_sweep_stops_when_the_csv_cannot_be_opened(tmp_path):
    target = tmp_path / "missing" / "sweep.csv"
    done = run_script("run_sweep.py", "--max", "1", "--simulate", "--out", str(target), cwd=tmp_path)
    assert done.returncode == 2
    assert error_lines(done) == [f"error: [Errno 2] No such file or directory: '{target}'"]
    assert done.stdout == ""


def test_toy_example_rejects_too_few_blocks(tmp_path):
    done = run_script("toy_example.py", "--blocks", "2", cwd=tmp_path)
    assert done.returncode == 2
    assert error_lines(done) == ["toy_example.py: error: argument --blocks: must be at least 3, got 2"]
    assert done.stdout == ""
