"""Benchmark of ldbfn: time one workload end to end, or trace it per layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from any directory of a source checkout; the package is imported from
``src/`` and nothing is built. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment (nproc, Python version, seed), the pass count
and which tail percentile ``item_tail_ms`` is.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median
wall time of ``SETUP_PROBES`` fresh interpreters that import ldbfn and
build the workload's inputs; the others come from one worker process that
runs only this workload. ``--trace 1`` reports the per-layer metrics of a
traced worker and leaves its spans in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
# Spelled out rather than read from workloads.py: run.py never imports ldbfn,
# so that a tree without the package fails with a message, not a traceback.
WORKLOADS = ("lattice-oracle", "corner-sim", "long-haul", "scaled-allocate")
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150


def worker(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(WORKER), *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def setup_seconds(workload: str, seed: int, env: dict) -> float:
    """Median wall time of fresh interpreters that only import and set up; the first is a warm-up."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        t0 = perf_counter()
        done = worker(["--workload", workload, "--seed", str(seed), "--setup-only"], env, 60)
        times.append(perf_counter() - t0)
        done.check_returncode()
    return statistics.median(times[1:])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into an exception, so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "ldbfn" / "__init__.py").is_file():
        print(f"error: no ldbfn package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Pin the environment: only this checkout's package, and no worker pools.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), LDBFN_THREADS="1")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup_s = None if args.trace else setup_seconds(args.workload, args.seed, env)
        done = worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                      env, WORKER_TIMEOUT_S)
        done.check_returncode()
    except subprocess.CalledProcessError as e:
        print(f"error: worker exited with {e.returncode}\n{e.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as e:
        print(f"error: worker exceeded {e.timeout} s", file=sys.stderr)
        return 1

    result = json.loads(done.stdout.splitlines()[-1])
    metrics = result["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = (setup_s, "s")
    info = dict(result["info"], fail_ratio=result["failed"] / result["attempted"])
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
