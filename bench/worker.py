"""One benchmark process: set up a workload, then time or trace full passes of it.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only
    python3 bench/worker.py --pin > bench/digests.json

``bench/run.py`` starts this with ``PYTHONPATH=src`` and ``LDBFN_THREADS=1``;
a run prints one JSON object on stdout. ``--pin`` prints the sha256 digests
of every workload's outputs at the default seed, which the output checks
compare against.

Every pass starts with cold region caches, because a CLI user pays them on
every call. A new pass starts only while it is expected to end within
``--seconds``, after at least ``MIN_PASSES`` (traced: ``MIN_TRACED_PAIRS``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

os.environ["LDBFN_THREADS"] = "1"  # before ldbfn is imported: no worker pools

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
# Tail percentiles tried from the top; the tail is the first with at least
# ten items above it.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
SPANS_DIR = Path(__file__).resolve().parent.parent / ".bench_out"


def environment(workload: str, seed: int) -> dict:
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "LDBFN_THREADS": os.environ["LDBFN_THREADS"]}


def one_pass(workload, inputs, seed: int, samples: list) -> tuple[float, int, int]:
    """Run one cold pass; return its wall time and (attempted, failed) checks."""
    tracer.clear_caches()
    t0 = perf_counter()
    outputs = workload.run_pass(inputs, samples)
    wall = perf_counter() - t0
    return (wall, *workload.check(inputs, outputs, seed))


def timed_run(workload, inputs, seed: int, seconds: float) -> dict:
    """Time cold passes; each item's time is its fastest repetition.

    Every pass does the same work on the same items in the same order, so
    an item slower than its fastest repetition was slowed by other load on
    the machine, not by the program. ``wall_s`` is the sum of these item
    times: a full pass with that noise taken out item by item.
    """
    start = perf_counter()
    walls, per_pass = [], []
    attempted = failed = 0
    while len(walls) < MIN_PASSES or perf_counter() - start + walls[-1] <= seconds:
        samples = []
        wall, a, f = one_pass(workload, inputs, seed, samples)
        walls.append(wall)
        per_pass.append(samples)
        attempted += a
        failed += f

    items = sorted(min(times) for times in zip(*per_pass))
    n = len(items)
    p = next(p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10)
    rank = math.ceil(p / 100 * n)
    wall_s = sum(items)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": (wall_s, "s"),
            "items_per_s": (n / wall_s, "1/s"),
            "item_p50_ms": (statistics.median(items) * 1e3, "ms"),
            "item_tail_ms": (items[rank - 1] * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        "info": {"passes": len(walls), "pass_walls_s": walls, "items_per_pass": n,
                 "tail_percentile": p, "tail_items_above": n - rank},
    }


def traced_run(workload, inputs, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced passes, then one pass measuring run's allocation peak."""
    t = tracer.Tracer(workload.name)
    attempted = failed = pairs = 0
    last_pair = 0.0
    start = perf_counter()
    while pairs < MIN_TRACED_PAIRS or perf_counter() - start + last_pair <= seconds:
        pair_start = perf_counter()
        for root, install in (("bench.untraced_pass", None), ("bench.pass", t.install)):
            tracer.clear_caches()
            if install:
                install()
            span = t.open(root)
            outputs = workload.run_pass(inputs, [])
            t.uninstall()
            t.close(span, tracer.cache_attrs())
            a, f = workload.check(inputs, outputs, seed)
            attempted += a
            failed += f
        pairs += 1
        last_pair = perf_counter() - pair_start

    if any(name == "simulator.run" for name, *_ in t.spans):
        tracer.clear_caches()
        t.install_alloc_probe()
        span = t.open("bench.alloc_pass")
        outputs = workload.run_pass(inputs, [])
        t.uninstall()
        t.close(span)
        a, f = workload.check(inputs, outputs, seed)
        attempted += a
        failed += f

    metrics = tracer.per_layer_metrics(t.spans)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    t.write(spans_path, environment(workload.name, seed))
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "info": {"traced_passes": pairs, "spans": len(t.spans),
                     "spans_file": str(spans_path.relative_to(SPANS_DIR.parent))}}


def pin() -> dict:
    digests = {}
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.make_inputs(workloads.DEFAULT_SEED)
        tracer.clear_caches()
        digests[name] = workload.outputs_digest(workload.run_pass(inputs, []))
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    if args.pin:
        print(json.dumps(pin(), indent=2, sort_keys=True))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    if args.setup_only:
        return 0
    run = traced_run if args.trace else timed_run
    result = run(workload, inputs, args.seed, args.seconds)
    result["info"].update(environment(args.workload, args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
