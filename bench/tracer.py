"""Spans around the public functions of ``ldbfn`` and the per-layer metrics built from them.

A span is ``[name, start, end, parent, attrs]``; its id is its index in
``Tracer.spans`` and ``parent`` is the id of the span open when it started.
The benchmark opens one root span per pass (``bench.pass`` for a traced
pass, ``bench.untraced_pass`` and ``bench.alloc_pass`` for the others), and
``install`` replaces each function in ``TRACED`` with a wrapper that records
a span per call. Modules bind names with ``from .x import y``, so a function
is replaced at every ``ldbfn`` module attribute that refers to it.

Private helpers stay unwrapped: their time is part of their caller's self time.
"""

from __future__ import annotations

import inspect
import json
import statistics
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

import ldbfn
from ldbfn import cli, fm, gf2, regions, schemes, simulator

MODULES = (ldbfn, cli, fm, gf2, regions, schemes, simulator)
CACHED = ("outer_bound_region", "achievable_region")
# The lru_cache objects themselves, captured before any wrapper replaces them.
CACHES = {fn_name: getattr(regions, fn_name) for fn_name in CACHED}


def _run_attrs(result) -> dict:
    trace, report = result
    return {
        "uses": report.n_uses,
        "decode_events": len(trace.events),
        "decode_ok": sum(e.ok for e in trace.events),
    }


# (span name, owner, attribute, result -> span attributes)
TRACED = (
    ("cli.sweep_rows", cli, "sweep_rows",
     lambda row: {"oracle_rows": 1, "oracle_agree": int(row["fm_oracle_equal"])}
     if "fm_oracle_equal" in row else None),
    ("regions.canonicalize", regions, "canonicalize", None),
    ("regions.regions_equal", regions, "regions_equal", None),
    ("regions.integer_points", regions, "integer_points", None),
    ("regions.outer_bound_region", regions, "outer_bound_region", None),
    ("regions.achievable_region", regions, "achievable_region", None),
    ("fm.project_to_rates", fm, "project_to_rates",
     lambda region: {"halfspaces_out": len(region.halfspaces)}),
    ("fm.enumerate_integer_projection", fm, "enumerate_integer_projection",
     lambda points: {"points_out": len(points)}),
    ("schemes.allocate", schemes, "allocate", None),
    ("schemes.build_scheme", schemes, "build_scheme", None),
    ("schemes.constraint_system", schemes, "constraint_system", None),
    ("gf2.channel_step", gf2, "channel_step", None),
    ("simulator.run", simulator, "run", _run_attrs),
    ("simulator.generate_messages", simulator, "generate_messages", None),
    ("simulator.Trace.dump", simulator.Trace, "dump", lambda text: {"bytes": len(text)}),
    ("simulator.validate_trace", simulator, "validate_trace", None),
)
SELF_TIMES = tuple(name for name, *_ in TRACED if name not in (
    "regions.outer_bound_region", "regions.achievable_region"))
CALL_COUNTS = (
    "regions.canonicalize", "regions.outer_bound_region", "regions.achievable_region",
    "fm.project_to_rates", "fm.enumerate_integer_projection", "schemes.allocate",
    "schemes.build_scheme", "gf2.channel_step", "simulator.run",
)


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list, attrs: dict | None = None) -> None:
        span[2] = perf_counter()
        span[4] = attrs
        self._stack.pop()

    def _wrap(self, name, fn, attrs_fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if attrs_fn is not None:
                span[4] = attrs_fn(result)
            return result

        return traced

    def _wrap_generator(self, name, fn, attrs_fn):
        """One span per resumption, so the consumer's time between items is not counted."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span = [name, perf_counter(), 0.0, stack[-1] if stack else None, None]
                stack.append(len(spans))
                spans.append(span)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    span[2] = perf_counter()
                if attrs_fn is not None:
                    span[4] = attrs_fn(item)
                yield item

        return traced

    def _wrap_alloc(self, name, fn, attrs_fn):
        """Span whose attributes hold the tracemalloc peak of the call."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            tracemalloc.start()
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[4] = {"peak_alloc_bytes": tracemalloc.get_traced_memory()[1]}
                tracemalloc.stop()

        return traced

    def _patch(self, name, owner, attr, attrs_fn, wrap) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            targets = [(owner, attr)]
        else:
            original = getattr(owner, attr)
            targets = [(m, k) for m in MODULES for k, v in vars(m).items() if v is original]
        wrapper = wrap(name, original, attrs_fn)
        for target, key in targets:
            setattr(target, key, wrapper)
            self._patched.append((target, key, original))

    def install(self) -> None:
        """Wrap every function in ``TRACED``."""
        for name, owner, attr, attrs_fn in TRACED:
            wrap = self._wrap_generator if inspect.isgeneratorfunction(getattr(owner, attr)) else self._wrap
            self._patch(name, owner, attr, attrs_fn, wrap)

    def install_alloc_probe(self) -> None:
        """Wrap only ``simulator.run``, measuring its tracemalloc peak."""
        self._patch("simulator.run", simulator, "run", None, self._wrap_alloc)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start, "end": end,
                          "parent": parent, "workload": self.workload}
                record.update(attrs or {})
                fh.write(json.dumps(record) + "\n")


def clear_caches() -> None:
    for cache in CACHES.values():
        cache.cache_clear()


def cache_attrs() -> dict:
    """``cache_info()`` of the region caches, as attributes of a pass span."""
    attrs = {}
    for fn_name, cache in CACHES.items():
        info = cache.cache_info()
        attrs[f"{fn_name}.hits"] = info.hits
        attrs[f"{fn_name}.misses"] = info.misses
    return attrs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``, per traced pass.

    Times and counts come from the spans under ``bench.pass`` roots, the
    allocation peak from ``bench.alloc_pass``, and the tracing overhead from
    the durations of ``bench.pass`` against ``bench.untraced_pass``.
    """
    roots: list[int] = []
    child_time = [0.0] * len(spans)
    for i, (_, start, end, parent, _) in enumerate(spans):
        roots.append(i if parent is None else roots[parent])
        if parent is not None:
            child_time[parent] += end - start

    walls = defaultdict(list)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    sums: defaultdict = defaultdict(float)
    peak_alloc = 0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        root = spans[roots[i]][0]
        if parent is None:
            walls[name].append(end - start)
        if root == "bench.alloc_pass" and attrs:
            peak_alloc = max(peak_alloc, attrs["peak_alloc_bytes"])
        if root != "bench.pass":
            continue
        calls[name] += 1
        self_s[name] += end - start - child_time[i]
        for key, value in (attrs or {}).items():
            sums[f"{name}.{key}"] += value

    n = len(walls["bench.pass"])
    metrics = {f"{name}.self_s": (self_s[name] / n, "s") for name in SELF_TIMES}
    metrics.update({f"{name}.calls": (calls[name] / n, "count") for name in CALL_COUNTS})
    for fn_name in CACHED:
        hits = sums[f"bench.pass.{fn_name}.hits"]
        misses = sums[f"bench.pass.{fn_name}.misses"]
        metrics[f"regions.{fn_name}.cache_hit_ratio"] = (_ratio(hits, hits + misses), "1")
    metrics.update({
        "fm.project_to_rates.halfspaces_out":
            (sums["fm.project_to_rates.halfspaces_out"] / n, "count"),
        "fm.enumerate_integer_projection.points_out":
            (sums["fm.enumerate_integer_projection.points_out"] / n, "count"),
        "fm.oracle_agree_ratio":
            (_ratio(sums["cli.sweep_rows.oracle_agree"], sums["cli.sweep_rows.oracle_rows"]), "1"),
        "simulator.channel_uses": (sums["simulator.run.uses"] / n, "count"),
        "simulator.decode_events": (sums["simulator.run.decode_events"] / n, "count"),
        "simulator.decode_ok_ratio":
            (_ratio(sums["simulator.run.decode_ok"], sums["simulator.run.decode_events"]), "1"),
        "simulator.trace_bytes": (sums["simulator.Trace.dump.bytes"] / n, "B"),
        "simulator.run.peak_alloc_mb": (peak_alloc / 2**20, "MB"),
        "trace.overhead_ratio": (
            statistics.median(walls["bench.pass"]) / statistics.median(walls["bench.untraced_pass"]),
            "1",
        ),
    })
    return metrics
