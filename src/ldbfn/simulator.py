"""Zero-error bit-level execution of a scheme over N + delta channel uses.

The relay decodes forward in time, the sources only process the feedback
broadcast, and the destinations log their received vectors and decode
backward from the final use.  Every value a decoder stores is compared
against the ground-truth messages on the spot, so any mismatch is reported
with its channel use, node and signal name; on the noiseless channel every
such mismatch is a scheme bug, never an expected event.

Messages come from a self-contained xorshift generator so that traces are
reproducible from (scheme, N, seed) alone.  State update per draw, on
64-bit words:

    x ^= x >> 12;  x ^= (x << 25) mod 2^64;  x ^= x >> 27
    output = (x * 2685821657736338717) mod 2^64

and the drawn bit is the output's top bit.  A seed of 0 (mod 2^64) is
replaced by 0x9E3779B97F4A7C15 because the all-zero state is a fixed point.
Blocks are drawn for block index 1..N in order, message streams in sorted
name order; a block is an int as long as its stream, its first draw (the
top level) the most significant bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping

from .gf2 import BitVector, ChannelParams, NetworkInputs, NetworkOutputs, channel_step
from .regions import Regime, corner_points, frac_to_json, achievable_region
from .schemes import (
    Combine,
    Read,
    Scheme,
    SchemeError,
    Subtract,
    allocate,
    build_scheme,
)

_MASK64 = (1 << 64) - 1
_SEED_FALLBACK = 0x9E3779B97F4A7C15


class XorShift64Star:
    """The documented 64-bit xorshift* generator; one bit per state update."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64 or _SEED_FALLBACK

    def _next_word(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * 2685821657736338717) & _MASK64

    def bit(self) -> int:
        return self._next_word() >> 63

    def word(self, n: int) -> int:
        """``n`` draws as an n-bit word, the first draw most significant."""
        w = 0
        for _ in range(n):
            w = w << 1 | self._next_word() >> 63
        return w


@dataclass(frozen=True)
class MessageSet:
    """Per-stream, per-block random payload words with their PRNG provenance."""

    n_blocks: int
    seed: int
    blocks: Mapping[str, tuple[int, ...]]

    def block(self, stream: str, idx: int) -> int:
        return self.blocks[stream][idx - 1]


def generate_messages(scheme: Scheme, n_blocks: int, seed: int) -> MessageSet:
    rng = XorShift64Star(seed)
    streams = sorted(scheme.message_streams())
    blocks: dict[str, list[int]] = {s: [] for s in streams}
    for _ in range(n_blocks):
        for s in streams:
            blocks[s].append(rng.word(scheme.stream_lengths[s]))
    return MessageSet(n_blocks, seed, {s: tuple(v) for s, v in blocks.items()})


@dataclass(frozen=True)
class DecodeEvent:
    use: int
    node: int
    stream: str
    block: int
    ok: bool


@dataclass(frozen=True)
class DecodeError:
    use: int
    node: int
    stream: str
    block: int


@dataclass(frozen=True)
class TraceStep:
    use: int
    inputs: NetworkInputs
    outputs: NetworkOutputs


@dataclass(frozen=True)
class Trace:
    """Complete record of a run: all signals per use plus decode events.

    ``residuals`` holds each decoder's working vector after its known-signal
    subtractions at every use, so a single use can be inspected without
    re-running the scheme.
    """

    params: ChannelParams
    n_blocks: int
    seed: int
    delta: int
    steps: tuple[TraceStep, ...]
    events: tuple[DecodeEvent, ...]
    residuals: Mapping[tuple[int, int], BitVector]

    def dump(self) -> str:
        p = self.params
        lines = [
            "# ldbfn trace v1",
            f"# params nc={p.nc} ns={p.ns} nr={p.nr} nf={p.nf} q={p.q} "
            f"N={self.n_blocks} delta={self.delta} seed={self.seed}",
        ]
        for st in self.steps:
            t = st.use
            lines.append(f"use={t} node=1 x1={st.inputs.x1.to_string()}")
            lines.append(f"use={t} node=2 x2={st.inputs.x2.to_string()}")
            lines.append(f"use={t} node=0 xr={st.inputs.xr.to_string()}")
            lines.append(f"use={t} node=0 xf={st.inputs.xf.to_string()}")
            lines.append(f"use={t} node=0 y0={st.outputs.y0.to_string()}")
            lines.append(f"use={t} node=1 y1={st.outputs.y1.to_string()}")
            lines.append(f"use={t} node=2 y2={st.outputs.y2.to_string()}")
            lines.append(f"use={t} node=3 y3={st.outputs.y3.to_string()}")
            lines.append(f"use={t} node=4 y4={st.outputs.y4.to_string()}")
        for e in self.events:
            verdict = "ok" if e.ok else "FAIL"
            lines.append(f"use={e.use} node={e.node} decode {e.stream}[{e.block}] {verdict}")
        return "\n".join(lines) + "\n"


def parse_trace(text: str) -> tuple[dict, dict[tuple[int, str], BitVector], list[tuple]]:
    """Parse a trace dump back into header fields, signals and decode events."""
    header: dict = {}
    signals: dict[tuple[int, str], BitVector] = {}
    events: list[tuple] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# params"):
                for tok in line[len("# params"):].split():
                    k, _, v = tok.partition("=")
                    header[k] = int(v)
            continue
        fields = line.split()
        use = int(fields[0].split("=")[1])
        node = int(fields[1].split("=")[1])
        if fields[2] == "decode":
            stream, _, rest = fields[3].partition("[")
            events.append((use, node, stream, int(rest.rstrip("]")), fields[4] == "ok"))
        else:
            sig, _, bits = fields[2].partition("=")
            signals[(use, sig)] = BitVector.from_string(bits)
    return header, signals, events


def validate_trace(text: str) -> bool:
    """Re-run the channel on a dumped trace: outputs must match at every use."""
    header, signals, _ = parse_trace(text)
    params = ChannelParams(header["nc"], header["ns"], header["nr"], header["nf"])
    uses = sorted({t for (t, _) in signals})
    for t in uses:
        inputs = NetworkInputs(
            x1=signals[(t, "x1")], x2=signals[(t, "x2")],
            xr=signals[(t, "xr")], xf=signals[(t, "xf")],
        )
        outs = channel_step(inputs, params)
        for name in ("y0", "y1", "y2", "y3", "y4"):
            if signals[(t, name)] != getattr(outs, name):
                return False
    return True


@dataclass(frozen=True)
class RunReport:
    params: ChannelParams
    regime: Regime
    target: tuple[int, int]
    n_blocks: int
    delta: int
    n_uses: int
    errors: tuple[DecodeError, ...]
    delivered_bits: tuple[int, int]
    achieved: tuple[Fraction, Fraction]
    feedback_levels: int

    def to_jsonable(self) -> dict:
        return {
            "params": {
                "nc": self.params.nc, "ns": self.params.ns,
                "nr": self.params.nr, "nf": self.params.nf,
            },
            "regime": self.regime.value,
            "target": list(self.target),
            "blocks": self.n_blocks,
            "delta": self.delta,
            "uses": self.n_uses,
            "errors": len(self.errors),
            "error_detail": [
                {"use": e.use, "node": e.node, "stream": e.stream, "block": e.block}
                for e in self.errors
            ],
            "delivered_bits": list(self.delivered_bits),
            "achieved": [frac_to_json(a) for a in self.achieved],
            "feedback_levels": self.feedback_levels,
        }


def _expected_block(scheme: Scheme, messages: MessageSet, stream: str, idx: int) -> int:
    if stream not in scheme.sums:
        return messages.block(stream, idx)
    lengths = scheme.stream_lengths
    out = 0
    for part in scheme.sums[stream]:  # parts are top-aligned, zero padded
        out ^= messages.block(part, idx) << (lengths[stream] - lengths[part])
    return out


def _emit(scheme: Scheme, key: str, store: dict, t: int, n_blocks: int, q: int) -> BitVector:
    plan = scheme.transmit[key]
    word = 0
    for b in plan.bindings:
        idx = t + b.offset
        if not 1 <= idx <= n_blocks:
            continue
        val = store.get((b.stream, idx))
        if val is None:
            raise SchemeError(
                f"encoder for {key} needs {b.stream}[{idx}] at use {t} but it was never stored"
            )
        slot = plan.layout.slot(b.slot)
        # Block bits [take, take + n), cut at the block's end, top of the slot.
        rest = scheme.stream_lengths[b.stream] - b.take
        n = min(slot.length, rest)
        word ^= ((val >> (rest - n)) & ((1 << n) - 1)) << (q - slot.start - n)
    return BitVector.from_word(word, q)


def _exec_plan(
    scheme: Scheme,
    node: int,
    store: dict,
    received: BitVector,
    t: int,
    n_blocks: int,
    messages: MessageSet,
    errors: list[DecodeError],
    events: list[DecodeEvent],
) -> BitVector:
    q = received.q
    lengths = scheme.stream_lengths
    work = received.word
    pending: dict[tuple[str, int], int] = {}

    def lookup(stream: str, idx: int) -> int:
        if stream not in lengths:  # zero-rate component
            return 0
        key = (stream, idx)
        if key in pending:
            return pending[key]
        if key in store:
            return store[key]
        raise SchemeError(f"node {node} needs {stream}[{idx}] at use {t} before decoding it")

    for step in scheme.decode_plans[node]:
        idx = t + step.offset
        if not 1 <= idx <= n_blocks:
            continue
        if isinstance(step, Subtract):
            head = lookup(step.stream, idx) >> (lengths[step.stream] - step.length)
            work ^= head << (q - step.pos - step.length)
        elif isinstance(step, Read):
            key = (step.stream, idx)
            shift = lengths[step.stream] - step.at - step.length
            mask = ((1 << step.length) - 1) << shift
            levels = (work >> (q - step.pos - step.length)) << shift
            pending[key] = (pending.get(key, 0) & ~mask) | (levels & mask)
        else:  # Combine
            a, b = lookup(step.a, idx), lookup(step.b, idx)
            width_a, width_b = lengths.get(step.a, 0), lengths.get(step.b, 0)
            width = max(width_a, width_b)
            mixed = (a << (width - width_a)) ^ (b << (width - width_b))
            pending[(step.target, idx)] = mixed >> (width - lengths[step.target])

    for (stream, idx), value in pending.items():
        ok = value == _expected_block(scheme, messages, stream, idx)
        events.append(DecodeEvent(t, node, stream, idx, ok))
        if not ok:
            errors.append(DecodeError(t, node, stream, idx))
        store[(stream, idx)] = value
    return BitVector.from_word(work, q)


def run(scheme: Scheme, n_blocks: int = 16, seed: int = 1) -> tuple[Trace, RunReport]:
    """Execute the scheme for ``n_blocks`` message blocks with fresh messages.

    Needs n_blocks >= 3 so every pipeline stage reaches steady state.
    Returns the full trace and a report that must show zero errors.
    """
    if n_blocks < 3:
        raise ValueError("need at least 3 blocks to exercise the pipeline")
    messages = generate_messages(scheme, n_blocks, seed)
    n_uses = scheme.n_uses(n_blocks)
    q = scheme.params.q

    stores: dict[int, dict] = {n: {} for n in range(5)}
    for stream in scheme.message_streams():
        owner = Scheme.owner(stream)
        for i in range(1, n_blocks + 1):
            stores[owner][(stream, i)] = messages.block(stream, i)

    errors: list[DecodeError] = []
    events: list[DecodeEvent] = []
    steps: list[TraceStep] = []
    residuals: dict[tuple[int, int], BitVector] = {}
    dest_log: dict[int, dict[int, BitVector]] = {3: {}, 4: {}}

    for t in range(1, n_uses + 1):
        inputs = NetworkInputs(
            x1=_emit(scheme, "x1", stores[1], t, n_blocks, q),
            x2=_emit(scheme, "x2", stores[2], t, n_blocks, q),
            xr=_emit(scheme, "xr", stores[0], t, n_blocks, q),
            xf=_emit(scheme, "xf", stores[0], t, n_blocks, q),
        )
        outs = channel_step(inputs, scheme.params)
        steps.append(TraceStep(t, inputs, outs))
        for node, received in ((0, outs.y0), (1, outs.y1), (2, outs.y2)):
            residuals[(t, node)] = _exec_plan(
                scheme, node, stores[node], received, t, n_blocks, messages, errors, events
            )
        dest_log[3][t] = outs.y3
        dest_log[4][t] = outs.y4

    for t in range(n_uses, 0, -1):
        for node in (3, 4):
            residuals[(t, node)] = _exec_plan(
                scheme, node, stores[node], dest_log[node][t], t, n_blocks, messages, errors, events
            )

    delivered = [0, 0]
    for dest, j in ((3, 0), (4, 1)):
        for stream in scheme.delivered[dest]:
            for i in range(1, n_blocks + 1):
                got = stores[dest].get((stream, i))
                if got is None:
                    errors.append(DecodeError(0, dest, stream, i))
                elif got == messages.block(stream, i):
                    delivered[j] += scheme.stream_lengths[stream]

    trace = Trace(
        params=scheme.params,
        n_blocks=n_blocks,
        seed=seed,
        delta=scheme.delta,
        steps=tuple(steps),
        events=tuple(events),
        residuals=residuals,
    )
    report = RunReport(
        params=scheme.params,
        regime=scheme.regime,
        target=scheme.rates,
        n_blocks=n_blocks,
        delta=scheme.delta,
        n_uses=n_uses,
        errors=tuple(errors),
        delivered_bits=(delivered[0], delivered[1]),
        achieved=(Fraction(delivered[0], n_uses), Fraction(delivered[1], n_uses)),
        feedback_levels=scheme.feedback_levels,
    )
    return trace, report


@dataclass(frozen=True)
class SweepFailure:
    params: ChannelParams
    corner: tuple[int, int]
    errors: tuple[DecodeError, ...]


@dataclass(frozen=True)
class SweepSummary:
    n_params: int
    n_runs: int
    failures: tuple[SweepFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def integer_corners(p: ChannelParams) -> list[tuple[int, int]]:
    """Corner points of the capacity region; always integral for this model."""
    corners = []
    for pt in corner_points(achievable_region(p)):
        if pt.r1.denominator != 1 or pt.r2.denominator != 1:
            raise SchemeError(f"non-integer corner {pt} for {p}")
        corners.append((int(pt.r1), int(pt.r2)))
    return corners


def verify_params(p: ChannelParams, n_blocks: int = 8, seed: int = 1) -> list[SweepFailure]:
    """Allocate, build and run every corner of one tuple; collect failures."""
    failures = []
    for corner in integer_corners(p):
        scheme = build_scheme(p, allocate(p, corner))
        _, report = run(scheme, n_blocks, seed)
        expected = (n_blocks * corner[0], n_blocks * corner[1])
        if report.errors or report.delivered_bits != expected:
            failures.append(SweepFailure(p, corner, report.errors))
    return failures


def _verify_tuple(args: tuple) -> tuple[int, list[SweepFailure]]:
    levels, n_blocks, seed = args
    p = ChannelParams(*levels)
    failures = verify_params(p, n_blocks, seed)
    return len(integer_corners(p)), failures


def sweep_threads() -> int:
    try:
        return max(1, int(os.environ.get("LDBFN_THREADS", "1")))
    except ValueError:
        return 1


def parallel_map(fn: Callable, jobs: Iterable, chunksize: int) -> Iterator:
    """``map(fn, jobs)``; ``LDBFN_THREADS`` > 1 spreads it over worker processes."""
    threads = sweep_threads()
    if threads == 1:
        yield from map(fn, jobs)
        return
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    with ProcessPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(fn, jobs, chunksize=chunksize)


def verify_corner_sweep(
    max_levels: int | tuple[int, int, int, int] = 3,
    n_blocks: int = 8,
    seed: int = 1,
) -> SweepSummary:
    """Run every integer corner of every tuple on the lattice, expect zero errors.

    ``LDBFN_THREADS`` > 1 distributes tuples over worker processes; each
    (tuple, corner) job owns its state, so results merge by reduction.
    """
    if isinstance(max_levels, int):
        bounds = (max_levels,) * 4
    else:
        bounds = max_levels
    jobs = [
        (levels, n_blocks, seed)
        for levels in product(*(range(b + 1) for b in bounds))
    ]
    n_runs = 0
    failures: list[SweepFailure] = []
    for count, fails in parallel_map(_verify_tuple, jobs, chunksize=16):
        n_runs += count
        failures.extend(fails)
    return SweepSummary(n_params=len(jobs), n_runs=n_runs, failures=tuple(failures))
