"""Zero-error bit-level execution of a scheme over N + delta channel uses.

The relay decodes forward in time, the sources only process the feedback
broadcast, and the destinations log their received words and decode
backward from the final use.  ``run`` first compiles every transmit and
decode plan into shifts and masks, so its loop over channel uses and the
trace it keeps hold q-bit ints only.  Every value a decoder stores is
compared against the ground-truth messages on the spot, so any mismatch is
reported with its channel use, node and signal name; on the noiseless
channel every such mismatch is a scheme bug, never an expected event.

Messages come from a self-contained xorshift generator so that traces are
reproducible from (scheme, N, seed) alone.  State update per draw, on
64-bit words:

    x ^= x >> 12;  x ^= (x << 25) mod 2^64;  x ^= x >> 27
    output = (x * 2685821657736338717) mod 2^64

and the drawn bit is the output's top bit.  A seed of 0 (mod 2^64) is
replaced by 0x9E3779B97F4A7C15 because the all-zero state is a fixed point.
Blocks are drawn for block index 1..N in order, message streams in sorted
name order; a block is an int as long as its stream, its first draw (the
top level) the most significant bit.  So every run with one seed reads a
prefix of the same bit stream: the draws of the last seed asked are kept as
one int, extended on demand; a run shifts its prefix off the top of that int
and cuts each block off it, which leaves the bits and their order as above.

Only signals with bindings and nodes with a decode plan are compiled and
visited; a signal without bindings records 0 at every use.  Each node's plan
is compiled once per run, with which ``Read`` merges into an earlier decode of
its (stream, offset) and the order in which its blocks are first decoded, so a
decode keeps no per-use record.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, NamedTuple

from .gf2 import SENDERS, BitVector, ChannelParams, NetworkInputs, NetworkOutputs, channel_step, channel_words
from .regions import Regime, frac_to_json
from .schemes import (
    Read,
    Scheme,
    SchemeError,
    Subtract,
    allocate,
    build_scheme,
    integer_corners,
)

_MASK64 = (1 << 64) - 1
_SEED_FALLBACK = 0x9E3779B97F4A7C15


class XorShift64Star:
    """The documented 64-bit xorshift* generator; one bit per state update."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64 or _SEED_FALLBACK

    def word(self, n: int) -> int:
        """``n`` draws as an n-bit word, the first draw most significant."""
        x, w = self.state, 0
        for _ in range(n):
            x ^= x >> 12
            x = (x ^ (x << 25)) & _MASK64
            x ^= x >> 27
            w = w << 1 | (x * 2685821657736338717 & _MASK64) >> 63
        self.state = x
        return w


@dataclass(frozen=True)
class MessageSet:
    """Per-stream, per-block random payload words with their PRNG provenance."""

    n_blocks: int
    seed: int
    blocks: Mapping[str, tuple[int, ...]]


# The last seed asked, its generator's state after ``count`` draws, and those draws as one int.
_draws: tuple = (None, 0, 0, 0)


def _seed_word(seed: int, n: int) -> int:
    """The first ``n`` draws of ``seed`` as an n-bit int, extending the kept draws if they are fewer."""
    global _draws
    last, state, word, count = _draws
    if last != seed:
        state, word, count = seed, 0, 0
    if count < n:
        rng, k = XorShift64Star(state), n - count  # a state after draws is never 0
        word, count = word << k | rng.word(k), n
        _draws = (seed, rng.state, word, count)
    return word >> (count - n)


def generate_messages(scheme: Scheme, n_blocks: int, seed: int) -> MessageSet:
    streams = sorted(scheme.message_streams())
    lengths = [scheme.stream_lengths[s] for s in streams]
    width = sum(lengths) or 1  # a block's draws; 1 if all are empty, so each block still has a start
    total = n_blocks * width
    draws = _seed_word(seed, total)
    blocks, end = {}, 0
    for s, n in zip(streams, lengths):
        end += n  # block i of s ends total - end - i * width bits above the last draw
        blocks[s] = tuple(draws >> shift & (1 << n) - 1 for shift in range(total - end, -end, -width))
    return MessageSet(n_blocks, seed, blocks)


class DecodeEvent(NamedTuple):
    use: int
    node: int
    stream: str
    block: int
    ok: bool


@dataclass(frozen=True)
class TraceStep:
    use: int
    inputs: NetworkInputs
    outputs: NetworkOutputs


# One use's dump lines: the four signals in SENDERS order, then node k's received word.
_DUMP_USE = "\n".join([f"use={{0}} node={node} {key}={{{i}}}" for i, (key, node) in enumerate(SENDERS.items(), 1)]
                      + [f"use={{0}} node={k} y{k}={{{k + 5}}}" for k in range(5)])


@dataclass(frozen=True)
class Trace:
    """Complete record of a run: the signal words of every use plus decode events.

    ``words[t - 1]`` holds use t's q-bit words ``(x1, x2, xr, xf, y0, y1, y2,
    y3, y4)``, the signals in :data:`SENDERS` order, then node k's received
    word at index 4 + k; level 1 is the most significant bit.  ``decodes``
    holds every decode as a plain ``(use, node, stream, block, ok)`` tuple, in
    the order the nodes decoded.  ``steps`` and ``events`` rebuild the uses as
    vectors and the decodes as :class:`DecodeEvent` on access.
    """

    params: ChannelParams
    n_blocks: int
    seed: int
    delta: int
    words: tuple[tuple[int, ...], ...]
    decodes: tuple[tuple, ...]

    @property
    def events(self) -> tuple[DecodeEvent, ...]:
        return tuple(map(DecodeEvent._make, self.decodes))

    @property
    def steps(self) -> tuple[TraceStep, ...]:
        q = self.params.q
        steps = []
        for t, ws in enumerate(self.words, 1):
            vs = [BitVector.from_word(w, q) for w in ws]
            steps.append(TraceStep(t, NetworkInputs(*vs[:4]), NetworkOutputs(*vs[4:])))
        return tuple(steps)

    def dump(self) -> str:
        p = self.params
        fmt = f"0{p.q}b"
        lines = [
            "# ldbfn trace v1",
            f"# params nc={p.nc} ns={p.ns} nr={p.nr} nf={p.nf} q={p.q} "
            f"N={self.n_blocks} delta={self.delta} seed={self.seed}",
        ]
        for t, ws in enumerate(self.words, 1):
            lines.append(_DUMP_USE.format(t, *(format(w, fmt) for w in ws)))
        for use, node, stream, block, ok in self.decodes:
            lines.append(f"use={use} node={node} decode {stream}[{block}] {'ok' if ok else 'FAIL'}")
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
        outs = channel_step(NetworkInputs(**{key: signals[(t, key)] for key in SENDERS}), params)
        for name in ("y0", "y1", "y2", "y3", "y4"):
            if signals[(t, name)] != getattr(outs, name):
                return False
    return True


@dataclass(frozen=True)
class RunReport:
    """What a run delivered.  ``errors`` holds the failing decodes in decode order, then a
    ``DecodeEvent(0, dest, stream, block, False)`` per block a destination never decoded."""

    params: ChannelParams
    regime: Regime
    target: tuple[int, int]
    n_blocks: int
    delta: int
    n_uses: int
    errors: tuple[DecodeEvent, ...]
    delivered_bits: tuple[int, int]
    feedback_levels: int

    @property
    def achieved(self) -> tuple[Fraction, Fraction]:
        """Delivered bits per channel use, per user."""
        return Fraction(self.delivered_bits[0], self.n_uses), Fraction(self.delivered_bits[1], self.n_uses)

    def to_jsonable(self) -> dict:
        return {
            "params": asdict(self.params),
            "regime": self.regime.value,
            "target": list(self.target),
            "blocks": self.n_blocks,
            "delta": self.delta,
            "uses": self.n_uses,
            "errors": len(self.errors),
            "error_detail": [dict(zip(e._fields, e[:4])) for e in self.errors],  # without ok
            "delivered_bits": list(self.delivered_bits),
            "achieved": [frac_to_json(a) for a in self.achieved],
            "feedback_levels": self.feedback_levels,
        }


_SUBTRACT, _READ, _COMBINE = range(3)


def _ground_truth(scheme: Scheme, messages: MessageSet) -> dict[str, list]:
    """Each stream's correct blocks as a list indexed by block 1..N (entry 0 unused)."""
    lengths = scheme.stream_lengths
    truth = {s: [None, *words] for s, words in messages.blocks.items()}
    for stream, parts in scheme.sums.items():  # parts are top-aligned, zero padded
        words = [0] * messages.n_blocks
        for part in parts:
            shift = lengths[stream] - lengths[part]
            words = [w ^ m << shift for w, m in zip(words, messages.blocks[part])]
        truth[stream] = [None, *words]
    return truth


def _compile_transmit(scheme: Scheme, stores: list[dict[str, list]], q: int) -> tuple:
    """Per signal with bindings: (SENDERS index, name, (stream, offset, blocks, right shift, mask, left shift)...)."""
    lengths = scheme.stream_lengths
    signals = []
    for i, (key, node) in enumerate(SENDERS.items()):
        plan = scheme.transmit[key]
        if not plan.bindings:
            continue
        bindings = []
        for b in plan.bindings:
            slot = plan.layout.slot(b.slot)
            # Block bits [take, take + n), cut at the block's end, top of the slot.
            rest = lengths.get(b.stream, 0) - b.take
            n = min(slot.length, rest)
            bindings.append((b.stream, b.offset, stores[node][b.stream],
                             rest - n, (1 << n) - 1, q - slot.start - n))
        signals.append((i, key, tuple(bindings)))
    return tuple(signals)


def _compile_decode(scheme: Scheme, plan: tuple, store: dict[str, list], zeros: list, q: int,
                    truth: dict[str, list]) -> tuple:
    """A node's decode ``plan`` as kind-tagged tuples of shifts, masks and block lists, and its decode
    keys (offset, stream, blocks, truth) in first-decode order.  A ``Read`` of a (stream, offset)
    an earlier ``Read`` or ``Combine`` decoded merges into it: it fills in only its own bits."""
    lengths = scheme.stream_lengths
    steps, keys = [], {}
    for step in plan:
        if isinstance(step, Subtract):
            steps.append((_SUBTRACT, step.offset, step.stream, store[step.stream],
                          lengths[step.stream] - step.length, q - step.pos - step.length))
            continue
        stream = step.stream if isinstance(step, Read) else step.target
        key = (stream, step.offset)
        if isinstance(step, Read):
            shift = lengths[stream] - step.at - step.length
            mask = ((1 << step.length) - 1) << shift
            steps.append((_READ, step.offset, store[stream], q - step.pos - step.length, shift, mask, key in keys))
        else:  # Combine; a zero-rate component reads as 0
            width = max(lengths.get(step.a, 0), lengths.get(step.b, 0))
            a, b = ((s, store[s] if s in lengths else zeros, width - lengths.get(s, 0))
                    for s in (step.a, step.b))
            steps.append((_COMBINE, step.offset, store[stream], *a, *b, width - lengths[stream]))
        keys.setdefault(key, (step.offset, stream, store[stream], truth[stream]))
    return tuple(steps), tuple(keys.values())


def run(scheme: Scheme, n_blocks: int = 16, seed: int = 1) -> tuple[Trace, RunReport]:
    """Execute the scheme for ``n_blocks`` message blocks with fresh messages.

    Needs n_blocks >= 3 so every pipeline stage reaches steady state.  Only
    signals with bindings and nodes with a decode plan are compiled and visited.
    Returns the full trace and a report that must show zero errors.
    """
    if n_blocks < 3:
        raise ValueError("need at least 3 blocks to exercise the pipeline")
    messages = generate_messages(scheme, n_blocks, seed)
    truth = _ground_truth(scheme, messages)
    n_uses = scheme.n_uses(n_blocks)
    params = scheme.params
    q = params.q

    stores: list[dict[str, list]] = [defaultdict(lambda: [None] * (n_blocks + 1)) for _ in range(5)]
    for stream in scheme.message_streams():
        stores[Scheme.owner(stream)][stream][1:] = messages.blocks[stream]
    zeros = [0] * (n_blocks + 1)
    signals = _compile_transmit(scheme, stores, q)
    plans = {node: _compile_decode(scheme, plan, stores[node], zeros, q, truth)
             for node, plan in scheme.decode_plans.items() if plan}

    decodes: list[tuple] = []

    def known(blocks: list, stream: str, idx: int, node: int, t: int) -> int:
        value = blocks[idx]
        if value is None:
            raise SchemeError(f"node {node} needs {stream}[{idx}] at use {t} before decoding it")
        return value

    def decode(node: int, t: int, work: int) -> None:
        steps, keys = plans[node]
        for step in steps:
            idx = t + step[1]
            if not 1 <= idx <= n_blocks:
                continue
            if step[0] == _SUBTRACT:
                _, _, stream, blocks, head, shift = step
                value = blocks[idx]
                if value is None:
                    known(blocks, stream, idx, node, t)
                work ^= value >> head << shift
            elif step[0] == _READ:
                _, _, blocks, down, shift, mask, merge = step
                levels = (work >> down << shift) & mask
                blocks[idx] = levels | blocks[idx] & ~mask if merge else levels
            else:
                _, _, blocks, a, blocks_a, shift_a, b, blocks_b, shift_b, cut = step
                mixed = (known(blocks_a, a, idx, node, t) << shift_a
                         ^ known(blocks_b, b, idx, node, t) << shift_b)
                blocks[idx] = mixed >> cut
        for offset, stream, blocks, want in keys:
            idx = t + offset
            if 1 <= idx <= n_blocks:
                decodes.append((t, node, stream, idx, blocks[idx] == want[idx]))

    # Only a node with a plan decodes; node k's received word is ws[4 + k].
    forward = [node for node in (0, 1, 2) if node in plans]
    backward = [node for node in (3, 4) if node in plans]
    words: list[tuple[int, ...]] = []
    for t in range(1, n_uses + 1):
        sent = [0, 0, 0, 0]  # a signal without bindings stays 0
        for i, key, bindings in signals:
            for stream, offset, blocks, down, mask, up in bindings:
                idx = t + offset
                if 1 <= idx <= n_blocks:
                    val = blocks[idx]
                    if val is None:
                        raise SchemeError(
                            f"encoder for {key} needs {stream}[{idx}] at use {t} but it was never stored"
                        )
                    sent[i] ^= (val >> down & mask) << up
        ws = (*sent, *channel_words(params, *sent))
        words.append(ws)
        for node in forward:
            decode(node, t, ws[4 + node])

    for t in range(n_uses, 0, -1):
        ws = words[t - 1]
        for node in backward:
            decode(node, t, ws[4 + node])

    errors = [DecodeEvent._make(d) for d in decodes if not d[4]]
    delivered = [0, 0]
    for j, (dest, streams) in enumerate(scheme.delivered.items()):
        for stream in streams:
            got, want = stores[dest][stream], truth[stream]
            for i in range(1, n_blocks + 1):
                if got[i] is None:
                    errors.append(DecodeEvent(0, dest, stream, i, False))
                elif got[i] == want[i]:
                    delivered[j] += scheme.stream_lengths[stream]

    trace = Trace(
        params=params,
        n_blocks=n_blocks,
        seed=seed,
        delta=scheme.delta,
        words=tuple(words),
        decodes=tuple(decodes),
    )
    report = RunReport(
        params=params,
        regime=scheme.regime,
        target=scheme.rates,
        n_blocks=n_blocks,
        delta=scheme.delta,
        n_uses=n_uses,
        errors=tuple(errors),
        delivered_bits=(delivered[0], delivered[1]),
        feedback_levels=scheme.feedback_levels,
    )
    return trace, report


@dataclass(frozen=True)
class SweepFailure:
    params: ChannelParams
    corner: tuple[int, int]
    errors: tuple[DecodeEvent, ...]


@dataclass(frozen=True)
class SweepSummary:
    n_params: int
    n_runs: int
    failures: tuple[SweepFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _verify_corners(p, corners, n_blocks, seed) -> list[SweepFailure]:
    failures = []
    for corner in corners:
        scheme = build_scheme(p, allocate(p, corner))
        _, report = run(scheme, n_blocks, seed)
        expected = (n_blocks * corner[0], n_blocks * corner[1])
        if report.errors or report.delivered_bits != expected:
            failures.append(SweepFailure(p, corner, report.errors))
    return failures


def verify_params(p: ChannelParams, n_blocks: int = 8, seed: int = 1) -> list[SweepFailure]:
    """Allocate, build and run every corner of one tuple; collect failures."""
    return _verify_corners(p, integer_corners(p), n_blocks, seed)


def verify_corner_sweep(max_levels: int = 3, n_blocks: int = 8, seed: int = 1) -> SweepSummary:
    """Run every integer corner of every tuple on the lattice, expect zero errors."""
    n_runs = 0
    failures: list[SweepFailure] = []
    for levels in product(range(max_levels + 1), repeat=4):
        p = ChannelParams(*levels)
        corners = integer_corners(p)
        n_runs += len(corners)
        failures.extend(_verify_corners(p, corners, n_blocks, seed))
    return SweepSummary(n_params=(max_levels + 1) ** 4, n_runs=n_runs, failures=tuple(failures))
