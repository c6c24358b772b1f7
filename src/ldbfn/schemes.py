"""Capacity-achieving coding schemes for the four parameter regimes.

Each scheme composes four basic strategies:

* decode-forward (DF): both sources send zero-padded D-signals the relay can
  separate from their XOR and re-broadcast; destinations decode backward and
  strip the already-known interfering D-signal.
* compute-forward (CF): the relay decodes only the XOR of the two C-signals
  and forwards it one use later; each destination overhears the interfering
  C-signal on the cross link and XORs the two observations.
* cooperative neutralization (CN): sources hand the relay next use's
  N-signals below the destinations' noise floor; the relay transmits their
  XOR on exactly the levels where the interfering N-signal lands, so each
  destination receives its own N-signal clean.
* feedback (F): sources push F-signals up to the relay, the relay XORs and
  broadcasts them on the out-of-band feedback channel, each source strips
  its own contribution and forwards the partner's F-signal over the cross
  link two uses later.  The asymmetric variant serves one direction only
  and reuses the very level the owner transmits on.

A :class:`Scheme` is pure data: per-signal layouts with stream bindings for
the encoders, and ordered decode plans (subtract known, read levels,
combine) for the relay, the sources' feedback processing and the two
backward-decoding destinations.  Block index conventions: streams carry
blocks 1..N; a binding or step with offset k touches block t+k at use t;
the CN present slot carries block t-1 so the first use doubles as the
initialization step (relay silent, future signal only) and block N drains
at use N+1.

Allocation tie-breaking is the lexicographically smallest feasible integer
assignment in the order of the regime table's variables, which lists them
in allocation priority (see ``_SYSTEMS``).

Each regime's rows, with R1 = t1 and R2 = t2 adjoined, are eliminated once at
import, in reverse allocation order, bounds kept as forms in (nc, ns, nr, nf,
t1, t2).  The conditions left are the (R1, R2) projection the sweep checks.
The stages drive :func:`allocate`: in allocation order each variable takes the
ceiling of its lower bound at its stage, the exact projection onto the
variables so far, so no integer allocation with the same earlier values has a
smaller one.  If the values meet every row they are the lexicographic minimum;
otherwise a ceiling overshot its interval, and SchemeError names the variable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache
from operator import mul
from typing import Mapping, NamedTuple

from .fm import (EmptyIntervalError, IneqSystem, LinearIneq, evaluate_projection, integer_lexmin, lexmin_chain,
                 walk_points, walk_table, with_rates)
from .gf2 import SENDERS, ChannelParams, SignalLayout, Slot, gain, land
from .regions import (RateRegion, Regime, applicable_regimes, achievable_region, hs,
                      outer_bound_region, regime_of, sum_capacity)


class SchemeError(RuntimeError):
    """A scheme was built or executed inconsistently (always a bug)."""


class InfeasibleTargetError(ValueError):
    """The requested rate pair lies outside the achievable region."""

    def __init__(self, message: str, violated=None):
        super().__init__(message)
        self.violated = violated


def _require_regime(regime: Regime, p: ChannelParams) -> None:
    if regime not in applicable_regimes(p):
        raise ValueError(f"params {p} are not in regime {regime.value}")


# Row bounds are integer linear forms: coefficients of (nc, ns, nr, nf).
_NC, _NS, _NR, _NF = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
_NS_NC, _NR_NC = (-1, 1, 0, 0), (-1, 0, 1, 0)

# Each regime's scheme as one table: the variables, the integer coefficient
# rows of its component-rate inequalities ``row . vars <= bound`` aligned with
# them, the rows' bounds, which are non-negative wherever the regime applies,
# and the rows of R1 = r1 . vars and R2 = r2 . vars.  Every per-regime view
# (constraint system, rate definitions, allocation chain, oracle points, the
# vector the builders unpack) derives from it, in this variable order; the
# feedback levels an allocation occupies are its largest left side among the
# rows bounded by nf.
#
# The variable order is the allocation order, leftmost minimized first:
# D-signals go first so they are spent only on asymmetric corners, feedback
# components before the in-band C-signal so feedback is spent sparingly, and
# the double-charged half of each split component before the single-charged
# one (regime A's low C-part; regime D's above-noise-floor halves), so
# allocation prefers the cheap half.
_SYSTEMS = {
    Regime.A: (
        ("R1d", "R2d", "Rc2", "Rc1"),
        ((1, 1, 1, 1), (1, 1, 2, 1), (0, 0, 0, 1)),
        (_NS, _NC, _NR_NC),
        ((1, 0, 1, 1), (0, 1, 1, 1)),
    ),
    Regime.B: (
        ("R1d", "R2d", "Rbar1d", "Rbar2d", "Rc", "Rn"),
        ((1, 1, 0, 0, 1, 1), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 0, 1), (1, 1, 1, 1, 2, 1)),
        (_NC, _NS_NC, _NS_NC, _NR),
        ((1, 0, 1, 0, 1, 1), (0, 1, 0, 1, 1, 1)),
    ),
    # The destination row (bound nc) charges each D-rate once, not twice: the
    # D-slot may share levels with the two-use-old symmetric-F delivery and
    # with the relay's forwarding block, because backward decoding knows the
    # interfering D-signal one use ahead and strips it.  With a disjoint
    # placement (2*R1d + 2*R2d) the asymmetric corners of the capacity region
    # would be unreachable for some parameter tuples.
    Regime.C: (
        ("R1d", "R2d", "R1f", "R2f", "Rbarf", "Rc"),
        (
            (1, 1, 1, 1, 1, 1),
            (1, 1, 0, 0, 0, 1),
            (0, 0, 1, 0, 1, 0),
            (0, 0, 0, 1, 1, 0),
            (1, 1, 1, 1, 2, 2),
        ),
        (_NS, _NR, _NF, _NF, _NC),
        ((1, 0, 1, 0, 1, 1), (0, 1, 0, 1, 1, 1)),
    ),
    Regime.D: (
        ("R1d", "R2d", "R1f", "R2f", "Rbarf1", "Rbarf2", "Rn1", "Rn2"),
        (
            (1, 1, 1, 1, 2, 1, 2, 1),
            (0, 0, 0, 0, 0, 1, 0, 1),
            (1, 1, 0, 0, 0, 0, 1, 1),
            (0, 0, 1, 0, 1, 1, 0, 0),
            (0, 0, 0, 1, 1, 1, 0, 0),
        ),
        (_NC, _NS_NC, _NR, _NF, _NF),
        ((1, 0, 1, 0, 1, 1, 1, 1), (0, 1, 0, 1, 1, 1, 1, 1)),
    ),
}


def _bounds(regime: Regime, p: ChannelParams) -> list[int]:
    """The regime's row bounds with the parameters filled in."""
    nc, ns, nr, nf = p.nc, p.ns, p.nr, p.nf
    return [a * nc + b * ns + c * nr + d * nf for a, b, c, d in _SYSTEMS[regime][2]]


def constraint_system(regime: Regime, p: ChannelParams) -> IneqSystem:
    """The regime's component-rate inequality system with parameters filled in."""
    _require_regime(regime, p)
    vars, rows = _SYSTEMS[regime][:2]
    return IneqSystem(vars, tuple(
        LinearIneq.of(dict(zip(vars, row)), b) for row, b in zip(rows, _bounds(regime, p))
    ))


def rate_definitions(regime: Regime) -> tuple[dict[str, int], dict[str, int]]:
    """Linear maps from component rates to (R1, R2)."""
    vars, _, _, rates = _SYSTEMS[regime]
    return tuple({v: c for v, c in zip(vars, r) if c} for r in rates)


def _alloc_rows(regime: Regime) -> list:
    """The regime's rows with bounds over (nc, ns, nr, nf, t1, t2), R1 = t1, R2 = t2."""
    _, rows, forms, rates = _SYSTEMS[regime]
    return with_rates(list(zip(rows, forms)), *rates, 4)


_CHAINS = {r: lexmin_chain(_SYSTEMS[r][0], _alloc_rows(r)) for r in Regime}
_NF_ROWS = {r: [row for row, form in zip(rows, forms) if form == _NF] for r, (_, rows, forms, _) in _SYSTEMS.items()}
_WALKS = {r: walk_table(_SYSTEMS[r][1], *_SYSTEMS[r][3]) for r in Regime}


def projected_region(regime: Regime, p: ChannelParams) -> RateRegion:
    """FM projection of ``constraint_system(regime, p)``, read off the regime's one elimination."""
    _require_regime(regime, p)
    return evaluate_projection(_CHAINS[regime].conditions, (p.nc, p.ns, p.nr, p.nf))


def enumerated_points(regime: Regime, p: ChannelParams) -> set[tuple[int, int]]:
    """The enumeration oracle's (R1, R2) points of ``constraint_system(regime, p)``, walked on the regime's table."""
    _require_regime(regime, p)
    bounds = _bounds(regime, p)
    return walk_points(_WALKS[regime], bounds, max([0, *bounds]))


def _check_entries(regime: Regime, pairs) -> None:
    """Raise ``ValueError`` at the first (name, value) pair that is not a non-negative int of a regime variable."""
    vars = _SYSTEMS[regime][0]
    for name, value in pairs:
        if name not in vars or type(value) is not int or value < 0:
            raise ValueError(f"{name} = {value} is not a non-negative integer value of a regime {regime.value} variable")


@dataclass(frozen=True)
class RateAllocation:
    """Integer assignment of the regime's component rates: ``xs`` holds the values in
    the order of the regime's variables.

    A vector of the wrong length or with an entry that is not a non-negative int raises
    ``ValueError``; :meth:`of` makes one by name, a variable not given read as 0.  Equal
    vectors are equal allocations however they were spelled.  :meth:`as_dict` names
    the values, sorted by name.
    ``feedback_levels`` is the number of feedback levels the scheme occupies per
    use (the extent of its ``xf`` layout): the largest left side among the
    regime's rows bounded by ``nf``, 0 in a regime without one.
    """

    regime: Regime
    xs: tuple[int, ...]

    def __post_init__(self) -> None:
        vars = _SYSTEMS[self.regime][0]
        if len(self.xs) != len(vars):
            raise ValueError(f"regime {self.regime.value} has {len(vars)} variables {vars}, got {len(self.xs)} values")
        if {*map(type, self.xs)} != {int} or min(self.xs) < 0:  # a cheap test first; the loop names the entry
            _check_entries(self.regime, zip(vars, self.xs))

    @classmethod
    def of(cls, regime: Regime, values: Mapping[str, int]) -> "RateAllocation":
        _check_entries(regime, sorted(values.items()))
        return cls(regime, tuple(values.get(v, 0) for v in _SYSTEMS[regime][0]))

    @property
    def feedback_levels(self) -> int:
        return max((sum(map(mul, row, self.xs)) for row in _NF_ROWS[self.regime]), default=0)

    def as_dict(self) -> dict[str, int]:
        return dict(sorted(zip(_SYSTEMS[self.regime][0], self.xs)))

    def rate_pair(self) -> tuple[int, int]:
        r1, r2 = _SYSTEMS[self.regime][3]
        return sum(map(mul, r1, self.xs)), sum(map(mul, r2, self.xs))


def allocate(p: ChannelParams, target: tuple[int, int]) -> RateAllocation:
    """Lexicographically smallest feasible integer allocation hitting ``target``.

    The target must be an integer point of the achievable region; corner
    points always admit an allocation.
    """
    t1, t2 = target
    if t1 != int(t1) or t2 != int(t2):
        raise InfeasibleTargetError(f"target {target} is not an integer point")
    t1, t2 = int(t1), int(t2)
    row = next((r for r in achievable_region(p).rows if r[0] * t1 + r[1] * t2 > r[2]), None)
    if t1 < 0 or t2 < 0 or row:
        detail = " (violates {}*R1 + {}*R2 <= {})".format(*row) if row else ""
        raise InfeasibleTargetError(
            f"target ({t1}, {t2}) is outside the achievable region for {p}{detail}",
            violated=hs(*row) if row else None,
        )

    regime = regime_of(p)
    try:
        values = integer_lexmin(_CHAINS[regime], (p.nc, p.ns, p.nr, p.nf, t1, t2))
    except EmptyIntervalError as e:
        raise SchemeError(f"{e}: no integer allocation reaches {target} for {p} (regime {regime.value})") from None
    return RateAllocation(regime, tuple(values))


def integer_corners(p: ChannelParams) -> list[tuple[int, int]]:
    """Corner points of the capacity region; always integral for this model."""
    corners = list(achievable_region(p).vertices)
    if any(d != 1 for _, _, d in corners):
        raise SchemeError(f"non-integer corner among {corners} for {p}")
    return [(n1, n2) for n1, n2, _ in corners]


def feedback_usage(p: ChannelParams) -> int:
    """Feedback levels per use of the allocation of the sum-capacity corner with the largest R1."""
    return allocate(p, max(integer_corners(p), key=lambda c: (c[0] + c[1], c))).feedback_levels


def net_gain(p: ChannelParams, r_f: int | None = None) -> Fraction:
    """Net feedback gain: the sum capacity ``p``'s feedback adds, per feedback level spent.

    0 when feedback adds nothing, without allocating; otherwise the increase
    over ``nf = 0`` divided by ``r_f``, by default :func:`feedback_usage`.
    A ratio above 1 means the feedback pays for itself.
    """
    gain = sum_capacity(outer_bound_region(p)) - sum_capacity(outer_bound_region(p.with_nf(0)))
    if gain == 0:
        return gain
    if r_f is None:
        r_f = feedback_usage(p)
    elif r_f <= 0:
        raise ValueError("r_f must be positive")
    return gain / r_f


# ---------------------------------------------------------------------------
# Scheme data model


class Binding(NamedTuple):
    """Transmit slot content: block ``t + offset`` of ``stream`` at use t.

    ``take`` selects a sub-range of the stream block, starting at that bit,
    of the slot's length.  Multiple bindings of one slot XOR together.
    """

    slot: str
    stream: str
    offset: int
    take: int = 0


@dataclass(frozen=True)
class TransmitPlan:
    layout: SignalLayout
    bindings: tuple[Binding, ...]


@cache
def _empty_plan(q: int) -> TransmitPlan:
    return TransmitPlan(SignalLayout(q, ()), ())


class Subtract(NamedTuple):
    """XOR the known block's first ``length`` bits out of the received vector."""

    stream: str
    offset: int
    pos: int
    length: int

    kind = "subtract"


class Read(NamedTuple):
    """Copy received levels [pos, pos+length) into the block's bits [at, ...)."""

    stream: str
    offset: int
    pos: int
    length: int
    at: int = 0

    kind = "read"


class Combine(NamedTuple):
    """Store target = a XOR b (top-aligned, truncated to target length)."""

    target: str
    a: str
    b: str
    offset: int

    kind = "combine"


DecodeStep = Subtract | Read | Combine


@dataclass(frozen=True)
class Scheme:
    """A complete executable description of one capacity-achieving code; ``rates``,
    ``delivered`` and ``delta`` are read off ``alloc``, the stream table and the
    sources' bindings on access."""

    params: ChannelParams
    alloc: RateAllocation
    stream_lengths: Mapping[str, int]
    sums: Mapping[str, tuple[str, ...]]
    transmit: Mapping[str, TransmitPlan]
    decode_plans: Mapping[int, tuple[DecodeStep, ...]]

    @property
    def regime(self) -> Regime:
        return self.alloc.regime

    @property
    def rates(self) -> tuple[int, int]:
        return self.alloc.rate_pair()

    @property
    def delivered(self) -> dict[int, tuple[str, ...]]:
        """Destination j + 2 delivers source j's message streams."""
        messages = self.message_streams()
        return {j + 2: tuple(s for s in messages if self.owner(s) == j) for j in (1, 2)}

    @property
    def feedback_levels(self) -> int:
        """Feedback levels occupied per use (the r_f of net-gain accounting)."""
        return self.alloc.feedback_levels

    @property
    def delta(self) -> int:
        """Channel uses past the N blocks: the sources' furthest look back, at least 1."""
        return max([1] + [-b.offset for key in ("x1", "x2") for b in self.transmit[key].bindings])

    def message_streams(self) -> tuple[str, ...]:
        return tuple(s for s in self.stream_lengths if s not in self.sums)

    @staticmethod
    def owner(stream: str) -> int:
        return int(stream[-1])

    def to_jsonable(self) -> dict:
        def step_json(s: DecodeStep) -> dict:
            d = {"op": s.kind, **s._asdict()}
            if isinstance(s, Read) and not s.at:
                del d["at"]
            return d

        return {
            "params": {**asdict(self.params), "q": self.params.q},
            "regime": self.regime.value,
            "allocation": self.alloc.as_dict(),
            "rates": list(self.rates),
            "delta": self.delta,
            "feedback_levels": self.feedback_levels,
            "streams": dict(self.stream_lengths),
            "sums": {k: list(v) for k, v in self.sums.items()},
            "layouts": {
                key: {
                    "slots": [s._asdict() for s in plan.layout.slots],
                    "overlaps": sorted(sorted(pair) for pair in plan.layout.overlaps),
                    "bindings": [b._asdict() for b in plan.bindings],
                }
                for key, plan in self.transmit.items()
            },
            "decode_plans": {str(node): [step_json(s) for s in steps] for node, steps in self.decode_plans.items()},
            "delivered": {str(node): list(streams) for node, streams in self.delivered.items()},
        }


class _Builder:
    """Accumulates streams, slots, bindings and decode steps for one scheme."""

    def __init__(self, p: ChannelParams, alloc: RateAllocation):
        self.p = p
        self.alloc = alloc
        self.streams: dict[str, int] = {}
        self.sums: dict[str, tuple[str, ...]] = {}
        self.named: dict[str, dict[str, Slot]] = {key: {} for key in SENDERS}
        self.bindings: dict[str, list[Binding]] = {key: [] for key in SENDERS}
        self.overlaps: dict[str, set[frozenset[str]]] = {key: set() for key in SENDERS}
        self.plans: dict[int, list[DecodeStep]] = {0: [], 1: [], 2: [], 3: [], 4: []}

    def stream(self, name: str, length: int) -> None:
        if length > 0:
            self.streams[name] = length

    def pair(self, prefix: str, r1: int, r2: int | None = None) -> None:
        """Streams prefix1 and prefix2 (of length r2, r1 if not given) and their XOR prefixsum."""
        r2 = r1 if r2 is None else r2
        self.stream(f"{prefix}1", r1)
        self.stream(f"{prefix}2", r2)
        if max(r1, r2) > 0:
            self.streams[f"{prefix}sum"] = max(r1, r2)
            self.sums[f"{prefix}sum"] = tuple(s for s in (f"{prefix}1", f"{prefix}2") if s in self.streams)

    def tx(self, signal: str, name: str, start: int, length: int,
           stream: str, offset: int, take: int = 0) -> None:
        """Bind ``stream`` to the slot, if the stream exists; bindings of one slot XOR."""
        if length <= 0:
            return
        slot = Slot(name, start, length)
        if (old := self.named[signal].setdefault(name, slot)) != slot:
            raise SchemeError(f"slot {name} of {signal} redeclared as {slot}, was {old}")
        if stream in self.streams:
            self.bindings[signal].append(Binding(name, stream, offset, take))

    def declare_overlap(self, signal: str, a: str, b: str) -> None:
        names = self.named[signal]
        if a in names and b in names:
            self.overlaps[signal].add(frozenset((a, b)))

    def sub(self, node: int, signal: str, slot: str, stream: str, offset: int) -> None:
        s = self.named[signal].get(slot)
        pos, vis = land(self.p, node, signal, s.start, s.length) if s else (0, 0)
        if vis > 0:
            self.plans[node].append(Subtract(stream, offset, pos, vis))

    def read(self, node: int, signal: str, slot: str, stream: str, offset: int, at: int = 0) -> None:
        s = self.named[signal].get(slot)
        if s is None:
            return
        pos, vis = land(self.p, node, signal, s.start, s.length)
        if vis != s.length:
            raise SchemeError(
                f"slot {slot} only partially visible at node {node} (gain {gain(self.p, node, signal)}); "
                "a read would be ambiguous"
            )
        self.plans[node].append(Read(stream, offset, pos, s.length, at))

    def combine(self, node: int, target: str, a: str, b: str, offset: int) -> None:
        if target in self.streams:
            self.plans[node].append(Combine(target, a, b, offset))

    def build(self) -> Scheme:
        # A signal without a slot has nothing to validate or bind, and its plan is immutable and
        # depends on q alone, so every such signal shares the one plan made for its q.
        q = self.p.q
        transmit = {
            key: TransmitPlan(SignalLayout(q, tuple(named.values()), frozenset(self.overlaps[key])),
                              tuple(self.bindings[key])) if named else _empty_plan(q)
            for key, named in self.named.items()
        }
        # The relay occupies only its top nr in-band and nf feedback levels, as the rows that
        # build_scheme checks first imply: every xr slot in B, C and D stops at or below nr by
        # construction, and A's lowest one (csum_lo) at nr - nc + Rc1 + 2*Rc2 + R1d + R2d <= nr by
        # A's nc row; xf (C and D only) stops at max(R1f, R2f) plus the Rbarf parts, at most nf by
        # the two nf rows.
        return Scheme(
            params=self.p,
            alloc=self.alloc,
            stream_lengths=self.streams,
            sums=self.sums,
            transmit=transmit,
            decode_plans={n: tuple(steps) for n, steps in self.plans.items()},
        )


def _build_regime_a(b: _Builder, p: ChannelParams, xs: tuple[int, ...]) -> None:
    """CF + DF for ns <= nc <= nr.

    Sources stack [C-signal, D-signal] at the top.  The relay re-broadcasts
    the C-sum split around the sources' footprint: one part lands above
    everything the sources can reach at the destinations, the rest below
    the D-levels, leaving the overheard C-signal clean in between.
    """
    R1d, R2d, Rc2, Rc1 = xs
    Rc = Rc1 + Rc2
    b.pair("c", Rc)
    b.stream("d1", R1d)
    b.stream("d2", R2d)

    b.tx("x1", "c1", 0, Rc, "c1", 0)
    b.tx("x1", "d1", Rc, R1d, "d1", 0)
    b.tx("x2", "c2", 0, Rc, "c2", 0)
    b.tx("x2", "d2", Rc + R1d, R2d, "d2", 0)

    base = p.nr - p.nc
    b.tx("xr", "csum_hi", base - Rc1, Rc1, "csum", -1, take=0)
    b.tx("xr", "d1_fwd", base + Rc, R1d, "d1", -1)
    b.tx("xr", "d2_fwd", base + Rc + R1d, R2d, "d2", -1)
    b.tx("xr", "csum_lo", base + Rc + R1d + R2d, Rc2, "csum", -1, take=Rc1)

    # Relay: every component is clean inside its top ns levels.
    b.read(0, "x1", "c1", "csum", 0)
    b.read(0, "x1", "d1", "d1", 0)
    b.read(0, "x2", "d2", "d2", 0)

    for dest, cross, own, other in ((3, "x2", 1, 2), (4, "x1", 2, 1)):
        b.sub(dest, cross, f"d{other}", f"d{other}", 0)
        b.read(dest, "xr", "csum_hi", "csum", -1, at=0)
        b.read(dest, "xr", "csum_lo", "csum", -1, at=Rc1)
        b.read(dest, cross, f"c{other}", f"c{other}", 0)
        b.read(dest, "xr", "d1_fwd", "d1", -1)
        b.read(dest, "xr", "d2_fwd", "d2", -1)
        b.combine(dest, f"c{own}", "csum", f"c{other}", 0)


def _build_regime_b(b: _Builder, p: ChannelParams, xs: tuple[int, ...]) -> None:
    """CF + CN + DF for nc <= min(ns, nr).

    The ns - nc levels the relay hears below the destinations' noise floor
    carry the future N-signals and the extra D-signals; the latter may XOR
    into the present N-slot, which is harmless because backward decoding
    knows them one use ahead.
    """
    R1d, R2d, Rb1, Rb2, Rc, Rn = xs
    Rb = Rb1 + Rb2
    b.pair("c", Rc)
    b.stream("d1", R1d)
    b.stream("d2", R2d)
    b.stream("du1", Rb1)
    b.stream("du2", Rb2)
    b.pair("n", Rn)

    c_start = p.nc - Rc - R1d - R2d - Rn
    for sig, j in (("x1", 1), ("x2", 2)):
        b.tx(sig, f"c{j}", c_start, Rc, f"c{j}", 0)
        b.tx(sig, f"d{j}", c_start + Rc + (0 if j == 1 else R1d), (R1d, R2d)[j - 1], f"d{j}", 0)
        b.tx(sig, f"n{j}_present", p.nc - Rn, Rn, f"n{j}", -1)
        b.tx(sig, f"du{j}", p.ns - Rn - (Rb if j == 1 else Rb2), (Rb1, Rb2)[j - 1], f"du{j}", 0)
        b.tx(sig, f"n{j}_future", p.ns - Rn, Rn, f"n{j}", 0)
        b.declare_overlap(sig, f"n{j}_present", f"du{j}")

    base = p.nr - Rb - 2 * Rc - R1d - R2d - Rn
    b.tx("xr", "du1_fwd", base, Rb1, "du1", -1)
    b.tx("xr", "du2_fwd", base + Rb1, Rb2, "du2", -1)
    b.tx("xr", "csum_fwd", base + Rb, Rc, "csum", -1)
    b.tx("xr", "d1_fwd", base + Rb + 2 * Rc, R1d, "d1", -1)
    b.tx("xr", "d2_fwd", base + Rb + 2 * Rc + R1d, R2d, "d2", -1)
    b.tx("xr", "nsum_fwd", p.nr - Rn, Rn, "nsum", -1)

    # Relay, forward in time: strip the present N-sum it forwarded itself,
    # then everything else sits clean.
    b.sub(0, "x1", "n1_present", "nsum", -1)
    b.read(0, "x1", "c1", "csum", 0)
    b.read(0, "x1", "d1", "d1", 0)
    b.read(0, "x2", "d2", "d2", 0)
    b.read(0, "x1", "du1", "du1", 0)
    b.read(0, "x2", "du2", "du2", 0)
    b.read(0, "x1", "n1_future", "nsum", 0)

    for dest, cross, own, other in ((3, "x2", 1, 2), (4, "x1", 2, 1)):
        b.sub(dest, cross, f"d{other}", f"d{other}", 0)
        b.sub(dest, cross, f"du{other}", f"du{other}", 0)
        b.read(dest, "xr", "du1_fwd", "du1", -1)
        b.read(dest, "xr", "du2_fwd", "du2", -1)
        b.read(dest, "xr", "csum_fwd", "csum", -1)
        b.read(dest, cross, f"c{other}", f"c{other}", 0)
        b.read(dest, "xr", "d1_fwd", "d1", -1)
        b.read(dest, "xr", "d2_fwd", "d2", -1)
        b.read(dest, cross, f"n{other}_present", f"n{own}", -1)
        b.combine(dest, f"c{own}", "csum", f"c{other}", 0)


def _build_regime_c(b: _Builder, p: ChannelParams, xs: tuple[int, ...]) -> None:
    """CF + DF + symmetric/asymmetric F for max(nr, ns) < nc.

    The cross link is strong enough that the sources deliver relayed
    F-signals on levels the relay cannot even reach; the relay's own
    forwarding sits at the bottom of the destinations' view.  The D-slot
    rides in an XOR window with the two-use-old symmetric-F delivery and
    may also collide with the relay's forwarding block at the destinations;
    both interferers are already known wherever they matter, so each D-rate
    costs a single destination level.
    """
    R1d, R2d, R1f, R2f, Rbf, Rc = xs
    Rfmax = max(R1f, R2f)
    b.pair("c", Rc)
    b.stream("d1", R1d)
    b.stream("d2", R2d)
    b.pair("f", R1f, R2f)
    b.pair("bf", Rbf)

    # Window start for the overlapped [bf delivery (+) D-slot] block.
    w0 = Rc + R1f + R2f + Rbf
    for sig, j, k in (("x1", 1, 2), ("x2", 2, 1)):
        b.tx(sig, f"c{j}", 0, Rc, f"c{j}", 0)
        # Asymmetric F: own signal up to the relay, partner's two uses later
        # on the same per-stream level.
        b.tx(sig, "f1_slot", Rc, R1f, "f1", 0 if j == 1 else -2)
        b.tx(sig, "f2_slot", Rc + R1f, R2f, "f2", -2 if j == 1 else 0)
        b.tx(sig, f"bf{j}_own", Rc + R1f + R2f, Rbf, f"bf{j}", 0)
        b.tx(sig, f"bf{k}_fwd", w0, Rbf, f"bf{k}", -2)
        b.tx(sig, f"d{j}", w0 + (0 if j == 1 else R1d), (R1d, R2d)[j - 1], f"d{j}", 0)
        b.declare_overlap(sig, f"bf{k}_fwd", f"d{j}")

    b.tx("xr", "d1_fwd", p.nr - Rc - R1d - R2d, R1d, "d1", -1)
    b.tx("xr", "d2_fwd", p.nr - Rc - R2d, R2d, "d2", -1)
    b.tx("xr", "csum_fwd", p.nr - Rc, Rc, "csum", -1)
    b.tx("xf", "fsum", 0, Rfmax, "f1", -1)
    b.tx("xf", "fsum", 0, Rfmax, "f2", -1)
    b.tx("xf", "bfsum", Rfmax, Rbf, "bfsum", -1)

    # Relay: strip the two-use-old F-signals riding on the same levels.
    b.sub(0, "x2", "f1_slot", "f1", -2)
    b.sub(0, "x1", "f2_slot", "f2", -2)
    b.sub(0, "x1", "bf2_fwd", "bfsum", -2)
    b.read(0, "x1", "c1", "csum", 0)
    b.read(0, "x1", "f1_slot", "f1", 0)
    b.read(0, "x2", "f2_slot", "f2", 0)
    b.read(0, "x1", "bf1_own", "bfsum", 0)
    b.read(0, "x1", "d1", "d1", 0)
    b.read(0, "x2", "d2", "d2", 0)

    # Sources: decode the feedback broadcast, strip own contribution.
    for node, own, other in ((1, 1, 2), (2, 2, 1)):
        b.read(node, "xf", "fsum", "fsum", -1)
        b.read(node, "xf", "bfsum", "bfsum", -1)
        b.combine(node, f"f{other}", "fsum", f"f{own}", -1)
        b.combine(node, f"bf{other}", "bfsum", f"bf{own}", -1)

    for dest, cross, own, other in ((3, "x2", 1, 2), (4, "x1", 2, 1)):
        b.sub(dest, cross, f"d{other}", f"d{other}", 0)
        b.read(dest, cross, f"c{other}", f"c{other}", 0)
        b.read(dest, cross, f"f{own}_slot", f"f{own}", -2)
        b.read(dest, cross, f"bf{own}_fwd", f"bf{own}", -2)
        b.read(dest, "xr", "d1_fwd", "d1", -1)
        b.read(dest, "xr", "d2_fwd", "d2", -1)
        b.read(dest, "xr", "csum_fwd", "csum", -1)
        b.combine(dest, f"c{own}", "csum", f"c{other}", 0)


def _build_regime_d(b: _Builder, p: ChannelParams, xs: tuple[int, ...]) -> None:
    """CN + DF + symmetric/asymmetric F for nr < nc <= ns.

    Anything the destinations never need (future N-signals, the sym-F
    signals headed to the relay) rides below their noise floor when the
    ns - nc window has room, with the overflow placed above the aligned
    blocks; the two-part split of those streams tracks exactly that.
    """
    R1d, R2d, R1f, R2f, Rba, Rbb, Rn1, Rn2 = xs
    Rfmax = max(R1f, R2f)
    b.pair("f", R1f, R2f)
    b.pair("bfa", Rba)
    b.pair("bfb", Rbb)
    b.stream("d1", R1d)
    b.stream("d2", R2d)
    b.pair("na", Rn1)
    b.pair("nb", Rn2)

    pad0 = p.nc - (R1f + R2f + 2 * Rba + Rbb + R1d + R2d + 2 * Rn1 + Rn2)
    pos_f1 = pad0
    pos_f2 = pos_f1 + R1f
    pos_bfa_fwd = pos_f2 + R2f
    pos_bfb_fwd = pos_bfa_fwd + Rba
    pos_bfa_own = pos_bfb_fwd + Rbb
    pos_na_fut = pos_bfa_own + Rba
    pos_d = pos_na_fut + Rn1
    pos_na = pos_d + R1d + R2d
    pos_nb = pos_na + Rn1
    pos_bfb_own = p.nc
    pos_nb_fut = p.nc + Rbb

    for sig, j, k in (("x1", 1, 2), ("x2", 2, 1)):
        b.tx(sig, "f1_slot", pos_f1, R1f, "f1", 0 if j == 1 else -2)
        b.tx(sig, "f2_slot", pos_f2, R2f, "f2", -2 if j == 1 else 0)
        b.tx(sig, f"bfa{k}_fwd", pos_bfa_fwd, Rba, f"bfa{k}", -2)
        b.tx(sig, f"bfb{k}_fwd", pos_bfb_fwd, Rbb, f"bfb{k}", -2)
        b.tx(sig, f"bfa{j}_own", pos_bfa_own, Rba, f"bfa{j}", 0)
        b.tx(sig, f"na{j}_future", pos_na_fut, Rn1, f"na{j}", 0)
        b.tx(sig, f"d{j}", pos_d + (0 if j == 1 else R1d), (R1d, R2d)[j - 1], f"d{j}", 0)
        b.tx(sig, f"na{j}_present", pos_na, Rn1, f"na{j}", -1)
        b.tx(sig, f"nb{j}_present", pos_nb, Rn2, f"nb{j}", -1)
        b.tx(sig, f"bfb{j}_own", pos_bfb_own, Rbb, f"bfb{j}", 0)
        b.tx(sig, f"nb{j}_future", pos_nb_fut, Rn2, f"nb{j}", 0)

    rbase = p.nr - R1d - R2d - Rn1 - Rn2
    b.tx("xr", "d1_fwd", rbase, R1d, "d1", -1)
    b.tx("xr", "d2_fwd", rbase + R1d, R2d, "d2", -1)
    b.tx("xr", "nasum_fwd", rbase + R1d + R2d, Rn1, "nasum", -1)
    b.tx("xr", "nbsum_fwd", p.nr - Rn2, Rn2, "nbsum", -1)
    b.tx("xf", "fsum", 0, Rfmax, "f1", -1)
    b.tx("xf", "fsum", 0, Rfmax, "f2", -1)
    b.tx("xf", "bfasum", Rfmax, Rba, "bfasum", -1)
    b.tx("xf", "bfbsum", Rfmax + Rba, Rbb, "bfbsum", -1)

    # Relay, forward: strip everything it already knows, then read clean.
    b.sub(0, "x2", "f1_slot", "f1", -2)
    b.sub(0, "x1", "f2_slot", "f2", -2)
    b.sub(0, "x1", "bfa2_fwd", "bfasum", -2)
    b.sub(0, "x1", "bfb2_fwd", "bfbsum", -2)
    b.sub(0, "x1", "na1_present", "nasum", -1)
    b.sub(0, "x1", "nb1_present", "nbsum", -1)
    b.read(0, "x1", "f1_slot", "f1", 0)
    b.read(0, "x2", "f2_slot", "f2", 0)
    b.read(0, "x1", "bfa1_own", "bfasum", 0)
    b.read(0, "x1", "bfb1_own", "bfbsum", 0)
    b.read(0, "x1", "na1_future", "nasum", 0)
    b.read(0, "x1", "nb1_future", "nbsum", 0)
    b.read(0, "x1", "d1", "d1", 0)
    b.read(0, "x2", "d2", "d2", 0)

    for node, own, other in ((1, 1, 2), (2, 2, 1)):
        b.read(node, "xf", "fsum", "fsum", -1)
        b.read(node, "xf", "bfasum", "bfasum", -1)
        b.read(node, "xf", "bfbsum", "bfbsum", -1)
        b.combine(node, f"f{other}", "fsum", f"f{own}", -1)
        b.combine(node, f"bfa{other}", "bfasum", f"bfa{own}", -1)
        b.combine(node, f"bfb{other}", "bfbsum", f"bfb{own}", -1)

    for dest, cross, own, other in ((3, "x2", 1, 2), (4, "x1", 2, 1)):
        b.sub(dest, cross, f"d{other}", f"d{other}", 0)
        b.read(dest, cross, f"f{own}_slot", f"f{own}", -2)
        b.read(dest, cross, f"bfa{own}_fwd", f"bfa{own}", -2)
        b.read(dest, cross, f"bfb{own}_fwd", f"bfb{own}", -2)
        b.read(dest, "xr", "d1_fwd", "d1", -1)
        b.read(dest, "xr", "d2_fwd", "d2", -1)
        b.read(dest, cross, f"na{other}_present", f"na{own}", -1)
        b.read(dest, cross, f"nb{other}_present", f"nb{own}", -1)


_BUILDERS = {
    Regime.A: _build_regime_a,
    Regime.B: _build_regime_b,
    Regime.C: _build_regime_c,
    Regime.D: _build_regime_d,
}


def build_scheme(p: ChannelParams, alloc: RateAllocation) -> Scheme:
    """Materialize the full per-use signal plan for a feasible allocation."""
    _require_regime(alloc.regime, p)
    vars, rows = _SYSTEMS[alloc.regime][:2]
    for row, bound in zip(rows, _bounds(alloc.regime, p)):
        if sum(map(mul, row, alloc.xs)) > bound:
            raise SchemeError(f"allocation {alloc.as_dict()} violates {LinearIneq.of(dict(zip(vars, row)), bound)}")
    b = _Builder(p, alloc)
    _BUILDERS[alloc.regime](b, p, alloc.xs)
    return b.build()
