"""GF(2) signal layer of the symmetric linear deterministic butterfly network.

Every signal is a binary column vector of length ``q``, indexed 1..q from the
top down and held as a q-bit int whose most significant bit is level 1.  A
link of strength ``n`` delivers the top ``n`` levels of the transmitted vector
onto the bottom ``n`` levels of the receiver, a right shift by ``q - n``;
everything below level ``n`` of the transmitter falls under the receiver's
noise floor.  Addition of colliding signals is the XOR of the words.

The five-node topology: two sources (nodes 1, 2), one full-duplex relay
(node 0) and two destinations (nodes 3, 4).  There are no direct
source-destination links; source j reaches the *other* pair's destination
over a cross link of strength ``nc``, both sources reach the relay over
links of strength ``ns``, the relay reaches both destinations at strength
``nr`` and broadcasts an out-of-band feedback vector to both sources at
strength ``nf``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


class LayoutError(ValueError):
    """A signal layout or a pack/unpack request is inconsistent."""


class BitVector:
    """Length-q column vector over GF(2) as a q-bit ``word``; treat it as immutable.

    ``BitVector(bits)`` checks every entry of a 0/1 tuple, top level first;
    the internal :meth:`from_word` only checks that the word fits in q bits.
    """

    __slots__ = ("word", "q")

    def __init__(self, bits: tuple[int, ...]) -> None:
        word = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError("BitVector entries must be 0 or 1")
            word = word << 1 | b
        self.word = word
        self.q = len(bits)

    @classmethod
    def from_word(cls, word: int, q: int) -> "BitVector":
        if not 0 <= word < 1 << q:
            raise ValueError(f"word {word} does not fit in {q} bits")
        v = object.__new__(cls)
        v.word = word
        v.q = q
        return v

    @classmethod
    def zero(cls, q: int) -> "BitVector":
        return cls.from_word(0, q)

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        if s.strip("01"):  # int(s, 2) alone also takes "_", a sign and whitespace
            raise ValueError(f"not a string of 0s and 1s: {s!r}")
        return cls.from_word(int(s, 2) if s else 0, len(s))

    def to_string(self) -> str:
        return format(self.word, f"0{self.q}b") if self.q else ""

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(map(int, self.to_string()))

    def __len__(self) -> int:
        return self.q

    def __xor__(self, other: "BitVector") -> "BitVector":
        if other.q != self.q:
            raise ValueError("length mismatch in XOR")
        return BitVector.from_word(self.word ^ other.word, self.q)

    def is_zero(self) -> bool:
        return not self.word

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.word == other.word and self.q == other.q

    def __hash__(self) -> int:
        return hash((self.word, self.q))

    def __repr__(self) -> str:
        return f"BitVector(bits={self.bits!r})"


@dataclass(frozen=True)
class ChannelParams:
    """Level counts (nc, ns, nr, nf) of the symmetric network.

    nc: source -> other destination (cross link)
    ns: source -> relay
    nr: relay -> destination (in-band)
    nf: relay -> both sources (out-of-band feedback broadcast)

    The common vector length is q = max(nc, ns, nr, nf, 1); the floor of 1
    keeps the all-zero network representable with non-empty vectors.
    """

    nc: int
    ns: int
    nr: int
    nf: int = 0

    def __post_init__(self) -> None:
        for name in ("nc", "ns", "nr", "nf"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")

    @property
    def q(self) -> int:
        return max(self.nc, self.ns, self.nr, self.nf, 1)

    def with_nf(self, nf: int) -> "ChannelParams":
        return ChannelParams(self.nc, self.ns, self.nr, nf)


@dataclass(frozen=True)
class NetworkInputs:
    """One channel use worth of transmitted vectors."""

    x1: BitVector
    x2: BitVector
    xr: BitVector  # relay, in-band
    xf: BitVector  # relay, out-of-band feedback


@dataclass(frozen=True)
class NetworkOutputs:
    """One channel use worth of received vectors."""

    y0: BitVector  # relay
    y1: BitVector  # source 1 (feedback)
    y2: BitVector  # source 2 (feedback)
    y3: BitVector  # destination 1
    y4: BitVector  # destination 2


def shift_receive(x: BitVector, n: int) -> BitVector:
    """Receive ``x`` through a link of strength ``n``.

    The top n bits of x land on the bottom n positions of the output and
    every other output position is 0 (the down-shift by q-n of the q x q
    shift matrix).  n = q is the identity, n = 0 annihilates.
    """
    q = x.q
    if not 0 <= n <= q:
        raise ValueError(f"link strength {n} outside [0, {q}]")
    return BitVector.from_word(x.word >> (q - n), q)


def channel_step(inputs: NetworkInputs, params: ChannelParams) -> NetworkOutputs:
    """One noiseless use of the network.

    y0 = S^(q-ns) (x1 + x2)
    y1 = y2 = S^(q-nf) xf
    y3 = S^(q-nc) x2 + S^(q-nr) xr
    y4 = S^(q-nc) x1 + S^(q-nr) xr
    """
    q = params.q
    if not inputs.x1.q == inputs.x2.q == inputs.xr.q == inputs.xf.q == q:
        name = next(n for n in ("x1", "x2", "xr", "xf") if getattr(inputs, n).q != q)
        raise ValueError(f"{name} must have length q={q}")
    x1, x2 = inputs.x1.word, inputs.x2.word
    relay = inputs.xr.word >> (q - params.nr)
    vector = BitVector.from_word
    y0 = vector((x1 ^ x2) >> (q - params.ns), q)
    yf = vector(inputs.xf.word >> (q - params.nf), q)
    y3 = vector((x2 >> (q - params.nc)) ^ relay, q)
    y4 = vector((x1 >> (q - params.nc)) ^ relay, q)
    return NetworkOutputs(y0=y0, y1=yf, y2=yf, y3=y3, y4=y4)


@dataclass(frozen=True)
class Slot:
    """A named contiguous block of levels inside a length-q vector."""

    name: str
    start: int  # 0-based offset from the top level
    length: int

    @property
    def stop(self) -> int:
        return self.start + self.length


@dataclass(frozen=True)
class SignalLayout:
    """Declarative stacking of named blocks inside a length-q vector.

    Positions not covered by any slot are zero padding.  Two slots may
    occupy intersecting level ranges only if the pair is declared in
    ``overlaps``; the packed content of shared levels is then the XOR of
    the two fragments.
    """

    q: int
    slots: tuple[Slot, ...]
    overlaps: frozenset[frozenset[str]] = frozenset()

    def __post_init__(self) -> None:
        names = [s.name for s in self.slots]
        if len(names) != len(set(names)):
            raise LayoutError(f"duplicate slot names in layout: {names}")
        object.__setattr__(self, "_by_name", {s.name: s for s in self.slots})
        for s in self.slots:
            if s.length < 0 or s.start < 0 or s.stop > self.q:
                raise LayoutError(f"slot {s.name} [{s.start},{s.stop}) outside [0,{self.q})")
        for i, a in enumerate(self.slots):
            for b in self.slots[i + 1:]:
                if a.start < b.stop and b.start < a.stop:
                    if frozenset((a.name, b.name)) not in self.overlaps:
                        raise LayoutError(
                            f"slots {a.name} and {b.name} intersect without a declared XOR overlap"
                        )

    def slot(self, name: str) -> Slot:
        try:
            return self._by_name[name]
        except KeyError:
            raise LayoutError(f"no slot named {name}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.slots)

    def occupied_extent(self) -> int:
        """Lowest level index touched by any slot (0 for an empty layout)."""
        return max((s.stop for s in self.slots if s.length > 0), default=0)


def pack(layout: SignalLayout, segments: Mapping[str, tuple[int, ...]]) -> BitVector:
    """Assemble a length-q vector by XOR-placing every named segment."""
    unknown = set(segments) - set(layout.names())
    if unknown:
        raise LayoutError(f"segments not in layout: {sorted(unknown)}")
    missing = set(layout.names()) - set(segments)
    if missing:
        raise LayoutError(f"missing segments: {sorted(missing)}")
    word = 0
    for s in layout.slots:
        frag = segments[s.name]
        if len(frag) != s.length:
            raise LayoutError(f"segment {s.name} has length {len(frag)}, slot wants {s.length}")
        word ^= BitVector(frag).word << (layout.q - s.stop)
    return BitVector.from_word(word, layout.q)


def unpack(layout: SignalLayout, v: BitVector) -> dict[str, tuple[int, ...]]:
    """Read every named slot back out of ``v``.

    Exact inverse of :func:`pack` for slots that intersect nothing; a slot
    inside a declared XOR overlap reads back the mixed (XORed) levels,
    which is precisely what a receiver observes.
    """
    if len(v) != layout.q:
        raise LayoutError(f"vector length {len(v)} != layout q {layout.q}")
    return {s.name: v.bits[s.start:s.stop] for s in layout.slots}
