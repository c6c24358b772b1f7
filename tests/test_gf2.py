from itertools import product

import pytest
from hypothesis import given, strategies as st

from ldbfn import (
    BitVector,
    ChannelParams,
    LayoutError,
    NetworkInputs,
    SignalLayout,
    Slot,
    channel_step,
    pack,
    unpack,
)
from ldbfn.gf2 import LINKS, SENDERS, land


def shift_matrix_oracle(x: BitVector, n: int) -> BitVector:
    """Independent oracle: multiply by the explicit q x q shift matrix q-n times."""
    q = len(x)
    S = [[1 if r == c + 1 else 0 for c in range(q)] for r in range(q)]
    vec = list(x.bits)
    for _ in range(q - n):
        vec = [sum(S[r][c] * vec[c] for c in range(q)) % 2 for r in range(q)]
    return BitVector(tuple(vec))


def random_vector(data, q):
    return BitVector.from_word(data.draw(st.integers(0, (1 << q) - 1)), q)


class TestShiftReceive:
    """Every link of ``channel_step`` against the explicit shift matrix."""

    def test_identity_at_full_strength(self):
        x, z = BitVector((1, 0, 1)), BitVector.from_word(0, 3)
        outs = channel_step(NetworkInputs(x, z, x, x), ChannelParams(3, 0, 0, 3))
        assert outs.y4 == outs.y1 == x
        assert outs.y3.word == 0 and outs.y0.word == 0

    def test_annihilates_at_zero(self):
        x = BitVector((1, 1, 1))
        outs = channel_step(NetworkInputs(x, x, x, x), ChannelParams(0, 3, 0, 0))
        assert all(getattr(outs, n).word == 0 for n in ("y0", "y1", "y2", "y3", "y4"))

    def test_single_shift_matches_matrix_oracle(self):
        x = BitVector((1, 0, 1))
        expected = shift_matrix_oracle(x, 1)
        assert expected == BitVector((0, 0, 1))
        z = BitVector.from_word(0, 3)
        assert channel_step(NetworkInputs(z, x, z, z), ChannelParams(1, 3, 0, 0)).y3 == expected

    @given(st.data())
    def test_matches_matrix_oracle(self, data):
        p = ChannelParams(*(data.draw(st.integers(0, 5)) for _ in range(4)))
        x1, x2, xr, xf = (random_vector(data, p.q) for _ in range(4))
        outs = channel_step(NetworkInputs(x1, x2, xr, xf), p)
        S = shift_matrix_oracle
        assert outs.y0 == S(x1 ^ x2, p.ns)
        assert outs.y1 == outs.y2 == S(xf, p.nf)
        assert outs.y3 == S(x2, p.nc) ^ S(xr, p.nr)
        assert outs.y4 == S(x1, p.nc) ^ S(xr, p.nr)

    @given(st.data())
    def test_preserves_exactly_top_bits(self, data):
        p = ChannelParams(*(data.draw(st.integers(0, 5)) for _ in range(4)))
        q, n, z = p.q, p.nc, BitVector.from_word(0, p.q)
        x = random_vector(data, q)
        y = channel_step(NetworkInputs(x, z, z, z), p).y4
        assert y.bits[q - n:] == x.bits[:n]
        assert all(b == 0 for b in y.bits[:q - n])


def all_zero_inputs(q):
    z = BitVector.from_word(0, q)
    return NetworkInputs(z, z, z, z)


class TestChannelStep:
    def test_zero_in_zero_out(self):
        p = ChannelParams(2, 3, 1, 1)
        outs = channel_step(all_zero_inputs(p.q), p)
        assert all(getattr(outs, n).word == 0 for n in ("y0", "y1", "y2", "y3", "y4"))

    def test_single_top_bit_from_source_one(self):
        # (nc, ns, nr, nf) = (2, 3, 1, 1), x1 = e1: the relay hears it at
        # position q-ns+1 and destination 2 at position q-nc+1; destination 1
        # hears nothing.
        p = ChannelParams(2, 3, 1, 1)
        q = p.q
        e1 = BitVector((1,) + (0,) * (q - 1))
        z = BitVector.from_word(0, q)
        outs = channel_step(NetworkInputs(e1, z, z, z), p)
        assert outs.y0.bits == (0,) * (q - p.ns) + (1,) + (0,) * (p.ns - 1)
        assert outs.y4.bits == (0,) * (q - p.nc) + (1,) + (0,) * (p.nc - 1)
        assert outs.y3.word == 0

    def test_equal_sources_cancel_at_relay(self):
        p = ChannelParams(2, 3, 1, 0)
        x = BitVector((1, 1, 0))
        z = BitVector.from_word(0, p.q)
        outs = channel_step(NetworkInputs(x, x, z, z), p)
        assert outs.y0.word == 0
        assert outs.y3 == shift_matrix_oracle(x, p.nc)
        assert outs.y4 == shift_matrix_oracle(x, p.nc)

    @given(st.data())
    def test_feedback_broadcast_identical(self, data):
        p = ChannelParams(*(data.draw(st.integers(0, 4)) for _ in range(4)))
        vecs = [
            BitVector(tuple(data.draw(st.integers(0, 1)) for _ in range(p.q)))
            for _ in range(4)
        ]
        outs = channel_step(NetworkInputs(*vecs), p)
        assert outs.y1 == outs.y2

    @given(st.data())
    def test_linearity(self, data):
        p = ChannelParams(*(data.draw(st.integers(0, 4)) for _ in range(4)))

        def rand_inputs():
            return NetworkInputs(*[
                BitVector(tuple(data.draw(st.integers(0, 1)) for _ in range(p.q)))
                for _ in range(4)
            ])

        a, b = rand_inputs(), rand_inputs()
        both = NetworkInputs(a.x1 ^ b.x1, a.x2 ^ b.x2, a.xr ^ b.xr, a.xf ^ b.xf)
        oa, ob, osum = channel_step(a, p), channel_step(b, p), channel_step(both, p)
        for name in ("y0", "y1", "y2", "y3", "y4"):
            assert getattr(osum, name) == getattr(oa, name) ^ getattr(ob, name)


class TestLayout:
    def test_pack_with_padding(self):
        layout = SignalLayout(3, (Slot("a", 0, 1),))
        assert pack(layout, {"a": (1,)}) == BitVector((1, 0, 0))

    def test_round_trip(self):
        layout = SignalLayout(5, (Slot("a", 0, 2), Slot("b", 3, 2)))
        segs = {"a": (1, 0), "b": (0, 1)}
        assert unpack(layout, pack(layout, segs)) == segs

    def test_undeclared_overlap_rejected(self):
        with pytest.raises(LayoutError) as exc:
            SignalLayout(4, (Slot("a", 0, 2), Slot("b", 1, 2)))
        assert str(exc.value) == "slots a and b intersect without a declared XOR overlap"

    @pytest.mark.parametrize("q, slots, message", [
        (3, (Slot("a", 0, 1), Slot("a", 1, 1)), "duplicate slot names in layout: ['a', 'a']"),
        (3, (Slot("a", 2, 2),), "slot a [2,4) outside [0,3)"),
        (3, (Slot("a", -1, 1),), "slot a [-1,0) outside [0,3)"),
        (3, (Slot("a", 0, -1),), "slot a [0,-1) outside [0,3)"),
        (4, (Slot("a", 0, 3), Slot("z", 1, 0)), "slots a and z intersect without a declared XOR overlap"),
        # a-d and b-c both intersect; the first pair in slot order is named.
        (6, (Slot("a", 0, 2), Slot("b", 3, 2), Slot("c", 4, 1), Slot("d", 1, 1)),
         "slots a and d intersect without a declared XOR overlap"),
    ])
    def test_inconsistent_layout_rejected(self, q, slots, message):
        with pytest.raises(LayoutError) as exc:
            SignalLayout(q, slots)
        assert str(exc.value) == message

    def test_empty_slot_on_an_edge_is_no_overlap(self):
        for start in (0, 3):
            layout = SignalLayout(4, (Slot("a", 0, 3), Slot("z", start, 0)))
            assert layout.slot("z").stop == start

    def test_declared_overlap_xors(self):
        # Present-vs-extra-signal window: top-aligned block XOR bottom-aligned
        # block inside a 6-level vector.
        layout = SignalLayout(
            6,
            (Slot("top", 1, 3), Slot("bottom", 2, 3)),
            frozenset({frozenset(("top", "bottom"))}),
        )
        v = pack(layout, {"top": (1, 1, 0), "bottom": (1, 0, 1)})
        assert v == BitVector((0, 1, 0, 0, 1, 0))
        got = unpack(layout, v)
        assert got["top"] == (1, 0, 0)  # mixed levels read back XORed
        assert got["bottom"] == (0, 0, 1)

    def test_missing_segment_rejected(self):
        layout = SignalLayout(2, (Slot("a", 0, 1), Slot("b", 1, 1)))
        with pytest.raises(LayoutError):
            pack(layout, {"a": (1,)})
        with pytest.raises(LayoutError, match=r"^segments not in layout: \['c'\]$"):
            pack(layout, {"a": (1,), "b": (0,), "c": (1,)})

    def test_wrong_length_rejected(self):
        layout = SignalLayout(2, (Slot("a", 0, 2),))
        with pytest.raises(LayoutError):
            pack(layout, {"a": (1,)})
        with pytest.raises(LayoutError, match="^vector length 3 != layout q 2$"):
            unpack(layout, BitVector((1, 0, 1)))

    def test_slot_lookup_by_name(self):
        a, b = Slot("a", 0, 2), Slot("b", 3, 2)
        layout = SignalLayout(5, (a, b))
        assert layout.slot("b") is b and layout.slot("a") is a
        assert layout == SignalLayout(5, (a, b))
        with pytest.raises(LayoutError, match="no slot named c"):
            layout.slot("c")


class TestWordBoundary:
    """The q-bit word is checked wherever it is built or read in."""

    def test_word_constructor_checks_width(self):
        assert BitVector.from_word(6, 3).bits == (1, 1, 0)
        for word in (-1, 8):
            with pytest.raises(ValueError):
                BitVector.from_word(word, 3)

    def test_bits_constructor_checks_entries_and_compares_by_value(self):
        with pytest.raises(ValueError, match="^BitVector entries must be 0 or 1$"):
            BitVector((0, 2))
        x = BitVector((1, 0))
        assert x != object() and x.__eq__(object()) is NotImplemented
        assert hash(x) == hash(BitVector.from_word(2, 2)) and len({x, BitVector((1, 0)), BitVector((0, 1, 0))}) == 2
        assert repr(x) == "BitVector(bits=(1, 0))"

    def test_xor_of_words(self):
        x = BitVector((1, 0, 1))
        assert x ^ BitVector((0, 1, 1)) == BitVector((1, 1, 0))
        assert (x ^ x).word == 0
        with pytest.raises(ValueError):
            x ^ BitVector((1, 0))

    @pytest.mark.parametrize("text", ["1_0", "+1", " 1", "2"])
    def test_from_string_takes_only_zeros_and_ones(self, text):
        with pytest.raises(ValueError):
            BitVector.from_string(text)

    def test_string_round_trip_keeps_leading_zeros(self):
        v = BitVector.from_string("0010")
        assert (v.word, len(v), v.to_string()) == (2, 4, "0010")

    @pytest.mark.parametrize("name", ["x1", "x2", "xr", "xf"])
    def test_channel_step_rejects_wrong_length(self, name):
        p = ChannelParams(2, 3, 1, 1)
        inputs = {n: BitVector.from_word(0, p.q) for n in ("x1", "x2", "xr", "xf")}
        inputs[name] = BitVector((1, 1))  # q - 1 levels: every shift still fits
        with pytest.raises(ValueError, match=name):
            channel_step(NetworkInputs(**inputs), p)


class TestParams:
    def test_q_floor_is_one(self):
        assert ChannelParams(0, 0, 0, 0).q == 1

    def test_q_is_max(self):
        assert ChannelParams(2, 3, 1, 1).q == 3
        assert ChannelParams(6, 3, 1, 1).q == 6

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ChannelParams(-1, 0, 0, 0)
        # A bool is an int subclass, but True as a level count made q == True.
        with pytest.raises(ValueError, match="^nc must be a non-negative integer, got True$"):
            ChannelParams(True, 0, 0, 0)
        with pytest.raises(ValueError, match="^nf must be"):
            ChannelParams(1, 1, 1, False)


class TestTopology:
    def test_links_and_land_describe_the_channel(self):
        # One-hot probes: each level of each signal arrives at each node where land says, from the
        # strength LINKS names, and nowhere at or below the noise floor or at a pair it does not list.
        for tup in product(range(5), repeat=4):
            p = ChannelParams(*tup)
            q = p.q
            for signal, level in product(SENDERS, range(q)):
                words = {s: 1 << (q - 1 - level) if s == signal else 0 for s in SENDERS}
                outs = channel_step(NetworkInputs(**{s: BitVector.from_word(w, q) for s, w in words.items()}), p)
                for node in range(5):
                    link = LINKS.get((node, signal))
                    heard = link is not None and level < getattr(p, link)
                    pos, vis = land(p, node, signal, level, 1)
                    assert (pos, vis) == ((q - getattr(p, link) + level, 1) if heard else (0, 0))
                    word = getattr(outs, f"y{node}").word
                    assert word == (1 << (q - 1 - pos) if heard else 0), (tup, signal, level, node)

    def test_land_cuts_a_block_at_the_noise_floor(self):
        p = ChannelParams(2, 1, 3, 0)  # q = 3; the relay hears x1's top level, destination 3 all of xr
        assert land(p, 0, "x1", 0, 2) == (2, 1)
        assert land(p, 0, "x1", 1, 2) == (0, 0)
        assert land(p, 3, "xr", 1, 2) == (1, 2)
        assert land(p, 3, "x1", 0, 3) == (0, 0)  # destination 3 does not hear source 1

    def test_senders_are_the_inputs_in_order_and_hear_nothing_they_send(self):
        assert tuple(SENDERS) == tuple(NetworkInputs.__dataclass_fields__)
        assert all(SENDERS[signal] != node for node, signal in LINKS)
