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
    shift_receive,
    unpack,
)


def shift_matrix_oracle(x: BitVector, n: int) -> BitVector:
    """Independent oracle: multiply by the explicit q x q shift matrix q-n times."""
    q = len(x)
    S = [[1 if r == c + 1 else 0 for c in range(q)] for r in range(q)]
    vec = list(x.bits)
    for _ in range(q - n):
        vec = [sum(S[r][c] * vec[c] for c in range(q)) % 2 for r in range(q)]
    return BitVector(tuple(vec))


class TestShiftReceive:
    def test_identity_at_full_strength(self):
        assert shift_receive(BitVector((1, 0, 1)), 3) == BitVector((1, 0, 1))

    def test_annihilates_at_zero(self):
        assert shift_receive(BitVector((1, 1, 1)), 0) == BitVector((0, 0, 0))

    def test_single_shift_matches_matrix_oracle(self):
        x = BitVector((1, 0, 1))
        expected = shift_matrix_oracle(x, 1)
        assert expected == BitVector((0, 0, 1))
        assert shift_receive(x, 1) == expected

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=8), st.data())
    def test_matches_matrix_oracle(self, bits, data):
        x = BitVector(tuple(bits))
        n = data.draw(st.integers(0, len(bits)))
        assert shift_receive(x, n) == shift_matrix_oracle(x, n)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=8), st.data())
    def test_preserves_exactly_top_bits(self, bits, data):
        x = BitVector(tuple(bits))
        q = len(bits)
        n = data.draw(st.integers(0, q))
        y = shift_receive(x, n)
        assert y.bits[q - n:] == x.bits[:n]
        assert all(b == 0 for b in y.bits[:q - n])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            shift_receive(BitVector((1, 0)), 3)


def all_zero_inputs(q):
    z = BitVector.zero(q)
    return NetworkInputs(z, z, z, z)


class TestChannelStep:
    def test_zero_in_zero_out(self):
        p = ChannelParams(2, 3, 1, 1)
        outs = channel_step(all_zero_inputs(p.q), p)
        assert all(getattr(outs, n).is_zero() for n in ("y0", "y1", "y2", "y3", "y4"))

    def test_single_top_bit_from_source_one(self):
        # (nc, ns, nr, nf) = (2, 3, 1, 1), x1 = e1: the relay hears it at
        # position q-ns+1 and destination 2 at position q-nc+1; destination 1
        # hears nothing.
        p = ChannelParams(2, 3, 1, 1)
        q = p.q
        e1 = BitVector((1,) + (0,) * (q - 1))
        z = BitVector.zero(q)
        outs = channel_step(NetworkInputs(e1, z, z, z), p)
        assert outs.y0.bits == (0,) * (q - p.ns) + (1,) + (0,) * (p.ns - 1)
        assert outs.y4.bits == (0,) * (q - p.nc) + (1,) + (0,) * (p.nc - 1)
        assert outs.y3.is_zero()

    def test_equal_sources_cancel_at_relay(self):
        p = ChannelParams(2, 3, 1, 0)
        x = BitVector((1, 1, 0))
        z = BitVector.zero(p.q)
        outs = channel_step(NetworkInputs(x, x, z, z), p)
        assert outs.y0.is_zero()
        assert outs.y3 == shift_receive(x, p.nc)
        assert outs.y4 == shift_receive(x, p.nc)

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
        with pytest.raises(LayoutError):
            SignalLayout(4, (Slot("a", 0, 2), Slot("b", 1, 2)))

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

    def test_wrong_length_rejected(self):
        layout = SignalLayout(2, (Slot("a", 0, 2),))
        with pytest.raises(LayoutError):
            pack(layout, {"a": (1,)})

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

    def test_xor_of_words(self):
        x = BitVector((1, 0, 1))
        assert x ^ BitVector((0, 1, 1)) == BitVector((1, 1, 0))
        assert (x ^ x).is_zero()
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
        inputs = {n: BitVector.zero(p.q) for n in ("x1", "x2", "xr", "xf")}
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
