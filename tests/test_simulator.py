import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from ldbfn import (
    ChannelParams,
    RateAllocation,
    Regime,
    SchemeError,
    XorShift64Star,
    allocate,
    build_scheme,
    channel_step,
    generate_messages,
    integer_corners,
    parse_trace,
    run,
    validate_trace,
    verify_corner_sweep,
    verify_params,
)
from ldbfn import simulator
from ldbfn.gf2 import SignalLayout, Slot
from ldbfn.schemes import Binding, Combine, Read, Subtract, TransmitPlan

ERROR_DETAIL_GOLDEN = Path(__file__).resolve().parent.parent / "fixtures" / "golden" / "dropped_subtract_error_detail.json"


def scheme_for(params, corner):
    return build_scheme(params, allocate(params, corner))


def unit_messages(scheme, n_blocks):
    """The zero message, then one message per message bit with only that bit set."""
    streams = sorted(scheme.message_streams())
    zero = {s: (0,) * n_blocks for s in streams}
    yield simulator.MessageSet(n_blocks, 0, zero)
    for s in streams:
        for i in range(n_blocks):
            for bit in range(scheme.stream_lengths[s]):
                yield simulator.MessageSet(n_blocks, 0, {**zero, s: zero[s][:i] + (1 << bit,) + zero[s][i + 1:]})


def failing_messages(scheme, n_blocks=8):
    """Run ``scheme`` on the zero message and on every unit message: (runs, failing message sets).

    ``run`` only shifts, masks and XORs message words, and the ground truth of
    a block is an XOR of message words too.  So every value a node decodes,
    and its difference from the truth, is a GF(2)-linear function of the
    message bits, and a linear function is zero for every message exactly when
    it is zero for each unit message.  A scheme is therefore zero-error for
    every message exactly when it is for each of these; the zero message also
    covers what does not depend on the message, such as a block that is never
    decoded.  ``simulator.generate_messages`` is patched for the duration, the
    seed of each run naming its message set.
    """
    messages = list(unit_messages(scheme, n_blocks))
    expected = (n_blocks * scheme.rates[0], n_blocks * scheme.rates[1])
    failing = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(simulator, "generate_messages", lambda _scheme, _n, seed: messages[seed])
        for seed, message in enumerate(messages):
            _, report = run(scheme, n_blocks, seed)
            if report.errors or report.delivered_bits != expected:
                failing.append(message)
    return len(messages), failing


def every_message_failures(max_levels, n_blocks=8):
    """:func:`failing_messages` for every lexmin corner of [0, max_levels]^4: (corners, runs, failures)."""
    corners = runs = 0
    failures = []
    for levels in product(range(max_levels + 1), repeat=4):
        p = ChannelParams(*levels)
        for corner in integer_corners(p):
            n, failing = failing_messages(scheme_for(p, corner), n_blocks)
            corners += 1
            runs += n
            failures.extend((levels, corner, message) for message in failing)
    return corners, runs, failures


class TestRun:
    def test_showcase_corner_with_feedback(self):
        scheme = scheme_for(ChannelParams(2, 3, 1, 1), (2, 1))
        _, report = run(scheme, n_blocks=16, seed=11)
        assert not report.errors
        assert report.delivered_bits == (32, 16)
        assert report.achieved == (Fraction(32, 18), Fraction(16, 18))

    def test_compute_forward_only(self):
        scheme = scheme_for(ChannelParams(6, 3, 1, 0), (1, 1))
        _, report = run(scheme, n_blocks=16, seed=5)
        assert not report.errors
        assert report.achieved == (Fraction(16, 17), Fraction(16, 17))

    def test_zero_allocation_transmits_nothing(self):
        scheme = scheme_for(ChannelParams(2, 3, 1, 1), (0, 0))
        trace, report = run(scheme, n_blocks=8, seed=1)
        assert not report.errors
        assert report.delivered_bits == (0, 0)
        assert all(step.inputs.x1.word == 0 and step.inputs.xr.word == 0 for step in trace.steps)

    def test_seed_determinism(self):
        scheme = scheme_for(ChannelParams(3, 2, 1, 2), (2, 1))
        t1, _ = run(scheme, n_blocks=12, seed=99)
        t2, _ = run(scheme, n_blocks=12, seed=99)
        assert t1.dump() == t2.dump()
        t3, _ = run(scheme, n_blocks=12, seed=100)
        assert t1.dump() != t3.dump()

    def test_rate_accounting_scales_with_blocks(self):
        p = ChannelParams(2, 3, 1, 1)
        scheme = scheme_for(p, (2, 1))
        for n in (8, 32):
            _, report = run(scheme, n_blocks=n, seed=2)
            assert report.delivered_bits == (2 * n, n)
            assert report.achieved == (Fraction(2 * n, n + 2), Fraction(n, n + 2))

    def test_outputs_of_every_small_corner_are_pinned(self):
        # A sha256 over each lexmin corner of [0,3]^4 in lattice order, its (N, seed) runs in turn:
        # the trace dump, then the run report as sorted JSON.
        digest = hashlib.sha256()
        for levels in product(range(4), repeat=4):
            p = ChannelParams(*levels)
            for corner in integer_corners(p):
                scheme = scheme_for(p, corner)
                for n_blocks, seed in ((3, 1), (8, 1), (5, 7)):
                    trace, report = run(scheme, n_blocks, seed)
                    digest.update(trace.dump().encode())
                    digest.update(json.dumps(report.to_jsonable(), sort_keys=True).encode())
        assert digest.hexdigest() == "a40f90e8a9c1ef90f298abca1eba6e1818ea32cf696b8fd89a12b775b0729aed"

    def test_empty_corner_records_all_zero_uses_and_compiles_nothing(self, monkeypatch):
        compiled = []
        monkeypatch.setattr(simulator, "_compile_decode", lambda *args: compiled.append(args))
        for levels in product(range(4), repeat=4):
            scheme = scheme_for(ChannelParams(*levels), (0, 0))
            assert simulator._compile_transmit(scheme, [{}] * 5, scheme.params.q) == ()
            trace, report = run(scheme, n_blocks=5, seed=1)
            assert report.n_uses == 6 and trace.words == ((0,) * 9,) * 6, levels
            assert trace.decodes == report.errors == ()
        assert compiled == []

    def test_signals_without_bindings_record_zero(self):
        # A hand-built scheme whose one binding puts the relay's own one-bit stream m0 on its top level.
        base = scheme_for(ChannelParams(1, 1, 2, 1), (0, 0))
        q = base.params.q
        xr = TransmitPlan(SignalLayout(q, (Slot("m", 0, 1),)), (Binding("m", "m0", 0),))
        scheme = dataclasses.replace(base, stream_lengths={"m0": 1}, sums={}, transmit={**base.transmit, "xr": xr},
                                     decode_plans={n: () for n in range(5)})
        trace, report = run(scheme, n_blocks=8, seed=3)
        sent = generate_messages(scheme, 8, 3).blocks["m0"]
        assert any(sent) and not report.errors
        assert [w[:4] for w in trace.words] == [(0, 0, m << q - 1, 0) for m in (*sent, 0)]
        assert validate_trace(trace.dump())

    def test_too_few_blocks_rejected(self):
        scheme = scheme_for(ChannelParams(2, 3, 1, 1), (1, 1))
        with pytest.raises(ValueError):
            run(scheme, n_blocks=2)

    def test_peak_memory_at_4096_blocks(self):
        scheme = scheme_for(ChannelParams(6, 3, 1, 1), (2, 2))
        tracemalloc.start()
        try:
            run(scheme, n_blocks=4096, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18e6


class TestNegativeControls:
    """Broken schemes must be caught by the checks inside ``run``."""

    def test_dropped_relay_subtract_fails_ground_truth(self):
        scheme = scheme_for(ChannelParams(2, 3, 1, 1), (1, 2))
        drop = Subtract("f2", offset=-2, pos=0, length=1)
        relay = scheme.decode_plans[0]
        assert drop in relay
        plans = {**scheme.decode_plans, 0: tuple(step for step in relay if step != drop)}
        trace, report = run(dataclasses.replace(scheme, decode_plans=plans), n_blocks=8, seed=1)
        assert len(report.errors) == 15
        assert trace.dump().count(" FAIL\n") == 15
        assert report.to_jsonable()["error_detail"] == json.loads(ERROR_DETAIL_GOLDEN.read_text())
        assert report.errors == tuple(e for e in trace.events if not e.ok)

    def test_dropped_relay_subtract_fails_for_a_unit_message(self):
        scheme = scheme_for(ChannelParams(2, 3, 1, 1), (1, 2))
        drop = Subtract("f2", offset=-2, pos=0, length=1)
        plans = {**scheme.decode_plans, 0: tuple(step for step in scheme.decode_plans[0] if step != drop)}
        runs, failing = failing_messages(dataclasses.replace(scheme, decode_plans=plans))
        assert runs == 1 + 8 * 3 and failing
        assert failing_messages(scheme) == (runs, [])

    def test_undecoded_blocks_are_reported_with_use_zero(self):
        scheme = scheme_for(ChannelParams(2, 3, 1, 1), (1, 2))
        _, report = run(dataclasses.replace(scheme, decode_plans={**scheme.decode_plans, 3: ()}), n_blocks=4, seed=1)
        assert report.to_jsonable()["error_detail"] == [
            {"use": 0, "node": 3, "stream": "nb1", "block": block} for block in range(1, 5)
        ]
        assert report.delivered_bits == (0, 8)
        assert report.errors == tuple(simulator.DecodeEvent(0, 3, "nb1", block, False) for block in range(1, 5))

    def test_dropped_decode_step_is_a_sweep_failure(self, monkeypatch):
        p, corner = ChannelParams(2, 3, 1, 1), (1, 2)
        drop, build = Subtract("f2", offset=-2, pos=0, length=1), simulator.build_scheme

        def broken(params, allocation):
            scheme = build(params, allocation)
            if (params, scheme.rates) != (p, corner):
                return scheme
            plans = {**scheme.decode_plans, 0: tuple(step for step in scheme.decode_plans[0] if step != drop)}
            return dataclasses.replace(scheme, decode_plans=plans)

        monkeypatch.setattr(simulator, "build_scheme", broken)
        summary = verify_corner_sweep(3, n_blocks=8, seed=1)
        _, report = run(broken(p, allocate(p, corner)), n_blocks=8, seed=1)
        assert not summary.ok and len(report.errors) == 15
        assert summary.failures == (simulator.SweepFailure(p, corner, report.errors),)

    def test_encoder_needing_an_unstored_block_raises(self):
        scheme = scheme_for(ChannelParams(2, 3, 1, 1), (1, 2))
        xr = scheme.transmit["xr"]
        slot = xr.layout.slots[0].name
        extra = dataclasses.replace(xr, bindings=xr.bindings + (Binding(slot, "f2", 0),))
        broken = dataclasses.replace(scheme, transmit={**scheme.transmit, "xr": extra})
        with pytest.raises(SchemeError) as exc:
            run(broken, n_blocks=8, seed=1)
        assert str(exc.value) == "encoder for xr needs f2[1] at use 1 but it was never stored"

    @pytest.mark.parametrize("step", [Subtract("nb1", offset=0, pos=0, length=1), Combine("nbsum", "nb1", "f2", 0)])
    def test_decoder_needing_a_never_decoded_block_raises(self, step):
        scheme = scheme_for(ChannelParams(2, 3, 1, 1), (1, 2))
        plans = {**scheme.decode_plans, 0: (step, *scheme.decode_plans[0])}  # the relay never decodes nb1
        with pytest.raises(SchemeError) as exc:
            run(dataclasses.replace(scheme, decode_plans=plans), n_blocks=8, seed=1)
        assert str(exc.value) == "node 0 needs nb1[1] at use 1 before decoding it"

    def test_trace_steps_obey_the_channel(self):
        for levels in product(range(3), repeat=4):
            p = ChannelParams(*levels)
            for corner in integer_corners(p):
                trace, _ = run(scheme_for(p, corner), n_blocks=8, seed=1)
                steps = trace.steps
                assert [step.use for step in steps] == list(range(1, len(steps) + 1))
                assert all(channel_step(step.inputs, p) == step.outputs for step in steps)
                assert validate_trace(trace.dump())


class TestTrace:
    def test_dump_round_trips_and_channel_checks(self):
        scheme = scheme_for(ChannelParams(2, 3, 1, 1), (2, 1))
        trace, _ = run(scheme, n_blocks=8, seed=4)
        text = trace.dump()
        header, signals, events = parse_trace(text)
        assert header["nc"] == 2 and header["N"] == 8 and header["delta"] == 2
        assert len({t for t, _ in signals}) == 10
        assert validate_trace(text)
        assert validate_trace(text.replace("\n", "\n\n", 3))  # blank lines are skipped
        assert all(ok for *_, ok in events)

    @pytest.mark.parametrize("prefix", ["use=3 node=3 y3=", "use=3 node=1 x1="])
    def test_one_flipped_bit_fails_the_channel_check(self, prefix):
        # A received word, then a sent word's top level, which the relay hears (ns = q = 3).
        trace, _ = run(scheme_for(ChannelParams(2, 3, 1, 1), (2, 1)), n_blocks=8, seed=4)
        lines = trace.dump().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        flipped = "1" if lines[i][len(prefix)] == "0" else "0"
        lines[i] = prefix + flipped + lines[i][len(prefix) + 1:]
        assert not validate_trace("".join(lines))

    def test_events_match_the_dump_in_order(self):
        scheme = scheme_for(ChannelParams(2, 3, 1, 1), (1, 2))
        drop = Subtract("f2", offset=-2, pos=0, length=1)
        plans = {**scheme.decode_plans, 0: tuple(s for s in scheme.decode_plans[0] if s != drop)}
        for s in (scheme, dataclasses.replace(scheme, decode_plans=plans)):
            trace, _ = run(s, n_blocks=8, seed=3)
            _, _, events = parse_trace(trace.dump())
            assert trace.events == tuple(events) and len(events) > 0
            assert all(type(e) is simulator.DecodeEvent for e in trace.events)
        assert not all(e.ok for e in trace.events)

    def test_bits_render_top_level_first(self):
        scheme = scheme_for(ChannelParams(2, 3, 1, 1), (2, 1))
        trace, _ = run(scheme, n_blocks=8, seed=4)
        line = next(l for l in trace.dump().splitlines() if " x1=" in l)
        bits = line.split("x1=")[1]
        assert len(bits) == 3 and set(bits) <= {"0", "1"}


class TestPrng:
    def test_update_equations(self):
        # One documented step from state 1.
        x = 1
        x ^= x >> 12
        x = (x ^ (x << 25)) & ((1 << 64) - 1)
        x ^= x >> 27
        out = (x * 2685821657736338717) & ((1 << 64) - 1)
        rng = XorShift64Star(1)
        assert rng.word(1) == out >> 63
        assert rng.state == x

    @staticmethod
    def reference_word(state, n):
        """The module docstring's recurrence, one draw per step: (word, new state)."""
        mask = (1 << 64) - 1
        w = 0
        for _ in range(n):
            state ^= state >> 12
            state = (state ^ (state << 25)) & mask
            state ^= state >> 27
            w = w << 1 | ((state * 2685821657736338717) & mask) >> 63
        return w, state

    @pytest.mark.parametrize("n", [2, 7, 64])
    def test_word_matches_the_recurrence(self, n):
        rng = XorShift64Star(12345)
        assert (rng.word(n), rng.state) == self.reference_word(12345, n)

    def test_consecutive_words_continue_the_stream(self):
        rng = XorShift64Star(1)
        state = 1
        for n in (3, 0, 1, 5, 64, 2):
            want, state = self.reference_word(state, n)
            assert rng.word(n) == want and rng.state == state

    def test_zero_seed_replaced(self):
        assert XorShift64Star(0).state != 0

    def test_message_layout_deterministic(self):
        scheme = scheme_for(ChannelParams(2, 3, 1, 1), (2, 1))
        a = generate_messages(scheme, 5, 7)
        b = generate_messages(scheme, 5, 7)
        assert a.blocks == b.blocks

    def test_zero_blocks_give_empty_tuples(self):
        scheme = scheme_for(ChannelParams(2, 3, 1, 1), (2, 1))
        assert generate_messages(scheme, 0, 7).blocks == {s: () for s in scheme.message_streams()}

    @staticmethod
    def reference_messages(scheme, n_blocks, seed):
        """The documented order: block 1..N, streams sorted by name, one word per stream."""
        rng = XorShift64Star(seed)
        streams = sorted(scheme.message_streams())
        words = [[rng.word(scheme.stream_lengths[s]) for s in streams] for _ in range(n_blocks)]
        return {s: tuple(block[i] for block in words) for i, s in enumerate(streams)}

    def test_messages_slice_the_seed_draws_in_order(self):
        schemes = [scheme_for(ChannelParams(2, 3, 1, 1), (2, 1)), scheme_for(ChannelParams(3, 2, 4, 0), (2, 2))]
        for n_blocks in (3, 4, 9, 17, 64):
            for seed in (1, 7, 1, 0):
                for scheme in schemes:
                    got = generate_messages(scheme, n_blocks, seed)
                    assert (got.n_blocks, got.seed) == (n_blocks, seed)
                    assert got.blocks == self.reference_messages(scheme, n_blocks, seed), (n_blocks, seed)

    def test_short_run_after_a_long_one(self, monkeypatch):
        # The second run shifts its draws off the top of the long run's int.
        scheme = scheme_for(ChannelParams(2, 3, 1, 1), (2, 1))
        run(scheme, n_blocks=2048, seed=1)
        assert simulator._draws[3] >= 2048 * 3  # three one-bit message streams
        trace, report = run(scheme, n_blocks=3, seed=1)
        assert generate_messages(scheme, 3, 1).blocks == self.reference_messages(scheme, 3, 1)
        monkeypatch.setattr(simulator, "_draws", (None, 0, 0, 0))
        assert run(scheme, n_blocks=3, seed=1) == (trace, report) and not report.errors


class TestSweep:
    def test_lexmin_corners_are_zero_error_for_every_message(self):
        corners, runs, failures = every_message_failures(3)
        assert (corners, runs, failures) == (756, 8628, [])

    def test_split_read_is_zero_error_for_every_message(self):
        # The first lexmin scheme whose destinations read one block in two pieces in one use,
        # so ``run`` merges the second read into the first.
        scheme = scheme_for(ChannelParams(3, 2, 4, 0), (2, 2))
        split = (Read("csum", -1, 0, 1, at=0), Read("csum", -1, 3, 1, at=1))
        assert scheme.decode_plans[3][:2] == scheme.decode_plans[4][:2] == split
        assert failing_messages(scheme) == (33, [])

    # (3, 2, 4, 0) -> (2, 2): destination 3 reads csum[t - 1] in two pieces at y3 levels 0 and 3
    # and c2[t] at levels 1-2.  Each case sends one (c1, c2) in every block; with (3, 0) every
    # csum bit is 1, so a read that dropped the other piece would fail.
    MERGE_PLANS = {
        "read after read": (
            (Read("csum", -1, 0, 1, at=0), Read("csum", -1, 3, 1, at=1)), (3, 0),
            [(4, 3, "csum", 3, True), (3, 3, "csum", 2, True), (2, 3, "csum", 1, True)],
        ),
        # Combine c1 = csum ^ c2, then read c1's low bit off level 2 (c2's, equal here).
        "read after combine": (
            (Read("csum", -1, 0, 1, at=0), Read("csum", -1, 3, 1, at=1), Read("c2", 0, 1, 2),
             Combine("c1", "csum", "c2", 0), Read("c1", 0, 2, 1, at=1)), (3, 3),
            [(4, 3, "csum", 3, True),
             (3, 3, "csum", 2, True), (3, 3, "c2", 3, True), (3, 3, "c1", 3, True),
             (2, 3, "csum", 1, True), (2, 3, "c2", 2, True), (2, 3, "c1", 2, True),
             (1, 3, "c2", 1, True), (1, 3, "c1", 1, True)],
        ),
        # csum[t] is another block: its read does not merge into csum[t - 1], so each holds one bit.
        "another offset": (
            (Read("csum", -1, 0, 1, at=0), Read("csum", 0, 3, 1, at=1)), (3, 0),
            [(4, 3, "csum", 3, False),
             (3, 3, "csum", 2, False), (3, 3, "csum", 3, False),
             (2, 3, "csum", 1, False), (2, 3, "csum", 2, False),
             (1, 3, "csum", 1, False)],
        ),
    }

    @pytest.mark.parametrize("case", MERGE_PLANS)
    def test_read_merges_into_an_earlier_decode_of_its_block(self, case, monkeypatch):
        plan, (c1, c2), events = self.MERGE_PLANS[case]
        scheme = scheme_for(ChannelParams(3, 2, 4, 0), (2, 2))
        scheme = dataclasses.replace(scheme, decode_plans={**scheme.decode_plans, 3: plan})
        messages = simulator.MessageSet(3, 0, {"c1": (c1,) * 3, "c2": (c2,) * 3})
        monkeypatch.setattr(simulator, "generate_messages", lambda *_: messages)
        trace, _ = run(scheme, n_blocks=3, seed=0)
        assert [d for d in trace.decodes if d[1] == 3] == events

    def test_showcase_has_five_corners(self):
        assert len(integer_corners(ChannelParams(2, 3, 1, 1))) == 5

    def test_single_tuple(self):
        assert verify_params(ChannelParams(2, 3, 1, 1), n_blocks=8, seed=1) == []

    def test_degenerate_lattice(self):
        summary = verify_corner_sweep(0, n_blocks=8)
        assert summary.n_params == 1 and summary.n_runs == 1 and summary.ok

    def test_small_lattice_zero_errors(self):
        summary = verify_corner_sweep(2, n_blocks=8, seed=3)
        assert summary.ok
        assert summary.n_params == 81

    def test_corners_computed_once_per_tuple(self, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p)
            return integer_corners(p)

        monkeypatch.setattr(simulator, "integer_corners", counting)
        summary = verify_corner_sweep(2, n_blocks=4)
        assert summary.ok and len(calls) == summary.n_params == 81

    def test_import_loads_no_process_pool(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = (
            "import sys, ldbfn, ldbfn.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        )
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.strip() == "[]"


MICRO_FIXTURES = [
    # (name, params, hand allocation, per-use rates)
    ("neutralization", ChannelParams(1, 2, 1, 0),
     RateAllocation.of(Regime.B, {"Rc": 0, "R1d": 0, "R2d": 0, "Rbar1d": 0, "Rbar2d": 0, "Rn": 1}),
     (1, 1)),
    ("compute_forward", ChannelParams(1, 1, 2, 0),
     RateAllocation.of(Regime.A, {"Rc1": 1, "Rc2": 0, "R1d": 0, "R2d": 0}),
     (1, 1)),
    ("symmetric_feedback", ChannelParams(2, 2, 0, 1),
     RateAllocation.of(Regime.D, {"R1f": 0, "R2f": 0, "Rbarf1": 1, "Rbarf2": 0,
                                  "R1d": 0, "R2d": 0, "Rn1": 0, "Rn2": 0}),
     (1, 1)),
    ("asymmetric_feedback", ChannelParams(2, 2, 0, 1),
     RateAllocation.of(Regime.D, {"R1f": 1, "R2f": 0, "Rbarf1": 0, "Rbarf2": 0,
                                  "R1d": 0, "R2d": 0, "Rn1": 0, "Rn2": 0}),
     (1, 0)),
    ("decode_forward", ChannelParams(2, 2, 2, 0),
     RateAllocation.of(Regime.A, {"Rc1": 0, "Rc2": 0, "R1d": 1, "R2d": 1}),
     (1, 1)),
]


class TestOverlappedDeliveryWindow:
    """Hand allocations forcing the D-slot to share levels with the two-use-old
    symmetric-F delivery (and the relay block) in the strong-cross regime."""

    @pytest.mark.parametrize("values,rates", [
        ({"Rc": 0, "R1d": 1, "R2d": 1, "R1f": 0, "R2f": 0, "Rbarf": 1}, (2, 2)),
        ({"Rc": 0, "R1d": 2, "R2d": 0, "R1f": 0, "R2f": 0, "Rbarf": 1}, (3, 1)),
        ({"Rc": 1, "R1d": 1, "R2d": 0, "R1f": 0, "R2f": 0, "Rbarf": 1}, (3, 2)),
    ])
    def test_zero_errors(self, values, rates):
        p = ChannelParams(5, 4, 3, 2)
        alloc = RateAllocation.of(Regime.C, values)
        assert alloc.rate_pair() == rates
        scheme = build_scheme(p, alloc)
        x1 = scheme.transmit["x1"].layout
        assert any(len(pair) == 2 for pair in x1.overlaps)  # window really shared
        _, report = run(scheme, n_blocks=12, seed=31)
        assert not report.errors
        assert report.delivered_bits == (12 * rates[0], 12 * rates[1])


class TestStrategyMicroFixtures:
    """Single-strategy setups transcribed by hand; one bit per use each."""

    @pytest.mark.parametrize("name,params,alloc,rates", MICRO_FIXTURES,
                             ids=[m[0] for m in MICRO_FIXTURES])
    def test_fixture_runs_clean(self, name, params, alloc, rates):
        assert alloc.rate_pair() == rates
        scheme = build_scheme(params, alloc)
        _, report = run(scheme, n_blocks=8, seed=21)
        assert not report.errors
        assert report.delivered_bits == (8 * rates[0], 8 * rates[1])

    def test_asymmetric_feedback_uses_single_relay_level(self):
        # The one-directional variant reuses the owner's level, so the relay
        # hears exactly one occupied level; the two-directional variant needs
        # two source levels and one feedback level.
        _, params, alloc, _ = MICRO_FIXTURES[3]
        scheme = build_scheme(params, alloc)
        x1 = scheme.transmit["x1"].layout
        assert [s.name for s in x1.slots] == ["f1_slot"]
        sym_scheme = build_scheme(params, MICRO_FIXTURES[2][2])
        assert len(sym_scheme.transmit["x1"].layout.slots) == 2
        assert sym_scheme.feedback_levels == 1
