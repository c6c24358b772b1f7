"""Standalone property suites: channel linearity, layout round trips,
elimination-order independence, and region monotonicity/symmetry."""

import random
from itertools import product

from ldbfn import (
    BitVector,
    ChannelParams,
    NetworkInputs,
    allocate,
    build_scheme,
    channel_step,
    constraint_system,
    integer_corners,
    outer_bound_region,
    pack,
    project_to_rates,
    rate_definitions,
    regime_of,
    region_contains,
    regions_equal,
    unpack,
)
from ldbfn.fm import IneqSystem, _to_rows, lexmin_chain
from ldbfn.regions import Halfspace, canonicalize, corner_points


def test_channel_linearity_thousand_tuples():
    rng = random.Random(2024)
    for _ in range(1000):
        p = ChannelParams(*(rng.randrange(5) for _ in range(4)))
        q = p.q

        def vec():
            return BitVector(tuple(rng.randrange(2) for _ in range(q)))

        a = NetworkInputs(vec(), vec(), vec(), vec())
        b = NetworkInputs(vec(), vec(), vec(), vec())
        both = NetworkInputs(a.x1 ^ b.x1, a.x2 ^ b.x2, a.xr ^ b.xr, a.xf ^ b.xf)
        oa, ob, osum = channel_step(a, p), channel_step(b, p), channel_step(both, p)
        for name in ("y0", "y1", "y2", "y3", "y4"):
            assert getattr(osum, name) == getattr(oa, name) ^ getattr(ob, name)


def every_scheme_layout(max_level=3):
    for tup in product(range(max_level + 1), repeat=4):
        p = ChannelParams(*tup)
        for corner in integer_corners(p):
            scheme = build_scheme(p, allocate(p, corner))
            for key, plan in scheme.transmit.items():
                yield scheme, key, plan


def test_pack_unpack_round_trip_on_every_scheme_layout():
    rng = random.Random(7)
    checked = 0
    for scheme, key, plan in every_scheme_layout(3):
        layout = plan.layout
        segments = {
            s.name: tuple(rng.randrange(2) for _ in range(s.length)) for s in layout.slots
        }
        packed = pack(layout, segments)
        got = unpack(layout, packed)
        overlapping = {n for pair in layout.overlaps for n in pair}
        for slot in layout.slots:
            if slot.name not in overlapping:
                assert got[slot.name] == segments[slot.name]
            else:
                # Shared levels read back as the XOR of the padded fragments.
                expected = list(segments[slot.name])
                for other in layout.slots:
                    if other.name == slot.name:
                        continue
                    lo = max(slot.start, other.start)
                    hi = min(slot.stop, other.stop)
                    for pos in range(lo, hi):
                        expected[pos - slot.start] ^= segments[other.name][pos - other.start]
                assert got[slot.name] == tuple(expected)
        checked += 1
    assert checked > 500


def test_elimination_order_independence():
    rng = random.Random(13)
    samples = [
        ChannelParams(2, 1, 3, 0),   # regime A
        ChannelParams(1, 3, 2, 1),   # regime B
        ChannelParams(4, 2, 1, 2),   # regime C
        ChannelParams(2, 3, 1, 1),   # regime D
        ChannelParams(3, 3, 3, 3),   # boundary
    ]
    for p in samples:
        regime = regime_of(p)
        system = constraint_system(regime, p)
        defs = rate_definitions(regime)
        reference = project_to_rates(system, *defs)
        for _ in range(3):
            order = list(system.vars)
            rng.shuffle(order)
            shuffled = IneqSystem(tuple(order), system.ineqs)
            assert regions_equal(project_to_rates(shuffled, *defs), reference)


def test_full_elimination_leaves_only_trivial_constants():
    for p in (ChannelParams(2, 1, 3, 0), ChannelParams(2, 3, 1, 1)):
        system = constraint_system(regime_of(p), p)
        conditions = lexmin_chain(system.vars, _to_rows(system.vars, system.ineqs)).conditions
        # Every condition left is a constant 0 <= b, and each holds.
        assert conditions and all(len(form) == 1 and form[0] >= 0 for form in conditions)


def test_region_monotonicity_over_lattice():
    # The region grows with the source-relay, relay-destination and feedback
    # strengths.  It is NOT monotone in the cross strength: a stronger cross
    # link is also stronger interference (see the counterexample below), so
    # nc is deliberately excluded here.
    units = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    for tup in product(range(5), repeat=4):
        base = outer_bound_region(ChannelParams(*tup))
        for unit in units:
            bumped = ChannelParams(*(a + b for a, b in zip(tup, unit)))
            assert region_contains(outer_bound_region(bumped), base), (tup, unit)


def test_cross_strength_counterexample_to_monotonicity():
    # Raising nc from 1 to 2 at (ns, nr) = (2, 2) shrinks the sum bound
    # max(nr, nc) + (ns - nc)^+ from 3 to 2.
    weak = outer_bound_region(ChannelParams(1, 2, 2, 0))
    strong = outer_bound_region(ChannelParams(2, 2, 2, 0))
    assert region_contains(weak, strong)
    assert not region_contains(strong, weak)


def test_region_symmetry_over_lattice():
    for tup in product(range(5), repeat=4):
        region = outer_bound_region(ChannelParams(*tup))
        mirrored = canonicalize(
            type(region)(tuple(Halfspace(h.a2, h.a1, h.b) for h in region.halfspaces))
        )
        assert regions_equal(region, mirrored), tup


def test_feedback_irrelevant_when_cross_at_most_relay():
    for nc, ns, nr in product(range(5), repeat=3):
        if nc > nr:
            continue
        base = outer_bound_region(ChannelParams(nc, ns, nr, 0))
        for nf in range(1, 5):
            assert regions_equal(outer_bound_region(ChannelParams(nc, ns, nr, nf)), base)


def test_corners_lie_on_two_active_constraints():
    for tup in product(range(4), repeat=4):
        region = outer_bound_region(ChannelParams(*tup))
        axes = (Halfspace(-1, 0, 0), Halfspace(0, -1, 0))
        for pt in corner_points(region):
            active = sum(1 for h in region.halfspaces + axes if h.value(pt) == h.b)
            assert active >= 2, (tup, pt)
