import random
from fractions import Fraction

import pytest

from ldbfn import (
    ChannelParams,
    RateRegion,
    Regime,
    canonicalize,
    corner_points,
    achievable_region,
    integer_points,
    net_gain,
    outer_bound_region,
    regime_of,
    region_to_jsonable,
    regions_equal,
    sum_capacity,
)
from ldbfn.regions import RegionError, hs


def halfspace_set(region):
    return {(int(h.a1), int(h.a2), int(h.b)) for h in region.halfspaces}


def corners(region):
    return [(int(p.r1), int(p.r2)) for p in corner_points(region)]


class TestOuterBound:
    def test_showcase_without_feedback(self):
        region = outer_bound_region(ChannelParams(2, 3, 1, 0))
        assert halfspace_set(region) == {(1, 0, 1), (0, 1, 1)}

    def test_showcase_with_feedback(self):
        region = outer_bound_region(ChannelParams(2, 3, 1, 1))
        assert halfspace_set(region) == {(1, 0, 2), (0, 1, 2), (1, 1, 3)}

    def test_all_zero_network(self):
        region = outer_bound_region(ChannelParams(0, 0, 0, 0))
        assert corners(region) == [(0, 0)]

    def test_sum_bound_implied_in_net_gain_example(self):
        region = outer_bound_region(ChannelParams(6, 3, 1, 1))
        assert halfspace_set(region) == {(1, 0, 2), (0, 1, 2)}


class TestRegime:
    @pytest.mark.parametrize(
        "tup,expected",
        [
            ((2, 3, 1, 0), Regime.D),
            ((2, 3, 1, 1), Regime.D),
            ((6, 3, 1, 0), Regime.C),
            ((2, 1, 3, 0), Regime.A),
            ((1, 2, 3, 0), Regime.B),
            ((2, 2, 3, 0), Regime.A),  # A/B overlap resolves to A
        ],
    )
    def test_classification(self, tup, expected):
        assert regime_of(ChannelParams(*tup)) is expected

    def test_every_tuple_has_a_regime(self):
        for nc in range(5):
            for ns in range(5):
                for nr in range(5):
                    regime_of(ChannelParams(nc, ns, nr, 0))


class TestAchievableRegions:
    def test_regime_a_redundant_sum(self):
        region = achievable_region(ChannelParams(2, 1, 3, 0))
        assert halfspace_set(region) == {(1, 0, 1), (0, 1, 1)}

    def test_regime_d_showcase(self):
        region = achievable_region(ChannelParams(2, 3, 1, 1))
        assert halfspace_set(region) == {(1, 0, 2), (0, 1, 2), (1, 1, 3)}

    def test_regime_c_without_feedback(self):
        region = achievable_region(ChannelParams(6, 3, 1, 0))
        assert halfspace_set(region) == {(1, 0, 1), (0, 1, 1)}

    def test_matches_outer_bound_everywhere_small(self):
        for nc in range(4):
            for ns in range(4):
                for nr in range(4):
                    for nf in range(3):
                        p = ChannelParams(nc, ns, nr, nf)
                        assert regions_equal(achievable_region(p), outer_bound_region(p)), p


class TestCanonicalize:
    def test_domination(self):
        region = canonicalize(RateRegion((hs(1, 0, 1), hs(1, 0, 2))))
        assert region.halfspaces == (hs(1, 0, 1),)

    def test_slack_sum_bound_removed(self):
        region = canonicalize(RateRegion((hs(1, 0, 2), hs(0, 1, 2), hs(1, 1, 5))))
        assert halfspace_set(region) == {(1, 0, 2), (0, 1, 2)}

    def test_showcase_raw_list_reduces_to_three(self):
        region = outer_bound_region(ChannelParams(2, 3, 1, 1))
        assert len(region.halfspaces) == 3

    def test_idempotent(self):
        raw = RateRegion((hs(1, 0, 2), hs(0, 1, 2), hs(1, 1, 3), hs(1, 1, 7), hs(2, 2, 6)))
        once = canonicalize(raw)
        assert canonicalize(once) == once

    def test_empty_region_rejected(self):
        with pytest.raises(RegionError):
            canonicalize(RateRegion((hs(-1, 0, -1), hs(1, 0, 0))))

    def test_representation_independent(self):
        a = canonicalize(RateRegion((hs(1, 1, 2),)))
        b = canonicalize(RateRegion((hs(2, 2, 4), hs(1, 0, 2), hs(1, 1, 2))))
        assert a == b
        # Unbounded regions keep given rows, which must come out primitive.
        for tight in (hs(-2, 2, 4), hs(Fraction(-2, 3), Fraction(2, 3), Fraction(4, 3))):
            assert canonicalize(RateRegion((tight, hs(-1, 1, 3)))) == RateRegion((hs(-1, 1, 2),))

    def test_unbounded_keeps_halfspace_needed_along_another_ray(self):
        # Without R2 <= 3*R1 the cone gains the ray (0, 1), along which
        # -3*R1 + R2 grows; the ray (2, 3) alone would call it bounded.
        raw = RateRegion((hs(-3, 1, 0), hs(3, -2, 13)))
        region = canonicalize(raw)
        assert set(region.halfspaces) == set(raw.halfspaces)
        assert not region.contains((0, 7))

    def test_half_line_representation_independent(self):
        # The half-line R2 = 2*R1, R1 >= 1, capped by R2 >= R1 + 1 or by R2 >= 2.
        ray = (hs(-2, 1, 0), hs(2, -1, 0))
        a = canonicalize(RateRegion(ray + (hs(1, -1, -1),)))
        b = canonicalize(RateRegion(ray + (hs(0, -1, -2),)))
        assert a == b
        assert a.contains((1, 2)) and a.contains((5, 10)) and not a.contains((0, 0))


class TestCorners:
    def test_pentagon_walk_order(self):
        region = canonicalize(RateRegion((hs(1, 0, 2), hs(0, 1, 2), hs(1, 1, 3))))
        assert corners(region) == [(0, 0), (0, 2), (1, 2), (2, 1), (2, 0)]

    def test_unit_box(self):
        region = canonicalize(RateRegion((hs(1, 0, 1), hs(0, 1, 1))))
        assert corners(region) == [(0, 0), (0, 1), (1, 1), (1, 0)]

    def test_origin_only(self):
        region = outer_bound_region(ChannelParams(0, 0, 0, 0))
        assert corners(region) == [(0, 0)]


class TestRegionsEqual:
    def test_reflexive(self):
        r = outer_bound_region(ChannelParams(2, 3, 1, 1))
        assert regions_equal(r, r)

    def test_redundant_sum_constraint(self):
        a = RateRegion((hs(1, 0, 1), hs(0, 1, 1)))
        b = RateRegion((hs(1, 0, 1), hs(0, 1, 1), hs(1, 1, 2)))
        assert regions_equal(a, b)

    def test_distinct_region_detected(self):
        a = RateRegion((hs(1, 0, 1), hs(0, 1, 1)))
        b = RateRegion((hs(1, 0, 1), hs(0, 1, 1), hs(1, 1, 1)))
        assert not regions_equal(a, b)

    def test_empty_region_rejected(self):
        box = RateRegion((hs(1, 0, 1), hs(0, 1, 1)))
        empty = RateRegion((hs(-1, 0, -1), hs(1, 0, 0)))
        for a, b in ((empty, box), (box, empty)):
            with pytest.raises(RegionError, match="empty"):
                regions_equal(a, b)

    def test_unbounded_region_rejected(self):
        # No corner of the box satisfies R2 - R1 <= -5, so a check that
        # stops at the first missing corner would answer False instead.
        box = RateRegion((hs(1, 0, 1), hs(0, 1, 1)))
        for unbounded in (RateRegion((hs(0, 1, 1),)), RateRegion((hs(-1, 1, -5),))):
            for a, b in ((unbounded, box), (box, unbounded)):
                with pytest.raises(RegionError, match="bounded"):
                    regions_equal(a, b)


def _rand_rational(rng, lo, hi):
    den = rng.choice((1, 1, 2, 3, 4))
    return Fraction(rng.randint(lo * den, hi * den), den)


def _random_bounded(rng):
    """A bounded non-empty region in a redundant, rational representation.

    Every row holds at a random point ``p`` of the box [0, 6]^2, so the
    region is never empty; a box cap keeps it bounded.  Some regions are
    pinned to a single point or to a segment through ``p``.
    """
    p = (_rand_rational(rng, 0, 6), _rand_rational(rng, 0, 6))
    rows = [hs(1, 0, 6), hs(0, 1, 6)]
    shape = rng.random()
    if shape < 0.15:  # the single point p
        rows += [hs(1, 0, p[0]), hs(-1, 0, -p[0]), hs(0, 1, p[1]), hs(0, -1, -p[1])]
    elif shape < 0.3:  # a segment through p
        a1, a2 = rng.randint(-3, 3), rng.randint(1, 3)
        v = a1 * p[0] + a2 * p[1]
        rows += [hs(a1, a2, v), hs(-a1, -a2, -v)]
    for _ in range(rng.randint(0, 4)):
        a1, a2 = _rand_rational(rng, -3, 3), _rand_rational(rng, -3, 3)
        if a1 == 0 and a2 == 0:
            continue
        slack = rng.choice((0, 0, _rand_rational(rng, 0, 3), 50))  # 50: redundant
        rows.append(hs(a1, a2, a1 * p[0] + a2 * p[1] + slack))
    for h in rng.sample(rows, rng.randint(0, 2)):  # positive multiples of a row
        k = _rand_rational(rng, 1, 4)
        rows.append(hs(h.a1 * k, h.a2 * k, h.b * k))
    rng.shuffle(rows)
    return RateRegion(tuple(rows))


def _mutually_contained(a, b):
    """Reference equality: each canonical region's corners lie in the other."""
    ca, cb = canonicalize(a), canonicalize(b)
    return all(cb.contains(p) for p in corner_points(ca)) and all(
        ca.contains(p) for p in corner_points(cb)
    )


class TestIntegerCoreAgainstFractionReferences:
    """Fixed-seed random bounded regions checked through the public Fraction API."""

    def test_regions_equal_matches_mutual_containment(self):
        rng = random.Random(5)
        outcomes = {True: 0, False: 0}
        for _ in range(300):
            a = _random_bounded(rng)
            if rng.random() < 0.6:  # a's facets written another way, maybe one dropped
                facets = list(canonicalize(a).halfspaces)
                if rng.random() < 0.5:
                    facets.remove(rng.choice(facets))
                rows = facets + list(a.halfspaces[:2]) + [hs(1, 0, 6), hs(0, 1, 6)]
                b = RateRegion(tuple(hs(h.a1 * 2, h.a2 * 2, h.b * 2) for h in rows))
            else:
                b = _random_bounded(rng)
            expected = _mutually_contained(a, b)
            assert regions_equal(a, b) is expected, (a, b)
            assert regions_equal(b, a) is expected, (a, b)
            outcomes[expected] += 1
        assert min(outcomes.values()) >= 50, outcomes

    def test_integer_points_match_brute_force_scan(self):
        rng = random.Random(6)
        for _ in range(200):
            region = _random_bounded(rng)
            scan = {(r1, r2) for r1 in range(8) for r2 in range(8) if region.contains((r1, r2))}
            assert integer_points(region) == scan, region

    def test_canonicalize_idempotent(self):
        rng = random.Random(7)
        for _ in range(300):
            once = canonicalize(_random_bounded(rng))
            assert canonicalize(once) == once


class TestSumCapacityAndNetGain:
    def test_values_from_net_gain_example(self):
        assert sum_capacity(outer_bound_region(ChannelParams(6, 3, 1, 0))) == 2
        assert sum_capacity(outer_bound_region(ChannelParams(6, 3, 1, 1))) == 4

    def test_origin_region(self):
        assert sum_capacity(outer_bound_region(ChannelParams(0, 0, 0, 0))) == 0

    def test_net_gain_is_two(self):
        assert net_gain(ChannelParams(6, 3, 1, 0), 1, 1) == 2

    def test_no_gain_when_relay_link_strong(self):
        p = ChannelParams(2, 1, 3, 0)
        for nf in range(4):
            assert net_gain(p, nf, 1) == 0

    def test_zero_feedback_spend_rejected(self):
        with pytest.raises(ValueError):
            net_gain(ChannelParams(6, 3, 1, 0), 1, 0)

    def test_same_nf_gains_nothing(self):
        assert net_gain(ChannelParams(6, 3, 1, 0), 0, 1) == 0


class TestJson:
    def test_shape_and_fraction_rendering(self):
        payload = region_to_jsonable(outer_bound_region(ChannelParams(2, 3, 1, 1)))
        assert payload["halfspaces"] == [
            {"a1": 0, "a2": 1, "b": 2},
            {"a1": 1, "a2": 0, "b": 2},
            {"a1": 1, "a2": 1, "b": 3},
        ]
        assert payload["corners"] == [[0, 0], [0, 2], [1, 2], [2, 1], [2, 0]]

    def test_fractional_values_serialize_as_strings(self):
        region = canonicalize(RateRegion((hs(2, 0, 1), hs(0, 2, 1))))
        payload = region_to_jsonable(region)
        assert ["1/2", "1/2"] in payload["corners"]
