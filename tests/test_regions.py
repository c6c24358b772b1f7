import pytest

from ldbfn import (
    ChannelParams,
    RateRegion,
    Regime,
    canonicalize,
    corner_points,
    achievable_region,
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
