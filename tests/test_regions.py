import hashlib
import pickle
import random
import time
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from ldbfn import (
    ChannelParams,
    RateRegion,
    Regime,
    applicable_regimes,
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
from ldbfn import cli, regions
from ldbfn.cli import sweep_rows
from ldbfn.regions import RatePoint, RegionError, _recession_rays, _vertex_triples, canonical_region, hs
from ldbfn.schemes import projected_region


SWEEP_GOLDEN = Path(__file__).resolve().parent.parent / "fixtures" / "golden" / "sweep_max4_oracle.csv"


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


def small_row_sets():
    """Every 1- and 2-row set with coefficients in -2..2 and bounds in -3..3 and every 3-row set
    with coefficients in -1..1 and bounds in -2..2: 25,844 sets, points, segments, half-lines,
    empty, bounded and unbounded regions among them."""

    def rows_over(coefficients, bounds):
        return [(a1, a2, b) for a1, a2 in product(coefficients, repeat=2) if a1 or a2 for b in bounds]

    small, tiny = rows_over(range(-2, 3), range(-3, 4)), rows_over(range(-1, 2), range(-2, 3))
    corpus = [(row,) for row in small] + [*combinations_with_replacement(small, 2)]
    corpus += combinations_with_replacement(tiny, 3)
    assert len(corpus) == 25_844
    return corpus


class TestCanonicalize:
    def test_domination(self):
        region = canonicalize(RateRegion((hs(1, 0, 1), hs(1, 0, 2))))
        assert region.halfspaces == (hs(1, 0, 1),)

    def test_rays_primitive_and_rows_tightest_per_reduced_normal(self, monkeypatch):
        # R1 >= 3/2 has the boundary direction (0, 2), which is the axis direction (0, 1).
        assert sorted(RateRegion((hs(-2, 0, -3),)).rays) == [(0, 1), (1, 0)]
        # R1 >= 3/2 and R1 >= 3 share the half-plane normal (-1, 0): only R1 >= 3 reaches the vertex
        # search, once as the tightened rows and once as the kept rows the region derives its own from.
        seen, vertex_triples = [], regions._vertex_triples
        monkeypatch.setattr(regions, "_vertex_triples", lambda rows: seen.append(rows) or vertex_triples(rows))
        regions._canonical.cache_clear()
        assert canonical_region([(-2, 0, -3), (-1, 0, -3)]).rows == ((-1, 0, -3),)
        assert seen == [((-1, 0, -3),)] * 2
        with pytest.raises(RegionError, match="empty"):  # 0*R1 + 0*R2 <= -1
            canonical_region([(0, 0, -1), (1, 0, 2)])

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

    def test_small_row_sets_pinned(self):
        # Rows, walk-order vertices and rays of every set of ``small_row_sets``.
        digest = hashlib.sha256()
        for rows in small_row_sets():
            try:
                region = canonical_region(rows)
            except RegionError:
                digest.update(b"empty")
                continue
            digest.update(repr((region.rows, region.vertices, sorted(region.rays))).encode())
        assert digest.hexdigest() == "78f2f265ad81309de31cf324454858225728290ecee36354788966aec3c42b52"


class TestMemo:
    """Canonical regions are memoised on their tightened rows, sorted."""

    def test_rows_that_tighten_alike_share_one_region(self):
        rows = [(1, 0, 2), (0, 1, 2), (1, 1, 3)]
        region = canonical_region(rows)
        assert canonical_region(rows[::-1]) is region  # permuted
        assert canonical_region([(2, 0, 4), (0, 3, 6), (1, 1, 3)]) is region  # scaled
        assert canonical_region(rows + [(1, 1, 3), (2, 2, 6), (1, 1, 5)]) is region  # duplicated, looser
        assert canonicalize(RateRegion(hs(*row) for row in rows)) is region

    def test_lattice_regions_equal_cold_ones(self):
        # Each region as the memo serves it, shared with earlier tuples, and as made after a cache_clear().
        for levels in product(range(5), repeat=4):
            p = ChannelParams(*levels)
            regimes = applicable_regimes(p)
            makers = [partial(outer_bound_region.__wrapped__, p)]
            makers += [partial(achievable_region.__wrapped__, p, r) for r in regimes]
            makers += [partial(projected_region, r, p) for r in regimes]
            for make in makers:
                warm = make()
                regions._canonical.cache_clear()
                cold = make()
                assert (cold.rows, cold.vertices, cold.rays) == (warm.rows, warm.vertices, warm.rays), p

    def test_sweep_misses_only_its_distinct_keys(self, monkeypatch):
        keys, core = [], regions._canonical
        monkeypatch.setattr(regions, "_canonical", lambda rows: keys.append(rows) or core(rows))
        core.cache_clear()
        outer_bound_region.cache_clear()
        achievable_region.cache_clear()
        list(sweep_rows(2, True))
        assert core.cache_info().misses <= len(set(keys)) < len(keys)

    def test_empty_region_raises_on_every_call(self):
        size = regions._canonical.cache_info().currsize
        for _ in range(2):
            with pytest.raises(RegionError, match="empty"):  # R1 <= -1
                canonical_region([(1, 0, -1)])
        assert regions._canonical.cache_info().currsize == size


def answers(region):
    return sum_capacity(region), corner_points(region), integer_points(region)


class TestDerivedValues:
    """A region stores its sum capacity, corner points and integer points on their first successful call."""

    def test_sweep_regions_store_what_a_fresh_region_computes(self, monkeypatch):
        made, core = {}, regions._canonical
        monkeypatch.setattr(regions, "_canonical", lambda rows: made.setdefault(rows, core(rows)))
        for cache in (core, outer_bound_region, achievable_region):
            cache.cache_clear()
        list(sweep_rows(4, True))
        stored = [0, 0, 0]
        for region in made.values():
            fresh = RateRegion(region.halfspaces)
            kept = ((region._sum, sum_capacity), (region._corners, corner_points), (region._points, integer_points))
            for i, (value, compute) in enumerate(kept):
                if value is not None:
                    stored[i] += 1
                    assert compute(region) == compute(fresh) == type(compute(fresh))(value), region
        assert stored == [18, 18, 64]

    def test_results_are_fresh_copies(self):
        region = canonical_region([(1, 0, 2), (0, 1, 2), (1, 1, 3)])
        expected = answers(RateRegion(region.halfspaces))
        corners_once, points_once = corner_points(region), integer_points(region)
        corners_once.reverse()
        corners_once.append(RatePoint(Fraction(9), Fraction(9)))
        points_once.add((9, 9))
        points_once.discard((0, 0))
        assert answers(region) == expected
        assert len(expected[1]) == 5 and len(expected[2]) == 8

    @pytest.mark.parametrize("rows, message", [([(1, 0, -1)], "empty"), ([(1, -1, 0)], "bounded region")])
    def test_empty_or_unbounded_region_raises_on_every_call(self, rows, message):
        region = RateRegion(hs(*row) for row in rows)
        for compute in (sum_capacity, corner_points, integer_points):
            for _ in range(2):
                with pytest.raises(RegionError, match=message):
                    compute(region)

    def test_pickled_region_gives_the_same_answers(self):
        region = RateRegion(paper_outer_bound(ChannelParams(6, 3, 1, 1)))
        before = pickle.loads(pickle.dumps(region))  # nothing stored yet
        expected = answers(region)
        after = pickle.loads(pickle.dumps(region))  # the stored values travel with the region
        assert (after._sum, after._corners, after._points) == (region._sum, region._corners, region._points)
        assert answers(before) == answers(after) == expected
        assert expected[0] == 4

    def test_sweep_with_a_cold_memo_before_every_row_matches_golden(self, monkeypatch, tmp_path):
        row = cli._sweep_row

        def cold_row(p, with_oracle):
            for cache in (regions._canonical, outer_bound_region, achievable_region):
                cache.cache_clear()
            return row(p, with_oracle)

        monkeypatch.setattr(cli, "_sweep_row", cold_row)
        target = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--max", "4", "--oracle", "--out", str(target)]) == 0
        assert target.read_bytes() == SWEEP_GOLDEN.read_bytes()


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

    def test_integer_points_match_the_box_scan_on_small_row_sets(self):
        for rows in small_row_sets():
            region = RateRegion(tuple(hs(*row) for row in rows))
            if not region.vertices or region.rays:
                continue
            m1 = max(n1 // d for n1, _, d in region.vertices)
            m2 = max(n2 // d for _, n2, d in region.vertices)
            scan = {
                (r1, r2) for r1 in range(m1 + 1) for r2 in range(m2 + 1)
                if all(a1 * r1 + a2 * r2 <= b for a1, a2, b in region.rows)
            }
            assert integer_points(region) == scan, rows

    def test_integer_points_of_a_long_segment(self):
        # R1 = R2 <= 10**5: a box scan would test 10**10 pairs.
        region = canonical_region([(1, -1, 0), (-1, 1, 0), (1, 0, 10**5)])
        t0 = time.perf_counter()
        points = integer_points(region)
        assert time.perf_counter() - t0 < 2.0
        assert len(points) == 100_001 and points == {(k, k) for k in range(100_001)}

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
        assert net_gain(ChannelParams(6, 3, 1, 1), 1) == 2

    def test_no_gain_when_relay_link_strong(self):
        p = ChannelParams(2, 1, 3, 0)
        for nf in range(4):
            assert net_gain(p.with_nf(nf), 1) == 0

    def test_zero_feedback_spend_rejected(self):
        with pytest.raises(ValueError):
            net_gain(ChannelParams(6, 3, 1, 1), 0)

    def test_same_nf_gains_nothing(self):
        assert net_gain(ChannelParams(6, 3, 1, 0), 1) == 0


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


LATTICE_6 = [ChannelParams(*levels) for levels in product(range(7), repeat=4)]


def paper_outer_bound(p):
    """The outer bound of the module docstring as raw Fraction halfspaces."""
    cap = min(p.ns, p.nr + p.nf, max(p.nc, p.nr))
    return (
        hs(1, 0, cap),
        hs(0, 1, cap),
        hs(1, 1, max(p.nr, p.nc) + p.nc),
        hs(1, 1, max(p.nr, p.nc) + max(0, p.ns - p.nc)),
        hs(1, 1, p.ns + p.nc),
    )


def paper_achievable(p, regime):
    """The regime's achievable region of the module docstring as raw Fraction halfspaces."""
    if regime is Regime.A:
        cap, totals = p.ns, (p.nr,)
    elif regime is Regime.B:
        cap, totals = min(p.ns, p.nr), (p.ns + p.nc, p.nr + p.nc, p.nr + p.ns - p.nc)
    elif regime is Regime.C:
        cap, totals = min(p.ns, p.nr + p.nf), (p.nc,)
    else:
        cap, totals = min(p.nr + p.nf, p.nc), (p.ns,)
    return (hs(1, 0, cap), hs(0, 1, cap), *(hs(1, 1, t) for t in totals))


def assert_derived_from_rows(region):
    """The stored vertices and rays are what the stored rows give."""
    assert set(region.vertices) == _vertex_triples(region.rows), region
    assert len(region.vertices) == len(set(region.vertices)), region
    assert set(region.rays) == set(_recession_rays(region.rows)), region


rows_strategy = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-8, 12)).filter(lambda r: r[0] or r[1]),
    max_size=6,
)


class TestStoredForm:
    """A region stores primitive integer rows and the vertices and rays derived from them."""

    def test_canonical_regions_of_the_lattice(self):
        for p in LATTICE_6:
            regimes = applicable_regimes(p)
            regions = [outer_bound_region(p)]
            regions += [achievable_region(p, r) for r in regimes]
            regions += [projected_region(r, p) for r in regimes]
            for region in regions:
                assert_derived_from_rows(region)
                assert not region.rays

    @given(rows_strategy)
    @example([(1, -1, 1), (-1, 1, -1)])  # the half-line R2 = R1 - 1 from (1, 0)
    @example([(-1, 1, 2), (1, -1, 3), (-1, -1, -1)])  # a strip, unbounded along (1, 1)
    @example([(1, -1, 0)])  # the cone R1 <= R2: dropping its row changes only the rays
    def test_any_row_set(self, rows):
        region = RateRegion(tuple(hs(*row) for row in rows))
        assert_derived_from_rows(region)
        if not region.vertices:
            with pytest.raises(RegionError, match="empty"):
                canonical_region(rows)
            return
        canon = canonical_region(rows)
        assert_derived_from_rows(canon)
        assert canon.vertices == region.vertices
        # A dropped row may add a non-extreme direction to the rays of the rows given, never an extreme one.
        assert bool(canon.rays) == bool(region.rays) and set(canon.rays) <= set(region.rays)
        assert canonicalize(region) == canon
        rays = canon.rays
        half_line = len(canon.vertices) == 1 and all(e1 * rays[0][1] == e2 * rays[0][0] for e1, e2 in rays)
        if len(canon.vertices) <= 2 and not rays or half_line:
            return
        # Full-dimensional: every kept row is needed, so dropping it changes the vertices or the rays.
        point_set = (set(canon.vertices), set(_recession_rays(canon.rows)))
        for row in canon.rows:
            rest = [other for other in canon.rows if other != row]
            assert (_vertex_triples(rest), set(_recession_rays(rest))) != point_set, (canon, row)

    def test_canonical_regions_rederive_the_vertices_of_the_rows_given(self):
        # A canonical region derives its vertices and rays from the rows it keeps alone.  The rows
        # it drops are implied, so they are the vertices, in walk order, of the rows it was made from.
        for p in LATTICE_6:
            given = [(paper_outer_bound(p), outer_bound_region(p))]
            given += [(paper_achievable(p, r), achievable_region(p, r)) for r in applicable_regimes(p)]
            for halfspaces, canon in given:
                region = RateRegion(halfspaces)
                assert (canon.vertices, canon.rays) == (region.vertices, region.rays), (p, canon)
                assert not canon.rays

    def test_int_built_regions_equal_the_paper_halfspaces(self):
        for p in LATTICE_6:
            assert outer_bound_region(p) == canonicalize(RateRegion(paper_outer_bound(p))), p
            for r in applicable_regimes(p):
                assert achievable_region(p, r) == canonicalize(RateRegion(paper_achievable(p, r))), (p, r)

    def test_pickle_equality_and_hash(self):
        p = ChannelParams(2, 3, 1, 1)
        region = outer_bound_region(p)
        regions._canonical.cache_clear()  # else the memo hands back ``region`` itself
        rebuilt = canonicalize(RateRegion(paper_outer_bound(p)))
        assert rebuilt is not region
        assert rebuilt == region and hash(rebuilt) == hash(region)
        back = pickle.loads(pickle.dumps(region))
        assert back == region and hash(back) == hash(region)
        assert (back.rows, back.vertices, back.rays) == (region.rows, region.vertices, region.rays)
        assert back.halfspaces == region.halfspaces == (hs(0, 1, 2), hs(1, 0, 2), hs(1, 1, 3))

    def test_non_primitive_halfspaces_read_back_as_primitive_rows(self):
        region = RateRegion((hs(2, 2, 4), hs(Fraction(1, 2), 0, 1)))
        assert region.rows == ((1, 1, 2), (1, 0, 2))
        assert region.halfspaces == (hs(1, 1, 2), hs(1, 0, 2))
        assert region == RateRegion((hs(1, 1, 2), hs(1, 0, 2)))
        assert repr(region) == "RateRegion(rows=((1, 1, 2), (1, 0, 2)))"
        with pytest.raises(RegionError, match="^halfspace needs a nonzero normal$"):
            hs(0, 0, 1)
