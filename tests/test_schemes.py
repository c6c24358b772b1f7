import dataclasses
import hashlib
import json
import re
import time
from fractions import Fraction
from itertools import accumulate, product
from pathlib import Path

import pytest

from ldbfn import (
    ChannelParams,
    InfeasibleTargetError,
    RateAllocation,
    RatePoint,
    Regime,
    SchemeError,
    allocate,
    build_scheme,
    constraint_system,
    InfeasibleSystemError,
    integer_corners,
    integer_points,
    achievable_region,
    outer_bound_region,
    applicable_regimes,
    project_to_rates,
    rate_definitions,
    regime_of,
    run,
    sum_capacity,
)
from ldbfn import cli, fm, schemes
from ldbfn.fm import enumerate_integer_projection, lexmin_chain, walk_table
from ldbfn.regions import canonical_region
from ldbfn.gf2 import SignalLayout
from ldbfn.schemes import Subtract, TransmitPlan, enumerated_points, projected_region

SHOWCASE = ChannelParams(2, 3, 1, 1)
NETGAIN = ChannelParams(6, 3, 1, 1)
ALLOCATE_GOLDEN = Path(__file__).resolve().parent.parent / "fixtures" / "golden" / "allocate_max5.txt"
SCHEMES_GOLDEN = ALLOCATE_GOLDEN.with_name("schemes_max4.txt")


def nonzero(alloc):
    return {k: v for k, v in alloc.values if v}


def occupied_extent(layout):
    """Lowest level index touched by any slot of ``layout`` (0 for an empty layout)."""
    return max((s.stop for s in layout.slots if s.length > 0), default=0)


class TestConstraintSystems:
    def test_regime_a_shape(self):
        system = constraint_system(Regime.A, ChannelParams(2, 1, 3, 0))
        assert set(system.vars) == {"Rc1", "Rc2", "R1d", "R2d"}
        assert len(system.ineqs) == 3

    def test_regime_c_has_two_feedback_caps(self):
        system = constraint_system(Regime.C, NETGAIN)
        assert len(system.ineqs) == 5
        caps = [q for q in system.ineqs if q.coeffs.keys() == {"R1f", "Rbarf"}
                or q.coeffs.keys() == {"R2f", "Rbarf"}]
        assert len(caps) == 2 and all(q.bound == 1 for q in caps)

    def test_regime_b_degenerate_window(self):
        # ns == nc forces the window streams to zero rate.
        p = ChannelParams(2, 2, 3, 0)
        system = constraint_system(Regime.B, p)
        by_vars = {frozenset(q.coeffs): int(q.bound) for q in system.ineqs}
        assert by_vars[frozenset({"Rbar1d", "Rbar2d"})] == 0
        assert by_vars[frozenset({"Rn"})] == 0

    @pytest.mark.parametrize("regime", list(Regime))
    def test_rows_are_integral(self, regime):
        for tup in product(range(5), repeat=4):
            p = ChannelParams(*tup)
            if regime in applicable_regimes(p):
                for q in constraint_system(regime, p).ineqs:
                    assert type(q.bound) is int
                    assert all(type(c) is int for c in q.coeffs.values())

    def test_regime_mismatch_rejected(self):
        with pytest.raises(ValueError):
            constraint_system(Regime.A, ChannelParams(6, 3, 1, 0))


class TestRateDefinitions:
    def test_regime_a(self):
        r1, r2 = rate_definitions(Regime.A)
        assert r1 == {"Rc1": 1, "Rc2": 1, "R1d": 1}
        assert r2 == {"Rc1": 1, "Rc2": 1, "R2d": 1}

    def test_regime_b(self):
        r1, r2 = rate_definitions(Regime.B)
        assert r1 == {"R1d": 1, "Rbar1d": 1, "Rc": 1, "Rn": 1}
        assert r2 == {"R2d": 1, "Rbar2d": 1, "Rc": 1, "Rn": 1}

    def test_regime_c(self):
        r1, r2 = rate_definitions(Regime.C)
        assert r1 == {"Rc": 1, "R1d": 1, "R1f": 1, "Rbarf": 1}
        assert r2 == {"Rc": 1, "R2d": 1, "R2f": 1, "Rbarf": 1}

    def test_regime_d_six_terms(self):
        r1, r2 = rate_definitions(Regime.D)
        assert r1 == {"R1f": 1, "Rbarf1": 1, "Rbarf2": 1, "R1d": 1, "Rn1": 1, "Rn2": 1}
        assert r2 == {"R2f": 1, "Rbarf1": 1, "Rbarf2": 1, "R2d": 1, "Rn1": 1, "Rn2": 1}

    @pytest.mark.parametrize("regime", list(Regime))
    def test_definitions_swap_under_user_exchange(self, regime):
        # Only the per-user variables flip; split components (Rc1/Rc2,
        # Rbarf1/Rbarf2, Rn1/Rn2) are shared between the users.
        r1, r2 = rate_definitions(regime)
        swap = {"R1d": "R2d", "R2d": "R1d", "R1f": "R2f", "R2f": "R1f",
                "Rbar1d": "Rbar2d", "Rbar2d": "Rbar1d"}
        assert {swap.get(v, v): c for v, c in r1.items()} == r2


class TestAllocate:
    def test_showcase_corner(self):
        assert nonzero(allocate(SHOWCASE, (2, 1))) == {"R1f": 1, "Rn2": 1}

    def test_net_gain_corner(self):
        assert nonzero(allocate(NETGAIN, (2, 2))) == {"Rc": 1, "Rbarf": 1}

    def test_origin(self):
        assert nonzero(allocate(SHOWCASE, (0, 0))) == {}

    def test_infeasible_target_names_halfspace(self):
        with pytest.raises(InfeasibleTargetError) as err:
            allocate(SHOWCASE, (3, 0))
        assert "1*R1 + 0*R2 <= 2" in str(err.value)

    def test_non_integer_target_rejected(self):
        with pytest.raises(InfeasibleTargetError) as err:
            allocate(SHOWCASE, (Fraction(1, 2), 0))
        assert str(err.value) == "target (Fraction(1, 2), 0) is not an integer point"

    def test_accepts_exactly_the_region_on_a_box(self):
        for tup in product(range(5), repeat=4):
            p = ChannelParams(*tup)
            region = achievable_region(p)
            cap = max(max(c) for c in integer_corners(p))
            for t1, t2 in product(range(-1, cap + 2), repeat=2):
                try:
                    accepted = allocate(p, (t1, t2)).rate_pair() == (t1, t2)
                except InfeasibleTargetError as err:
                    accepted = False
                    if t1 >= 0 and t2 >= 0:
                        assert err.violated is not None
                        assert not err.violated.holds(RatePoint(Fraction(t1), Fraction(t2)))
                assert accepted == region.contains((t1, t2)), (tup, t1, t2)

    def test_every_corner_allocatable_small_lattice(self):
        for tup in product(range(4), repeat=4):
            p = ChannelParams(*tup)
            for corner in integer_corners(p):
                alloc = allocate(p, corner)
                assert alloc.rate_pair() == corner

    def test_matches_golden(self):
        # One line per (tuple, corner) on [0,5]^4: "nc,ns,nr,nf r1,r2 regime
        # values", the values in the order of the regime's variables.
        lines = []
        for tup in product(range(6), repeat=4):
            p = ChannelParams(*tup)
            for corner in integer_corners(p):
                alloc = allocate(p, corner)
                lines.append(" ".join((
                    ",".join(map(str, tup)),
                    ",".join(map(str, corner)),
                    alloc.regime.value,
                    ",".join(map(str, alloc.xs)),
                )))
        assert "\n".join(lines) + "\n" == ALLOCATE_GOLDEN.read_text()

    def test_non_integer_corner_raises(self, monkeypatch):
        # The model's corners are integral; a stand-in region with the corner (1/2, 1) reaches the check.
        monkeypatch.setattr(schemes, "achievable_region", lambda p: canonical_region([(2, 0, 1), (0, 1, 1)]))
        with pytest.raises(SchemeError) as exc:
            integer_corners(SHOWCASE)
        assert str(exc.value) == f"non-integer corner among [(0, 0, 1), (0, 1, 1), (1, 2, 2), (1, 0, 2)] for {SHOWCASE}"

    def test_interior_integer_points_allocatable(self):
        p = ChannelParams(3, 3, 2, 1)
        from ldbfn import integer_points

        for point in integer_points(achievable_region(p)):
            assert allocate(p, point).rate_pair() == point


class TestInternalRows:
    def test_internal_paths_build_no_api_form(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an internal path built the API inequality form")

        for owner, name in ((fm.LinearIneq, "__post_init__"), (fm.IneqSystem, "__post_init__"), (fm, "_to_rows"),
                            (schemes, "constraint_system"), (schemes, "rate_definitions")):
            monkeypatch.setattr(owner, name, refuse)
        assert all(row["fm_oracle_equal"] for row in cli.sweep_rows(3, with_oracle=True))
        for tup in product(range(4), repeat=4):
            p = ChannelParams(*tup)
            for corner in integer_corners(p):
                assert build_scheme(p, allocate(p, corner)).rates == corner
        assert {r: lexmin_chain(schemes._SYSTEMS[r][0], schemes._alloc_rows(r)) for r in Regime} == schemes._CHAINS
        assert {r: walk_table(schemes._SYSTEMS[r][1], *schemes._SYSTEMS[r][3]) for r in Regime} == schemes._WALKS

    def test_enumerated_points_equal_the_api_oracle(self):
        ties = 0
        for tup in product(range(5), repeat=4):
            p = ChannelParams(*tup)
            regimes = applicable_regimes(p)
            ties += len(regimes) > 1
            for regime in regimes:
                api = enumerate_integer_projection(constraint_system(regime, p), *rate_definitions(regime))
                assert enumerated_points(regime, p) == api, (tup, regime)
        assert ties  # tuples where a second regime applies, which the sweep never reaches
        with pytest.raises(ValueError):
            enumerated_points(Regime.A, ChannelParams(6, 3, 1, 0))


def sample_schemes(max_level=3):
    for tup in product(range(max_level + 1), repeat=4):
        p = ChannelParams(*tup)
        for corner in integer_corners(p):
            yield p, build_scheme(p, allocate(p, corner))


class TestBuildScheme:
    def test_infeasible_allocation_rejected(self):
        bad = RateAllocation.of(
            Regime.A, {"Rc1": 5, "Rc2": 0, "R1d": 0, "R2d": 0}
        )
        violated = "LinearIneq(coeffs={'R1d': 1, 'R2d': 1, 'Rc2': 1, 'Rc1': 1}, bound=1)"
        with pytest.raises(SchemeError, match=re.escape(f"violates {violated}")):
            build_scheme(ChannelParams(2, 1, 3, 0), bad)
        # On every table the message names the first violated row in its API form.
        for regime, p, values, k in [
            (Regime.A, ChannelParams(2, 1, 3, 0), {"Rc1": 5}, 0),
            (Regime.B, ChannelParams(1, 2, 3, 0), {"Rbar1d": 2}, 1),
            (Regime.C, NETGAIN, {"R2f": 2}, 3),
            (Regime.D, ChannelParams(2, 3, 1, 1), {"R2f": 2}, 4),
        ]:
            bad = RateAllocation.of(regime, values)
            with pytest.raises(SchemeError) as info:
                build_scheme(p, bad)
            assert str(info.value) == f"allocation {bad.as_dict()} violates {constraint_system(regime, p).ineqs[k]}"

    def test_partial_allocation_reads_missing_variables_as_zero(self):
        alloc = RateAllocation.of(Regime.A, {"Rc1": 1})
        scheme = build_scheme(ChannelParams(2, 1, 3, 0), alloc)
        assert scheme.rates == alloc.rate_pair() == (1, 1)
        _, report = run(scheme, n_blocks=8, seed=1)
        assert not report.errors

    @pytest.mark.parametrize("values, name", [
        ({"Rc1": 1, "Rc3": 7}, "Rc3"), ({"Rc1": -1}, "Rc1"), ({"R1d": 0.5}, "R1d"), ({"Rc1": True}, "Rc1"),
    ])
    def test_foreign_negative_or_fractional_allocation_value_rejected(self, values, name):
        with pytest.raises(ValueError) as info:
            RateAllocation.of(Regime.A, values)
        assert str(info.value) == f"{name} = {values[name]} is not a non-negative integer value of a regime A variable"

    def test_an_allocation_is_its_vector(self):
        assert [f.name for f in dataclasses.fields(RateAllocation)] == ["regime", "xs"]
        assert [f.name for f in dataclasses.fields(schemes.Scheme)] == [
            "params", "alloc", "stream_lengths", "sums", "transmit", "decode_plans", "delta"]
        assert RateAllocation.of(Regime.A, {"Rc1": 1}) == RateAllocation(Regime.A, (0, 0, 0, 1))
        allocations = 0
        for tup in product(range(4), repeat=4):
            p = ChannelParams(*tup)
            for point in integer_points(achievable_region(p)):
                a = allocate(p, point)
                assert RateAllocation.of(a.regime, a.as_dict()) == a, (tup, point)
                assert a.values == tuple(sorted(zip(constraint_system(a.regime, p).vars, a.xs))), (tup, point)
                assert a.rate_pair() == point, (tup, point)
                allocations += 1
        assert allocations > 1000

    def test_every_empty_signal_shares_one_plan_per_q(self):
        shared, empty = {}, 0
        for p, scheme in sample_schemes():
            assert tuple(scheme.transmit) == ("x1", "x2", "xr", "xf")
            for key, plan in scheme.transmit.items():
                if not plan.layout.slots:
                    assert plan == TransmitPlan(SignalLayout(p.q, ()), ()), (p, key)
                    assert shared.setdefault(p.q, plan) is plan, (p, key)
                    empty += 1
        assert (empty, sorted(shared)) == (1722, [1, 2, 3])

    def test_builder_tx_xors_existing_streams_and_rejects_a_moved_slot(self):
        alloc = RateAllocation.of(Regime.A, {})
        b = schemes._Builder(ChannelParams(2, 1, 3, 0), alloc)
        b.pair("c", 1)
        b.tx("x1", "c1", 0, 1, "c1", 0)
        b.tx("x1", "c1", 0, 1, "c2", 0)
        b.tx("x1", "c1", 0, 1, "d1", 0)
        assert b.bindings["x1"] == [("c1", "c1", 0, 0), ("c1", "c2", 0, 0)]
        with pytest.raises(SchemeError, match="slot c1 of x1 redeclared"):
            b.tx("x1", "c1", 1, 1, "c1", 0)

    def test_builder_read_of_a_slot_straddling_the_noise_floor_raises(self):
        # At (2, 1, 3, 0) the relay hears only x1's top level: levels [0, 2) straddle its noise floor.
        alloc = RateAllocation.of(Regime.A, {})
        p = ChannelParams(2, 1, 3, 0)
        b = schemes._Builder(p, alloc)
        b.pair("c", 2)
        b.tx("x1", "c1", 0, 2, "c1", 0)
        with pytest.raises(SchemeError) as info:
            b.read(0, "x1", "c1", "csum", 0)
        assert str(info.value) == "slot c1 only partially visible at node 0 (gain 1); a read would be ambiguous"
        assert b.plans[0] == []

    def test_layouts_fit_inside_q_and_relay_extents(self):
        # Every feasible allocation on [0,3]^4, not only the lexmin corners: build_scheme does not
        # check the relay extents, as the rows it checks imply them.
        for tup in product(range(4), repeat=4):
            p = ChannelParams(*tup)
            q = p.q
            for regime in applicable_regimes(p):
                for alloc in feasible_allocations(regime, p):
                    scheme = build_scheme(p, alloc)
                    for key, plan in scheme.transmit.items():
                        assert plan.layout.q == q
                        for slot in plan.layout.slots:
                            assert 0 <= slot.start and slot.stop <= q
                    assert occupied_extent(scheme.transmit["xr"].layout) <= p.nr, (tup, alloc.xs)
                    assert occupied_extent(scheme.transmit["xf"].layout) <= p.nf, (tup, alloc.xs)

    def test_source_one_never_occupies_partner_d_levels(self):
        # The zero-padded composite convention: x1 carries no slot named d2
        # and x2 none named d1.
        for _, scheme in sample_schemes(2):
            assert "d2" not in scheme.transmit["x1"].layout.names()
            assert "d1" not in scheme.transmit["x2"].layout.names()

    def test_delta_matches_feedback_usage(self):
        for _, scheme in sample_schemes(2):
            assert scheme.delta == (2 if scheme.feedback_levels > 0 else 1)

    def test_causality_of_plans(self):
        # Encoders and forward decoders only look backward; destinations may
        # subtract blocks learned at later uses but read only current ones.
        for _, scheme in sample_schemes(2):
            for plan in scheme.transmit.values():
                assert all(b.offset <= 0 for b in plan.bindings)
            for node in (0, 1, 2):
                for step in scheme.decode_plans[node]:
                    assert step.offset <= 0
            for node in (3, 4):
                for step in scheme.decode_plans[node]:
                    if isinstance(step, Subtract):
                        assert step.offset >= 0
                    else:
                        assert step.offset <= 0

    def test_encoder_memory_span_at_most_two_uses(self):
        for _, scheme in sample_schemes(2):
            assert all(-b.offset <= 2 for plan in scheme.transmit.values() for b in plan.bindings)

    def test_rates_match_allocation(self):
        for tup in product(range(5), repeat=4):
            p = ChannelParams(*tup)
            for corner in integer_corners(p):
                alloc = allocate(p, corner)
                assert build_scheme(p, alloc).rates == alloc.rate_pair() == corner, (tup, corner)

    def test_json_dump_is_stable_and_complete(self):
        scheme = build_scheme(SHOWCASE, allocate(SHOWCASE, (2, 1)))
        payload = scheme.to_jsonable()
        text = json.dumps(payload, sort_keys=True)
        assert json.dumps(scheme.to_jsonable(), sort_keys=True) == text
        assert set(payload["layouts"]) == {"x1", "x2", "xr", "xf"}
        assert payload["regime"] == "D"
        assert payload["rates"] == [2, 1]
        assert payload["feedback_levels"] == 1
        names1 = {s["name"] for s in payload["layouts"]["x1"]["slots"]}
        assert {"f1_slot", "nb1_present", "nb1_future"} <= names1

    def test_schemes_match_golden_and_every_allocation_is_zero_error(self):
        # One line per scheme: "nc,ns,nr,nf regime values digest", the values
        # in _SYSTEMS order and the digest the first 16 hex digits of the
        # sha256 of the sorted scheme JSON.  First the lexmin corners on
        # [0,4]^4, then every feasible allocation of every applicable regime
        # on [0,3]^4; each of the latter also runs error-free at N=8.  Every
        # allocation's feedback levels are its scheme's xf extent.
        def line(p, alloc, scheme):
            assert alloc.feedback_levels == occupied_extent(scheme.transmit["xf"].layout)
            text = json.dumps(scheme.to_jsonable(), sort_keys=True)
            return " ".join((
                ",".join(map(str, (p.nc, p.ns, p.nr, p.nf))),
                alloc.regime.value,
                ",".join(map(str, alloc.xs)),
                hashlib.sha256(text.encode()).hexdigest()[:16],
            ))

        lines = []
        for tup in product(range(5), repeat=4):
            p = ChannelParams(*tup)
            for corner in integer_corners(p):
                alloc = allocate(p, corner)
                lines.append(line(p, alloc, build_scheme(p, alloc)))
        for tup in product(range(4), repeat=4):
            p = ChannelParams(*tup)
            for regime in applicable_regimes(p):
                for alloc in feasible_allocations(regime, p):
                    scheme = build_scheme(p, alloc)
                    lines.append(line(p, alloc, scheme))
                    _, report = run(scheme, n_blocks=8, seed=1)
                    assert not report.errors, lines[-1]
                    assert report.delivered_bits == (8 * scheme.rates[0], 8 * scheme.rates[1]), lines[-1]
        assert lines == SCHEMES_GOLDEN.read_text().splitlines()


def feasible_allocations(regime, p):
    """Every feasible integer allocation of ``regime`` at ``p``, lexicographically in _SYSTEMS order.

    A walk over the rows' slacks: every row coefficient is non-negative, so
    each variable ranges up to the least slack its rows have left.
    """
    vars, rows, _, _ = schemes._SYSTEMS[regime]
    columns = list(zip(*rows))

    def walk(i, slacks):
        if i == len(vars):
            yield ()
            return
        column = columns[i]
        for v in range(min(s // c for s, c in zip(slacks, column) if c) + 1):
            for rest in walk(i + 1, [s - v * c for s, c in zip(slacks, column)]):
                yield (v, *rest)

    for xs in walk(0, schemes._bounds(regime, p)):
        yield RateAllocation(regime, xs)


def frontier_failures(max_level):
    """Check the feedback frontier on [0, max_level]^4: (allocations walked, failures).

    No regime condition and no row but those bounded by nf involves nf, so an
    allocation occupies at most u feedback levels exactly when it is feasible
    at ``p.with_nf(u)``.  By Theorem 2 the best R1 + R2 of a feasible integer
    allocation with ``feedback_levels <= u`` is then the sum capacity at
    ``p.with_nf(u)``, for every applicable regime and every u in 0..nf.  At a
    tuple where feedback adds sum capacity, ``allocate`` at the least u that
    reaches it, at the sum-capacity corner with the largest R1, gives an
    allocation that occupies at most u levels and builds and runs zero-error
    at ``p``.  A failure is ``(levels, regime, frontier, sum capacities)`` or
    ``(levels, u, allocation, run errors)``.
    """
    allocations = 0
    failures = []
    for levels in product(range(max_level + 1), repeat=4):
        p = ChannelParams(*levels)
        caps = [sum_capacity(outer_bound_region(p.with_nf(u))) for u in range(p.nf + 1)]
        for regime in applicable_regimes(p):
            best = [-1] * (p.nf + 1)  # best R1 + R2 at exactly u levels
            for alloc in feasible_allocations(regime, p):
                u = alloc.feedback_levels
                best[u] = max(best[u], sum(alloc.rate_pair()))
                allocations += 1
            frontier = list(accumulate(best, max))
            if frontier != caps:
                failures.append((levels, regime, frontier, caps))
        if caps[-1] == caps[0]:
            continue
        u = caps.index(caps[-1])
        least = p.with_nf(u)
        alloc = allocate(least, max(integer_corners(least), key=lambda c: (c[0] + c[1], c)))
        _, report = run(build_scheme(p, alloc), n_blocks=8)
        if alloc.feedback_levels > u or sum(alloc.rate_pair()) != caps[-1] or report.errors:
            failures.append((levels, u, alloc.as_dict(), report.errors))
    return allocations, failures


class TestFeedbackFrontier:
    def test_least_feedback_is_the_sum_capacity_at_a_smaller_nf(self):
        assert frontier_failures(4) == (8461, [])


def reference_allocate(p, target):
    """The depth-first search ``allocate`` ran before back-substitution, as a reference.

    Lexicographically smallest integer allocation in the regime's variable
    order reaching ``target``, or None.
    """
    t1, t2 = target
    regime = regime_of(p)
    vars, rows, _, _ = schemes._SYSTEMS[regime]
    bounds = schemes._bounds(regime, p)
    r1_def, r2_def = rate_definitions(regime)
    n = len(vars)
    columns = list(zip(*rows))
    a1s = [r1_def.get(v, 0) for v in vars]
    a2s = [r2_def.get(v, 0) for v in vars]
    caps = [min([max(t1, t2)] + [b // c for c, b in zip(column, bounds) if c > 0]) for column in columns]
    rest1, rest2 = [0] * n, [0] * n
    for i in range(n - 1, 0, -1):
        rest1[i - 1] = rest1[i] + a1s[i] * caps[i]
        rest2[i - 1] = rest2[i] + a2s[i] * caps[i]
    values = [0] * n

    def walk(i, slacks, r1, r2):
        if i == n:
            return r1 == t1 and r2 == t2
        for val in range(caps[i] + 1):
            nr1, nr2 = r1 + a1s[i] * val, r2 + a2s[i] * val
            if nr1 > t1 or nr2 > t2:
                break
            new = [s - val * c for s, c in zip(slacks, columns[i])]
            if min(new) < 0:
                break
            if nr1 + rest1[i] < t1 or nr2 + rest2[i] < t2:
                continue
            values[i] = val
            if walk(i + 1, new, nr1, nr2):
                return True
        return False

    return dict(zip(vars, values)) if walk(0, bounds, 0, 0) else None


class TestRegimeTables:
    def test_projection_matches_project_to_rates(self):
        systems = 0
        for tup in product(range(7), repeat=4):
            p = ChannelParams(*tup)
            for regime in applicable_regimes(p):
                defs = rate_definitions(regime)
                outcomes = []
                for project in (lambda: projected_region(regime, p),
                                lambda: project_to_rates(constraint_system(regime, p), *defs)):
                    try:
                        outcomes.append(project().halfspaces)
                    except InfeasibleSystemError:
                        outcomes.append("infeasible")
                assert outcomes[0] == outcomes[1], (tup, regime)
                systems += 1
        assert systems == 2597

    def test_matches_depth_first_search_on_every_region_point(self):
        points = 0
        for tup in product(range(6), repeat=4):
            p = ChannelParams(*tup)
            for point in integer_points(achievable_region(p)):
                assert allocate(p, point).as_dict() == reference_allocate(p, point), (tup, point)
                points += 1
        assert points > 10000

    @pytest.mark.parametrize("family", [
        lambda k: (2 * k, k, 3 * k, 0),
        lambda k: (k, 2 * k, 3 * k, 0),
        lambda k: (6 * k, 3 * k, k, k),
        lambda k: (2 * k, 3 * k, k, k),
    ])
    def test_matches_depth_first_search_on_scaled_families(self, family):
        for k in range(1, 13):
            p = ChannelParams(*family(k))
            for corner in integer_corners(p):
                assert allocate(p, corner).as_dict() == reference_allocate(p, corner), (k, corner)

    def test_all_corners_of_a_large_tuple_within_budget(self):
        # The depth-first search took about 5.8 s here.
        p = ChannelParams(60, 90, 30, 30)
        corners = integer_corners(p)
        t0 = time.perf_counter()
        allocs = [allocate(p, corner) for corner in corners]
        assert time.perf_counter() - t0 < 0.1
        assert [a.rate_pair() for a in allocs] == corners

    def test_empty_interval_raises_scheme_error_naming_the_variable(self, monkeypatch):
        # A stand-in chain for regime A: 2*R2d = 2*R1d + nc has no integer solution
        # at odd nc, so R1d = 0 leaves R2d in [1/2, 1/2].
        rows = [((-2, 2, 0, 0), (1, 0, 0, 0, 0, 0)), ((2, -2, 0, 0), (-1, 0, 0, 0, 0, 0))]
        monkeypatch.setitem(schemes._CHAINS, Regime.A, lexmin_chain(schemes._SYSTEMS[Regime.A][0], rows))
        with pytest.raises(SchemeError, match="no integer value of R2d fits its interval"):
            allocate(ChannelParams(1, 1, 1, 0), (0, 0))

    def test_violated_halfspace_is_the_first_one_broken(self):
        for tup in product(range(4), repeat=4):
            p = ChannelParams(*tup)
            region = achievable_region(p)
            for t1, t2 in product(range(8), repeat=2):
                if region.contains((t1, t2)):
                    continue
                with pytest.raises(InfeasibleTargetError) as err:
                    allocate(p, (t1, t2))
                pt = RatePoint(Fraction(t1), Fraction(t2))
                h = next(h for h in region.halfspaces if not h.holds(pt))
                assert err.value.violated == h
                assert str(err.value) == (
                    f"target ({t1}, {t2}) is outside the achievable region for {p}"
                    f" (violates {h.a1}*R1 + {h.a2}*R2 <= {h.b})"
                )
