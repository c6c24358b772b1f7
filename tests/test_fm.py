import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest

from ldbfn import (
    ChannelParams,
    IneqSystem,
    InfeasibleSystemError,
    LinearIneq,
    Regime,
    SystemParseError,
    constraint_system,
    eliminate,
    enumerate_integer_projection,
    integer_points,
    parse_system,
    project_to_rates,
    rate_definitions,
    regions_equal,
)
from ldbfn.fm import EnumerationLimitError
from ldbfn.regions import Halfspace, RateRegion, canonicalize, hs, is_bounded


def ineq(coeffs, bound):
    return LinearIneq.of(coeffs, bound)


class TestEliminate:
    def test_absent_variable_passthrough(self):
        system = IneqSystem(("x", "y"), (ineq({"x": 1}, 3),))
        out = eliminate(system, "y")
        assert out.vars == ("x",)
        assert out.ineqs == (ineq({"x": 1}, 3),)

    def test_pairs_with_nonnegativity(self):
        system = IneqSystem(("x", "y"), (ineq({"x": 1, "y": 1}, 3),))
        out = eliminate(system, "y")
        assert out.ineqs == (ineq({"x": 1}, 3),)

    def test_never_reintroduces_variable(self):
        system = IneqSystem(
            ("x", "y", "z"),
            (ineq({"x": 1, "y": 2, "z": 1}, 5), ineq({"y": 1, "z": 3}, 4)),
        )
        out = eliminate(system, "y")
        assert "y" not in out.vars
        assert all("y" not in q.coeffs for q in out.ineqs)

    def test_full_elimination_of_feasible_system_is_silent(self):
        system = constraint_system(Regime.A, ChannelParams(2, 1, 3, 0))
        for v in system.vars:
            system = eliminate(system, v)
        assert system.vars == ()
        assert system.ineqs == ()

    def test_full_elimination_detects_infeasibility(self):
        system = IneqSystem(("x",), (ineq({"x": 1}, 2), ineq({"x": -1}, -3)))
        with pytest.raises(InfeasibleSystemError):
            eliminate(system, "x")

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValueError):
            eliminate(IneqSystem(("x",), (ineq({"x": 1}, 1),)), "zz")


class TestLinearIneq:
    @pytest.mark.parametrize("coeffs, bound", [
        ({"x": Fraction(1, 2)}, 1),
        ({"x": 1}, Fraction(3, 2)),
        ({"x": 1.0}, 1),
    ])
    def test_non_integer_rejected(self, coeffs, bound):
        with pytest.raises(ValueError):
            LinearIneq.of(coeffs, bound)


class TestProjectToRates:
    def test_regime_a_formulas(self):
        nc, ns, nr = 2, 1, 3
        system = constraint_system(Regime.A, ChannelParams(nc, ns, nr, 0))
        region = project_to_rates(system, *rate_definitions(Regime.A))
        expected = RateRegion((hs(1, 0, ns), hs(0, 1, ns), hs(1, 1, nr)))
        assert regions_equal(region, expected)

    def test_regime_b_at_1_2_3(self):
        # Frozen from the enumeration oracle; equals the regime B closed form
        # min(ns + nc, nr + nc, nr + ns - nc) = min(3, 4, 4) = 3 for the sum.
        system = constraint_system(Regime.B, ChannelParams(1, 2, 3, 0))
        region = project_to_rates(system, *rate_definitions(Regime.B))
        assert {(int(h.a1), int(h.a2), int(h.b)) for h in region.halfspaces} == {
            (1, 0, 2), (0, 1, 2), (1, 1, 3),
        }
        oracle = enumerate_integer_projection(system, *rate_definitions(Regime.B))
        assert oracle == integer_points(region)

    def test_regime_c_net_gain_params(self):
        system = constraint_system(Regime.C, ChannelParams(6, 3, 1, 1))
        region = project_to_rates(system, *rate_definitions(Regime.C))
        assert {(int(h.a1), int(h.a2), int(h.b)) for h in region.halfspaces} == {
            (1, 0, 2), (0, 1, 2),
        }

    def test_single_variable_diagonal(self):
        system = IneqSystem(("x",), (ineq({"x": 1}, 2),))
        region = project_to_rates(system, {"x": 1}, {"x": 1})
        assert region.contains((2, 2)) and region.contains((1, 1))
        assert not region.contains((2, 1)) and not region.contains((1, 2))

    def test_infeasible_reported_distinctly(self):
        system = IneqSystem(("x",), (ineq({"x": 1}, -1),))
        with pytest.raises(InfeasibleSystemError):
            project_to_rates(system, {"x": 1}, {"x": 1})

    def test_negative_definition_coefficients_rejected(self):
        system = IneqSystem(("x",), (ineq({"x": 1}, 1),))
        with pytest.raises(ValueError):
            project_to_rates(system, {"x": -1}, {"x": 1})


def reference_projection(system, r1_def, r2_def):
    """Textbook FM onto (R1, R2): every pair is formed, only exact duplicates merge."""
    vars = system.vars + ("R1", "R2")
    rows = {(tuple(int(q.coeffs.get(v, 0)) for v in vars), int(q.bound)) for q in system.ineqs}
    for rate, d in (("R1", r1_def), ("R2", r2_def)):
        fwd = tuple(-1 if v == rate else d.get(v, 0) for v in vars)
        rows |= {(fwd, 0), (tuple(-c for c in fwd), 0)}
    rows |= {(tuple(-(j == i) for j in range(len(vars))), 0) for i in range(len(system.vars))}
    for i in range(len(system.vars)):
        pos = [r for r in rows if r[0][i] > 0]
        neg = [r for r in rows if r[0][i] < 0]
        rows = {r for r in rows if r[0][i] == 0}
        for (pc, pb), (nc, nb) in ((p, n) for p in pos for n in neg):
            mp, mn = -nc[i], pc[i]
            row = tuple(mp * a + mn * b for a, b in zip(pc, nc)) + (mp * pb + mn * nb,)
            g = reduce(gcd, row) or 1
            rows.add((tuple(x // g for x in row[:-1]), row[-1] // g))
    if any(not any(c) and b < 0 for c, b in rows):
        raise InfeasibleSystemError("0 <= negative")
    halfspaces = tuple(Halfspace(Fraction(c[-2]), Fraction(c[-1]), Fraction(b)) for c, b in rows if any(c))
    return canonicalize(RateRegion(halfspaces))


def projection_outcome(project, case):
    try:
        return project(*case).halfspaces
    except InfeasibleSystemError:
        return "infeasible"


def random_system(rng):
    """Up to 4 vars and 5 inequalities (3 with 4 vars); larger ones blow the reference up."""
    names = tuple(f"x{i}" for i in range(rng.randint(1, 4)))
    ineqs = []
    for _ in range(rng.randint(0, 5 if len(names) < 4 else 3)):
        coeffs = {v: rng.randint(-2, 3) for v in names if rng.random() < 0.7}
        if any(coeffs.values()):
            ineqs.append(ineq(coeffs, rng.randint(-3, 6)))
    r1_def, r2_def = ({v: rng.randint(0, 2) for v in names if rng.random() < 0.6} for _ in range(2))
    return IneqSystem(names, tuple(ineqs)), r1_def, r2_def


class TestHistoryPruning:
    def test_matches_unpruned_reference_on_random_systems(self):
        rng = random.Random(2026)
        kinds = {"bounded": 0, "unbounded": 0, "infeasible": 0}
        for _ in range(1000):
            case = random_system(rng)
            expected = projection_outcome(reference_projection, case)
            assert projection_outcome(project_to_rates, case) == expected, case
            if expected == "infeasible":
                kinds["infeasible"] += 1
            else:
                kinds["bounded" if is_bounded(RateRegion(expected)) else "unbounded"] += 1
        assert min(kinds.values()) >= 50, kinds


class TestEnumeration:
    def test_empty_system(self):
        system = IneqSystem((), ())
        assert enumerate_integer_projection(system, {}, {}) == {(0, 0)}

    def test_single_cap(self):
        system = IneqSystem(("x",), (ineq({"x": 1}, 1),))
        assert enumerate_integer_projection(system, {"x": 1}, {"x": 1}) == {(0, 0), (1, 1)}

    def test_regime_a_points_are_box(self):
        system = constraint_system(Regime.A, ChannelParams(2, 1, 3, 0))
        pts = enumerate_integer_projection(system, *rate_definitions(Regime.A))
        assert pts == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_combination_budget_guard(self):
        system = IneqSystem(tuple(f"x{i}" for i in range(12)), ())
        with pytest.raises(EnumerationLimitError):
            enumerate_integer_projection(system, {}, {}, bound=10)


FIXTURE = """
# comment line
Rc1 + Rc2 + R1d + R2d <= 1
Rc1 + 2*Rc2 + R1d + R2d <= 2
Rc1 <= 1
R1 = Rc1 + Rc2 + R1d
R2 = Rc1 + Rc2 + R2d
"""


class TestParse:
    def test_round_trip(self):
        system, r1_def, r2_def = parse_system(FIXTURE)
        assert system.vars == ("Rc1", "Rc2", "R1d", "R2d")
        assert len(system.ineqs) == 3
        assert r1_def == {"Rc1": 1, "Rc2": 1, "R1d": 1}
        region = project_to_rates(system, r1_def, r2_def)
        assert enumerate_integer_projection(system, r1_def, r2_def) == integer_points(region)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(SystemParseError) as err:
            parse_system("Rc1 + <= 2\nR1 = Rc1\nR2 = Rc1")
        assert "line 1" in str(err.value)

    def test_missing_rate_definition(self):
        with pytest.raises(SystemParseError):
            parse_system("x <= 1\nR1 = x")

    def test_zero_rate_definitions(self):
        system, r1_def, r2_def = parse_system("x <= 1\nR1 = 0\nR2 = 0")
        assert enumerate_integer_projection(system, r1_def, r2_def) == {(0, 0)}
