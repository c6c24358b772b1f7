import random
import re
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd

import pytest

from ldbfn import (
    ChannelParams,
    IneqSystem,
    InfeasibleSystemError,
    LinearIneq,
    Regime,
    SystemParseError,
    applicable_regimes,
    constraint_system,
    enumerate_integer_projection,
    integer_points,
    parse_system,
    project_to_rates,
    rate_definitions,
    regions_equal,
)
from ldbfn import fm
from ldbfn.fm import EmptyIntervalError, EnumerationLimitError
from ldbfn.regions import Halfspace, RateRegion, canonicalize, hs


def ineq(coeffs, bound):
    return LinearIneq.of(coeffs, bound)


def eliminate_all(system):
    """The conditions left once all of ``system``'s variables are eliminated."""
    return fm.lexmin_chain(system.vars, fm._to_rows(system.vars, system.ineqs)).conditions


class TestEliminate:
    def test_absent_variable_passthrough(self):
        # y is in no inequality and no definition, so eliminating it changes nothing.
        system = IneqSystem(("x", "y"), (ineq({"x": 1}, 3),))
        alone = IneqSystem(("x",), system.ineqs)
        assert project_to_rates(system, {"x": 1}, {"x": 1}) == project_to_rates(alone, {"x": 1}, {"x": 1})

    def test_pairs_with_nonnegativity(self):
        # x + y <= 3 only bounds x once paired with -y <= 0.
        system = IneqSystem(("x", "y"), (ineq({"x": 1, "y": 1}, 3),))
        region = project_to_rates(system, {"x": 1}, {})
        assert regions_equal(region, RateRegion((hs(1, 0, 3), hs(0, 1, 0))))

    def test_never_reintroduces_variable(self):
        # Column k's lower-bound rows read only the parameters and the columns fixed before it.
        rows = [((1, 2, 1), (5,)), ((0, 1, 3), (4,)), ((1, 1, 1), (2,)), ((-1, -1, -1), (-2,))]
        chain = fm.lexmin_chain(("x", "y", "z"), rows)
        assert all(len(vec) == 1 + k for k, lows in enumerate(chain.lower) for _, vec in lows)
        assert any(chain.lower)

    def test_full_elimination_of_feasible_system_is_silent(self):
        # Every condition 0 <= b left holds.
        conditions = eliminate_all(constraint_system(Regime.A, ChannelParams(2, 1, 3, 0)))
        assert conditions and all(b >= 0 for (b,) in conditions)

    def test_full_elimination_detects_infeasibility(self):
        system = IneqSystem(("x",), (ineq({"x": 1}, 2), ineq({"x": -1}, -3)))
        assert any(b < 0 for (b,) in eliminate_all(system))
        with pytest.raises(InfeasibleSystemError):
            project_to_rates(system, {"x": 1}, {"x": 1})

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValueError):
            project_to_rates(IneqSystem(("x",), (ineq({"x": 1}, 1),)), {"zz": 1}, {"x": 1})


class TestBoundForms:
    def test_parametric_projection_evaluates_to_concrete(self):
        # x + y <= a, x <= b: one elimination with forms over (a, b) serves every (a, b).
        rows = fm.with_rates([((1, 1), (1, 0)), ((1, 0), (0, 1))], (1, 0), (0, 1), width=2)
        conditions = fm.lexmin_chain(("x", "y"), rows).conditions
        assert all(len(form) == 4 for form in conditions)
        for a, b in product(range(4), repeat=2):
            system = IneqSystem(("x", "y"), (ineq({"x": 1, "y": 1}, a), ineq({"x": 1}, b)))
            expected = project_to_rates(system, {"x": 1}, {"y": 1})
            assert fm.evaluate_projection(conditions, (a, b)) == expected

    def test_negative_condition_raises(self):
        # x <= a and -x <= -b leave the condition 0 <= a - b.
        rows = fm.with_rates([((1,), (1, 0)), ((-1,), (0, -1))], (1,), (1,), width=2)
        conditions = fm.lexmin_chain(("x",), rows).conditions
        assert (1, -1, 0, 0) in conditions
        assert fm.evaluate_projection(conditions, (2, 1)).contains((1, 1))
        with pytest.raises(InfeasibleSystemError):
            fm.evaluate_projection(conditions, (1, 2))


def brute_lexmin(rows, box, params):
    """Lexicographically smallest integer point of the box satisfying every row, or None."""
    for point in product(range(box + 1), repeat=len(rows[0][0])):
        if all(sum(c * x for c, x in zip(coeffs, point)) <= sum(f * v for f, v in zip(form, params))
               for coeffs, form in rows):
            return list(point)
    return None


def reference_lexmin(chain, params):
    """``integer_lexmin`` by the chain's table, one dot product per row: back-substitute, then check."""
    point = list(params)
    for lows in chain.lower:
        point.append(max([0] + [-(sum(a * b for a, b in zip(vec, point)) // m) for m, vec in lows]))
    for vec in chain.checks:
        if sum(a * b for a, b in zip(vec, point)) < 0:
            columns = [i for i, c in enumerate(vec[len(params):]) if c]
            if not columns:
                raise InfeasibleSystemError("system is infeasible")
            raise EmptyIntervalError(f"no integer value of {chain.names[columns[-1]]} fits its interval")
    return point[len(params):]


def outcome(lexmin, chain, params):
    """The values ``lexmin`` returns, or the type and text of the error it raises."""
    try:
        return lexmin(chain, params)
    except (EmptyIntervalError, InfeasibleSystemError) as e:
        return type(e), str(e)


def random_rows(rng, n, width):
    """Rows over ``n`` variables with bound forms over ``width`` parameters, some without a variable."""
    rows = []
    for _ in range(rng.randint(0, 5)):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(n)) if rng.random() < 0.9 else (0,) * n
        rows.append((coeffs, tuple(rng.randint(-2, 3) for _ in range(width))))
    return rows


class TestLexmin:
    def test_kernel_matches_the_reference_back_substitution(self):
        rng = random.Random(27)
        outcomes = set()
        for _ in range(400):
            n, width = rng.randint(1, 4), rng.randint(1, 3)
            chain = fm.lexmin_chain(tuple(f"v{i}" for i in range(n)), random_rows(rng, n, width))
            for _ in range(4):
                params = tuple(rng.randint(-3, 4) for _ in range(width))
                want = outcome(reference_lexmin, chain, params)
                assert outcome(fm.integer_lexmin, chain, params) == want, (chain, params)
                outcomes.add(want[0] if type(want) is tuple else list)
        assert outcomes == {list, EmptyIntervalError, InfeasibleSystemError}

    def test_names_never_reach_the_kernel_source(self):
        # The same table under hostile names: the same values, and an error naming the column.
        names = ("x; import os", "__import__('os').system('false')", "y\n    return [0]")
        rows = [((1, 1, 1), (4, 0)), ((-1, 0, -2), (-1, -1)), ((0, 2, -2), (0, 1)), ((0, -2, 2), (0, -1))]
        chain = fm.lexmin_chain(names, rows)
        source = fm.kernel_source(chain)
        assert not any(name in source for name in names) and "import" not in source
        assert source == fm.kernel_source(fm.lexmin_chain(("a", "b", "c"), rows))
        # 2*(y - z) = p1 holds at p1 = 0 and has no integer solution at p1 = 1.
        assert fm.integer_lexmin(chain, (1, 0)) == reference_lexmin(chain, (1, 0)) == [0, 1, 1]
        with pytest.raises(EmptyIntervalError, match=f"^no integer value of {re.escape(names[2])} fits its interval$"):
            fm.integer_lexmin(chain, (1, 1))

    def test_kernel_is_compiled_once_per_chain(self):
        chain = fm.lexmin_chain(("x",), [((-2,), (-1,)), ((1,), (3,))])
        kernel = chain.kernel
        assert fm.integer_lexmin(chain, (1,)) == [1] and chain.kernel is kernel
        other = fm.lexmin_chain(("x",), [((-3,), (-1,)), ((1,), (3,))])
        assert other.kernel is not kernel and fm.integer_lexmin(other, (1,)) == [1]

    def test_check_row_without_a_variable_is_infeasible(self):
        # 0 <= -1 fails at every value of x; no column is there to name.
        chain = fm.lexmin_chain(("x",), [((0,), (-1,)), ((1,), (3,))])
        with pytest.raises(InfeasibleSystemError, match="^system is infeasible$"):
            fm.integer_lexmin(chain, (1,))

    def test_empty_interval_names_the_variable(self):
        # 2y = 2x + 1 has rational but no integer solutions: x = 0 leaves y in [1/2, 1/2].
        rows = [((-2, 2), (1,)), ((2, -2), (-1,))]
        chain = fm.lexmin_chain(("x", "y"), rows)
        with pytest.raises(EmptyIntervalError, match="no integer value of y fits its interval"):
            fm.integer_lexmin(chain, (1,))

    def test_rounds_a_fractional_lower_bound_up(self):
        # 2x >= 1, x <= 3: the bound 1/2 rounds up to 1.
        chain = fm.lexmin_chain(("x",), [((-2,), (-1,)), ((1,), (3,))])
        assert fm.integer_lexmin(chain, (1,)) == [1]

    def test_matches_brute_force_on_random_systems(self):
        rng = random.Random(8)
        solved = stranded = 0
        for _ in range(300):
            n, box = rng.randint(1, 3), 4
            rows = [(tuple(int(i == j) for j in range(n)), (box,)) for i in range(n)]
            for _ in range(rng.randint(1, 3)):
                coeffs = tuple(rng.randint(-2, 3) for _ in range(n))
                if any(coeffs):
                    b = rng.randint(-2, 6)
                    rows.append((coeffs, (b,)))
                    if rng.random() < 0.4:  # an equality
                        rows.append((tuple(-c for c in coeffs), (-b,)))
            expected = brute_lexmin(rows, box, (1,))
            try:
                got = fm.integer_lexmin(fm.lexmin_chain(tuple("xyz"[:n]), rows), (1,))
            except EmptyIntervalError:
                got = None
            if got is not None or expected is None:
                assert got == expected, rows
                solved += expected is not None
            else:
                # Rounding may strand a later variable even where integer points
                # exist (3x + y + 2z = 1 fixes x = y = 0); it is reported, not hidden.
                stranded += 1
        assert solved >= 100 and 1 <= stranded <= 10, (solved, stranded)


class TestLinearIneq:
    @pytest.mark.parametrize("coeffs, bound", [
        ({"x": Fraction(1, 2)}, 1),
        ({"x": 1}, Fraction(3, 2)),
        ({"x": 1.0}, 1),
    ])
    def test_non_integer_rejected(self, coeffs, bound):
        with pytest.raises(ValueError):
            LinearIneq.of(coeffs, bound)

    def test_all_zero_coefficients_rejected(self):
        with pytest.raises(ValueError, match="^inequality needs at least one nonzero coefficient$"):
            LinearIneq.of({"x": 0}, 1)

    @pytest.mark.parametrize("vars, message", [
        (("x", "x", "y"), "duplicate variable names"),
        (("x",), "inequality references undeclared vars ['y']"),
    ])
    def test_system_with_inconsistent_variables_rejected(self, vars, message):
        with pytest.raises(ValueError) as exc:
            IneqSystem(vars, (ineq({"x": 1, "y": 1}, 1),))
        assert str(exc.value) == message


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

    # Degenerate inputs pinned to their rows, vertices and rays; an infeasible pair is pinned by
    # test_full_elimination_detects_infeasibility.
    @pytest.mark.parametrize("system, r1_def, r2_def, rows, vertices, rays", [
        pytest.param(IneqSystem((), ()), {}, {}, ((0, 1, 0), (1, 0, 0)), ((0, 0, 1),), (), id="no-variables"),
        pytest.param(IneqSystem(("x", "y"), ()), {"x": 1}, {"y": 1}, (), ((0, 0, 1),), ((1, 0), (0, 1)),
                     id="no-inequalities"),
        pytest.param(IneqSystem(("x", "y"), (ineq({"x": 1, "y": 1}, 3),)), {}, {}, ((0, 1, 0), (1, 0, 0)),
                     ((0, 0, 1),), (), id="zero-rate-definitions"),
        pytest.param(IneqSystem(("x", "y"), (ineq({"x": 1, "y": -2}, 1), ineq({"y": 1}, 2))), {"x": 1}, {"y": 1},
                     ((0, 1, 2), (1, -2, 1)), ((0, 0, 1), (0, 2, 1), (1, 0, 1), (5, 2, 1)), (),
                     id="negative-coefficient"),
    ])
    def test_degenerate_systems(self, system, r1_def, r2_def, rows, vertices, rays):
        region = project_to_rates(system, r1_def, r2_def)
        assert (region.rows, region.vertices, region.rays) == (rows, vertices, rays)


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


def brute_force_projection(system, r1_def, r2_def, top):
    """The (R1, R2) pairs of every point of [0, top]^n that meets all of ``system``'s inequalities."""
    def value(d, point):
        return sum(d.get(v, 0) * x for v, x in zip(system.vars, point))

    return {
        (value(r1_def, point), value(r2_def, point))
        for point in product(range(top + 1), repeat=len(system.vars))
        if all(value(q.coeffs, point) <= q.bound for q in system.ineqs)
    }


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
                kinds["unbounded" if RateRegion(expected).rays else "bounded"] += 1
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

    def test_matches_brute_force_on_random_systems(self):
        # Negative coefficients included, so the walk's intervals must stay exact.
        for bound in (None, 0, 3, 5):
            rng = random.Random(5)
            for _ in range(300):
                system, r1_def, r2_def = random_system(rng)
                # The default is the largest inequality bound as written, before any gcd division.
                top = max([0] + [q.bound for q in system.ineqs]) if bound is None else bound
                expected = brute_force_projection(system, r1_def, r2_def, top)
                assert enumerate_integer_projection(system, r1_def, r2_def, bound=bound) == expected, (system, bound)

    def test_default_bound_is_the_largest_bound_as_written(self):
        # -2*z <= 6 caps nothing but sets the default bound to 6; divided by its gcd it would read 3.
        system = IneqSystem(("x", "z"), (ineq({"x": 1}, 1), ineq({"z": -2}, 6)))
        assert enumerate_integer_projection(system, {"z": 1}, {"x": 1}) == {
            (z, x) for z in range(7) for x in range(2)
        }

    def test_negative_bound_on_a_nonnegative_row_is_empty(self):
        # x + y <= -1 caps both variables at -1, so not even the origin is left.
        system = IneqSystem(("x", "y"), (ineq({"x": 1, "y": 1}, -1), ineq({"x": 1, "y": -1}, 2)))
        assert enumerate_integer_projection(system, {"x": 1}, {"y": 1}) == set()

    def test_variables_without_inequalities(self):
        system = IneqSystem(("x", "y"), ())
        assert enumerate_integer_projection(system, {"x": 1}, {"y": 2}) == {(0, 0)}
        assert enumerate_integer_projection(system, {"x": 1}, {"y": 2}, bound=2) == {
            (x, 2 * y) for x in range(3) for y in range(3)
        }

    def test_regime_systems_match_brute_force(self):
        for tup in product(range(3), repeat=4):
            p = ChannelParams(*tup)
            for regime in applicable_regimes(p):
                system = constraint_system(regime, p)
                top = max(q.bound for q in system.ineqs)
                expected = brute_force_projection(system, *rate_definitions(regime), top)
                assert enumerate_integer_projection(system, *rate_definitions(regime)) == expected, (tup, regime)

    def test_walk_order_puts_the_most_constrained_variable_first(self):
        # Positive-coefficient sums per variable: x 1, y 3, z 3, w 0; y and z tie, so index order y, z, x, w.
        table = fm.walk_table([(1, 2, 1, 0), (0, 1, 2, 0), (-4, 0, 0, 0)], (1, 0, 0, 1), (0, 1, 2, 3))
        assert table.columns == ((2, 1, 0), (1, 2, 0), (1, 0, -4), (0, 0, 0))
        assert table.rates == ((0, 1), (0, 2), (1, 0), (1, 3))
        assert table.capping == (((0, 2), (1, 1)), ((0, 1), (1, 2)), ((0, 1),), ())

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
