"""Exact Fourier-Motzkin elimination over named non-negative rate variables.

A system is a list of inequalities ``sum coeff*var <= bound`` over declared
variables, each implicitly >= 0.  Internal code passes them only as integer
rows ``(coeffs, form)`` aligned to a variable tuple, and R1, R2 as coefficient
rows; an :class:`IneqSystem` and the rate definitions taken at the API become
rows once, in :func:`_as_rows`.  Eliminating a variable pairs every
inequality with a positive coefficient on it against every one with a
negative coefficient (the implicit ``-var <= 0`` counts as negative), which
projects the polyhedron exactly.  Coefficients and bounds are integral by
construction (:class:`LinearIneq` accepts nothing else), so all arithmetic
is on ints and nothing is ever rounded.

Bounds are integer linear forms over some parameters (a concrete bound b is
the form (b,) over the value 1): which rows pair up depends on the
coefficients alone, so one elimination serves every value.  A derived row with
no coefficient left, ``0 <= form``, is a condition checked once the forms are
filled in.  To project onto (R1, R2) both become parameters: each condition
``0 <= form + c1*R1 + c2*R2`` is the row ``-c1*R1 - c2*R2 <= form``, or, if
c1 = c2 = 0, one of feasibility.  :func:`lexmin_chain` runs every elimination,
last variable first, and keeps every stage for FM back-substitution (Dantzig
and Eaves, JCT A 1973; Schrijver, *Theory of Linear and Integer Programming*,
12.2); :func:`project_to_rates` reads only its conditions.

Redundant rows are pruned by history (Chernikov's rule, as compared in
Imbert, "Fourier's elimination: which to choose?", PPCP 1993).  Each row
carries the set of original rows it is a non-negative combination of: the
system's inequalities, the rate definitions and each ``-var <= 0`` added
when ``var`` is eliminated.  After k eliminations a row whose history has
more than k + 1 members is implied by the others and is never formed.  No
other pruning happens between steps, since dropping a dominated row could
break that argument; the final 2-D :func:`canonical_region` removes what is
left over.

A brute-force companion, :func:`walk_points`, walks every non-negative
integer assignment and records the achieved rate pairs.  It is
intentionally independent of the elimination path and serves as its oracle.
What the walk needs of the coefficients alone, a :func:`walk_table`, is built
once per set of rows: the walk order, most constrained variable first (by
descending sum of positive coefficients, ties by index), and the rows'
columns in that order.  A walk then computes only what the bounds set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, prod
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .regions import RateRegion, canonical_region

Form = tuple[int, ...]  # a bound's coefficients over the parameters
Row = tuple[tuple[int, ...], Form]  # the one inequality form internal code passes
# During elimination a row also carries its history: a bitmask of the
# original rows it is a non-negative combination of.
HistRow = tuple[tuple[int, ...], Form, int]

ENUMERATION_LIMIT = 10**8


class InfeasibleSystemError(Exception):
    """The inequality system admits no non-negative solution."""


class EmptyIntervalError(ArithmeticError):
    """Back-substitution rounded a variable above the top of its interval."""


class EnumerationLimitError(RuntimeError):
    """The integer enumeration would exceed the combination budget."""


class Chain(NamedTuple):
    """FM back-substitution table (see :func:`lexmin_chain`)."""

    names: tuple[str, ...]
    lower: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    checks: tuple[tuple[int, ...], ...]
    conditions: tuple[Form, ...]


class SystemParseError(ValueError):
    """A fixture system that does not parse; ``line_no`` is None when no one line is at fault."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class LinearIneq:
    """sum(coeffs[v] * v) <= bound over ints; absent vars have coefficient 0."""

    coeffs: Mapping[str, int]
    bound: int

    def __post_init__(self) -> None:
        if not all(isinstance(x, int) for x in (*self.coeffs.values(), self.bound)):
            raise ValueError("inequality coefficients and bound must be integers")
        if not any(self.coeffs.values()):
            raise ValueError("inequality needs at least one nonzero coefficient")

    @classmethod
    def of(cls, coeffs: Mapping[str, int], bound: int) -> "LinearIneq":
        return cls({v: c for v, c in coeffs.items() if c != 0}, bound)


@dataclass(frozen=True)
class IneqSystem:
    vars: tuple[str, ...]
    ineqs: tuple[LinearIneq, ...]

    def __post_init__(self) -> None:
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names")
        declared = set(self.vars)
        for q in self.ineqs:
            undeclared = set(q.coeffs) - declared
            if undeclared:
                raise ValueError(f"inequality references undeclared vars {sorted(undeclared)}")


def _to_rows(vars: tuple[str, ...], ineqs: Iterable[LinearIneq]) -> list[Row]:
    return [_normalize([q.coeffs.get(v, 0) for v in vars] + [q.bound], len(vars)) for q in ineqs]


def _normalize(v: list[int], k: int) -> Row:
    """The row ``coeffs + form`` given flat, divided by its gcd and split after ``k`` coefficients."""
    g = gcd(*v)
    if g > 1:
        v = [x // g for x in v]
    return tuple(v[:k]), tuple(v[k:])


def _eliminate_rows(rows: list[HistRow], step: int, unit_bit: int, conditions: set[Form]) -> list[HistRow]:
    """The ``step``-th elimination (1-based): project out column 0, then drop it.

    Every row with a positive coefficient on the variable ``v`` is paired
    with every row with a negative one and with the implicit ``-v <= 0``,
    which joins the original rows here under ``unit_bit``.  A derived row
    whose history has more than ``step + 1`` bits is redundant (Chernikov's
    rule), so such pairs are never formed; rows merge only when coefficients,
    bound form and history all agree.  A derived ``0 <= form`` goes to
    ``conditions``.
    """
    if not rows:
        return []
    # Each side holds (|coefficient on v|, the other coefficients and the form as one vector, history).
    k = len(rows[0][0]) - 1
    pos, neg, out = [], [(1, (0,) * (k + len(rows[0][1])), unit_bit)], set()
    for coeffs, form, h in rows:
        c = coeffs[0]
        if c > 0:
            pos.append((c, coeffs[1:] + form, h))
        elif c < 0:
            neg.append((-c, coeffs[1:] + form, h))
        else:
            out.add((coeffs[1:], form, h))
    for mn, pv, ph in pos:
        for mp, nv, nh in neg:
            h = ph | nh
            if h.bit_count() <= step + 1:
                out.add(_normalize([mp * a + mn * b for a, b in zip(pv, nv)], k) + (h,))
    kept = []
    for coeffs, form, h in out:
        if any(coeffs):
            kept.append((coeffs, form, h))
        else:
            conditions.add(form)
    return kept


def _as_rows(system: IneqSystem, r1_def: Mapping[str, int], r2_def: Mapping[str, int]) -> tuple:
    """The system's rows and its R1, R2 definitions as coefficient rows, all aligned to ``system.vars``."""
    for name, d in (("r1_def", r1_def), ("r2_def", r2_def)):
        for v, c in d.items():
            if v not in system.vars:
                raise ValueError(f"{name} references undeclared var {v!r}")
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"{name} coefficient on {v!r} must be a non-negative integer")
    return _to_rows(system.vars, system.ineqs), *(tuple(d.get(v, 0) for v in system.vars) for d in (r1_def, r2_def))


def with_rates(rows: list[Row], r1: tuple[int, ...], r2: tuple[int, ...], width: int = 1) -> list[Row]:
    """``rows`` with R1, R2 as parameters after the ``width`` others; ``R = r . vars`` adds ``r <= R``, ``-r <= -R``."""
    out = [(coeffs, form + (0, 0)) for coeffs, form in rows]
    for unit, coeffs in (((1, 0), r1), ((0, 1), r2)):
        out += [(coeffs, (0,) * width + unit), (tuple(-c for c in coeffs), (0,) * width + (-unit[0], -unit[1]))]
    return out


def evaluate_projection(conditions: Iterable[Form], values: tuple[int, ...]) -> RateRegion:
    """The canonical region that conditions over (``values``, R1, R2) leave at ``values``; one
    without R1, R2 that fails raises :class:`InfeasibleSystemError`, else the region is non-empty."""
    rows = []
    for *form, c1, c2 in conditions:
        b = sum(map(mul, form, values))
        if c1 or c2:
            rows.append((-c1, -c2, b))
        elif b < 0:
            raise InfeasibleSystemError("system is infeasible")
    return canonical_region(rows)


def project_to_rates(system: IneqSystem, r1_def: Mapping[str, int], r2_def: Mapping[str, int]) -> RateRegion:
    """Project onto (R1, R2) where R1/R2 are the given combinations of vars.

    The projection is the conditions of the vars' :func:`lexmin_chain`, which eliminates them in
    reverse declaration order.  Raises :class:`InfeasibleSystemError` for systems with no solution,
    which is distinct from the degenerate region {(0,0)}.
    """
    rows = with_rates(*_as_rows(system, r1_def, r2_def))
    return evaluate_projection(lexmin_chain(system.vars, rows).conditions, (1,))


def lexmin_chain(names: tuple[str, ...], rows: list[Row]) -> Chain:
    """Back-substitution table of ``rows``, aligned to ``names`` in the order they are fixed.

    The columns are eliminated last to first.  Of column k's stage only its lower-bound rows are
    kept, ``-m*x_k + sum(a_j*x_j, j < k) <= form`` as ``(m, form + (-a_1, ..., -a_k-1))``; the
    original rows as ``form - coeffs``; and the conditions left, a projection if R1, R2 are parameters.
    """
    conditions = {form for coeffs, form in rows if not any(coeffs)}
    stages = [[(coeffs[::-1], form, 1 << i) for i, (coeffs, form) in enumerate(rows) if any(coeffs)]]
    for step in range(1, len(names) + 1):
        stages.append(_eliminate_rows(stages[-1], step, 1 << (len(rows) + step - 1), conditions))
    lower = tuple(tuple(sorted({(-c[0], form + tuple(-a for a in c[:0:-1])) for c, form, _ in stage if c[0] < 0}))
                  for stage in reversed(stages[:-1]))
    checks = tuple(form + tuple(-c for c in coeffs) for coeffs, form in rows)
    return Chain(names, lower, checks, tuple(sorted(conditions)))


def integer_lexmin(chain: Chain, params: tuple[int, ...]) -> list[int]:
    """The chain's integer lexicographic minimum at ``params``.

    Each column takes the ceiling of its lower bound at its stage (at least 0), which integer points
    agreeing on the earlier columns respect: a point passing the original rows is the minimum.  Else
    :class:`EmptyIntervalError` names the last column of a failing original row, its upper bound.
    """
    names, lower, checks, _ = chain
    point = list(params)
    for lows in lower:
        x = 0
        for m, vec in lows:
            lo = -(sum(map(mul, vec, point)) // m)
            if lo > x:
                x = lo
        point.append(x)
    for vec in checks:
        if sum(map(mul, vec, point)) < 0:
            last = max(i for i, c in enumerate(vec[len(params):]) if c)
            raise EmptyIntervalError(f"no integer value of {names[last]} fits its interval")
    return point[len(params):]


def enumerate_integer_projection(
    system: IneqSystem,
    r1_def: Mapping[str, int],
    r2_def: Mapping[str, int],
    bound: int | None = None,
) -> set[tuple[int, int]]:
    """Ground-truth oracle: the (R1, R2) pairs :func:`walk_points` finds, ``bound`` by default
    the largest inequality bound as written."""
    rows, r1, r2 = _as_rows(system, r1_def, r2_def)
    if bound is None:
        bound = max([0] + [q.bound for q in system.ineqs])
    return walk_points(walk_table([coeffs for coeffs, _ in rows], r1, r2), [b for _, (b,) in rows], bound)


class WalkTable(NamedTuple):
    """What the oracle walk needs of the coefficient rows alone, per walk position (see :func:`walk_table`)."""

    columns: tuple[tuple[int, ...], ...]  # the rows' coefficients on the variable walked there
    rates: tuple[tuple[int, int], ...]  # its R1 and R2 coefficients
    capping: tuple[tuple[tuple[int, int], ...], ...]  # (row, c) of each row without a negative coefficient, c > 0


def walk_table(coeffs: Sequence[tuple[int, ...]], r1: tuple[int, ...], r2: tuple[int, ...]) -> WalkTable:
    """The walk table of rows ``coeffs . x <= bound`` and R1 = r1 . x, R2 = r2 . x.

    The most constrained variable goes first: by descending sum of its positive
    coefficients, ties by index.  Its rows then cap the values early, and the
    point set does not depend on the order."""
    order = tuple(sorted(range(len(r1)), key=lambda i: -sum(row[i] for row in coeffs if row[i] > 0)))
    columns = tuple(tuple(row[i] for row in coeffs) for i in order)
    nonneg = [min(row, default=0) >= 0 for row in coeffs]
    return WalkTable(
        columns, tuple((r1[i], r2[i]) for i in order),
        tuple(tuple((k, c) for k, c in enumerate(column) if c > 0 and nonneg[k]) for column in columns),
    )


def walk_points(table: WalkTable, bounds: list[int], bound: int) -> set[tuple[int, int]]:
    """The (R1, R2) = (r1 . x, r2 . x) of every integer x in [0, bound]^n meeting the table's rows
    with these ``bounds``.

    Depth-first over one interval per variable: given the slacks the earlier
    values leave, the values of the next variable that keep every row
    completable form an interval, so exactly the satisfying assignments are
    visited."""
    columns, rates = table.columns, table.rates
    nv = len(columns)
    caps = [max(-1, min([bound, *(bounds[k] // c for k, c in capping)])) for capping in table.capping]
    if prod(cap + 1 for cap in caps) > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"enumeration needs more than {ENUMERATION_LIMIT} combinations; use a smaller instance or bound"
        )

    # terms[i]: (row, coefficient, rest) of each row that has the i-th variable, where rest is the
    # smallest contribution the later variables can make to the row: 0 unless a coefficient is
    # negative, which may still lower the sum, so pruning stays exact.  ``rest`` ends as each row's
    # rest before the first variable, which its bound must meet for any point to exist.
    terms, rest = [], [0] * len(bounds)
    for column, cap in zip(reversed(columns), reversed(caps)):
        terms.insert(0, tuple((k, c, rest[k]) for k, c in enumerate(column) if c))
        rest = [r + c * cap if c < 0 else r for r, c in zip(rest, column)]
    achieved: set[tuple[int, int]] = set()

    def walk(i: int, slacks: list[int], t1: int, t2: int) -> None:
        # Row k stays completable iff val * c <= slacks[k] - m, an upper end for val if c > 0 and a
        # lower one if c < 0.  A row without variable i needs nothing: its slack already met its
        # rest before i, which equals its rest after i.
        lo, hi = 0, caps[i]
        for k, c, m in terms[i]:
            if c > 0:
                if (slacks[k] - m) // c < hi:
                    hi = (slacks[k] - m) // c
            elif -((slacks[k] - m) // -c) > lo:
                lo = -((slacks[k] - m) // -c)
        a, b = rates[i]
        if i + 1 == nv:
            achieved.update([(t1 + a * val, t2 + b * val) for val in range(lo, hi + 1)])
            return
        column = columns[i]
        for val in range(lo, hi + 1):
            walk(i + 1, [s - val * c for s, c in zip(slacks, column)], t1 + a * val, t2 + b * val)

    if all(b >= m for b, m in zip(bounds, rest)):
        if nv:
            walk(0, bounds, 0, 0)
        else:
            achieved.add((0, 0))
    return achieved


_TERM = re.compile(r"^\s*(?:([0-9]+)\s*\*\s*)?([A-Za-z_][A-Za-z0-9_]*)\s*$")
_BOUND = re.compile(r"-?[0-9]+")


def _parse_expr(expr: str, line_no: int) -> dict[str, int]:
    coeffs: dict[str, int] = {}
    expr = expr.strip()
    if expr == "0" or expr == "":
        return coeffs
    for term in expr.split("+"):
        m = _TERM.match(term)
        if not m:
            raise SystemParseError(line_no, f"cannot parse term {term.strip()!r}")
        c = int(m.group(1)) if m.group(1) else 1
        v = m.group(2)
        coeffs[v] = coeffs.get(v, 0) + c
    return coeffs


def parse_system(text: str) -> tuple[IneqSystem, dict[str, int], dict[str, int]]:
    """Parse the fixture format: inequalities, R1/R2 definitions, # comments.

    Grammar, one statement per line:
        # comment
        2*Rc2 + Rc1 + R1d + R2d <= 4
        R1 = Rc1 + Rc2 + R1d
        R2 = Rc1 + Rc2 + R2d
    Coefficients are ASCII digits ``[0-9]+`` and bounds ``-?[0-9]+``
    (parameters already substituted).  Variables are collected in order of
    first appearance.
    """
    vars: list[str] = []
    ineqs: list[LinearIneq] = []
    defs: dict[str, dict[str, int]] = {}

    def note_vars(coeffs: Mapping[str, int]) -> None:
        for v in coeffs:
            if v not in vars:
                vars.append(v)

    for line_no, raw in enumerate(text.split("\n"), start=1):  # splitlines() also breaks at \f, \v, U+2028, ...
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "<=" in line:
            lhs, _, rhs = line.partition("<=")
            coeffs = _parse_expr(lhs, line_no)
            if not any(coeffs.values()):
                raise SystemParseError(line_no, "inequality needs a nonzero coefficient on the left side")
            if not _BOUND.fullmatch(rhs.strip()):
                raise SystemParseError(line_no, f"bound {rhs.strip()!r} is not an integer")
            bound = int(rhs)
            note_vars(coeffs)
            ineqs.append(LinearIneq.of(coeffs, bound))
        elif "=" in line:
            name, _, rhs = line.partition("=")
            name = name.strip()
            if name not in ("R1", "R2"):
                raise SystemParseError(line_no, f"only R1 and R2 may be defined, got {name!r}")
            if name in defs:
                raise SystemParseError(line_no, f"{name} defined twice")
            coeffs = _parse_expr(rhs, line_no)
            note_vars(coeffs)
            defs[name] = coeffs
        else:
            raise SystemParseError(line_no, f"unrecognized statement {line!r}")
    for name in ("R1", "R2"):
        if name not in defs:
            raise SystemParseError(None, f"missing definition for {name}")
    return IneqSystem(tuple(vars), tuple(ineqs)), defs["R1"], defs["R2"]
