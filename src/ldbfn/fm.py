"""Exact Fourier-Motzkin elimination over named non-negative rate variables.

A system is a list of inequalities ``sum coeff*var <= bound`` over declared
variables, each implicitly >= 0.  Eliminating a variable pairs every
inequality with a positive coefficient on it against every one with a
negative coefficient (the implicit ``-var <= 0`` counts as negative), which
projects the polyhedron exactly.  Coefficients and bounds are integral by
construction (:class:`LinearIneq` accepts nothing else), so all arithmetic
is on ints and nothing is ever rounded.

Redundant rows are pruned by history (Chernikov's rule, as compared in
Imbert, "Fourier's elimination: which to choose?", PPCP 1993).  Each row
carries the set of original rows it is a non-negative combination of: the
system's inequalities, the rate definitions and each ``-var <= 0`` added
when ``var`` is eliminated.  After k eliminations a row whose history has
more than k + 1 members is implied by the others and is never formed.  No
other pruning happens between steps, since dropping a dominated row could
break that argument; the final 2-D :func:`canonicalize` removes what is
left over.

A brute-force companion, :func:`enumerate_integer_projection`, walks every
non-negative integer assignment and records the achieved rate pairs.  It is
intentionally independent of the elimination path and serves as its oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

from .regions import Halfspace, RateRegion, canonicalize

# A row is (coeffs, bound) with integer coeffs aligned to a var tuple.
Row = tuple[tuple[int, ...], int]
# During elimination a row also carries its history: a bitmask of the
# original rows it is a non-negative combination of.
HistRow = tuple[tuple[int, ...], int, int]

ENUMERATION_LIMIT = 10**8


class InfeasibleSystemError(Exception):
    """The inequality system admits no non-negative solution."""


class EnumerationLimitError(RuntimeError):
    """The integer enumeration would exceed the combination budget."""


class SystemParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
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
    return [_normalize(tuple(q.coeffs.get(v, 0) for v in vars), q.bound) for q in ineqs]


def _normalize(coeffs: tuple[int, ...], b: int) -> Row:
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    g = gcd(g, abs(b))
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        b //= g
    return (coeffs, b)


def _eliminate_rows(rows: list[HistRow], step: int, unit_bit: int) -> list[HistRow]:
    """The ``step``-th elimination (1-based): project out column 0, then drop it.

    Every row with a positive coefficient on the variable ``v`` is paired
    with every row with a negative one and with the implicit ``-v <= 0``,
    which joins the original rows here under ``unit_bit``.  A derived row
    whose history has more than ``step + 1`` bits is redundant (Chernikov's
    rule), so such pairs are never formed; rows merge only when coefficients,
    bound and history all agree.  Raises :class:`InfeasibleSystemError` on a
    derived ``0 <= negative``.
    """
    if not rows:
        return []
    unit = ((-1,) + (0,) * (len(rows[0][0]) - 1), 0, unit_bit)
    pos, neg, out = [], [unit], set()
    for row in rows:
        c = row[0][0]
        if c > 0:
            pos.append(row)
        elif c < 0:
            neg.append(row)
        else:
            out.add((row[0][1:], row[1], row[2]))
    for pc, pb, ph in pos:
        for nc, nb, nh in neg:
            h = ph | nh
            if h.bit_count() > step + 1:
                continue
            mp, mn = -nc[0], pc[0]
            coeffs = tuple(mp * a + mn * b for a, b in zip(pc[1:], nc[1:]))
            out.add(_normalize(coeffs, mp * pb + mn * nb) + (h,))
    kept = []
    for coeffs, b, h in sorted(out):
        if any(coeffs):
            kept.append((coeffs, b, h))
        elif b < 0:
            raise InfeasibleSystemError("system is infeasible")
    return kept


def _with_history(rows: list[Row]) -> list[HistRow]:
    """Tag each original row with its own history bit."""
    return [(coeffs, b, 1 << i) for i, (coeffs, b) in enumerate(rows)]


def eliminate(system: IneqSystem, var: str) -> IneqSystem:
    """One exact elimination step; the result never references ``var``."""
    if var not in system.vars:
        raise ValueError(f"variable {var!r} not declared in system")
    new_vars = tuple(v for v in system.vars if v != var)
    rows = _with_history(_to_rows((var,) + new_vars, system.ineqs))
    rows = _eliminate_rows(rows, 1, 1 << len(rows))
    unique = dict.fromkeys((coeffs, b) for coeffs, b, _ in rows)
    return IneqSystem(new_vars, tuple(LinearIneq.of(dict(zip(new_vars, c)), b) for c, b in unique))


def _check_defs(system: IneqSystem, name: str, d: Mapping[str, int]) -> None:
    for v, c in d.items():
        if v not in system.vars:
            raise ValueError(f"{name} references undeclared var {v!r}")
        if not isinstance(c, int) or c < 0:
            raise ValueError(f"{name} coefficient on {v!r} must be a non-negative integer")


def project_to_rates(
    system: IneqSystem,
    r1_def: Mapping[str, int],
    r2_def: Mapping[str, int],
) -> RateRegion:
    """Project onto (R1, R2) where R1/R2 are the given combinations of vars.

    The two rate definitions are adjoined as equalities (a pair of opposing
    inequalities each) and every component variable is eliminated in
    declaration order.  Raises :class:`InfeasibleSystemError` for systems
    with no solution, which is distinct from the degenerate region {(0,0)}.
    """
    _check_defs(system, "r1_def", r1_def)
    _check_defs(system, "r2_def", r2_def)
    vars = system.vars + ("R1", "R2")
    rows = _to_rows(vars, system.ineqs)
    for rate, d in (("R1", r1_def), ("R2", r2_def)):
        fwd = tuple(-1 if v == rate else d.get(v, 0) for v in vars)
        rows += [(fwd, 0), (tuple(-c for c in fwd), 0)]
    n_orig = len(rows)
    rows = _with_history(rows)
    for step in range(1, len(system.vars) + 1):
        rows = _eliminate_rows(rows, step, 1 << (n_orig + step - 1))

    # An infeasible system has already raised: the rows derived from its
    # inequalities alone are those of their own elimination, which ends in
    # 0 <= negative.  So the region here is never empty.
    halfspaces = tuple(Halfspace(Fraction(a1), Fraction(a2), Fraction(b)) for (a1, a2), b, _ in rows)
    return canonicalize(RateRegion(halfspaces))


def enumerate_integer_projection(
    system: IneqSystem,
    r1_def: Mapping[str, int],
    r2_def: Mapping[str, int],
    bound: int | None = None,
) -> set[tuple[int, int]]:
    """Ground-truth oracle: achieved integer (R1, R2) pairs by exhaustion.

    Walks every non-negative integer assignment with components up to
    ``bound`` (default: the largest inequality bound), keeps the ones
    satisfying every inequality and maps them through the rate definitions.
    Depth-first with exact slack pruning, so exactly the satisfying
    assignments are visited.
    """
    _check_defs(system, "r1_def", r1_def)
    _check_defs(system, "r2_def", r2_def)
    rows = _to_rows(system.vars, system.ineqs)
    if bound is None:
        bound = max((r[1] for r in rows), default=0)
        bound = max(bound, 0)
    nv = len(system.vars)

    caps = []
    for i in range(nv):
        cap = bound
        for coeffs, b in rows:
            c = coeffs[i]
            if c > 0 and all(x >= 0 for x in coeffs):
                cap = min(cap, b // c if b >= 0 else -1)
        caps.append(max(cap, -1))
    total = 1
    for cap in caps:
        total *= cap + 1
        if total > ENUMERATION_LIMIT:
            raise EnumerationLimitError(
                f"enumeration needs more than {ENUMERATION_LIMIT} combinations; "
                "use a smaller instance or bound"
            )

    r1c = [r1_def.get(v, 0) for v in system.vars]
    r2c = [r2_def.get(v, 0) for v in system.vars]
    achieved: set[tuple[int, int]] = set()

    def rest_min(i: int, coeffs: tuple[int, ...]) -> int:
        # Smallest possible remaining contribution to a row (negative coeffs
        # may still lower the sum, so pruning stays exact).
        return sum(c * caps[j] for j, c in enumerate(coeffs[i:], start=i) if c < 0)

    all_nonneg = all(c >= 0 for coeffs, _ in rows for c in coeffs)

    def walk(i: int, slacks: list[int], r1: int, r2: int) -> None:
        if i == nv:
            achieved.add((r1, r2))
            return
        for val in range(caps[i] + 1):
            new = [s - val * rows[k][0][i] for k, s in enumerate(slacks)]
            # A row is unsatisfiable iff even the smallest completion overshoots.
            if any(new[k] < rest_min(i + 1, rows[k][0]) for k in range(len(rows))):
                if all_nonneg:
                    break  # larger values only make it worse
                continue
            walk(i + 1, new, r1 + r1c[i] * val, r2 + r2c[i] * val)

    if all(b >= rest_min(0, coeffs) for (coeffs, b) in rows):
        walk(0, [b for _, b in rows], 0, 0)
    return achieved


_TERM = re.compile(r"^\s*(?:(\d+)\s*\*\s*)?([A-Za-z_][A-Za-z0-9_]*)\s*$")


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
    Bounds are integers (parameters already substituted).  Variables are
    collected in order of first appearance.
    """
    vars: list[str] = []
    ineqs: list[LinearIneq] = []
    defs: dict[str, dict[str, int]] = {}

    def note_vars(coeffs: Mapping[str, int]) -> None:
        for v in coeffs:
            if v not in vars:
                vars.append(v)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "<=" in line:
            lhs, _, rhs = line.partition("<=")
            coeffs = _parse_expr(lhs, line_no)
            if not any(coeffs.values()):
                raise SystemParseError(line_no, "inequality needs a nonzero coefficient on the left side")
            try:
                bound = int(rhs.strip())
            except ValueError:
                raise SystemParseError(line_no, f"bound {rhs.strip()!r} is not an integer")
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
            raise SystemParseError(0, f"missing definition for {name}")
    return IneqSystem(tuple(vars), tuple(ineqs)), defs["R1"], defs["R2"]
