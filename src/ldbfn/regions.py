"""Exact capacity-region algebra for the butterfly network with relay feedback.

A :class:`RateRegion` is the set of non-negative rate pairs (R1, R2)
satisfying a list of halfspaces ``a1*R1 + a2*R2 <= b``; the non-negativity
constraints are implicit.  ``fractions.Fraction`` appears only at the API
(the :class:`Halfspace` fields, :class:`RatePoint`, :meth:`RateRegion.contains`
and the JSON shapes).  Inside, each halfspace is a primitive integer row
``(a1, a2, b)`` and each vertex a projective integer triple ``(n1, n2, d)``
standing for ``(n1/d, n2/d)`` with ``d > 0``, so every comparison is an
exact integer cross-multiplication and equality of polytopes is decided,
never approximated.

The closed forms implemented here:

* the capacity outer bound
      R1, R2 <= min(ns, nr + nf, max(nc, nr))
      R1 + R2 <= max(nr, nc) + nc
      R1 + R2 <= max(nr, nc) + (ns - nc)^+
      R1 + R2 <= ns + nc

* the per-regime achievable regions
      regime A (ns <= nc <= nr):        R1, R2 <= ns;             sum <= nr
      regime B (nc <= min(ns, nr)):     R1, R2 <= min(ns, nr);
                sum <= min(ns + nc, nr + nc, nr + ns - nc)
      regime C (max(nr, ns) < nc):      R1, R2 <= min(ns, nr+nf); sum <= nc
      regime D (nr < nc <= ns):         R1, R2 <= min(nr+nf, nc); sum <= ns

The achievable region equals the outer bound for every parameter tuple; the
test suite verifies this exhaustively on a desk-scale lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .gf2 import ChannelParams

Row = tuple[int, int, int]  # a1*R1 + a2*R2 <= b, primitive integers
Vertex = tuple[int, int, int]  # (n1/d, n2/d), d > 0, gcd-reduced


class RegionError(ValueError):
    """A region operation received a structurally unusable region."""


class RatePoint(NamedTuple):
    r1: Fraction
    r2: Fraction


@dataclass(frozen=True, order=True)
class Halfspace:
    """The constraint a1*R1 + a2*R2 <= b with rational coefficients."""

    a1: Fraction
    a2: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        if self.a1 == 0 and self.a2 == 0:
            raise RegionError("halfspace needs a nonzero normal")

    def value(self, p: RatePoint) -> Fraction:
        return self.a1 * p.r1 + self.a2 * p.r2

    def holds(self, p: RatePoint) -> bool:
        return self.value(p) <= self.b


def hs(a1: int | Fraction, a2: int | Fraction, b: int | Fraction) -> Halfspace:
    return Halfspace(Fraction(a1), Fraction(a2), Fraction(b))


@dataclass(frozen=True)
class RateRegion:
    """Bounded 2-D polytope of achievable rate pairs in the first quadrant."""

    halfspaces: tuple[Halfspace, ...]

    def contains(self, p: RatePoint | tuple) -> bool:
        pt = RatePoint(Fraction(p[0]), Fraction(p[1]))
        if pt.r1 < 0 or pt.r2 < 0:
            return False
        return all(h.holds(pt) for h in self.halfspaces)


def _primitive(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Divide an integer triple by the gcd of its entries (not all zero)."""
    g = gcd(a, b, c)
    return (a // g, b // g, c // g) if g > 1 else (a, b, c)


def _int_row(h: Halfspace) -> Row:
    """h scaled by a positive rational to primitive integer coefficients."""
    a1, a2, b = h.a1, h.a2, h.b
    if a1.denominator == a2.denominator == b.denominator == 1:
        return _primitive(a1.numerator, a2.numerator, b.numerator)
    m = lcm(a1.denominator, a2.denominator, b.denominator)
    return _primitive(*(x.numerator * (m // x.denominator) for x in (a1, a2, b)))


def _rows(region: RateRegion) -> list[Row]:
    return [_int_row(h) for h in region.halfspaces]


def _region(rows) -> RateRegion:
    """Integer rows back to the public Fraction form, sorted by (a1, a2, b)."""
    return RateRegion(tuple(hs(*row) for row in sorted(rows)))


def _axis_implied(row: Row) -> bool:
    """True when the quadrant alone implies the row (a1 <= 0, a2 <= 0, b >= 0)."""
    return row[0] <= 0 and row[1] <= 0 and row[2] >= 0


def _vertex_triples(rows: list[Row]) -> set[Vertex]:
    """Feasible pairwise intersections of the rows and the two axes.

    In 2-D these are exactly the vertices.  Integer arithmetic throughout:
    den > 0 and feasibility is decided by cross-multiplication, so nothing
    is ever rounded.  The triples are gcd-reduced, so equal points give
    equal triples and the set depends on the point set alone.
    """
    rows = rows + [(-1, 0, 0), (0, -1, 0)]
    pts: set[Vertex] = set()
    n = len(rows)
    for i in range(n):
        a1, a2, b1 = rows[i]
        for j in range(i + 1, n):
            c1, c2, b2 = rows[j]
            det = a1 * c2 - a2 * c1
            if det == 0:
                continue
            num1 = b1 * c2 - a2 * b2
            num2 = a1 * b2 - b1 * c1
            if det < 0:
                det, num1, num2 = -det, -num1, -num2
            if any(r1 * num1 + r2 * num2 > rb * det for r1, r2, rb in rows):
                continue
            pts.add(_primitive(num1, num2, det))
    return pts


def _recession_rays(rows: list[Row]) -> list[tuple[int, int]]:
    """Quadrant directions along which the region is unbounded; empty if bounded.

    In 2-D each extreme ray of the recession cone is an axis direction or lies
    along some constraint's boundary, so the candidates found in the cone
    include both extreme rays.
    """
    rows = rows + [(-1, 0, 0), (0, -1, 0)]
    candidates = {(1, 0), (0, 1)}
    for a1, a2, _ in rows:
        for d in ((a2, -a1), (-a2, a1)):
            if d[0] >= 0 and d[1] >= 0 and (d[0] > 0 or d[1] > 0):
                candidates.add(d)
    return [d for d in candidates if all(a1 * d[0] + a2 * d[1] <= 0 for a1, a2, _ in rows)]


def _bounded_vertices(rows: list[Row]) -> set[Vertex]:
    """The vertex set of a bounded, non-empty region given by its rows."""
    if _recession_rays(rows):
        raise RegionError("corner enumeration needs a bounded region")
    verts = _vertex_triples(rows)
    if not verts:
        raise RegionError("region is empty")
    return verts


def _polygons(*regions: RateRegion) -> list[set[Vertex]]:
    """Vertex sets of bounded regions; an empty one is reported before an unbounded one."""
    rows = [_rows(r) for r in regions]
    verts = [_vertex_triples(r) for r in rows]
    if not all(verts):
        raise RegionError("region is empty")
    if any(_recession_rays(r) for r in rows):
        raise RegionError("corner enumeration needs a bounded region")
    return verts


def _implied(rows: list[Row], row: Row) -> bool:
    """True when the rows (a non-empty region) plus the quadrant imply ``row``."""
    a1, a2, b = row
    if any(a1 * d1 + a2 * d2 > 0 for d1, d2 in _recession_rays(rows)):
        return False
    return all(a1 * n1 + a2 * n2 <= b * d for n1, n2, d in _vertex_triples(rows))


def _sorted_by_r1_r2(verts) -> list[Vertex]:
    """Vertex triples sorted by (r1, r2), compared over a common denominator."""
    m = lcm(*(d for _, _, d in verts))
    return sorted(verts, key=lambda t: (t[0] * (m // t[2]), t[1] * (m // t[2])))


def _cross_sign(o, a, b) -> int:
    """Sign of the turn o -> a -> b for projective integer triples."""
    o1, o2, od = o
    a1, a2, ad = a
    b1, b2, bd = b
    # Scaled by the positive factor od^2 * ad * bd.
    return (a1 * od - o1 * ad) * (b2 * od - o2 * bd) - (a2 * od - o2 * ad) * (b1 * od - o1 * bd)


def _hull_ccw(pts: list[Vertex]) -> list[Vertex]:
    """Andrew monotone chain; counter-clockwise, collinear points dropped.

    Expects unique triples already sorted by (r1, r2).
    """
    if len(pts) <= 2:
        return pts
    lower: list[Vertex] = []
    for p in pts:
        while len(lower) >= 2 and _cross_sign(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Vertex] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross_sign(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _direction(p: Vertex, q: Vertex) -> tuple[int, int]:
    """A positive multiple of q - p."""
    return q[0] * p[2] - p[0] * q[2], q[1] * p[2] - p[1] * q[2]


def _line_row(p: Vertex, d1: int, d2: int) -> Row:
    """Row with the line through p along (d1, d2) on its boundary, left side feasible."""
    p1, p2, pd = p
    return (pd * d2, -pd * d1, d2 * p1 - d1 * p2)


def _collinear_facets(p: Vertex, d1: int, d2: int, q: Vertex | None) -> set[Row]:
    """The line through p along (d1, d2), from both sides, capped at p and at q if given."""
    p1, p2, pd = p
    a1, a2, b = _line_row(p, d1, d2)
    out = [(a1, a2, b), (-a1, -a2, -b), (-pd * d1, -pd * d2, -(d1 * p1 + d2 * p2))]
    if q is not None:
        q1, q2, qd = q
        out.append((qd * d1, qd * d2, d1 * q1 + d2 * q2))
    return {_primitive(*r) for r in out if not _axis_implied(r)}


def _facets_from_vertices(verts: set[Vertex]) -> set[Row]:
    """Minimal row description of the convex hull of vertex triples.

    Fully representation independent: two regions with the same point set
    canonicalize to the identical halfspace tuple.
    """
    if len(verts) == 1:
        ((p1, p2, d),) = verts
        out = [(d, 0, p1), (-d, 0, -p1), (0, d, p2), (0, -d, -p2)]
        return {_primitive(*r) for r in out if not _axis_implied(r)}
    if len(verts) == 2:
        p, q = verts
        return _collinear_facets(p, *_direction(p, q), q)
    ccw = _hull_ccw(_sorted_by_r1_r2(verts))
    edges = (_line_row(p, *_direction(p, q)) for p, q in zip(ccw, ccw[1:] + ccw[:1]))
    return {_primitive(*r) for r in edges if not _axis_implied(r)}


def canonicalize(region: RateRegion) -> RateRegion:
    """Remove every halfspace implied by the others plus non-negativity.

    Bounded regions are rebuilt from their vertex set and half-lines from
    their end point and direction, which makes the result a function of the
    point set alone (idempotent, deterministic, sorted by (a1, a2, b)).
    Other unbounded regions are full-dimensional and keep the irredundant
    subset of the given halfspaces, their facets, which is unique as well.
    """
    tightest: dict[tuple[int, int], int] = {}
    for h in region.halfspaces:
        a1, a2, b = row = _int_row(h)
        if _axis_implied(row):
            continue
        tightest[a1, a2] = min(b, tightest.get((a1, a2), b))
    rows = sorted((a1, a2, b) for (a1, a2), b in tightest.items())
    verts = _vertex_triples(rows)
    if not verts:
        raise RegionError("region is empty")
    rays = _recession_rays(rows)
    if not rays:
        return _region(_facets_from_vertices(verts))
    d1, d2 = rays[0]
    if len(verts) == 1 and all(e1 * d2 == e2 * d1 for e1, e2 in rays):
        (p,) = verts
        return _region(_collinear_facets(p, d1, d2, None))
    # Unbounded: drop any row the remaining ones still imply.
    kept = rows
    changed = True
    while changed:
        changed = False
        for row in list(kept):
            rest = [x for x in kept if x != row]
            if _implied(rest, row):
                kept.remove(row)
                changed = True
    return _region(kept)


def is_bounded(region: RateRegion) -> bool:
    return not _recession_rays(_rows(region))


def corner_points(region: RateRegion) -> list[RatePoint]:
    """All polytope vertices, walked clockwise starting from the origin.

    The walk starts at (0,0), climbs the R2 axis, crosses the frontier with
    R1 increasing and ends on the R1 axis.
    """
    verts = _bounded_vertices(_rows(region))
    m = lcm(*(d for _, _, d in verts))
    walk = sorted(verts, key=lambda t: (t != (0, 0, 1), t[0] * (m // t[2]), -t[1] * (m // t[2])))
    return [RatePoint(Fraction(n1, d), Fraction(n2, d)) for n1, n2, d in walk]


def regions_equal(a: RateRegion, b: RateRegion) -> bool:
    """Point-set equality of bounded regions.

    Two bounded convex polygons are equal exactly when their vertex sets
    are, and the gcd-reduced vertex triples depend on the point set alone.
    """
    verts_a, verts_b = _polygons(a, b)
    return verts_a == verts_b


def region_contains(outer: RateRegion, inner: RateRegion) -> bool:
    """True when every point of ``inner`` lies in ``outer`` (both bounded)."""
    (verts,) = _polygons(inner)
    rows = _rows(outer)
    return all(a1 * n1 + a2 * n2 <= b * d for n1, n2, d in verts for a1, a2, b in rows)


def integer_points(region: RateRegion) -> set[tuple[int, int]]:
    """All integer rate pairs inside the (bounded) region."""
    rows = _rows(region)
    verts = _bounded_vertices(rows)
    m1 = max(n1 // d for n1, _, d in verts)
    m2 = max(n2 // d for _, n2, d in verts)
    return {
        (r1, r2)
        for r1 in range(m1 + 1)
        for r2 in range(m2 + 1)
        if all(a1 * r1 + a2 * r2 <= b for a1, a2, b in rows)
    }


def sum_capacity(region: RateRegion) -> Fraction:
    """Max of R1 + R2 over the region."""
    return max(Fraction(n1 + n2, d) for n1, n2, d in _bounded_vertices(_rows(region)))


class Regime(str, Enum):
    """Parameter orderings selecting the capacity-achieving scheme."""

    A = "A"  # ns <= nc <= nr: compute-forward + decode-forward
    B = "B"  # nc <= min(ns, nr): adds cooperative neutralization
    C = "C"  # max(nr, ns) < nc: compute-forward + feedback strategies
    D = "D"  # nr < nc <= ns: neutralization + feedback strategies


def applicable_regimes(p: ChannelParams) -> list[Regime]:
    """Every regime whose defining condition holds for ``p`` (1 or 2 of them)."""
    out = []
    if p.ns <= p.nc <= p.nr:
        out.append(Regime.A)
    if p.nc <= p.ns and p.nc <= p.nr:
        out.append(Regime.B)
    if p.nr < p.nc <= p.ns:
        out.append(Regime.D)
    if p.nc > p.nr and p.nc > p.ns:
        out.append(Regime.C)
    return out


def regime_of(p: ChannelParams) -> Regime:
    """The scheme-selecting regime; ties broken in the order A, B, D, C."""
    regimes = applicable_regimes(p)
    if not regimes:  # pragma: no cover - the four conditions cover everything
        raise AssertionError(f"no regime covers {p}")
    return regimes[0]


def _pos(x: int) -> int:
    return max(0, x)


@lru_cache(maxsize=None)
def outer_bound_region(p: ChannelParams) -> RateRegion:
    """Canonical capacity outer bound region for ``p``."""
    cap = min(p.ns, p.nr + p.nf, max(p.nc, p.nr))
    raw = (
        hs(1, 0, cap),
        hs(0, 1, cap),
        hs(1, 1, max(p.nr, p.nc) + p.nc),
        hs(1, 1, max(p.nr, p.nc) + _pos(p.ns - p.nc)),
        hs(1, 1, p.ns + p.nc),
    )
    return canonicalize(RateRegion(raw))


@lru_cache(maxsize=None)
def achievable_region(p: ChannelParams, regime: Regime | None = None) -> RateRegion:
    """Canonical achievable region of the regime's scheme (equals the outer bound)."""
    r = regime or regime_of(p)
    if r is Regime.A:
        cap, total = p.ns, p.nr
        raw = (hs(1, 0, cap), hs(0, 1, cap), hs(1, 1, total))
    elif r is Regime.B:
        cap = min(p.ns, p.nr)
        raw = (
            hs(1, 0, cap),
            hs(0, 1, cap),
            hs(1, 1, p.ns + p.nc),
            hs(1, 1, p.nr + p.nc),
            hs(1, 1, p.nr + p.ns - p.nc),
        )
    elif r is Regime.C:
        cap, total = min(p.ns, p.nr + p.nf), p.nc
        raw = (hs(1, 0, cap), hs(0, 1, cap), hs(1, 1, total))
    else:
        cap, total = min(p.nr + p.nf, p.nc), p.ns
        raw = (hs(1, 0, cap), hs(0, 1, cap), hs(1, 1, total))
    return canonicalize(RateRegion(raw))


def net_gain(p: ChannelParams, nf: int, r_f: Fraction | int) -> Fraction:
    """Sum-capacity increase of feedback strength ``nf`` per feedback bit spent.

    r_f is the number of feedback levels actually used per channel use by
    the scheme that achieves the sum capacity; a ratio above 1 means the
    feedback pays for itself.
    """
    r_f = Fraction(r_f)
    if r_f <= 0:
        raise ValueError("r_f must be positive")
    with_fb = sum_capacity(outer_bound_region(p.with_nf(nf)))
    without = sum_capacity(outer_bound_region(p.with_nf(0)))
    return (with_fb - without) / r_f


def frac_to_json(x: Fraction) -> int | str:
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def region_to_jsonable(region: RateRegion) -> dict:
    """JSON shape: halfspaces plus corner list, rationals as "p/q" strings."""
    canon = canonicalize(region)
    return {
        "halfspaces": [
            {"a1": frac_to_json(h.a1), "a2": frac_to_json(h.a2), "b": frac_to_json(h.b)}
            for h in canon.halfspaces
        ],
        "corners": [[frac_to_json(p.r1), frac_to_json(p.r2)] for p in corner_points(canon)],
    }
