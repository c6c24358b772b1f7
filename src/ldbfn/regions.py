"""Exact capacity-region algebra for the butterfly network with relay feedback.

A :class:`RateRegion` is the set of non-negative rate pairs (R1, R2)
satisfying a list of constraints ``a1*R1 + a2*R2 <= b``; the non-negativity
constraints are implicit.  Its stored form is the tuple of primitive integer
rows ``(a1, a2, b)``, from which it derives its vertices, projective integer
triples ``(n1, n2, d)`` standing for ``(n1/d, n2/d)`` with ``d > 0``, and its
recession rays once, when it is made.  So every comparison is an exact
integer cross-multiplication and equality of polytopes is decided, never
approximated.  :func:`canonicalize` keeps a full-dimensional region's
facets and writes a point, segment or half-line as its capped line.
Canonical regions are memoised on their tightened rows, so calls whose rows
tighten alike share one region and the values it stores.
``fractions.Fraction`` appears only at the API: the :class:`Halfspace`
fields (``RateRegion.halfspaces`` builds them when read), :class:`RatePoint`,
:meth:`RateRegion.contains` and the JSON shapes.

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
from typing import Iterable, Iterator, NamedTuple

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


class RateRegion:
    """2-D polytope of rate pairs in the first quadrant, stored as primitive integer rows.

    ``RateRegion(halfspaces)`` scales each halfspace to its primitive row, so
    ``halfspaces`` reads back that scaling.  ``vertices`` are the vertex triples
    in the order of :func:`corner_points` and ``rays`` the recession rays
    (empty when bounded), both derived when the region is made.  Its sum
    capacity, corner points and integer points are stored on first use, so
    they live as long as the region.  Canonical regions are memoised and
    shared between callers, so treat an instance as immutable.
    """

    __slots__ = ("rows", "vertices", "rays", "_sum", "_corners", "_points")

    def __init__(self, halfspaces: Iterable[Halfspace]) -> None:
        self._set(tuple(_int_row(h) for h in halfspaces))

    def _set(self, rows: tuple[Row, ...]) -> None:
        self.rows = rows
        self.vertices = _walk_order(_scaled(_vertex_triples(rows)))
        self.rays = tuple(_recession_rays(rows))
        self._sum = self._corners = self._points = None  # filled by the first successful call

    @property
    def halfspaces(self) -> tuple[Halfspace, ...]:
        return tuple(hs(*row) for row in self.rows)

    def contains(self, p: RatePoint | tuple) -> bool:
        r1, r2 = Fraction(p[0]), Fraction(p[1])
        return r1 >= 0 and r2 >= 0 and all(a1 * r1 + a2 * r2 <= b for a1, a2, b in self.rows)

    def __eq__(self, other: object) -> bool:
        return self.rows == other.rows if isinstance(other, RateRegion) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"RateRegion(rows={self.rows!r})"


def _region(rows: tuple[Row, ...]) -> RateRegion:
    """The region of primitive ``rows``."""
    region = RateRegion.__new__(RateRegion)
    region._set(rows)
    return region


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


def _axis_implied(row: Row) -> bool:
    """True when the quadrant alone implies the row (a1 <= 0, a2 <= 0, b >= 0)."""
    return row[0] <= 0 and row[1] <= 0 and row[2] >= 0


def _vertex_triples(rows: Iterable[Row]) -> set[Vertex]:
    """Feasible pairwise intersections of the rows and the two axes.

    In 2-D these are exactly the vertices.  Integer arithmetic throughout:
    den > 0 and feasibility is decided by cross-multiplication, so nothing
    is ever rounded.  The triples are gcd-reduced, so equal points give
    equal triples and the set depends on the point set alone.
    """
    rows = [*rows, (-1, 0, 0), (0, -1, 0)]
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
            for r1, r2, rb in rows:
                if r1 * num1 + r2 * num2 > rb * det:
                    break
            else:
                pts.add(_primitive(num1, num2, det))
    return pts


def _recession_rays(rows: Iterable[Row]) -> list[tuple[int, int]]:
    """Quadrant directions along which the region is unbounded; empty if bounded.

    In 2-D each extreme ray of the recession cone is an axis direction or lies
    along some constraint's boundary, so the candidates found in the cone
    include both extreme rays.  Each is primitive, so no direction appears twice.
    """
    rows = [*rows, (-1, 0, 0), (0, -1, 0)]
    candidates = {(1, 0), (0, 1)}
    for a1, a2, _ in rows:
        g = gcd(a1, a2)
        for d in ((a2 // g, -a1 // g), (-a2 // g, a1 // g)):
            if d[0] >= 0 and d[1] >= 0:
                candidates.add(d)
    return [d for d in candidates if all(a1 * d[0] + a2 * d[1] <= 0 for a1, a2, _ in rows)]


def _check_bounded(*regions: RateRegion) -> None:
    """Raise unless the regions are bounded and non-empty; an empty one is reported first."""
    if not all(r.vertices for r in regions):
        raise RegionError("region is empty")
    if any(r.rays for r in regions):
        raise RegionError("corner enumeration needs a bounded region")


def _scaled(verts) -> list[tuple[int, int, Vertex]]:
    """Each vertex triple as ``(r1, r2, triple)``, r1 and r2 over a common denominator, sorted by (r1, r2)."""
    m = lcm(*(d for _, _, d in verts))
    return sorted((n1 * (m // d), n2 * (m // d), (n1, n2, d)) for n1, n2, d in verts)


def _walk_order(scaled: list[tuple[int, int, Vertex]]) -> tuple[Vertex, ...]:
    """The triples of :func:`_scaled` from the origin, then by R1 increasing and R2 decreasing."""
    return tuple(t for _, _, t in sorted(scaled, key=lambda s: (s[2] != (0, 0, 1), s[0], -s[1])))


def _direction(p: Vertex, q: Vertex) -> tuple[int, int]:
    """A positive multiple of q - p."""
    return q[0] * p[2] - p[0] * q[2], q[1] * p[2] - p[1] * q[2]


def _collinear_facets(p: Vertex, d1: int, d2: int, q: Vertex | None) -> set[Row]:
    """The line through p along (d1, d2), from both sides, capped at p and at q if given."""
    p1, p2, pd = p
    a1, a2, b = pd * d2, -pd * d1, d2 * p1 - d1 * p2  # the line, its left side feasible
    out = [(a1, a2, b), (-a1, -a2, -b), (-pd * d1, -pd * d2, -(d1 * p1 + d2 * p2))]
    if q is not None:
        q1, q2, qd = q
        out.append((qd * d1, qd * d2, d1 * q1 + d2 * q2))
    return {_primitive(*r) for r in out if not _axis_implied(r)}


def canonicalize(region: RateRegion) -> RateRegion:
    """Remove every halfspace implied by the others plus non-negativity.

    A full-dimensional region keeps its facets, the rows whose lines meet it
    in an edge; a point, segment or half-line becomes its line from both
    sides, capped at its end points.  So the result depends on the point set
    alone (idempotent, deterministic, sorted by (a1, a2, b)).
    """
    return canonical_region(region.rows)


def canonical_region(rows: Iterable[Row]) -> RateRegion:
    """:func:`canonicalize` of the region given by integer rows ``(a1, a2, b)``, each of any positive scale.

    Every feasible pairwise intersection of rows and axes is an extreme
    point.  The region is pointed (it lies in the quadrant): with no ray and
    at most two vertices it is a point or a segment, with one vertex and
    collinear rays a half-line, and otherwise full-dimensional.  Then a row
    is irredundant exactly when its line meets the region in an edge, two
    vertices or one vertex and a ray (Schrijver, *Theory of Linear and
    Integer Programming*, ch. 8).  A closed half-plane has one primitive row,
    so the rows kept are the primitive rows of the edges off the axes.

    The rows are first tightened to one per reduced normal, and the region is
    memoised on the sorted tuple of those rows: calls whose rows tighten
    alike share one :class:`RateRegion`.  An empty region raises
    :class:`RegionError` on every call, as ``lru_cache`` stores no exception.
    """
    tightest: dict[tuple[int, int], Row] = {}  # per reduced normal, the row of least b / gcd(a1, a2)
    for row in rows:
        a1, a2, b = row = _primitive(*row)
        if _axis_implied(row):
            continue
        g = gcd(a1, a2) or 1  # a zero normal (then b < 0) keys (0, 0) and empties the region
        kept = tightest.setdefault((a1 // g, a2 // g), row)
        if b * gcd(kept[0], kept[1]) < kept[2] * g:
            tightest[a1 // g, a2 // g] = row
    return _canonical(tuple(sorted(tightest.values())))


@lru_cache(maxsize=None)
def _canonical(rows: tuple[Row, ...]) -> RateRegion:
    """:func:`canonical_region` of its tightened rows, sorted: the vertex search and facet test."""
    scaled = _scaled(_vertex_triples(rows))
    if not scaled:
        raise RegionError("region is empty")
    verts = _walk_order(scaled)
    rays = _recession_rays(rows)
    if not rays and len(verts) <= 2:
        p, q = scaled[0][2], scaled[-1][2]
        d = _direction(p, q) if p != q else (1, 0)
        return _region(tuple(sorted(_collinear_facets(p, *d, q))))
    if len(verts) == 1 and all(e1 * rays[0][1] == e2 * rays[0][0] for e1, e2 in rays):
        return _region(tuple(sorted(_collinear_facets(verts[0], *rays[0], None))))

    def facet(a1: int, a2: int, b: int) -> bool:
        on_line = sum(a1 * n1 + a2 * n2 == b * d for n1, n2, d in verts)
        return on_line >= 2 or on_line == 1 and any(a1 * d1 + a2 * d2 == 0 for d1, d2 in rays)

    return _region(tuple(row for row in rows if facet(*row)))


def corner_points(region: RateRegion) -> list[RatePoint]:
    """All polytope vertices, walked clockwise from the origin, as a fresh list.

    The walk starts at (0,0), climbs the R2 axis, crosses the frontier with
    R1 increasing and ends on the R1 axis.
    """
    if region._corners is None:
        _check_bounded(region)
        region._corners = tuple(RatePoint(Fraction(n1, d), Fraction(n2, d)) for n1, n2, d in region.vertices)
    return list(region._corners)


def regions_equal(a: RateRegion, b: RateRegion) -> bool:
    """Point-set equality of bounded regions.

    Two bounded convex polygons are equal exactly when their vertex sets
    are, and the gcd-reduced vertex triples in walk order depend on the
    point set alone.
    """
    _check_bounded(a, b)
    return a.vertices == b.vertices


def region_contains(outer: RateRegion, inner: RateRegion) -> bool:
    """True when every point of ``inner`` lies in ``outer`` (both bounded)."""
    _check_bounded(inner)
    return all(a1 * n1 + a2 * n2 <= b * d for n1, n2, d in inner.vertices for a1, a2, b in outer.rows)


def integer_columns(region: RateRegion) -> Iterator[tuple[int, range]]:
    """(r1, R2 values) of the integer points inside the (bounded) region, one column per integer r1
    from 0: the rows leave one interval of R2 at each r1, so no bounding box is walked."""
    _check_bounded(region)
    m1 = max(n1 // d for n1, _, d in region.vertices)
    m2 = max(n2 // d for _, n2, d in region.vertices)
    for r1 in range(m1 + 1):
        lo, hi = 0, m2
        for a1, a2, b in region.rows:  # a2 * R2 <= b - a1 * r1
            if a2 > 0:
                hi = min(hi, (b - a1 * r1) // a2)
            elif a2 < 0:
                lo = max(lo, -((b - a1 * r1) // -a2))
            elif a1 * r1 > b:
                hi = -1
        yield r1, range(lo, hi + 1)


def integer_points(region: RateRegion) -> set[tuple[int, int]]:
    """All integer rate pairs inside the (bounded) region, read off :func:`integer_columns`, as a fresh set."""
    if region._points is None:
        region._points = frozenset((r1, r2) for r1, column in integer_columns(region) for r2 in column)
    return set(region._points)


def sum_capacity(region: RateRegion) -> Fraction:
    """Max of R1 + R2 over the region."""
    if region._sum is None:
        _check_bounded(region)
        m = lcm(*(d for _, _, d in region.vertices))
        n1, n2, d = max(region.vertices, key=lambda t: (t[0] + t[1]) * (m // t[2]))
        region._sum = Fraction(n1 + n2, d)
    return region._sum


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
    return applicable_regimes(p)[0]  # nc <= nr gives A or B, nc > nr gives D or C


def _pos(x: int) -> int:
    return max(0, x)


@lru_cache(maxsize=None)
def outer_bound_region(p: ChannelParams) -> RateRegion:
    """Canonical capacity outer bound region for ``p``."""
    cap = min(p.ns, p.nr + p.nf, max(p.nc, p.nr))
    return canonical_region((
        (1, 0, cap),
        (0, 1, cap),
        (1, 1, max(p.nr, p.nc) + p.nc),
        (1, 1, max(p.nr, p.nc) + _pos(p.ns - p.nc)),
        (1, 1, p.ns + p.nc),
    ))


@lru_cache(maxsize=None)
def achievable_region(p: ChannelParams, regime: Regime | None = None) -> RateRegion:
    """Canonical achievable region of the regime's scheme (equals the outer bound)."""
    r = regime or regime_of(p)
    if r is Regime.A:
        cap, totals = p.ns, (p.nr,)
    elif r is Regime.B:
        cap, totals = min(p.ns, p.nr), (p.ns + p.nc, p.nr + p.nc, p.nr + p.ns - p.nc)
    elif r is Regime.C:
        cap, totals = min(p.ns, p.nr + p.nf), (p.nc,)
    else:
        cap, totals = min(p.nr + p.nf, p.nc), (p.ns,)
    return canonical_region([(1, 0, cap), (0, 1, cap), *((1, 1, t) for t in totals)])


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
