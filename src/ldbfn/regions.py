"""Exact capacity-region algebra for the butterfly network with relay feedback.

All region arithmetic is exact rational (``fractions.Fraction``); equality of
polytopes is decided, never approximated.  A :class:`RateRegion` is the set
of non-negative rate pairs (R1, R2) satisfying a list of halfspaces
``a1*R1 + a2*R2 <= b``; the non-negativity constraints are implicit.

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
from math import gcd
from typing import NamedTuple

from .gf2 import ChannelParams

Rat = Fraction
ZERO = Fraction(0)


class RegionError(ValueError):
    """A region operation received a structurally unusable region."""


class RatePoint(NamedTuple):
    r1: Fraction
    r2: Fraction


ORIGIN = RatePoint(ZERO, ZERO)


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

    def normalized(self) -> "Halfspace":
        """Scale by a positive rational to primitive integer coefficients."""
        denoms = [self.a1.denominator, self.a2.denominator, self.b.denominator]
        lcm = 1
        for d in denoms:
            lcm = lcm * d // gcd(lcm, d)
        a1, a2, b = (int(x * lcm) for x in (self.a1, self.a2, self.b))
        g = gcd(gcd(abs(a1), abs(a2)), abs(b))
        if g > 1:
            a1, a2, b = a1 // g, a2 // g, b // g
        return Halfspace(Fraction(a1), Fraction(a2), Fraction(b))


def hs(a1: int | Fraction, a2: int | Fraction, b: int | Fraction) -> Halfspace:
    return Halfspace(Fraction(a1), Fraction(a2), Fraction(b))


# Implicit quadrant constraints -R1 <= 0 and -R2 <= 0.
_AXES = (hs(-1, 0, 0), hs(0, -1, 0))


@dataclass(frozen=True)
class RateRegion:
    """Bounded 2-D polytope of achievable rate pairs in the first quadrant."""

    halfspaces: tuple[Halfspace, ...]

    def contains(self, p: RatePoint | tuple) -> bool:
        pt = RatePoint(Fraction(p[0]), Fraction(p[1]))
        if pt.r1 < 0 or pt.r2 < 0:
            return False
        return all(h.holds(pt) for h in self.halfspaces)


def _int_rows(constraints: tuple[Halfspace, ...]) -> list[tuple[int, int, int]]:
    """Clear denominators: each halfspace as an integer (a1, a2, b) triple."""
    rows = []
    for h in constraints:
        lcm = 1
        for d in (h.a1.denominator, h.a2.denominator, h.b.denominator):
            lcm = lcm * d // gcd(lcm, d)
        rows.append((int(h.a1 * lcm), int(h.a2 * lcm), int(h.b * lcm)))
    return rows


def _vertex_triples(rows: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Feasible pairwise intersections as projective (num1, num2, den) triples.

    In 2-D these are exactly the vertices.  Integer arithmetic throughout:
    den > 0 and feasibility is decided by cross-multiplication, so nothing
    is ever rounded.  Sorted by (r1, r2).
    """
    rows = rows + [(-1, 0, 0), (0, -1, 0)]
    pts: set[tuple[int, int, int]] = set()
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
            g = gcd(gcd(abs(num1), abs(num2)), det)
            pts.add((num1 // g, num2 // g, det // g))

    def key(t):
        return (Fraction(t[0], t[2]), Fraction(t[1], t[2]))

    return sorted(pts, key=key)


def _vertices(constraints: tuple[Halfspace, ...]) -> list[RatePoint]:
    return [
        RatePoint(Fraction(n1, d), Fraction(n2, d))
        for n1, n2, d in _vertex_triples(_int_rows(constraints))
    ]


def _recession_rays(constraints: tuple[Halfspace, ...]) -> list[tuple[int, int]]:
    """Quadrant directions along which the region is unbounded; empty if bounded.

    In 2-D each extreme ray of the recession cone is an axis direction or lies
    along some constraint's boundary, so the candidates found in the cone
    include both extreme rays.
    """
    rows = _int_rows(constraints) + [(-1, 0, 0), (0, -1, 0)]
    candidates = {(1, 0), (0, 1)}
    for a1, a2, _ in rows:
        for d in ((a2, -a1), (-a2, a1)):
            if d[0] >= 0 and d[1] >= 0 and (d[0] > 0 or d[1] > 0):
                candidates.add(d)
    return [d for d in candidates if all(a1 * d[0] + a2 * d[1] <= 0 for a1, a2, _ in rows)]


def _max_over(constraints: tuple[Halfspace, ...], a1: Fraction, a2: Fraction):
    """Exact max of a1*R1 + a2*R2 over the region; None when unbounded above."""
    verts = _vertices(constraints)
    if not verts:
        raise RegionError("empty region")
    if any(a1 * d[0] + a2 * d[1] > 0 for d in _recession_rays(constraints)):
        return None
    return max(a1 * p.r1 + a2 * p.r2 for p in verts)


def _cross_sign(o, a, b) -> int:
    """Sign of the turn o -> a -> b for projective integer triples."""
    o1, o2, od = o
    a1, a2, ad = a
    b1, b2, bd = b
    # Scaled by the positive factor od^2 * ad * bd.
    return (a1 * od - o1 * ad) * (b2 * od - o2 * bd) - (a2 * od - o2 * ad) * (b1 * od - o1 * bd)


def _hull_ccw(pts: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Andrew monotone chain; counter-clockwise, collinear points dropped.

    Expects unique triples already sorted by (r1, r2).
    """
    if len(pts) <= 2:
        return pts
    lower: list[tuple[int, int, int]] = []
    for p in pts:
        while len(lower) >= 2 and _cross_sign(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross_sign(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _axis_implied(h: Halfspace) -> bool:
    """True when the quadrant alone implies h (a1 <= 0, a2 <= 0, b >= 0)."""
    return h.a1 <= 0 and h.a2 <= 0 and h.b >= 0


def _edge_halfspace(p: tuple[int, int, int], q: tuple[int, int, int]) -> tuple[int, int, int]:
    """Integer halfspace with the edge p -> q on its boundary, left side feasible."""
    p1, p2, pd = p
    q1, q2, qd = q
    d1 = q1 * pd - p1 * qd
    d2 = q2 * pd - p2 * qd
    a1, a2, b = pd * d2, -pd * d1, d2 * p1 - d1 * p2
    g = gcd(gcd(abs(a1), abs(a2)), abs(b))
    return (a1 // g, a2 // g, b // g) if g > 1 else (a1, a2, b)


def _point(t: tuple[int, int, int]) -> RatePoint:
    return RatePoint(Fraction(t[0], t[2]), Fraction(t[1], t[2]))


def _collinear_facets(p: RatePoint, d1: Fraction, d2: Fraction, q: RatePoint | None) -> list[Halfspace]:
    """The line through p along (d1, d2), from both sides, capped at p and at q if given."""
    line = d2 * p.r1 - d1 * p.r2
    out = [Halfspace(d2, -d1, line), Halfspace(-d2, d1, -line), Halfspace(-d1, -d2, -(d1 * p.r1 + d2 * p.r2))]
    if q is not None:
        out.append(Halfspace(d1, d2, d1 * q.r1 + d2 * q.r2))
    return sorted({h.normalized() for h in out if not _axis_implied(h)})


def _facets_from_vertices(verts: list[tuple[int, int, int]]) -> list[Halfspace]:
    """Minimal halfspace description of the convex hull of vertex triples.

    Fully representation independent: two regions with the same point set
    canonicalize to the identical halfspace tuple.
    """
    out: list[Halfspace] = []
    if len(verts) == 1:
        p = _point(verts[0])
        out.append(hs(1, 0, p.r1))
        out.append(hs(0, 1, p.r2))
        if p.r1 > 0:
            out.append(hs(-1, 0, -p.r1))
        if p.r2 > 0:
            out.append(hs(0, -1, -p.r2))
        return sorted(set(h.normalized() for h in out))
    if len(verts) == 2:
        p, q = _point(verts[0]), _point(verts[1])
        return _collinear_facets(p, q.r1 - p.r1, q.r2 - p.r2, q)
    ccw = _hull_ccw(verts)
    for i, p in enumerate(ccw):
        a1, a2, b = _edge_halfspace(p, ccw[(i + 1) % len(ccw)])
        if not (a1 <= 0 and a2 <= 0 and b >= 0):
            out.append(Halfspace(Fraction(a1), Fraction(a2), Fraction(b)))
    return sorted(set(out))


def canonicalize(region: RateRegion) -> RateRegion:
    """Remove every halfspace implied by the others plus non-negativity.

    Bounded regions are rebuilt from their vertex set and half-lines from
    their end point and direction, which makes the result a function of the
    point set alone (idempotent, deterministic, sorted by (a1, a2, b)).
    Other unbounded regions are full-dimensional and keep the irredundant
    subset of the given halfspaces, their facets, which is unique as well.
    """
    cleaned: dict[tuple, Halfspace] = {}
    for h in region.halfspaces:
        n = h.normalized()
        if _axis_implied(n):
            continue
        key = (n.a1, n.a2)
        if key not in cleaned or n.b < cleaned[key].b:
            cleaned[key] = n
    constraints = tuple(sorted(cleaned.values()))
    verts = _vertex_triples(_int_rows(constraints))
    if not verts:
        raise RegionError("region is empty")
    rays = _recession_rays(constraints)
    if not rays:
        return RateRegion(tuple(_facets_from_vertices(verts)))
    d1, d2 = rays[0]
    if len(verts) == 1 and all(e1 * d2 == e2 * d1 for e1, e2 in rays):
        return RateRegion(tuple(_collinear_facets(_point(verts[0]), Fraction(d1), Fraction(d2), None)))
    # Unbounded: drop any halfspace the remaining ones still imply.
    kept = list(constraints)
    changed = True
    while changed:
        changed = False
        for h in list(kept):
            rest = tuple(x for x in kept if x != h)
            m = _max_over(rest, h.a1, h.a2)
            if m is not None and m <= h.b:
                kept.remove(h)
                changed = True
    return RateRegion(tuple(sorted(kept)))


def is_bounded(region: RateRegion) -> bool:
    return not _recession_rays(region.halfspaces)


def corner_points(region: RateRegion) -> list[RatePoint]:
    """All polytope vertices, walked clockwise starting from the origin.

    The walk starts at (0,0), climbs the R2 axis, crosses the frontier with
    R1 increasing and ends on the R1 axis.
    """
    if not is_bounded(region):
        raise RegionError("corner enumeration needs a bounded region")
    verts = _vertices(region.halfspaces)
    if not verts:
        raise RegionError("region is empty")
    return sorted(verts, key=lambda p: (p != ORIGIN, p.r1, -p.r2))


def regions_equal(a: RateRegion, b: RateRegion) -> bool:
    """Point-set equality via mutual corner containment."""
    ca, cb = canonicalize(a), canonicalize(b)
    return all(cb.contains(p) for p in corner_points(ca)) and all(
        ca.contains(p) for p in corner_points(cb)
    )


def region_contains(outer: RateRegion, inner: RateRegion) -> bool:
    """True when every point of ``inner`` lies in ``outer`` (both bounded)."""
    return all(outer.contains(p) for p in corner_points(canonicalize(inner)))


def integer_points(region: RateRegion) -> set[tuple[int, int]]:
    """All integer rate pairs inside the (bounded) region."""
    corners = corner_points(region)
    m1 = int(max(p.r1 for p in corners))
    m2 = int(max(p.r2 for p in corners))
    return {
        (r1, r2)
        for r1 in range(m1 + 1)
        for r2 in range(m2 + 1)
        if region.contains((r1, r2))
    }


def sum_capacity(region: RateRegion) -> Fraction:
    """Max of R1 + R2 over the region."""
    return max(p.r1 + p.r2 for p in corner_points(region))


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
