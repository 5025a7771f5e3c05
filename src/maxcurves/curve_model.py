"""Plane models F(y) = x^d over k = F_{q^2} with F additive.

F(T) = sum a_i T^(p^i) is F_p-linear with a_0 != 0, so every affine
fiber of x is smooth and is a coset of ker F.  Point counts build no
points.  On the cyclic unit group of a level of order Q, x -> x^d is
g-to-1 onto the exp[k] with k = 0 mod s*g, where g = gcd(d, Q - 1)
and s = (q^4 - 1)/(Q - 1), so the count is
1 + |ker F| * (1 + g * #{z in F(level) : z != 0, log z = 0 mod s*g}),
memoized per level.  At level 4 it walks the (q^4 - 1)/g d-th powers
exp[::g] with no table of F: z is a value of F iff its residue modulo
the echelon pivots of F(p^0), ..., F(p^(4a-1)) is 0 (their rank r
gives |ker F| = p^(4a - r)), and that F_p-linear residue is read from
two tables of q^2 entries, lo[z % q^2] == hi[z // q^2] (hi negated).
At level 2, when the d-th powers and 0 form a subfield L = F_{p^j}
(that is, when (q^2 - 1)/g + 1 = p^j; d = q + 1 gives L = F_q), the
count is 1 + p^(2a - r) * (1 + g * (p^(r + j - r') - 1)),
with r the F_p-rank of F(1), F(xi), ..., F(xi^(2a-1)) (so
|ker F| = p^(2a - r)) and r' the rank of those vectors together with
the basis 1, eta, ..., eta^(j-1) of L, eta = xi^g (so
|F(k) & L| = p^(r + j - r')); otherwise it walks the (q^2 - 1)/g
d-th powers of k and keeps those whose residue modulo the echelon
pivots of F(1), ..., F(xi^(2a-1)) is 0.  Neither level builds a fiber
table to count.
`enumerate_points` lists the cosets for the callers that need the
points themselves.  The family tagged "hermitian-type" is
y^q + y = x^m with m dividing q + 1; m = q + 1 gives the Hermitian
curve itself.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass
from math import gcd

from .field_tower import FieldTower, _linear_table


@dataclass(frozen=True)
class Point:
    """An affine point (x, y) in ambient codes, or the place at infinity."""

    x: int | None
    y: int | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_infinity:
            return "Point(inf)"
        return f"Point({self.x}, {self.y})"


INFINITY = Point(None, None)


@dataclass(frozen=True)
class MaximalityReport:
    maximal: bool
    actual: int
    expected: int


def _span(tower: FieldTower, vectors) -> list[int]:
    """The F_p-span of the vectors; entry sum(c_i p^i) is sum(c_i vectors[i])."""
    add = tower.add
    out = [0]
    for b in vectors:
        part = out
        for _ in range(tower.p - 1):
            part = [add(v, b) for v in part]
            out.extend(part)
    return out


def _reduce(tower: FieldTower, v: int, pivots: dict[int, int], powers) -> tuple[int, int]:
    """Reduce v until its top digit sits off the pivots; return v and that
    position.  pivots maps a digit position to the basis vector whose top
    nonzero digit sits there and is 1; powers[i] = p^i."""
    while v:
        top = bisect_right(powers, v) - 1
        b = pivots.get(top)
        if b is None:
            return v, top
        lead = v // powers[top]
        v = tower.sub(v, b if lead == 1 else tower.mul(lead, b))  # p = 2: lead is 1
    return 0, 0


def _fp_rank(tower: FieldTower, vectors, pivots: dict[int, int]) -> int:
    """Add the vectors that are F_p-independent of `pivots`; return how many."""
    powers = [tower.p ** i for i in range(tower.degree)]
    added = 0
    for v in vectors:
        v, top = _reduce(tower, v, pivots, powers)
        if v:
            pivots[top] = tower.div(v, v // powers[top])
            added += 1
    return added


def _residue(tower: FieldTower, v: int, pivots: dict[int, int]) -> int:
    """v modulo the span of `pivots`, zero at every pivot digit: F_p-linear."""
    powers = [tower.p ** i for i in range(tower.degree)]
    out = 0
    while v:
        v, top = _reduce(tower, v, pivots, powers)
        rest = v % powers[top]  # v's top digit sits off every pivot: keep it
        out, v = out + v - rest, rest
    return out


class CurveModel:
    """A curve F(y) = x^d over level 2 of a tower; immutable after construction."""

    def __init__(self, tower: FieldTower, f_coeffs: tuple[int, ...], d: int, family: str):
        self.tower = tower
        self.f_coeffs = f_coeffs
        self.d = d
        self.family = family
        self.e = len(f_coeffs) - 1
        self.deg_f = tower.p ** self.e
        self.genus = (self.deg_f - 1) * (d - 1) // 2
        self._fibers: dict[int, tuple[dict[int, int], tuple[int, ...]]] = {}
        self._counts: dict[int, int] = {}
        self._points: dict[int, tuple[Point, ...]] = {}

    # -- defining polynomial -------------------------------------------------

    def f_eval(self, y: int) -> int:
        t = self.tower
        acc = 0
        w = y
        for c in self.f_coeffs:
            if c:
                acc = t.add(acc, t.mul(c, w))
            w = t.pow(w, t.p)
        return acc

    def on_curve(self, P: Point) -> bool:
        if P.is_infinity:
            return True
        return self.f_eval(P.y) == self.tower.pow(P.x, self.d)

    # -- point enumeration -----------------------------------------------------

    def _fiber_table(self, level: int):
        """(solmap, kernel) of F on the level: one preimage per value, ker F.

        F is F_p-linear, so F(y) walks the F_p-span of the images of a
        basis of the level in step with y, one add per element.  The basis
        is 1, xi, ..., xi^(2a-1) at level 2, independent because xi
        generates F_{q^2}*, whose span y walks the same way; at level 4 it
        is the digit basis p^i, whose span lists the codes in order.
        """
        if level not in self._fibers:
            if level not in (2, 4):
                raise ValueError("points are enumerated over levels 2 and 4")
            t = self.tower
            if level == 4:
                basis = [t.p ** i for i in range(t.degree)]
            else:
                basis = [t.pow(t.xi, i) for i in range(2 * t.a)]
            zs = _span(t, [self.f_eval(b) for b in basis])
            ys = range(t.order) if level == 4 else _span(t, basis)
            solmap = dict(zip(zs, ys))
            kernel = tuple(y for y, z in zip(ys, zs) if z == 0)
            self._fibers[level] = (solmap, kernel)
        return self._fibers[level]

    def enumerate_points(self, level: int) -> tuple[Point, ...]:
        """All points over the given level, x then y in lex order, infinity last."""
        if level in self._points:
            return self._points[level]
        t = self.tower
        solmap, kernel = self._fiber_table(level)
        pts: list[Point] = []
        for x in t.elements(level):
            y0 = solmap.get(t.pow(x, self.d))
            if y0 is None:
                continue
            ys = sorted((t.add(y0, kap) for kap in kernel), key=t.lex_rank)
            pts.extend(Point(x, y) for y in ys)
        pts.append(INFINITY)
        out = tuple(pts)
        self._points[level] = out
        return out

    def count(self, level: int) -> int:
        """Number of points over the level, computed once per level."""
        if level not in self._counts:
            self._counts[level] = self._count(level)
        return self._counts[level]

    def _count(self, level: int) -> int:
        """The count by residues or ranks (module docstring); the inner 1 is x = 0."""
        t = self.tower
        Q = t.level_order(level)
        g = gcd(self.d, Q - 1)
        pivots: dict[int, int] = {}
        if level == 4:
            r = _fp_rank(t, [self.f_eval(t.p ** i) for i in range(t.degree)], pivots)
            h = t.q2
            res = [t.coeffs(_residue(t, t.p ** i, pivots)) for i in range(t.degree)]
            lo = _linear_table(res[:2 * t.a], t.p, t.p, t.p)
            hi = _linear_table([[-c % t.p for c in v] for v in res[2 * t.a:]], t.p, t.p, t.p)
            hits = sum(1 for z in t._exp[::g] if lo[z % h] == hi[z // h])
            return 1 + t.p ** (t.degree - r) * (1 + g * hits)
        if level != 2:
            raise ValueError("points are counted over levels 2 and 4")
        r = _fp_rank(t, [self.f_eval(t.pow(t.xi, i)) for i in range(2 * t.a)], pivots)
        size = (Q - 1) // g + 1  # the d-th powers and 0
        j = 0
        while t.p ** j < size:
            j += 1
        if t.p ** j == size:
            eta = t.pow(t.xi, g)
            r2 = r + _fp_rank(t, [t.pow(eta, i) for i in range(j)], pivots)
            return 1 + t.p ** (2 * t.a - r) * (1 + g * (t.p ** (r + j - r2) - 1))
        powers = [t.p ** i for i in range(t.degree)]
        step = (t.order - 1) // (Q - 1) * g
        hits = sum(1 for z in t._exp[::step] if _reduce(t, z, pivots, powers)[0] == 0)
        return 1 + t.p ** (2 * t.a - r) * (1 + g * hits)

    # -- maximality --------------------------------------------------------------

    def maximality_report(self) -> MaximalityReport:
        """count(2) against the Hasse-Weil bound q^2 + 2gq + 1."""
        q = self.tower.q
        expected = q * q + 2 * self.genus * q + 1
        actual = self.count(2)
        return MaximalityReport(actual == expected, actual, expected)

    @property
    def is_maximal(self) -> bool:
        return self.maximality_report().maximal

    def predicted_count(self, j: int) -> int:
        """Point count over F_{q^(2j)} forced by maximality."""
        if j < 1:
            raise ValueError("extension index j must be >= 1")
        if not self.is_maximal:
            raise ValueError("curve is not maximal; no forced counts")
        q = self.tower.q
        return q ** (2 * j) + 1 - 2 * self.genus * (-q) ** j

    # -- point structure --------------------------------------------------------

    def frobenius(self, P: Point) -> Point:
        if P.is_infinity:
            return INFINITY
        t = self.tower
        return Point(t.frobenius_k(P.x), t.frobenius_k(P.y))

    def point_level(self, P: Point) -> int:
        if P.is_infinity:
            return 1
        t = self.tower
        return max(t.subfield_level(P.x), t.subfield_level(P.y))

    def is_rational(self, P: Point) -> bool:
        """Rational means defined over the curve's base field k = F_{q^2}."""
        t = self.tower
        return P.is_infinity or (t.in_level(P.x, 2) and t.in_level(P.y, 2))

    # -- reporting ----------------------------------------------------------------

    def report(self) -> dict:
        t = self.tower
        return {
            "family": self.family,
            "p": t.p,
            "a": t.a,
            "q": t.q,
            "d": self.d,
            "f_coeffs": [t.digits(c) for c in self.f_coeffs],
            "deg_f": self.deg_f,
            "genus": self.genus,
        }

    def __repr__(self) -> str:
        return f"CurveModel({self.family}, d={self.d}, deg_f={self.deg_f}, q={self.tower.q})"


def define_curve(tower: FieldTower, f_coeffs, d: int) -> CurveModel:
    """Build the curve F(y) = x^d from additive coefficients (a_0, ..., a_e)."""
    coeffs = tuple(int(c) for c in f_coeffs)
    if not coeffs:
        raise ValueError("additive polynomial needs at least one coefficient")
    if coeffs[-1] == 0:
        raise ValueError("leading coefficient of F is zero")
    if coeffs[0] == 0:
        raise ValueError("a_0 = 0 gives an inseparable model")
    for c in coeffs:
        if not 0 <= c < tower.order:
            raise ValueError(f"coefficient code {c} outside ambient field")
        if not tower.in_level(c, 2):
            raise ValueError(f"coefficient {c} is not in the base field k")
    if d < 1:
        raise ValueError("d must be >= 1")
    if gcd(d, tower.p) != 1:
        raise ValueError(f"d = {d} is divisible by the characteristic")
    deg_f = tower.p ** (len(coeffs) - 1)
    if gcd(d, deg_f) != 1:
        raise ValueError(f"d = {d} and deg F = {deg_f} are not coprime")
    family = "additive-general"
    if (is_trace_shaped(tower, coeffs) and coeffs[0] == coeffs[-1] == 1
            and (tower.q + 1) % d == 0):
        family = "hermitian-type"
    return CurveModel(tower, coeffs, d, family)


def is_trace_shaped(tower: FieldTower, coeffs: tuple[int, ...]) -> bool:
    """True when F = a*T^q + b*T: degree q with no middle terms."""
    return len(coeffs) == tower.a + 1 and not any(coeffs[1:-1])


def hermitian_curve(tower: FieldTower, m: int) -> CurveModel:
    """The curve y^q + y = x^m with m dividing q + 1."""
    if m < 1 or (tower.q + 1) % m != 0:
        raise ValueError(f"m = {m} must divide q + 1 = {tower.q + 1}")
    coeffs = (1,) + (0,) * (tower.a - 1) + (1,)
    return define_curve(tower, coeffs, m)


def points_to_csv(curve: CurveModel, points, path) -> None:
    """Write a point list as CSV rows x, y, level with colon-joined residues."""
    t = curve.tower
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "level"])
        for P in points:
            if P.is_infinity:
                w.writerow(["inf", "inf", 1])
            else:
                w.writerow([t.format_element(P.x), t.format_element(P.y),
                            curve.point_level(P)])
