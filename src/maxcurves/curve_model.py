"""Plane models F(y) = x^d over k = F_{q^2} with F additive.

F(T) = sum a_i T^(p^i) is F_p-linear with a_0 != 0, so every affine
fiber of x is smooth and is y0 + ker F.  Each level has one `_echelon`
of the pairs (F(b), b) over an F_p-basis b of the level (`_basis`; both
helpers and `_span` come from `field_tower`), run once per curve: the
pivot values span F(level), each with a preimage, and the pairs that
reduce to 0 give a basis of ker F.  `fiber(x, level)` reduces (x^d, 0)
against those pivots; the fiber is empty unless x^d is a value of F.
Counts build no points.
On the unit group of a level of order Q, x -> x^d is g-to-1 onto the
exp[k] with k = 0 mod step, g = gcd(d, Q - 1), step = units/(Q - 1)*g,
so the count is 1 + |ker F| * (1 + g * hits), hits the number of
z != 0 in F(level) with log z = 0 mod step.  When those powers and 0 form
a subfield L = F_{p^j}, that is (Q - 1)/g + 1 = p^j, hits + 1 = p^i with
i the number of the basis vectors 1, eta, ..., eta^(j-1) of L,
eta = exp[step], that reduce to 0 against the pivots of F; otherwise the
count walks F(level).  `_level_count` is this rule; it reads only the
pivots and |ker F|, so the conjecture scan's walk branch counts a candidate
from its own pivots of F(k), building no curve; its subfield branch counts
by duality (`verdicts.conjecture_explore`).  `_maximal_count` is the count
that maximality forces over F_{q^(2j)}; `maximality_report`,
`predicted_count` and the conjecture scan all read it.  `family` is the one
trace-family rule, read off the curve: "hermitian-type" marks a model that
is y^q + y = x^d up to a scaling in k; d = q + 1 gives the Hermitian curve.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import gcd

from .field_tower import FieldTower, _basis, _echelon, _span


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


class CurveModel:
    """A curve F(y) = x^d over level 2 of a tower; immutable after construction."""

    def __init__(self, tower: FieldTower, f_coeffs: tuple[int, ...], d: int):
        self.tower = tower
        self.f_coeffs = f_coeffs
        self.d = d
        self.e = len(f_coeffs) - 1
        self.deg_f = tower.p ** self.e
        self.genus = (self.deg_f - 1) * (d - 1) // 2
        self._echelons: dict[int, tuple[dict[int, tuple[int, int]], tuple[int, ...]]] = {}
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

    def _eliminate(self, level: int) -> tuple[dict[int, tuple[int, int]], tuple[int, ...]]:
        """(pivots, ker F) on the level from one `_echelon` pass, once per level."""
        if level not in self._echelons:
            t = self.tower
            pivots: dict[int, tuple[int, int]] = {}
            basis = _echelon(t, [(self.f_eval(b), b) for b in _basis(t, level)], pivots)
            self._echelons[level] = (pivots, tuple(_span(t, basis)))
        return self._echelons[level]

    def kernel(self, level: int) -> tuple[int, ...]:
        """ker F on the level."""
        return self._eliminate(level)[1]

    def image(self, level: int) -> list[int]:
        """F(level), the F_p-span of the pivot values: one add per element."""
        return _span(self.tower, [v for v, _ in self._eliminate(level)[0].values()])

    def fiber(self, x: int, level: int) -> tuple[int, ...]:
        """The y over the level with F(y) = x^d: y0 + ker F, or () when
        x^d is no value of F.  (x^d, 0) reduces to (0, -y0) against a copy
        of the pivots."""
        t = self.tower
        pivots, kernel = self._eliminate(level)
        found = _echelon(t, [(t.pow(x, self.d), 0)], dict(pivots))
        if not found:
            return ()
        y0 = t.neg(found[0])
        return tuple(t.add(kap, y0) for kap in kernel)

    def enumerate_points(self, level: int) -> tuple[Point, ...]:
        """All points over the given level, x then y in lex order, infinity last."""
        if level not in self._points:
            t = self.tower
            pts = [Point(x, y) for x in t.elements(level)
                   for y in sorted(self.fiber(x, level), key=t.lex_rank)]
            pts.append(INFINITY)
            self._points[level] = tuple(pts)
        return self._points[level]

    def count(self, level: int) -> int:
        """Number of points over the level, computed once per level."""
        if level not in self._counts:
            self._counts[level] = self._count(level)
        return self._counts[level]

    def _count(self, level: int) -> int:
        """`_level_count` from this curve's elimination of the level."""
        pivots, kernel = self._eliminate(level)
        return _level_count(self.tower, pivots, len(kernel), level, self.d)

    # -- maximality --------------------------------------------------------------

    def maximality_report(self) -> MaximalityReport:
        """count(2) against the Hasse-Weil bound q^2 + 2gq + 1."""
        expected = _maximal_count(self.tower.q, self.genus, 1)
        actual = self.count(2)
        return MaximalityReport(actual == expected, actual, expected)

    @property
    def is_maximal(self) -> bool:
        return self.maximality_report().maximal

    @property
    def family(self) -> str:
        """"hermitian-type" when F = a*T^q + b*T (`is_trace_shaped`), d | q + 1,
        |ker F & k| = q and the curve is maximal, else "additive-general".
        Maximality forces the kernel clause when d >= 2; at d = 1 (genus 0,
        always maximal) it keeps out the twists with F bijective on k."""
        t = self.tower
        trace = (is_trace_shaped(t, self.f_coeffs) and (t.q + 1) % self.d == 0
                 and len(self.kernel(2)) == t.q and self.is_maximal)
        return "hermitian-type" if trace else "additive-general"

    def predicted_count(self, j: int) -> int:
        """Point count over F_{q^(2j)} forced by maximality."""
        if j < 1:
            raise ValueError("extension index j must be >= 1")
        if not self.is_maximal:
            raise ValueError("curve is not maximal; no forced counts")
        return _maximal_count(self.tower.q, self.genus, j)

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


def _maximal_count(q: int, genus: int, j: int) -> int:
    """q^(2j) + 1 - 2g(-q)^j, the points over F_{q^(2j)} of a maximal curve of
    genus g over F_{q^2}; j = 1 is the Hasse-Weil bound q^2 + 2gq + 1."""
    return q ** (2 * j) + 1 - 2 * genus * (-q) ** j


def _level_count(tower: FieldTower, pivots: dict[int, tuple[int, int]], kernel: int,
                 level: int, d: int) -> int:
    """The points of F(y) = x^d over the level, from kernel = |ker F| and
    pivots whose values span F(level): 1 + kernel * (1 + g * hits), hits by
    the subfield rank or by a walk of the span (module docstring); the
    inner 1 is x = 0."""
    Q = tower.level_order(level)
    g = gcd(d, Q - 1)
    step = tower.unit_step(level) * g
    size = (Q - 1) // g + 1  # the d-th powers and 0
    j = 0
    while tower.p ** j < size:
        j += 1
    if tower.p ** j == size:
        eta = tower.exp(step)
        # the basis vectors of L that reduce to 0 span F(level) & L
        shared = _echelon(tower, [(tower.pow(eta, i), 0) for i in range(j)], dict(pivots))
        hits = tower.p ** len(shared) - 1
    else:
        hits = sum(1 for z in _span(tower, [v for v, _ in pivots.values()])
                   if z and tower.log(z) % step == 0)
    return 1 + kernel * (1 + g * hits)


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
    if gcd(d, tower.p) != 1:  # so d is prime to deg F, a power of p
        raise ValueError(f"d = {d} is divisible by the characteristic")
    return CurveModel(tower, coeffs, d)


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
