"""Polynomial functions on curves F(y) = x^d.

Every function used here lies in some L(lambda * P_infinity): order
sequences, one-point codes and Weierstrass semigroups all live there,
and since x and y have poles only at P_infinity these spaces are
spanned by polynomials in x and y, so no quotients are kept.
Elements are in the reduced form sum c_ij x^i y^j with j < deg F,
using the relation a_e y^(deg F) = x^d - sum_{i<e} a_i y^(p^i).
`_reduce` is the one place where terms are summed: a sum or a product
hands it the pairs of its terms, and it adds equal monomials and
rewrites those with j >= deg F by the relation.
Since gcd(d, deg F) = 1 the monomial weights i*deg F + j*d are distinct,
so the pole order at the place at infinity is read off the support.
Local expansions at affine points use the uniformizer t = x - x(P).
F is additive, so F(y(P) + u) = x(P)^d + F(u), and u^(p^i) is u with
its coefficients raised to p^i at indices multiplied by p^i; each
coefficient of y is therefore fixed by earlier ones, and one pass of
that recurrence (`_y_series`) develops y.  A nonzero polynomial of top
weight w has w zeros counted with multiplicity, so v_P <= w and w + 1
terms decide its valuation; PrecisionError is raised only when w + 1
exceeds max_precision and the series vanishes up to that cap.
`evaluate`, the valuations and `solve_section` (which returns the
section of least pole order) are the test oracles of the expansions;
the package does not export them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .curve_model import CurveModel, Point
from .field_tower import PrecisionError
from .linalg import row_echelon


def max_precision(curve: CurveModel) -> int:
    return 64 * (curve.tower.q + 1)


# ---------------------------------------------------------------------------
# reduced polynomial dictionaries {(i, j): code}
# ---------------------------------------------------------------------------

def _reduce(curve: CurveModel, pairs) -> dict[tuple[int, int], int]:
    """Reduced form of the sum of c * x^i * y^j over ((i, j), c) pairs.

    Each round sums the pairs into the result, then rewrites the terms
    with j >= deg F into the pairs of the next round; j falls each time.
    """
    t = curve.tower
    r = curve.deg_f
    out: dict[tuple[int, int], int] = {}
    while True:
        for ij, c in pairs:
            new = t.add(out.get(ij, 0), c)
            if new:
                out[ij] = new
            else:
                out.pop(ij, None)
        high = [(ij, c) for ij, c in out.items() if ij[1] >= r]
        if not high:
            return out
        for ij, _ in high:
            del out[ij]
        ae_inv = t.inv(curve.f_coeffs[-1])
        repl = [((curve.d, 0), ae_inv)] + [((0, t.p ** i), t.neg(t.mul(ae_inv, ai)))
                                          for i, ai in enumerate(curve.f_coeffs[:-1]) if ai]
        pairs = [((i + di, j - r + dj), t.mul(c, rc))
                 for (i, j), c in high for (di, dj), rc in repl]


def _top_weight(curve: CurveModel, terms) -> int:
    """Pole order at infinity of a nonzero reduced polynomial."""
    return max(i * curve.deg_f + j * curve.d for i, j in terms)


class FuncElement:
    """A polynomial in x and y on the curve, kept in reduced form.

    x and y have poles only at P_infinity, so these are exactly the
    functions of the spaces L(lambda * P_infinity) that every caller uses.
    """

    __slots__ = ("curve", "num")

    def __init__(self, curve: CurveModel, num):
        self.curve = curve
        self.num = num

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuncElement) or other.curve is not self.curve:
            return NotImplemented
        return self.num == other.num

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "FuncElement") -> "FuncElement":
        return FuncElement(self.curve, _reduce(
            self.curve, itertools.chain(self.num.items(), other.num.items())))

    def __neg__(self) -> "FuncElement":
        t = self.curve.tower
        return FuncElement(self.curve, {ij: t.neg(v) for ij, v in self.num.items()})

    def __sub__(self, other: "FuncElement") -> "FuncElement":
        return self + (-other)

    def __mul__(self, other: "FuncElement") -> "FuncElement":
        mul = self.curve.tower.mul
        return FuncElement(self.curve, _reduce(self.curve, (
            ((i1 + i2, j1 + j2), mul(c1, c2))
            for (i1, j1), c1 in self.num.items() for (i2, j2), c2 in other.num.items())))

    def __pow__(self, e: int) -> "FuncElement":
        if e < 0:
            # x and y have no inverses among polynomials; without this check
            # the square-and-multiply loop below would never end
            raise ValueError("only non-negative powers of a polynomial are defined")
        r = FuncElement(self.curve, {(0, 0): 1})
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def scaled(self, c: int) -> "FuncElement":
        mul = self.curve.tower.mul
        return FuncElement(self.curve, {ij: mul(v, c) for ij, v in self.num.items()} if c else {})

    def __repr__(self) -> str:
        return f"FuncElement({sorted(self.num.items())})"


def x_of(curve: CurveModel) -> FuncElement:
    return FuncElement(curve, {(1, 0): 1})


def y_of(curve: CurveModel) -> FuncElement:
    return FuncElement(curve, _reduce(curve, [((0, 1), 1)]))


def evaluate(f: FuncElement, P: Point) -> int:
    """Value of f at an affine point."""
    if P.is_infinity:
        raise ValueError("evaluation at infinity is a pole-order question")
    t = f.curve.tower
    acc = 0
    for (i, j), c in f.num.items():
        acc = t.add(acc, t.mul(c, t.mul(t.pow(P.x, i), t.pow(P.y, j))))
    return acc


def valuation_at_infinity(f: FuncElement) -> int:
    """Valuation at the single place over x = infinity.

    Monomial weights are pairwise distinct on reduced supports, so no
    cancellation can occur and the valuation is minus the top weight.
    """
    if f.is_zero:
        raise ValueError("the zero function has no valuation")
    return -_top_weight(f.curve, f.num)


# ---------------------------------------------------------------------------
# local power series at affine points
# ---------------------------------------------------------------------------

def _ser_mul(t, a, b, n):
    out = [0] * n
    for i, ai in enumerate(a):
        if ai and i < n:
            lim = min(len(b), n - i)
            for j in range(lim):
                bj = b[j]
                if bj:
                    out[i + j] = t.add(out[i + j], t.mul(ai, bj))
    return out


def _y_series(curve: CurveModel, P: Point, n: int) -> list[int]:
    """Expansion of y in t = x - x(P) to n terms, one coefficient at a time.

    Write y = y(P) + sum_{k>=1} u_k t^k.  F is additive, so the t^k
    coefficient of F(y) = (x(P) + t)^d, k >= 1, reads
        a_0 u_k = C(d, k) x(P)^(d-k) - sum_{i>=1, p^i | k} a_i u_(k/p^i)^(p^i),
    the binomial term being 0 for k > d; each u_k is fixed by earlier ones.
    """
    t = curve.tower
    p, d, a = t.p, curve.d, curve.f_coeffs
    a0_inv = t.inv(a[0])
    minus = [t.neg(ai) for ai in a[1:]]
    u = [P.y] + [0] * (n - 1)
    for k in range(1, n):
        c = t.mul(comb(d, k) % p, t.pow(P.x, d - k)) if k <= d else 0
        j, pi = k, 1
        for mi in minus:
            if j % p:
                break
            j //= p
            pi *= p
            if mi:
                c = t.add(c, t.mul(mi, t.pow(u[j], pi)))
        u[k] = t.mul(a0_inv, c)
    return u


def monomial_series(curve: CurveModel, P: Point, monos, prec: int) -> list[list[int]]:
    """Expansions of the monomials x^i y^j to prec terms at an affine point.

    The y series is developed once; each row is one entry of a table of
    x powers times one of a table of y powers.
    """
    t = curve.tower
    one = [1] + [0] * (prec - 1)
    xs = ([P.x, 1] + [0] * prec)[:prec]
    ys = _y_series(curve, P, prec)
    xpow, ypow = [one], [one]
    for i, j in monos:
        while len(xpow) <= i:
            xpow.append(_ser_mul(t, xs, xpow[-1], prec))
        while len(ypow) <= j:
            ypow.append(_ser_mul(t, ypow[-1], ys, prec))
    return [_ser_mul(t, xpow[i], ypow[j], prec) for i, j in monos]


def valuation_at(P: Point, f: FuncElement) -> int:
    """Exact valuation of f at any enumerated place.

    A nonzero polynomial of top weight w has v_P <= w, so one expansion
    to min(w + 1, max_precision) terms decides it.
    """
    if f.is_zero:
        raise ValueError("the zero function has no valuation")
    if P.is_infinity:
        return valuation_at_infinity(f)
    curve = f.curve
    if not curve.on_curve(P):
        raise ValueError("point is not on the curve")
    t = curve.tower
    prec = min(_top_weight(curve, f.num) + 1, max_precision(curve))
    monos = sorted(f.num)
    s = [0] * prec
    for ij, row in zip(monos, monomial_series(curve, P, monos, prec)):
        c = f.num[ij]
        s = [t.add(a, t.mul(c, v)) for a, v in zip(s, row)]
    v = next((i for i, c in enumerate(s) if c), None)
    if v is None:
        raise PrecisionError(f"valuation unresolved at precision cap {prec}")
    return v


# ---------------------------------------------------------------------------
# Riemann-Roch spaces of lambda * P_infinity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RRBasis:
    """Monomial basis of L(lambda * P_infinity), sorted by pole order."""

    monomials: tuple[tuple[int, int], ...]
    pole_orders: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.monomials)


def rr_basis(curve: CurveModel, lam: int) -> RRBasis:
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    r, d = curve.deg_f, curve.d
    monos = []
    for j in range(r):
        if j * d > lam:
            continue
        for i in range((lam - j * d) // r + 1):
            monos.append((i, j))
    monos.sort(key=lambda ij: ij[0] * r + ij[1] * d)
    orders = tuple(i * r + j * d for i, j in monos)
    return RRBasis(tuple(monos), orders)


# ---------------------------------------------------------------------------
# section solver with divisor audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectionWitness:
    """A nonzero f in L(lambda * P_infinity) meeting zero-order constraints.

    zeros lists every located zero over F_{q^4} with its exact
    multiplicity; divisor_ok certifies that they exhaust the pole order
    at infinity, i.e. the full divisor of f sums to degree zero within
    the enumerated point set.
    """

    function: FuncElement
    pole_order: int
    zeros: tuple[tuple[Point, int], ...]
    located_degree: int
    divisor_ok: bool
    constraints_ok: bool
    matrix_rank: int


def solve_section(curve: CurveModel, lam: int, constraints) -> SectionWitness | None:
    """The f in L(lambda * P_infinity) of least pole order, top coefficient
    1, with v_P(f) >= o for each (P, o); None if only f = 0 meets them.

    Row m is monomial m's expansions at the constraints and a unit tail
    (`row_echelon`); the tail pivot of least top index is f, up to scale.
    """
    cons = list(constraints)
    for P, o in cons:
        if P.is_infinity:
            raise ValueError("constraints must be at affine points")
        if not curve.on_curve(P):
            raise ValueError("constraint point is not on the curve")
        if o < 1:
            raise ValueError("constraint orders must be >= 1")
    monos = rr_basis(curve, lam).monomials
    n = len(monos)
    series = [monomial_series(curve, P, monos, o) for P, o in cons]
    width = sum(o for _, o in cons)
    rows = [[c for ser in series for c in ser[m]] + [int(k == m) for k in range(n)]
            for m in range(n)]
    pivots = row_echelon(curve.tower, rows)
    rank = sum(c < width for c in pivots)
    null = [piv[width:] for c, piv in pivots.items() if c >= width]
    if not null:
        return None
    top, vec = min((max(i for i, c in enumerate(v) if c), v) for v in null)
    f = FuncElement(curve, {ij: c for ij, c in zip(monos, vec) if c})
    f = f.scaled(curve.tower.inv(vec[top]))
    pole = -valuation_at_infinity(f)
    zeros = []
    located = 0
    for Q in curve.enumerate_points(4):
        if Q.is_infinity:
            continue
        if evaluate(f, Q) == 0:
            v = valuation_at(Q, f)
            zeros.append((Q, v))
            located += v
    by_point = {Q: v for Q, v in zeros}
    constraints_ok = all(by_point.get(P, 0) >= o for P, o in cons)
    return SectionWitness(
        function=f,
        pole_order=pole,
        zeros=tuple(zeros),
        located_degree=located,
        divisor_ok=located == pole,
        constraints_ok=constraints_ok,
        matrix_rank=rank,
    )
