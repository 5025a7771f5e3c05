"""Function field arithmetic for curves F(y) = x^d.

Elements are kept in the reduced form sum c_ij x^i y^j with j < deg F,
using the relation a_e y^(deg F) = x^d - sum_{i<e} a_i y^(p^i).
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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .curve_model import CurveModel, Point
from .field_tower import PrecisionError
from .linalg import row_echelon


def default_precision(curve: CurveModel) -> int:
    return 4 * (curve.tower.q + 1)


def max_precision(curve: CurveModel) -> int:
    return 64 * (curve.tower.q + 1)


# ---------------------------------------------------------------------------
# reduced polynomial dictionaries {(i, j): code}
# ---------------------------------------------------------------------------

def _reduce(curve: CurveModel, terms) -> dict[tuple[int, int], int]:
    t = curve.tower
    r = curve.deg_f
    ae_inv = t.inv(curve.f_coeffs[-1])
    repl = [((curve.d, 0), ae_inv)]
    for i in range(len(curve.f_coeffs) - 1):
        ai = curve.f_coeffs[i]
        if ai:
            repl.append(((0, t.p ** i), t.neg(t.mul(ae_inv, ai))))
    out: dict[tuple[int, int], int] = {}
    work = [(ij, c) for ij, c in terms.items() if c]
    while work:
        (i, j), c = work.pop()
        if j < r:
            new = t.add(out.get((i, j), 0), c)
            if new:
                out[(i, j)] = new
            else:
                out.pop((i, j), None)
        else:
            for (di, dj), rc in repl:
                work.append(((i + di, j - r + dj), t.mul(c, rc)))
    return out


def _dict_add(t, A, B):
    out = dict(A)
    for ij, c in B.items():
        new = t.add(out.get(ij, 0), c)
        if new:
            out[ij] = new
        else:
            out.pop(ij, None)
    return out


def _dict_scale(t, A, c):
    if c == 0:
        return {}
    return {ij: t.mul(v, c) for ij, v in A.items()}


def _dict_mul(curve, A, B):
    t = curve.tower
    conv: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in A.items():
        for (i2, j2), c2 in B.items():
            key = (i1 + i2, j1 + j2)
            new = t.add(conv.get(key, 0), t.mul(c1, c2))
            if new:
                conv[key] = new
            else:
                conv.pop(key, None)
    return _reduce(curve, conv)


def _top_weight(curve: CurveModel, terms) -> int:
    """Pole order at infinity of a nonzero reduced polynomial."""
    return max(i * curve.deg_f + j * curve.d for i, j in terms)


class FuncElement:
    """A function num/den on the curve, both parts in reduced form."""

    __slots__ = ("curve", "num", "den")

    def __init__(self, curve: CurveModel, num, den=None):
        self.curve = curve
        self.num = num
        self.den = den  # None encodes the constant 1

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    def _den_dict(self):
        return self.den if self.den is not None else {(0, 0): 1}

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuncElement) or other.curve is not self.curve:
            return NotImplemented
        lhs = _dict_mul(self.curve, self.num, other._den_dict())
        rhs = _dict_mul(self.curve, other.num, self._den_dict())
        return lhs == rhs

    def __hash__(self):
        raise TypeError("FuncElement is unhashable")

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "FuncElement") -> "FuncElement":
        c = self.curve
        if self.den is None and other.den is None:
            return FuncElement(c, _dict_add(c.tower, self.num, other.num))
        num = _dict_add(
            c.tower,
            _dict_mul(c, self.num, other._den_dict()),
            _dict_mul(c, other.num, self._den_dict()),
        )
        den = _dict_mul(c, self._den_dict(), other._den_dict())
        return FuncElement(c, num, den if den != {(0, 0): 1} else None)

    def __neg__(self) -> "FuncElement":
        t = self.curve.tower
        return FuncElement(self.curve, {ij: t.neg(v) for ij, v in self.num.items()}, self.den)

    def __sub__(self, other: "FuncElement") -> "FuncElement":
        return self + (-other)

    def __mul__(self, other: "FuncElement") -> "FuncElement":
        c = self.curve
        num = _dict_mul(c, self.num, other.num)
        if self.den is None and other.den is None:
            return FuncElement(c, num)
        den = _dict_mul(c, self._den_dict(), other._den_dict())
        return FuncElement(c, num, den if den != {(0, 0): 1} else None)

    def __truediv__(self, other: "FuncElement") -> "FuncElement":
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        c = self.curve
        num = _dict_mul(c, self.num, other._den_dict())
        den = _dict_mul(c, self._den_dict(), other.num)
        return FuncElement(c, num, den if den != {(0, 0): 1} else None)

    def __pow__(self, e: int) -> "FuncElement":
        if e < 0:
            return FuncElement(self.curve, {(0, 0): 1}) / self ** (-e)
        r = FuncElement(self.curve, {(0, 0): 1})
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def scaled(self, c: int) -> "FuncElement":
        return FuncElement(self.curve, _dict_scale(self.curve.tower, self.num, c), self.den)

    # -- reporting ---------------------------------------------------------------

    def to_json(self) -> dict:
        t = self.curve.tower

        def part(terms):
            return [
                {"i": i, "j": j, "coeff": t.digits(c)}
                for (i, j), c in sorted(terms.items())
            ]

        return {"num": part(self.num), "den": None if self.den is None else part(self.den)}

    def __repr__(self) -> str:
        return f"FuncElement({sorted(self.num.items())}, den={None if self.den is None else sorted(self.den.items())})"


def normal_form(curve: CurveModel, terms, den_terms=None) -> FuncElement:
    """Reduce a raw {(i, j): coeff} expression to canonical form."""
    num = _reduce(curve, dict(terms))
    den = None
    if den_terms is not None:
        den = _reduce(curve, dict(den_terms))
        if not den:
            raise ZeroDivisionError("zero denominator")
    return FuncElement(curve, num, den)


def x_of(curve: CurveModel) -> FuncElement:
    return FuncElement(curve, {(1, 0): 1})


def y_of(curve: CurveModel) -> FuncElement:
    return FuncElement(curve, {(0, 1): 1} if curve.deg_f > 1 else _reduce(curve, {(0, 1): 1}))


def const(curve: CurveModel, c: int) -> FuncElement:
    return FuncElement(curve, {(0, 0): c} if c else {})


def evaluate(f: FuncElement, P: Point) -> int:
    """Value of f at an affine point where the denominator does not vanish."""
    if P.is_infinity:
        raise ValueError("evaluation at infinity is a pole-order question")
    t = f.curve.tower

    def val(terms):
        acc = 0
        for (i, j), c in terms.items():
            acc = t.add(acc, t.mul(c, t.mul(t.pow(P.x, i), t.pow(P.y, j))))
        return acc

    num = val(f.num)
    if f.den is None:
        return num
    den = val(f.den)
    if den == 0:
        raise ValueError("denominator vanishes at the point; use valuations")
    return t.mul(num, t.inv(den))


def valuation_at_infinity(f: FuncElement) -> int:
    """Valuation at the single place over x = infinity.

    Monomial weights are pairwise distinct on reduced supports, so no
    cancellation can occur and the valuation is minus the top weight.
    """
    if f.is_zero:
        raise ValueError("the zero function has no valuation")
    return _top_weight(f.curve, f._den_dict()) - _top_weight(f.curve, f.num)


# ---------------------------------------------------------------------------
# local power series at affine points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalSeries:
    """Truncated expansion sum coeffs[i] t^i at an affine point."""

    point: Point
    coeffs: tuple[int, ...]

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    @property
    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if unresolved."""
        return _first_nonzero(self.coeffs)


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


def _ser_inv(t, s, n):
    if s[0] == 0:
        raise ZeroDivisionError("series is not a unit")
    inv0 = t.inv(s[0])
    out = [inv0] + [0] * (n - 1)
    for k in range(1, n):
        acc = 0
        for i in range(1, min(k, len(s) - 1) + 1):
            if s[i]:
                acc = t.add(acc, t.mul(s[i], out[k - i]))
        out[k] = t.neg(t.mul(inv0, acc))
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
    u = [P.y] + [0] * (n - 1)
    for k in range(1, n):
        c = t.mul(comb(d, k) % p, t.pow(P.x, d - k)) if k <= d else 0
        j, pi = k, 1
        for ai in a[1:]:
            if j % p:
                break
            j //= p
            pi *= p
            if ai:
                c = t.sub(c, t.mul(ai, t.pow(u[j], pi)))
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


def _expand(curve: CurveModel, P: Point, parts, prec: int) -> list[list[int]]:
    """Expansions of the polynomials in parts to prec terms, from one y development."""
    t = curve.tower
    monos = sorted(set().union(*parts))
    rows = dict(zip(monos, monomial_series(curve, P, monos, prec)))
    out = []
    for terms in parts:
        s = [0] * prec
        for ij, c in terms.items():
            s = [t.add(a, t.mul(c, v)) for a, v in zip(s, rows[ij])]
        out.append(s)
    return out


def _first_nonzero(series) -> int | None:
    return next((i for i, c in enumerate(series) if c), None)


def local_expansion(P: Point, f: FuncElement, prec: int | None = None) -> LocalSeries:
    """Expand f in the uniformizer t = x - x(P) at an affine point.

    num and den are expanded to prec + w(den) terms, w the top weight:
    v_P(den) <= w(den), so prec terms remain past the leading zeros.
    """
    curve = f.curve
    if P.is_infinity:
        raise ValueError("expansions use the affine uniformizer; infinity is handled by pole orders")
    if not curve.on_curve(P):
        raise ValueError("point is not on the curve")
    if prec is None:
        prec = default_precision(curve)
    if prec < 1:
        raise ValueError("precision must be >= 1")
    den = f._den_dict()
    num_s, den_s = _expand(curve, P, [f.num, den], prec + _top_weight(curve, den))
    v_den = _first_nonzero(den_s)
    if any(num_s[:v_den]):
        raise ValueError("function has a pole at the point")
    t = curve.tower
    return LocalSeries(P, tuple(_ser_mul(t, num_s[v_den:], _ser_inv(t, den_s[v_den:], prec), prec)))


def valuation_at(P: Point, f: FuncElement) -> int:
    """Exact valuation of f at any enumerated place.

    A nonzero polynomial of top weight w has v_P <= w, so one expansion
    of num and den to min(w + 1, max_precision) terms decides both.
    """
    if f.is_zero:
        raise ValueError("the zero function has no valuation")
    if P.is_infinity:
        return valuation_at_infinity(f)
    curve = f.curve
    if not curve.on_curve(P):
        raise ValueError("point is not on the curve")
    parts = [f.num, f._den_dict()]
    prec = min(max(_top_weight(curve, terms) for terms in parts) + 1, max_precision(curve))
    v_num, v_den = (_first_nonzero(s) for s in _expand(curve, P, parts, prec))
    if v_num is None or v_den is None:
        raise PrecisionError(f"valuation unresolved at precision cap {prec}")
    return v_num - v_den


# ---------------------------------------------------------------------------
# Riemann-Roch spaces of lambda * P_infinity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RRBasis:
    """Monomial basis of L(lambda * P_infinity), sorted by pole order."""

    lam: int
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
    return RRBasis(lam, tuple(monos), orders)


def basis_functions(curve: CurveModel, lam: int) -> list[FuncElement]:
    return [FuncElement(curve, {ij: 1}) for ij in rr_basis(curve, lam).monomials]


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
    """Find f in L(lambda * P_infinity) with v_P(f) >= o for each (P, o)."""
    cons = list(constraints)
    for P, o in cons:
        if P.is_infinity:
            raise ValueError("constraints must be at affine points")
        if not curve.on_curve(P):
            raise ValueError("constraint point is not on the curve")
        if o < 1:
            raise ValueError("constraint orders must be >= 1")
    basis = rr_basis(curve, lam)
    monos = basis.monomials
    rows = []
    for P, o in cons:
        cols = monomial_series(curve, P, monos, o)
        for c in range(o):
            rows.append([col[c] for col in cols])
    tower = curve.tower
    red, pivots = row_echelon(tower, rows)
    rank = len(pivots)
    pivot_set = set(pivots)
    free = [c for c in range(len(monos)) if c not in pivot_set]
    if not free:
        return None
    coeff = [0] * len(monos)
    coeff[free[0]] = 1
    for ri, pc in enumerate(pivots):
        coeff[pc] = tower.neg(red[ri][free[0]])
    f = FuncElement(curve, {ij: c for ij, c in zip(monos, coeff) if c})
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
