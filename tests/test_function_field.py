"""Function arithmetic, local expansions, and divisor-audited sections."""

import random

import pytest
from hypothesis import assume, given, strategies as st

from maxcurves import (
    INFINITY,
    FuncElement,
    Point,
    PrecisionError,
    define_curve,
    rr_basis,
    x_of,
    y_of,
)
import maxcurves.function_field as function_field
from maxcurves.function_field import (
    evaluate,
    max_precision,
    monomial_series,
    solve_section,
    valuation_at,
    valuation_at_infinity,
)
from test_linalg import naive_rref


def constant(curve, c):
    """The constant function c."""
    return FuncElement(curve, {(0, 0): 1}).scaled(c)


def poly(curve, terms):
    """sum c * x^i * y^j over raw {(i, j): c}, reduced by the operators."""
    x, y = x_of(curve), y_of(curve)
    acc = FuncElement(curve, {})
    for (i, j), c in terms.items():
        acc = acc + (x ** i * y ** j).scaled(c)
    return acc


def defining_residual(curve):
    """F(y) - x^d, assembled through the public arithmetic."""
    t = curve.tower
    y = y_of(curve)
    acc = FuncElement(curve, {})
    for i, c in enumerate(curve.f_coeffs):
        if c:
            acc = acc + (y ** (t.p ** i)).scaled(c)
    return acc - x_of(curve) ** curve.d


# ---------------------------------------------------------------------------
# reduction and ring structure
# ---------------------------------------------------------------------------

def test_defining_relation_reduces_to_zero(h32, h23, h25, add45, add43):
    for curve in (h32, h23, h25, add45, add43):
        assert defining_residual(curve).is_zero


def test_reduced_support_keeps_y_degree_low(h23):
    f = y_of(h23) ** 7 + x_of(h23) ** 2 * y_of(h23) ** 4
    for (_, j) in f.num:
        assert j < h23.deg_f


def test_equality_compares_reduced_forms(h23):
    x, y = x_of(h23), y_of(h23)
    assert (x * y) * y == x * (y * y)
    assert y ** 3 == x ** 2 - y  # y^3 + y = x^2
    assert x != y
    assert (x - x).is_zero
    assert x ** 0 == FuncElement(h23, {(0, 0): 1})


def test_funcelement_is_unhashable(h23):
    with pytest.raises(TypeError):
        hash(x_of(h23))


def small_terms(max_coeff):
    pair = st.tuples(st.integers(0, 3), st.integers(0, 2))
    return st.dictionaries(pair, st.integers(0, max_coeff), max_size=4)


@given(small_terms(80), small_terms(80), small_terms(80))
def test_ring_axioms(h23, add43, a, b, c):
    for curve in (h23, add43):
        f = poly(curve, a)
        g = poly(curve, b)
        h = poly(curve, c)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f - f == FuncElement(curve, {})


def test_power_matches_repeated_product(h23):
    f = x_of(h23) + y_of(h23)
    assert f ** 3 == f * f * f


def test_negative_power_raises(h23):
    # polynomials have no inverses here; the loop would not end on e < 0
    with pytest.raises(ValueError):
        x_of(h23) ** -1


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_coordinates(h23):
    for P in h23.enumerate_points(2)[:-1]:
        assert evaluate(x_of(h23), P) == P.x
        assert evaluate(y_of(h23), P) == P.y


def test_evaluate_error_cases(h23):
    with pytest.raises(ValueError):
        evaluate(x_of(h23), INFINITY)


# ---------------------------------------------------------------------------
# local expansions
# ---------------------------------------------------------------------------

def test_frozen_series_h32_origin(h32):
    s = monomial_series(h32, Point(0, 0), [(0, 1)], 14)[0]
    want = [0] * 14
    want[3] = want[6] = want[12] = 1
    assert s == want


def test_frozen_series_h35_origin(h35):
    s = monomial_series(h35, Point(0, 0), [(0, 1)], 17)[0]
    want = [0] * 17
    want[3] = 1
    want[15] = 4
    assert s == want


def naive_series_mul(t, a, b, n=None):
    n = len(a) if n is None else n
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[:n - i]):
                if bj:
                    out[i + j] = t.add(out[i + j], t.mul(ai, bj))
    return out


def test_series_satisfies_curve_equation(h23, h35):
    # plug the y-series back into F and compare with the x-side series,
    # using only naive series arithmetic on this side
    for curve in (h23, h35):
        t = curve.tower
        prec = 12
        sy = monomial_series(curve, Point(0, 0), [(0, 1)], prec)[0]
        lhs = [0] * prec
        w = sy
        for c in curve.f_coeffs:
            if c:
                lhs = [t.add(l, t.mul(c, v)) for l, v in zip(lhs, w)]
            nxt = w
            for _ in range(t.p - 1):
                nxt = naive_series_mul(t, nxt, w)
            w = nxt
        rhs = [0] * prec
        rhs[curve.d] = 1  # the x-side is exactly t^d at the origin
        assert lhs == rhs


@pytest.mark.parametrize("name", ["h32", "h23", "h35", "add45", "multi4", "multi9"])
def test_y_series_solves_curve_equation(request, t4, t9, name):
    # sum a_i y^(p^i) = (x(P) + t)^d to n terms, both sides by naive
    # products; multi4 and multi9 have a_0 != 1 and two terms past a_0
    if name == "multi4":
        curve = define_curve(t4, (t4.xi, t4.pow(t4.xi, 5), 1), 3)
    elif name == "multi9":
        curve = define_curve(t9, (t9.xi, t9.pow(t9.xi, 2), 1), 5)
    else:
        curve = request.getfixturevalue(name)
    t = curve.tower
    q = t.q
    affine = [P for P in curve.enumerate_points(4) if not P.is_infinity]
    rational = [P for P in affine if curve.is_rational(P)]
    points = rational[:12] + [P for P in affine if P.x == 0]
    points += [P for P in affine if not curve.is_rational(P)][:3]
    for P in points:
        for n in (1, 2, q + 2, 4 * (q + 1)):
            ys = function_field._y_series(curve, P, n)
            assert len(ys) == n and ys[0] == P.y
            lhs = [0] * n
            w = ys
            for c in curve.f_coeffs:
                lhs = [t.add(l, t.mul(c, v)) for l, v in zip(lhs, w)]
                nxt = w
                for _ in range(t.p - 1):
                    nxt = naive_series_mul(t, nxt, w)
                w = nxt
            rhs = [1] + [0] * (n - 1)
            for _ in range(curve.d):
                rhs = naive_series_mul(t, rhs, [P.x, 1])
            assert lhs == rhs, (P, n)


def test_monomial_series_matches_naive_products(h23, h35):
    # every row x^i y^j is the product of i copies of the x row and j of
    # the y row, which test_series_satisfies_curve_equation checks
    for curve in (h23, h35):
        t = curve.tower
        q = t.q
        monos = rr_basis(curve, q + 1).monomials
        level4 = [P for P in curve.enumerate_points(4) if not curve.is_rational(P)]
        points = [P for P in curve.enumerate_points(2) if not P.is_infinity] + level4[:4]
        for P in points:
            for prec in (1, 2, q + 2):
                rows = dict(zip(monos, monomial_series(curve, P, monos, prec)))
                one = [1] + [0] * (prec - 1)
                xs = ([P.x, 1] + [0] * prec)[:prec]
                ys = rows[(0, 1)]
                assert ys[0] == P.y
                for (i, j), row in rows.items():
                    want = one
                    for _ in range(i):
                        want = naive_series_mul(t, want, xs)
                    for _ in range(j):
                        want = naive_series_mul(t, want, ys)
                    assert row == want, (P, prec, i, j)


def polynomial_series(f, P, prec):
    """Expansion of f to prec terms, summed from its monomial rows."""
    t = f.curve.tower
    terms = sorted(f.num.items())
    out = [0] * prec
    for (_, c), row in zip(terms, monomial_series(f.curve, P, [ij for ij, _ in terms], prec)):
        out = [t.add(a, t.mul(c, v)) for a, v in zip(out, row)]
    return out


def test_series_constant_term_is_the_value(h23):
    f = x_of(h23) * y_of(h23) + constant(h23, 7)
    for P in h23.enumerate_points(2)[:-1][:6]:
        assert polynomial_series(f, P, 5)[0] == evaluate(f, P)


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------

def test_valuation_at_infinity_is_minus_weight(h23):
    x, y = x_of(h23), y_of(h23)
    assert valuation_at_infinity(x) == -3
    assert valuation_at_infinity(y) == -2
    assert valuation_at_infinity(x * x * y) == -8
    with pytest.raises(ValueError):
        valuation_at_infinity(FuncElement(h23, {}))


def test_valuation_dispatches_to_infinity(h23):
    assert valuation_at(INFINITY, x_of(h23)) == -3


def test_simple_zero_orders(h32):
    # y has a zero of order d at the origin and x splits over the fiber x = 0
    assert valuation_at(Point(0, 0), y_of(h32)) == 3
    assert valuation_at(Point(0, 0), x_of(h32)) == 1
    assert valuation_at(Point(0, 1), x_of(h32)) == 1


def test_principal_divisors_have_degree_zero(h32):
    pts = [P for P in h32.enumerate_points(4) if not P.is_infinity]
    for f in (x_of(h32), y_of(h32), x_of(h32) + y_of(h32)):
        total = valuation_at_infinity(f)
        for P in pts:
            if evaluate(f, P) == 0:
                total += valuation_at(P, f)
        assert total == 0


@given(small_terms(8), small_terms(8))
def test_valuation_is_multiplicative(h23, a, b):
    f, g = poly(h23, a), poly(h23, b)
    assume(not f.is_zero and not g.is_zero)
    P = Point(0, 0)
    assert valuation_at(P, f * g) == valuation_at(P, f) + valuation_at(P, g)
    assert valuation_at_infinity(f * g) == \
        valuation_at_infinity(f) + valuation_at_infinity(g)


@given(small_terms(8), small_terms(8))
def test_valuation_ultrametric(h23, a, b):
    f, g = poly(h23, a), poly(h23, b)
    assume(not f.is_zero and not g.is_zero)
    assume(not (f + g).is_zero)
    P = Point(0, 0)
    vf, vg = valuation_at(P, f), valuation_at(P, g)
    assert valuation_at(P, f + g) >= min(vf, vg)
    if vf != vg:
        assert valuation_at(P, f + g) == min(vf, vg)


def test_valuation_escalates_precision(h32):
    # order 13 needs more than 4(q + 1) = 12 terms
    Q = next(Q for Q in h32.enumerate_points(2)
             if not Q.is_infinity and Q.x == 1)
    f = (x_of(h32) - constant(h32, 1)) ** 13
    assert valuation_at(Q, f) == 13


def test_valuation_raises_beyond_precision_cap(h32):
    # the cap is 64(q + 1) = 192; order 193 cannot be resolved
    Q = next(Q for Q in h32.enumerate_points(2) if not Q.is_infinity and Q.x == 1)
    f = (x_of(h32) - constant(h32, 1)) ** 193
    with pytest.raises(PrecisionError):
        valuation_at(Q, f)


def test_valuation_rejects_zero_and_off_curve(h23):
    with pytest.raises(ValueError):
        valuation_at(Point(0, 0), FuncElement(h23, {}))
    with pytest.raises(ValueError):
        valuation_at(Point(1, 1), x_of(h23))


def wide_reference(curve, P, f, ypow):
    """f expanded to max_precision terms: sum_j (sum_i c_ij (x(P) + t)^i) * y^j,
    the inner sum by Horner and the products naive."""
    t = curve.tower
    n = len(ypow[0])
    out = [0] * n
    for j, yj in enumerate(ypow):
        s = []
        for i in range(max((a for a, b in f.num if b == j), default=-1), -1, -1):
            s = [t.add(t.mul(P.x, a), b) for a, b in zip(s + [0], [0] + s)]
            s[0] = t.add(s[0], f.num.get((i, j), 0))
        out = [t.add(a, b) for a, b in zip(out, naive_series_mul(t, s, yj, n))]
    return out


@pytest.mark.parametrize("name", ["h32", "h23", "h35", "add45"])
def test_exact_precision_matches_wide_reference(request, name):
    curve = request.getfixturevalue(name)
    t = curve.tower
    q = t.q
    rng = random.Random(q)
    affine = [P for P in curve.enumerate_points(4) if not P.is_infinity]
    points = [affine[0], next(P for P in affine if P.x and curve.is_rational(P))]
    points += [P for P in affine if not curve.is_rational(P)][:1]
    high = 0
    for P in points:
        ys = monomial_series(curve, P, [(0, 1)], max_precision(curve))[0]
        ypow = [[1] + [0] * (len(ys) - 1)]
        for _ in range(curve.deg_f - 1):
            ypow.append(naive_series_mul(t, ypow[-1], ys))
        lx = x_of(curve) - constant(curve, P.x)
        ly = y_of(curve) - constant(curve, P.y)

        def random_poly():
            terms = {(rng.randrange(3), rng.randrange(3)): rng.randrange(1, t.order)
                     for _ in range(rng.randint(1, 3))}
            g = poly(curve, terms)
            return constant(curve, 1) if g.is_zero else g

        for a in (0, 2, 4 * q + 5):
            for b in (0, 1):
                f = random_poly() * lx ** a * ly ** b
                wide = wide_reference(curve, P, f, ypow)
                v = next(i for i, c in enumerate(wide) if c)
                assert valuation_at(P, f) == v, (P, a, b)
                assert polynomial_series(f, P, 6) == wide[:6], (P, a, b)
                high += v > 4 * (q + 1)
    assert high


def test_one_y_development_per_call(h35, monkeypatch):
    calls = []
    develop = function_field._y_series

    def counted(curve, P, n):
        calls.append(n)
        return develop(curve, P, n)

    monkeypatch.setattr(function_field, "_y_series", counted)
    q = h35.tower.q
    P = next(P for P in h35.enumerate_points(4) if not h35.is_rational(P))
    f = (x_of(h35) - constant(h35, P.x)) ** (4 * q + 5) * (y_of(h35) - constant(h35, P.y))
    assert valuation_at(P, f) == 4 * q + 6
    assert len(calls) == 1
    valuation_at(P, y_of(h35) - constant(h35, P.y))
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# Riemann-Roch bases
# ---------------------------------------------------------------------------

def test_rr_basis_frozen_small(h32, h35):
    b = rr_basis(h32, 3)
    assert b.monomials == ((0, 0), (1, 0), (0, 1))
    assert b.pole_orders == (0, 2, 3)
    b35 = rr_basis(h35, 6)
    assert b35.monomials == ((0, 0), (0, 1), (1, 0), (0, 2))
    assert b35.pole_orders == (0, 3, 5, 6)
    assert b35.dimension == 4


def test_rr_basis_pole_orders_distinct_and_sorted(h25):
    b = rr_basis(h25, 23)
    assert list(b.pole_orders) == sorted(b.pole_orders)
    assert len(set(b.pole_orders)) == len(b.pole_orders)
    assert all(o <= 23 for o in b.pole_orders)
    assert all(j < h25.deg_f for _, j in b.monomials)


def test_rr_dimension_formula(h32, h23, h43, h25, h35, add45):
    # dim L(lam P) = lam + 1 - g once lam >= 2g - 1
    for curve in (h32, h23, h43, h25, h35, add45):
        g = curve.genus
        for lam in range(2 * g - 1, 2 * g + 14):
            assert rr_basis(curve, lam).dimension == lam + 1 - g


def test_rr_basis_edges(h23):
    assert rr_basis(h23, 0).dimension == 1
    with pytest.raises(ValueError):
        rr_basis(h23, -1)


def test_basis_functions_have_declared_poles(h35):
    b = rr_basis(h35, 10)
    for ij, o in zip(b.monomials, b.pole_orders):
        f = FuncElement(h35, {ij: 1})
        assert valuation_at_infinity(f) == -o


# ---------------------------------------------------------------------------
# section solving with divisor audit
# ---------------------------------------------------------------------------

def test_rational_point_witness(h23):
    q = h23.tower.q
    P = h23.enumerate_points(2)[0]
    w = solve_section(h23, q + 1, [(P, q + 1)])
    assert w is not None
    assert w.pole_order == q + 1
    assert w.constraints_ok
    assert w.divisor_ok
    assert w.zeros == ((P, q + 1),)
    assert w.located_degree == q + 1
    assert valuation_at(P, w.function) == q + 1


def test_nonrational_point_witness(h23):
    q = h23.tower.q
    P = next(P for P in h23.enumerate_points(4)
             if not P.is_infinity and not h23.is_rational(P))
    w = solve_section(h23, q + 1, [(P, q)])
    assert w is not None
    assert w.divisor_ok and w.constraints_ok
    assert dict(w.zeros) == {P: q, h23.frobenius(P): 1}


def test_unsatisfiable_constraints_return_none(h32):
    # a zero of order q + 2 cannot fit a pole of order at most q + 1
    P = h32.enumerate_points(2)[0]
    assert solve_section(h32, 3, [(P, 4)]) is None


def test_witness_matrix_rank(h23):
    P = h23.enumerate_points(2)[0]
    w = solve_section(h23, 4, [(P, 4)])
    assert w.matrix_rank == 3  # kernel dimension 1 inside dim-4 space


def transposed_rref_section(curve, lam, cons):
    """(f, rank) by the reduced form of the constraint matrix, one row per
    (P, c < o) and one column per monomial: the null vector with the first
    free column 1 and the others 0, by the Gauss-Jordan oracle."""
    t = curve.tower
    monos = rr_basis(curve, lam).monomials
    rows = []
    for P, o in cons:
        cols = monomial_series(curve, P, monos, o)
        rows += [[col[c] for col in cols] for c in range(o)]
    red, pivots = naive_rref(t, rows)
    free = [c for c in range(len(monos)) if c not in pivots]
    if not free:
        return None, len(pivots)
    coeff = [0] * len(monos)
    coeff[free[0]] = 1
    for row, c in zip(red, pivots):
        coeff[c] = t._neg_raw(row[free[0]])
    return FuncElement(curve, {ij: v for ij, v in zip(monos, coeff) if v}), len(pivots)


def test_least_pole_section_matches_transposed_rref(h23, h32):
    # every affine point over F_{q^4}, lambda = q and q + 1, constraints of
    # high and low order at P and one pair of points
    found = {True: 0, False: 0}
    for curve in (h23, h32):
        q = curve.tower.q
        pts = [P for P in curve.enumerate_points(4) if not P.is_infinity]
        for P, Q in zip(pts, pts[1:] + pts[:1]):
            high = q + 1 if curve.is_rational(P) else q
            for lam in (q, q + 1):
                for cons in ([(P, high)], [(P, 2)], [(P, 2), (Q, 1)]):
                    w = solve_section(curve, lam, cons)
                    f, rank = transposed_rref_section(curve, lam, cons)
                    found[f is None] += 1
                    if f is None:
                        assert w is None, (curve, P, lam, cons)
                    else:
                        assert w.function == f, (curve, P, lam, cons)
                        assert w.matrix_rank == rank
    assert found[True] and found[False]


def test_solve_section_validation(h23):
    P = h23.enumerate_points(2)[0]
    with pytest.raises(ValueError):
        solve_section(h23, 4, [(INFINITY, 1)])
    with pytest.raises(ValueError):
        solve_section(h23, 4, [(P, 0)])
    with pytest.raises(ValueError):
        solve_section(h23, 4, [(Point(1, 1), 1)])
