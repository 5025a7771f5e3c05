"""Semigroup gaps, order sequences, and the global audits."""

import random

import pytest
from hypothesis import given, strategies as st

from maxcurves import (
    INFINITY,
    FuncElement,
    Point,
    PrecisionError,
    define_curve,
    hermitian_curve,
    linear_system_info,
    order_census,
    order_sequence,
    order_sequences,
    ramification_audit,
    rr_basis,
    weierstrass,
)
from maxcurves.function_field import monomial_series, valuation_at
from maxcurves.linalg import row_echelon
from maxcurves.weierstrass import semigroup_gaps
from test_linalg import naive_rref


def naive_gaps(gens, limit):
    """Reachable-sums complement, computed by plain breadth-first closure."""
    reach = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = v + g
            if w <= limit and w not in reach:
                reach.add(w)
                frontier.append(w)
    return tuple(k for k in range(1, limit + 1) if k not in reach)


# ---------------------------------------------------------------------------
# numerical semigroups
# ---------------------------------------------------------------------------

def test_gaps_against_naive_closure():
    for gens in [(2, 3), (3, 4), (3, 5), (4, 5), (5, 7, 8), (7, 8, 9, 10)]:
        assert semigroup_gaps(gens) == naive_gaps(gens, 120)


def test_gaps_known_values():
    assert semigroup_gaps((2, 3)) == (1,)
    assert semigroup_gaps((3, 4)) == (1, 2, 5)
    assert semigroup_gaps((1,)) == ()
    assert semigroup_gaps((5, 7, 8)) == (1, 2, 3, 4, 6, 9, 11)


def test_gaps_validation():
    with pytest.raises(ValueError):
        semigroup_gaps(())
    with pytest.raises(ValueError):
        semigroup_gaps((2, 4))
    with pytest.raises(ValueError):
        semigroup_gaps((0, 3))


@given(st.integers(2, 50), st.integers(2, 50))
def test_pair_genus_closed_form(r, s):
    import math
    if math.gcd(r, s) != 1:
        with pytest.raises(ValueError):
            semigroup_gaps((r, s))
        return
    assert len(semigroup_gaps((r, s))) == (r - 1) * (s - 1) // 2


def test_nongaps_at_infinity(h35, h25):
    # positive pole orders only; 0 is not listed
    assert rr_basis(h35, 12).pole_orders[1:] == (3, 5, 6, 8, 9, 10, 11, 12)
    assert rr_basis(h25, 10).pole_orders[1:] == (2, 4, 5, 6, 7, 8, 9, 10)


def test_nongaps_match_pole_semigroup(h35, h25):
    for curve in (h35, h25):
        gaps = semigroup_gaps((curve.deg_f, curve.d))
        want = tuple(v for v in range(41) if v not in gaps)
        assert rr_basis(curve, 40).pole_orders == want


# ---------------------------------------------------------------------------
# order sequences at single points
# ---------------------------------------------------------------------------

def test_order_sequence_patterns_h35(h35):
    assert order_sequence(h35, INFINITY) == (0, 1, 3, 6)

    ram = next(P for P in h35.enumerate_points(2)
               if not P.is_infinity and P.x == 0)
    assert order_sequence(h35, ram) == (0, 1, 3, 6)

    unram = next(P for P in h35.enumerate_points(2)
                 if not P.is_infinity and P.x != 0)
    assert order_sequence(h35, unram) == (0, 1, 2, 6)

    nonrat = next(P for P in h35.enumerate_points(4)
                  if not P.is_infinity and not h35.is_rational(P))
    assert order_sequence(h35, nonrat) == (0, 1, 2, 5)


def test_order_sequence_patterns_h23(h23):
    # genus 1: every rational point carries the same sequence
    for P in list(h23.enumerate_points(2))[:5] + [INFINITY]:
        assert order_sequence(h23, P) == (0, 1, 2, 4)
    nonrat = next(P for P in h23.enumerate_points(4)
                  if not P.is_infinity and not h23.is_rational(P))
    assert order_sequence(h23, nonrat) == (0, 1, 2, 3)


def test_orders_start_zero_one_and_increase(h25):
    pts = h25.enumerate_points(4)
    rng = random.Random(1)
    for P in rng.sample(pts, 12):
        orders = order_sequence(h25, P)
        assert orders[0] == 0
        assert orders[1] == 1
        assert list(orders) == sorted(set(orders))


def test_fixed_precision_matches_wide_expansions(h23, h25, h35):
    # q + 2 terms against the former 4(q + 1) starting precision, the wide
    # side read by the Gauss-Jordan oracle: every affine point of h23,
    # samples of those of h25 and h35
    rng = random.Random(35)
    for curve, size in ((h23, None), (h25, 150), (h35, 200)):
        q = curve.tower.q
        monos = rr_basis(curve, q + 1).monomials
        pts = [P for P in curve.enumerate_points(4) if not P.is_infinity]
        if size:
            pts = rng.sample(pts, size)
        for P in pts:
            orders = order_sequence(curve, P)
            rows = monomial_series(curve, P, monos, 4 * (q + 1))
            _, pivots = naive_rref(curve.tower, rows)
            assert orders == tuple(pivots)
            assert orders[-1] <= q + 1


def test_rank_shortfall_raises_precision_error(h23, monkeypatch):
    def short(tower, rows):
        pivots = row_echelon(tower, rows)
        pivots.popitem()
        return pivots

    monkeypatch.setattr(weierstrass, "row_echelon", short)
    P = next(P for P in h23.enumerate_points(2) if not P.is_infinity)
    with pytest.raises(PrecisionError):
        order_sequence(h23, P)


def test_order_sequence_rejects_off_curve_point(h23):
    P = Point(1, 1)
    assert not h23.on_curve(P)
    with pytest.raises(ValueError):
        order_sequence(h23, P)


def test_achievable_valuations_lie_in_order_set(h23):
    # random sections only ever vanish to an order in the computed sequence
    q = h23.tower.q
    funcs = [FuncElement(h23, {ij: 1}) for ij in rr_basis(h23, q + 1).monomials]
    t = h23.tower
    rng = random.Random(23)
    pts = h23.enumerate_points(4)
    for P in rng.sample([P for P in pts if not P.is_infinity], 4):
        allowed = set(order_sequence(h23, P))
        for _ in range(8):
            coeffs = [rng.randrange(t.order) for _ in funcs]
            f = None
            for c, b in zip(coeffs, funcs):
                term = b.scaled(c)
                f = term if f is None else f + term
            if f.is_zero:
                continue
            assert valuation_at(P, f) in allowed


# ---------------------------------------------------------------------------
# the orbit fold of order_sequences
# ---------------------------------------------------------------------------

def _random_additive(tower, d, seed):
    """A fixed-seed separable additive F of degree p^e, 1 <= e <= a, over k."""
    rng = random.Random(seed)
    k = tower.elements(2)
    e = rng.randint(1, tower.a)
    coeffs = ([rng.choice(k[1:])] + [rng.choice(k) for _ in range(e - 1)]
              + [rng.choice(k[1:])])
    return define_curve(tower, coeffs, d)


@pytest.fixture(scope="module")
def oracle_curves(request, t3, t4, t5, t7, t8):
    """21 curves small enough for the per-point oracle; the last four are
    y^4 + y = x^d over F_64 (d = 3, 7, 9) and y^3 - xi * y = x^8 over F_9."""
    curves = [request.getfixturevalue(name)
              for name in ("h32", "h23", "h43", "h25", "h35", "add45")]
    curves += [hermitian_curve(t7, 4), hermitian_curve(t7, 8)]
    # ker F in k and the scalings both vary: g = gcd(d (p^s - 1), q^2 - 1) of them
    for tower, ds in ((t3, (2, 4, 7)), (t4, (3, 7)), (t5, (2, 3, 4, 7))):
        curves += [_random_additive(tower, d, seed=10 * tower.q + d) for d in ds]
    # y^4 + y = x^d over F_64: s = 2 lies strictly between 1 and 2a = 6;
    # y^3 - xi * y = x^8 over F_9: ker F = F_3 * y0 with y0^2 = xi a non-square,
    # so y0 lies outside k, and a fiber over k holds rational and other points
    curves += [define_curve(t8, (1, 0, 1), d) for d in (3, 7, 9)]
    curves.append(define_curve(t3, (t3.neg(t3.xi), 1), 8))
    assert len(curves) == 21
    return curves


def test_orders_are_constant_on_each_fiber(oracle_curves, exhaustive_orders):
    # the premise of the fold: every fiber y0 + ker F over F_{q^4} has one
    # order sequence
    for curve in oracle_curves:
        fibers = {}
        for P, orders in exhaustive_orders(curve).items():
            if not P.is_infinity:
                fibers.setdefault(P.x, []).append(orders)
        kernel = len(curve.kernel(4))
        assert all(len(seqs) == kernel and len(set(seqs)) == 1
                   for seqs in fibers.values()), curve


def test_orbit_fold_matches_exhaustive(oracle_curves, check_orbit_table):
    sizes = set()
    for curve in oracle_curves:
        check_orbit_table(curve, order_sequences(curve))
        sizes.add((len(weierstrass._orbit_group(curve)), len(curve.kernel(2))))
    assert len({r for r, _ in sizes}) > 2 and len({k for _, k in sizes}) > 2
    extra = oracle_curves[-4:]
    assert {beta for _, beta in weierstrass._orbit_group(extra[-1])} == {1}
    assert [len(order_sequences(curve)) for curve in extra] == [57, 27, 57, 8]
    # the two-entry branch: one x whose rational and other points share orders
    by_x = {}
    for P, (orders, _) in order_sequences(extra[-1]).items():
        by_x.setdefault(P.x, []).append((extra[-1].is_rational(P), orders))
    assert any(sorted(r for r, _ in entries) == [False, True]
               and entries[0][1] == entries[1][1] for entries in by_x.values())


def test_orbit_scaling_off_the_curve_raises(h35, monkeypatch):
    # all of k* as the alpha: alpha^d leaves F_5 for half of them, so
    # (alpha * x, alpha^d * y) is no automorphism of y^5 + y = x^3
    t = h35.tower
    units = [t.pow(t.xi, i) for i in range(t.q2 - 1)]
    monkeypatch.setattr(weierstrass, "_orbit_group", lambda curve: tuple(
        (alpha, t.pow(alpha, curve.d)) for alpha in units))
    with pytest.raises(RuntimeError, match="is not an automorphism"):
        order_sequences(h35)


def test_orbit_sizes_must_sum_to_the_quartic_count(h35, monkeypatch):
    # the walk's sizes total 426; a count of 427 must stop the table
    monkeypatch.setattr(type(h35), "count", lambda curve, level: 427)
    with pytest.raises(RuntimeError, match="orbit sizes sum to 426, not the 427"):
        order_sequences(h35)


# ---------------------------------------------------------------------------
# the (q + 1)-system invariants
# ---------------------------------------------------------------------------

def test_linear_system_frozen_h35(h35):
    info = linear_system_info(h35)
    assert info.dimension == 4
    assert info.n == 2
    assert info.epsilon_orders == (0, 1, 2, 5)
    assert info.frobenius_orders == (0, 1, 5)
    assert info.ramification_degree == 72
    assert info.frobenius_divisor_degree == 204


def test_linear_system_frozen_h23(h23):
    info = linear_system_info(h23)
    assert info.dimension == 4
    assert info.n == 2
    assert info.epsilon_orders == (0, 1, 2, 3)
    assert info.frobenius_orders == (0, 1, 3)
    assert info.ramification_degree == 16
    assert info.frobenius_divisor_degree == 48


def test_linear_system_frozen_h25(h25):
    info = linear_system_info(h25)
    assert info.dimension == 5
    assert info.n == 3
    assert info.ramification_degree == 52
    assert info.frobenius_divisor_degree == 190


def test_linear_system_requires_maximality(nonmax):
    with pytest.raises(ValueError):
        linear_system_info(nonmax)


# ---------------------------------------------------------------------------
# ramification audit
# ---------------------------------------------------------------------------

def test_ramification_audit_h35(h35):
    rep = ramification_audit(h35, order_sequences(h35))
    assert rep.ramified_count == 6
    assert rep.unramified_rational_count == 60
    assert (rep.weight_ramified, rep.weight_unramified) == (2, 1)
    assert rep.euler_identity_ok
    assert rep.weight_sum_ok
    assert rep.ramified_orders_ok and rep.unramified_orders_ok
    assert rep.frobenius_sum_ok
    assert rep.nonrational_generic_ok
    assert rep.nonrational_checked == 426 - 66
    assert rep.fiber_census_ok
    assert rep.all_ok


def test_ramification_audit_h23_h25(h23, h25):
    rep = ramification_audit(h23, order_sequences(h23))
    assert rep.ramified_count == 4
    assert rep.unramified_rational_count == 12
    assert (rep.weight_ramified, rep.weight_unramified) == (1, 1)
    assert rep.all_ok
    rep = ramification_audit(h25, order_sequences(h25))
    assert rep.ramified_count == 6
    assert rep.unramified_rational_count == 40
    assert (rep.weight_ramified, rep.weight_unramified) == (2, 1)
    assert rep.all_ok


def test_ramification_audit_checks_every_nonrational_point(t7):
    curve = hermitian_curve(t7, 2)
    rep = ramification_audit(curve, order_sequences(curve))
    assert rep.nonrational_checked == curve.count(4) - curve.count(2)
    assert rep.all_ok


def test_ramification_audit_preconditions(add45, h43):
    with pytest.raises(ValueError):
        ramification_audit(add45, order_sequences(add45))  # not the trace family
    with pytest.raises(ValueError):
        ramification_audit(h43, order_sequences(h43))  # n = 1 leaves no unramified weight split


# ---------------------------------------------------------------------------
# full order census
# ---------------------------------------------------------------------------

def test_order_census_h23(h23):
    c = order_census(h23, order_sequences(h23))
    assert c.points == 64
    assert c.j1_all_one
    assert c.rational_top_ok and c.nonrational_top_ok
    assert c.weierstrass_equals_rational
    assert c.ok
