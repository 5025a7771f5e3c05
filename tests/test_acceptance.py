"""Acceptance gate: ten verdicts, one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines. Every
test computes its verdict first and prints PASS or FAIL before any
assertion fires, so a red run still reports all ten outcomes.
"""

import math
import random

from maxcurves import (
    BRANCH_CONJ,
    BRANCH_FULL,
    INFINITY,
    FuncElement,
    bounds_report,
    build_code,
    cli,
    dichotomy_check,
    linear_system_info,
    min_distance_exact,
    order_census,
    order_sequence,
    order_sequences,
    ramification_audit,
    rr_basis,
    x_of,
    y_of,
)
from maxcurves.curve_model import Point
from maxcurves.function_field import solve_section, valuation_at
from maxcurves.weierstrass import semigroup_gaps


def verdict(num, ok, desc):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def test_01_rational_counts(h32, h23, h43, h25, h35, add45):
    targets = ((h32, 9), (h23, 16), (h43, 28), (h25, 46), (h35, 66), (add45, 33))
    ok = True
    for curve, want in targets:
        pts = curve.enumerate_points(2)
        q = curve.tower.q
        formula = q * q + 2 * curve.genus * q + 1
        ok = ok and len(pts) == want == formula
        ok = ok and len(set(pts)) == want
        ok = ok and all(curve.on_curve(P) for P in pts)
    assert verdict(1, ok, "exhaustive rational counts hit 9/16/28/46/66/33"), \
        "a rational point count disagrees with the maximal-count formula"


def test_02_quartic_counts(h32, h23, h35):
    ok = True
    for curve, want in ((h23, 64), (h32, 9), (h35, 426)):
        ok = ok and curve.count(4) == curve.predicted_count(2) == want
    assert verdict(2, ok, "level-4 enumeration equals the trace formula"), \
        "a level-4 count disagrees with q^4 + 1 - 2g q^2"


def test_03_divisor_degrees(h23, h35):
    def frobenius_weight(curve, P):
        nus = linear_system_info(curve).frobenius_orders
        orders = order_sequence(curve, P)
        return sum(b - a for a, b in zip(nus, orders[1:]))

    i35 = linear_system_info(h35)
    a35 = ramification_audit(h35, order_sequences(h35))
    unram35 = next(P for P in h35.enumerate_points(2)
                   if not P.is_infinity and P.x != 0)
    ok = (a35.ramified_count == 6 and a35.unramified_rational_count == 60
          and a35.weight_ramified == 2 and a35.weight_unramified == 1
          and i35.ramification_degree == 72 == 6 * 2 + 60 * 1
          and frobenius_weight(h35, INFINITY) == 4
          and frobenius_weight(h35, unram35) == 3
          and i35.frobenius_divisor_degree == 204 == 6 * 4 + 60 * 3
          and a35.frobenius_sum_ok and a35.weight_sum_ok)

    i23 = linear_system_info(h23)
    a23 = ramification_audit(h23, order_sequences(h23))
    ok = (ok and a23.ramified_count == 4 and a23.unramified_rational_count == 12
          and a23.weight_ramified == 1 and a23.weight_unramified == 1
          and i23.ramification_degree == 16 == 4 * 1 + 12 * 1
          and frobenius_weight(h23, INFINITY) == 3
          and i23.frobenius_divisor_degree == 48 == 16 * 3
          and a23.frobenius_sum_ok and a23.weight_sum_ok)
    assert verdict(3, ok, "ramification and Frobenius divisor degrees decompose"), \
        "a divisor degree does not match its pointwise decomposition"


def test_04_order_census(h23, h35):
    c23 = order_census(h23, order_sequences(h23))
    c35 = order_census(h35, order_sequences(h35))
    ok = (c23.points == 64 and c35.points == 426
          and all(c.j1_all_one and c.rational_top_ok and c.nonrational_top_ok
                  and c.weierstrass_equals_rational and c.ok
                  for c in (c23, c35)))
    assert verdict(4, ok, "full level-4 order census holds with zero exceptions"), \
        "an order sequence deviates from its predicted pattern"


def test_05_section_witnesses(h23, h35):
    rational_seen = 0
    nonrational_seen = 0
    ok = True
    for curve in (h23, h35):
        q = curve.tower.q
        for P in curve.enumerate_points(2):
            if P.is_infinity:
                continue
            w = solve_section(curve, q + 1, ((P, q + 1),))
            ok = ok and w is not None and w.divisor_ok and w.constraints_ok \
                and w.pole_order == q + 1 and dict(w.zeros) == {P: q + 1}
            rational_seen += 1
        for P in curve.enumerate_points(4):
            if curve.is_rational(P):
                continue
            # the conjugate zero rides along, so the pole needs order q + 1
            w = solve_section(curve, q + 1, ((P, q),))
            ok = ok and w is not None and w.divisor_ok and w.constraints_ok \
                and w.pole_order == q + 1 \
                and dict(w.zeros) == {P: q, curve.frobenius(P): 1}
            nonrational_seen += 1
    # every non-rational point over F_{q^4}: 64 - 16 on h23, 426 - 66 on h35
    ok = ok and rational_seen >= 50 and nonrational_seen == 48 + 360
    assert verdict(5, ok, f"{rational_seen}+{nonrational_seen} section witnesses "
                          "audited against their divisors"), \
        "a solved section failed its divisor audit"


def test_06_dichotomy_branches(h23, h35, add45):
    ok = True
    for curve in (h23, h35):
        v = dichotomy_check(curve)
        ok = ok and v.branch == BRANCH_FULL and v.product == curve.tower.q + 1
        ok = ok and v.genus_identity_ok is True
        ok = ok and v.normalization is not None and v.normalization.verified
    v = dichotomy_check(add45)
    ok = ok and v.branch == BRANCH_CONJ and v.product == 4 == add45.tower.q
    ok = ok and v.conjecture_flag is True and v.normalization is None
    assert verdict(6, ok, "both dichotomy branches certified on live instances"), \
        "a dichotomy verdict or normalization witness failed"


def test_07_genus_bounds(h32, h23, h43, h25, h35, add45):
    r35 = bounds_report(h35)
    r25 = bounds_report(h25)
    ok = (r35.castelnuovo_attained and r35.castelnuovo_value == 8 == 2 * h35.genus
          and r25.castelnuovo_attained
          and r25.castelnuovo_value == 4 == 2 * h25.genus)
    for curve in (h32, h23, h43, h25, h35, add45):
        rep = bounds_report(curve)
        q = curve.tower.q
        ok = ok and rep.lewittes_genus_ok and 2 * curve.genus <= q * (rep.m1 - 1)
        ok = ok and rep.all_ok
    assert verdict(7, ok, "rank and first-nongap genus bounds hold, two attained"), \
        "a genus bound failed or an attainment claim is wrong"


def test_08_code_distances(h32):
    c3 = build_code(h32, 3)
    d3 = min_distance_exact(c3)
    c2 = build_code(h32, 2)
    d2 = min_distance_exact(c2)
    ok = (c3.length == 8 and c3.dimension == 3 and c3.d_designed == 5
          and d3.distance == 5 and d3.attains_designed and d3.scanned > 0
          and c2.dimension == 2 and d2.distance == 6 and d2.attains_designed)
    assert verdict(8, ok, "exact code distances [8,3,5] and [8,2,6] by full scan"), \
        "an exact minimum distance disagrees with the frozen value"


def test_09_property_suites(t3, h32, h23, h43, h25, h35, add45):
    ok = True

    rng = random.Random(20260822)
    for _ in range(150):
        x, y, z = (rng.randrange(81) for _ in range(3))
        ok = ok and t3.add(x, t3.add(y, z)) == t3.add(t3.add(x, y), z)
        ok = ok and t3.mul(x, t3.mul(y, z)) == t3.mul(t3.mul(x, y), z)
        ok = ok and t3.mul(x, y) == t3.mul(y, x)
        ok = ok and t3.mul(x, t3.add(y, z)) == t3.add(t3.mul(x, y), t3.mul(x, z))
        if x:
            ok = ok and t3.mul(x, t3.inv(x)) == 1

    origin = Point(0, 0)
    parts = (FuncElement(h23, {(0, 0): 1}), x_of(h23), y_of(h23))
    fns = []
    while len(fns) < 10:
        f = FuncElement(h23, {})
        for part in parts:
            f = f + part.scaled(rng.randrange(81))
        if not f.is_zero:
            fns.append(f)
    for f in fns:
        for g in fns:
            vf = valuation_at(origin, f)
            vg = valuation_at(origin, g)
            ok = ok and valuation_at(origin, f * g) == vf + vg
            if not (f + g).is_zero:
                ok = ok and valuation_at(origin, f + g) >= min(vf, vg)

    for curve in (h32, h23, h43, h25, h35, add45):
        g = curve.genus
        for lam in range(2 * g - 1, 2 * g + 6):
            ok = ok and rr_basis(curve, lam).dimension == lam + 1 - g

    for r in range(2, 50):
        for s in range(r + 1, 51):
            if math.gcd(r, s) == 1:
                ok = ok and len(semigroup_gaps((r, s))) == (r - 1) * (s - 1) // 2
    assert verdict(9, ok, "field, valuation, dimension, and genus properties hold"), \
        "a deterministic property sweep found a counterexample"


def test_10_byte_identical_audit(capsys):
    argv = ["audit", "--p", "3", "--a", "1", "--hermitian-m", "2"]
    rc1 = cli.main(list(argv))
    out1 = capsys.readouterr().out
    rc2 = cli.main(list(argv))
    out2 = capsys.readouterr().out
    ok = rc1 == rc2 == 0 and out1.encode() == out2.encode() and len(out1) > 0
    with capsys.disabled():
        assert verdict(10, ok, "repeated audit runs are byte-identical"), \
            "audit output or exit code varied between identical runs"
