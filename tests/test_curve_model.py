"""Point enumeration and maximality against naive double-loop oracles."""

import csv
import itertools
import random
from math import gcd
from types import SimpleNamespace

import pytest

import maxcurves.curve_model as curve_model
import maxcurves.verdicts as verdicts

from maxcurves import (
    INFINITY,
    CurveModel,
    Point,
    build_tower,
    cli,
    conjecture_explore,
    define_curve,
    dichotomy_check,
    hermitian_curve,
    is_trace_shaped,
    normalize_model,
    order_sequences,
)


def naive_count(curve, level):
    """Count solutions of F(y) = x^d by scanning all coordinate pairs."""
    t = curve.tower
    els = t.elements(level)
    n = 0
    for x in els:
        xd = t.pow(x, curve.d)
        for y in els:
            if curve.f_eval(y) == xd:
                n += 1
    return n + 1


def value_census_count(curve, level):
    """Same count via a value histogram of F; one pass over each axis."""
    t = curve.tower
    els = t.elements(level)
    hist = {}
    for y in els:
        z = curve.f_eval(y)
        hist[z] = hist.get(z, 0) + 1
    return sum(hist.get(t.pow(x, curve.d), 0) for x in els) + 1


# ---------------------------------------------------------------------------
# frozen invariants of the worked instances
# ---------------------------------------------------------------------------

def test_frozen_rational_counts(h32, h23, h43, h25, h35, add45):
    expected = {h32: 9, h23: 16, h43: 28, h25: 46, h35: 66, add45: 33}
    for curve, want in expected.items():
        assert curve.count(2) == want


def test_frozen_quartic_counts(h32, h23, h35):
    assert h32.count(4) == 9
    assert h23.count(4) == 64
    assert h35.count(4) == 426


def test_frozen_genera(h32, h23, h43, h25, h35, add45, nonmax):
    got = [c.genus for c in (h32, h23, h43, h25, h35, add45, nonmax)]
    assert got == [1, 1, 3, 2, 4, 2, 6]


def test_families(h32, h23, h43, h25, h35, add45, nonmax):
    for c in (h32, h23, h43, h25, h35):
        assert c.family == "hermitian-type"
    assert add45.family == "additive-general"
    # trace-shaped left side but d does not divide q + 1
    assert nonmax.family == "additive-general"


def twisted_trace(t):
    # y -> xi*y, x -> xi*x turns T^q + T = x^2 into a*T^q + b*T = x^2, a != 1
    g = t.inv(t.pow(t.xi, 2))
    return (t.mul(t.xi, g), 0, t.mul(t.pow(t.xi, t.q), g))


# over q = 9 with d = 2; coefficients run from T up to T^9
@pytest.mark.parametrize("make,shaped,family", [
    (lambda t: (1, 0, 1), True, "hermitian-type"),
    (twisted_trace, True, "hermitian-type"),
    (lambda t: (1, 1, 1), False, "additive-general"),
    (lambda t: (1, 1), False, "additive-general"),
], ids=["a=b=1", "a!=1", "middle-term", "wrong-length"])
def test_trace_shape(t9, make, shaped, family):
    coeffs = make(t9)
    assert is_trace_shaped(t9, coeffs) is shaped
    curve = define_curve(t9, coeffs, 2)
    assert curve.family == family
    # both trace shapes are first-branch models the dichotomy normalizes
    if shaped:
        verdict = dichotomy_check(curve)
        assert verdict.branch == "nm1-equals-q-plus-1"
        assert verdict.normalization.verified


@pytest.mark.parametrize("tower", ["t2", "t3", "t4", "t5", "t7", "t8", "t9"])
def test_family_on_every_trace_model(request, tower):
    """Every a*y^q + b*y = x^m with a, b in k* and m | q + 1: for m >= 2 the
    tag, maximality and a verified normalization coincide; at m = 1 (genus 0,
    always maximal) the tag is |ker F & k| = q.  (q^2 - 1)(q + 1)/m are
    tagged, a = b = 1 among them for every m."""
    t = request.getfixturevalue(tower)
    q = t.q
    units = [c for c in t.elements(2) if c]
    for m in [m for m in range(1, q + 2) if (q + 1) % m == 0]:
        tagged = 0
        for a, b in itertools.product(units, units):
            curve = define_curve(t, (b,) + (0,) * (t.a - 1) + (a,), m)
            tag = curve.family == "hermitian-type"
            tagged += tag
            if m == 1:  # F bijective on k stays "additive-general"
                assert curve.is_maximal and tag == (len(curve.kernel(2)) == q), (a, b)
            elif tag:
                assert curve.is_maximal and normalize_model(curve).verified, (a, b, m)
            else:
                assert not curve.is_maximal, (a, b, m)
                with pytest.raises(ValueError):
                    normalize_model(curve)
        assert tagged == (q * q - 1) * (q + 1) // m, m
        assert hermitian_curve(t, m).family == "hermitian-type", m


def test_deg_f_and_e(h23, add45, t16):
    assert (h23.deg_f, h23.e) == (3, 1)
    assert (add45.deg_f, add45.e) == (2, 1)
    big = define_curve(t16, (1, 0, 1), 17)
    assert (big.deg_f, big.e) == (4, 2)
    assert big.genus == 24


# ---------------------------------------------------------------------------
# counts against the oracles
# ---------------------------------------------------------------------------

def test_counts_match_double_loop_oracle(h32, h23, h43, add45):
    assert h32.count(2) == naive_count(h32, 2)
    assert h32.count(4) == naive_count(h32, 4)
    assert h23.count(2) == naive_count(h23, 2)
    assert h23.count(4) == naive_count(h23, 4)
    assert h43.count(2) == naive_count(h43, 2)
    assert add45.count(2) == naive_count(add45, 2)


def test_counts_match_value_census(h25, h35):
    assert h25.count(2) == value_census_count(h25, 2)
    assert h35.count(2) == value_census_count(h35, 2)
    assert h35.count(4) == value_census_count(h35, 4)


@pytest.fixture(scope="module")
def mid95(t9):
    """y^9 + y^3 + 2y = x^5 over F_81: odd p, a_0 != 1 and a middle term,
    so the elimination meets leads other than 1 at both levels."""
    return define_curve(t9, (2, 1, 1), 5)


@pytest.mark.parametrize("name", ["h32", "h23", "h43", "h25", "h35", "add45", "nonmax",
                                  "mid95"])
def test_fiber_table_matches_f_eval(request, name):
    # fiber, image and kernel against the values of F at every y of the
    # level, and fiber(x) against them at every x
    curve = request.getfixturevalue(name)
    t = curve.tower
    for level in (2, 4):
        image, kernel = curve.image(level), curve.kernel(level)
        assert len(set(image)) * len(set(kernel)) == len(image) * len(kernel) \
            == t.level_order(level)
        preimages = {}
        for y in t.elements(level):
            preimages.setdefault(curve.f_eval(y), []).append(y)
        assert set(image) == set(preimages)
        assert sorted(kernel) == sorted(preimages[0])
        sizes = 0
        for x in t.elements(level):
            ys = curve.fiber(x, level)
            assert sorted(ys) == sorted(preimages.get(t.pow(x, curve.d), []))
            sizes += len(ys)
        assert sizes == curve.count(level) - 1


@pytest.mark.parametrize("tower,d", [("t3", 2), ("t5", 3), ("t4", 5), ("t3", 7)],
                         ids=["h23", "h35", "add45", "nonmax"])
def test_count_builds_no_points_and_matches_enumeration(request, tower, d):
    # fresh curves y^p + y = x^d, so neither cache is filled beforehand
    t = request.getfixturevalue(tower)
    for level in (2, 4):
        curve = define_curve(t, (1, 1), d)
        n = curve.count(level)
        assert not curve._points and list(curve._echelons) == [level]
        assert n == len(curve.enumerate_points(level))
        curve = define_curve(t, (1, 1), d)
        n = len(curve.enumerate_points(level))
        assert curve.count(level) == n


@pytest.mark.parametrize("level,adds", [(2, 10), (4, 130)])
def test_image_and_kernel_walk_the_image_not_the_level(level, adds, monkeypatch):
    # y^5 + y = x^3 over q = 5: |F(level)| = 5 or 125 and |ker F| = 5, so
    # |F(level)| + |ker F| adds where a walk of the level takes 24 or 624;
    # the images F(b) of the basis are read from a table, not counted; the
    # elimination of the n basis pairs (n steps each at most, two adds a
    # step) is counted apart from the walk
    t = build_tower(5, 1)
    curve = hermitian_curve(t, 3)
    curve.f_eval = {y: curve.f_eval(y) for y in t.elements(level)}.__getitem__
    calls = []
    eliminated = []
    real_add, real_echelon = t.add, curve_model._echelon

    def counting(x, y):
        calls.append(1)
        return real_add(x, y)

    def echelon(*args):
        before = len(calls)
        out = real_echelon(*args)
        eliminated.append(len(calls) - before)
        return out

    monkeypatch.setattr(curve_model, "_echelon", echelon)
    t.add = counting
    image, kernel = curve.image(level), curve.kernel(level)
    del t.add
    n = level * t.a
    assert sum(eliminated) <= 2 * n * n
    assert len(image) + len(kernel) == adds
    assert len(calls) - sum(eliminated) <= adds


def direct_count(curve, level):
    """The count as a direct pass: 1 + |ker F| * #{x : x^d is a value of F}."""
    t = curve.tower
    image = set(curve.image(level))
    hits = sum(1 for x in t.elements(level) if t.pow(x, curve.d) in image)
    return 1 + len(curve.kernel(level)) * hits


FIXTURE_CURVES = ["h32", "h23", "h43", "h25", "h35", "add45", "nonmax"]


@pytest.mark.parametrize("name", FIXTURE_CURVES)
def test_count_by_logs_matches_direct_pass_on_fixtures(request, name):
    curve = request.getfixturevalue(name)
    for level in (2, 4):
        assert curve._count(level) == direct_count(curve, level)
    assert_rank_count(curve.tower, curve.f_coeffs, curve.d)
    assert_quartic_count(curve.tower, curve.f_coeffs, curve.d)


# y^p + y = x^d; gcd(d, Q - 1) < d for d = 7, 10 over q = 3 and d = 9 over q = 5
# d = 17 over q = 4: the 17th powers and 0 are F_16 at level 4, so it is
# counted by ranks there
@pytest.mark.parametrize("tower,d", [("t3", 2), ("t5", 3), ("t4", 5), ("t3", 7),
                                     ("t3", 10), ("t5", 9), ("t3", 1), ("t8", 1),
                                     ("t4", 17)],
                         ids=["h23", "h35", "add45", "nonmax", "q3d10", "q5d9",
                              "q3d1", "q8d1", "q4d17"])
def test_count_by_logs_matches_direct_pass(request, tower, d):
    t = request.getfixturevalue(tower)
    curve = define_curve(t, (1, 1), d)
    for level in (2, 4):
        assert curve.count(level) == direct_count(curve, level)
    assert_rank_count(t, (1, 1), d)
    assert_quartic_count(t, (1, 1), d)


def log_count(curve, level):
    """The level count by logs over the image of F, for every d."""
    t = curve.tower
    Q = t.level_order(level)
    g = gcd(curve.d, Q - 1)
    step = (t.order - 1) // (Q - 1) * g
    powers = sum(1 for z in curve.image(level) if z and t.log(z) % step == 0)
    return 1 + len(curve.kernel(level)) * (1 + g * powers)


def assert_rank_count(t, coeffs, d):
    """A fresh curve counts level 2 by ranks or a walk of F(k), from one
    elimination and without points, as the logs and the direct pass over
    the image of F do."""
    curve = define_curve(t, coeffs, d)
    n = curve._count(2)
    assert list(curve._echelons) == [2] and not curve._points
    assert n == log_count(curve, 2) == direct_count(curve, 2)


def assert_quartic_count(t, coeffs, d):
    """A fresh curve counts level 4 by ranks or a walk of F(F_{q^4}), from
    one elimination and without points, as the logs and the direct pass
    over the image of F do."""
    curve = define_curve(t, coeffs, d)
    n = curve.count(4)
    assert list(curve._echelons) == [4] and not curve._points
    assert n == log_count(curve, 4) == direct_count(curve, 4)


@pytest.mark.parametrize("tower,m1", [("t4", 2), ("t8", 2), ("t8", 4), ("t9", 3),
                                      ("t9", 9), ("t16", 2)])
def test_rank_count_matches_logs_on_every_scanned_candidate(monkeypatch, no_pruning,
                                                            request, tower, m1):
    t = request.getfixturevalue(tower)
    tested = []

    def record(tower, coeffs, d):
        tested.append(coeffs)
        return SimpleNamespace(is_maximal=False)

    monkeypatch.setattr(verdicts, "define_curve", record)
    rep = conjecture_explore(t, m1)
    assert rep.complete and len(tested) == rep.tested
    for coeffs in tested:
        assert_rank_count(t, coeffs, t.q + 1)


# d = q + 1 (L = F_q), (q^2 - 1)/(p - 1) (L = F_p), prime to q^2 - 1 (L = k)
# and 2 or 3 (no subfield but at q = 2: level 2 by residues); every tower
# with q^4 <= 2^16, level 2 by ranks or residues and level 4 by residues
@pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                 (3, 2), (2, 4), (11, 1), (13, 1)], ids=str)
def test_rank_count_matches_logs_on_random_curves(p, a):
    t = build_tower(p, a)
    q2 = t.q2
    coprime = next(d for d in range(2, 4 * q2) if gcd(d, p * (q2 - 1)) == 1)
    rng = random.Random(p * 100 + a)
    level2 = t.elements(2)
    for d in (t.q + 1, (q2 - 1) // (p - 1), coprime, 3 if p == 2 else 2):
        for _ in range(14):
            e = rng.randint(1, a + 1)
            coeffs = [rng.choice(level2) for _ in range(e + 1)]
            coeffs[0] = coeffs[0] or 1
            coeffs[-1] = coeffs[-1] or 1
            assert_rank_count(t, coeffs, d)
            assert_quartic_count(t, coeffs, d)


def test_quartic_count_with_a_middle_coefficient(t16):
    # F = T^4 + T over q = 16: p < deg F < q, a zero coefficient in the middle
    assert_quartic_count(t16, (1, 0, 1), 17)


def test_curve_command_builds_no_quartic_table(monkeypatch, capsys):
    # without --emit the curve command counts points and lists none
    levels = []
    real = CurveModel.enumerate_points

    def recording(self, level):
        levels.append(level)
        return real(self, level)

    monkeypatch.setattr(CurveModel, "enumerate_points", recording)
    for argv in (["--p", "3", "--a", "1", "--hermitian-m", "2"],
                 ["--p", "2", "--a", "3", "--additive", "1,1", "--d", "3"],
                 ["--p", "3", "--a", "1", "--additive", "1,1", "--d", "7"]):
        assert cli.main(["curve", *argv]) == 0
    capsys.readouterr()
    assert not levels


def test_count_by_logs_when_the_powers_are_no_subfield(t8):
    # d = 3 at q = 8: the 21 cubes of F_64* and 0 are no subfield
    curve = define_curve(t8, (1, 1), 3)
    n = curve._count(2)
    assert list(curve._echelons) == [2] and not curve._points
    assert n == log_count(curve, 2) == direct_count(curve, 2)


def test_count_runs_once_per_level(monkeypatch, capsys, t4):
    calls = []
    uncached = CurveModel._count

    def counting(self, level):
        calls.append(level)
        return uncached(self, level)

    monkeypatch.setattr(CurveModel, "_count", counting)
    assert cli.main(["curve", "--p", "2", "--a", "2", "--hermitian-m", "5"]) == 0
    assert calls == [2, 4]
    calls.clear()
    built = []

    def record(tower, coeffs, d):
        built.append(coeffs)
        return define_curve(tower, coeffs, d)

    monkeypatch.setattr(verdicts, "define_curve", record)
    rep = conjecture_explore(t4, 2)
    assert rep.hits and rep.tested > len(built)
    assert calls == [2] * len(built)


def test_one_elimination_per_level(monkeypatch, t5):
    # every reader of F on a level shares one elimination; only the body
    # of _eliminate calls _basis
    calls = []
    real = curve_model._basis

    def counting(tower, level):
        calls.append(level)
        return real(tower, level)

    monkeypatch.setattr(curve_model, "_basis", counting)
    curve = hermitian_curve(t5, 3)  # fresh y^5 + y = x^3
    for level in (2, 4):
        n = curve.count(level)
        assert len(curve.kernel(level)) == 5
        assert len(curve.image(level)) == t5.level_order(level) // 5
        assert sum(len(curve.fiber(x, level)) for x in t5.elements(level)) == n - 1
        assert len(curve.enumerate_points(level)) == n
    assert sum(size for _, size in order_sequences(curve).values()) == curve.count(4)
    assert sorted(calls) == [2, 4]


def test_one_elimination_per_level_through_audit(monkeypatch, t5):
    # the full audit of a first-branch curve, normalization included,
    # eliminates F once per level
    calls = []
    real = curve_model._basis

    def counting(tower, level):
        calls.append(level)
        return real(tower, level)

    monkeypatch.setattr(curve_model, "_basis", counting)
    report = verdicts.audit(hermitian_curve(t5, 3))  # fresh y^5 + y = x^3
    assert report.dichotomy.normalization is not None
    assert report.all_identities
    assert sorted(calls) == [2, 4]


# ---------------------------------------------------------------------------
# enumeration order and membership
# ---------------------------------------------------------------------------

def test_enumeration_is_lex_ordered_with_infinity_last(h23):
    pts = h23.enumerate_points(2)
    assert pts[-1] is INFINITY
    affine = pts[:-1]
    t = h23.tower
    keys = [(t.coeffs(P.x), t.coeffs(P.y)) for P in affine]
    assert keys == sorted(keys)
    assert len(set(affine)) == len(affine)
    assert all(h23.on_curve(P) for P in affine)


def test_enumeration_levels_nest(h23):
    assert set(h23.enumerate_points(2)) <= set(h23.enumerate_points(4))
    with pytest.raises(ValueError):
        h23.enumerate_points(1)
    with pytest.raises(ValueError):
        h23.count(1)


def test_enumeration_is_cached(h23):
    assert h23.enumerate_points(2) is h23.enumerate_points(2)


def test_on_curve(h32):
    assert h32.on_curve(INFINITY)
    assert h32.on_curve(Point(0, 0))
    assert h32.on_curve(Point(0, 1))
    assert not h32.on_curve(Point(1, 0))


# ---------------------------------------------------------------------------
# maximality and forced counts
# ---------------------------------------------------------------------------

def test_maximality_reports(h32, h23, h43, h25, h35, add45):
    for c in (h32, h23, h43, h25, h35, add45):
        rep = c.maximality_report()
        assert rep.maximal
        assert rep.actual == rep.expected == c.count(2)
        assert c.is_maximal


def test_nonmaximal_instance(nonmax):
    rep = nonmax.maximality_report()
    assert not rep.maximal
    assert rep.actual == 10
    assert rep.expected == 46
    assert not nonmax.is_maximal
    with pytest.raises(ValueError):
        nonmax.predicted_count(2)


def test_predicted_count_formula(h23):
    # q^(2j) + 1 - 2g(-q)^j with q = 3, g = 1
    assert h23.predicted_count(1) == 16
    assert h23.predicted_count(2) == 64
    assert h23.predicted_count(3) == 784
    with pytest.raises(ValueError):
        h23.predicted_count(0)


# ---------------------------------------------------------------------------
# point structure maps
# ---------------------------------------------------------------------------

def test_frobenius_and_rationality(h23):
    assert h23.frobenius(INFINITY) is INFINITY
    assert h23.point_level(INFINITY) == 1
    assert h23.is_rational(INFINITY)
    pts4 = h23.enumerate_points(4)
    rational = [P for P in pts4 if h23.is_rational(P)]
    assert len(rational) == 16
    for P in pts4:
        assert h23.is_rational(P) == (h23.point_level(P) <= 2)
        Q = h23.frobenius(P)
        assert h23.on_curve(Q)
        if h23.is_rational(P):
            assert Q == P
        else:
            assert Q != P
            assert h23.frobenius(Q) == P
            assert h23.point_level(P) == 4


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------

def test_define_curve_validation(t3):
    with pytest.raises(ValueError):
        define_curve(t3, (), 2)
    with pytest.raises(ValueError):
        define_curve(t3, (0, 1), 2)  # a_0 = 0
    with pytest.raises(ValueError):
        define_curve(t3, (1, 0), 2)  # leading zero
    with pytest.raises(ValueError):
        define_curve(t3, (1, 1), 3)  # d divisible by p
    with pytest.raises(ValueError):
        define_curve(t3, (1, 1), 0)
    x4 = next(x for x in t3.elements(4) if not t3.in_level(x, 2))
    with pytest.raises(ValueError):
        define_curve(t3, (x4, 1), 2)  # coefficient outside k
    with pytest.raises(ValueError):
        define_curve(t3, (1, 3 ** 5), 2)  # code outside the ambient field
    define_curve(t3, (1,), 2)  # e = 0 is a legal (rational) degenerate model


def test_hermitian_curve_validation(t3):
    with pytest.raises(ValueError):
        hermitian_curve(t3, 3)  # 3 does not divide q + 1 = 4
    assert hermitian_curve(t3, 4).d == 4


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def test_points_to_csv(h32, tmp_path):
    from maxcurves import points_to_csv
    path = tmp_path / "pts.csv"
    points_to_csv(h32, h32.enumerate_points(2), path)
    rows = list(csv.reader(open(path)))
    assert rows[0] == ["x", "y", "level"]
    assert len(rows) == 1 + 9
    assert rows[-1] == ["inf", "inf", "1"]
    t = h32.tower
    body = rows[1:-1]
    for row, P in zip(body, h32.enumerate_points(2)[:-1]):
        assert row[0] == ":".join(str(c) for c in t.coeffs(P.x))
        assert row[2] == str(h32.point_level(P))
        assert row[2] in ("1", "2")
