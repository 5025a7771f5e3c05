"""Bounds, the nm1 dichotomy, model normalization, the grid scans, and
the audit that joins the checks into one verdict."""

import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

import maxcurves.verdicts as verdicts

from maxcurves import (
    BRANCH_CONJ,
    BRANCH_FULL,
    BRANCH_NONE,
    Skipped,
    audit,
    bounds_report,
    build_tower,
    castelnuovo_bound,
    conjecture_explore,
    define_curve,
    dichotomy_check,
    embedding_check,
    genus_interval_classify,
    hermitian_curve,
    normalize_model,
    order_census,
    order_sequences,
    ramification_audit,
    x_of,
    y_of,
)
from maxcurves.weierstrass import semigroup_gaps


# ---------------------------------------------------------------------------
# genus bounds
# ---------------------------------------------------------------------------

def test_castelnuovo_values():
    assert castelnuovo_bound(1, 2) == 2
    assert castelnuovo_bound(1, 3) == 6
    assert castelnuovo_bound(2, 4) == 4
    assert castelnuovo_bound(2, 5) == 8
    assert castelnuovo_bound(3, 5) == 4
    with pytest.raises(ValueError):
        castelnuovo_bound(0, 5)
    with pytest.raises(ValueError):
        castelnuovo_bound(2, 1)


def test_bounds_reports_all_pass(h32, h23, h43, h25, h35, add45):
    for curve in (h32, h23, h43, h25, h35, add45):
        rep = bounds_report(curve)
        assert rep.all_ok
        assert rep.hasse_weil_ok
        assert rep.castelnuovo_ok
        assert rep.lewittes_genus_ok and rep.lewittes_count_ok
        assert rep.global_genus_ok
        assert rep.rational_count == curve.count(2)


def test_bounds_first_nongap_and_attainment(h32, h23, h43, h25, h35, add45):
    m1 = {h32: 2, h23: 2, h43: 3, h25: 2, h35: 3, add45: 2}
    n = {h32: 1, h23: 2, h43: 1, h25: 3, h35: 2, add45: 2}
    for curve in m1:
        rep = bounds_report(curve)
        assert rep.m1 == m1[curve]
        assert rep.n == n[curve]
        # every worked instance meets its Castelnuovo value exactly
        assert rep.castelnuovo_attained
        assert 2 * curve.genus == rep.castelnuovo_value


def test_bounds_hold_even_off_maximality(nonmax):
    rep = bounds_report(nonmax)
    assert not rep.hasse_weil_ok  # 10 points, far from 46
    assert rep.lewittes_count_ok
    assert rep.n == 0  # d = 7 > q + 1 collapses the system
    assert rep.castelnuovo_value is None
    assert rep.castelnuovo_ok and not rep.castelnuovo_attained
    assert not rep.all_ok


# ---------------------------------------------------------------------------
# normalization of twisted trace models
# ---------------------------------------------------------------------------

def trace_model(tower, a, b, m):
    """The curve a*y^q + b*y = x^m."""
    return define_curve(tower, (b,) + (0,) * (tower.a - 1) + (a,), m)


def test_normalize_identity_model(t3):
    res = normalize_model(trace_model(t3, 1, 1, 2))
    assert res.power_index == 0
    assert res.y_scale == 1
    assert res.x_scale == 1
    assert res.verified


def test_normalize_twisted_round_trip(t3, t5):
    # substitute y -> beta y, x -> gamma x in the plain trace model and
    # confirm the computed scales restore a verified trace form
    for tower, m in ((t3, 2), (t5, 3)):
        q = tower.q
        for be in (1, 2, 3):
            for ge in (1, 2):
                beta = tower.pow(tower.xi, be)
                gamma = tower.pow(tower.xi, ge)
                gm = tower.inv(tower.pow(gamma, m))
                a = tower.mul(tower.pow(beta, q), gm)
                b = tower.mul(beta, gm)
                res = normalize_model(trace_model(tower, a, b, m))
                assert res.verified
                assert 0 <= res.power_index < (q + 1) // m
                assert res.y_scale != 0 and res.x_scale != 0


def test_normalize_y_scale_is_the_trace_solution(t3, t4, t5, t7, t8):
    # oracle for the closed form: on every model a*y^q + b*y = x^m that
    # normalizes, y_scale is the one nonzero eps of k with
    # Tr(eps*alpha) = u*F(alpha) for alpha in {1, xi}, u = xi^(-i*m)
    normalized = 0
    for tower in (t3, t4, t5, t7, t8):
        q = tower.q
        units = tower.elements(2)[1:]

        def tr(z):
            return tower.add(z, tower.pow(z, q))

        for m in range(2, q + 2):
            if (q + 1) % m:
                continue
            for a, b in itertools.product(units, repeat=2):
                curve = trace_model(tower, a, b, m)
                try:
                    res = normalize_model(curve)
                except ValueError:
                    continue
                normalized += 1
                assert res.verified
                u = tower.pow(tower.xi, -res.power_index * m)
                targets = [(alpha, tower.mul(u, curve.f_eval(alpha)))
                           for alpha in (1, tower.xi)]
                solutions = [eps for eps in units
                             if all(tr(tower.mul(eps, alpha)) == t for alpha, t in targets)]
                assert solutions == [res.y_scale]
    assert normalized == 771


def test_normalization_residual_rejects_a_wrong_scale(t5):
    # the residual behind `verified` vanishes at the computed y scale s
    # and not at s * xi, so the check can fail
    tower, m = t5, 3
    q = tower.q
    gm = tower.inv(tower.pow(tower.xi, 2 * m))
    a = tower.mul(tower.pow(tower.xi, q), gm)
    b = tower.mul(tower.xi, gm)
    curve = trace_model(tower, a, b, m)
    res = normalize_model(curve)
    ex = x_of(curve).scaled(res.x_scale)

    def residual(s):
        ey = y_of(curve).scaled(s)
        return ey ** q + ey - ex ** m

    assert res.verified and residual(res.y_scale).is_zero
    assert not residual(tower.mul(res.y_scale, tower.xi)).is_zero


def refusal(family, m):
    """The whole text of normalize_model's ValueError."""
    return (f"^normalization needs a hermitian-type model with m >= 2, "
            f"not {family} with m = {m}$")


def test_normalize_rejects_degenerate_left_side(t3):
    # -b/a = xi is not a (q-1)-th power, so F is injective on k: the model
    # is neither maximal nor of the trace family
    b = t3.neg(t3.xi)
    with pytest.raises(ValueError, match=refusal("additive-general", 2)):
        normalize_model(trace_model(t3, 1, b, 2))


def test_normalize_validation(t3, add45):
    with pytest.raises(ValueError):
        normalize_model(trace_model(t3, 1, 1, 3))  # m does not divide q + 1
    with pytest.raises(ValueError, match=refusal("additive-general", 5)):
        normalize_model(trace_model(t3, 1, 1, 5))  # nor here, past define_curve
    with pytest.raises(ValueError, match=refusal("hermitian-type", 1)):
        normalize_model(trace_model(t3, 1, 1, 1))  # the trace family, but m = 1
    with pytest.raises(ValueError, match=refusal("additive-general", 5)):
        normalize_model(add45)  # maximal, but F = T^2 + T over F_16
    with pytest.raises(ValueError):
        normalize_model(trace_model(t3, 0, 1, 2))
    with pytest.raises(ValueError):
        normalize_model(trace_model(t3, 1, 0, 2))


# ---------------------------------------------------------------------------
# the nm1 dichotomy
# ---------------------------------------------------------------------------

def test_dichotomy_first_branch(h23, h25, h35):
    for curve in (h23, h25, h35):
        v = dichotomy_check(curve)
        assert v.branch == BRANCH_FULL
        assert v.product == v.q + 1
        assert v.genus_identity_ok
        assert 2 * v.genus == (v.m1 - 1) * (v.q - 1)
        assert v.conjecture_flag is None
        assert v.normalization is not None and v.normalization.verified


def test_dichotomy_second_branch(h32, h43, add45):
    for curve in (h32, h43, add45):
        v = dichotomy_check(curve)
        assert v.branch == BRANCH_CONJ
        assert v.product == v.q
        assert v.conjecture_flag is True
        assert v.genus_identity_ok is None
        assert v.normalization is None


def test_dichotomy_second_branch_large(t16):
    curve = define_curve(t16, (1, 0, 1), 17)
    v = dichotomy_check(curve)
    assert (v.q, v.genus, v.n, v.m1) == (16, 24, 4, 4)
    assert v.branch == BRANCH_CONJ
    assert v.conjecture_flag is True


def _invariants_only(q, genus, deg_f, d):
    """A maximal curve known only by the invariants dichotomy_check reads.

    n and m1 come from the pole orders deg_f and d at infinity.  d does not
    divide q + 1, so the family is "additive-general" and no normalization
    is attempted, so no field is needed.
    """
    assert (q + 1) % d
    return SimpleNamespace(is_maximal=True, tower=SimpleNamespace(q=q),
                           genus=genus, deg_f=deg_f, d=d, family="additive-general")


def test_dichotomy_synthetic_instances(t7):
    v = dichotomy_check(hermitian_curve(t7, 4))
    assert (v.q, v.genus, v.n, v.m1) == (7, 9, 2, 4)
    assert v.branch == BRANCH_FULL and v.genus_identity_ok
    v = dichotomy_check(_invariants_only(7, 8, 4, 7))
    assert (v.q, v.genus, v.n, v.m1) == (7, 8, 2, 4)
    assert v.branch == BRANCH_FULL and v.genus_identity_ok is False
    assert v.normalization is None
    v = dichotomy_check(hermitian_curve(t7, 8))
    assert (v.q, v.genus, v.n, v.m1) == (7, 21, 1, 7)
    assert v.branch == BRANCH_CONJ and v.conjecture_flag
    v = dichotomy_check(_invariants_only(7, 5, 7, 3))
    assert (v.q, v.genus, v.n, v.m1) == (7, 5, 2, 3)
    assert v.branch == BRANCH_NONE
    assert v.genus_identity_ok is None and v.conjecture_flag is None


def test_dichotomy_requires_maximality(nonmax):
    with pytest.raises(ValueError):
        dichotomy_check(nonmax)


# ---------------------------------------------------------------------------
# genus interval classification
# ---------------------------------------------------------------------------

def test_interval_frozen_instances(h32, h43, h35, add45):
    cls = genus_interval_classify(5, 4, n=2)  # the (3, 5) curve
    assert cls.t == 2 and cls.attains_upper and cls.consistent
    cls = genus_interval_classify(4, 2, n=2)  # the additive d = 5 curve
    assert cls.t == 2 and not cls.attains_upper
    assert cls.upper_bound == 4.5 and cls.consistent
    cls = genus_interval_classify(3, 3, n=1)  # the full norm-trace curve
    assert cls.t == 1 and cls.attains_upper and cls.consistent
    cls = genus_interval_classify(2, 1, n=1)
    assert cls.t == 1 and cls.attains_upper and cls.consistent


def test_interval_without_n_leaves_consistency_open():
    cls = genus_interval_classify(5, 4)
    assert cls.n is None and cls.consistent is None


@given(st.integers(2, 9), st.integers(1, 100))
def test_interval_brackets_two_genus(q, g):
    if 2 * g > (q - 1) * q:
        with pytest.raises(ValueError):
            genus_interval_classify(q, g)
        return
    cls = genus_interval_classify(q, g)
    assert cls.t >= 1
    assert cls.next_upper < 2 * g <= cls.upper_bound
    assert cls.attains_upper == (cls.upper_bound == 2 * g)


def test_interval_validation():
    with pytest.raises(ValueError):
        genus_interval_classify(1, 1)
    with pytest.raises(ValueError):
        genus_interval_classify(5, 0)


# ---------------------------------------------------------------------------
# the quarter-genus witness
# ---------------------------------------------------------------------------

def _quarter_genus_witness(tower):
    """dichotomy_check of y^q + y = x^((q+1)/2), the (q-1)^2/4 witness."""
    q = tower.q
    curve = hermitian_curve(tower, (q + 1) // 2)
    assert curve.is_maximal
    v = dichotomy_check(curve)
    assert v.genus == (q - 1) ** 2 // 4
    assert v.branch == BRANCH_FULL and v.genus_identity_ok
    assert v.normalization is not None and v.normalization.verified
    return v


def test_quarter_genus_small_odd_q(t3, t5):
    for tower in (t3, t5):
        _quarter_genus_witness(tower)


def test_quarter_genus_q7(t7):
    v = _quarter_genus_witness(t7)
    assert v.m1 == 4 and v.genus == 9
    # m = 5 is the only multiplicity strictly between (q+1)/2 and q-1
    # prime to q; the densest semigroup <5, 7, 8> has too small a genus
    assert len(semigroup_gaps((5, 7, 8))) == 7 < v.genus


# ---------------------------------------------------------------------------
# the projective embedding check
# ---------------------------------------------------------------------------

def test_embedding_rationality(h32, h23, h43, h35):
    for curve in (h32, h23, h43, h35):
        rep = embedding_check(curve, order_sequences(curve))
        assert rep.ok
        assert rep.matches and rep.infinity_ok
        assert rep.points_checked == curve.count(4) - 1
        assert rep.rational_points == curve.count(2) - 1
        assert rep.rational_images == rep.rational_points


def test_embedding_preconditions(t3, add45, nonmax):
    cases = [
        (add45, "supports the trace family only"),  # F = T^2 + T over F_16
        (nonmax, "supports the trace family only"),  # d = 7 does not divide q + 1
        (hermitian_curve(t3, 1), r"needs n \* d = q \+ 1"),  # n * d = 3 != 4
    ]
    for curve, message in cases:
        with pytest.raises(ValueError, match=message):
            embedding_check(curve, order_sequences(curve))


# ---------------------------------------------------------------------------
# the audit verdict
# ---------------------------------------------------------------------------

def test_audit_sections_and_verdict(h23, add45):
    rep = audit(h23)
    assert rep.all_identities
    assert rep.ramification.all_ok and rep.embedding.ok
    assert rep.dichotomy.normalization.verified
    assert rep.interval_classification.n == rep.linear_system.n
    rep = audit(add45)
    assert rep.all_identities
    assert rep.ramification == Skipped(
        "the ramification audit supports the trace family only")
    assert rep.embedding == Skipped(
        "the embedding check supports the trace family only")
    with pytest.raises(ValueError):
        audit(define_curve(h23.tower, (1, 1), 7))  # not maximal


def test_twisted_audits_match_their_normal_form(t2, t3, t4, t5):
    # every maximal a*y^q + b*y = x^m (a, b in k*, 2 <= m | q + 1) with q <= 5
    # is tagged "hermitian-type" and audits as y^q + y = x^m does: the
    # scaling to it fixes P_inf, keeps L((q+1)P_inf) and keeps rationality
    sections = ("ramification", "order_census", "embedding", "linear_system",
                "interval_classification")
    audited = 0
    for t in (t2, t3, t4, t5):
        units = [c for c in t.elements(2) if c]
        for m in range(2, t.q + 2):
            if (t.q + 1) % m:
                continue
            normal = audit(hermitian_curve(t, m))
            for a, b in itertools.product(units, units):
                curve = trace_model(t, a, b, m)
                if not curve.is_maximal:
                    continue
                rep = audit(curve)
                audited += 1
                assert curve.family == "hermitian-type" and rep.all_identities, (t, a, b, m)
                for name in sections:
                    assert getattr(rep, name) == getattr(normal, name), (t, a, b, m, name)
                assert isinstance(rep.ramification, Skipped) == (m == t.q + 1), (t, a, b, m)
    assert audited == 186


def test_audit_classifies_the_genus_before_the_orbit_fold(t3, monkeypatch):
    def no_fold(curve):
        raise AssertionError("the orbit fold ran before the genus was classified")

    monkeypatch.setattr(verdicts, "order_sequences", no_fold)
    with pytest.raises(ValueError, match="genus must be positive to classify"):
        audit(hermitian_curve(t3, 1))  # genus 0


def _spoil(fn, **changes):
    return lambda *args, **kwargs: replace(fn(*args, **kwargs), **changes)


def _spoil_normalization(fn):
    def spoiled(curve):
        v = fn(curve)
        return replace(v, normalization=replace(v.normalization, verified=False))
    return spoiled


@pytest.mark.parametrize("name,spoil", [
    ("ramification_audit", lambda fn: _spoil(fn, all_ok=False)),
    ("order_census", lambda fn: _spoil(fn, ok=False)),
    ("embedding_check", lambda fn: _spoil(fn, ok=False)),
    ("dichotomy_check", lambda fn: _spoil(fn, branch=BRANCH_NONE)),
    ("dichotomy_check", lambda fn: _spoil(fn, genus_identity_ok=False)),
    ("dichotomy_check", _spoil_normalization),
    ("genus_interval_classify", lambda fn: _spoil(fn, consistent=False)),
], ids=["ramification", "census", "embedding", "branch", "genus-identity",
        "normalization", "interval"])
def test_audit_verdict_needs_every_check(h23, monkeypatch, name, spoil):
    import maxcurves.verdicts as verdicts
    monkeypatch.setattr(verdicts, name, spoil(getattr(verdicts, name)))
    assert audit(h23).all_identities is False


def test_audit_computes_each_order_sequence_once(h35, monkeypatch, check_orbit_table):
    # one order_sequence per class of x with points, and one at P_inf: 7 for
    # the 426 points, one table entry each
    import maxcurves.verdicts as verdicts
    import maxcurves.weierstrass as weierstrass
    seen = []
    maps = []
    sequence = weierstrass.order_sequence
    sequences = verdicts.order_sequences

    def counted(curve, P):
        seen.append(P)
        return sequence(curve, P)

    def kept(curve):
        maps.append(sequences(curve))
        return maps[-1]

    monkeypatch.setattr(weierstrass, "order_sequence", counted)
    monkeypatch.setattr(verdicts, "order_sequences", kept)
    rep = audit(h35)
    assert rep.all_identities
    assert len(seen) == len(set(seen)) == 7
    assert rep.ramification.nonrational_checked == 426 - 66
    assert len(maps) == 1
    table = maps[0]
    assert len(table) == 7
    assert sum(size for _, size in table.values()) == 426
    check_orbit_table(h35, table)


def test_audit_never_lists_the_quartic_points(h35, monkeypatch):
    # the orbit table comes from classes of x, one fiber(x, 4) each; the
    # level-4 points are left to --emit and the test oracles
    from maxcurves.curve_model import CurveModel
    real_points, real_fiber = CurveModel.enumerate_points, CurveModel.fiber
    xs = []

    def guarded(curve, level):
        if level == 4:
            raise AssertionError("enumerate_points(4) called by the audit")
        return real_points(curve, level)

    def recording(curve, x, level):
        if level == 4:
            xs.append(x)
        return real_fiber(curve, x, level)

    monkeypatch.setattr(CurveModel, "enumerate_points", guarded)
    monkeypatch.setattr(CurveModel, "fiber", recording)
    assert audit(h35).all_identities
    # q = 5, d = 3: g = 12, so the classes are {0} and the residues r mod
    # 52 under r -> 25 r: 4 fixed (r = 0 mod 13) and 24 pairs
    assert len(xs) == len(set(xs)) == 1 + 4 + 24


def _read(reader, curve, table):
    try:
        return reader(curve, table)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_readers_agree_on_any_orbit_partition(h23, h25, h35, add45, nonmax, t7,
                                              exhaustive_orders):
    # the orbit table and the trivial one, {P: (exhaustive orders, 1)},
    # must give every reader the same report or the same ValueError
    readers = (ramification_audit, order_census, embedding_check)
    h87 = hermitian_curve(t7, 8)
    raises = {h87: (True, False, False),  # n = 1: no unramified weight split
              add45: (True, False, True),  # not the trace family, n * d != q + 1
              nonmax: (True, False, True)}  # not maximal, not the trace family
    for curve in (h23, h25, h35, hermitian_curve(t7, 4), h87, add45, nonmax):
        table = order_sequences(curve)
        trivial = {P: (orders, 1) for P, orders in exhaustive_orders(curve).items()}
        assert len(table) < len(trivial), curve
        reports = [(_read(r, curve, table), _read(r, curve, trivial)) for r in readers]
        for orbit_report, trivial_report in reports:
            assert orbit_report == trivial_report, curve
        raised = tuple(isinstance(report, tuple) for report, _ in reports)
        assert raised == raises.get(curve, (False, False, False)), curve


# ---------------------------------------------------------------------------
# the second-branch grid scan
# ---------------------------------------------------------------------------

def test_conjecture_scan_q4(t4):
    rep = conjecture_explore(t4, 2)
    assert rep.complete
    assert rep.d == 5
    assert rep.tested == 5
    assert rep.skipped_equivalent == 10
    assert rep.spent == rep.tested * 16
    assert len(rep.hits) == 1
    hit = rep.hits[0]
    assert hit.count == 33 and hit.genus == 2 and hit.n == 2
    assert hit.two_g_matches and hit.n_m1_matches
    # the reported representative is equivalent to the plain model (1, 1):
    # rescaling x by a d-th power maps a_0 to a_0 * c^(1 - m1)
    t = t4
    scalers = {t.pow(z, 5) for z in t.elements(2) if z}
    orbit = {t.mul(hit.f_coeffs[0], t.pow(c, -1)) for c in scalers}
    assert 1 in orbit
    assert hit.f_coeffs[1] == 1


def test_conjecture_scan_q2(t2):
    rep = conjecture_explore(t2, 2)
    assert rep.complete
    assert rep.tested == 3 and rep.skipped_equivalent == 0
    assert len(rep.hits) == 1
    assert rep.hits[0].f_coeffs == (1, 1)
    assert rep.hits[0].count == 9


def test_conjecture_scan_partial_budget(t4):
    rep = conjecture_explore(t4, 2, budget=32)
    assert not rep.complete
    assert rep.tested == 2
    assert rep.skipped_equivalent == 0
    assert rep.spent == 32
    assert rep.budget == 32


def orbit_min_scan(tower, m1, d, limit=None):
    """The exhaustive filter: (product index, candidate) for each candidate that
    no scaling row makes lex-smaller, up to limit + 1 of them, and the grid size."""
    q, p = tower.q, tower.p
    e = 0
    while p ** e < m1:
        e += 1
    level2 = tower.elements(2)
    nonzero = [z for z in level2 if z]
    scalers = sorted({tower.pow(z, math.gcd(d, q * q - 1)) for z in nonzero})
    scale_rows = [[tower.pow(c, p ** i - m1) for i in range(e)] for c in scalers]
    rank, mul = tower.lex_rank, tower.mul

    def orbit_min(cand):
        key = [rank(v) for v in cand]
        for row in scale_rows:
            if [rank(mul(v, s)) for v, s in zip(cand, row)] < key:
                return False
        return True

    grid = itertools.product(nonzero, *[level2] * (e - 1))
    reps = (ic for ic in enumerate(grid) if orbit_min(ic[1]))
    if limit is not None:
        reps = itertools.islice(reps, limit + 1)
    return list(reps), (q * q - 1) * q ** (2 * (e - 1))


# (p, a, m1, d, limit): e = 3 at (2, 3, 8); the limit keeps its oracle to
# the first 3000 representatives, about a tenth of the grid
ORBIT_CASES = [(2, 4, 4, 17, None), (2, 3, 4, 3, None), (2, 3, 8, 9, 3000),
               (3, 2, 9, 10, None), (5, 1, 5, 6, None), (2, 2, 2, 5, None)]


@pytest.mark.parametrize("p,a,m1,d,limit", ORBIT_CASES, ids=str)
def test_scan_walks_the_orbit_min_representatives(monkeypatch, no_pruning,
                                                  p, a, m1, d, limit):
    tower = build_tower(p, a)
    unit = tower.q ** 2
    reps, total = orbit_min_scan(tower, m1, d, limit)
    seen = []

    def record(tower, coeffs, d):
        seen.append(coeffs[:-1])
        return SimpleNamespace(is_maximal=False)

    monkeypatch.setattr(verdicts, "define_curve", record)
    k = len(reps) if limit is None else limit
    rep = conjecture_explore(tower, m1, d=d, budget=k * unit)
    assert seen == [c for _, c in reps[:k]]
    assert rep.tested == k and rep.complete == (limit is None)
    assert rep.skipped_equivalent == (total if limit is None else reps[k][0]) - k
    # the candidates of the first head; stops at its last and at the next head's first
    first = sum(1 for _, c in reps if c[:-1] == reps[0][1][:-1])
    for n, extra in ((0, 0), (0, unit - 1), (1, 0), (5, 3), (len(reps) // 2, 0),
                     (len(reps) - 1, unit - 1), (first - 1, 0), (first - 1, unit - 1),
                     (first, 0), (first, unit - 1)):
        if n >= len(reps):
            continue
        rep = conjecture_explore(tower, m1, d=d, budget=n * unit + extra)
        assert not rep.complete
        assert rep.tested == n and rep.spent == n * unit
        assert rep.skipped_equivalent == reps[n][0] - n


@pytest.mark.parametrize("p,a,m1,d,limit", ORBIT_CASES, ids=str)
def test_kernel_census_matches_the_elimination(monkeypatch, no_pruning,
                                               p, a, m1, d, limit):
    tower = build_tower(p, a)
    kernel_census = verdicts._kernel_census
    censuses = {}
    walked = []

    def census(tower, table, head):
        counts = kernel_census(tower, table, head)
        if len(table[0]) == tower.q ** 2 - 1:  # over k*, not the subfield branch's dual table
            censuses[head] = counts
        return counts

    def record(tower, coeffs, d):
        walked.append(coeffs)
        return SimpleNamespace(is_maximal=False)

    monkeypatch.setattr(verdicts, "_kernel_census", census)
    monkeypatch.setattr(verdicts, "define_curve", record)
    budget = (1 << 22) if limit is None else limit * tower.q ** 2
    rep = conjecture_explore(tower, m1, d=d, budget=budget)
    assert len(walked) == rep.tested
    for coeffs in walked:
        kernel = define_curve(tower, coeffs, d).kernel(2)
        assert 1 + censuses[coeffs[:-2]][coeffs[-2]] == len(kernel)


def scan_grid(d_max=lambda q: q + 1):
    """(p, a, e, d) for every tower with q <= 9, every m1 = p^e and every
    d <= d_max(q) prime to p."""
    for p, a in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]:
        for e in range(1, a + 1):
            for d in range(2, d_max(p ** a) + 1):
                if d % p:
                    yield p, a, e, d


def test_maximal_kernels_match_the_count_identity():
    # a size is kept iff some hits in range gives 1 + K(1 + g*hits) = maximal;
    # every d <= q^2 + 1, so every g = gcd(d, q^2 - 1) occurs
    for p, a, e, d in scan_grid(lambda q: q * q + 1):
        q, m1 = p ** a, p ** e
        g = math.gcd(d, q * q - 1)
        maximal = q * q + (m1 - 1) * (d - 1) * q + 1
        expect = {k for k in (p ** j for j in range(e + 1))
                  if any(1 + k * (1 + g * h) == maximal
                         for h in range(min(q * q // k - 1, (q * q - 1) // g) + 1))}
        assert verdicts._maximal_kernels(q, p, e, d) == expect, (p, a, e, d)


def test_pruned_scan_reports_equal_the_full_scan(request):
    towers, pruned = {}, {}
    # only the (2, 3, 8) scans walk more than 3000 candidates; capped
    # there, the unpruned side takes about a second in all
    for p, a, e, d in scan_grid():
        tower = towers.setdefault((p, a), build_tower(p, a))
        for budget in (min(1 << 22, 3000 * tower.q ** 2), 5 * tower.q ** 2):
            pruned[p, a, e, d, budget] = conjecture_explore(tower, p ** e, d=d,
                                                            budget=budget)
    request.getfixturevalue("no_pruning")  # both rules off from here on
    for (p, a, e, d, budget), rep in pruned.items():
        full = conjecture_explore(towers[p, a], p ** e, d=d, budget=budget)
        assert rep == full, (p, a, p ** e, d, budget)


def test_kernel_rule_cuts_the_curves_built(monkeypatch, t8, t16):
    built = []

    def record(tower, coeffs, d):
        built.append(coeffs)
        return define_curve(tower, coeffs, d)

    monkeypatch.setattr(verdicts, "define_curve", record)
    for tower, m1, d, count in ((t16, 4, None, 3), (t8, 4, 3, 2), (t8, 8, None, 1)):
        built.clear()
        rep = conjecture_explore(tower, m1, d=d)
        assert rep.complete and rep.tested > len(built) == count
        assert built == [hit.f_coeffs for hit in rep.hits]


def scan_counts(monkeypatch, tower, m1, d, budget=verdicts.SCAN_BUDGET):
    """(the scan's count, candidate) for every candidate that reaches
    `_scan_count`; each is then built, as if its count were the maximal one."""
    q, counts, built = tower.q, [], []
    scan_count = verdicts._scan_count

    def count(*args):
        counts.append(scan_count(*args))
        return q * q + (m1 - 1) * (d - 1) * q + 1

    def record(tower, coeffs, d):
        built.append(coeffs)
        return SimpleNamespace(is_maximal=False)

    with monkeypatch.context() as m:
        m.setattr(verdicts, "_scan_count", count)
        m.setattr(verdicts, "define_curve", record)
        conjecture_explore(tower, m1, d=d, budget=budget)
    assert len(counts) == len(built), (tower, m1, d)
    return list(zip(counts, built))


def is_subfield_scan(p, a, d):
    q = p ** a
    size = (q * q - 1) // math.gcd(d, q * q - 1) + 1  # the d-th powers and 0
    return size in {p ** j for j in range(2 * a + 1)}


def test_image_count_matches_the_curve_count(monkeypatch):
    # every candidate that the kernel rule admits is built here, and the
    # scan's count, by duality or from F's pivots, must be count(2)
    branches = set()
    cases = list(scan_grid()) + [(2, 4, 2, 17)]
    towers = {(p, a): build_tower(p, a) for p, a, _, _ in cases}
    for p, a, e, d in cases:
        tower = towers[p, a]
        counted = scan_counts(monkeypatch, tower, p ** e, d)
        for n, coeffs in counted:
            assert n == define_curve(tower, coeffs, d).count(2), (p, a, e, d, coeffs)
        if counted:
            branches.add(is_subfield_scan(p, a, d))
    assert branches == {True, False}  # subfield duality and pivot walk


# (p, a, m1, d, candidates): L = F_q, F_p, F_(q^2) and, at q = 8 and 16, F_4;
# e = 1, 2 and 3; the (2, 3, 8) scans stop after 2000 candidates
SUBFIELD_CASES = [(2, 2, 2, 5, None), (2, 2, 4, 15, None), (2, 2, 4, 7, None),
                  (3, 1, 3, 4, None), (5, 1, 5, 6, None), (7, 1, 7, 8, None),
                  (3, 2, 9, 10, None), (3, 2, 3, 40, None), (2, 3, 4, 21, None),
                  (2, 4, 4, 17, None), (2, 4, 4, 85, None), (5, 2, 5, 26, None),
                  (2, 3, 8, 9, 2000), (2, 3, 8, 63, 2000), (2, 3, 8, 5, 2000)]


@pytest.mark.parametrize("p,a,m1,d,limit", SUBFIELD_CASES, ids=str)
def test_dual_count_matches_the_curve_count_on_every_candidate(monkeypatch, p, a, m1, d,
                                                               limit):
    # with the kernel rule off, every walked candidate is counted by duality
    monkeypatch.setattr(verdicts, "_maximal_kernels",
                        lambda q, p, e, d: {p ** j for j in range(e + 1)})
    tower = build_tower(p, a)
    assert is_subfield_scan(p, a, d)
    budget = verdicts.SCAN_BUDGET if limit is None else limit * tower.q ** 2
    counted = scan_counts(monkeypatch, tower, m1, d, budget)
    assert len(counted) == conjecture_explore(tower, m1, d=d, budget=budget).tested
    for n, coeffs in counted:
        assert n == define_curve(tower, coeffs, d).count(2), coeffs


@pytest.mark.parametrize("p,a,m1,d,subfield", [(2, 4, 4, 17, True), (3, 2, 9, 10, True),
                                               (2, 3, 4, 3, False)], ids=str)
def test_subfield_scan_runs_no_elimination_per_candidate(monkeypatch, p, a, m1, d, subfield):
    calls = []

    def spy(name):
        real = getattr(verdicts, name)

        def wrapped(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(verdicts, name, wrapped)

    tower = build_tower(p, a)
    assert is_subfield_scan(p, a, d) == subfield
    counted = len(scan_counts(monkeypatch, tower, m1, d))  # the kernel rule admits these
    spy("_echelon")
    spy("_level_count")
    rep = conjecture_explore(tower, m1, d=d)  # a built curve eliminates in curve_model
    assert rep.tested > counted > len(rep.hits)
    assert calls == ([] if subfield else ["_echelon", "_level_count"] * counted)


def test_conjecture_scan_validation(t4):
    with pytest.raises(ValueError):
        conjecture_explore(t4, 3)  # not a power of the characteristic
    with pytest.raises(ValueError):
        conjecture_explore(t4, 8)  # exceeds q
    with pytest.raises(ValueError):
        conjecture_explore(t4, 2, d=4)  # d divisible by p
