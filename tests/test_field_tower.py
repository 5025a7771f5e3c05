"""Tower construction and arithmetic against brute-force polynomial oracles."""

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from maxcurves import (
    ELEMENT,
    BudgetError,
    FieldTower,
    build_tower,
    define_curve,
    hermitian_curve,
    to_json,
)
from maxcurves import curve_model, field_tower
from maxcurves.field_tower import LEVELS, _basis, _is_irreducible_generic, _orbit, prime_factors


# ---------------------------------------------------------------------------
# oracle helpers: naive dense polynomial arithmetic over F_p
# ---------------------------------------------------------------------------

def poly_rem(num, den, p):
    """Remainder of num by monic den, as a trimmed coefficient list."""
    num = list(num)
    while len(num) >= len(den):
        c = num[-1]
        if c:
            shift = len(num) - len(den)
            for i, dc in enumerate(den):
                num[shift + i] = (num[shift + i] - c * dc) % p
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return num


def poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def poly_powmod(base, e, f, p):
    """base^e mod the monic f, square and multiply on dense lists."""
    r, base = [1], poly_rem(base, f, p)
    while e:
        if e & 1:
            r = poly_rem(poly_mul(r, base, p), f, p)
        e >>= 1
        base = poly_rem(poly_mul(base, base, p), f, p)
    return r


def dense_mul(tw, x, y):
    """x*y by the schoolbook product of the residue lists, then mod f."""
    p = tw.p
    return tw.element(poly_rem(poly_mul(list(tw.coeffs(x)), list(tw.coeffs(y)), p), tw.modulus, p))


def dense_pow(tw, x, e):
    return tw.element(poly_powmod(list(tw.coeffs(x)), e, tw.modulus, tw.p))


def all_monic(deg, p):
    def walk(tail):
        if len(tail) == deg:
            yield tail + [1]
            return
        for c in range(p):
            yield from walk(tail + [c])
    yield from walk([])


def is_irreducible_naive(f, p):
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    n = len(f) - 1
    for deg in range(1, n // 2 + 1):
        for g in all_monic(deg, p):
            if not poly_rem(f, g, p):
                return False
    return True


def mult_order(tower, x):
    assert x != 0
    acc, k = x, 1
    while acc != 1:
        acc = tower.mul(acc, x)
        k += 1
    return acc == 1 and k


# ---------------------------------------------------------------------------
# modulus selection
# ---------------------------------------------------------------------------

def test_moduli_are_monic_irreducible(t2, t3, t4, t5, t7, t16):
    for tw in (t2, t3, t4, t5, t7, t16):
        f = list(tw.modulus)
        assert len(f) == tw.degree + 1
        assert f[-1] == 1
        assert is_irreducible_naive(f, tw.p)


def test_moduli_are_lex_first(t2, t3, t4, t5, t7):
    # every lex-smaller tail must be reducible; skipped for degree 16
    # where the scan would dwarf the rest of the suite
    for tw in (t2, t3, t4, t5, t7):
        target = list(tw.modulus[:-1])
        found = None
        for g in all_monic(tw.degree, tw.p):
            if is_irreducible_naive(g, tw.p):
                found = g[:-1]
                break
        assert found == target


def test_modulus_search_skips_constant_zero(t2, t3, t4, t5, t7, t9, t16):
    # the full lex scan, constant term 0 included, finds the same modulus
    for tw in (t2, t3, t4, t5, t7, t9, t16):
        p, n = tw.p, tw.degree
        for tail in itertools.product(range(p), repeat=n):
            f = list(tail) + [1]
            if _is_irreducible_generic(f, p):
                break
        assert tw.modulus == tuple(f)


@pytest.mark.parametrize("p,top", [(2, 8), (3, 4)])
def test_irreducibility_test_matches_trial_division(p, top):
    # the one irreducibility test of the modulus search, p = 2 included,
    # against trial division on every monic polynomial of degree 2..top
    for n in range(2, top + 1):
        for f in all_monic(n, p):
            assert _is_irreducible_generic(f, p) == is_irreducible_naive(f, p), f


def test_frozen_moduli(t2, t3, t16):
    assert t2.modulus == (1, 0, 0, 1, 1)
    assert t3.modulus == (1, 0, 1, 1, 1)
    assert t16.modulus == (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1)


def test_tower_shape(t5):
    assert (t5.p, t5.a, t5.q, t5.q2, t5.order) == (5, 1, 5, 25, 625)
    assert t5.order == 625
    assert t5.degree == 4


# ---------------------------------------------------------------------------
# the distinguished generator xi of the level-2 unit group
# ---------------------------------------------------------------------------

def test_xi_frozen_values(t2, t3):
    assert t2.coeffs(t2.xi) == (0, 1, 0, 1)
    assert t2.xi == 10
    assert t3.coeffs(t3.xi) == (1, 1, 2, 0)


def test_xi_order_is_q2_minus_1(t2, t3, t4, t5, t16):
    for tw in (t2, t3, t4, t5, t16):
        assert mult_order(tw, tw.xi) == tw.q2 - 1


def test_xi_is_lex_first_generator(t2, t3, t5):
    for tw in (t2, t3, t5):
        for x in tw.elements(2):
            if x and mult_order(tw, x) == tw.q2 - 1:
                assert x == tw.xi
                break


def test_xi_lives_in_level_2(t2, t3, t4, t5, t16):
    for tw in (t2, t3, t4, t5, t16):
        assert tw.in_level(tw.xi, 2)
        assert not tw.in_level(tw.xi, 1)


# ---------------------------------------------------------------------------
# element encoding and level structure
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=5 ** 4 - 1))
def test_element_coeffs_round_trip(t5, x):
    cs = t5.coeffs(x)
    assert len(cs) == t5.degree
    assert all(0 <= c < t5.p for c in cs)
    assert t5.element(cs) == x


def test_element_text_forms_round_trip(t3):
    for x in t3.elements(4):
        assert t3.digits(x) == list(t3.coeffs(x))
        assert t3.format_element(x) == ":".join(map(str, t3.coeffs(x)))
        assert t3.parse_element(t3.format_element(x)) == x
        assert t3.parse_element(f" {x} ") == x
    assert t3.parse_element("2:1") == t3.element((2, 1))
    for bad in ("1:2:3:4:5", "81", "-1", "x", "1::2", "3:0", "-1:0"):
        with pytest.raises(ValueError):
            t3.parse_element(bad)


@dataclass(frozen=True)
class _Report:
    scale: int = field(metadata=ELEMENT)
    coeffs: tuple = field(metadata=ELEMENT)
    missing: int | None = field(metadata=ELEMENT)
    code: int
    ratio: Fraction
    inner: tuple


def test_to_json_encodes_marked_fields(t3):
    x = t3.xi
    inner = _Report(0, (), None, 1, Fraction(2), ())
    rep = _Report(scale=x, coeffs=(1, x), missing=None, code=x,
                  ratio=Fraction(-8, 3), inner=(inner,))
    assert to_json(rep, t3) == {
        "scale": t3.digits(x),
        "coeffs": [[1, 0, 0, 0], t3.digits(x)],
        "missing": None,
        "code": x,
        "ratio": "-8/3",
        "inner": [{"scale": [0, 0, 0, 0], "coeffs": [], "missing": None,
                   "code": 1, "ratio": "2", "inner": []}],
    }


def test_element_reduces_residues_mod_p(t3):
    assert t3.element((4, 0, 0, 0)) == t3.element((1, 0, 0, 0)) == 1
    assert t3.element((-1, 0, 0, 0)) == t3.element((2, 0, 0, 0))


def test_levels_nest_and_have_right_sizes(t3):
    e1, e2, e4 = t3.elements(1), t3.elements(2), t3.elements(4)
    assert (len(e1), len(e2), len(e4)) == (3, 9, 81)
    assert set(e1) < set(e2) < set(e4)
    assert all(t3.subfield_level(x) == 1 for x in e1)
    assert all(t3.subfield_level(x) == 2 for x in set(e2) - set(e1))
    assert all(t3.subfield_level(x) == 4 for x in set(e4) - set(e2))


def test_elements_sorted_lexicographically(t3, t4):
    for tw in (t3, t4):
        for level in (1, 2, 4):
            els = tw.elements(level)
            keys = [tw.coeffs(x) for x in els]
            assert keys == sorted(keys)
            assert els[0] == 0


def test_lex_rank_orders_like_coeffs(t2, t3, t4, t5, t9):
    # lex_rank is the fast key; coeffs tuples are the definition of the order
    for tw in (t2, t3, t4, t5, t9):
        els = range(tw.order)
        ranks = [tw.lex_rank(x) for x in els]
        assert sorted(ranks) == list(els)
        assert sorted(els, key=tw.lex_rank) == sorted(els, key=tw.coeffs)


def test_in_level_matches_fixed_points_of_power_map(t3):
    for x in t3.elements(4):
        assert t3.in_level(x, 2) == (t3.pow(x, 9) == x)


# ---------------------------------------------------------------------------
# field axioms
# ---------------------------------------------------------------------------

el3 = st.integers(min_value=0, max_value=80)


@given(el3, el3, el3)
def test_additive_group_axioms(t3, x, y, z):
    assert t3.add(x, y) == t3.add(y, x)
    assert t3.add(t3.add(x, y), z) == t3.add(x, t3.add(y, z))
    assert t3.add(x, 0) == x
    assert t3.add(x, t3.neg(x)) == 0
    assert t3.add(x, t3.neg(y)) == t3._add_raw(x, t3._neg_raw(y))


@given(el3, el3, el3)
def test_multiplicative_axioms(t3, x, y, z):
    assert t3.mul(x, y) == t3.mul(y, x)
    assert t3.mul(t3.mul(x, y), z) == t3.mul(x, t3.mul(y, z))
    assert t3.mul(x, 1) == x
    assert t3.mul(x, t3.add(y, z)) == t3.add(t3.mul(x, y), t3.mul(x, z))


@given(el3.filter(bool))
def test_inverses(t3, x):
    assert t3.mul(x, t3.inv(x)) == 1
    assert t3.mul(1, t3.inv(x)) == t3.inv(x) == t3._pow_raw(x, t3.order - 2)
    assert t3.pow(x, -1) == t3.inv(x)


@given(el3.filter(bool), st.integers(0, 12), st.integers(0, 12))
def test_power_laws(t3, x, i, j):
    assert t3.pow(x, i + j) == t3.mul(t3.pow(x, i), t3.pow(x, j))


def test_zero_edge_cases(t3):
    assert t3.pow(0, 0) == 1
    assert t3.pow(0, 7) == 0
    with pytest.raises(ZeroDivisionError):
        t3.inv(0)
    with pytest.raises(ZeroDivisionError):
        t3.mul(5, t3.inv(0))
    with pytest.raises(ZeroDivisionError):
        t3.pow(0, -2)


# ---------------------------------------------------------------------------
# table-driven arithmetic vs. raw polynomial arithmetic
# ---------------------------------------------------------------------------

# The packed products against the dense schoolbook oracle.  Every other
# test that checks the tables against `_mul_raw`/`_pow_raw` rests on these.

@pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (2, 2), (5, 1)], ids=str)
def test_packed_product_matches_dense_on_every_pair(p, a):
    # row x of the oracle is the span of the dense products x*T^i: entry y
    # of `_span` is sum(y_i * x*T^i), that is x*y
    tw = build_tower(p, a, top=2)
    for x in range(tw.order):
        row = field_tower._span(tw, [dense_mul(tw, x, p ** i) for i in range(tw.degree)])
        assert [tw._mul_raw(x, y) for y in range(tw.order)] == row, x


def test_packed_product_matches_dense_on_the_digit_extremes():
    # (7, 1), q^4 = 2401: every x against every y with digits in
    # {0, 1, p - 1}; the largest fields come from digits p - 1
    tw, p = build_tower(7, 1, top=2), 7
    for ds in itertools.product((0, 1, p - 1), repeat=tw.degree):
        y = tw.element(ds)
        column = field_tower._span(tw, [dense_mul(tw, y, p ** i) for i in range(tw.degree)])
        assert [tw._mul_raw(x, y) for x in range(tw.order)] == column, y


@pytest.mark.parametrize("p,a", [(7, 1), (5, 2), (2, 4), (2, 5), (3, 3), (31, 1)], ids=str)
def test_packed_product_matches_dense_on_sampled_pairs(p, a):
    tw = build_tower(p, a, top=2)
    rng = random.Random(p ** a)
    top = tw.order - 1
    for _ in range(20000):
        x, y = rng.randrange(tw.order), rng.choice((top, rng.randrange(tw.order)))
        assert tw._mul_raw(x, y) == dense_mul(tw, x, y), (x, y)


@pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 4),
                                 (11, 1), (5, 2), (2, 5), (3, 3), (31, 1)], ids=str)
def test_packed_power_matches_dense(p, a):
    tw = build_tower(p, a, top=2)
    q, Q = tw.q, tw.order
    rng = random.Random(Q)
    xs = [0, 1, p - 1, tw.xi, Q - 1] + [rng.randrange(Q) for _ in range(5)]
    for x in xs:
        for e in (0, 1, p, q * q, Q - 2, Q - 1, Q):
            assert tw._pow_raw(x, e) == dense_pow(tw, x, e), (x, e)


def test_tables_agree_with_raw_multiplication(t5):
    rng = random.Random(7)
    for _ in range(80):
        x, y = rng.randrange(t5.order), rng.randrange(t5.order)
        assert t5.mul(x, y) == t5._mul_raw(x, y)


def test_tableless_tower_matches(t5):
    # raw polynomial arithmetic, with no log/exp table, gives the same
    # inverses and the same level-2 subfield as the table-driven tower
    for x in range(1, t5.order):
        assert t5.inv(x) == t5._pow_raw(x, t5.order - 2)
    # level 2 is the fixed field of x -> x^(q^2)
    fixed = [x for x in range(t5.order) if t5._pow_raw(x, t5.q2) == x]
    assert t5.elements(2) == tuple(sorted(fixed, key=t5.coeffs))


def raw_tables(tw):
    """exp and log as the tables were first built: the generator
    search, then acc = _mul_raw(acc, gen) once per element."""
    n1 = tw.order - 1
    fac = prime_factors(n1)
    gen = next(c for c in range(2, tw.order)
               if all(tw._pow_raw(c, n1 // f) != 1 for f in fac))
    exp, acc = [], 1
    for _ in range(n1):
        exp.append(acc)
        acc = tw._mul_raw(acc, gen)
    assert acc == 1
    return exp, {e: i for i, e in enumerate(exp)}


TABLE_TOWERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 4), (11, 1)]


@pytest.mark.parametrize("p,a", TABLE_TOWERS, ids=str)
def test_tables_match_raw_recurrence(p, a):
    tw = build_tower(p, a)
    exp, log = raw_tables(tw)
    assert list(tw._exp[:tw.order - 1]) == exp
    assert len(tw._log) == tw.order
    assert all(tw._log[x] == i for x, i in log.items())


@pytest.mark.parametrize("p,a", TABLE_TOWERS, ids=str)
def test_table_layout_and_edges(p, a):
    tw = build_tower(p, a)
    n1 = tw.order - 1
    # 4-byte entries; the orbit of g written twice, so mul and inv need no modulo
    assert tw._exp.typecode == tw._log.typecode == "i"
    assert len(tw._exp) == 2 * n1
    assert tw._exp[:n1] == tw._exp[n1:]
    assert len(tw._log) == tw.order
    g, top = tw.exp(1), tw.exp(n1 - 1)
    assert 2 * tw.log(top) == 2 * tw.order - 4  # the highest index mul reads
    assert tw.mul(top, top) == tw._mul_raw(top, top)
    assert tw.log(1) == 0 and tw.inv(1) == 1  # inv reads index q^4 - 1
    assert tw.inv(g) == tw._pow_raw(g, tw.order - 2)
    assert tw._mul_raw(tw.inv(g), g) == 1
    for x in (g, top, tw.order - 1):
        x_inv = tw._pow_raw(x, tw.order - 2)
        for e in (-1, -2, -tw.order - 3):
            assert tw.pow(x, e) == tw._pow_raw(x_inv, -e)
        for e in (tw.order, tw.order + 1, 3 * tw.order + 5):
            assert tw.pow(x, e) == tw._pow_raw(x, e)


def test_tables_take_at_most_12_bytes_per_element():
    tw = build_tower(5, 2)
    size = sum(t.itemsize * len(t) for t in (tw._exp, tw._log))
    assert size <= 12 * tw.order


# the three largest red tables within the default budget: 9^4, 5^6 and 61^2 entries
@pytest.mark.parametrize("p,a", [(5, 2), (3, 3), (31, 1)], ids=str)
def test_tables_sampled_on_a_big_tower(p, a):
    tw = build_tower(p, a)
    rng = random.Random(52)
    for _ in range(20000):
        x, y = rng.randrange(tw.order), rng.randrange(tw.order)
        assert tw.mul(x, y) == tw._mul_raw(x, y)
        assert tw.add(x, y) == tw._add_raw(x, y)
        assert tw.neg(x) == tw._neg_raw(x)


@pytest.mark.parametrize("p,a", [(3, 1), (2, 2)], ids=str)
def test_corrupt_linear_table_fails_the_order_check(monkeypatch, p, a):
    # with every span of the build shifted by one entry the walk from 1 is
    # not the orbit of g and does not end at 1; the build must say so
    def rotated(*args):
        table = span(*args)
        return table[1:] + table[:1]

    span = field_tower._span
    monkeypatch.setattr(field_tower, "_span", rotated)
    for top in (4, 2):
        with pytest.raises(RuntimeError, match="generator order mismatch"):
            build_tower(p, a, top=top)


def test_span_entries_follow_the_index_contract(t4, t5, t9):
    # entry sum(c_i p^i) is sum(c_i * vectors[i]); the build's tables rest on it
    for tw in (t4, t5, t9):
        rng = random.Random(tw.order)
        vectors = [rng.randrange(tw.order) for _ in range(4)]
        span = field_tower._span(tw, vectors)
        assert len(span) == tw.p ** len(vectors)
        for index, entry in enumerate(span):
            want = 0
            for v in vectors:
                index, c = divmod(index, tw.p)
                want = tw._add_raw(want, tw._mul_raw(c, v))
            assert entry == want


@pytest.mark.parametrize("p,a", [(3, 1), (7, 1), (11, 1), (2, 2), (3, 2)], ids=str)
def test_generator_searches_skip_the_constants(monkeypatch, p, a):
    # codes below p are elements of F_p, never of order q^4 - 1, and their
    # norms are constants too: neither generator search tries one
    calls = []
    raw = FieldTower._pow_raw

    def spy(self, x, e):
        calls.append((x, e))
        return raw(self, x, e)

    monkeypatch.setattr(FieldTower, "_pow_raw", spy)
    build_tower(p, a)
    assert calls and min(x for x, _ in calls) >= p
    calls.clear()
    tw = build_tower(p, a, top=2)
    norms = [x for x, e in calls if e == tw.q2 + 1]
    assert norms and min(norms) >= p


# ---------------------------------------------------------------------------
# the k-only shape (top = 2) against the full tower
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,a", TABLE_TOWERS + [(2, 3), (5, 2), (2, 5)], ids=str)
def test_k_only_tower_agrees_with_full_tower(p, a):
    full, tw = build_tower(p, a), build_tower(p, a, top=2)
    assert (tw.modulus, tw.xi, tw.report()) == (full.modulus, full.xi, full.report())
    assert tw.elements(1) == full.elements(1)
    k = tw.elements(2)
    assert k == full.elements(2)
    if len(k) <= 256:
        pairs = itertools.product(k, repeat=2)
    else:
        rng = random.Random(len(k))
        pairs = [(rng.choice(k), rng.choice(k)) for _ in range(20000)]
    for x, y in pairs:
        assert tw.add(x, y) == full.add(x, y)
        assert tw.mul(x, y) == full.mul(x, y)
    for x in k:
        assert tw.neg(x) == full.neg(x)
        for e in (0, 1, 2, tw.q, tw.q2 + 3, -1, -tw.q - 2):
            if x or e >= 0:
                assert tw.pow(x, e) == full.pow(x, e)
        if x:
            assert tw.inv(x) == full.inv(x)


@pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)], ids=str)
def test_k_only_levels_agree_on_every_ambient_code(p, a):
    # in_level reads every code, so --additive and --fa reject non-k input
    full, tw = build_tower(p, a), build_tower(p, a, top=2)
    for x in range(full.order):
        assert [tw.in_level(x, lv) for lv in LEVELS] == [full.in_level(x, lv) for lv in LEVELS]
        assert tw.subfield_level(x) == full.subfield_level(x)
    assert tw._full_tower is None  # membership needs no product outside k


@pytest.mark.parametrize("p,a", [(2, 2), (3, 1), (2, 4)], ids=str)
def test_k_only_tables_and_refusals(p, a):
    tw = build_tower(p, a, top=2)
    units = tw.q2 - 1
    assert (tw.top, tw.units) == (2, units)
    assert tw._exp.typecode == "i" and len(tw._exp) == 2 * units
    assert tw._exp[:units] == tw._exp[units:]
    assert sorted(tw._log) == sorted(tw.elements(2)[1:])
    curve = hermitian_curve(tw, tw.q + 1)
    assert curve.count(2) == tw.q ** 3 + 1
    # level 4 is eliminated and counted with no table above k; listing
    # F_(q^4) is refused
    full = hermitian_curve(build_tower(p, a), tw.q + 1)
    assert _basis(tw, 4) == _basis(full.tower, 4)
    assert curve.count(4) == full.count(4)
    assert curve.fiber(1, 4) == full.fiber(1, 4)
    assert tw._full_tower is None
    for above in (tw.elements, curve.enumerate_points):
        with pytest.raises(ValueError, match="above this tower's tables"):
            above(4)
    with pytest.raises(ValueError, match="top must be"):
        build_tower(p, a, top=3)


def seeded_additive_curves(tw, rng):
    """(coeffs, d) on k for each branch of the level-4 count: g = 1 for
    d = 1 and the first coprime d > 1 (L = F_(q^4)), d = q^2 + 1 (L = k),
    d = q^3 + q^2 + q + 1 (L = F_q), and walks of the orbit for d = q + 1
    and the first d > 1 whose d-th powers and 0 are no subfield."""
    q, Q, p = tw.q, tw.order, tw.p
    coprime = next(d for d in itertools.count(2) if gcd(d, p * (Q - 1)) == 1)
    walk = next(d for d in itertools.count(2)
                if d % p and not is_power(p, (Q - 1) // gcd(d, Q - 1) + 1))
    ds = [1, coprime, q * q + 1, q ** 3 + q * q + q + 1, q + 1, walk]
    k = tw.elements(2)
    out = []
    for d in ds:
        e = rng.randrange(1, 3)
        coeffs = [rng.choice(k[1:])] + [rng.choice(k) for _ in range(e - 1)] + [rng.choice(k[1:])]
        out.append((tuple(coeffs), d))
    return out


def is_power(p, n):
    """True when n is a power of p."""
    while n % p == 0:
        n //= p
    return n == 1


def walk_cases(tw):
    """(coeffs, d) whose count(4) walks the cosets of H: for F = T^p + T
    (s = 1), T^q + T (s = a) and xi*T (s = 4a), the first n = (q^4 - 1)/g
    in the walk branch with |H| = 1 and the first with |H| > 1 where they
    exist, and for xi*T also n = q^2 + 1, held by no F_(p^s)* with s < 4a."""
    p, a, q, Q = tw.p, tw.a, tw.q, tw.order
    walks = [n for n in range(2, Q) if (Q - 1) % n == 0 and not is_power(p, n + 1)]
    out = []
    for coeffs, s in (((1, 1), 1), ((1,) + (0,) * (a - 1) + (1,), a), ((tw.xi,), 4 * a)):
        ns = {next((n for n in walks if (gcd(n, p ** s - 1) > 1) == big), None)
              for big in (False, True)}
        if s == 4 * a:
            ns.add(q * q + 1)
        out += [(coeffs, (Q - 1) // n) for n in ns - {None}]
    return out


@pytest.mark.parametrize("p,a", TABLE_TOWERS + [(2, 3), (5, 2), (2, 5)], ids=str)
def test_k_only_quartic_counts_agree_with_full_tower(monkeypatch, p, a):
    # count(4) on the k-only tower (elimination by raw products, the orbit
    # of G^g in place of logs) against the log count of the top-4 tower;
    # a walk takes one g-th power eta^i per coset of H = D & F_(p^s)*,
    # n/|H| orbit steps, s = gcd(4a, i > 0 with a_i != 0)
    walked = []
    monkeypatch.setattr(curve_model, "_orbit", lambda tw, c, n: walked.append(n) or _orbit(tw, c, n))
    full, tw = build_tower(p, a), build_tower(p, a, top=2)
    Q = tw.order
    curves = [((1,) + (0,) * (a - 1) + (1,), m) for m in range(1, tw.q + 2) if (tw.q + 1) % m == 0]
    curves += seeded_additive_curves(tw, random.Random(p ** a)) + walk_cases(tw)
    # each branch: L = F_(q^4), L = k and a walk; size is |L| on the first two
    sizes = {(Q - 1) // gcd(d, Q - 1) + 1 for _, d in curves}
    assert {Q, tw.q2} <= sizes and not all(is_power(p, n) for n in sizes)
    cosets = set()
    for coeffs, d in curves:
        walked.clear()
        assert define_curve(tw, coeffs, d).count(4) == define_curve(full, coeffs, d).count(4), \
            (coeffs, d)
        n = (Q - 1) // gcd(d, Q - 1)
        if not is_power(p, n + 1):
            s = gcd(4 * a, *(i for i, c in enumerate(coeffs) if i and c))
            h = gcd(n, p ** s - 1)
            assert walked == [n // h], (coeffs, d)
            cosets.add((s, h > 1))
    assert {s for s, _ in cosets} >= {1, a, 4 * a}
    assert {big for _, big in cosets} == {False, True}
    assert tw._full_tower is None


@pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 3)], ids=str)
def test_f_commutes_with_the_scalars_of_its_field(p, a):
    # the premise of the coset walk: F(c*y) = c*F(y) for c in F_(p^s),
    # s = scalar_degree(4), at y outside k by raw products; the generator
    # G of F_(q^4)*, outside F_(p^s) when s < 4a, fails it
    tw = build_tower(p, a, top=2)
    outside = [y for y in range(1, tw.order) if y not in tw._log]
    outside = random.Random(p ** a).sample(outside, min(40, len(outside)))
    G, mul = tw._generator(), tw._mul_raw
    for coeffs, s in (((1, 1), 1), ((1,) + (0,) * (a - 1) + (1,), a),
                      ((tw.xi, 0, 1), gcd(4 * a, 2)), ((tw.xi,), 4 * a)):
        curve = define_curve(tw, coeffs, 1)
        assert (curve.scalar_degree(4), curve.scalar_degree(2)) == (s, gcd(2 * a, s))

        def F(y):
            return curve.f_eval(y, raw=True)

        eta = tw._pow_raw(G, (tw.order - 1) // (p ** s - 1))  # generates F_(p^s)*
        for c in [tw._pow_raw(eta, i) for i in range(min(p ** s - 1, 20))]:
            assert all(F(mul(c, y)) == mul(c, F(y)) for y in outside), (coeffs, c)
        assert (s < 4 * a) == any(F(mul(G, y)) != mul(G, F(y)) for y in outside)
    assert tw._full_tower is None


@pytest.mark.parametrize("p,a,c", [(2, 2, 7), (3, 1, 5), (2, 3, 300), (5, 1, 17)], ids=str)
def test_orbit_matches_raw_powers(p, a, c):
    # blocks of q^2: below one block, exactly one, one past it, and a
    # partial last block; c is ambient, outside k, on the k-only tower
    tw = build_tower(p, a, top=2)
    h = tw.q2
    assert c not in tw._log
    for n in (1, 2, h - 1, h, h + 1, 2 * h, 3 * h + 5):
        blocks = list(_orbit(tw, c, n))
        assert [len(b) for b in blocks] == [min(h, n - s) for s in range(0, n, h)]
        assert [x for b in blocks for x in b] == [tw._pow_raw(c, i) for i in range(n)], n
    assert tw._full_tower is None


@pytest.mark.parametrize("p,a", [(2, 2), (3, 1), (5, 1), (3, 2)], ids=str)
def test_remainder_is_zero_exactly_on_the_image(p, a):
    # the remainder against the pivots of F on F_(q^4), through `_linear`
    # on every code, vanishes on F(F_(q^4)) alone; F of degree p and q
    tw = build_tower(p, a, top=2)
    for coeffs in ((1, 1), (1,) + (0,) * (a - 1) + (1,), (tw.xi, 0, 1)):
        curve = define_curve(tw, coeffs, 1)
        pivots = curve._eliminate(4)[0]
        rem = field_tower._linear(tw, [field_tower._remainder(tw, b, pivots)
                                        for b in _basis(tw, 4)])
        image = set(curve.image(4))
        assert [x for x, r in enumerate(rem(range(tw.order))) if r == 0] == sorted(image)
        assert len(image) * len(curve.kernel(4)) == tw.order
    assert tw._full_tower is None


@pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)], ids=str)
def test_scale_matches_digit_loop_on_every_code(p, a):
    tw = build_tower(p, a, top=2)

    def scale_raw(c, x):
        return tw.element([c * r % p for r in tw.coeffs(x)])

    for c in range(p):
        assert all(tw.scale(c, x) == scale_raw(c, x) for x in range(tw.order)), c
    assert tw._full_tower is None


@pytest.mark.parametrize("p,a", [(2, 2), (3, 1), (5, 1)], ids=str)
def test_k_only_products_outside_k_come_from_the_full_tower(p, a):
    # a unit outside k has no log; mul, inv and pow build the full tower
    # once and answer from it, never from the k tables
    full, tw = build_tower(p, a), build_tower(p, a, top=2)
    for x in tw.elements(2):
        for y in tw.elements(2):
            tw.mul(x, y)
        if x:
            tw.inv(x)
        tw.pow(x, tw.q + 2)
    assert tw._full_tower is None
    outside = [x for x in range(1, tw.order) if not full.in_level(x, 2)]
    with pytest.raises(KeyError):
        tw.log(outside[0])
    rng = random.Random(p ** a)
    for x in outside:
        y = rng.randrange(tw.order)
        assert tw.mul(x, y) == tw.mul(y, x) == full.mul(x, y) == tw._mul_raw(x, y)
        assert tw.inv(x) == full.inv(x)
        assert tw.pow(x, -3) == full.pow(x, -3)
    assert tw._full_tower.top == 4
    assert tw._full is tw._full_tower  # built once


# p = 7 fills its fields tightest (H = 8), a = 3 packs 6 coordinates a symbol
PACKED_TOWERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 3)]


@pytest.mark.parametrize("p,a", PACKED_TOWERS, ids=str)
def test_packed_add_matches_add_on_every_pair(p, a):
    # one word holds all of k; adding the constant word of y covers x + y
    # for every x, with every symbol next to others in the same word
    tw = build_tower(p, a)
    k = tw.elements(2)
    pack, add, weight = field_tower._packed_words(tw, len(k))
    assert pack([0] * len(k)) == 0
    assert len({pack([x]) for x in k}) == len(k)
    word = pack(k)
    for y in k:
        sums = [tw.add(x, y) for x in k]
        total = add(word, pack([y] * len(k)))
        assert total == pack(sums), y
        assert weight(total) == len(k) - sums.count(0)


@pytest.mark.parametrize("p,a", PACKED_TOWERS, ids=str)
def test_packed_weight_counts_nonzero_symbols(p, a):
    tw = build_tower(p, a)
    k = tw.elements(2)
    pack, _, weight = field_tower._packed_words(tw, 3)
    for x in k:
        assert weight(pack([0, x, 0])) == (x != 0), x
        assert weight(pack([x, 0, x])) == 2 * (x != 0), x
    rng = random.Random(p ** a)
    for n in (1, 2, 5, 40):
        pack, _, weight = field_tower._packed_words(tw, n)
        for _ in range(50):
            row = [rng.choice(k) if rng.random() < 0.5 else 0 for _ in range(n)]
            assert weight(pack(row)) == n - row.count(0), row


def assert_add_matches_digits(tw, pairs):
    for x, y in pairs:
        assert tw.add(x, y) == tw._add_raw(x, y)
        assert tw.add(x, tw.neg(y)) == tw._add_raw(x, tw._neg_raw(y))


def test_add_exhaustive_small_towers(t3, t5):
    for tw in (t3, t5):
        everything = range(tw.order)
        assert_add_matches_digits(tw, itertools.product(everything, repeat=2))
        for x in everything:
            assert tw.neg(x) == tw._neg_raw(x)


def test_add_sampled_larger_towers(t7, t9):
    for tw in (t7, t9):
        rng = random.Random(tw.order)
        pairs = [(rng.randrange(tw.order), rng.randrange(tw.order))
                 for _ in range(20000)]
        assert_add_matches_digits(tw, pairs)
        for x, _ in pairs:
            assert tw.neg(x) == tw._neg_raw(x)


def test_add_zero_and_cancellation(t3, t5, t7, t9):
    for tw in (t3, t5, t7, t9):
        assert tw.add(0, 0) == tw.add(0, tw.neg(0)) == tw.neg(0) == 0
        for x in (1, tw.p - 1, tw.xi, tw.order - 1):
            mx = tw.neg(x)
            assert mx == tw._neg_raw(x)
            assert tw.add(x, 0) == tw.add(0, x) == tw.add(x, tw.neg(0)) == x
            assert tw.add(0, tw.neg(x)) == mx
            assert tw.add(x, mx) == tw.add(mx, x) == tw.add(x, tw.neg(x)) == 0
            assert tw.add(x, tw.neg(mx)) == tw._add_raw(x, x)


def test_mul_against_polynomial_oracle(t3):
    rng = random.Random(3)
    mod = list(t3.modulus)
    for _ in range(60):
        x, y = rng.randrange(81), rng.randrange(81)
        prod = poly_mul(list(t3.coeffs(x)), list(t3.coeffs(y)), 3)
        want = t3.element(tuple(poly_rem(prod, mod, 3)) + (0,) * 4)
        assert t3.mul(x, y) == want


# ---------------------------------------------------------------------------
# Frobenius and levels
# ---------------------------------------------------------------------------

def test_frobenius_fixes_exactly_level_2(t3):
    for x in t3.elements(2):
        assert t3.frobenius_k(x) == x
    moved = [x for x in t3.elements(4) if t3.frobenius_k(x) != x]
    assert len(moved) == 81 - 9
    for x in moved[:10]:
        assert t3.frobenius_k(t3.frobenius_k(x)) == x


def test_level_validation(t3):
    with pytest.raises(ValueError):
        t3.level_order(3)


# ---------------------------------------------------------------------------
# construction validation and budgets
# ---------------------------------------------------------------------------

def test_build_tower_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_tower(4, 1)
    with pytest.raises(ValueError):
        build_tower(1, 1)
    for odd_composite in (9, 15):
        with pytest.raises(ValueError, match="is not prime"):
            build_tower(odd_composite, 1)
    with pytest.raises(ValueError):
        build_tower(2, 0)


def test_budget_is_enforced_at_construction():
    with pytest.raises(BudgetError):
        build_tower(2, 1, budget=8)
    # the boundary itself is allowed
    assert build_tower(2, 1, budget=16).q == 2


def test_tables_beyond_4_bytes_are_refused_whatever_the_budget(monkeypatch):
    # 2^32 elements: refused before the modulus search or any table
    def no_search(self):
        raise AssertionError("the modulus search started")
    monkeypatch.setattr(FieldTower, "_find_modulus", no_search)
    with pytest.raises(BudgetError, match="2\\^31"):
        build_tower(2, 8, budget=1 << 40)


def test_report_shape(t3):
    rep = t3.report()
    assert rep["modulus"] == [1, 0, 1, 1, 1]
    assert rep["xi"] == [1, 1, 2, 0]
    assert rep == {"p": 3, "a": 1, "q": 3,
                   "modulus": [1, 0, 1, 1, 1], "xi": [1, 1, 2, 0]}
