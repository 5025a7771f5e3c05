"""Global verdicts about maximal curves: bounds, dichotomies, searches.

Everything here reduces a structural claim to finite checks on a
concrete tower: point counts, pole orders, interval membership
over exact fractions, or exhaustive grids with explicit budgets.
Conjectural identities are always reported as flags, never asserted.
The maximal count is read from `curve_model`, never written here.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .curve_model import INFINITY, CurveModel, _level_count, _maximal_count, define_curve
from .field_tower import ELEMENT, FieldTower, _basis, _echelon
from .function_field import x_of, y_of
from .weierstrass import (
    LinearSystemInfo,
    OrbitTable,
    OrderCensus,
    RamificationReport,
    _system_n,
    linear_system_info,
    order_census,
    order_sequences,
    ramification_audit,
)


def _first_nongap(curve: CurveModel) -> int:
    return min(curve.deg_f, curve.d)


# ---------------------------------------------------------------------------
# classical genus and point-count bounds
# ---------------------------------------------------------------------------

def castelnuovo_bound(n: int, q: int) -> int:
    """Upper bound for 2g of a degree q+1 system with projective rank n+1."""
    if n < 1 or q < 2:
        raise ValueError("need n >= 1 and q >= 2")
    big_m = q // n
    e = q - big_m * n
    return big_m * (q - n + e)


@dataclass(frozen=True)
class BoundsReport:
    rational_count: int
    expected_maximal_count: int
    hasse_weil_ok: bool
    m1: int
    n: int
    castelnuovo_value: int | None
    castelnuovo_ok: bool
    castelnuovo_attained: bool
    lewittes_genus_ok: bool
    lewittes_count_ok: bool
    global_genus_ok: bool
    all_ok: bool


def bounds_report(curve: CurveModel) -> BoundsReport:
    tower = curve.tower
    q = tower.q
    g = curve.genus
    hw = curve.maximality_report()
    m1 = _first_nongap(curve)
    n = _system_n(curve)
    # a degenerate system (n = 0 when d > q + 1) carries no rank bound
    cast = castelnuovo_bound(n, q) if n >= 1 else None
    cast_ok = cast is None or 2 * g <= cast
    lew_g = 2 * g <= q * (m1 - 1)
    lew_c = hw.actual <= q * q * m1 + 1
    glob = 2 * g <= (q - 1) * q
    all_ok = hw.maximal and cast_ok and lew_g and lew_c and glob
    return BoundsReport(
        rational_count=hw.actual,
        expected_maximal_count=hw.expected,
        hasse_weil_ok=hw.maximal,
        m1=m1,
        n=n,
        castelnuovo_value=cast,
        castelnuovo_ok=cast_ok,
        castelnuovo_attained=cast is not None and 2 * g == cast,
        lewittes_genus_ok=lew_g,
        lewittes_count_ok=lew_c,
        global_genus_ok=glob,
        all_ok=all_ok,
    )


# ---------------------------------------------------------------------------
# model normalization for trace-shaped equations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizationResult:
    """Scalings (X, Y) = (x_scale * x, y_scale * y) reaching Y^q + Y = X^m.

    power_index is the exponent class i of the value set of the left
    side: it equals xi^(i*m) times the level-1 subfield.
    """

    power_index: int
    y_scale: int = field(metadata=ELEMENT)
    x_scale: int = field(metadata=ELEMENT)
    verified: bool


def normalize_model(curve: CurveModel) -> NormalizationResult:
    """Scale a maximal model a*y^q + b*y = x^m to Y^q + Y = X^m.

    F(k) is an F_q-line (F(c*y) = c*F(y) for c in F_q) of q values, and
    maximality makes its q - 1 nonzero ones m-th powers, so it is xi^(i*m)
    times the level-1 subfield for one power index i < (q+1)/m.  Then
    X = xi^(-i)*x and, with u = xi^(-i*m), Y = u*b*y in closed form;
    `verified` checks Y^q + Y = X^m in the function field.  ValueError
    unless the curve's `family` is "hermitian-type" and m >= 2.
    """
    tower = curve.tower
    q = tower.q
    m = curve.d
    if m < 2 or curve.family != "hermitian-type":
        raise ValueError(f"normalization needs a hermitian-type model with m >= 2, "
                         f"not {curve.family} with m = {m}")
    level1 = tower.elements(1)
    image = set(curve.image(2))
    index = next(i for i in range((q + 1) // m)
                 if image == {tower.mul(tower.pow(tower.xi, i * m), z) for z in level1})
    u = tower.pow(tower.xi, -index * m)
    # u*F(y) = u*a*y^q + u*b*y lies in F_q for every y in k.  Its q-th
    # power, with y^(q^2) = y, compares coefficients to (u*b)^q = u*a, so
    # eps = u*b gives eps^q*y^q + eps*y = u*F(y).  It is the only eps with
    # Tr(eps*alpha) = u*F(alpha) for alpha in {1, xi}: 1, xi is an F_q-basis
    # of k and the trace form is nondegenerate.
    eps = tower.mul(u, curve.f_coeffs[0])
    x_scale = tower.pow(tower.xi, -index)
    ey = y_of(curve).scaled(eps)
    ex = x_of(curve).scaled(x_scale)
    residual = ey ** q + ey - ex ** m
    return NormalizationResult(
        power_index=index,
        y_scale=eps,
        x_scale=x_scale,
        verified=residual.is_zero,
    )


# ---------------------------------------------------------------------------
# the two-branch dichotomy at the first nongap
# ---------------------------------------------------------------------------

BRANCH_FULL = "nm1-equals-q-plus-1"
BRANCH_CONJ = "nm1-equals-q"
BRANCH_NONE = "hypothesis-not-met"


@dataclass(frozen=True)
class DichotomyVerdict:
    q: int
    genus: int
    n: int
    m1: int
    product: int
    branch: str
    genus_identity_ok: bool | None
    conjecture_flag: bool | None
    normalization: NormalizationResult | None


def dichotomy_check(curve: CurveModel) -> DichotomyVerdict:
    """Sort a maximal curve into the nm1 = q+1 / nm1 = q branches.

    On the first branch the genus identity 2g = (m1-1)(q-1) is a
    theorem and hermitian-type models are normalized as a witness; on the
    second, 2g = (m1-1)q is reported as a conjecture flag only.
    """
    if not curve.is_maximal:
        raise ValueError("the dichotomy applies to maximal curves only")
    q = curve.tower.q
    g = curve.genus
    n = _system_n(curve)
    m1 = _first_nongap(curve)
    prod = n * m1
    identity_ok = None
    conj = None
    norm = None
    if prod == q + 1:
        branch = BRANCH_FULL
        identity_ok = 2 * g == (m1 - 1) * (q - 1)
        if curve.family == "hermitian-type":  # deg F = q, so m1 = d here
            norm = normalize_model(curve)
    elif prod == q:
        branch = BRANCH_CONJ
        conj = 2 * g == (m1 - 1) * q
    else:
        branch = BRANCH_NONE
    return DichotomyVerdict(
        q=q, genus=g, n=n, m1=m1, product=prod, branch=branch,
        genus_identity_ok=identity_ok, conjecture_flag=conj, normalization=norm,
    )


# ---------------------------------------------------------------------------
# genus intervals over exact fractions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalClassification:
    q: int
    genus: int
    t: int
    upper_bound: Fraction
    next_upper: Fraction
    attains_upper: bool
    n: int | None
    consistent: bool | None


def genus_interval_classify(q: int, genus: int, n: int | None = None) -> IntervalClassification:
    """Place 2g in its interval ((q-1)((q+1)/(t+1)-1), (q-1)((q+1)/t-1)]."""
    if q < 2:
        raise ValueError("need q >= 2")
    if genus < 1:
        raise ValueError("genus must be positive to classify")

    def upper(t: int) -> Fraction:
        return Fraction((q - 1) * (q + 1 - t), t)

    two_g = 2 * genus
    if two_g > upper(1):
        raise ValueError("genus exceeds the global bound (q-1)q/2")
    t = 1
    while upper(t + 1) >= two_g:
        t += 1
    attains = Fraction(two_g) == upper(t)
    consistent = None
    if n is not None:
        consistent = t == n if attains else t >= n
    return IntervalClassification(
        q=q, genus=genus, t=t, upper_bound=upper(t), next_upper=upper(t + 1),
        attains_upper=attains, n=n, consistent=consistent,
    )


# ---------------------------------------------------------------------------
# the projective embedding check for trace curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingReport:
    points_checked: int
    rational_points: int
    rational_images: int
    matches: bool
    infinity_ok: bool
    ok: bool


def embedding_check(curve: CurveModel, orders: OrbitTable) -> EmbeddingReport:
    """Rationality of images under (1 : y : ... : y^(n-1) : x : y^n).

    A point has a rational image exactly when all coordinate ratios lie
    in the level-2 field; the infinite place maps to (0 : ... : 0 : 1).
    Each entry of `order_sequences` is one rationality class, the points
    over k or the rest of a class of x, and image rationality follows
    point rationality (below): one evaluation per affine representative,
    weighted by the entry's size.  `matches` and `infinity_ok` hold by
    construction: the coordinates include x and y (y itself, or y^n when
    n = 1), and `is_rational` is True at INFINITY.  So the section
    reports counts, not evidence; the Hermitian check of ROADMAP item
    6(b) is still to come.
    """
    if curve.family != "hermitian-type":
        raise ValueError("the embedding check supports the trace family only")
    tower = curve.tower
    q = tower.q
    n = _system_n(curve)
    if n * curve.d != q + 1:
        raise ValueError("the embedding check needs n * d = q + 1")
    checked = 0
    rat_pts = 0
    rat_imgs = 0
    matches = True
    for P, (_, size) in orders.items():
        if P.is_infinity:
            continue
        coords = [tower.pow(P.y, j) for j in range(n)] + [P.x, tower.pow(P.y, n)]
        img_rational = all(tower.in_level(v, 2) for v in coords if v)
        point_rational = curve.is_rational(P)
        checked += size
        rat_pts += size * point_rational
        rat_imgs += size * img_rational
        if img_rational != point_rational:
            matches = False
    infinity_ok = curve.is_rational(INFINITY)
    return EmbeddingReport(
        points_checked=checked,
        rational_points=rat_pts,
        rational_images=rat_imgs,
        matches=matches,
        infinity_ok=infinity_ok,
        ok=matches and infinity_ok,
    )


# ---------------------------------------------------------------------------
# exhaustive search for second-branch models
# ---------------------------------------------------------------------------

SCAN_BUDGET = 1 << 22  # q^2 units, one level-2 field scan, per candidate


@dataclass(frozen=True)
class ConjectureHit:
    f_coeffs: tuple[int, ...] = field(metadata=ELEMENT)
    genus: int
    count: int
    n: int
    two_g_matches: bool
    n_m1_matches: bool


@dataclass(frozen=True)
class ConjectureReport:
    q: int
    m1: int
    d: int
    tested: int
    skipped_equivalent: int
    hits: tuple[ConjectureHit, ...]
    complete: bool
    budget: int
    spent: int


def _kernel_census(tower: FieldTower, table: list[list[int]],
                   head: tuple[int, ...]) -> Counter:
    """A census of a_(e-1) over a table: for each a_(e-1), the columns y with
    a_(e-1) = table[-1][y] + sum a_i table[i][y], a_i the head.  Over k*, it
    is |ker F & k| - 1 of the monic F with a_0, ..., a_(e-2) = head."""
    add, mul = tower.add, tower.mul
    roots = table[-1]
    for a, ratios in zip(head, table):
        if a:
            roots = [add(c, mul(a, r)) for c, r in zip(roots, ratios)]
    return Counter(roots)


def _scan_count(tower: FieldTower, d: int, kernel: int, image: int | dict) -> int:
    """count(2) of a scanned F: kernel = |ker F & k|, image = |F(k) & L| or F(k)'s pivots."""
    if isinstance(image, dict):
        return _level_count(tower, image, kernel, 2, d)
    return 1 + kernel * (1 + math.gcd(d, tower.q2 - 1) * (image - 1))


def _maximal_kernels(q: int, p: int, e: int, d: int) -> set[int]:
    """The sizes |ker F & k| that let a monic F of degree m1 = p^e reach the
    maximal count (`_maximal_count`, genus (m1 - 1)(d - 1)/2) as
    1 + |K|(1 + g*hits), the count of the `curve_model` docstring,
    g = gcd(d, q^2 - 1) and 0 <= hits <= min(q^2/|K| - 1, (q^2 - 1)/g)."""
    g = math.gcd(d, q * q - 1)
    target = _maximal_count(q, (p ** e - 1) * (d - 1) // 2, 1) - 1
    return {k for k in (p ** j for j in range(e + 1))
            if target % k == 0 and (target // k - 1) % g == 0
            and (target // k - 1) // g <= min(q * q // k - 1, (q * q - 1) // g)}


def conjecture_explore(tower: FieldTower, m1: int, d: int | None = None,
                       budget: int = SCAN_BUDGET) -> ConjectureReport:
    """Grid-search monic additive models of degree m1 for maximality.

    Rescaling y by a d-th power c turns a_i into a_i * c^(p^i - m1), so
    each candidate is one of an orbit of scaling rows; only the
    lex-least of each orbit is tested.  The walk reaches those directly
    by a stabilizer chain: a candidate is least iff at each position i,
    a_i is least in its orbit under the rows that fix a_0, ..., a_(i-1),
    and the values allowed at i are kept per (position, fixing rows).
    Representatives come in `itertools.product` order over the lex-sorted
    field, and the rest are counted as skipped_equivalent.  The chain stops
    at each head a_0, ..., a_(e-2) with the allowed a_(e-1), so the work
    below is done once per head, then a plain loop runs over a_(e-1).

    Only candidates whose count is the maximal one are built.  After a
    head a_0, ..., a_(e-2), y in k* is a root of F iff a_(e-1) =
    -(y^m1 + sum over i < e-1 of a_i y^(p^i)) / y^(p^(e-1)), so one pass
    over k* per head gives K = |ker F & k| for every a_(e-1) (`_kernel_census`).
    The maximal count (`_maximal_count`) is 1 + K(1 + g*hits), the count of
    the `curve_model` docstring, only for some K (`_maximal_kernels`); the
    other candidates are not counted, the rest by `_scan_count`.  When the
    d-th powers and 0 form L = F_{p^j}, hits + 1 = |F(k) & L|.  Under the
    trace form Tr_{k/F_p}(xy), F(k)^perp = ker F* for the adjoint F*(y) =
    sum (a_i y)^(p^-i), L^perp = ker Tr_{k/L} (of dimension 2a - j), and
    (F(k) & L)^perp is their sum; as dim ker F* = dim ker F, |F(k) & L| =
    p^j |ker F* & ker Tr_{k/L}| / K.  For y != 0, F*(y)^(p^(e-1)) = 0 reads
    a_(e-1) = -y^(p^(2a-1) - 1) - sum over i < e-1 of a_i^(p^(e-1-i))
    y^(p^(e-1-i) - 1): a second census per head, over the y != 0 of
    ker Tr_{k/L} = {z^(p^j) - z} with the head twisted, gives dual =
    |ker F* & ker Tr_{k/L}| - 1, so hits = p^j (1 + dual)/K - 1 with no
    elimination.  Otherwise F is linear in a_(e-1): with
    F(b) - a_(e-1) b^(p^(e-1)) tabulated on the basis b of k once per head,
    a candidate's values F(b) cost 2a `mul` and `add`, and one `_echelon`
    of them gives the pivots that `_level_count` reads.  A built curve is a
    hit when `is_maximal` holds.  The budget still counts q^2 units (one
    level-2 field scan) per tested candidate, built or not; an exhausted
    budget yields a partial report with complete=False.
    """
    q = tower.q
    p = tower.p
    if d is None:
        d = q + 1
    e = 0
    while p ** e < m1:
        e += 1
    if p ** e != m1 or not 2 <= m1 <= q:
        raise ValueError("m1 must be a power of the characteristic with 2 <= m1 <= q")
    if math.gcd(d, p) != 1 or d < 2:
        raise ValueError("d must be at least 2 and prime to the characteristic")
    level2 = tower.elements(2)
    domains = [level2[1:]] + [level2] * (e - 1)  # level2[0] is 0
    scalers = {tower.pow(z, math.gcd(d, q * q - 1)) for z in domains[0]}
    rows = frozenset(tuple(tower.pow(c, p ** i - m1) for i in range(e)) for c in scalers)
    add, mul = tower.add, tower.mul
    allowed: dict[tuple[int, frozenset], list] = {}

    def least(i: int, fixing: frozenset) -> list:
        """(v, rows fixing a_0..a_i) for each orbit-least value v of a_i."""
        key = (i, fixing)
        if key not in allowed:
            mults = {row[i] for row in fixing}
            keep = frozenset(row for row in fixing if row[i] == 1)
            seen: set[int] = set()
            out = []
            for v in domains[i]:
                if v not in seen:
                    seen.update(mul(v, s) for s in mults)
                    out.append((v, keep if v else fixing))
            allowed[key] = out
        return allowed[key]

    def heads(i: int, fixing: frozenset, head: tuple[int, ...]):
        """(head, least(e - 1, ...)) for each walked head a_0, ..., a_(e-2)."""
        if i == e - 1:
            yield head, least(i, fixing)
            return
        for v, rest in least(i, fixing):
            yield from heads(i + 1, rest, head + (v,))

    # -y^(p^i - p^(e-1)) for i < e - 1, then -y^(m1 - p^(e-1)), over k*
    table = [[tower.neg(tower.pow(y, w - p ** (e - 1))) for y in domains[0]]
             for w in [p ** i for i in range(e - 1)] + [m1]]
    # L = F_(p^j), the d-th powers and 0, or j = 0 when they form no subfield
    j = next((j for j in range(1, 2 * tower.a + 1) if p ** j == len(scalers) + 1), 0)
    twists = [p ** (e - 1 - i) for i in range(e - 1)]  # a_i^(p^(e-1-i)) in F*^(p^(e-1))
    # -y^(w - 1) for w in twists, then -y^(q^2/p - 1), over ker Tr_{k/L} less 0
    trace0 = {add(tower.pow(z, p ** j), tower.neg(z)) for z in level2} - {0} if j else ()
    dual_table = [[tower.neg(tower.pow(y, w - 1)) for y in trace0]
                  for w in twists + [q * q // p]]
    # b^(p^i) for i <= e on the basis of k: F(b) = head(b) + a_(e-1) b^(p^(e-1)) + b^m1
    powers = [[tower.pow(b, p ** i) for b in _basis(tower, 2)] for i in range(e + 1)]
    maximal = _maximal_kernels(q, p, e, d)
    target = _maximal_count(q, (m1 - 1) * (d - 1) // 2, 1)
    unit_cost = q * q
    tested = 0
    reached = (q * q - 1) * q ** (2 * (e - 1))
    complete = True
    hits = []
    for head, last in heads(0, rows, ()):
        census = _kernel_census(tower, table, head)
        if j:
            dual = _kernel_census(tower, dual_table, tuple(map(tower.pow, head, twists)))
        else:
            images = powers[e]  # F on the basis, less a_(e-1) b^(p^(e-1))
            for c, column in zip(head, powers):
                if c:
                    images = [add(v, mul(c, w)) for v, w in zip(images, column)]
        for a, _ in last:
            if (tested + 1) * unit_cost > budget:
                complete = False
                reached = 0  # the product index of head + (a,)
                for dom, v in zip(domains, head + (a,)):
                    reached = reached * len(dom) + dom.index(v)
                break
            tested += 1
            kernel = 1 + census[a]
            if kernel not in maximal:
                continue
            image = p ** j * (1 + dual[a]) // kernel if j else {}  # |F(k) & L|
            if not j:  # the pivots of F(k)
                _echelon(tower, [(add(v, mul(a, w)), 0)
                                 for v, w in zip(images, powers[e - 1])], image)
            if _scan_count(tower, d, kernel, image) != target:
                continue
            curve = define_curve(tower, head + (a, 1), d)
            if curve.is_maximal:
                n = _system_n(curve)
                hits.append(ConjectureHit(
                    f_coeffs=curve.f_coeffs, genus=curve.genus, count=curve.count(2), n=n,
                    two_g_matches=2 * curve.genus == (m1 - 1) * q, n_m1_matches=n * m1 == q,
                ))
        if not complete:
            break
    return ConjectureReport(
        q=q, m1=m1, d=d, tested=tested, skipped_equivalent=reached - tested,
        hits=tuple(hits), complete=complete, budget=budget, spent=tested * unit_cost,
    )


# ---------------------------------------------------------------------------
# the audit: every check of the paper's chain on one curve, one verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Skipped:
    """A section that does not apply to the curve, and why."""

    skipped: str


@dataclass(frozen=True)
class AuditReport:
    linear_system: LinearSystemInfo
    ramification: RamificationReport | Skipped
    order_census: OrderCensus
    embedding: EmbeddingReport | Skipped
    dichotomy: DichotomyVerdict
    interval_classification: IntervalClassification
    all_identities: bool


def audit(curve: CurveModel) -> AuditReport:
    """Run every identity check on a maximal curve and decide the verdict.

    The ramification audit, census and embedding check share one orbit table.
    The trace-family sections (ramification, embedding) run when `family`
    is "hermitian-type", twisted models a*y^q + b*y = x^m included, and are
    Skipped with their reason on other curves, counting as passed.  The
    verdict also needs a dichotomy branch, no failed genus identity, a
    verified normalization when one was attempted, and an interval
    classification consistent with n.  The classification runs first,
    so a curve it rejects fails before the orbit fold.
    """
    info = linear_system_info(curve)
    cls = genus_interval_classify(curve.tower.q, curve.genus, n=info.n)
    orders = order_sequences(curve)
    try:
        ram = ramification_audit(curve, orders)
    except ValueError as exc:
        ram = Skipped(str(exc))
    census = order_census(curve, orders)
    try:
        emb = embedding_check(curve, orders)
    except ValueError as exc:
        emb = Skipped(str(exc))
    verdict = dichotomy_check(curve)
    all_ok = (
        (isinstance(ram, Skipped) or ram.all_ok)
        and census.ok
        and (isinstance(emb, Skipped) or emb.ok)
        and verdict.branch != BRANCH_NONE
        and verdict.genus_identity_ok is not False
        and (verdict.normalization is None or verdict.normalization.verified)
        and bool(cls.consistent))
    return AuditReport(
        linear_system=info, ramification=ram, order_census=census,
        embedding=emb, dichotomy=verdict, interval_classification=cls,
        all_identities=all_ok,
    )
