"""Order sequences, semigroup gaps, and the ramification audit.

Order sequences are read off as the leading columns of the forward
elimination of the basis-expansion matrix at a point: they are exactly
the t-adic valuations attained by the linear system there.
`order_sequences` returns one table, {representative: (orders, size)},
with at most two entries per class of x below.  The ramification audit,
the order census and the embedding check read each entry once and
weight it by size; the audit cross-checks the divisor degrees of the
system cut by L((q+1) * P_infinity) against per-point weights over the
full point set of a maximal trace-family curve.

The classes of x come from the group G generated by the q^2-power
Frobenius sigma and the scalings (x, y) -> (alpha * x, alpha^d * y)
with alpha in k and alpha^d in F_{p^s}, s = `curve.scalar_degree(2)`,
so that F(alpha^d * y) = alpha^d * F(y).  The scalings are automorphisms
fixing P_infinity, so they carry L((q+1) * P_infinity) to itself, and
sigma conjugates the expansion of every k-rational function; so the
orders of the system and rationality are constant on orbits
(Stohr-Voloch 1986).  The orders are moreover constant on each fiber
y0 + ker F over F_{q^4}: y -> y + kappa, kappa in ker F, fixes x and
sends x^i y^j to x^i (y + kappa)^j, a unitriangular combination of the
x^i y^l with l <= j, and the monomials of L((q+1) * P_infinity) form a
down-set, so the rows at any two points of a fiber span the same space.
So `order_sequences` makes one `order_sequence` call per class of x
with points, and splits its points only by rationality.  The exhaustive
map, one `order_sequence` per point, survives only as the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curve_model import INFINITY, CurveModel, Point
from .field_tower import PrecisionError
from .function_field import monomial_series, rr_basis
from .linalg import row_echelon


# ---------------------------------------------------------------------------
# numerical semigroups
# ---------------------------------------------------------------------------

def semigroup_gaps(generators) -> tuple[int, ...]:
    """Gaps of the numerical semigroup generated by the given integers.

    The reachability sieve is extended until a full window of min(gens)
    consecutive values is reachable, which certifies that no gaps lie
    beyond the sieve bound.  The tests check the pole orders of
    `rr_basis` at P_infinity against it; the package does not export it.
    """
    gens = sorted({int(g) for g in generators})
    if not gens or gens[0] < 1:
        raise ValueError("generators must be positive integers")
    if math.gcd(*gens) != 1:
        raise ValueError("generators must have gcd 1")
    m = gens[0]
    if m == 1:
        return ()
    bound = (gens[0] - 1) * (gens[-1] - 1) + m
    while True:
        reach = bytearray(bound + 1)
        reach[0] = 1
        for g in gens:
            for v in range(g, bound + 1):
                if reach[v - g]:
                    reach[v] = 1
        if all(reach[bound - m + 1:]):
            return tuple(v for v in range(1, bound + 1) if not reach[v])
        bound *= 2


# ---------------------------------------------------------------------------
# order sequences of the (q+1)-system
# ---------------------------------------------------------------------------

def order_sequence(curve: CurveModel, P: Point) -> tuple[int, ...]:
    """The orders at P of the system cut out by L((q+1)P_inf), increasing.

    The orders are the valuations v_P(f) attained in the span.  A
    nonzero f in L((q+1)P_inf) has at most q + 1 zeros counted with
    multiplicity, so v_P(f) <= q + 1 at every affine P.  Expansions to
    q + 2 terms therefore keep every f of the span nonzero with its
    valuation intact, and the leading columns of one forward
    elimination of those expansions are the orders.
    """
    q = curve.tower.q
    basis = rr_basis(curve, q + 1)
    if P.is_infinity:
        return tuple(sorted(q + 1 - w for w in basis.pole_orders))
    if not curve.on_curve(P):
        raise ValueError("point is not on the curve")
    rows = monomial_series(curve, P, basis.monomials, q + 2)
    pivots = row_echelon(curve.tower, rows)
    if len(pivots) != basis.dimension:
        raise PrecisionError(
            f"order sequence unresolved at precision {q + 2}")
    return tuple(sorted(pivots))


def _orbit_group(curve: CurveModel) -> tuple[tuple[int, int], ...]:
    """The pairs (alpha, alpha^d) of the scalings in G (module docstring).

    The alpha are the g-th roots of unity, g = gcd(d (p^s - 1), q^2 - 1):
    exactly the alpha in k with alpha^d in F_{p^s}.
    """
    t = curve.tower
    g = math.gcd(curve.d * (t.p ** curve.scalar_degree(2) - 1), t.q2 - 1)
    alphas = [t.pow(t.xi, (t.q2 - 1) // g * i) for i in range(g)]
    return tuple((alpha, t.pow(alpha, curve.d)) for alpha in alphas)


# {representative: (orders, size)}: per class of x, one entry for its points
# over k and one for the rest (module docstring)
OrbitTable = dict[Point, tuple[tuple[int, ...], int]]


def order_sequences(curve: CurveModel) -> OrbitTable:
    """{representative: (orders, size)} over F_{q^4}, folded by classes of x.

    The classes of x != 0 under x -> alpha * sigma^e(x) are, in logs, the
    residues r mod M = (q^4 - 1)/g under r -> q^2 r, of g or 2g values of
    x; x = 0 is its own class.  A class whose x^d is no value of F has no
    points, any other the fiber y0 + ker F of `curve.fiber(x, 4)` over each
    x, with one order sequence.  Its entries are the points over k, the
    fiber `curve.fiber(x, 2)` when x is in k, and the rest, each of size
    the class size times its points over x, kept when nonempty.
    RuntimeError is raised when a pair (alpha, beta) is no automorphism
    or the sizes do not sum to `count(4)`.
    """
    t = curve.tower
    pairs = _orbit_group(curve)
    for alpha, beta in pairs:
        if any(t.pow(alpha, curve.d) != t.pow(beta, t.p ** i)
               for i, c in enumerate(curve.f_coeffs) if c):
            raise RuntimeError(f"(x, y) -> ({alpha} x, {beta} y) is not an "
                               "automorphism of the curve")
    out = {INFINITY: (order_sequence(curve, INFINITY), 1)}

    def fold(x, class_size):
        fiber = curve.fiber(x, 4)
        if not fiber:
            return
        orders = order_sequence(curve, Point(x, fiber[0]))
        rational = set(curve.fiber(x, 2)) if t.in_level(x, 2) else set()
        for part in (rational, set(fiber) - rational):
            if part:
                out[Point(x, min(part))] = (orders, class_size * len(part))

    g, q2 = len(pairs), t.q2
    M = t.units // g
    fold(0, 1)
    for r in range(M):
        r2 = r * q2 % M
        if r2 >= r:  # r is the least of its class, which has g or 2g values
            fold(t.exp(r), g if r2 == r else 2 * g)
    total = sum(size for _, size in out.values())
    if total != curve.count(4):
        raise RuntimeError(f"orbit sizes sum to {total}, not the "
                           f"{curve.count(4)} points over F_(q^4)")
    return out


# ---------------------------------------------------------------------------
# divisor degrees of the system and the full audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearSystemInfo:
    dimension: int
    n: int
    epsilon_orders: tuple[int, ...]
    frobenius_orders: tuple[int, ...]
    ramification_degree: int
    frobenius_divisor_degree: int


def _system_n(curve: CurveModel) -> int:
    """n, the projective dimension of the system cut by L((q+1) P_infinity)."""
    return rr_basis(curve, curve.tower.q + 1).dimension - 2


def linear_system_info(curve: CurveModel) -> LinearSystemInfo:
    if not curve.is_maximal:
        raise ValueError("linear-system analysis requires a maximal curve")
    q = curve.tower.q
    n = _system_n(curve)
    dim = n + 2
    if n < 1:
        raise ValueError("the system must have projective dimension at least 2")
    g = curve.genus
    eps = tuple(range(n + 1)) + (q,)
    nus = tuple(range(n)) + (q,)
    deg_r = sum(eps[1:]) * (2 * g - 2) + dim * (q + 1)
    deg_s = sum(nus[1:]) * (2 * g - 2) + (q * q + n + 1) * (q + 1)
    return LinearSystemInfo(
        dimension=dim,
        n=n,
        epsilon_orders=eps,
        frobenius_orders=nus,
        ramification_degree=deg_r,
        frobenius_divisor_degree=deg_s,
    )


@dataclass(frozen=True)
class RamificationReport:
    """Identity-by-identity audit of the (q+1)-system on a trace curve.

    Points with x = 0 together with the infinite place form the ramified
    locus of the degree-d covering; every identity below ties their
    order-sequence weights to the global divisor degrees.  Every
    non-rational point over F_{q^4} is checked (nonrational_checked).
    """

    ramified_count: int
    unramified_rational_count: int
    euler_identity_ok: bool
    weight_ramified: int
    weight_unramified: int
    weight_sum_ok: bool
    ramified_orders_ok: bool
    unramified_orders_ok: bool
    frobenius_sum_ok: bool
    nonrational_generic_ok: bool
    nonrational_checked: int
    fiber_census_ok: bool
    all_ok: bool


def ramification_audit(curve: CurveModel, orders: OrbitTable) -> RamificationReport:
    """Audit the identities at every point, once per `order_sequences` entry."""
    info = linear_system_info(curve)
    if curve.family != "hermitian-type":
        raise ValueError("the ramification audit supports the trace family only")
    if info.n < 2:
        raise ValueError("the audit needs projective dimension at least 3")
    q = curve.tower.q
    n = info.n
    m = curve.d
    g = curve.genus

    w1 = n * ((n - 1) * m - n - 1) // 2 + 2  # the product is even for every n, m
    w2 = 1

    eps = info.epsilon_orders
    nus = info.frobenius_orders
    expected_ram = orders[INFINITY][0]
    expected_unram = tuple(range(n + 1)) + (q + 1,)

    t1 = t2 = nonrational = frob_sum = 0
    ram_ok = unram_ok = generic_ok = True
    for P, (seq, size) in orders.items():
        if not curve.is_rational(P):
            nonrational += size
            generic_ok = generic_ok and seq == eps
            continue
        jw = sum(a - b for a, b in zip(seq, eps))
        frob_sum += size * sum(seq[i + 1] - nus[i] for i in range(n + 1))
        if P.is_infinity or P.x == 0:
            t1 += size
            ram_ok = ram_ok and seq == expected_ram and jw == w1
        else:
            t2 += size
            unram_ok = unram_ok and seq == expected_unram and jw == w2
    t1_ok = t1 == q + 1
    euler_ok = 2 * g - 2 == -2 * m + (m - 1) * t1
    weight_sum_ok = w1 * t1 + w2 * t2 == info.ramification_degree
    frob_ok = frob_sum == info.frobenius_divisor_degree

    census_ok = _fiber_census(curve)

    all_ok = (t1_ok and euler_ok and weight_sum_ok and ram_ok and unram_ok
              and frob_ok and generic_ok and census_ok)
    return RamificationReport(
        ramified_count=t1,
        unramified_rational_count=t2,
        euler_identity_ok=t1_ok and euler_ok,
        weight_ramified=w1,
        weight_unramified=w2,
        weight_sum_ok=weight_sum_ok,
        ramified_orders_ok=ram_ok,
        unramified_orders_ok=unram_ok,
        frobenius_sum_ok=frob_ok,
        nonrational_generic_ok=generic_ok,
        nonrational_checked=nonrational,
        fiber_census_ok=census_ok,
        all_ok=all_ok,
    )


@dataclass(frozen=True)
class OrderCensus:
    """Pointwise order-sequence facts over the full level-4 point set."""

    points: int
    j1_all_one: bool
    rational_top_ok: bool
    nonrational_top_ok: bool
    weierstrass_equals_rational: bool
    ok: bool


def order_census(curve: CurveModel, orders: OrbitTable) -> OrderCensus:
    """Check j_1 = 1 everywhere and the rational/non-rational top split.

    The top order is q+1 exactly at rational points and q elsewhere, so
    the Weierstrass locus of the system is the set of rational points.
    Each entry of `order_sequences(curve)` is checked once, counted by size.
    """
    q = curve.tower.q
    n = _system_n(curve)
    generic = tuple(range(n + 1)) + (q,)
    j1_ok = True
    rat_top = True
    nonrat_top = True
    wp_match = True
    for P, (seq, _) in orders.items():
        if seq[1] != 1:
            j1_ok = False
        rational = curve.is_rational(P)
        if rational and seq[-1] != q + 1:
            rat_top = False
        if not rational and seq[-1] != q:
            nonrat_top = False
        if (seq != generic) != rational:
            wp_match = False
    ok = j1_ok and rat_top and nonrat_top and wp_match
    return OrderCensus(
        points=sum(size for _, size in orders.values()),
        j1_all_one=j1_ok,
        rational_top_ok=rat_top,
        nonrational_top_ok=nonrat_top,
        weierstrass_equals_rational=wp_match,
        ok=ok,
    )


def _fiber_census(curve: CurveModel) -> bool:
    """Every nonzero value of F on k is a d-th power with d rational roots."""
    tower = curve.tower
    q = tower.q
    level2 = tower.elements(2)
    root_count: dict[int, int] = {}
    for x in level2:
        if x:
            v = tower.pow(x, curve.d)
            root_count[v] = root_count.get(v, 0) + 1
    return (len(curve.kernel(2)) == q
            and all(root_count.get(v, 0) == curve.d for v in curve.image(2) if v))
