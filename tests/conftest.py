"""Session fixtures: the small towers, the worked curve instances, and the
slow order-sequence oracles."""

import pytest
from hypothesis import settings

import maxcurves.verdicts as verdicts

from maxcurves import (
    FieldTower,
    build_tower,
    define_curve,
    hermitian_curve,
    order_sequence,
    weierstrass,
)

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


@pytest.fixture
def products_stay_in_k(monkeypatch):
    """Fail the test if a top-2 tower forms a product outside k: no command does."""
    def leaves_k(tower):
        pytest.fail(f"{tower!r} formed a product outside k")

    monkeypatch.setattr(FieldTower, "_full", property(leaves_k))


@pytest.fixture(scope="session")
def t2():
    return build_tower(2, 1)


@pytest.fixture(scope="session")
def t3():
    return build_tower(3, 1)


@pytest.fixture(scope="session")
def t4():
    return build_tower(2, 2)


@pytest.fixture(scope="session")
def t5():
    return build_tower(5, 1)


@pytest.fixture(scope="session")
def t7():
    return build_tower(7, 1)


@pytest.fixture(scope="session")
def t8():
    return build_tower(2, 3)


@pytest.fixture(scope="session")
def t9():
    return build_tower(3, 2)


@pytest.fixture(scope="session")
def t16():
    """q = 16; the largest tower the suite touches."""
    return build_tower(2, 4)


@pytest.fixture(scope="session")
def h32(t2):
    """y^2 + y = x^3 over F_4, genus 1, 9 rational points."""
    return hermitian_curve(t2, 3)


@pytest.fixture(scope="session")
def h23(t3):
    """y^3 + y = x^2 over F_9, genus 1, 16 rational points."""
    return hermitian_curve(t3, 2)


@pytest.fixture(scope="session")
def h43(t3):
    """y^3 + y = x^4 over F_9, genus 3; the full norm-trace case m = q + 1."""
    return hermitian_curve(t3, 4)


@pytest.fixture(scope="session")
def h25(t5):
    """y^5 + y = x^2 over F_25, genus 2, 46 rational points."""
    return hermitian_curve(t5, 2)


@pytest.fixture(scope="session")
def h35(t5):
    """y^5 + y = x^3 over F_25, genus 4, 66 rational points."""
    return hermitian_curve(t5, 3)


@pytest.fixture(scope="session")
def add45(t4):
    """y^2 + y = x^5 over F_16; additive left side of degree 2 < q."""
    return define_curve(t4, (1, 1), 5)


@pytest.fixture(scope="session")
def add43(t4):
    """y^4 + y^2 + y = x^3 over F_16; the relation rewrites y^4 by two terms."""
    return define_curve(t4, (1, 1, 1), 3)


@pytest.fixture(scope="session")
def nonmax(t3):
    """y^3 + y = x^7 over F_9: valid model, far from maximal (10 points)."""
    return define_curve(t3, (1, 1), 7)


@pytest.fixture
def no_pruning(monkeypatch):
    """The conjecture scan with both of its rules off: every kernel size
    admits the maximal count, and every candidate's count (`_scan_count`,
    on either branch) is taken to be that count, so every walked candidate
    is built and counted."""
    maximal = []

    def every_kernel(q, p, e, d):
        maximal[:] = [q * q + (p ** e - 1) * (d - 1) * q + 1]
        return {p ** j for j in range(e + 1)}

    monkeypatch.setattr(verdicts, "_maximal_kernels", every_kernel)
    monkeypatch.setattr(verdicts, "_scan_count", lambda *args: maximal[0])


# ---------------------------------------------------------------------------
# the slow order-sequence oracles
# ---------------------------------------------------------------------------

def _orbit(curve, P):
    """The points whose x is in the class of P.x under x -> alpha * sigma^e(x),
    alpha the scalings of _orbit_group, and whose rationality is P's."""
    if P.is_infinity:
        return {P}
    t = curve.tower
    xs = {t.mul(alpha, x) for alpha, _ in weierstrass._orbit_group(curve)
          for x in (P.x, t.frobenius_k(P.x))}
    rational = curve.is_rational(P)
    return {Q for Q in curve.enumerate_points(4)
            if Q.x in xs and curve.is_rational(Q) == rational}


@pytest.fixture(scope="session")
def exhaustive_orders():
    """{P: orders} by one order_sequence per point over F_{q^4}, kept per curve."""
    cache = {}

    def orders(curve):
        key = (curve.tower, curve.f_coeffs, curve.d)
        if key not in cache:
            cache[key] = {P: order_sequence(curve, P)
                          for P in curve.enumerate_points(4)}
        return cache[key]
    return orders


@pytest.fixture(scope="session")
def check_orbit_table(exhaustive_orders):
    """Assert that an order_sequences table is the class fold of the oracle.

    The x-class and rationality class of each representative (`_orbit`)
    must partition the points over F_{q^4}, have the recorded sizes, and
    carry the oracle's orders at every point.
    """
    def check(curve, table):
        oracle = exhaustive_orders(curve)
        covered = set()
        for P, (orders, size) in table.items():
            orbit = _orbit(curve, P)
            assert len(orbit) == size and not orbit & covered, (curve, P)
            assert all(oracle[Q] == orders for Q in orbit), (curve, P)
            covered |= orbit
        assert covered == oracle.keys(), curve
    return check
