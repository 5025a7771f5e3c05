"""Evaluation codes: parameters, exact distance, and matrix round trips."""

import csv
import dataclasses
import itertools
import json
import random

import pytest

from maxcurves import (
    BudgetError,
    FuncElement,
    build_code,
    export_matrix,
    hermitian_curve,
    min_distance_exact,
    rr_basis,
)
from maxcurves import agcode
from maxcurves.function_field import evaluate


def codeword(tower, matrix, message):
    n = len(matrix[0])
    out = [0] * n
    for m, row in zip(message, matrix):
        if m:
            for i, v in enumerate(row):
                out[i] = tower.add(out[i], tower.mul(m, v))
    return out


def naive_min_distance(code):
    """Scan every nonzero message, no scaling shortcuts."""
    t = code.curve.tower
    alphabet = t.elements(2)
    best = code.length
    for msg in itertools.product(alphabet, repeat=code.dimension):
        if not any(msg):
            continue
        w = sum(1 for v in codeword(t, code.matrix, msg) if v)
        best = min(best, w)
    return best


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_code_parameters(h32):
    for lam, k, dd in ((3, 3, 5), (2, 2, 6), (1, 1, 7)):
        code = build_code(h32, lam)
        assert code.length == 8
        assert code.dimension == k
        assert code.d_designed == dd
        assert code.rank_verified
        assert len(code.matrix) == k
        assert all(len(row) == 8 for row in code.matrix)


def test_matrix_rows_are_evaluations(h32):
    code = build_code(h32, 3)
    pts = h32.enumerate_points(2)[:-1]
    assert len(pts) == code.length
    for row, ij in zip(code.matrix, rr_basis(h32, 3).monomials):
        assert list(row) == [evaluate(FuncElement(h32, {ij: 1}), P) for P in pts]


def test_code_validation(h32, nonmax):
    with pytest.raises(ValueError):
        build_code(h32, 8)  # lam must stay below the length
    with pytest.raises(ValueError):
        build_code(h32, -1)
    with pytest.raises(ValueError):
        build_code(nonmax, 3)


# ---------------------------------------------------------------------------
# exact minimum distance
# ---------------------------------------------------------------------------

def test_exact_distances_match_designed(h32):
    for lam, want in ((3, 5), (2, 6)):
        code = build_code(h32, lam)
        rep = min_distance_exact(code)
        assert rep.distance == want
        assert rep.d_designed == want
        assert rep.attains_designed
        assert rep.scanned > 0


def test_exact_distance_can_beat_designed(h32):
    # the lam = 1 code is a scaled repetition code of full weight 8
    rep = min_distance_exact(build_code(h32, 1))
    assert rep.distance == 8
    assert rep.d_designed == 7
    assert not rep.attains_designed


def test_distance_against_naive_scan(h32, h23, h43, h25, h35, t4):
    h54 = hermitian_curve(t4, 5)
    cases = [(h32, lam) for lam in (1, 2, 3)]
    cases += [(h23, 2), (h23, 3), (h23, 4), (h43, 3), (h43, 4),
              (h25, 3), (h35, 3), (h54, 5)]
    for curve, lam in cases:
        code = build_code(curve, lam)
        q2, k = curve.tower.q2, code.dimension
        rep = min_distance_exact(code)
        assert rep.distance == naive_min_distance(code), (curve, lam)
        assert rep.scanned == (q2 ** k - 1) // (q2 - 1), (curve, lam)


def test_distance_against_naive_scan_on_random_matrices(h32, h23):
    # random codes have few minimum-weight words, so a walk that skips
    # messages misses them
    rng = random.Random(5)
    for curve in (h32, h23):
        base = build_code(curve, 3)
        level2 = curve.tower.elements(2)
        for _ in range(20):
            k, n = rng.randint(1, 3), rng.randint(3, 6)
            matrix = tuple(tuple(rng.choice(level2) for _ in range(n))
                           for _ in range(k))
            code = dataclasses.replace(
                base, length=n, dimension=k, d_designed=0, matrix=matrix)
            assert min_distance_exact(code).distance == naive_min_distance(code), matrix


def test_distance_scan_multiplies_only_in_its_table(h23, monkeypatch):
    code = build_code(h23, 3)
    t = h23.tower
    calls = {"mul": 0, "add": 0}

    def counted(name):
        op = getattr(t, name)

        def wrapper(x, y):
            calls[name] += 1
            return op(x, y)
        return wrapper

    monkeypatch.setattr(t, "mul", counted("mul"))
    monkeypatch.setattr(t, "add", counted("add"))
    min_distance_exact(code)
    # rows 1..k-1 are scaled once; words add packed, and the only `add`
    # calls are the q^2 - 1 of the span that gives k its coordinates
    assert calls["mul"] <= (code.dimension - 1) * t.q2 * code.length
    assert calls["add"] == t.q2 - 1


def test_distance_budget(h35, monkeypatch):
    code = build_code(h35, 10)
    with pytest.raises(BudgetError):
        min_distance_exact(code)  # 25^7 messages dwarf the budget
    monkeypatch.setattr(agcode, "DISTANCE_BUDGET", 10)
    with pytest.raises(BudgetError):
        min_distance_exact(build_code(h35, 3))


def test_distance_budget_is_exact(h23, monkeypatch):
    # the budget counts words, one per message up to scalars: the report's `scanned`
    code = build_code(h23, 3)
    monkeypatch.setattr(agcode, "DISTANCE_BUDGET", 1 << 60)
    scanned = min_distance_exact(code).scanned
    monkeypatch.setattr(agcode, "DISTANCE_BUDGET", scanned)
    assert min_distance_exact(code).distance == code.d_designed
    monkeypatch.setattr(agcode, "DISTANCE_BUDGET", scanned - 1)
    with pytest.raises(BudgetError):
        min_distance_exact(code)


# ---------------------------------------------------------------------------
# export, read back with csv and json
# ---------------------------------------------------------------------------

def test_csv_round_trip(h32, tmp_path):
    code = build_code(h32, 3)
    path = tmp_path / "mat.csv"
    export_matrix(code, path, "csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    params = {name: int(v) for name, v in zip(rows[0], rows[1])}
    matrix = tuple(tuple(h32.tower.parse_element(cell) for cell in row)
                   for row in rows[2:])
    assert params == {"n": 8, "k": 3, "lambda": 3, "q2": 4}
    assert matrix == code.matrix
    lines = path.read_text().splitlines()
    assert lines[0] == "n,k,lambda,q2"
    assert lines[1] == "8,3,3,4"


def test_json_round_trip(h32, tmp_path):
    code = build_code(h32, 3)
    path = tmp_path / "mat.json"
    export_matrix(code, path, "json")
    doc = json.loads(path.read_text())
    assert set(doc) == {"params", "basis_monomials", "matrix"}
    assert doc["params"]["n"] == 8
    matrix = tuple(tuple(h32.tower.element(cell) for cell in row)
                   for row in doc["matrix"])
    assert matrix == code.matrix
    assert doc["params"]["lambda"] == 3


def test_export_rejects_unknown_format(h32, tmp_path):
    with pytest.raises(ValueError):
        export_matrix(build_code(h32, 3), tmp_path / "x", "xml")
