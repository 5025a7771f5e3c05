"""Evaluation codes from one-point pole divisors on maximal curves.

The generator matrix evaluates the monomial basis of
L(lambda * P_infinity) at every affine rational point in canonical
enumeration order. Exact minimum distances are found by scanning
message classes with the leading nonzero symbol fixed to 1, under an
explicit work budget; a depth-first walk derives each word from its
parent by adding one pre-scaled row, one packed add per word.
`export_matrix` writes the generator matrix as CSV or JSON for other
tools; the package reads neither format back.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

from .curve_model import CurveModel
from .field_tower import BudgetError, _packed_words
from .function_field import rr_basis
from .linalg import row_echelon

# words one exact distance scan may weigh; within the default tower budget
# the longest such scan, 28 731 words at q = 13, n = 2197, takes about 1 s
DISTANCE_BUDGET = 1 << 16


@dataclass(frozen=True)
class EvalCode:
    curve: CurveModel
    lam: int
    length: int
    dimension: int
    d_designed: int
    monomials: tuple[tuple[int, int], ...]
    matrix: tuple[tuple[int, ...], ...]
    rank_verified: bool


def build_code(curve: CurveModel, lam: int) -> EvalCode:
    """Evaluate the L(lambda * P_infinity) basis at all affine rational points."""
    if not curve.is_maximal:
        raise ValueError("evaluation codes here require a maximal curve")
    points = curve.enumerate_points(2)[:-1]  # infinity is always last
    length = len(points)
    if not 0 <= lam < length:
        raise ValueError("lambda must satisfy 0 <= lambda < code length")
    basis = rr_basis(curve, lam)
    t = curve.tower
    rows = tuple(
        tuple(t.mul(t.pow(P.x, i), t.pow(P.y, j)) for P in points)
        for i, j in basis.monomials)
    rank = len(row_echelon(t, rows))
    return EvalCode(
        curve=curve,
        lam=lam,
        length=length,
        dimension=basis.dimension,
        d_designed=length - lam,
        monomials=basis.monomials,
        matrix=rows,
        rank_verified=rank == basis.dimension,
    )


@dataclass(frozen=True)
class DistanceReport:
    distance: int
    scanned: int
    d_designed: int
    attains_designed: bool


def min_distance_exact(code: EvalCode) -> DistanceReport:
    """Exact minimum weight by exhausting messages up to scalar multiples.

    Messages run in `itertools.product` order with the leading nonzero
    symbol fixed to 1. Each row after the first is scaled by every unit
    of level 2 once, up front, and every word is packed into one int
    (`field_tower._packed_words`); a depth-first walk then derives each
    word from its parent by one packed add and reads its weight by one
    fold, with no `add` or `mul` per cell. `DISTANCE_BUDGET` bounds the
    ``(q2**k - 1) / (q2 - 1)`` words, exactly the report's `scanned`.
    """
    t = code.curve.tower
    k = code.dimension
    n = code.length
    cost = (t.q2 ** k - 1) // (t.q2 - 1)
    if cost > DISTANCE_BUDGET:
        raise BudgetError(f"distance scan weighs {cost} words, "
                          f"budget is {DISTANCE_BUDGET}")
    pack, add, weight = _packed_words(t, n)
    # the walk never adds row 0, which only leads; elements(2)[0] is 0
    scaled = [[pack([t.mul(c, v) for v in row]) for c in t.elements(2)[1:]]
              for row in code.matrix[1:]]
    best = n
    scanned = 0

    def walk(word, depth):
        nonlocal best, scanned
        if depth == k:
            scanned += 1
            best = min(best, weight(word))
            return
        walk(word, depth + 1)  # symbol 0 keeps the parent word
        for srow in scaled[depth - 1]:
            walk(add(word, srow), depth + 1)

    for lead in range(k):
        walk(pack(code.matrix[lead]), lead + 1)
    if best < code.d_designed:
        raise RuntimeError("scan found a word below the designed distance")
    return DistanceReport(
        distance=best,
        scanned=scanned,
        d_designed=code.d_designed,
        attains_designed=best == code.d_designed,
    )


# ---------------------------------------------------------------------------
# matrix export
# ---------------------------------------------------------------------------

def export_matrix(code: EvalCode, path: str, fmt: str = "csv") -> None:
    t = code.curve.tower
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "k", "lambda", "q2"])
            w.writerow([code.length, code.dimension, code.lam, t.q2])
            for row in code.matrix:
                w.writerow([t.format_element(v) for v in row])
    elif fmt == "json":
        payload = {
            "params": {
                "n": code.length,
                "k": code.dimension,
                "lambda": code.lam,
                "q2": t.q2,
            },
            "basis_monomials": [[i, j] for i, j in code.monomials],
            "matrix": [[t.digits(v) for v in row] for row in code.matrix],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    else:
        raise ValueError("format must be csv or json")
