"""`row_echelon` against a Gauss-Jordan oracle on the raw digit arithmetic."""

import random

import pytest

from maxcurves import build_tower
from maxcurves.linalg import row_echelon


def naive_rref(tw, rows):
    """Reduced row echelon form and pivots, using only the tower's
    table-free oracles `_add_raw`, `_neg_raw`, `_mul_raw` and `_pow_raw`."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0])
    pivots, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = tw._pow_raw(mat[r][c], tw.order - 2)
        mat[r] = [tw._mul_raw(inv, v) for v in mat[r]]
        for i in range(len(mat)):
            if i != r:
                f = mat[i][c]
                mat[i] = [tw._add_raw(v, tw._neg_raw(tw._mul_raw(f, w)))
                          for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def random_matrix(tw, rng, nrows, ncols, rank):
    """nrows x ncols over the ambient field, of rank at most `rank`: random
    rows, then combinations of them, in shuffled order, with a zero column."""
    basis = [[rng.randrange(tw.order) for _ in range(ncols)] for _ in range(rank)]
    rows = [row[:] for row in basis]
    while len(rows) < nrows:
        row = [0] * ncols
        for b in basis:
            c = rng.randrange(tw.order)
            row = [tw._add_raw(v, tw._mul_raw(c, w)) for v, w in zip(row, b)]
        rows.append(row)
    rng.shuffle(rows)
    zero = rng.randrange(ncols)
    for row in rows:
        row[zero] = 0
    return rows


def combination(tw, coeffs, rows):
    """sum coeffs[i] * rows[i], by `_add_raw` and `_mul_raw` only."""
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [tw._add_raw(v, tw._mul_raw(c, w)) for v, w in zip(out, row)]
    return out


@pytest.mark.parametrize("p,a", [(2, 2), (5, 1)], ids=str)
def test_row_echelon_matches_naive_rref(p, a):
    tw = build_tower(p, a)
    rng = random.Random(tw.order)
    deficient = 0
    for _ in range(12):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 9)
        rank = rng.randrange(1, nrows + 1)
        rows = random_matrix(tw, rng, nrows, ncols, rank)
        red, want = naive_rref(tw, rows)
        pivots = row_echelon(tw, rows)
        assert sorted(pivots) == want, rows
        for c, row in pivots.items():
            assert len(row) == ncols and not any(row[:c]) and row[c] == 1
        # same row space: equal reduced forms (a zero matrix has no rows)
        if pivots:
            assert naive_rref(tw, list(pivots.values()))[0] == red[:len(want)]
        # a unit tail carries the row transform: pivots keyed in the tail
        # are the vanishing combinations, one per rank deficiency
        wide = [row + [int(k == i) for k in range(nrows)]
                for i, row in enumerate(rows)]
        tails = [row[ncols:] for c, row in row_echelon(tw, wide).items()
                 if c >= ncols]
        assert len(tails) == nrows - len(want)
        for tail in tails:
            assert any(tail)
            assert combination(tw, tail, rows) == [0] * ncols
        deficient += len(want) < nrows
    assert deficient >= 3


def test_row_echelon_of_no_rows(t3):
    assert row_echelon(t3, []) == {}
