"""Exact dense linear algebra over a field tower."""

from __future__ import annotations

from .field_tower import FieldTower


def row_echelon(tower: FieldTower, rows) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form and ascending pivot column list."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    add, neg, mul = tower.add, tower.neg, tower.mul
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        piv = mat[r]
        inv = tower.inv(piv[c])
        for k in range(c, ncols):
            piv[k] = mul(inv, piv[k])
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = neg(mat[i][c])
                row = mat[i]
                for k in range(c, ncols):
                    row[k] = add(row[k], mul(f, piv[k]))
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots

