"""Exact dense linear algebra over a field tower."""

from __future__ import annotations

from .field_tower import FieldTower


def row_echelon(tower: FieldTower, rows) -> dict[int, list[int]]:
    """Forward elimination of `rows`: {leading column: pivot row}.

    Each row, in order, is reduced at its leading column by the earlier
    pivot rows and, if it stays nonzero, scaled to a leading 1 and kept.
    The keys are the pivots of the reduced form; their number is the
    rank. For the row transform append the i-th unit vector to row i:
    the tail of a pivot keyed there is a vanishing combination of rows.
    """
    add, neg, mul = tower.add, tower.neg, tower.mul
    pivots: dict[int, list[int]] = {}
    for row in rows:
        row = list(row)
        for c in range(len(row)):
            if not row[c]:
                continue
            piv = pivots.get(c)
            if piv is None:
                inv = tower.inv(row[c])
                pivots[c] = [mul(inv, w) for w in row]
                break
            f = neg(row[c])
            for k in range(c, len(row)):
                if piv[k]:
                    row[k] = add(row[k], mul(f, piv[k]))
    return pivots
