"""Exact linear algebra over small finite fields (row lists of ints)."""

from __future__ import annotations

from .gf import GF


def rref(rows, gf: GF):
    """Row-reduced echelon form.

    Returns (reduced_rows, pivot_cols); zero rows are dropped, so the number
    of returned rows is the rank.
    """
    R = [list(r) for r in rows]
    if not R:
        return [], []
    mul, sub = gf.mul, gf.sub
    ncols = len(R[0])
    pivots = []
    prow = 0
    for col in range(ncols):
        found = -1
        for r in range(prow, len(R)):
            if R[r][col] != 0:
                found = r
                break
        if found < 0:
            continue
        R[prow], R[found] = R[found], R[prow]
        lead = gf.inv(R[prow][col])
        pivot = R[prow] = [mul(lead, v) for v in R[prow]]
        # a column where the pivot row is 0 keeps its entries
        support = [(j, v) for j, v in enumerate(pivot) if v != 0]
        for r, row in enumerate(R):
            f = row[col]
            if r != prow and f != 0:
                for j, v in support:
                    row[j] = sub(row[j], mul(f, v))
        pivots.append(col)
        prow += 1
        if prow == len(R):
            break
    return [tuple(r) for r in R[:prow]], pivots


def rank(rows, gf: GF) -> int:
    return len(rref(rows, gf)[0])


def reduce_against(vec, rref_rows, pivots, gf: GF):
    """Residual of `vec` after elimination by RREF rows; zero iff in span."""
    mul, sub = gf.mul, gf.sub
    v = list(vec)
    for row, col in zip(rref_rows, pivots):
        f = v[col]
        if f != 0:
            for j, x in enumerate(row):
                if x != 0:
                    v[j] = sub(v[j], mul(f, x))
    return v


def in_span(vec, rref_rows, pivots, gf: GF) -> bool:
    return all(x == 0 for x in reduce_against(vec, rref_rows, pivots, gf))

