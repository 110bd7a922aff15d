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
        R[prow] = [gf.mul(lead, v) for v in R[prow]]
        for r in range(len(R)):
            if r != prow and R[r][col] != 0:
                f = R[r][col]
                R[r] = [gf.sub(R[r][j], gf.mul(f, R[prow][j])) for j in range(ncols)]
        pivots.append(col)
        prow += 1
        if prow == len(R):
            break
    return [tuple(r) for r in R[:prow]], pivots


def rank(rows, gf: GF) -> int:
    return len(rref(rows, gf)[0])


def reduce_against(vec, rref_rows, pivots, gf: GF):
    """Residual of `vec` after elimination by RREF rows; zero iff in span."""
    v = list(vec)
    for row, col in zip(rref_rows, pivots):
        if v[col] != 0:
            f = v[col]
            v = [gf.sub(v[j], gf.mul(f, row[j])) for j in range(len(v))]
    return v


def in_span(vec, rref_rows, pivots, gf: GF) -> bool:
    return all(x == 0 for x in reduce_against(vec, rref_rows, pivots, gf))

