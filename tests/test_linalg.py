"""Row reduction against the former elimination, kept as an oracle."""

import random

import pytest

from sumrank import linalg
from sumrank.gf import field


def oracle_rref(rows, gf):
    """The former `linalg.rref`: every column of every row is updated."""
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


def oracle_reduce_against(vec, rref_rows, pivots, gf):
    """The former `linalg.reduce_against`."""
    v = list(vec)
    for row, col in zip(rref_rows, pivots):
        if v[col] != 0:
            f = v[col]
            v = [gf.sub(v[j], gf.mul(f, row[j])) for j in range(len(v))]
    return v


def random_matrix(gf, rng, nrows, ncols, rank):
    """An nrows x ncols matrix of rank at most `rank`: random combinations
    of `rank` random rows, with zero columns and rows left in by chance."""
    basis = [[rng.randrange(gf.order) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        row = [0] * ncols
        for b in basis:
            c = rng.randrange(gf.order)
            row = [gf.add(x, gf.mul(c, y)) for x, y in zip(row, b)]
        rows.append(row)
    return rows


@pytest.mark.parametrize("p,deg", [(2, 3), (2, 4), (5, 2), (7, 2)])
def test_rref_matches_oracle(p, deg):
    gf = field(p, deg)
    rng = random.Random(p * 10 + deg)
    full_rank = set()
    for nrows, ncols in [(3, 7), (7, 3), (5, 5), (1, 6), (6, 1), (8, 12), (12, 8)]:
        for rank in {0, 1, min(nrows, ncols) - 1, min(nrows, ncols)}:
            for _ in range(3):
                M = random_matrix(gf, rng, nrows, ncols, rank)
                got = linalg.rref(M, gf)
                assert got == oracle_rref(M, gf)
                full_rank.add(len(got[0]) == min(nrows, ncols))
                vec = [rng.randrange(gf.order) for _ in range(ncols)]
                assert linalg.reduce_against(vec, *got, gf) == oracle_reduce_against(vec, *got, gf)
    assert full_rank == {True, False}


def test_rref_of_no_rows():
    assert linalg.rref([], field(2, 3)) == ([], [])
