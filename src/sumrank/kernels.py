"""Exhaustive minimum sum-rank weight of an F-linear code, vectorized in numpy.

Scaling a codeword by an element of F* keeps every block rank, so one
message per F*-line suffices: leading digit 1 at some position i, then every
tail.  Codewords are built in chunks of at most CHUNK by `addF` gathers of a
prefix row over the span of the last rows.  That span is built once per
code: the tail of every leading row ends in the same last rows, and the
combinations of the last j of them are the span's first |F|^j entries.  A
block's rank over the subfield E is the rank over F of its Moore matrix, the
rows (v, v^q, ..., v^(q^(m-1))) with q = |E|, and comes from one vectorized
Gaussian elimination over F; for blocks with at most TABLE_CAP possible
values it is run once on every value and memoized as a lookup table.  A
block with fewer possible values than the chunk has rows is ranked once per
value (prefix + v for every v), and each codeword reads its rank at the key
of its span row, computed once per code.

numpy is imported inside the functions that build or run the tables, so
importing the package (and every CLI call that does not enumerate) does not
pay for it.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import FieldTooLarge

CHUNK = 4096  # codewords per chunk
TABLE_CAP = 4096  # largest |F|^b memoized as a block-rank table
ORDER_CAP = 4096  # largest |F| with dense add/mul tables


def _arithmetic(gf):
    """(mul, add, neg, inv) tables of gf, with inv[0] = 0.

    Products and inverses are gathered from the log/antilog tables.  Sums and
    negatives act digit by digit on the base-p digits, so the tables over
    p^(j+1) elements are built from those over p^j by prepending a digit.
    """
    import numpy as np

    p = gf.p
    log, exp = np.array(gf.log, np.int32), np.array(gf.exp, np.int32)
    mul = np.concatenate((exp, exp))[log[:, None] + log[None, :]]
    mul[0, :] = mul[:, 0] = 0
    inv = exp[-log % len(exp)]
    inv[0] = 0
    digit = np.arange(p, dtype=np.int32)
    add1, neg1 = (digit[:, None] + digit[None, :]) % p, -digit % p
    add, neg = np.zeros((1, 1), np.int32), np.zeros(1, np.int32)
    for j in range(gf.deg):
        add = (add1[:, None, :, None] * p**j + add[None, :, None, :]).reshape(p ** (j + 1), -1)
        neg = (neg1[:, None] * p**j + neg[None, :]).reshape(-1)
    return mul, add, neg, inv


class FieldTables:
    """Dense arithmetic tables of F and the Moore rows of its elements."""

    def __init__(self, tower):
        import numpy as np

        F = tower.F
        if F.order > ORDER_CAP:
            raise FieldTooLarge(
                f"enumeration tables capped at order {ORDER_CAP}, got {F.order}"
            )
        i16 = np.int16  # entries are below ORDER_CAP; narrow chunks keep peak RSS low
        self.mulF, self.addF, self.negF, self.invF = (x.astype(i16) for x in _arithmetic(F))
        self.moore = np.array(
            [[F.frob(v, tower.e_deg * j) for j in range(tower.m)] for v in range(F.order)], i16
        )
        self.rank_tables = {}  # block size b -> ranks of all |F|^b blocks, by key
        self._values = {}  # block size b -> every block of that size, by key

    def ranks(self, blocks):
        """Subfield ranks of (M, b) blocks of F entries, as an (M,) array:
        the ranks over F of their (b, m) Moore matrices.

        Each pivot row is eliminated from every row, itself included, so a
        used row turns zero and is never picked again.
        """
        import numpy as np

        X = self.moore[blocks]  # (M, b, m) Moore matrices
        rank = np.zeros(len(X), np.int64)
        rows = np.arange(len(X))
        for c in range(X.shape[2]):
            col = X[:, :, c]
            nz = col != 0
            pivot = X[rows, nz.argmax(1)]
            pivot = self.mulF[self.invF[pivot[:, c]][:, None], pivot]
            X = self.addF[X, self.mulF[self.negF[col][:, :, None], pivot[:, None, :]]]
            rank += nz.any(1)
        return rank

    def block_ranks(self, blocks):
        """Ranks of (M, b) blocks, by table lookup when |F|^b <= TABLE_CAP."""
        b = blocks.shape[1]
        if len(self.addF) ** b > TABLE_CAP:
            return self.ranks(blocks)
        if b not in self.rank_tables:
            self.rank_tables[b] = self.ranks(self.values(b))
        return self.rank_tables[b][self.keys(blocks)]

    def value_ranks(self, block):
        """Ranks of block + v for every block v of its size, in key order."""
        return self.block_ranks(self.addF[block, self.values(len(block))])

    def values(self, b):
        """Every block of size b, as an (|F|^b, b) array in key order."""
        import numpy as np

        if b not in self._values:
            q = len(self.addF)
            self._values[b] = np.arange(q**b)[:, None] // q ** np.arange(b) % q
        return self._values[b]

    def keys(self, blocks):
        """Keys of (M, b) blocks: the integers whose base-|F| digits, lowest
        first, are the block's entries."""
        import numpy as np

        key = blocks[:, -1].astype(np.int64)
        for j in range(blocks.shape[1] - 2, -1, -1):
            key *= len(self.addF)
            key += blocks[:, j]
        return key


def _span(rows, tables):
    """All F-linear combinations of `rows`, as a (|F|^len(rows), n) array.

    The last row's coefficient varies fastest, so the combinations of the
    last j rows are the first |F|^j entries.  Each step gathers from the
    flat addition table at index s * |F| + c * row, computed in the tables'
    int16 while |F|^2 fits it and in int32 past that: an intp index array
    is four times the size, and its allocation costs more than the gather
    saves.
    """
    import numpy as np

    q, n = len(tables.addF), rows.shape[1]
    add = tables.addF.ravel()
    index = np.int16 if q * q <= 1 << 15 else np.int32
    S = np.zeros((1, n), add.dtype)
    for row in rows:
        S = add.take(S.astype(index, copy=False)[:, None] * q + tables.mulF[:, row][None])
        S = S.reshape(-1, n)
    return S


def _prefixes(lead, rows, tables):
    """lead plus every F-linear combination of `rows`, one at a time."""
    if not len(rows):
        yield lead
        return
    for c in range(len(tables.addF)):
        yield from _prefixes(tables.addF[lead, tables.mulF[c, rows[0]]], rows[1:], tables)


def min_weight(G, tables: FieldTables, parts):
    """Minimum sum-rank weight over the nonzero F-linear combinations of G.

    G: (k, n) generator rows of F encodings; parts: block sizes (sum = n).
    """
    import numpy as np

    G = np.asarray(G, np.int64)
    k = len(G)
    q = len(tables.addF)
    last = 0  # rows in the span: the largest r <= k - 1 with q^r <= CHUNK
    while last < k - 1 and q ** (last + 1) <= CHUNK:
        last += 1
    # every leading row's tail ends in these rows, so one span serves them all
    span = _span(G[k - last :], tables)
    bounds = list(accumulate(parts, initial=0))
    blocks = list(zip(bounds, bounds[1:]))
    # a block with fewer values than a chunk has rows is ranked once per value:
    # the ranks of prefix + v for every v, read at each span row's key
    keys = {a: tables.keys(span[:, a:b]) for a, b in blocks if q ** (b - a) < len(span)}
    best = bounds[-1] + 1  # above every weight
    for i in range(k):
        tail = G[i + 1 :]
        cut = max(len(tail) - last, 0)
        rows = q ** (len(tail) - cut)
        for prefix in _prefixes(G[i], tail[:cut], tables):
            w = sum(
                tables.value_ranks(prefix[a:b])[keys[a][:rows]]
                if q ** (b - a) < rows
                else tables.block_ranks(tables.addF[prefix[a:b], span[:rows, a:b]])
                for a, b in blocks
            )
            best = min(best, int(w.min()))
            if best <= 1:
                return best
    return best
