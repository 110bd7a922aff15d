"""Linear codes over F with an attached partition, plus the distance oracle.

A LinearCode is an F-subspace of F^n, its entries F-encodings; the sum-rank
weight of a vector adds the ranks over E of its blocks: the dimensions of
their E-spans, which `span_rank` closes inside F, once per distinct block
and tower; after that `block_rank` and `sumrank_weight` look the rank up.
The oracle still shares nothing with the kernel's Moore-matrix ranks.  A
code is canonically represented by the RREF of its generator matrix, so
equality and membership are syntactic.  The exhaustive
minimum-distance oracle delegates to the numpy kernel in `kernels` and is
guarded by an enumeration budget (default 2^24, override via SUMRANK_BUDGET)
that counts all |F|^k codewords, although the kernel visits one per F*-line.
Cyclic, skew-cyclic and CSC codes are all spans of a polynomial's orbit under
the block shift rho (x times) and the twisted shift phi (z times).  The code
of a CSC generator that splits as f1(x) * f2(z) is the tensor of the two
factor codes, each built once per tower, and no orbit is reduced.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

from . import linalg
# biv_mul stays importable here: benchmark/tracer.py rebinds codes.biv_mul
from .bivar import BivarPoly, biv_mul, nu_inverse  # noqa: F401
from .errors import (
    BudgetExceeded,
    FieldMismatch,
    InvalidParameter,
    LengthMismatch,
    LevelMismatch,
    UnequalParts,
    ZeroCode,
)
from .kernels import FieldTables, min_weight
from .tower import FieldTower

DEFAULT_BUDGET = 1 << 24


@dataclass(frozen=True)
class Partition:
    parts: tuple

    def __post_init__(self):
        if not self.parts or any(p <= 0 for p in self.parts):
            raise LengthMismatch("partition parts must be positive")

    @cached_property
    def n(self) -> int:  # summed once: every `sumrank_weight` call reads it
        return sum(self.parts)

    def equal_part(self) -> int:
        if len(set(self.parts)) != 1:
            raise UnequalParts(f"blocks have unequal sizes {self.parts}")
        return self.parts[0]

    @staticmethod
    def equal(nblocks, size):
        return Partition(tuple([size] * nblocks))

    @staticmethod
    def hamming(n):
        return Partition(tuple([1] * n))

    @staticmethod
    def rank(n):
        return Partition((n,))


def span_rank(tower: FieldTower, block) -> int:
    """Dimension of the E-span of the block's F entries, closed one entry at
    a time; E's units in F are F.exp[::(|F| - 1) / (|E| - 1)], as the
    subfield of that order is unique."""
    F = tower.F
    units = F.exp[:: (F.order - 1) // (tower.E.order - 1)]
    span, rank = {0}, 0
    for v in block:
        if v not in span:
            multiples = [F.mul(c, v) for c in units]
            span |= {F.add(s, w) for s in span for w in multiples}
            rank += 1
    return rank


def block_rank(tower: FieldTower, block) -> int:
    """The block's `span_rank`, closed once per tower and looked up after."""
    ranks, block = _rank_cache.setdefault(tower, {}), tuple(block)
    if block not in ranks:
        ranks[block] = span_rank(tower, block)
    return ranks[block]


def sumrank_weight(tower, c, part: Partition) -> int:
    if len(c) != part.n:
        raise LengthMismatch(f"vector length {len(c)} != partition sum {part.n}")
    ranks = _rank_cache.setdefault(tower, {})
    c = tuple(c)
    w = 0
    off = 0
    for p in part.parts:
        block = c[off : off + p]
        rank = ranks.get(block)
        if rank is None:  # closed on a miss only, once per block and tower
            rank = ranks[block] = span_rank(tower, block)
        w += rank
        off += p
    return w


def hamming_weight(c) -> int:
    return sum(1 for v in c if v != 0)


class LinearCode:
    """An F-linear subspace of F^n with a partition; canonical RREF rows."""

    level = "F"  # the field the entries are encoded in

    def __init__(self, tower: FieldTower, rows, partition: Partition):
        if rows and any(len(r) != partition.n for r in rows):
            raise LengthMismatch("generator rows do not match the partition length")
        self._set(tower, partition, *linalg.rref(rows, tower.F))

    def _set(self, tower, partition, G, pivots):
        self.tower = tower
        self.partition = partition
        self.n = partition.n
        self.G = tuple(G)
        self.pivots = tuple(pivots)
        self.k = len(self.G)

    @classmethod
    def _from_rref(cls, tower, G, pivots, partition: Partition) -> "LinearCode":
        """The code whose canonical RREF rows and pivot columns are already
        known; the caller vouches for them, nothing is reduced."""
        code = cls.__new__(cls)
        code._set(tower, partition, G, pivots)
        return code

    @property
    def field(self):
        return self.tower.F

    def contains(self, vec) -> bool:
        if len(vec) != self.n:
            raise LengthMismatch("vector length mismatch")
        return linalg.in_span(vec, self.G, self.pivots, self.field)

    def codewords(self):
        """Iterate over all codewords, the first row's coefficient varying
        fastest through F's encodings (budget is the caller's concern)."""
        gf, add = self.field, self.field.add
        multiples = [[tuple(gf.mul(c, x) for x in row) for c in range(gf.order)] for row in self.G]
        zero = (0,) * self.n
        if not multiples:
            return iter([zero])

        def walk(i, acc):
            for m in multiples[i]:
                word = tuple(map(add, acc, m))
                if i:
                    yield from walk(i - 1, word)
                else:
                    yield word

        return walk(self.k - 1, zero)

    def code_id(self) -> str:
        return self._code_id

    @cached_property
    def _code_id(self) -> str:  # hashed once per code: G is an immutable tuple
        payload = json.dumps(
            {"G": [list(r) for r in self.G], "parts": list(self.partition.parts)},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def describe(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "partition": list(self.partition.parts),
            "generator_rref": [list(r) for r in self.G],
            "code_id": self.code_id(),
        }

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.tower == other.tower
            and self.partition == other.partition
            and self.G == other.G
        )

    def __hash__(self):
        return hash((self.partition, self.G))

    def __repr__(self):
        return f"LinearCode[n={self.n}, k={self.k}, parts={self.partition.parts}]"

    @staticmethod
    def full_space(tower, partition):
        n = partition.n
        rows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        return LinearCode(tower, rows, partition)


def _metric_partition(C: LinearCode, metric: str) -> Partition:
    if metric == "sumrank":
        return C.partition
    if metric == "hamming":
        return Partition.hamming(C.n)
    if metric == "rank":
        return Partition.rank(C.n)
    raise InvalidParameter(f"unknown metric {metric!r}")


_tables_cache = {}  # tower -> FieldTables
_distance_cache = {}  # (tower, parts, G) -> distance
_rank_cache = {}  # tower -> {block tuple: span_rank}


def enumeration_budget() -> int:
    """SUMRANK_BUDGET as a non-negative integer, DEFAULT_BUDGET when unset."""
    env = os.environ.get("SUMRANK_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        budget = int(env)
    except ValueError:
        budget = -1  # refused below, as a negative value is
    if budget < 0:
        raise InvalidParameter(f"SUMRANK_BUDGET must be a non-negative integer, got {env!r}")
    return budget


def min_distance_bruteforce(C: LinearCode, metric: str = "sumrank") -> int:
    """Exact minimum weight over all nonzero codewords."""
    if C.k == 0:
        raise ZeroCode("minimum distance of the zero code is undefined")
    budget = enumeration_budget()
    needed = C.field.order**C.k
    if needed > budget:
        raise BudgetExceeded(needed, budget)
    part = _metric_partition(C, metric)
    key = (C.tower, part.parts, C.G)
    if key in _distance_cache:
        return _distance_cache[key]
    if C.tower not in _tables_cache:
        _tables_cache[C.tower] = FieldTables(C.tower)
    d = min_weight(C.G, _tables_cache[C.tower], part.parts)
    _distance_cache[key] = d
    return d


def rho_shift(c, part: Partition):
    """Rotate blocks right by one (equal part sizes required)."""
    N = part.equal_part()
    ell = len(part.parts)
    if len(c) != ell * N:
        raise LengthMismatch("vector does not match partition")
    blocks = [tuple(c[i * N : (i + 1) * N]) for i in range(ell)]
    blocks = [blocks[-1]] + blocks[:-1]
    return tuple(v for b in blocks for v in b)


def phi_shift(c, part: Partition, t: FieldTower):
    """Twisted in-block rotation applied to every block."""
    N = part.equal_part()
    ell = len(part.parts)
    if len(c) != ell * N:
        raise LengthMismatch("vector does not match partition")
    out = []
    for i in range(ell):
        b = c[i * N : (i + 1) * N]
        out.extend(t.theta(v) for v in (b[-1],) + tuple(b[:-1]))
    return tuple(out)


def is_cyclic_skew_cyclic(C: LinearCode) -> bool:
    """Stability of the code under the block shift and the twisted shift.

    Both act on the tower's ell blocks of size N, whatever partition the
    code's weight uses; a code of another length is a LengthMismatch.
    Checking the generators suffices: both operators are invertible, so
    containment of the generator images is containment of the code.
    """
    t = C.tower
    if C.n != t.n:
        raise LengthMismatch(f"length {C.n} is not ell * N = {t.n}")
    part = Partition.equal(t.ell, t.N)
    for row in C.G:
        if not C.contains(rho_shift(row, part)):
            return False
        if not C.contains(phi_shift(row, part, t)):
            return False
    return True


def shift_orbit_code(t: FieldTower, v, part: Partition) -> LinearCode:
    """The span of rho^i phi^j(v), i below the number of blocks and j below
    the block size: the least code holding v that both shifts fix."""
    orbit = [tuple(v)]
    for _ in range(1, part.equal_part()):
        orbit.append(phi_shift(orbit[-1], part, t))
    rows = list(orbit)
    for _ in range(1, len(part.parts)):
        orbit = [rho_shift(w, part) for w in orbit]
        rows += orbit
    return LinearCode(t, rows, part)


def tensor_vector(tower: FieldTower, u, v):
    """(u_0*v | u_1*v | ... | u_{ell-1}*v)."""
    if not u or not v:
        raise LengthMismatch("factors must be nonempty vectors")
    mul, zero = tower.F.mul, (0,) * len(v)
    out = []
    for a in u:
        out += map(mul, repeat(a), v) if a else zero
    return tuple(out)


_orbit_cache = {}  # (tower, parts, factor vector) -> the factor's shift-orbit code
_kronecker_cache = {}  # (C1, C2) -> C1 (x) C2


def factor_code(t: FieldTower, v, part: Partition) -> LinearCode:
    """The shift-orbit code of a factor's vector v, ell blocks of size 1 for
    an f1 or one block of size N for an f2, built once per tower."""
    key = (t, part.parts, v)
    if key not in _orbit_cache:
        _orbit_cache[key] = shift_orbit_code(t, v, part)
    return _orbit_cache[key]


def kronecker_code(C1: LinearCode, C2: LinearCode) -> LinearCode:
    """C1 (x) C2 on C1.n blocks of size C2.n, from the factors' RREF rows
    without a reduction, built once per pair of factors."""
    key = (C1, C2)
    if key in _kronecker_cache:
        return _kronecker_cache[key]
    if C1.tower != C2.tower:
        raise FieldMismatch("factors must live over the same field")
    t, N = C1.tower, C2.n
    # The Kronecker rows of two RREF matrices, in (i, j) order, are in RREF:
    # u_i (x) v_j leads with 1 at piv(u_i)*N + piv(v_j), which increases
    # with (i, j), and every other row is 0 there.  RREF is unique, so this
    # is the code LinearCode would reduce them to.
    G = [tensor_vector(t, u, v) for u in C1.G for v in C2.G]
    pivots = [i * N + j for i in C1.pivots for j in C2.pivots]
    code = LinearCode._from_rref(t, G, pivots, Partition.equal(C1.n, N))
    _kronecker_cache[key] = code
    return code


def code_from_skew_generator(g: BivarPoly, t: FieldTower) -> LinearCode:
    """The code of the left ideal generated by g: x^i z^j * g is
    rho^i phi^j(g) as a vector, so it is g's shift orbit.

    When g = f1(x) * f2(z), the code is the tensor of f1's cyclic code and
    f2's skew-cyclic code, with the same RREF.  f1's cyclic code is the
    ideal of d = gcd(f1, x^ell - 1), and d = a*f1, f1 = r*d for some a, r
    mod x^ell - 1, so g and d(x) * f2(z) generate one left ideal.  d divides
    x^ell - 1, so it lies over E (gcd(m, h) = 1) and theta fixes it:
    x^i z^j * d f2 = (x^i d)(z^j f2), the Kronecker products of the two
    factor orbits."""
    if g.level != "F":
        raise LevelMismatch("a code's generator has coefficients in F")
    if g.factors is not None:
        f1, f2 = g.factors
        return kronecker_code(
            factor_code(t, f1, Partition.hamming(t.ell)), factor_code(t, f2, Partition.rank(t.N))
        )
    return shift_orbit_code(t, nu_inverse(g), Partition.equal(t.ell, t.N))
