"""Semilinear isometries of the sum-rank metric and code automorphisms.

Group elements are tuples (scalars, block matrices over E, block
permutation, Frobenius power); the permutation may only exchange blocks of
equal size.  Hamming and rank isometries are sum-rank isometries on the two
extreme partitions (ell blocks of size 1, one block of size N), and the
shifts rho and phi are their embeddings iota_H and iota_R.
Everything here is desk scale: enumeration helpers walk whole general
linear groups, so they are only meant for tiny parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product as iproduct

from . import linalg
from .codes import LinearCode, Partition, enumeration_budget, hamming_weight
from .errors import BudgetExceeded, ShapeMismatch, UnequalParts, ZeroCode
from .tower import FieldTower


def lambda_signature(part: Partition):
    """Multiplicities of the distinct part sizes, in first-occurrence order."""
    seen = []
    counts = []
    for p in part.parts:
        if p in seen:
            counts[seen.index(p)] += 1
        else:
            seen.append(p)
            counts.append(1)
    return tuple(counts)


@dataclass(frozen=True)
class SumRankIsometry:
    scalars: tuple  # one F* scalar per block
    matrices: tuple  # per-block invertible matrix over E (rows as tuples)
    perm: tuple  # block permutation: perm[i] = image of block i
    theta_pow: int = 0  # power of the p-Frobenius on F

    def check_shapes(self, part: Partition, tower: FieldTower):
        ell = len(part.parts)
        if len(self.scalars) != ell or len(self.matrices) != ell or len(self.perm) != ell:
            raise ShapeMismatch("component counts do not match the partition")
        if sorted(self.perm) != list(range(ell)):
            raise ShapeMismatch("perm is not a permutation of the blocks")
        for i in range(ell):
            if part.parts[self.perm[i]] != part.parts[i]:
                raise ShapeMismatch("permutation mixes blocks of different sizes")
            M = self.matrices[i]
            if len(M) != part.parts[i] or any(len(r) != part.parts[i] for r in M):
                raise ShapeMismatch("block matrix size mismatch")
            if linalg.rank(M, tower.E) != part.parts[i]:
                raise ShapeMismatch("block matrix is singular over E")
        for s in self.scalars:
            if s == 0:
                raise ShapeMismatch("scalars must be units of F")

    @staticmethod
    def identity(part: Partition):
        mats = tuple(identity_matrix(p) for p in part.parts)
        ell = len(part.parts)
        return SumRankIsometry((1,) * ell, mats, tuple(range(ell)), 0)


def identity_matrix(n, c=1):
    """c times the n x n identity."""
    return tuple(tuple(c if i == j else 0 for j in range(n)) for i in range(n))


def cycle_matrix(n):
    """Permutation matrix sending position j to position j+1 mod n."""
    return tuple(
        tuple(1 if (j == (i + 1) % n) else 0 for j in range(n)) for i in range(n)
    )


def _apply_matrix(tower, block, M):
    """Row vector times a matrix over E (entries lifted into F)."""
    gf = tower.F
    n = len(block)
    out = []
    for col in range(len(M[0])):
        acc = 0
        for j in range(n):
            mij = M[j][col]
            if mij:
                acc = gf.add(acc, gf.mul(block[j], tower.lift(mij, "E", "F")))
        out.append(acc)
    return tuple(out)


def act_sumrank(g: SumRankIsometry, c, part: Partition, tower: FieldTower):
    """The semilinear action: block i of the result is
    frob^t(a_i * c^(perm^{-1}(i))) * M_i."""
    g.check_shapes(part, tower)
    if len(c) != part.n:
        raise ShapeMismatch("vector length mismatch")
    ell = len(part.parts)
    offs = [0, *accumulate(part.parts)]
    inv = {pi: i for i, pi in enumerate(g.perm)}
    gf = tower.F
    out = []
    for i in range(ell):
        block = c[offs[inv[i]] : offs[inv[i] + 1]]
        scaled = tuple(gf.mul(g.scalars[i], v) for v in block)
        twisted = tuple(gf.frob(v, g.theta_pow) for v in scaled)
        out.extend(_apply_matrix(tower, twisted, g.matrices[i]))
    return tuple(out)


def hamming_isometry(scalars, perm, theta_pow=0) -> SumRankIsometry:
    """(a, pi, theta) on F^ell: ell blocks of size 1, every matrix (1)."""
    return SumRankIsometry(tuple(scalars), (((1,),),) * len(scalars), tuple(perm), theta_pow)


def rank_isometry(M, theta_pow=0) -> SumRankIsometry:
    """(M, theta) on F^N with M over E: one block of size N, scalar 1."""
    return SumRankIsometry((1,), (M,), (0,), theta_pow)


def apply_to_code(g: SumRankIsometry, C: LinearCode) -> LinearCode:
    rows = [list(act_sumrank(g, r, C.partition, C.tower)) for r in C.G]
    return LinearCode(C.tower, rows, C.partition)


def is_automorphism(g: SumRankIsometry, C: LinearCode) -> bool:
    return apply_to_code(g, C) == C


def iota_H(g: SumRankIsometry, part: Partition) -> SumRankIsometry:
    """Embed a Hamming isometry: its matrix (c) at position i becomes c * I
    on block i, so every block is acted on as its position was."""
    N = part.equal_part()
    if len(g.scalars) != len(part.parts) or any(tuple(map(len, M)) != (1,) for M in g.matrices):
        raise UnequalParts("a Hamming isometry has one 1 x 1 matrix per block")
    mats = tuple(identity_matrix(N, M[0][0]) for M in g.matrices)
    return SumRankIsometry(g.scalars, mats, g.perm, g.theta_pow)


def iota_R(g: SumRankIsometry, part: Partition) -> SumRankIsometry:
    """Embed a rank isometry: its scalar and matrix on every block, no permutation."""
    N = part.equal_part()
    ell = len(part.parts)
    if len(g.matrices) != 1 or len(g.matrices[0]) != N:
        raise UnequalParts("rank isometry size does not match the block size")
    return SumRankIsometry(g.scalars * ell, g.matrices * ell, tuple(range(ell)), g.theta_pow)


def rho_element(part: Partition) -> SumRankIsometry:
    """The block shift rho: iota_H of the cyclic shift of the ell positions."""
    ell = len(part.parts)
    return iota_H(hamming_isometry((1,) * ell, [(i + 1) % ell for i in range(ell)]), part)


def phi_element(part: Partition, tower: FieldTower) -> SumRankIsometry:
    """The twisted shift phi: iota_R of the cyclic shift of the N positions
    with theta, the (e_deg * h)-th power of the p-Frobenius."""
    return iota_R(rank_isometry(cycle_matrix(part.equal_part()), tower.e_deg * tower.h), part)


def all_matrices(n, gf):
    """All n x n matrices over gf (desk scale only)."""
    cells = list(iproduct(range(gf.order), repeat=n * n))
    for flat in cells:
        yield tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))


def general_linear_group(n, gf):
    """All invertible n x n matrices over gf."""
    return [M for M in all_matrices(n, gf) if linalg.rank(M, gf) == n]


def min_dist_via_block_diagonal(C: LinearCode) -> int:
    """Minimum Hamming distance of C*A over all block-diagonal invertible A
    with blocks over E; equals the sum-rank distance."""
    if C.k == 0:
        raise ZeroCode("minimum distance of the zero code is undefined")
    t = C.tower
    groups = [general_linear_group(p, t.E) for p in C.partition.parts]
    budget = enumeration_budget()
    cost = C.field.order**C.k
    for g in groups:
        cost *= len(g)
    if cost > budget:
        raise BudgetExceeded(cost, budget)
    best = None
    cws = [cw for cw in C.codewords() if any(cw)]
    for combo in iproduct(*groups):
        for cw in cws:
            out = []
            off = 0
            for Ai, p in zip(combo, C.partition.parts):
                out.extend(_apply_matrix(t, cw[off : off + p], Ai))
                off += p
            w = hamming_weight(out)
            if best is None or w < best:
                best = w
    return best
