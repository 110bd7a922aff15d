"""The finite-field tower E < F, E < K < L with its distinguished automorphism.

E = GF(p^e), F = GF(p^{e*m}), K = GF(p^{e*h}), L = GF(p^{e*m*h}) with
gcd(m, h) = 1, so that F and K intersect in E inside L.  The automorphism
`sigma` is the |K|-power Frobenius generating Gal(L/K); `theta` is its
restriction to F, realized directly on F as the |E|^h-power map.

Field elements are plain integers: the encoding of an element at a level
the caller names, moved between levels by `lift`.  The grid points a and
beta of the paper are handed out as L-encodings.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from . import linalg
from .errors import (
    BlockLengthNotMultiple,
    DegreesNotCoprime,
    InvalidParameter,
    LevelMismatch,
    NotPrime,
    RootsOfUnityAbsent,
)
from .gf import GF, check_order, field, find_embedding, is_prime


class FieldTower:
    """Checked before any field is built; immutable after, all operations pure."""

    def __init__(self, p, e_deg, m, h, ell, N):
        if m < 1 or h < 1 or e_deg < 1 or ell < 1 or N < 1:
            raise InvalidParameter("degrees and block parameters must be positive")
        check_order(p, e_deg * m * h)  # L is the largest field
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if gcd(m, h) != 1:
            raise DegreesNotCoprime(f"gcd({m}, {h}) != 1")
        # ell | |K| - 1 = p^(e*h) - 1, which p does not divide: p never divides ell
        k_order = p ** (e_deg * h)
        if (k_order - 1) % ell != 0:
            raise RootsOfUnityAbsent(f"{ell} does not divide |K|-1 = {k_order - 1}")
        if N % m != 0:
            raise BlockLengthNotMultiple(f"{m} does not divide N = {N}")
        self.p = p
        self.e_deg = e_deg
        self.m = m
        self.h = h
        self.ell = ell
        self.N = N
        self.n = ell * N
        self._key = (p, e_deg, m, h, ell, N)
        self._hash = hash(self._key)  # dictionary keys in every distance query
        self.E = field(p, e_deg)
        self.F = field(p, e_deg * m)
        self.K = field(p, e_deg * h)
        self.L = field(p, e_deg * m * h)
        self._fields = {"E": self.E, "F": self.F, "K": self.K, "L": self.L}
        # generator images of the canonical subfield embeddings, by route
        self._images = {
            (sub, big): find_embedding(self.gf(sub), self.gf(big))
            for sub, big in (("E", "F"), ("E", "K"), ("F", "L"), ("K", "L"))
        }
        # E -> L is routed through F so that theta and sigma agree on F's copy
        self._images["E", "L"] = self.lift(self._images["E", "F"], "F", "L")

    # -- levels and lifting --------------------------------------------------

    def gf(self, level: str) -> GF:
        return self._fields[level]

    def lift(self, val: int, frm: str, to: str) -> int:
        """Move an element up the tower along the canonical embeddings, which
        map gen^k to image^k."""
        if frm == to:
            return val
        if (frm, to) not in self._images:
            raise LevelMismatch(f"no embedding {frm} -> {to}")
        if val == 0:
            return 0
        return self.gf(to).pow(self._images[frm, to], self.gf(frm).log[val])

    def over_E(self, coeffs) -> bool:
        """Whether every F-encoding in coeffs lies in E, the field theta fixes."""
        return self._E_in_F.issuperset(coeffs)

    @cached_property
    def _E_in_F(self) -> frozenset:  # E's copy in F, lifted once per tower
        return frozenset(self.lift(v, "E", "F") for v in range(self.E.order))

    # -- the automorphism ----------------------------------------------------

    def sigma(self, val: int, i: int = 1) -> int:
        """sigma^i on L: the (|K|^i)-power map."""
        return self.L.frob(val, (self.e_deg * self.h * i) % self.L.deg)

    def theta(self, val: int, i: int = 1) -> int:
        """theta^i on F: the (|E|^(h*i))-power map, restriction of sigma."""
        return self.F.frob(val, (self.e_deg * self.h * i) % self.F.deg)

    def twist(self, level: str, val: int, i: int = 1) -> int:
        """sigma^i on L-encodings, theta^i on F-encodings."""
        if level == "L":
            return self.sigma(val, i)
        if level == "F":
            return self.theta(val, i)
        raise LevelMismatch(level)

    # -- serialization -------------------------------------------------------

    def describe(self) -> dict:
        return {
            "p": self.p,
            "e_deg": self.e_deg,
            "m": self.m,
            "h": self.h,
            "ell": self.ell,
            "N": self.N,
            "moduli": {
                lvl: self.gf(lvl).modulus_int() for lvl in ("E", "F", "K", "L")
            },
            "generators": {lvl: self.gf(lvl).gen for lvl in ("E", "F", "K", "L")},
        }

    def __eq__(self, other):
        return isinstance(other, FieldTower) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"FieldTower(p={self.p}, e_deg={self.e_deg}, m={self.m}, "
            f"h={self.h}, ell={self.ell}, N={self.N})"
        )


# the CLI, the benchmark and callers build towers by this name
build_tower = FieldTower


def primitive_ell_root(t: FieldTower) -> int:
    """The L-encoding of a fixed primitive ell-th root of unity in K."""
    return t.lift(t.K.pow(t.K.gen, (t.K.order - 1) // t.ell), "K", "L")


def is_normal(t: FieldTower, beta: int) -> bool:
    """Whether the sigma-conjugates of beta form a K-basis of L.

    Uses the conjugate-matrix criterion: {sigma^j(beta)} is a basis iff the
    m x m matrix (sigma^{i+j}(beta)) is invertible over L.
    """
    if beta == 0:
        return False
    m = t.m
    conj = [t.sigma(beta, j) for j in range(2 * m)]
    rows = [[conj[i + j] for j in range(m)] for i in range(m)]
    return linalg.rank(rows, t.L) == m


def find_normal_element(t: FieldTower) -> int:
    """First element of L (by encoding) normal for L/K."""
    for val in range(1, t.L.order):
        if is_normal(t, val):
            return val
    raise AssertionError("no normal element found")
