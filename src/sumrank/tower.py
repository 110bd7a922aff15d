"""The finite-field tower E < F, E < K < L with its distinguished automorphism.

E = GF(p^e), F = GF(p^{e*m}), K = GF(p^{e*h}), L = GF(p^{e*m*h}) with
gcd(m, h) = 1, so that F and K intersect in E inside L.  The automorphism
`sigma` is the |K|-power Frobenius generating Gal(L/K); `theta` is its
restriction to F, realized directly on F as the |E|^h-power map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
from .gf import GF, embed_elem, field, find_embedding, is_prime

_LEVEL_RANK = {"E": 0, "F": 1, "K": 1, "L": 2}


class FieldTower:
    """Immutable after construction; all operations are pure."""

    def __init__(self, p, e_deg, m, h, ell, N):
        self.p = p
        self.e_deg = e_deg
        self.m = m
        self.h = h
        self.ell = ell
        self.N = N
        self.n = ell * N
        self.E = field(p, e_deg)
        self.F = field(p, e_deg * m)
        self.K = field(p, e_deg * h)
        self.L = field(p, e_deg * m * h)
        # generator images of the canonical subfield embeddings
        self.e_in_f = find_embedding(self.E, self.F)
        self.e_in_k = find_embedding(self.E, self.K)
        self.f_in_l = find_embedding(self.F, self.L)
        self.k_in_l = find_embedding(self.K, self.L)
        # E -> L is routed through F so that theta and sigma agree on F's copy
        self.e_in_l = self._embed_gen_via_f()
        self._coord_tables = {}

    def _embed_gen_via_f(self):
        imgF = embed_elem(self.E, self.F, self.e_in_f, self.E.gen)
        return embed_elem(self.F, self.L, self.f_in_l, imgF)

    # -- levels and lifting --------------------------------------------------

    def gf(self, level: str) -> GF:
        return {"E": self.E, "F": self.F, "K": self.K, "L": self.L}[level]

    def join(self, a: str, b: str) -> str:
        if a == b:
            return a
        if _LEVEL_RANK[a] > _LEVEL_RANK[b]:
            a, b = b, a
        if a == "E":
            return b
        return "L"

    def lift(self, val: int, frm: str, to: str) -> int:
        """Move an element up the tower along the canonical embeddings."""
        if frm == to:
            return val
        route = {
            ("E", "F"): (self.E, self.F, self.e_in_f),
            ("E", "K"): (self.E, self.K, self.e_in_k),
            ("F", "L"): (self.F, self.L, self.f_in_l),
            ("K", "L"): (self.K, self.L, self.k_in_l),
        }
        if (frm, to) in route:
            small, big, img = route[(frm, to)]
            return embed_elem(small, big, img, val)
        if frm == "E" and to == "L":
            return self.lift(self.lift(val, "E", "F"), "F", "L")
        raise LevelMismatch(f"no embedding {frm} -> {to}")

    # -- the automorphism ----------------------------------------------------

    def sigma(self, val: int, i: int = 1) -> int:
        """sigma^i on L: the (|K|^i)-power map."""
        return self.L.frob(val, (self.e_deg * self.h * i) % self.L.deg)

    def theta(self, val: int, i: int = 1) -> int:
        """theta^i on F: the (|E|^(h*i))-power map, restriction of sigma."""
        return self.F.frob(val, (self.e_deg * self.h * i) % self.F.deg)

    def twist(self, level: str, val: int, i: int = 1) -> int:
        if level == "L":
            return self.sigma(val, i)
        if level == "F":
            return self.theta(val, i)
        if level in ("E", "K"):
            return val
        raise LevelMismatch(level)

    # -- subfield coordinates ------------------------------------------------

    def coords(self, level: str, sub: str, val: int):
        """Coordinates of `val` over the subfield, in the power basis of the
        big field's generator.  Returns a tuple of subfield elements."""
        table = self._coord_map(level, sub)
        return table(val)

    def _coord_map(self, level, sub):
        key = (level, sub)
        if key in self._coord_tables:
            return self._coord_tables[key]
        big = self.gf(level)
        small = self.gf(sub)
        p = self.p
        sdeg = small.deg
        mdim = big.deg // sdeg
        if sdeg == 1:
            # prime subfield: base-p digits are already the coordinates
            def mapper(v, big=big):
                return tuple(big.elem_digits(v))

            self._coord_tables[key] = mapper
            return mapper
        img = self.lift(small.gen, sub, level)
        D = big.deg
        cols = []
        for i in range(mdim):
            gpow = big.pow(big.gen, i) if big.order > 2 else (1 if i == 0 else 0)
            for t in range(sdeg):
                b = big.mul(big.pow(img, t), gpow)
                cols.append(big.elem_digits(b))
        M = [[cols[c][r] for c in range(D)] for r in range(D)]
        Minv = linalg.matinv_mod_p(M, p)

        def mapper(v, big=big, Minv=Minv, p=p, sdeg=sdeg, mdim=mdim):
            d = big.elem_digits(v)
            sol = [sum(Minv[r][c] * d[c] for c in range(len(d))) % p for r in range(len(d))]
            out = []
            for i in range(mdim):
                chunk = sol[i * sdeg : (i + 1) * sdeg]
                acc = 0
                for dig in reversed(chunk):
                    acc = acc * p + dig
                out.append(acc)
            return tuple(out)

        self._coord_tables[key] = mapper
        return mapper

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

    def to_json(self) -> str:
        return json.dumps(self.describe(), sort_keys=True)

    def __eq__(self, other):
        return isinstance(other, FieldTower) and (
            (self.p, self.e_deg, self.m, self.h, self.ell, self.N)
            == (other.p, other.e_deg, other.m, other.h, other.ell, other.N)
        )

    def __hash__(self):
        return hash((self.p, self.e_deg, self.m, self.h, self.ell, self.N))

    def __repr__(self):
        return (
            f"FieldTower(p={self.p}, e_deg={self.e_deg}, m={self.m}, "
            f"h={self.h}, ell={self.ell}, N={self.N})"
        )


@dataclass(frozen=True)
class FieldElement:
    """An element of one tower level; arithmetic lifts to a common level."""

    tower: FieldTower
    level: str
    val: int

    def _pair(self, other):
        if isinstance(other, int):
            if not 0 <= other < self.tower.p:
                raise LevelMismatch(f"bare int {other} is not a prime-field constant")
            other = FieldElement(self.tower, "E", other)
        if other.tower != self.tower:
            raise LevelMismatch("elements from different towers")
        lvl = self.tower.join(self.level, other.level)
        a = self.tower.lift(self.val, self.level, lvl)
        b = other.tower.lift(other.val, other.level, lvl)
        return lvl, a, b

    def __add__(self, other):
        lvl, a, b = self._pair(other)
        return FieldElement(self.tower, lvl, self.tower.gf(lvl).add(a, b))

    def __sub__(self, other):
        lvl, a, b = self._pair(other)
        return FieldElement(self.tower, lvl, self.tower.gf(lvl).sub(a, b))

    def __mul__(self, other):
        lvl, a, b = self._pair(other)
        return FieldElement(self.tower, lvl, self.tower.gf(lvl).mul(a, b))

    def __truediv__(self, other):
        lvl, a, b = self._pair(other)
        return FieldElement(self.tower, lvl, self.tower.gf(lvl).div(a, b))

    def __neg__(self):
        return FieldElement(self.tower, self.level, self.tower.gf(self.level).neg(self.val))

    def __pow__(self, e):
        return FieldElement(self.tower, self.level, self.tower.gf(self.level).pow(self.val, e))

    def inverse(self):
        return FieldElement(self.tower, self.level, self.tower.gf(self.level).inv(self.val))

    def in_level(self, lvl: str) -> "FieldElement":
        return FieldElement(self.tower, lvl, self.tower.lift(self.val, self.level, lvl))

    def __eq__(self, other):
        if not isinstance(other, (FieldElement, int)):
            return NotImplemented
        lvl, a, b = self._pair(other)
        return a == b

    def __hash__(self):
        return hash((self.level, self.val))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"<{self.level}:{self.val}>"


def build_tower(p: int, e_deg: int, m: int, h: int, ell: int, N: int) -> FieldTower:
    """Construct and validate the tower; see class docstring for the layout."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1 or h < 1 or e_deg < 1 or ell < 1 or N < 1:
        raise InvalidParameter("degrees and block parameters must be positive")
    if gcd(m, h) != 1:
        raise DegreesNotCoprime(f"gcd({m}, {h}) != 1")
    k_order = p ** (e_deg * h)
    if (k_order - 1) % ell != 0:
        raise RootsOfUnityAbsent(f"{ell} does not divide |K|-1 = {k_order - 1}")
    if N % m != 0:
        raise BlockLengthNotMultiple(f"{m} does not divide N = {N}")
    return FieldTower(p, e_deg, m, h, ell, N)


def primitive_ell_root(t: FieldTower) -> FieldElement:
    """A fixed primitive ell-th root of unity in K."""
    if t.ell == 1:
        return FieldElement(t, "K", 1)
    val = t.K.pow(t.K.gen, (t.K.order - 1) // t.ell)
    return FieldElement(t, "K", val)


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


def find_normal_element(t: FieldTower) -> FieldElement:
    """First element of L (by encoding) normal for L/K."""
    for val in range(1, t.L.order):
        if is_normal(t, val):
            return FieldElement(t, "L", val)
    raise AssertionError("no normal element found")


def frobenius_power(t: FieldTower, x: FieldElement, i: int) -> FieldElement:
    """sigma^i on L-level elements, theta^i on F-level; K and E are fixed."""
    if x.tower != t:
        raise LevelMismatch("element from a different tower")
    return FieldElement(t, x.level, t.twist(x.level, x.val, i))
