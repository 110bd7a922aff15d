"""The bivariate quotient ring (F[x]/(x^ell - 1))[z;theta]/(z^N - 1).

Elements are ell x N coefficient grids c[i][j] (coefficient of x^i z^j).
x is central; z twists coefficients but fixes x.  The grid also realizes the
vector identifications of F^n with the ring: block i, position j of a vector
goes to the coefficient of x^i z^j (both the z-outer and x-outer readings
share the same grid).  A product f1(x) * f2(z) is a grid of rank one, the
outer product of f1's and f2's coefficients; `split_product` recognises it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

from .errors import (
    LengthMismatch,
    LevelMismatch,
    NotRootOfUnity,
    TowerMismatch,
    ZeroBeta,
)
from .poly import format_terms, wrap
from .skew import SkewPoly, right_evaluate
from .tower import FieldTower


@dataclass(frozen=True)
class BivarPoly:
    tower: FieldTower
    level: str
    coeffs: tuple  # ell-tuple of N-tuples

    def __post_init__(self):
        if self.level not in ("F", "L"):
            raise LevelMismatch("bivariate coefficients live in F or L")
        ell, N = self.tower.ell, self.tower.N
        if len(self.coeffs) != ell or any(len(r) != N for r in self.coeffs):
            raise LengthMismatch(f"coefficient grid must be {ell} x {N}")

    @property
    def field(self):
        return self.tower.gf(self.level)

    def coeff(self, i: int, j: int) -> int:
        return self.coeffs[i][j]

    def is_zero(self) -> bool:
        return all(c == 0 for row in self.coeffs for c in row)

    @cached_property
    def factors(self):
        """`split_product(self)`, split once per polynomial: a code and its
        defining-set table both read it."""
        return split_product(self)

    def _check(self, other):
        if self.tower != other.tower or self.level != other.level:
            raise TowerMismatch("operands live in different rings")

    def __add__(self, other):
        self._check(other)
        gf = self.field
        return BivarPoly(
            self.tower,
            self.level,
            tuple(
                tuple(gf.add(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.coeffs, other.coeffs)
            ),
        )

    def __mul__(self, other):
        return biv_mul(self, other)

    def lift_to_L(self) -> "BivarPoly":
        if self.level == "L":
            return self
        t = self.tower
        return BivarPoly(
            t,
            "L",
            tuple(tuple(t.lift(c, "F", "L") for c in row) for row in self.coeffs),
        )

    def __str__(self):
        return format_terms((c, (("x", i), ("z", j)))
                            for i, row in enumerate(self.coeffs) for j, c in enumerate(row))

    @staticmethod
    def zero(tower, level="F"):
        return BivarPoly(
            tower, level, tuple(tuple(0 for _ in range(tower.N)) for _ in range(tower.ell))
        )

    @staticmethod
    def one(tower, level="F"):
        g = [[0] * tower.N for _ in range(tower.ell)]
        g[0][0] = 1
        return BivarPoly.from_lists(tower, level, g)

    @staticmethod
    def from_lists(tower, level, grid):
        return BivarPoly(tower, level, tuple(tuple(r) for r in grid))

    @staticmethod
    def monomial(tower, level, i, j, c=1):
        g = [[0] * tower.N for _ in range(tower.ell)]
        g[i % tower.ell][j % tower.N] = c
        return BivarPoly.from_lists(tower, level, g)

    @staticmethod
    def from_x_poly(tower, level, coeffs):
        """Embed an ordinary polynomial in x (reduced mod x^ell - 1)."""
        zeros = (0,) * (tower.N - 1)
        column = wrap(coeffs, tower.ell, tower.gf(level))
        return BivarPoly(tower, level, tuple((c,) + zeros for c in column))

    @staticmethod
    def from_z_poly(tower, level, coeffs):
        """Embed a skew polynomial in z (reduced mod z^N - 1)."""
        zero = (0,) * tower.N
        row = wrap(coeffs, tower.N, tower.gf(level))
        return BivarPoly(tower, level, (row,) + (zero,) * (tower.ell - 1))


def split_product(g: BivarPoly):
    """(f1, f2) with g = f1(x) * f2(z) and f1 monic, as coefficient vectors
    of lengths ell and N, low first; None when g is zero or its grid has
    rank above one.  f2 is g's last nonzero row, so f1's top coefficient is
    1, and every row i must be f1_i times f2: O(ell * N) products."""
    gf = g.field
    rows = g.coeffs
    top = next((i for i in range(len(rows) - 1, -1, -1) if any(rows[i])), None)
    if top is None:
        return None
    f2 = rows[top]
    j0 = next(j for j, c in enumerate(f2) if c)
    mul, lead, zero = gf.mul, gf.inv(f2[j0]), (0,) * len(f2)
    f1 = tuple(mul(row[j0], lead) for row in rows)
    for a, row in zip(f1, rows):
        if row != (tuple(map(mul, repeat(a), f2)) if a else zero):
            return None
    return f1, f2


def biv_mul(f: BivarPoly, g: BivarPoly) -> BivarPoly:
    """Product reduced modulo x^ell - 1 and z^N - 1; only z twists."""
    f._check(g)
    t = f.tower
    gf = f.field
    ell, N = t.ell, t.N
    out = [[0] * N for _ in range(ell)]
    for i1 in range(ell):
        for j1 in range(N):
            a = f.coeffs[i1][j1]
            if a == 0:
                continue
            for i2 in range(ell):
                for j2 in range(N):
                    b = g.coeffs[i2][j2]
                    if b == 0:
                        continue
                    # a x^{i1} z^{j1} * b x^{i2} z^{j2}
                    #   = a twist^{j1}(b) x^{i1+i2} z^{j1+j2}
                    i, j = (i1 + i2) % ell, (j1 + j2) % N
                    out[i][j] = gf.add(out[i][j], gf.mul(a, t.twist(f.level, b, j1)))
    return BivarPoly.from_lists(t, f.level, out)


def nu_map(c, tower: FieldTower, level: str = "F") -> BivarPoly:
    """Vector (c^(0) | ... | c^(ell-1)) -> grid with block i, slot j on x^i z^j."""
    ell, N = tower.ell, tower.N
    if len(c) != ell * N:
        raise LengthMismatch(f"vector length {len(c)} != {ell * N}")
    return BivarPoly(
        tower,
        level,
        tuple(tuple(c[i * N + j] for j in range(N)) for i in range(ell)),
    )


def nu_inverse(f: BivarPoly):
    ell, N = f.tower.ell, f.tower.N
    return tuple(f.coeffs[i][j] for i in range(ell) for j in range(N))


def ev_az(f: BivarPoly, a: int) -> SkewPoly:
    """Substitute x := a (the L-encoding of an ell-th root of unity in K) in
    every coefficient."""
    t = f.tower
    _root_of_unity(t, a)
    return substitute_x(f.lift_to_L(), [t.L.pow(a, i) for i in range(t.ell)])


def substitute_x(g: BivarPoly, powers) -> SkewPoly:
    """The z-coefficients sum_i g_ij * powers[i] of an L-level g: x := a
    given a's powers a^0, ..., a^(ell-1)."""
    gf = g.tower.L
    out = []
    for column in zip(*g.coeffs):
        acc = 0
        for c, apow in zip(column, powers):
            if c:
                acc = gf.add(acc, gf.mul(c, apow))
        out.append(acc)
    return SkewPoly(g.tower, "L", tuple(out))


def ev_total(f: BivarPoly, a: int, beta: int) -> int:
    """Ev at the pair (a, beta) of L-encodings: x := a, then right-evaluate
    at sigma(beta)/beta."""
    t = f.tower
    if beta == 0:
        raise ZeroBeta("beta must be nonzero")
    fz = ev_az(f, a)
    point = t.L.div(t.sigma(beta), beta)
    return right_evaluate(fz, point)


def psi_map(c, tower: FieldTower, b: int, t1: int, t2: int):
    """Blockwise sigma^{t1} followed by scaling block i by b^{i*t2}."""
    t = tower
    m = t.m
    if len(c) % m != 0:
        raise LengthMismatch(f"vector length {len(c)} is not a multiple of {m}")
    _root_of_unity(t, b)
    gf = t.L
    out = []
    nblocks = len(c) // m
    for i in range(nblocks):
        scale = gf.pow(b, i * t2)
        for j in range(m):
            out.append(gf.mul(t.sigma(c[i * m + j], t1), scale))
    return tuple(out)


def _root_of_unity(t: FieldTower, a: int) -> None:
    """NotRootOfUnity unless the L-encoding `a` is an ell-th root of unity in K."""
    if t.L.pow(a, t.ell) != 1 or t.sigma(a) != a:
        raise NotRootOfUnity(f"{a!r} is not an ell-th root of unity in K")
