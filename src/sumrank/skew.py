"""Skew polynomial arithmetic in F[z;theta] and L[z;sigma].

Multiplication follows z^i z^j = z^{i+j} and z*a = twist(a)*z, where the
twist is theta on F-level coefficients and sigma on L-level ones.  Right
evaluation at `a` is the remainder of right division by (z - a); the fast
path uses the product chain N_i(a) = twist^{i-1}(a)...twist(a)*a, with the
division route kept as an independent oracle for tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    DivisionByZero,
    LevelMismatch,
    ParseError,
    TowerMismatch,
    ZeroBeta,
)
from .poly import trim, wrap
from .tower import FieldTower


@dataclass(frozen=True)
class SkewPoly:
    """Coefficients low-degree first, trailing zeros stripped.

    `level` is "F" (twist theta) or "L" (twist sigma); the zero polynomial
    is the empty coefficient tuple.
    """

    tower: FieldTower
    level: str
    coeffs: tuple

    def __post_init__(self):
        if self.level not in ("F", "L"):
            raise LevelMismatch(f"skew coefficients live in F or L, not {self.level}")
        c = list(self.coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def field(self):
        return self.tower.gf(self.level)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _twist(self, val: int, i: int) -> int:
        return self.tower.twist(self.level, val, i)

    def _check(self, other: "SkewPoly"):
        if self.tower != other.tower or self.level != other.level:
            raise TowerMismatch("operands live in different skew rings")

    def __add__(self, other):
        self._check(other)
        gf = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(
            self.tower,
            self.level,
            tuple(gf.add(self.coeff(i), other.coeff(i)) for i in range(n)),
        )

    def __sub__(self, other):
        self._check(other)
        gf = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(
            self.tower,
            self.level,
            tuple(gf.sub(self.coeff(i), other.coeff(i)) for i in range(n)),
        )

    def __mul__(self, other):
        return skew_mul(self, other)

    def lift_to_L(self) -> "SkewPoly":
        if self.level == "L":
            return self
        t = self.tower
        return SkewPoly(t, "L", tuple(t.lift(c, "F", "L") for c in self.coeffs))

    def __str__(self):
        return to_string(self, "z")

    @staticmethod
    def zero(tower, level="F"):
        return SkewPoly(tower, level, ())

    @staticmethod
    def one(tower, level="F"):
        return SkewPoly(tower, level, (1,))

    @staticmethod
    def z_pow_minus_one(tower, n, level="F"):
        gf = tower.gf(level)
        c = [0] * (n + 1)
        c[0] = gf.neg(1)
        c[n] = 1
        return SkewPoly(tower, level, tuple(c))


def skew_mul(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    f._check(g)
    if f.is_zero() or g.is_zero():
        return SkewPoly.zero(f.tower, f.level)
    gf = f.field
    out = [0] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(g.coeffs):
            if b == 0:
                continue
            # a z^i * b z^j = a twist^i(b) z^{i+j}
            out[i + j] = gf.add(out[i + j], gf.mul(a, f._twist(b, i)))
    return SkewPoly(f.tower, f.level, tuple(out))


def right_divide(f: SkewPoly, g: SkewPoly):
    """Unique (q, r) with f = q*g + r and deg r < deg g."""
    f._check(g)
    if g.is_zero():
        raise DivisionByZero("right division by the zero skew polynomial")
    gf = f.field
    r = list(f.coeffs)
    dq = f.degree - g.degree
    q = [0] * max(dq + 1, 1)
    glead = g.coeffs[-1]
    while len(r) - 1 >= g.degree and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < g.degree:
            break
        d = len(r) - 1 - g.degree
        # leading term of q_d z^d * g is q_d * twist^d(glead) z^{deg f}
        c = gf.div(r[-1], f._twist(glead, d))
        q[d] = c
        for j, b in enumerate(g.coeffs):
            r[d + j] = gf.sub(r[d + j], gf.mul(c, f._twist(b, d)))
    return (
        SkewPoly(f.tower, f.level, tuple(q)),
        SkewPoly(f.tower, f.level, tuple(r)),
    )


def right_divides(g: SkewPoly, f: SkewPoly) -> bool:
    """Whether g is a right divisor of f."""
    return right_divide(f, g)[1].is_zero()


def right_evaluate(f: SkewPoly, a: int) -> int:
    """f(a) as in f = q*(z - a) + f(a), via the norm product chain."""
    gf = f.field
    acc = 0
    norm = 1  # N_0(a) = 1, N_{i+1}(a) = twist^i(a) * N_i(a)
    for i, c in enumerate(f.coeffs):
        if c:
            acc = gf.add(acc, gf.mul(c, norm))
        norm = gf.mul(f._twist(a, i), norm)
    return acc


def right_evaluate_by_division(f: SkewPoly, a: int) -> int:
    """Division-route oracle for right_evaluate."""
    gf = f.field
    lin = SkewPoly(f.tower, f.level, (gf.neg(a), 1))
    _, r = right_divide(f, lin)
    return r.coeff(0)


def sigma_eval(f: SkewPoly, beta: int) -> int:
    """The associated twisted-polynomial value sum_i f_i * twist^i(beta)."""
    gf = f.field
    acc = 0
    for i, c in enumerate(f.coeffs):
        if c:
            acc = gf.add(acc, gf.mul(c, f._twist(beta, i)))
    return acc


def ev_beta(f: SkewPoly, beta: int) -> int:
    """sigma_eval(f, beta) * beta^{-1}; equals right_evaluate at
    twist(beta)/beta."""
    if beta == 0:
        raise ZeroBeta("beta must be nonzero")
    gf = f.field
    return gf.mul(sigma_eval(f, beta), gf.inv(beta))


def reduce_mod_zN(f: SkewPoly) -> SkewPoly:
    """Canonical representative modulo the central polynomial z^N - 1."""
    return SkewPoly(f.tower, f.level, wrap(f.coeffs, f.tower.N, f.field))


def to_string(f: SkewPoly, var: str = "z") -> str:
    if f.is_zero():
        return "0"
    terms = []
    for i, c in enumerate(f.coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(var if c == 1 else f"{c}*{var}")
        else:
            terms.append(f"{var}^{i}" if c == 1 else f"{c}*{var}^{i}")
    return " + ".join(terms)


_COEFF_RE = re.compile(r"g(?:\^(\d+))?|\d+")
_TERM_RE = re.compile(r"(?:(g(?:\^?\d+|\^\w*)?|\d+)\s*\*?\s*)?((?:[a-z](?:\^\d+)?\s*\*?\s*)*)")
_POWER_RE = re.compile(r"([a-z])(?:\^(\d+))?")


def _int(digits: str) -> int:
    """int() of a digit string, with ParseError past Python's digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer token of {len(digits)} digits is too long")


def parse_coeff(tok: str, gf) -> int:
    """A coefficient token: an integer encoding below |gf|, `g` or `g^k`."""
    m = _COEFF_RE.fullmatch(tok)
    if not m:
        raise ParseError(f"bad coefficient {tok!r}")
    if tok.startswith("g"):
        return gf.pow(gf.gen, _int(m.group(1) or "1"))
    val = _int(tok)
    if val >= gf.order:
        raise ParseError(f"coefficient {tok} out of range for order {gf.order}")
    return val


def parse_terms(text: str, gf, variables: str):
    """Yield (coefficient, {variable: exponent}) per term of "c*x^i*z^j + ..."."""
    terms = re.findall(r"[+-]?[^+-]+", text)
    if not terms:
        raise ParseError("empty polynomial")
    for raw in terms:
        raw = raw.strip()
        body = raw.lstrip("+-").strip()
        m = _TERM_RE.fullmatch(body)
        if not body or not m:
            raise ParseError(f"bad term {body!r}")
        c = parse_coeff(m.group(1), gf) if m.group(1) else 1
        exps = {}
        for v, e in _POWER_RE.findall(m.group(2)):
            if v not in variables:
                raise ParseError(f"unexpected variable {v!r}, expected one of {variables!r}")
            exps[v] = exps.get(v, 0) + _int(e or "1")
        yield (gf.neg(c) if raw.startswith("-") else c), exps


def parse_poly(text: str, tower: FieldTower, level: str, var: str,
               max_deg: int | None = None):
    """Parse "c0 + c1*z + c2*z^2" style text into a coefficient tuple
    (low degree first); coefficients as in `parse_coeff`.  A term of degree
    above `max_deg` is a ParseError, raised before any coefficient list is
    built."""
    gf = tower.gf(level)
    terms = list(parse_terms(text, gf, var))
    if max_deg is not None:
        top = max(exps.get(var, 0) for _, exps in terms)
        if top > max_deg:
            raise ParseError(f"a term of degree {top} in {var} exceeds {max_deg}")
    out = []
    for c, exps in terms:
        e = exps.get(var, 0)
        out += [0] * (e + 1 - len(out))
        out[e] = gf.add(out[e], c)
    return trim(out)
