"""Ordinary (commutative) univariate polynomials over a small finite field.

Used for the x-side of the bivariate ring: generators of cyclic codes,
divisors of x^ell - 1, and evaluation at roots of unity.  Coefficients are
field-element encodings, low degree first, no trailing zeros.
"""

from __future__ import annotations

from .errors import DivisionByZero
from .gf import GF


def trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def format_terms(terms) -> str:
    """Text of the terms (c, ((var, e), ...)): zero terms and v^0 dropped, no
    unit coefficient before a monomial, v^1 as v, and "0" for no terms."""
    out = []
    for c, powers in terms:
        if c == 0:
            continue
        mono = [v if e == 1 else f"{v}^{e}" for v, e in powers if e]
        out.append("*".join(mono if c == 1 and mono else [str(c)] + mono))
    return " + ".join(out) or "0"


def wrap(coeffs, length: int, gf: GF):
    """The coefficient vector mod y^length - 1: y^i adds onto slot i mod length."""
    out = [0] * length
    for i, c in enumerate(coeffs):
        out[i % length] = gf.add(out[i % length], c)
    return tuple(out)


def mul(f, g, gf: GF):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = gf.add(out[i + j], gf.mul(a, b))
    return trim(out)


def divmod_poly(f, g, gf: GF):
    if not g:
        raise DivisionByZero("polynomial division by zero")
    r = list(f)
    q = [0] * max(len(f) - len(g) + 1, 1)
    inv_lead = gf.inv(g[-1])
    while len(r) >= len(g) and any(r):
        if r[-1] == 0:
            r.pop()
            continue
        d = len(r) - len(g)
        c = gf.mul(r[-1], inv_lead)
        q[d] = c
        for i, b in enumerate(g):
            r[d + i] = gf.sub(r[d + i], gf.mul(c, b))
        while r and r[-1] == 0:
            r.pop()
    return trim(q), trim(r)


def divides(f, g, gf: GF) -> bool:
    """Whether f divides g; the zero polynomial divides only zero."""
    if not any(f):
        return not any(g)
    return divmod_poly(g, f, gf)[1] == ()


def xl_minus_one(ell: int, gf: GF):
    c = [0] * (ell + 1)
    c[0] = gf.neg(1)
    c[ell] = 1
    return trim(c)

