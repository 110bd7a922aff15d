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


def deg(coeffs) -> int:
    return len(coeffs) - 1  # -1 for the zero polynomial


def add(f, g, gf: GF):
    n = max(len(f), len(g))
    return trim(
        gf.add(f[i] if i < len(f) else 0, g[i] if i < len(g) else 0) for i in range(n)
    )


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
    """Whether f divides g."""
    return divmod_poly(g, f, gf)[1] == ()


def xl_minus_one(ell: int, gf: GF):
    c = [0] * (ell + 1)
    c[0] = gf.neg(1)
    c[ell] = 1
    return trim(c)


def monic_divisors(ell: int, gf: GF):
    """All monic divisors of x^ell - 1 over gf, by exhaustive scan.

    Only degrees up to ell // 2 are scanned (about |gf|^(ell/2) candidates);
    every other divisor is the cofactor of a scanned one.  The result is
    sorted by degree, then by the lower coefficients read as base-|gf|
    digits, low first: the order of a scan over all degrees.
    """
    target = xl_minus_one(ell, gf)
    q = gf.order
    found = set()
    for d in range(ell // 2 + 1):
        for enc in range(q**d):
            cand = tuple(enc // q**i % q for i in range(d)) + (1,)
            if divides(cand, target, gf):
                found.add(cand)
                found.add(divmod_poly(target, cand, gf)[0])
    return sorted(found, key=lambda c: (len(c), sum(v * q**i for i, v in enumerate(c[:-1]))))

