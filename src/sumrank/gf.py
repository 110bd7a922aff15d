"""Exact arithmetic in small finite fields GF(p^d).

Elements are plain integers in [0, p^d): the base-p digits of an integer are
the coordinates in the polynomial basis {1, g, ..., g^(d-1)}, where g is the
residue class of the variable modulo a deterministically chosen primitive
polynomial.  Multiplication goes through log/antilog tables, and so does
addition in odd characteristic (Zech logarithms), so field sizes are capped
at 2^16.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import gcd

from .errors import FieldTooLarge, InvalidParameter, NotPrime

MAX_ORDER = 1 << 16


def is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


def check_order(p: int, deg: int) -> None:
    """Raise FieldTooLarge if |p|^deg exceeds MAX_ORDER, multiplying up with
    an early exit so that a huge power is never built: 17 factors of
    |p| >= 2 already pass 2^16."""
    order = 1
    for _ in range(min(deg, MAX_ORDER.bit_length())):
        order *= p
        if abs(order) > MAX_ORDER:
            raise FieldTooLarge(f"field order {p}^{deg} exceeds table cap {MAX_ORDER}")


def _digits(val: int, p: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(val % p)
        val //= p
    return out


def _undigits(digs, p: int) -> int:
    val = 0
    for d in reversed(digs):
        val = val * p + d
    return val


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, by trial division up to sqrt(n)."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _square(a, mod, p: int) -> list[int]:
    """a^2 modulo the monic x^d + sum(mod[i] x^i), on length-d digit lists."""
    d = len(mod)
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, aj in enumerate(a):
                prod[i + j] += ai * aj
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k] % p
        if c:
            for i, mi in enumerate(mod):
                prod[k - d + i] -= c * mi
    return [c % p for c in prod[:d]]


def _times_x(val, mod, p: int) -> list[int]:
    """val * x modulo the monic x^d + sum(mod[i] x^i), on length-d digit lists."""
    lead = val[-1]
    val = [0] + val[:-1]
    if lead:
        val = [(v - lead * c) % p for v, c in zip(val, mod)]
    return val


def _xpow(e: int, mod, p: int) -> list[int]:
    """x^e modulo the monic x^d + sum(mod[i] x^i), by square-and-multiply."""
    out = [1] + [0] * (len(mod) - 1)
    for bit in bin(e)[2:]:
        out = _square(out, mod, p)
        if bit == "1":
            out = _times_x(out, mod, p)
    return out


class GF:
    """The field GF(p^deg) with a fixed primitive modulus.

    The modulus is the first monic primitive polynomial of degree `deg` in
    the scan order of integer-encoded coefficient vectors, which makes every
    derived object (tables, embeddings, canonical elements) reproducible.
    """

    def __init__(self, p: int, deg: int):
        if deg < 1:
            raise InvalidParameter("degree must be positive")
        check_order(p, deg)  # first: trial division of a huge p would stall
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.deg = deg
        self.order = p**deg
        self._build_tables()
        if p == 2:
            self.add = self.sub = operator.xor

    def _build_tables(self):
        """Find the modulus by the order test, then fill exp/log in one walk.

        A candidate x^deg + c_(deg-1) x^(deg-1) + ... + c_0 (the c_i are the
        base-p digits of r, c_0 != 0) is primitive exactly when x has order
        order - 1 modulo it: x^(order-1) = 1 and x^((order-1)/s) != 1 for
        every prime s | order - 1.  That also makes it irreducible.  Only the
        winner is walked by "multiply by x", and its walk is `exp`.
        """
        p, deg, order = self.p, self.deg, self.order
        one = [1] + [0] * (deg - 1)
        cofactors = [(order - 1) // s for s in _prime_factors(order - 1)]
        for r in range(order):
            if r % p == 0:
                continue  # c_0 = 0: x is not a unit
            mod = _digits(r, p, deg)
            if _xpow(order - 1, mod, p) == one and all(
                _xpow(e, mod, p) != one for e in cofactors
            ):
                break
        else:
            raise AssertionError("no primitive polynomial found")
        val, exp = one, [1]
        for _ in range(order - 2):
            val = _times_x(val, mod, p)
            exp.append(_undigits(val, p))
        self.modulus = mod + [1]
        self.exp = exp
        self.log = [0] * order
        for i, enc in enumerate(exp):
            self.log[enc] = i
        self.gen = exp[1] if order > 2 else 1
        if p != 2:
            # Zech logarithms: 1 + exp[i] = exp[zech[i]], or -1 where the sum
            # is 0 (exp[i] = p - 1).  Adding 1 only steps the lowest base-p
            # digit, without a carry.
            log = self.log
            self.zech = [-1 if e == p - 1 else log[e - e % p + (e + 1) % p] for e in exp]

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """a * (1 + b/a) by Zech logarithms.  For p = 2 the constructor binds
        `add` and `sub` of the instance to `operator.xor`, which is the sum on
        base-2 digits, so those calls skip this method."""
        if a == 0:
            return b
        if b == 0:
            return a
        log, n = self.log, self.order - 1
        z = self.zech[(log[b] - log[a]) % n]
        return 0 if z < 0 else self.exp[(log[a] + z) % n]

    def neg(self, a: int) -> int:
        """-a = a * g^((order-1)/2) for odd p, since -1 is the only element
        of order 2."""
        if self.p == 2 or a == 0:
            return a
        n = self.order - 1
        return self.exp[(self.log[a] + n // 2) % n]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.exp[(-self.log[a]) % (self.order - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0 if e != 0 else 1
        return self.exp[(self.log[a] * e) % (self.order - 1)]

    def frob(self, a: int, j: int = 1) -> int:
        """The p^j-power Frobenius."""
        if a == 0 or self.order == 2:
            return a
        e = pow(self.p, j % self.deg, self.order - 1)
        return self.exp[(self.log[a] * e) % (self.order - 1)]

    def mult_order(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("order of zero")
        n = self.order - 1
        return n // gcd(n, self.log[a])

    # -- polynomial helpers over this field ---------------------------------

    def poly_eval(self, coeffs, a: int) -> int:
        """Evaluate sum(coeffs[i] * y^i) at y = a (Horner)."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, a), c)
        return acc

    def modulus_int(self) -> int:
        return _undigits(self.modulus, self.p)

    def __repr__(self):
        return f"GF({self.p}^{self.deg})"


@lru_cache(maxsize=None)
def field(p: int, deg: int) -> GF:
    return GF(p, deg)


def find_embedding(small: GF, big: GF) -> int:
    """Image of small.gen under the canonical embedding small -> big.

    The image is the smallest (by integer encoding) root in `big` of the
    modulus of `small`, so the embedding is deterministic.  Every root lies
    in the copy of `small` inside `big`, whose units are the powers of
    big.gen with exponent divisible by (|big| - 1) / (|small| - 1).
    """
    if small.order == big.order:
        return big.gen if small.order > 2 else 1
    coeffs = [c % big.p for c in small.modulus]
    step = (big.order - 1) // (small.order - 1)
    roots = [a for a in big.exp[::step] if big.poly_eval(coeffs, a) == 0]
    if not roots:
        raise AssertionError(f"{small} does not embed in {big}")
    return min(roots)
