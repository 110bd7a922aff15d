"""Tensor products of a cyclic code and a skew-cyclic code.

The product of an [ell, k1] cyclic code (Hamming metric) with an [N, k2]
skew-cyclic code (rank metric) is a cyclic-skew-cyclic code of length ell*N
with partition (N, ..., N).  Its sum-rank distance factors as d_H * d_R, its
generator is f1(x) * f2(z), and when f1 has coefficients in E its defining
set is the union-of-slices of the factors' defining sets, which feeds the
product variants of the Roos and Hartmann-Tzeng bounds.  The factor codes
and their tensor come from `codes`, which builds each once per tower and
pair, so a product built here and the code of its generator
(`code_from_skew_generator`) are one object.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .bivar import BivarPoly, nu_map
from .bounds import CHECKERS, BoundParams, DefiningSetView
from .codes import (
    LinearCode,
    Partition,
    factor_code,
    kronecker_code,
    min_distance_bruteforce,
    tensor_vector,
)
from .errors import (
    GeneratorNotOverE,
    LengthMismatch,
    LevelMismatch,
    NotADivisor,
    PreconditionViolated,
)
from .poly import divides, mul, trim, wrap, xl_minus_one
from .skew import SkewPoly, right_divides, sigma_eval
from .tower import FieldTower, primitive_ell_root


@dataclass(frozen=True)
class ProductCode:
    C1: LinearCode  # [ell, k1] cyclic, Hamming partition
    C2: LinearCode  # [N, k2] skew-cyclic, rank partition
    code: LinearCode  # length ell*N, partition (N, ..., N)
    f1: tuple | None = None  # generator of C1 (low-first coefficients)
    f2: SkewPoly | None = None  # generator of C2

    @property
    def k1(self):
        return self.C1.k

    @property
    def k2(self):
        return self.C2.k

    def matrix_view(self, cw):
        """A length-ell*N codeword as an ell x N matrix: columns lie in C1,
        rows lie in C2."""
        N = self.C2.n
        ell = self.C1.n
        if len(cw) != ell * N:
            raise LengthMismatch("codeword does not match the factor lengths")
        return tuple(tuple(cw[i * N + j] for j in range(N)) for i in range(ell))


def tensor_code(C1: LinearCode, C2: LinearCode, f1=None, f2=None) -> ProductCode:
    """C1 (x) C2 with partition (N, ..., N): `codes.kronecker_code`."""
    return ProductCode(C1, C2, kronecker_code(C1, C2), f1, f2)


# Each factor's vector mod y^L - 1, once per tower: (tower, "x" or "z",
# trimmed coefficients) -> the vector.  A factor enters only once it has
# passed its divisor test, so errors are raised every call.
_factor_cache = {}


def _f1_factor(t: FieldTower, f1):
    """f1's vector, once f1 | x^ell - 1."""
    key = (t, "x", trim(f1))
    if key not in _factor_cache:
        if not divides(key[2], xl_minus_one(t.ell, t.F), t.F):
            raise NotADivisor("f1 must divide x^ell - 1")
        _factor_cache[key] = wrap(key[2], t.ell, t.F)
    return _factor_cache[key]


def _f2_factor(t: FieldTower, f2: SkewPoly):
    """f2's vector, once f2 is over F and right-divides z^N - 1."""
    if f2.level != "F":
        raise LevelMismatch("a code's generator has coefficients in F")
    key = (t, "z", f2.coeffs)
    # an f2 of another tower is not looked up: right_divides refuses it
    if f2.tower != t or key not in _factor_cache:
        if not right_divides(f2, SkewPoly.z_pow_minus_one(t, t.N)):
            raise NotADivisor("f2 must be a right divisor of z^N - 1")
        _factor_cache[key] = wrap(f2.coeffs, t.N, t.F)
    return _factor_cache[key]


def cyclic_code_from_poly(t: FieldTower, f1) -> LinearCode:
    """The [ell, ell - deg f1] cyclic code generated by f1 | x^ell - 1: the
    block-shift orbit of f1 on ell blocks of size 1, built once per tower."""
    return factor_code(t, _f1_factor(t, f1), Partition.hamming(t.ell))


def skew_code_from_poly(t: FieldTower, f2: SkewPoly) -> LinearCode:
    """The [N, N - deg f2] skew-cyclic code generated by f2 | z^N - 1: the
    twisted-shift orbit of f2 on one block of size N, built once per tower."""
    return factor_code(t, _f2_factor(t, f2), Partition.rank(t.N))


def product_generator_poly(t: FieldTower, f1, f2: SkewPoly) -> BivarPoly:
    """g = f1(x) * f2(z) in the bivariate quotient ring: f1 stands on the
    left, so the coefficient of x^i z^j is f1_i * f2_j, with no twist; as a
    vector that is the tensor of the factors' vectors."""
    return nu_map(tensor_vector(t, _f1_factor(t, f1), _f2_factor(t, f2)), t)


def product_defining_set(t: FieldTower, f1, f2: SkewPoly):
    """Membership predicate on L-encodings: (a, beta) is a member iff
    f1(a) = 0 or the sigma-evaluation of f2 at beta vanishes."""
    f1 = trim(f1)
    if not t.over_E(f1):
        raise GeneratorNotOverE("f1 must have coefficients in E")
    L = t.L
    f1_L = [t.lift(c, "F", "L") for c in f1]
    f2_L = f2.lift_to_L()

    def member(aval: int, bval: int) -> bool:
        return L.poly_eval(f1_L, aval) == 0 or sigma_eval(f2_L, bval) == 0

    return member


def product_code_from_polys(t: FieldTower, f1, f2: SkewPoly) -> ProductCode:
    C1 = cyclic_code_from_poly(t, f1)
    C2 = skew_code_from_poly(t, f2)
    return tensor_code(C1, C2, trim(f1), f2)


def factor_distances(P: ProductCode):
    """(d_H(C1), d_R(C2)) by brute force."""
    dH = min_distance_bruteforce(P.C1, metric="hamming")
    dR = min_distance_bruteforce(P.C2, metric="rank")
    return dH, dR


def product_bound(P: ProductCode, kind: str, p: BoundParams):
    """Certify the product grid containment and convert the bound delta+r
    into lower bounds on the factors' distances."""
    if kind not in ("roos", "ht"):
        raise PreconditionViolated("product bounds exist for roos and ht only")
    t = P.code.tower
    if P.f1 is None or P.f2 is None:
        raise PreconditionViolated("product bounds need the generator polynomials")
    member = product_defining_set(t, P.f1, P.f2)
    D = DefiningSetView.from_predicate(t, member)
    cert = CHECKERS[kind](D, p, P.code.code_id())
    dH, dR = factor_distances(P)
    return {
        "certificate": cert,
        "bound": cert.bound,
        "dH_lower": ceil(cert.bound / dR),
        "dR_lower": ceil(cert.bound / dH),
        "dH": dH,
        "dR": dR,
    }


def corpus_f1(t: FieldTower):
    """All monic divisors of x^ell - 1 over E, lifted to F.

    Each is a product of minimal polynomials prod_(j in C) (x - a^j), a the
    primitive ell-th root of unity of `primitive_ell_root` and C a
    cyclotomic coset of |E| mod ell; they are built in L.  Ordered by
    degree, then by the lower coefficients (E-encodings) as base-|E| digits,
    low first.
    """
    E, L, q, ell = t.E, t.L, t.E.order, t.ell
    a = primitive_ell_root(t)
    from_L = {t.lift(v, "E", "L"): v for v in range(q)}
    divs = [(1,)]
    for coset in {frozenset(i * q**j % ell for j in range(t.h)) for i in range(ell)}:
        M = (1,)
        for j in coset:
            M = mul(M, (L.neg(L.pow(a, j)), 1), L)
        divs += [mul(d, tuple(from_L[c] for c in M), E) for d in divs]
    divs.sort(key=lambda c: (len(c), sum(v * q**i for i, v in enumerate(c[:-1]))))
    return [tuple(t.lift(c, "E", "F") for c in d) for d in divs]


def corpus_f2(t: FieldTower):
    """All monic right divisors of z^N - 1, for N = m: the minimal skew
    polynomials of the subspaces of F over E, the fixed field of theta
    (Boucher-Ulmer; Lam-Leroy).  For v outside the kernel V of
    `sigma_eval(f, .)` and u = sigma_eval(f, v), (z - theta(u)/u) * f is the
    polynomial of V + <v>; the lattice grows from f = 1, V = {0}.  Ordered
    by degree, then by the lower coefficients as a tuple, c_0 first.
    """
    if t.N != t.m:
        raise PreconditionViolated("the divisors of z^N - 1 are enumerated for N = m only")
    gf = t.F
    layer = found = {SkewPoly.one(t)}
    while layer:
        layer = {
            SkewPoly(t, "F", (gf.neg(gf.div(t.theta(u), u)), 1)) * f
            for f in layer
            for u in {sigma_eval(f, v) for v in range(1, gf.order)} - {0}
        }
        found = found | layer
    return sorted(found, key=lambda f: (f.degree, f.coeffs[:-1]))
