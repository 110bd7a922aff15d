"""Tensor products: construction, distance factorization, defining sets."""

import random
from math import ceil, comb

import pytest

from sumrank import (
    LinearCode,
    Partition,
    code_from_skew_generator,
    is_cyclic_skew_cyclic,
    min_distance_bruteforce,
    sumrank_weight,
)
from sumrank.bivar import BivarPoly, biv_mul
from sumrank.bounds import BoundParams, DefiningSetView
from sumrank.codes import block_rank, hamming_weight
from sumrank.errors import (
    DivisionByZero,
    FieldMismatch,
    GeneratorNotOverE,
    LengthMismatch,
    LevelMismatch,
    NotADivisor,
    PreconditionViolated,
)
from sumrank.gf import field
from sumrank.poly import divides, divmod_poly, trim, wrap, xl_minus_one
from sumrank.product import (
    ProductCode,
    corpus_f1,
    corpus_f2,
    cyclic_code_from_poly,
    factor_distances,
    product_bound,
    product_code_from_polys,
    product_defining_set,
    product_generator_poly,
    skew_code_from_poly,
    tensor_code,
    tensor_vector,
)
from sumrank.skew import SkewPoly, right_divides
from sumrank.tower import build_tower


def scan_divisors(ell, gf):
    """Every monic divisor of x^ell - 1, by a scan over all degrees."""
    target = xl_minus_one(ell, gf)
    out = []
    for d in range(ell + 1):
        for enc in range(gf.order**d):
            coeffs = []
            v = enc
            for _ in range(d):
                coeffs.append(v % gf.order)
                v //= gf.order
            coeffs.append(1)
            cand = trim(coeffs)
            if divides(cand, target, gf):
                out.append(cand)
    return out


def half_scan_divisors(ell, gf):
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


def scan_right_divisors(t, level="F"):
    """All monic right divisors of z^N - 1, by exhaustive scan."""
    import itertools

    gf = t.gf(level)
    zN1 = SkewPoly.z_pow_minus_one(t, t.N, level)
    out = []
    for d in range(t.N + 1):
        for lower in itertools.product(range(gf.order), repeat=d):
            f = SkewPoly(t, level, tuple(lower) + (1,))
            if right_divides(f, zN1):
                out.append(f)
    return out


class TestDivisors:
    @pytest.mark.parametrize(
        "p, deg, ell",
        [(2, 1, 1), (2, 1, 3), (2, 1, 7), (2, 1, 9), (2, 2, 3), (2, 2, 5),
         (3, 1, 2), (3, 1, 4), (3, 1, 5), (3, 2, 4), (5, 1, 4), (7, 1, 3)],
    )
    def test_half_scan_matches_full_scan(self, p, deg, ell):
        """corpus_f1 and the half scan both give the full scan's list, on the
        tower with E = F = GF(p^deg) whose K is the splitting field of
        x^ell - 1."""
        h = next(h for h in range(1, ell + 1) if p ** (deg * h) % ell == 1 % ell)
        t = build_tower(p, deg, 1, h, ell, 1)
        scan = scan_divisors(ell, t.E)
        assert half_scan_divisors(ell, t.E) == scan
        assert corpus_f1(t) == [tuple(t.lift(c, "E", "F") for c in d) for d in scan]


class TestCorpora:
    """The constructed corpora are the scans' lists, in the scans' order."""

    @pytest.mark.parametrize("spec", [
        # the benchmark towers; the first is tower9
        (2, 1, 3, 2, 3, 3), (2, 1, 3, 4, 5, 3), (2, 1, 4, 3, 7, 4),
        (5, 1, 2, 1, 4, 2), (7, 1, 2, 1, 6, 2),
        # odd p, E != F_p, gcd(ell, m) > 1 and ell = 1
        (3, 1, 2, 1, 2, 2), (2, 2, 2, 1, 3, 2), (3, 2, 2, 1, 4, 2),
        (7, 1, 2, 1, 3, 2), (2, 1, 1, 3, 7, 1), (2, 1, 3, 4, 15, 3),
    ], ids=str)
    def test_equal_to_the_scans(self, spec):
        t = build_tower(*spec)
        lifted = [tuple(t.lift(c, "E", "F") for c in d) for d in half_scan_divisors(t.ell, t.E)]
        assert corpus_f1(t) == lifted
        assert corpus_f2(t) == scan_right_divisors(t)

    @pytest.mark.parametrize("spec", [(11, 1, 2, 1, 10, 2), (13, 1, 2, 1, 12, 2)], ids=str)
    def test_f1_where_x_ell_minus_1_splits(self, spec):
        """ell | p - 1: x^ell - 1 is ell distinct linear factors over F_p, so
        there are C(ell, d) divisors of degree d, 2^ell in all."""
        t = build_tower(*spec)
        from_F = {t.lift(v, "E", "F"): v for v in range(t.E.order)}
        divs = [tuple(from_F[c] for c in d) for d in corpus_f1(t)]  # over E
        assert len(set(divs)) == len(divs) == 2**t.ell
        assert [sum(len(d) == k + 1 for d in divs) for k in range(t.ell + 1)] == [
            comb(t.ell, k) for k in range(t.ell + 1)
        ]
        target = xl_minus_one(t.ell, t.E)
        # a sample: dividing all 4,096 at ell = 12 takes about 0.8 s
        assert all(d[-1] == 1 and divides(d, target, t.E) for d in divs[::7])

    def test_f2_lattice_of_F32_over_F2(self):
        """374 subspaces of F_2^5, each the kernel of a right divisor of z^5 - 1."""
        t = build_tower(2, 1, 5, 2, 3, 5)
        divs = corpus_f2(t)
        assert len(set(divs)) == len(divs) == 374
        z5 = SkewPoly.z_pow_minus_one(t, 5)
        assert all(f.coeffs[-1] == 1 and right_divides(f, z5) for f in divs)

    def test_f2_needs_N_equal_to_m(self):
        with pytest.raises(PreconditionViolated):
            corpus_f2(build_tower(2, 1, 2, 1, 1, 4))


def reference_cyclic_code(t, f1):
    """x^i * f1 mod x^ell - 1 for i < ell, index by index: a reference for
    the block-shift orbit of `cyclic_code_from_poly`."""
    gf, ell = t.F, t.ell
    rows = []
    for i in range(ell):
        row = [0] * ell
        for j, c in enumerate(f1):
            row[(i + j) % ell] = gf.add(row[(i + j) % ell], c)
        rows.append(row)
    return LinearCode(t, rows, Partition.hamming(ell))


def reference_skew_code(t, f2):
    """z^i * f2 mod z^N - 1 for i < N, z^i twisting each coefficient by
    theta^i: a reference for the twisted-shift orbit of `skew_code_from_poly`."""
    gf, N = t.F, t.N
    rows = []
    for i in range(N):
        row = [0] * N
        for j, c in enumerate(f2.coeffs):
            row[(i + j) % N] = gf.add(row[(i + j) % N], t.theta(c, i))
        rows.append(row)
    return LinearCode(t, rows, Partition.rank(N))


class TestFactorCodes:
    """The shift-orbit factor codes equal the index loops on every corpus
    generator, the zero codes of x^ell - 1 and z^N - 1 included."""

    @pytest.mark.parametrize("spec", [
        (2, 1, 3, 2, 3, 3), (2, 1, 3, 4, 5, 3), (2, 1, 4, 3, 7, 4), (5, 1, 2, 1, 4, 2),
        (7, 1, 2, 1, 6, 2), (3, 2, 2, 1, 4, 2), (3, 1, 4, 1, 2, 4), (2, 1, 3, 4, 15, 3),
    ], ids=str)
    def test_every_corpus_factor(self, spec):
        t = build_tower(*spec)
        F1, F2 = corpus_f1(t), corpus_f2(t)
        for f1 in F1:
            assert cyclic_code_from_poly(t, f1).G == reference_cyclic_code(t, f1).G
        for f2 in F2:
            assert skew_code_from_poly(t, f2).G == reference_skew_code(t, f2).G
        assert cyclic_code_from_poly(t, F1[-1]).k == skew_code_from_poly(t, F2[-1]).k == 0
        # f1 stands on the left of f1(x) * f2(z), so the grid has no twist
        rng = random.Random(sum(spec))
        for _ in range(10):
            f1, f2 = rng.choice(F1), rng.choice(F2)
            x_part = BivarPoly.from_x_poly(t, "F", f1)
            z_part = BivarPoly.from_z_poly(t, "F", f2.coeffs)
            assert product_generator_poly(t, f1, f2) == biv_mul(x_part, z_part)


class TestWrap:
    @pytest.mark.parametrize("p, deg", [(2, 3), (7, 1), (3, 2)])
    def test_remainder_mod_y_length_minus_one(self, p, deg):
        # lists up to four times the length: y^i adds onto slot i mod length
        gf = field(p, deg)
        rng = random.Random(p * deg)
        for length in (1, 2, 3, 5):
            for n in range(4 * length + 2):
                f = tuple(rng.randrange(gf.order) for _ in range(n))
                r = divmod_poly(trim(f), xl_minus_one(length, gf), gf)[1]
                assert wrap(f, length, gf) == r + (0,) * (length - len(r))
        assert wrap((1, 2, 3, 4, 5), 2, field(7, 1)) == (2, 6)


class TestTensorVector:
    def test_weight_identity_randomized(self, tower9):
        t = tower9
        rng = random.Random(71)
        part = Partition.equal(3, 3)
        for _ in range(500):
            u = [rng.randrange(8) for _ in range(3)]
            v = [rng.randrange(8) for _ in range(3)]
            w = sumrank_weight(t, tensor_vector(t, u, v), part)
            assert w == hamming_weight(u) * block_rank(t, v)

    def test_unit_vector_factor(self, tower9):
        t = tower9
        v = (3, 5, 1)
        assert tensor_vector(t, (1, 0, 0), v) == v + (0,) * 6

    @pytest.mark.parametrize("u, v", [((), (1, 2)), ((1, 2), ()), ((), ())],
                             ids=["u", "v", "both"])
    def test_empty_factor(self, tower9, u, v):
        with pytest.raises(LengthMismatch):
            tensor_vector(tower9, u, v)


class TestTensorCode:
    def test_dimension_product(self, tower9):
        t = tower9
        C1 = cyclic_code_from_poly(t, (1, 1))  # [3, 2]
        C2 = skew_code_from_poly(t, SkewPoly(t, "F", (1, 1)))  # [3, 2]
        P = tensor_code(C1, C2)
        assert P.code.k == 4 == P.k1 * P.k2

    def test_L_level_factor_refused(self, tower9):
        with pytest.raises(LevelMismatch):
            skew_code_from_poly(tower9, SkewPoly(tower9, "L", (1, 1)))

    def test_field_mismatch(self, tower9, tower4):
        C1 = cyclic_code_from_poly(tower9, (1, 1))
        C2 = skew_code_from_poly(tower4, SkewPoly(tower4, "F", (1, 1)))
        with pytest.raises(FieldMismatch):
            tensor_code(C1, C2)

    def test_matrix_view_rows_and_columns(self, tower9):
        t = tower9
        P = product_code_from_polys(t, (1, 1, 1), SkewPoly(t, "F", (1, 1)))
        for cw in P.code.codewords():
            M = P.matrix_view(cw)
            for row in M:
                assert P.C2.contains(list(row))
            for j in range(3):
                assert P.C1.contains([M[i][j] for i in range(3)])

    def test_product_is_csc(self, tower9):
        t = tower9
        P = product_code_from_polys(t, (1, 1), SkewPoly(t, "F", (1, 1)))
        assert is_cyclic_skew_cyclic(P.code)


class TestGeneratorPolynomial:
    def test_matches_tensor_construction(self, tower9, corpus):
        t = tower9
        f1s, f2s = corpus
        rng = random.Random(73)
        for _ in range(10):
            f1, f2 = rng.choice(f1s), rng.choice(f2s)
            g = product_generator_poly(t, f1, f2)
            assert code_from_skew_generator(g, t) == product_code_from_polys(t, f1, f2).code

    def test_not_a_divisor(self, tower9):
        with pytest.raises(NotADivisor):
            product_generator_poly(tower9, (1, 0, 1), SkewPoly(tower9, "F", (1, 1)))

    def test_L_level_factor_refused(self, tower9):
        # as skew_code_from_poly does; the divisor test once met it first and
        # raised TowerMismatch
        f2 = SkewPoly(tower9, "L", (1, 1))
        with pytest.raises(LevelMismatch):
            product_generator_poly(tower9, (1, 1), f2)
        with pytest.raises(LevelMismatch):
            product_code_from_polys(tower9, (1, 1), f2)

    def test_zero_factor_is_not_a_divisor(self, tower9):
        # the zero polynomial divides only zero, so f1 = 0 or f2 = 0 fails the
        # divisor hypothesis instead of dividing by zero
        t = tower9
        zero, f2 = SkewPoly.zero(t), SkewPoly(t, "F", (1, 1))
        for build in (
            lambda: cyclic_code_from_poly(t, ()),
            lambda: cyclic_code_from_poly(t, (0, 0)),
            lambda: skew_code_from_poly(t, zero),
            lambda: product_generator_poly(t, (), f2),
            lambda: product_generator_poly(t, (1, 1), zero),
        ):
            with pytest.raises(NotADivisor):
                build()

    def test_zero_divides_only_zero(self, tower9):
        gf = tower9.F
        assert divides((), (), gf) and divides((1, 1), (), gf)
        assert not divides((), (1, 1), gf) and not divides((0,), xl_minus_one(3, gf), gf)
        with pytest.raises(DivisionByZero):
            divmod_poly((1, 1), (), gf)

    def test_distance_factorizes(self, tower9):
        # the frozen spec pair: [3,1,3] repetition x [3,2] with f2 = z + 1
        t = tower9
        P = product_code_from_polys(t, (1, 1, 1), SkewPoly(t, "F", (1, 1)))
        dH, dR = factor_distances(P)
        assert (dH, dR) == (3, 1)
        assert min_distance_bruteforce(P.code) == dH * dR == 3


class TestDefiningSetUnion:
    def test_union_slices(self, tower9):
        t = tower9
        member = product_defining_set(t, (1, 1, 1), SkewPoly(t, "F", (1, 1)))
        D = DefiningSetView.from_predicate(t, member)
        g = product_generator_poly(t, (1, 1, 1), SkewPoly(t, "F", (1, 1)))
        Dg = DefiningSetView.from_generator(t, g)
        assert D.grid_table() == Dg.grid_table()
        # f1 = x^2+x+1 has the primitive cube roots: first-coordinate slices
        table = D.grid_table()
        assert all(table[1]) and all(table[2]) and not any(table[0])

    def test_generator_not_over_E(self, tower9):
        t = tower9
        with pytest.raises(GeneratorNotOverE):
            product_defining_set(t, (2, 1), SkewPoly(t, "F", (1, 1)))

    def test_non_E_generator_may_break_union(self, tower9):
        """Documented non-theorem case: with f1 outside E[x] the union
        formula loses its meaning and the tables are allowed to disagree."""
        t = tower9
        f1 = (2, 1)  # x + gamma, gamma generates F8; divides x^3-1? No --
        from sumrank.poly import divides, xl_minus_one

        assert not divides(f1, xl_minus_one(3, t.F), t.F)
        # no containment claim is made; the operation refuses such inputs
        with pytest.raises(GeneratorNotOverE):
            product_defining_set(t, f1, SkewPoly(t, "F", (1, 1)))


class TestProductBounds:
    def test_bound_report(self, tower9, corpus):
        from sumrank.errors import SumrankError

        t = tower9
        _, f2s = corpus
        hits = 0
        for f2 in (f for f in f2s if f.degree == 2):
            P = product_code_from_polys(t, (1, 1, 1), f2)
            if P.code.k == 0:
                continue
            dH, dR = factor_distances(P)
            for b in range(t.n):
                try:
                    rep = product_bound(
                        P, "roos", BoundParams("roos", b, 2, r=0, s=1, ks=(0,))
                    )
                except SumrankError:
                    continue
                assert rep["bound"] == 2
                assert rep["dH_lower"] == ceil(2 / dR) <= dH
                assert rep["dR_lower"] == ceil(2 / dH) <= dR
                hits += 1
        assert hits > 0

    def test_kind_restricted(self, tower9):
        t = tower9
        P = product_code_from_polys(t, (1, 1, 1), SkewPoly(t, "F", (1, 1)))
        with pytest.raises(PreconditionViolated):
            product_bound(P, "bch", BoundParams("bch", 0, 2, t=1))

    def test_dR_one_gives_direct_dH_bound(self, tower9):
        t = tower9
        P = product_code_from_polys(t, (1, 1, 1), SkewPoly(t, "F", (1, 1)))
        rep = product_bound(P, "roos", BoundParams("roos", 1, 2, r=0, s=1, ks=(0,)))
        assert rep["dR"] == 1 and rep["dH_lower"] == rep["bound"]
