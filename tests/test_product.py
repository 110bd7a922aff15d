"""Tensor products: construction, distance factorization, defining sets."""

import random
from math import ceil

import pytest

from sumrank import (
    Partition,
    code_from_skew_generator,
    is_cyclic_skew_cyclic,
    min_distance_bruteforce,
    sumrank_weight,
)
from sumrank.bounds import BoundParams, DefiningSetView
from sumrank.codes import block_rank, hamming_weight
from sumrank.errors import (
    FieldMismatch,
    GeneratorNotOverE,
    NotADivisor,
    PreconditionViolated,
)
from sumrank.gf import field
from sumrank.poly import divides, monic_divisors, trim, xl_minus_one
from sumrank.product import (
    ProductCode,
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
from sumrank.skew import SkewPoly


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


class TestDivisors:
    @pytest.mark.parametrize(
        "p, deg, ell",
        [(2, 1, 1), (2, 1, 3), (2, 1, 6), (2, 1, 7), (2, 1, 9), (2, 2, 3), (2, 2, 5),
         (3, 1, 2), (3, 1, 4), (3, 1, 5), (3, 2, 4), (5, 1, 4), (7, 1, 3)],
    )
    def test_half_scan_matches_full_scan(self, p, deg, ell):
        gf = field(p, deg)
        assert monic_divisors(ell, gf) == scan_divisors(ell, gf)


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


class TestTensorCode:
    def test_dimension_product(self, tower9):
        t = tower9
        C1 = cyclic_code_from_poly(t, (1, 1))  # [3, 2]
        C2 = skew_code_from_poly(t, SkewPoly(t, "F", (1, 1)))  # [3, 2]
        P = tensor_code(C1, C2)
        assert P.code.k == 4 == P.k1 * P.k2

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
