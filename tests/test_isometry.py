"""Semilinear sum-rank isometries and the block-diagonal distance oracle."""

import random

import pytest

from sumrank import (
    LinearCode,
    Partition,
    build_tower,
    min_distance_bruteforce,
    phi_shift,
    rho_shift,
    sumrank_weight,
)
from sumrank.errors import ShapeMismatch, UnequalParts, ZeroCode
from sumrank.isometry import (
    SumRankIsometry,
    act_sumrank,
    apply_to_code,
    cycle_matrix,
    general_linear_group,
    hamming_isometry,
    identity_matrix,
    iota_H,
    iota_R,
    is_automorphism,
    lambda_signature,
    min_dist_via_block_diagonal,
    phi_element,
    rank_isometry,
    rho_element,
)


def act_hamming(g, c, tower):
    return act_sumrank(g, c, Partition.hamming(len(c)), tower)


def act_rank(g, c, tower):
    return act_sumrank(g, c, Partition.rank(len(c)), tower)


def _random_isometry(t, part, rng):
    gls = {p: general_linear_group(p, t.E) for p in set(part.parts)}
    ell = len(part.parts)
    # permutation must preserve the size multiset; equal parts: any perm
    perm = list(range(ell))
    rng.shuffle(perm)
    return SumRankIsometry(
        tuple(rng.randrange(1, t.F.order) for _ in range(ell)),
        tuple(rng.choice(gls[p]) for p in part.parts),
        tuple(perm),
        rng.randrange(0, t.F.deg),
    )


class TestAction:
    def test_weight_preservation_randomized(self, tower9):
        t = tower9
        part = Partition.equal(3, 3)
        rng = random.Random(55)
        for _ in range(100):
            g = _random_isometry(t, part, rng)
            c = tuple(rng.randrange(8) for _ in range(9))
            assert sumrank_weight(t, act_sumrank(g, c, part, t), part) == sumrank_weight(
                t, c, part
            )

    def test_composition(self, tower9):
        t = tower9
        part = Partition.equal(3, 3)
        rng = random.Random(56)
        for _ in range(20):
            g1 = _random_isometry(t, part, rng)
            g2 = _random_isometry(t, part, rng)
            c = tuple(rng.randrange(8) for _ in range(9))
            assert sumrank_weight(
                t, act_sumrank(g1, act_sumrank(g2, c, part, t), part, t), part
            ) == sumrank_weight(t, c, part)

    def test_identity_action(self, tower9):
        part = Partition.equal(3, 3)
        e = SumRankIsometry.identity(part)
        c = (1, 2, 3, 4, 5, 6, 7, 0, 1)
        assert act_sumrank(e, c, part, tower9) == c

    def test_singular_matrix_rejected(self, tower9):
        part = Partition.equal(3, 3)
        bad = SumRankIsometry(
            (1, 1, 1),
            (identity_matrix(3), identity_matrix(3), tuple((0,) * 3 for _ in range(3))),
            (0, 1, 2),
        )
        with pytest.raises(ShapeMismatch):
            act_sumrank(bad, (0,) * 9, part, tower9)


class TestHammingAndRankActions:
    """Hamming and rank isometries act through the sum-rank action on the two
    extreme partitions: checked against their elementwise formulas and on the
    isometries they must refuse."""

    def test_hamming_action_elementwise(self, tower9):
        t = tower9
        rng = random.Random(62)
        for _ in range(100):
            ell = rng.randrange(1, 7)
            perm = list(range(ell))
            rng.shuffle(perm)
            scalars = tuple(rng.randrange(1, 8) for _ in range(ell))
            g = hamming_isometry(scalars, perm, rng.randrange(3))
            c = tuple(rng.randrange(8) for _ in range(ell))
            src = {image: i for i, image in enumerate(perm)}  # src[i] = perm^-1(i)
            expect = tuple(
                t.F.frob(t.F.mul(scalars[i], c[src[i]]), g.theta_pow) for i in range(ell)
            )
            assert act_hamming(g, c, t) == expect

    def test_rank_action_elementwise(self, tower9):
        t = tower9
        gl = general_linear_group(3, t.E)
        rng = random.Random(63)
        for _ in range(100):
            M, theta_pow = rng.choice(gl), rng.randrange(3)
            c = tuple(rng.randrange(8) for _ in range(3))
            twisted = [t.F.frob(v, theta_pow) for v in c]
            expect = []
            for col in range(3):
                acc = 0
                for j in range(3):
                    acc = t.F.add(acc, t.F.mul(twisted[j], t.lift(M[j][col], "E", "F")))
                expect.append(acc)
            assert act_rank(rank_isometry(M, theta_pow), c, t) == tuple(expect)

    @pytest.mark.parametrize("g, c", [
        (hamming_isometry((1, 0, 1), (0, 1, 2)), (1, 2, 3)),  # zero scalar
        (hamming_isometry((1, 1, 1), (0, 0, 1)), (1, 2, 3)),  # not a permutation
        (hamming_isometry((1, 1, 1), (0, 1, 2)), (1, 2)),  # length mismatch
    ], ids=["zero-scalar", "perm-001", "length"])
    def test_hamming_refusals(self, tower9, g, c):
        with pytest.raises(ShapeMismatch):
            act_hamming(g, c, tower9)

    @pytest.mark.parametrize("M, c", [
        (((1, 0), (0, 0)), (1, 2)),  # singular: (1, 2) would map to (1, 0)
        (((1, 0), (0, 1)), (1, 2, 3)),  # vector longer than the matrix
        (((1, 0), (0, 1)), (1,)),  # vector shorter than the matrix
        (((1, 0, 0), (0, 1, 0)), (1, 2)),  # not square
    ], ids=["singular", "long", "short", "non-square"])
    def test_rank_refusals(self, tower4, M, c):
        with pytest.raises(ShapeMismatch):
            act_rank(rank_isometry(M), c, tower4)


class TestRealizers:
    def test_rho_element_matches_shift(self, tower9):
        t = tower9
        part = Partition.equal(3, 3)
        g = rho_element(part)
        rng = random.Random(57)
        for _ in range(50):
            c = tuple(rng.randrange(8) for _ in range(9))
            assert act_sumrank(g, c, part, t) == rho_shift(c, part)

    def test_phi_element_matches_shift(self, tower9):
        t = tower9
        part = Partition.equal(3, 3)
        g = phi_element(part, t)
        rng = random.Random(58)
        for _ in range(50):
            c = tuple(rng.randrange(8) for _ in range(9))
            assert act_sumrank(g, c, part, t) == phi_shift(c, part, t)

    def test_embeddings_act_consistently(self, tower9):
        t = tower9
        part = Partition.equal(3, 3)
        rng = random.Random(59)
        gH = hamming_isometry((3, 1, 5), (1, 2, 0))
        gS = iota_H(gH, part)
        c = tuple(rng.randrange(8) for _ in range(9))
        out = act_sumrank(gS, c, part, t)
        # block i of the image is scalar * source block, permuted
        blocks = [c[i * 3 : (i + 1) * 3] for i in range(3)]
        inv = [0, 0, 0]
        for i, pi in enumerate(gH.perm):
            inv[pi] = i
        for i in range(3):
            expect = tuple(t.F.mul(gH.scalars[i], v) for v in blocks[inv[i]])
            assert out[i * 3 : (i + 1) * 3] == expect

        M = cycle_matrix(3)
        gR = rank_isometry(M, 0)
        gS = iota_R(gR, part)
        out = act_sumrank(gS, c, part, t)
        for i in range(3):
            assert out[i * 3 : (i + 1) * 3] == act_rank(gR, blocks[i], t)

    def test_realizers_are_the_embedded_shifts(self, tower9):
        # rho = iota_H(cyclic shift of the blocks), phi = iota_R(cycle
        # matrix, theta), written out as sum-rank isometries
        t = tower9
        part = Partition.equal(3, 3)
        ones, I, P = (1, 1, 1), identity_matrix(3), cycle_matrix(3)
        assert rho_element(part) == SumRankIsometry(ones, (I, I, I), (1, 2, 0), 0)
        theta_pow = t.e_deg * t.h
        assert phi_element(part, t) == SumRankIsometry(ones, (P, P, P), (0, 1, 2), theta_pow)

    def test_embeddings_act_positionwise_and_blockwise(self):
        # iota_H(g) acts as g on the vector of every block's j-th entry, and
        # iota_R(g) as g on every block; E = F4, so 1 x 1 matrices need not be 1
        t = build_tower(2, 2, 2, 1, 3, 2)
        part = Partition.equal(3, 2)
        gl = general_linear_group(2, t.E)
        rng = random.Random(64)
        for _ in range(50):
            perm = [0, 1, 2]
            rng.shuffle(perm)
            gH = SumRankIsometry(
                tuple(rng.randrange(1, 16) for _ in range(3)),
                tuple(((rng.randrange(1, 4),),) for _ in range(3)),
                tuple(perm), rng.randrange(4),
            )
            gR = SumRankIsometry(
                (rng.randrange(1, 16),), (rng.choice(gl),), (0,), rng.randrange(4)
            )
            c = tuple(rng.randrange(16) for _ in range(6))
            out = act_sumrank(iota_H(gH, part), c, part, t)
            for j in range(2):
                assert out[j::2] == act_hamming(gH, c[j::2], t)
            out = act_sumrank(iota_R(gR, part), c, part, t)
            for i in range(3):
                assert out[2 * i : 2 * i + 2] == act_rank(gR, c[2 * i : 2 * i + 2], t)

    @pytest.mark.parametrize("embed, g", [
        ("H", hamming_isometry((1, 1), (0, 1))),  # two positions for three blocks
        ("H", rank_isometry(identity_matrix(3))),  # a 3 x 3 matrix
        ("R", rank_isometry(identity_matrix(2))),  # blocks have size 3
        ("R", hamming_isometry((1, 1, 1), (0, 1, 2))),  # three matrices
    ], ids=["H-length", "H-rank", "R-size", "R-hamming"])
    def test_embedding_refusals(self, embed, g):
        iota = iota_H if embed == "H" else iota_R
        with pytest.raises(UnequalParts):
            iota(g, Partition.equal(3, 3))

    def test_lambda_signature(self):
        assert lambda_signature(Partition((3, 3, 3))) == (3,)
        assert lambda_signature(Partition((2, 2, 1))) == (2, 1)


class TestAutomorphisms:
    def test_shift_realizers_stabilize_csc_codes(self, tower9):
        from sumrank.bivar import BivarPoly, biv_mul
        from sumrank import code_from_skew_generator

        t = tower9
        g = biv_mul(
            BivarPoly.from_x_poly(t, "F", [1, 1]),
            BivarPoly.from_z_poly(t, "F", [1, 1]),
        )
        C = code_from_skew_generator(g, t)
        part = C.partition
        assert is_automorphism(rho_element(part), C)
        assert is_automorphism(phi_element(part, t), C)


class TestTinyScaleCompleteness:
    def test_gl2_f4_rank_preserver_count(self, tower4):
        t = tower4
        gl = general_linear_group(2, t.F)
        assert len(gl) == 180
        part = Partition.rank(2)
        preservers = 0
        vectors = [(a, b) for a in range(4) for b in range(4)]
        gf = t.F

        def apply(v, M):
            return tuple(
                gf.add(gf.mul(v[0], M[0][c]), gf.mul(v[1], M[1][c])) for c in range(2)
            )

        for M in gl:
            # F4-linear map on F4^2; does it preserve the rank weight over F2?
            ok = all(
                sumrank_weight(t, apply(v, M), part) == sumrank_weight(t, v, part)
                for v in vectors
            )
            preservers += ok
        assert preservers == 18  # |F4*| * |GL(2, F2)| = 3 * 6


class TestBlockDiagonalOracle:
    def test_matches_sumrank_distance(self, tower4):
        t = tower4
        part = Partition.equal(2, 2)
        rng = random.Random(61)
        done = 0
        while done < 10:
            k = rng.randrange(1, 3)
            rows = [[rng.randrange(4) for _ in range(4)] for _ in range(k)]
            C = LinearCode(t, rows, part)
            if C.k == 0:
                continue
            assert min_dist_via_block_diagonal(C) == min_distance_bruteforce(C)
            done += 1

    def test_zero_code(self, tower4):
        C = LinearCode(tower4, [], Partition.equal(2, 2))
        with pytest.raises(ZeroCode):
            min_dist_via_block_diagonal(C)
