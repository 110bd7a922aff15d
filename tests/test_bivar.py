"""The bivariate quotient ring and the total evaluation maps."""

import random

import pytest

from sumrank.bivar import (
    BivarPoly,
    biv_mul,
    ev_az,
    ev_total,
    nu_inverse,
    nu_map,
    psi_map,
)
from sumrank import build_tower
from sumrank.errors import LengthMismatch, NotRootOfUnity
from sumrank.skew import skew_mul
from sumrank.tower import primitive_ell_root


def _rand_bivar(t, rng, level="F"):
    gf = t.gf(level)
    grid = [
        [rng.randrange(gf.order) for _ in range(t.N)] for _ in range(t.ell)
    ]
    return BivarPoly.from_lists(t, level, grid)


def reference_str(g: BivarPoly) -> str:
    """The renderer BivarPoly printed through before `poly.format_terms`."""
    terms = []
    for i, row in enumerate(g.coeffs):
        for j, c in enumerate(row):
            if c == 0:
                continue
            mono = []
            if i:
                mono.append("x" if i == 1 else f"x^{i}")
            if j:
                mono.append("z" if j == 1 else f"z^{j}")
            if not mono:
                terms.append(str(c))
            elif c == 1:
                terms.append("*".join(mono))
            else:
                terms.append("*".join([str(c)] + mono))
    return " + ".join(terms) if terms else "0"


class TestPrinting:
    def test_exact_strings(self, tower9):
        def s(cells):
            grid = [[0] * 3 for _ in range(3)]
            for (i, j), c in cells.items():
                grid[i][j] = c
            return str(BivarPoly.from_lists(tower9, "F", grid))

        assert s({}) == "0" and s({(0, 0): 1}) == "1" and s({(0, 0): 6}) == "6"
        assert s({(0, 1): 1, (1, 0): 1, (1, 1): 1}) == "z + x + x*z"
        assert s({(0, 2): 5, (2, 0): 1, (2, 2): 3}) == "5*z^2 + x^2 + 3*x^2*z^2"

    @pytest.mark.parametrize("spec", [(2, 1, 3, 2, 3, 3), (3, 1, 2, 1, 2, 2)], ids=str)
    @pytest.mark.parametrize("level", ["F", "L"])
    def test_matches_reference_renderer(self, spec, level):
        t = build_tower(*spec)
        gf = t.gf(level)
        rng = random.Random(repr((spec, level)))
        for _ in range(200):
            pick = rng.choice([[0], [0, 1], [0, 0, 1, None], [None]])
            grid = [
                [rng.randrange(gf.order) if c is None else c for c in
                 (rng.choice(pick) for _ in range(t.N))]
                for _ in range(t.ell)
            ]
            g = BivarPoly.from_lists(t, level, grid)
            assert str(g) == reference_str(g)


class TestRingStructure:
    def test_x_is_central(self, tower9):
        t = tower9
        x = BivarPoly.monomial(t, "F", 1, 0)
        rng = random.Random(3)
        for _ in range(50):
            f = _rand_bivar(t, rng)
            assert biv_mul(x, f).coeffs == biv_mul(f, x).coeffs

    def test_z_twists_coefficients(self, tower9):
        t = tower9
        z = BivarPoly.monomial(t, "F", 0, 1)
        c = BivarPoly.monomial(t, "F", 0, 0, 3)
        # z * c = theta(c) * z
        assert biv_mul(z, c).coeffs[0][1] == t.theta(3)

    def test_associativity_randomized(self, tower9):
        rng = random.Random(31)
        for _ in range(50):
            f, g, h = (_rand_bivar(tower9, rng) for _ in range(3))
            assert biv_mul(biv_mul(f, g), h).coeffs == biv_mul(f, biv_mul(g, h)).coeffs

    def test_nu_mu_inverse_roundtrip(self, tower9):
        rng = random.Random(17)
        t = tower9
        vec = tuple(rng.randrange(8) for _ in range(9))
        assert nu_inverse(nu_map(vec, t)) == vec

    @pytest.mark.parametrize("length", [0, 8, 10])
    def test_nu_map_length_mismatch(self, tower9, length):
        with pytest.raises(LengthMismatch):
            nu_map((1,) * length, tower9)

    @pytest.mark.parametrize("grid", [
        [[1, 0, 0], [0, 0, 0]],  # two rows for ell = 3
        [[1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]],  # four rows
        [[1, 0], [0, 0], [0, 0]],  # rows of two for N = 3
        [[1, 0, 0], [0, 0, 0], [0, 0, 0, 0]],  # one long row
    ], ids=["short", "long", "narrow", "ragged"])
    def test_grid_shape_mismatch(self, tower9, grid):
        with pytest.raises(LengthMismatch):
            BivarPoly.from_lists(tower9, "F", grid)


class TestEvaluation:
    def test_ev_az_is_ring_homomorphism(self, tower9):
        t = tower9
        a = primitive_ell_root(t)
        rng = random.Random(23)
        for _ in range(200):
            f, g = _rand_bivar(t, rng), _rand_bivar(t, rng)
            lhs = ev_az(biv_mul(f, g), a)
            rhs = skew_mul(ev_az(f, a), ev_az(g, a))
            # compare modulo z^N - 1
            from sumrank.skew import reduce_mod_zN

            assert reduce_mod_zN(lhs).coeffs == reduce_mod_zN(rhs).coeffs

    def test_ev_az_rejects_non_root(self, tower9):
        f = BivarPoly.one(tower9)
        with pytest.raises(NotRootOfUnity):
            ev_az(f, 5)  # 5 in L is not an ell-th root of unity fixed by sigma

    def test_unit_has_no_zeros(self, tower9):
        t = tower9
        one = BivarPoly.one(t)
        a = primitive_ell_root(t)
        for i in range(t.ell):
            for beta in (1, 2, 63):
                assert ev_total(one, t.L.pow(a, i), beta) != 0

    def test_x_factor_annihilates(self, tower9):
        # g = x - a_elt vanishes at x := a_elt for every beta
        t = tower9
        a = primitive_ell_root(t)
        # build (x + a) over L directly (char 2)
        grid = [[0] * t.N for _ in range(t.ell)]
        grid[0][0] = a
        grid[1][0] = 1
        g = BivarPoly.from_lists(t, "L", grid)
        for beta in (1, 2, 17, 63):
            assert ev_total(g, a, beta) == 0
        assert ev_total(g, t.L.pow(a, 2), 1) != 0


class TestPsiMap:
    def test_psi_shifts_and_scales(self, tower9):
        t = tower9
        a = primitive_ell_root(t)
        rng = random.Random(41)
        c = tuple(rng.randrange(t.L.order) for _ in range(9))
        out = psi_map(c, t, a, 1, 2)
        for i in range(3):
            scale = t.L.pow(a, i * 2)
            for j in range(3):
                assert out[i * 3 + j] == t.L.mul(t.sigma(c[i * 3 + j], 1), scale)
