"""Skew polynomial arithmetic, right division, and the evaluation maps."""

import random

import pytest

from sumrank import build_tower
from sumrank.errors import DivisionByZero, ZeroBeta
from sumrank.poly import format_terms
from sumrank.skew import (
    SkewPoly,
    ev_beta,
    norm_chain,
    parse_poly,
    right_divide,
    right_divides,
    right_evaluate,
    right_evaluate_by_division,
    sigma_eval,
    skew_mul,
)


def _rand_poly(t, rng, level="F", maxdeg=4):
    gf = t.gf(level)
    deg = rng.randrange(maxdeg + 1)
    coeffs = [rng.randrange(gf.order) for _ in range(deg)] + [
        rng.randrange(1, gf.order)
    ]
    return SkewPoly(t, level, tuple(coeffs))


def reference_to_string(f: SkewPoly, var: str = "z") -> str:
    """The renderer SkewPoly printed through before `poly.format_terms`."""
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


def _sparse_poly(t, rng, level):
    """Up to 6 coefficients, many of them 0 or 1, with trailing zeros."""
    gf = t.gf(level)
    pick = [0, 0, 1, 1, None]
    coeffs = [rng.choice(pick) for _ in range(rng.randrange(7))]
    coeffs = [rng.randrange(gf.order) if c is None else c for c in coeffs]
    return SkewPoly(t, level, tuple(coeffs + [0] * rng.randrange(3)))


# F8 over F2, and F9 over F3 where subtraction is not addition
TOWERS = [(2, 1, 3, 2, 3, 3), (3, 1, 2, 1, 2, 2)]


class TestArithmetic:
    def test_twisted_product_example(self, tower4):
        # (z + 1)(z + w) = w + w z + z^2 over F4 with theta = squaring
        f = SkewPoly(tower4, "F", (1, 1))
        g = SkewPoly(tower4, "F", (2, 1))
        assert skew_mul(f, g).coeffs == (2, 2, 1)

    def test_noncommutative(self, tower4):
        f = SkewPoly(tower4, "F", (0, 1))  # z
        g = SkewPoly(tower4, "F", (2,))  # w
        assert skew_mul(f, g).coeffs != skew_mul(g, f).coeffs

    def test_associativity_randomized(self, tower9):
        rng = random.Random(5)
        for _ in range(100):
            f, g, h = (_rand_poly(tower9, rng, maxdeg=3) for _ in range(3))
            assert skew_mul(skew_mul(f, g), h).coeffs == skew_mul(f, skew_mul(g, h)).coeffs


class TestSubtraction:
    @pytest.mark.parametrize("spec", TOWERS, ids=str)
    @pytest.mark.parametrize("level", ["F", "L"])
    def test_sub_undoes_add(self, spec, level):
        t = build_tower(*spec)
        gf = t.gf(level)
        rng = random.Random(repr((spec, level)))
        for _ in range(60):
            f, g = _sparse_poly(t, rng, level), _sparse_poly(t, rng, level)
            d = f - g
            assert (d + g).coeffs == f.coeffs
            assert (f - f).is_zero()
            n = max(len(f.coeffs), len(g.coeffs))
            expect = [gf.sub(f.coeff(i), g.coeff(i)) for i in range(n)]
            assert d == SkewPoly(t, level, tuple(expect))

    def test_odd_characteristic_example(self):
        t = build_tower(3, 1, 2, 1, 2, 2)
        one, two = SkewPoly.one(t), SkewPoly(t, "F", (t.F.neg(1),))
        assert (SkewPoly.zero(t) - one) == two and (one - two).coeffs == (t.F.add(1, 1),)


class TestPrinting:
    def test_exact_strings(self, tower9):
        def s(*coeffs):
            return str(SkewPoly(tower9, "F", coeffs))

        assert s() == s(0, 0) == "0"
        assert s(1) == "1" and s(5) == "5"
        assert s(0, 1) == "z" and s(0, 3) == "3*z"
        assert s(1, 1, 0, 1) == "1 + z + z^3"
        assert s(2, 0, 7, 0) == "2 + 7*z^2"

    @pytest.mark.parametrize("spec", TOWERS, ids=str)
    @pytest.mark.parametrize("level", ["F", "L"])
    def test_matches_reference_renderer(self, spec, level):
        t = build_tower(*spec)
        rng = random.Random(repr((spec, level, "str")))
        for _ in range(200):
            f = _sparse_poly(t, rng, level)
            assert str(f) == reference_to_string(f)

    def test_format_terms(self):
        assert format_terms([]) == "0"
        assert format_terms([(0, (("x", 1),)), (0, ())]) == "0"
        assert format_terms([(1, ()), (1, (("x", 0), ("z", 0)))]) == "1 + 1"
        terms = [(4, (("x", 0), ("z", 1))), (1, (("x", 2), ("z", 1))), (3, (("x", 1), ("z", 3)))]
        assert format_terms(terms) == "4*z + x^2*z + 3*x*z^3"


class TestDivision:
    def test_frozen_division_values(self, tower4):
        p = SkewPoly(tower4, "F", (2, 2, 1))
        q, r = right_divide(p, SkewPoly(tower4, "F", (1, 1)))
        assert (q.coeffs, r.coeffs) == ((3, 1), (1,))
        q, r = right_divide(p, SkewPoly(tower4, "F", (2, 1)))
        assert (q.coeffs, r.coeffs) == ((1, 1), ())

    def test_division_identity_randomized(self, tower9):
        rng = random.Random(7)
        for _ in range(300):
            f = _rand_poly(tower9, rng, maxdeg=5)
            g = _rand_poly(tower9, rng, maxdeg=3)
            q, r = right_divide(f, g)
            assert (skew_mul(q, g) + r).coeffs == f.coeffs
            assert r.degree < g.degree

    def test_divide_by_zero(self, tower9):
        f = SkewPoly(tower9, "F", (1, 1))
        with pytest.raises(DivisionByZero):
            right_divide(f, SkewPoly.zero(tower9))

    def test_right_divides(self, tower4):
        p = SkewPoly(tower4, "F", (2, 2, 1))
        assert right_divides(SkewPoly(tower4, "F", (2, 1)), p)
        assert not right_divides(SkewPoly(tower4, "F", (1, 1)), p)

    def test_zero_right_divides_only_zero(self, tower9):
        zero, f = SkewPoly.zero(tower9), SkewPoly(tower9, "F", (1, 1))
        assert right_divides(zero, zero) and right_divides(f, zero)
        assert not right_divides(zero, f)
        assert not right_divides(zero, SkewPoly.z_pow_minus_one(tower9, 3))


class TestEvaluation:
    def test_remainder_equals_norm_chain(self, tower9):
        rng = random.Random(9)
        t = tower9
        for _ in range(300):
            f = _rand_poly(t, rng, level="L", maxdeg=5)
            a = rng.randrange(t.L.order)
            assert right_evaluate(f, a) == right_evaluate_by_division(f, a)
            # a chain passed in, as the defining-set table does, longer than f
            chain = norm_chain(t, "L", a, 7)
            assert right_evaluate(f, a, chain) == right_evaluate_by_division(f, a)

    def test_frozen_eval_values(self, tower4):
        p = SkewPoly(tower4, "F", (2, 2, 1))
        assert right_evaluate(p, 1) == 1
        assert right_evaluate(p, 2) == 0
        assert sigma_eval(p, 2) == 0

    def test_ev_beta_matches_right_eval_at_conjugate(self, tower9):
        rng = random.Random(13)
        t = tower9
        for _ in range(200):
            f = _rand_poly(t, rng, level="L", maxdeg=4)
            beta = rng.randrange(1, t.L.order)
            point = t.L.div(t.sigma(beta), beta)
            assert ev_beta(f, beta) == right_evaluate(f, point)

    def test_ev_beta_zero_beta(self, tower9):
        f = SkewPoly(tower9, "L", (1, 1))
        with pytest.raises(ZeroBeta):
            ev_beta(f, 0)


class TestParsing:
    def test_parse_round_trip(self, tower9):
        assert parse_poly("z^2 + g*z + 1", tower9, "F", "z") == (1, 2, 1)
        assert parse_poly("0", tower9, "F", "z") == ()
        assert parse_poly("3", tower9, "F", "z") == (3,)

    def test_parse_minus_in_odd_characteristic(self):
        from sumrank import build_tower

        t = build_tower(3, 1, 2, 1, 2, 2)
        # -1 = 2 in F3-subfield encodings of F9
        assert parse_poly("z - 1", t, "F", "z") == (t.F.neg(1), 1)
