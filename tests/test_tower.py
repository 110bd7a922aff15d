"""Field arithmetic and tower construction."""

import random

import pytest

from sumrank import build_tower, find_normal_element, is_normal, primitive_ell_root
from sumrank.bivar import _root_of_unity
from sumrank.bounds import grid_points
from sumrank.errors import (
    BlockLengthNotMultiple,
    DegreesNotCoprime,
    FieldTooLarge,
    InvalidParameter,
    NotPrime,
    RootsOfUnityAbsent,
)
from sumrank.gf import _digits, _undigits, field, find_embedding, is_prime
from sumrank.tower import FieldTower


class TestGF:
    def test_is_prime_matches_a_sieve(self):
        # every p that check_order lets through, and one past 2^16
        top = (1 << 16) + 1
        sieve = bytearray([0, 0]) + bytearray([1]) * (top - 1)
        for d in range(2, int(top**0.5) + 1):
            if sieve[d]:
                sieve[d * d :: d] = bytearray(len(range(d * d, top + 1, d)))
        assert [n for n in range(top + 1) if is_prime(n)] == [n for n in range(top + 1) if sieve[n]]
        assert is_prime(top) and not any(is_prime(n) for n in (-7, -2, -1, 0, 1, 4, 65535))

    def test_moduli_are_deterministic(self):
        # lexicographically smallest primitive moduli, as integer encodings
        assert field(2, 3).modulus_int() == 11  # x^3 + x + 1
        assert field(2, 2).modulus_int() == 7  # x^2 + x + 1
        assert field(2, 6).modulus_int() == 67  # x^6 + x + 1

    def test_field_axioms_randomized(self):
        import random

        rng = random.Random(11)
        gf = field(3, 2)
        for _ in range(300):
            a, b, c = (rng.randrange(gf.order) for _ in range(3))
            assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
            assert gf.add(a, gf.neg(a)) == 0
            if a:
                assert gf.mul(a, gf.inv(a)) == 1

    def test_frobenius_is_field_automorphism(self):
        gf = field(2, 6)
        for a in (1, 5, 37, 60):
            for b in (2, 9, 63):
                assert gf.frob(gf.mul(a, b), 2) == gf.mul(gf.frob(a, 2), gf.frob(b, 2))
                assert gf.frob(gf.add(a, b), 2) == gf.add(gf.frob(a, 2), gf.frob(b, 2))

    def test_embedding_preserves_arithmetic(self):
        small, big = field(2, 2), field(2, 6)
        img = find_embedding(small, big)
        # exhaustive check via powers of the generator image
        embedded = {0: 0, 1: 1}
        cur_s, cur_b = small.gen, img
        for _ in range(small.order - 2):
            embedded[cur_s] = cur_b
            cur_s = small.mul(cur_s, small.gen)
            cur_b = big.mul(cur_b, img)
        for a in range(small.order):
            for b in range(small.order):
                assert embedded[small.mul(a, b)] == big.mul(embedded[a], embedded[b])
                assert embedded[small.add(a, b)] == big.add(embedded[a], embedded[b])


class TestTowerConstruction:
    def test_acceptance_tower_shapes(self, tower9):
        t = tower9
        assert (t.E.order, t.F.order, t.K.order, t.L.order) == (2, 8, 4, 64)
        assert t.n == 9 and t.ell == 3 and t.m == 3 and t.N == 3

    def test_equality_and_hash_by_parameters(self, tower9):
        twin = FieldTower(2, 1, 3, 2, 3, 3)
        assert twin is not tower9 and twin == tower9
        assert hash(twin) == hash(tower9) == hash((2, 1, 3, 2, 3, 3))
        assert tower9 != build_tower(2, 1, 3, 2, 1, 3) and tower9 != (2, 1, 3, 2, 3, 3)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            build_tower(4, 1, 3, 2, 3, 3)

    def test_degrees_not_coprime(self):
        with pytest.raises(DegreesNotCoprime):
            build_tower(2, 1, 2, 2, 3, 2)

    def test_roots_of_unity_absent(self):
        # ell = 5 does not divide |K| - 1 = 3
        with pytest.raises(RootsOfUnityAbsent):
            build_tower(2, 1, 3, 2, 5, 3)

    def test_block_length_not_multiple(self):
        with pytest.raises(BlockLengthNotMultiple):
            build_tower(2, 1, 3, 2, 3, 4)

    @pytest.mark.parametrize("args, error", [
        ((4, 1, 3, 2, 3, 3), NotPrime),
        ((2, 1, 2, 2, 3, 2), DegreesNotCoprime),
        ((2, 1, 3, 2, 5, 3), RootsOfUnityAbsent),
        ((2, 1, 3, 2, 3, 4), BlockLengthNotMultiple),
        ((2, 1, 0, 1, 1, 1), InvalidParameter),
        ((2, 1, 3, 7, 1, 3), FieldTooLarge),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_constructor_validates(self, args, error):
        # no tower object skips the checks, however it is built
        with pytest.raises(error):
            FieldTower(*args)

    @pytest.mark.parametrize("args", [
        (2, 1, 3, 2, 2, 3), (2, 1, 3, 2, 6, 3), (3, 1, 2, 1, 3, 2), (3, 2, 2, 1, 6, 2),
        (5, 1, 2, 1, 5, 2), (7, 1, 2, 1, 14, 2),
    ], ids=str)
    def test_characteristic_dividing_ell_is_refused(self, args):
        # ell | |K| - 1 = p^(e*h) - 1, which p does not divide: no tower has p | ell
        with pytest.raises(RootsOfUnityAbsent):
            build_tower(*args)


class TestGaloisStructure:
    def test_sigma_order_and_fixed_field(self, tower9):
        t = tower9
        k_image = {t.lift(v, "K", "L") for v in range(t.K.order)}
        fixed = {v for v in range(t.L.order) if t.sigma(v) == v}
        assert fixed == k_image  # sigma fixes exactly K
        for v in (1, 2, 17, 63):
            assert t.sigma(t.sigma(t.sigma(v))) == v  # order 3

    def test_theta_fixed_field_is_E(self, tower9):
        t = tower9
        e_image = {t.lift(v, "E", "F") for v in range(t.E.order)}
        fixed = {v for v in range(t.F.order) if t.theta(v) == v}
        assert fixed == e_image

    def test_theta_is_fourth_power_on_F8(self, tower9):
        t = tower9
        for v in range(8):
            assert t.theta(v) == t.F.pow(v, 4)

    def test_primitive_root_and_normal_element(self, tower9):
        t = tower9
        a = primitive_ell_root(t)
        assert t.L.mult_order(a) == t.ell
        beta = find_normal_element(t)
        assert is_normal(t, beta)
        assert not is_normal(t, 1)  # 1 is never normal for m > 1

    @pytest.mark.parametrize("spec", [(2, 1, 3, 2, 3, 3), (2, 1, 3, 2, 1, 3), (5, 1, 2, 1, 4, 2),
                                      (2, 2, 2, 1, 3, 2), (2, 1, 3, 4, 15, 3)], ids=str)
    def test_grid_points_are_L_encodings(self, spec):
        t = build_tower(*spec)
        a, beta = primitive_ell_root(t), find_normal_element(t)
        assert (a, beta) == grid_points(t)
        _root_of_unity(t, a)  # raises NotRootOfUnity otherwise
        assert t.L.mult_order(a) == t.ell
        assert is_normal(t, beta)


# -- the former field-layer algorithms, kept as oracles ----------------------


class ScanGF:
    """The former table build: each candidate modulus is tested with its own
    walk of x (`_x_order`), then the winner is walked again to fill exp/log."""

    def __init__(self, p, deg):
        self.p, self.deg, self.order = p, deg, p**deg
        self.modulus = self._find_primitive_modulus()
        self._build_tables()

    # modulus encoded as digit list c_0..c_deg with c_deg = 1
    def _find_primitive_modulus(self):
        p, deg, order = self.p, self.deg, self.order
        for r in range(order):
            mod = _digits(r, p, deg) + [1]
            if self._x_order(mod) == order - 1:
                return mod
        raise AssertionError("no primitive polynomial found")

    def _x_order(self, mod) -> int:
        """Multiplicative order of x modulo `mod`, or 0 if x is not a unit."""
        p, deg, order = self.p, self.deg, self.order
        val = [0] * deg
        val[0] = 1
        for step in range(1, order):
            # multiply by x, reduce by mod
            lead = val[deg - 1]
            val = [0] + val[: deg - 1]
            if lead:
                for i in range(deg):
                    val[i] = (val[i] - lead * mod[i]) % p
            if all(v == 0 for v in val):
                return 0
            if val[0] == 1 and all(v == 0 for v in val[1:]):
                return step
        return 0

    def _build_tables(self):
        p, deg, order = self.p, self.deg, self.order
        mod = self.modulus
        exp = [0] * max(order - 1, 1)
        log = [0] * order
        val = [0] * deg
        val[0] = 1
        for i in range(order - 1):
            enc = _undigits(val, p)
            exp[i] = enc
            log[enc] = i
            lead = val[deg - 1]
            val = [0] + val[: deg - 1]
            if lead:
                for j in range(deg):
                    val[j] = (val[j] - lead * mod[j]) % p
        self.exp = exp
        self.log = log
        self.gen = exp[1] if order > 2 else 1


def digit_add(gf, a: int, b: int) -> int:
    """The former `GF.add`: digit-wise sums mod p."""
    da = _digits(a, gf.p, gf.deg)
    db = _digits(b, gf.p, gf.deg)
    return _undigits([(x + y) % gf.p for x, y in zip(da, db)], gf.p)


def digit_neg(gf, a: int) -> int:
    """The former `GF.neg`: digit-wise negation mod p."""
    da = _digits(a, gf.p, gf.deg)
    return _undigits([(-x) % gf.p for x in da], gf.p)


def scan_find_embedding(small, big) -> int:
    """The former `find_embedding`: scans all of `big` for a root."""
    if small.order == big.order:
        return big.gen if small.order > 2 else 1
    coeffs = [c % big.p for c in small.modulus]
    for a in range(big.order):
        if big.poly_eval(coeffs, a) == 0:
            return a
    raise AssertionError(f"{small} does not embed in {big}")


def embed_elem(small, big, image_of_gen: int, a: int) -> int:
    """Map an element of `small` into `big` along the chosen embedding."""
    digs = _digits(a, small.p, small.deg)
    acc = 0
    for d in reversed(digs):
        acc = big.add(big.mul(acc, image_of_gen), d)
    return acc


def horner_lift(t, val, frm, to):
    """The former `FieldTower.lift`: Horner on the digits of `val`, with E -> L
    routed through F."""
    if (frm, to) == ("E", "L"):
        return horner_lift(t, horner_lift(t, val, "E", "F"), "F", "L")
    small, big = t.gf(frm), t.gf(to)
    return embed_elem(small, big, scan_find_embedding(small, big), val)


ROUTES = [("E", "F"), ("E", "K"), ("F", "L"), ("K", "L"), ("E", "L")]
ORACLE_TOWERS = [
    (2, 1, 3, 2, 3, 3),
    (5, 1, 2, 1, 4, 2),
    (2, 2, 2, 1, 3, 2),
    (3, 2, 2, 1, 4, 2),
    (2, 2, 3, 2, 3, 3),
]


@pytest.mark.parametrize(
    "p,deg",
    [(2, d) for d in range(1, 11)]
    + [(3, d) for d in range(1, 7)]
    + [(5, d) for d in range(1, 5)]
    + [(7, d) for d in range(1, 4)]
    + [(11, 2), (13, 2)],
)
def test_table_walk_matches_scan(p, deg):
    new, old = field(p, deg), ScanGF(p, deg)
    assert (new.modulus, new.exp, new.log, new.gen) == (old.modulus, old.exp, old.log, old.gen)


@pytest.mark.parametrize(
    "p,deg,modulus,gen",
    [
        (2, 12, 4179, 2),
        (2, 15, 32771, 2),
        (2, 16, 65581, 2),
        (3, 10, 59081, 3),
        (7, 5, 16818, 7),
        (13, 4, 28745, 13),
        (251, 2, 63271, 251),
        (65521, 1, 65538, 65504),
    ],
)
def test_large_field_moduli(p, deg, modulus, gen):
    """Fields too large for the ScanGF oracle keep the moduli its walk found."""
    gf = field(p, deg)
    assert (gf.modulus_int(), gf.gen) == (modulus, gen)


@pytest.mark.parametrize("spec", ORACLE_TOWERS, ids=str)
class TestTowerMatchesOracles:
    def test_embedding_images_match_full_scan(self, spec):
        t = build_tower(*spec)
        for frm, to in ROUTES[:4]:
            assert find_embedding(t.gf(frm), t.gf(to)) == scan_find_embedding(t.gf(frm), t.gf(to))

    def test_power_lift_matches_horner(self, spec):
        t = build_tower(*spec)
        for frm, to in ROUTES:
            for v in range(t.gf(frm).order):
                assert t.lift(v, frm, to) == horner_lift(t, v, frm, to)

    def test_routes_commute(self, spec):
        t = build_tower(*spec)
        for v in range(t.E.order):
            assert t.lift(t.lift(v, "E", "K"), "K", "L") == t.lift(v, "E", "L")


@pytest.mark.parametrize("p,deg", [
    (3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (11, 2),
    (2, 1), (2, 3), (2, 4), (2, 6),  # add and sub bound to XOR
])
def test_zech_arithmetic_matches_digits_on_all_pairs(p, deg):
    gf = field(p, deg)
    for a in range(gf.order):
        assert gf.neg(a) == digit_neg(gf, a)
        for b in range(gf.order):
            assert gf.add(a, b) == digit_add(gf, a, b)
            assert gf.sub(a, b) == digit_add(gf, a, digit_neg(gf, b))


@pytest.mark.parametrize("p,deg", [(3, 10), (13, 2)])
def test_zech_arithmetic_matches_digits_on_a_sample(p, deg):
    gf = field(p, deg)
    rng = random.Random(p * 100 + deg)
    # the zero element and the sums to zero are the edge cases of the tables
    pairs = [(0, 0), (1, 0), (0, 1), (1, gf.neg(1))]
    for _ in range(3000):
        a = rng.randrange(gf.order)
        pairs += [(a, rng.randrange(gf.order)), (a, digit_neg(gf, a))]
    for a, b in pairs:
        assert gf.neg(a) == digit_neg(gf, a)
        assert gf.add(a, b) == digit_add(gf, a, b)
        assert gf.sub(a, b) == digit_add(gf, a, digit_neg(gf, b))
