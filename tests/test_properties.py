"""Hypothesis properties of the weights, the tower embeddings, the parsers,
the defining-set tables and the distance under sum-rank isometries.

Every property runs derandomized, so the examples are the same on each run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumrank import (
    BivarPoly,
    LinearCode,
    Partition,
    SkewPoly,
    biv_mul,
    build_tower,
    ev_total,
    find_normal_element,
    nu_inverse,
    nu_map,
    primitive_ell_root,
    sumrank_weight,
)
from sumrank import bounds, linalg
from sumrank.bounds import DefiningSetView, grid_chains, grid_points
from sumrank.cli import CodeSpec, parse_bivar
from sumrank.codes import min_distance_bruteforce
from sumrank.errors import ParseError
from sumrank.isometry import SumRankIsometry, apply_to_code
from sumrank.product import corpus_f1, corpus_f2, product_code_from_polys, product_generator_poly
from sumrank.skew import norm_chain, parse_coeff, parse_poly

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)

# F2/F8/F4/F64 (the acceptance tower), odd p, and two towers with E != F_p
TOWERS = {
    spec: build_tower(*spec)
    for spec in [(2, 1, 3, 2, 3, 3), (5, 1, 2, 1, 4, 2), (2, 2, 2, 1, 3, 2), (3, 2, 2, 1, 4, 2)]
}
ROUTES = [("E", "F"), ("E", "K"), ("F", "L"), ("K", "L"), ("E", "L")]

towers = st.sampled_from(sorted(TOWERS)).map(TOWERS.get)


def elements(gf, nonzero=False):
    return st.integers(1 if nonzero else 0, gf.order - 1)


@PROPERTY
@given(st.data(), towers, st.sampled_from(["sumrank", "hamming", "rank"]))
def test_weights_invariant_under_F_scaling(data, t, metric):
    part = {
        "sumrank": Partition.equal(t.ell, t.N),
        "hamming": Partition.hamming(t.n),
        "rank": Partition.rank(t.n),
    }[metric]
    c = data.draw(st.lists(elements(t.F), min_size=t.n, max_size=t.n))
    a = data.draw(elements(t.F, nonzero=True))
    scaled = [t.F.mul(a, v) for v in c]
    assert sumrank_weight(t, scaled, part) == sumrank_weight(t, c, part)


@PROPERTY
@given(st.data(), towers, st.sampled_from(ROUTES))
def test_lift_is_a_ring_homomorphism(data, t, route):
    frm, to = route
    small, big = t.gf(frm), t.gf(to)
    a, b = data.draw(elements(small)), data.draw(elements(small))
    la, lb = t.lift(a, frm, to), t.lift(b, frm, to)
    assert t.lift(small.add(a, b), frm, to) == big.add(la, lb)
    assert t.lift(small.mul(a, b), frm, to) == big.mul(la, lb)


@PROPERTY
@given(st.data(), towers, st.sampled_from(["F", "L"]))
def test_skew_poly_string_round_trip(data, t, level):
    coeffs = data.draw(st.lists(elements(t.gf(level)), max_size=6))
    f = SkewPoly(t, level, tuple(coeffs))
    assert parse_poly(str(f), t, level, "z") == f.coeffs


@PROPERTY
@given(st.data(), towers, st.sampled_from(["F", "L"]))
def test_bivar_poly_string_round_trip(data, t, level):
    row = st.lists(elements(t.gf(level)), min_size=t.N, max_size=t.N)
    grid = data.draw(st.lists(row, min_size=t.ell, max_size=t.ell))
    g = BivarPoly.from_lists(t, level, grid)
    assert parse_bivar(str(g), t, level).coeffs == g.coeffs


@PROPERTY
@given(st.data(), towers, st.sampled_from("EFKL"), st.integers(0, 10**4))
def test_coefficient_tokens(data, t, level, k):
    gf = t.gf(level)
    v = data.draw(elements(gf))
    assert parse_coeff(f"g^{k}", gf) == gf.pow(gf.gen, k)
    assert parse_coeff(str(v), gf) == v
    with pytest.raises(ParseError):
        parse_coeff(str(gf.order + v), gf)


# a coprime tower, gcd(ell, m) = 2 and gcd(ell, m) = 3, with their corpora
GRID_TOWERS = {}
for spec in [(7, 1, 2, 1, 3, 2), (5, 1, 2, 1, 4, 2), (2, 1, 3, 2, 3, 3)]:
    t = build_tower(*spec)
    GRID_TOWERS[spec] = (t, corpus_f1(t), corpus_f2(t))


def ev_total_view(t, polys):
    """The oracle table: every pair evaluated on its own with `ev_total`."""
    return DefiningSetView.from_predicate(
        t, lambda av, bv: all(ev_total(f, av, bv) == 0 for f in polys)
    )


def generators(data, t, f1s, f2s):
    """f1 * f2 drawn from the corpora, and r * f1 * f2 with r random."""
    row = st.lists(elements(t.F), min_size=t.N, max_size=t.N)
    r = BivarPoly.from_lists(t, "F", data.draw(st.lists(row, min_size=t.ell, max_size=t.ell)))
    f1, f2 = data.draw(st.sampled_from(f1s)), data.draw(st.sampled_from(f2s))
    g = product_generator_poly(t, f1, f2)
    return g, biv_mul(r, g)


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(st.data(), st.sampled_from(sorted(GRID_TOWERS)))
def test_grid_table_matches_per_pair_evaluation(data, spec):
    t, f1s, f2s = GRID_TOWERS[spec]
    (p1, g1), (p2, g2) = generators(data, t, f1s, f2s), generators(data, t, f1s, f2s)
    for g in (g1, g2):
        assert DefiningSetView.from_generator(t, g).table == ev_total_view(t, [g]).table
    # a matrix spec's view holds the common zeros of its rows; the span of
    # two product generators has rows that vanish on different pairs
    code = LinearCode(t, [nu_inverse(p1), nu_inverse(p2)], Partition.equal(t.ell, t.N))
    rows = [nu_map(row, t) for row in code.G]
    if rows:
        assert CodeSpec(t, code).defining_view().table == ev_total_view(t, rows).table


@pytest.mark.parametrize("spec", sorted(GRID_TOWERS))
def test_grid_points_cached_per_tower(spec):
    t = GRID_TOWERS[spec][0]
    fresh = (primitive_ell_root(t), find_normal_element(t))
    assert grid_points(t) == fresh
    assert grid_points(build_tower(*spec)) is grid_points(t)


@pytest.mark.parametrize("spec", sorted(GRID_TOWERS))
def test_grid_chains_cached_per_tower(spec, monkeypatch):
    t, f1s, f2s = GRID_TOWERS[spec]
    a, beta = grid_points(t)
    L = t.L
    powers, columns = grid_chains(t)
    assert powers == tuple(tuple(L.pow(a, i * x) for x in range(t.ell)) for i in range(t.ell))
    point = L.div(t.sigma(beta), beta)
    assert [pt for pt, _ in columns] == [t.sigma(point, j) for j in range(t.m)]
    assert all(chain == norm_chain(t, "L", pt, t.N) for pt, chain in columns)
    assert grid_chains(build_tower(*spec)) is grid_chains(t)
    # one chain per column point and tower, however many tables are filled
    built = []
    monkeypatch.setattr(bounds, "norm_chain", lambda *args: built.append(args) or norm_chain(*args))
    grid_chains.cache_clear()
    for f1, f2 in [(f1s[0], f2s[0]), (f1s[1], f2s[-2]), (f1s[-2], f2s[1])]:
        DefiningSetView.from_generator(t, product_generator_poly(t, f1, f2))
    assert len(built) == t.m


# codes small enough for a direct weight scan (at most 625 codewords): the
# corpus products of dimension 1 to 3 on F8 and 1 to 2 on F25
SCAN_CODES = {}
for spec, k_max in [((2, 1, 3, 2, 3, 3), 3), ((5, 1, 2, 1, 4, 2), 2)]:
    t, f1s, f2s = GRID_TOWERS[spec]
    products = [product_code_from_polys(t, f1, f2).code for f1 in f1s for f2 in f2s]
    SCAN_CODES[spec] = [C for C in products if 1 <= C.k <= k_max]


def isometries(data, t):
    """A sum-rank isometry of ell blocks of size N: F* scalars, invertible
    matrices over E, a block permutation and a Frobenius power."""
    ell, N = t.ell, t.N
    square = st.lists(st.lists(elements(t.E), min_size=N, max_size=N), min_size=N, max_size=N)
    invertible = square.filter(lambda M: linalg.rank(M, t.E) == N)
    return SumRankIsometry(
        tuple(data.draw(st.lists(elements(t.F, nonzero=True), min_size=ell, max_size=ell))),
        tuple(tuple(map(tuple, data.draw(invertible))) for _ in range(ell)),
        tuple(data.draw(st.permutations(range(ell)))),
        data.draw(st.integers(0, t.F.deg - 1)),
    )


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(st.data(), st.sampled_from(sorted(SCAN_CODES)))
def test_distance_invariant_under_isometries(data, spec):
    t = GRID_TOWERS[spec][0]
    C = data.draw(st.sampled_from(SCAN_CODES[spec]))
    image = apply_to_code(isometries(data, t), C)
    scan = min(sumrank_weight(t, c, C.partition) for c in C.codewords() if any(c))
    assert min_distance_bruteforce(image) == min_distance_bruteforce(C) == scan
