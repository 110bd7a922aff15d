"""Hypothesis properties of the weights, the tower embeddings and the parsers.

Every property runs derandomized, so the examples are the same on each run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumrank import BivarPoly, Partition, SkewPoly, build_tower, sumrank_weight
from sumrank.cli import parse_bivar
from sumrank.errors import ParseError
from sumrank.skew import parse_coeff, parse_poly

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
