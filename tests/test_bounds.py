"""Defining sets, the three bound checkers, the search, and the rank oracles."""

import json
import random
import sys
from math import gcd

import pytest

from sumrank import (
    build_tower,
    code_from_skew_generator,
    find_normal_element,
    min_distance_bruteforce,
    primitive_ell_root,
)
from sumrank import bounds
from sumrank.bivar import BivarPoly, biv_mul
from sumrank.bounds import (
    CHECKERS,
    BoundCertificate,
    BoundParams,
    DefiningSetView,
    SearchLimits,
    _require_checkable,
    _units,
    bch_check,
    best_bound_search,
    ht_check,
    lrs_generator_matrix,
    roos_check,
    selection_rank_oracle,
)
from sumrank.errors import (
    GridNotContained,
    NotNormal,
    NotPrimitive,
    ParseError,
    PreconditionViolated,
    SelectionTooSmall,
    ZeroCode,
)
from sumrank import linalg
from sumrank.product import (
    corpus_f1,
    corpus_f2,
    factor_distances,
    product_code_from_polys,
    product_generator_poly,
)
from sumrank.skew import SkewPoly


@pytest.fixture(scope="module")
def example(tower9):
    """The product code generated by f1 = x^2+x+1, f2 = z+1 (k = 2, d = 3)."""
    t = tower9
    g = product_generator_poly(t, (1, 1, 1), SkewPoly(t, "F", (1, 1)))
    C = code_from_skew_generator(g, t)
    D = DefiningSetView.from_generator(t, g)
    return t, g, C, D


class TestDefiningSet:
    def test_x_factor_annihilates_for_all_beta(self, tower9):
        t = tower9
        a = primitive_ell_root(t)
        grid = [[0] * t.N for _ in range(t.ell)]
        grid[0][0] = a
        grid[1][0] = 1  # g = x + a over L
        D = DefiningSetView.from_generator(t, BivarPoly.from_lists(t, "L", grid))
        for j in range(t.m):
            assert D.grid_member(1, j)  # a^1 is the root of x + a

    def test_unit_generator_empty_set(self, tower9):
        D = DefiningSetView.from_generator(tower9, BivarPoly.one(tower9))
        assert not any(v for row in D.grid_table() for v in row)

    def test_grid_reduction(self, example):
        _, _, _, D = example
        assert D.grid_member(0, 0) == D.grid_member(3, 3)


class TestCheckers:
    def test_delta_one_always_succeeds(self, example):
        _, _, C, D = example
        cert = bch_check(D, BoundParams("bch", 0, 1, t=1), C.code_id())
        assert cert.bound == 1 and cert.grid == ()

    def test_bch_on_example(self, example):
        _, _, C, D = example
        cert = bch_check(D, BoundParams("bch", 1, 3, t=1), C.code_id())
        assert cert.bound == 3
        assert cert.grid == ((1, 0), (2, 1))
        assert cert.bound <= min_distance_bruteforce(C)

    def test_missing_pair_reported(self, example):
        _, _, _, D = example
        with pytest.raises(GridNotContained) as err:
            bch_check(D, BoundParams("bch", 0, 3, t=1))
        assert "(0, 0)" in str(err.value)

    def test_bch_bad_step(self, example):
        _, _, _, D = example
        with pytest.raises(PreconditionViolated):
            bch_check(D, BoundParams("bch", 0, 2, t=3))  # gcd(9, 3) != 1

    def test_roos_window_violation(self, example):
        _, _, _, D = example
        with pytest.raises(PreconditionViolated):
            roos_check(D, BoundParams("roos", 0, 2, r=1, s=1, ks=(0, 5)))

    def test_ht_t2_gcd_violation(self, example):
        _, _, _, D = example
        with pytest.raises(PreconditionViolated):
            ht_check(D, BoundParams("ht", 0, 2, r=1, t1=1, t2=3))  # gcd(9,3)=3 >= 2

    @pytest.mark.parametrize("params", [
        BoundParams("roos", 0, 0, r=0, s=1, ks=(0,)),
        BoundParams("ht", 0, 0, r=0, t1=1, t2=1),
        BoundParams("bch", 0, 0),  # before the missing step is named
    ], ids=["roos", "ht", "bch"])
    def test_delta_below_one_named(self, example, params):
        # checked first, as the window and gcd(n, t2) hypotheses assume it
        _, _, _, D = example
        with pytest.raises(PreconditionViolated) as err:
            CHECKERS[params.kind](D, params)
        assert err.value.which == "delta >= 1"

    @pytest.mark.parametrize("params, name", [
        (BoundParams("bch", 0, 0, s=1), "s"),
        (BoundParams("ht", 0, 0, t=1), "t"),
        (BoundParams("roos", 0, 0, t2=1), "t2"),
    ], ids=["bch", "ht", "roos"])
    def test_unread_field_named_before_delta(self, example, params, name):
        # one delta check, after the unread fields, in every family
        _, _, _, D = example
        with pytest.raises(PreconditionViolated) as err:
            CHECKERS[params.kind](D, params)
        assert err.value.which == f"a {params.kind} certificate does not read {name}"

    @pytest.mark.parametrize("params, name", [
        (BoundParams("bch", 1, 3, t=1, r=5), "r"),
        (BoundParams("bch", 1, 3, t=1, s=3), "s"),
        (BoundParams("bch", 1, 3, t=1, ks=(0, 9)), "ks"),
        (BoundParams("bch", 1, 3, t=1, t1=1), "t1"),
        (BoundParams("ht", 1, 2, r=1, t1=1, t2=1, t=1), "t"),
        (BoundParams("ht", 1, 2, r=1, t1=1, t2=1, s=1), "s"),
        (BoundParams("ht", 1, 2, r=1, t1=1, t2=1, ks=(0, 1)), "ks"),
        (BoundParams("roos", 1, 2, r=1, s=1, ks=(0, 1), t=1), "t"),
        (BoundParams("roos", 1, 2, r=1, s=1, ks=(0, 1), t2=1), "t2"),
    ], ids=lambda v: v if isinstance(v, str) else v.kind)
    def test_unread_field_refused(self, example, params, name):
        # each family checks only its own fields, so another one would be
        # echoed back as if it had been checked
        _, _, _, D = example
        with pytest.raises(PreconditionViolated) as err:
            CHECKERS[params.kind](D, params)
        assert err.value.which == f"a {params.kind} certificate does not read {name}"

    def test_repeated_pairs_rejected(self, tower9):
        # with ell = m = 3 a step-pattern repeats pairs every 3 exponents;
        # an all-member predicate isolates the distinctness check
        D = DefiningSetView.from_predicate(tower9, lambda a, b: True)
        with pytest.raises(PreconditionViolated):
            bch_check(D, BoundParams("bch", 1, 5, t=1))

    def test_ht_r0_equals_bch(self, example):
        _, _, C, D = example
        b = ht_check(D, BoundParams("ht", 1, 3, r=0, t1=1, t2=1), C.code_id())
        c = bch_check(D, BoundParams("bch", 1, 3, t=1), C.code_id())
        assert b.bound == c.bound and b.grid == c.grid

    def test_roos_matches_ht_on_shared_instances(self, example):
        _, _, C, D = example
        # k_j = j * t2 with t2 = 1
        h = ht_check(D, BoundParams("ht", 1, 2, r=1, t1=1, t2=1), C.code_id())
        r = roos_check(D, BoundParams("roos", 1, 2, r=1, s=1, ks=(0, 1)), C.code_id())
        assert h.bound == r.bound
        assert sorted(h.grid) == sorted(r.grid)

    def test_certificate_dict_round_trip(self, example):
        _, _, C, D = example
        for p in (
            BoundParams("bch", 1, 3, t=1),
            BoundParams("ht", 1, 2, r=1, t1=1, t2=1),
            BoundParams("roos", 1, 2, r=1, s=1, ks=(0, 1)),
        ):
            cert = CHECKERS[p.kind](D, p, C.code_id())
            assert BoundCertificate.from_dict(json.loads(cert.to_json())) == cert

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.pop("grid"),
            lambda d: d["params"].pop("delta"),
            lambda d: d["params"].update(kind="gv"),
            lambda d: d["params"].update(t=True),
            lambda d: d["params"].update(delta=3.0),
            lambda d: d.update(grid=[[1, 0, 0]]),
            lambda d: d.update(bound="3"),
        ],
    )
    def test_certificate_dict_rejected(self, example, edit):
        _, _, C, D = example
        data = bch_check(D, BoundParams("bch", 1, 3, t=1), C.code_id()).as_dict()
        edit(data)
        with pytest.raises(ParseError):
            BoundCertificate.from_dict(data)


class TestSearch:
    def test_search_on_example_is_tight(self, example):
        _, _, C, D = example
        cert = best_bound_search(D, code_id=C.code_id())
        assert cert.bound == 3 == min_distance_bruteforce(C)

    def test_full_space_bound_one(self, tower9):
        D = DefiningSetView.from_generator(tower9, BivarPoly.one(tower9))
        assert best_bound_search(D).bound == 1

    def test_zero_generator_rejected(self, tower9):
        D = DefiningSetView.from_generator(tower9, BivarPoly.zero(tower9))
        with pytest.raises(ZeroCode):
            best_bound_search(D)

    @pytest.mark.parametrize("params", [
        BoundParams("bch", 0, 4, t=1),
        BoundParams("ht", 0, 2, r=1, t1=1, t2=1),
        BoundParams("roos", 0, 2, r=1, s=1, ks=(0, 1)),
    ], ids=lambda p: p.kind)
    def test_zero_generator_rejected_by_checkers(self, tower9, params):
        D = DefiningSetView.from_generator(tower9, BivarPoly.zero(tower9))
        with pytest.raises(ZeroCode):
            CHECKERS[params.kind](D, params)

    def test_limits_respected(self, example):
        _, _, _, D = example
        cert = best_bound_search(D, SearchLimits(delta_max=2, r_max=0))
        assert cert.bound <= 2

    def test_corpus_soundness_sample(self, tower9, corpus):
        # full-corpus soundness lives in the acceptance suite; spot-check here
        t = tower9
        f1s, f2s = corpus
        rng = random.Random(3)
        for _ in range(8):
            f1 = rng.choice(f1s)
            f2 = rng.choice(f2s)
            g = product_generator_poly(t, f1, f2)
            C = code_from_skew_generator(g, t)
            if C.k == 0:
                continue
            cert = best_bound_search(DefiningSetView.from_generator(t, g))
            assert cert.bound <= min_distance_bruteforce(C)


def reference_search(D, limits=SearchLimits(), code_id=""):
    """The exhaustive search: every Roos offset subset by a mask loop."""
    t = D.tower
    _require_checkable(D)
    n = t.n
    dmax = n if limits.delta_max is None else limits.delta_max
    rmax = n if limits.r_max is None else limits.r_max
    units = _units(n)
    best = None  # (bound, kind_idx, param_sort_key, BoundParams)

    def consider(bound, kind_idx, params):
        nonlocal best
        if best is None or bound > best[0] or (
            bound == best[0] and (kind_idx, params_sort_key(params)) < (best[1], best[2])
        ):
            best = (bound, kind_idx, params_sort_key(params), params)

    def params_sort_key(p: BoundParams):
        return (
            p.b,
            p.delta,
            p.t if p.t is not None else -1,
            p.t1 if p.t1 is not None else -1,
            p.t2 if p.t2 is not None else -1,
            p.s if p.s is not None else -1,
            p.ks if p.ks is not None else (),
        )

    # Everything below tracks pairs through the exponent e: with the grid
    # pair at ((b + e) mod ell, e mod m), two exponents hit the same pair
    # exactly when they agree modulo lcm(ell, m).  Membership and pairwise
    # distinctness are therefore lookups on e mod n and e mod lcm.
    lc = (t.ell * t.m) // gcd(t.ell, t.m)

    consider(1, 0, BoundParams("bch", 0, 1, t=1))
    for b in range(n):
        memb = [D.grid_member(b + e, e) for e in range(n)]

        # bch: grow the progression while new pairs are members and fresh
        for step in units:
            seen = set()
            delta = 1
            while delta - 1 <= dmax - 2:
                e = ((delta - 1) * step) % n
                if not memb[e] or e % lc in seen:
                    break
                seen.add(e % lc)
                delta += 1
            if delta >= 2:
                consider(delta, 0, BoundParams("bch", b, delta, t=step))

        for step in units:
            for delta in range(2, dmax + 1):
                base = [(step * i) % n for i in range(delta - 1)]
                base_res = {e % lc for e in base}
                if not all(memb[e] for e in base) or len(base_res) != delta - 1:
                    continue
                good = [
                    k for k in range(n)
                    if all(memb[(e + k) % n] for e in base)
                ]
                if 0 not in good:
                    continue

                # ht: extend by columns k = s*t2 while fresh and member
                for t2 in range(1, n):
                    if gcd(n, t2) >= delta:
                        continue
                    seen = set(base_res)
                    r = 0
                    while r + 1 <= rmax:
                        k = ((r + 1) * t2) % n
                        new = {(e + k) % lc for e in base}
                        if k not in good or len(new) != delta - 1 or (seen & new):
                            break
                        seen |= new
                        r += 1
                    if r >= 1:
                        consider(
                            delta + r, 1,
                            BoundParams("ht", b, delta, r=r, t1=step, t2=t2),
                        )

                # roos: all offset subsets {0} | S of good offsets, with the
                # window constraint and pairwise-fresh pair residues
                pos = [k for k in good if k != 0]
                for mask in range(1 << len(pos)):
                    ks = [0] + [pos[i] for i in range(len(pos)) if mask >> i & 1]
                    r = len(ks) - 1
                    if r < 1 or r > rmax:
                        continue
                    if ks[-1] - ks[0] > delta + r - 2:
                        continue
                    res = {
                        (e + k) % lc for e in base for k in ks
                    }
                    if len(res) != (delta - 1) * (r + 1):
                        continue
                    consider(
                        delta + r, 2,
                        BoundParams("roos", b, delta, r=r, s=step, ks=tuple(ks)),
                    )

    params = best[3]
    return CHECKERS[params.kind](D, params, code_id)


def random_view(t, rng):
    """A defining-set view whose ell x m membership table is random."""
    a = primitive_ell_root(t)
    beta = find_normal_element(t)
    density = rng.choice((0.3, 0.6, 0.8, 0.95))
    table = {
        (t.L.pow(a, i), t.sigma(beta, j)): rng.random() < density
        for i in range(t.ell)
        for j in range(t.m)
    }
    return DefiningSetView.from_predicate(t, lambda av, bv: table[(av, bv)])


def as_candidate(p):
    """A BoundParams as the search's candidate tuple."""
    key = (p.b, p.delta, *(-1 if v is None else v for v in (p.t, p.t1, p.t2, p.s)), p.ks or ())
    return (p.delta + p.r, ("bch", "ht", "roos").index(p.kind), key, p.r)


def reference_considered(D, limits, monkeypatch):
    """The reference's certificate and every candidate it built params for."""
    real, made = BoundParams, set()

    def record(*args, **kwargs):
        p = real(*args, **kwargs)
        made.add(p)
        return p

    with monkeypatch.context() as mp:
        mp.setattr(sys.modules[__name__], "BoundParams", record)
        cert = reference_search(D, limits)
    return (cert.params, cert.grid, cert.bound), {as_candidate(p) for p in made}


def same_candidates(D, monkeypatch, limits=SearchLimits()):
    """The search's winner equals the reference's, and its candidates are the
    reference's over b in Z_n with b reduced mod ell: the starts b + ell that
    the search skips only repeat those of b."""
    cert = best_bound_search(D, limits)
    got = (cert.params, cert.grid, cert.bound), set(bounds._candidates(D, limits))
    want, considered = reference_considered(D, limits, monkeypatch)
    ell = D.tower.ell
    reduced = {(bound, kind, (key[0] % ell,) + key[1:], r) for bound, kind, key, r in considered}
    assert got == (want, reduced)


class TestSoundnessOffCoprimeTowers:
    """A certificate never claims more than the exact distance.  It fails
    today where gcd(ell, m) > 1: these product codes have d = 4, while BCH
    claims 5 on the first and the search claims 5 and 7."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
    @pytest.mark.parametrize("spec, f1, f2, bch", [
        ((5, 1, 2, 1, 4, 2), (1, 0, 1), (13, 1), BoundParams("bch", 0, 5, t=1)),
        ((7, 1, 2, 1, 6, 2), (1, 0, 0, 1), (17, 1), None),
    ], ids=["x^2+1,z+13", "x^3+1,z+17"])
    def test_claims_within_distance(self, spec, f1, f2, bch):
        t = build_tower(*spec)
        g = product_generator_poly(t, f1, SkewPoly(t, "F", f2))
        D = DefiningSetView.from_generator(t, g)
        claims = [best_bound_search(D).bound] + ([bch_check(D, bch).bound] if bch else [])
        assert max(claims) <= min_distance_bruteforce(code_from_skew_generator(g, t))


class TestSearchMatchesReference:
    """The depth-first Roos search considers the candidates of the mask loop."""

    def test_product_codes_tower9(self, tower9, corpus, monkeypatch):
        f1s, f2s = corpus
        for f1 in f1s:
            for f2 in f2s:
                g = product_generator_poly(tower9, f1, f2)
                if not g.is_zero():
                    same_candidates(DefiningSetView.from_generator(tower9, g), monkeypatch)

    def test_product_codes_odd5(self, monkeypatch):
        t = build_tower(5, 1, 2, 1, 4, 2)  # gcd(ell, m) = 2
        for f1 in corpus_f1(t):
            for f2 in corpus_f2(t):
                g = product_generator_poly(t, f1, f2)
                if not g.is_zero():
                    same_candidates(DefiningSetView.from_generator(t, g), monkeypatch)

    # on (7,1,2,1,3,2), lcm(ell, m) = 6 leaves room for two nonzero Roos
    # offsets whose pair residues collide with each other but not the base
    @pytest.mark.parametrize(
        "spec", [(2, 1, 3, 2, 3, 3), (5, 1, 2, 1, 4, 2), (3, 1, 2, 1, 2, 2), (7, 1, 2, 1, 3, 2)]
    )
    def test_random_tables_and_limits(self, spec, monkeypatch):
        t = build_tower(*spec)
        rng = random.Random(sum(spec))
        caps = [None] + list(range(t.n + 1))
        for _ in range(20):
            limits = SearchLimits(rng.choice(caps), rng.choice(caps))
            same_candidates(random_view(t, rng), monkeypatch, limits)

    def test_params_built_for_the_winner_only(self, example, monkeypatch):
        _, _, _, D = example
        made = []

        def record(*args, **kwargs):
            made.append(args)
            return BoundParams(*args, **kwargs)

        monkeypatch.setattr(bounds, "BoundParams", record)
        cert = best_bound_search(D)
        assert len(list(bounds._candidates(D, SearchLimits()))) > 1
        assert made == [(cert.params.kind, cert.params.b, cert.params.delta)]

    def test_dense_n28_code(self):
        # 19 grid pairs: too slow for the mask loop, which tries 2^|offsets|
        # subsets per (b, step, delta)
        t = build_tower(2, 1, 4, 3, 7, 4)
        f1, f2 = (1, 1, 1, 0, 1), SkewPoly(t, "F", (9, 13, 1))
        D = DefiningSetView.from_generator(t, product_generator_poly(t, f1, f2))
        assert sum(map(sum, D.grid_table())) == 19
        cert = best_bound_search(D)
        again = CHECKERS[cert.params.kind](D, cert.params)
        assert (again.grid, again.bound) == (cert.grid, cert.bound)
        dH, dR = factor_distances(product_code_from_polys(t, f1, f2))
        assert cert.bound <= dH * dR


class TestRunMemo:
    """Each distinct cyclic run is searched once per process; preconditions
    and errors are checked on every call."""

    def test_each_run_searched_once(self, tower9, corpus, monkeypatch):
        # the 45 product codes repeat runs: a search that re-ran every start
        # of every code would call _run_candidates once per (code, b)
        bounds._best_of_run.cache_clear()
        calls = []
        inner = bounds._run_candidates
        monkeypatch.setattr(bounds, "_run_candidates", lambda *run: (
            calls.append(run) or inner(*run)
        ))
        f1s, f2s = corpus
        views = [DefiningSetView.from_generator(tower9, g) for g in (
            product_generator_poly(tower9, f1, f2) for f1 in f1s for f2 in f2s
        ) if not g.is_zero()]
        assert len(views) == 45
        runs = {run for D in views for _, run in bounds._runs(D, SearchLimits())}
        first = [best_bound_search(D).to_json() for D in views]
        assert sorted(calls) == sorted(runs) and len(runs) < 45 * tower9.ell
        calls.clear()
        assert [best_bound_search(D).to_json() for D in views] == first
        assert calls == []
        bounds._best_of_run.cache_clear()  # drop the entries the wrapper made

    def test_errors_raised_on_every_call(self, example, tower9):
        _, _, _, D = example
        zero = DefiningSetView(tower9, BivarPoly.zero(tower9), D.grid_table())
        # N = 6 != m = 3, with the same 3 x 3 table
        wide = DefiningSetView(build_tower(2, 1, 3, 2, 3, 6), None, D.grid_table())
        for _ in range(2):
            with pytest.raises(ZeroCode):
                best_bound_search(zero)
            with pytest.raises(PreconditionViolated):
                best_bound_search(wide)
            assert best_bound_search(D).bound == 3

    @pytest.mark.parametrize("spec", [(2, 1, 3, 2, 3, 3), (5, 1, 2, 1, 4, 2)])
    def test_run_candidates_read_a_bare_tuple(self, spec):
        t = build_tower(*spec)
        D = random_view(t, random.Random(9))  # 163 and 177 candidates
        lc = t.ell * t.m // gcd(t.ell, t.m)
        got = [(1, 0, (0, 1, 1, -1, -1, -1, ()), 0)]
        for b in range(t.ell):
            memb = tuple(D.table[(b + e) % t.ell][e % t.m] for e in range(t.n))
            got += [(bound, kind, (b, *key), r)
                    for bound, kind, key, r in bounds._run_candidates(memb, lc, t.n, t.n)]
        assert got == list(bounds._candidates(D, SearchLimits()))


class TestLrsMatrix:
    def test_full_rank_all_k(self, tower_ell1):
        t = tower_ell1
        a = primitive_ell_root(t)
        beta = find_normal_element(t)
        for b in (0, 1):
            for k in range(1, t.n + 1):
                M = lrs_generator_matrix(t, a, beta, b, k)
                assert linalg.rank(M, t.L) == k

    def test_single_row_is_conjugate_basis(self, tower_ell1):
        t = tower_ell1
        a = primitive_ell_root(t)
        beta = find_normal_element(t)
        M = lrs_generator_matrix(t, a, beta, 0, 1)
        assert list(M[0]) == [t.sigma(beta, j) for j in range(t.m)]

    def test_rejects_non_normal_and_non_primitive(self, tower_ell1):
        t = tower_ell1
        a = primitive_ell_root(t)
        with pytest.raises(NotNormal):
            lrs_generator_matrix(t, a, 1, 0, 1)
        t5 = build_tower(2, 1, 3, 4, 5, 3)
        with pytest.raises(NotPrimitive):
            lrs_generator_matrix(t5, 1, find_normal_element(t5), 0, 1)


class TestSelectionOracle:
    def _random_case(self, t, rng, max_total):
        import itertools

        blocks = list(
            itertools.chain.from_iterable(
                itertools.combinations(range(t.m), sz) for sz in range(t.m + 1)
            )
        )
        units = [u for u in range(1, t.n) if gcd(u, t.n) == 1]
        while True:
            sel = tuple(rng.choice(blocks) for _ in range(t.ell))
            total = sum(len(s) for s in sel)
            if not 2 <= total <= max_total:
                continue
            r = rng.randrange(0, total)
            t_steps = total - r
            pool = list(range(1, t_steps + r))
            if len(pool) < r:
                continue
            ks = (0,) + tuple(sorted(rng.sample(pool, r)))
            return sel, ks, rng.choice(units), rng.randrange(t.ell)

    def test_lemma_ranks(self, tower_ell1):
        t = tower_ell1
        a = primitive_ell_root(t)
        beta = find_normal_element(t)
        rng = random.Random(19)
        for _ in range(100):
            sel, ks, s, b = self._random_case(t, rng, 3)
            total = sum(len(x) for x in sel)
            r = len(ks) - 1
            t_steps = total - r
            assert selection_rank_oracle(t, a, beta, sel, ks, s, 0, b) == r + 1
            assert (
                selection_rank_oracle(t, a, beta, sel, ks, s, t_steps - 1, b)
                == r + t_steps
            )

    def test_lemma_ranks_multiblock(self):
        t = build_tower(2, 1, 3, 4, 5, 3)  # ell = 5 coprime to m = 3
        a = primitive_ell_root(t)
        beta = find_normal_element(t)
        rng = random.Random(29)
        for _ in range(60):
            sel, ks, s, b = self._random_case(t, rng, 5)
            total = sum(len(x) for x in sel)
            r = len(ks) - 1
            t_steps = total - r
            assert selection_rank_oracle(t, a, beta, sel, ks, s, 0, b) == r + 1
            assert (
                selection_rank_oracle(t, a, beta, sel, ks, s, t_steps - 1, b)
                == r + t_steps
            )

    def test_selection_too_small(self, tower_ell1):
        t = tower_ell1
        a = primitive_ell_root(t)
        beta = find_normal_element(t)
        with pytest.raises(SelectionTooSmall):
            selection_rank_oracle(t, a, beta, ((0,),), (0, 1), 1, 0)

    def test_noncoprime_ell_rejected(self, tower9):
        t = tower9  # ell = m = 3 violates the basis-construction hypothesis
        a = primitive_ell_root(t)
        beta = find_normal_element(t)
        with pytest.raises(PreconditionViolated):
            selection_rank_oracle(t, a, beta, ((0,), (1,), ()), (0,), 1, 0)
