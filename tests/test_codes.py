"""Linear codes, sum-rank weights, shifts, and the distance oracle."""

import hashlib
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

from sumrank import (
    LinearCode,
    Partition,
    build_tower,
    code_from_skew_generator,
    hamming_weight,
    is_cyclic_skew_cyclic,
    min_distance_bruteforce,
    phi_shift,
    rho_shift,
    sumrank_weight,
)
from sumrank import codes, kernels, linalg
from sumrank.bivar import BivarPoly, biv_mul, nu_inverse
from sumrank.codes import block_rank, shift_orbit_code, span_rank
from sumrank.errors import (
    BudgetExceeded,
    FieldTooLarge,
    InvalidParameter,
    LengthMismatch,
    LevelMismatch,
    SumrankError,
    UnequalParts,
    ZeroCode,
)
from sumrank.kernels import FieldTables, min_weight
from sumrank.product import corpus_f1, corpus_f2, product_generator_poly
from sumrank.skew import SkewPoly


def reference_block_rank(tower, block):
    """Rank over F of the block's Moore matrix (v^(|E|^j)), j < m, by
    elimination: a reference for `block_rank` through the criterion the
    kernel uses."""
    F, q = tower.F, tower.E.order
    rows = [[F.pow(v, q**j) for j in range(tower.m)] for v in block if v != 0]
    return linalg.rank(rows, F) if rows else 0


def reference_codewords(C):
    """Every codeword, each message index split into base-|F| digits, the
    lowest digit the first row's coefficient: a reference for the order and
    values of `LinearCode.codewords`."""
    gf, q = C.field, C.field.order
    for idx in range(q**C.k):
        cw = [0] * C.n
        for row in C.G:
            d, idx = idx % q, idx // q
            if d:
                cw = [gf.add(a, gf.mul(d, b)) for a, b in zip(cw, row)]
        yield tuple(cw)


# towers for the oracle cross-checks: odd p, E = F_p and E an extension field
RANK_TOWERS = [
    (2, 1, 3, 2, 3, 3),
    (2, 1, 2, 1, 1, 2),
    (3, 1, 2, 1, 2, 2),
    (2, 1, 4, 3, 7, 4),
    (5, 1, 2, 1, 4, 2),
    (7, 1, 2, 1, 6, 2),
    (3, 2, 2, 1, 4, 2),
    (2, 2, 3, 1, 3, 3),
    (2, 3, 2, 1, 7, 2),
    (5, 2, 2, 1, 3, 2),
    (2, 2, 2, 1, 3, 2),
    (3, 1, 3, 1, 2, 3),
]


class TestWeights:
    def test_metric_interpolation(self, tower9):
        t = tower9
        c = (1, 2, 0, 0, 0, 0, 3, 3, 3)
        # Hamming: all blocks size 1; rank: one block; sum-rank in between
        assert sumrank_weight(t, c, Partition.hamming(9)) == hamming_weight(c)
        assert sumrank_weight(t, c, Partition.rank(9)) == block_rank(t, c)
        assert sumrank_weight(t, c, Partition.equal(3, 3)) == 2 + 0 + 1

    def test_tensor_weight_example(self, tower4):
        # (1, w | 1, w | 0, 0) over F4: two blocks of rank 2 over F2
        t = tower4
        vec = (1, 2, 1, 2, 0, 0)
        assert sumrank_weight(t, vec, Partition.equal(3, 2)) == 4

    @pytest.mark.parametrize("spec", RANK_TOWERS, ids=str)
    def test_block_rank_matches_coordinate_rank(self, spec):
        # random blocks whose later entries are often E-combinations of the
        # earlier ones, E lifted into F by the tower's embedding
        t = build_tower(*spec)
        F, rng = t.F, random.Random(str(spec))
        E_in_F = [t.lift(c, "E", "F") for c in range(t.E.order)]
        for _ in range(60):
            base = [rng.randrange(F.order) for _ in range(rng.randrange(1, t.m + 1))]
            block = list(base)
            for _ in range(rng.randrange(t.m + 3)):
                v = 0
                for b in base:
                    v = F.add(v, F.mul(rng.choice(E_in_F), b))
                block.append(v)
            rng.shuffle(block)
            assert block_rank(t, block) == reference_block_rank(t, block)

    # F = F16 on both: E = F2 on the first tower, E = F4 on the second
    @pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["F2-first", "F4-first"])
    def test_rank_memo_is_keyed_by_tower(self, monkeypatch, order):
        monkeypatch.setattr(codes, "_rank_cache", {})
        towers = [build_tower(2, 1, 4, 3, 7, 4), build_tower(2, 2, 2, 1, 3, 2)]
        blocks = [(a, b) for a in range(16) for b in range(16)]
        got = {}
        for i in order:
            got[i] = [block_rank(towers[i], block) for block in blocks]
            assert got[i] == [reference_block_rank(towers[i], block) for block in blocks]
        assert got[0] != got[1]

    @pytest.mark.parametrize("tuple_first", [True, False], ids=["tuple-first", "list-first"])
    def test_list_and_tuple_share_ranks(self, tower9, monkeypatch, tuple_first):
        monkeypatch.setattr(codes, "_rank_cache", {})
        rng = random.Random(9)
        part = Partition.equal(3, 3)
        kinds = (tuple, list) if tuple_first else (list, tuple)
        for _ in range(50):
            c = [rng.randrange(8) for _ in range(9)]
            want = reference_block_rank(tower9, c[:3])
            assert [block_rank(tower9, kind(c[:3])) for kind in kinds] == [want, want]
            want = sum(reference_block_rank(tower9, c[i : i + 3]) for i in (0, 3, 6))
            assert [sumrank_weight(tower9, kind(c), part) for kind in kinds] == [want, want]

    def test_each_block_closed_once(self, tower9, monkeypatch):
        # the E-span closure runs once per distinct block of a tower; a scan
        # that repeats it per block is the slow path this guards against
        closed = []

        def counted(tower, block):
            closed.append(block)
            return span_rank(tower, block)

        monkeypatch.setattr(codes, "_rank_cache", {})
        monkeypatch.setattr(codes, "span_rank", counted)
        C = LinearCode(tower9, [[1, 2, 3, 0, 4, 5, 6, 7, 1], [0, 0, 1, 1, 2, 3, 5, 0, 7],
                                [4, 0, 0, 6, 1, 0, 2, 2, 3]], Partition.equal(3, 3))
        blocks = {cw[i : i + 3] for cw in C.codewords() if any(cw) for i in (0, 3, 6)}
        for _ in range(2):
            assert min(sumrank_weight(tower9, cw, C.partition) for cw in C.codewords() if any(cw))
            assert len(closed) == len(set(closed)) == len(blocks)

    def test_unequal_parts_guard(self):
        with pytest.raises(UnequalParts):
            Partition((2, 3)).equal_part()

    def test_length_mismatch(self, tower9):
        part = Partition.equal(3, 3)
        for build in (
            lambda: Partition((0, 9)),
            lambda: Partition(()),
            lambda: sumrank_weight(tower9, (1,) * 8, part),
            lambda: sumrank_weight(tower9, (1,) * 10, part),
            lambda: LinearCode(tower9, [[1] * 8], part),
            lambda: LinearCode(tower9, [[1] * 9], part).contains((1,) * 8),
        ):
            with pytest.raises(LengthMismatch):
                build()


class TestLinearCode:
    def test_rref_canonical_and_contains(self, tower9):
        t = tower9
        rows = [[1, 0, 0, 1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0, 0, 1, 0]]
        C = LinearCode(t, rows, Partition.equal(3, 3))
        C2 = LinearCode(t, [rows[1], [t.F.add(a, b) for a, b in zip(*rows)]], C.partition)
        assert C == C2
        assert C.contains(rows[0])
        assert not C.contains([1] + [0] * 8)

    def test_code_id_hashes_the_canonical_payload_once(self, tower9, monkeypatch):
        t = tower9
        rows = [[1, 0, 0, 1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0, 0, 1, 0]]
        C = LinearCode(t, rows, Partition.equal(3, 3))
        C2 = LinearCode(t, [rows[1], [t.F.add(a, b) for a, b in zip(*rows)]], C.partition)
        payload = json.dumps({"G": [list(r) for r in C.G], "parts": [3, 3, 3]}, sort_keys=True)
        want = hashlib.sha256(payload.encode()).hexdigest()[:16]
        assert C.code_id() == C2.code_id() == want
        hashed = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda data: hashed.append(data) or sha256(data))
        C3 = LinearCode(t, rows, C.partition)
        assert C3.code_id() == C3.code_id() == want
        assert len(hashed) == 1

    def test_codes_live_over_F(self, tower9):
        C = LinearCode(tower9, [[1] * 9], Partition.equal(3, 3))
        assert LinearCode.level == C.level == "F"
        assert C.field is tower9.F

    def test_codeword_count(self, tower9):
        C = LinearCode(
            tower9,
            [[1, 0, 0, 1, 0, 0, 1, 0, 0]],
            Partition.equal(3, 3),
        )
        assert sum(1 for _ in C.codewords()) == 8

    @pytest.mark.parametrize("spec,k", [
        ((2, 1, 3, 2, 3, 3), 0), ((2, 1, 3, 2, 3, 3), 1), ((2, 1, 3, 2, 3, 3), 3),
        ((3, 1, 2, 1, 2, 2), 3), ((5, 1, 2, 1, 4, 2), 2), ((2, 2, 2, 1, 3, 2), 2),
    ], ids=str)
    def test_codewords_match_digit_enumeration(self, spec, k):
        t = build_tower(*spec)
        rng = random.Random(k)
        rows = [[rng.randrange(t.F.order) for _ in range(t.n)] for _ in range(k)]
        C = LinearCode(t, rows, Partition.equal(t.ell, t.N))
        assert list(C.codewords()) == list(reference_codewords(C))

    def test_codewords_are_lazy(self, tower9):
        # the first codeword of a k = 6 code costs O(k n) memory; a walk that
        # materializes the 8^5 partial sums of the slower rows needs about 4 MB
        rng = random.Random(6)
        rows = [[rng.randrange(8) for _ in range(9)] for _ in range(6)]
        C = LinearCode(tower9, rows, Partition.equal(3, 3))
        assert C.k == 6
        tracemalloc.start()
        try:
            first = next(C.codewords())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == (0,) * 9
        assert peak < 256 * 1024

    def test_full_space_distance_one(self, tower9, monkeypatch):
        monkeypatch.setenv("SUMRANK_BUDGET", str(1 << 28))
        C = LinearCode.full_space(tower9, Partition.equal(3, 3))
        assert min_distance_bruteforce(C) == 1

    def test_zero_code_raises(self, tower9):
        C = LinearCode(tower9, [], Partition.equal(3, 3))
        with pytest.raises(ZeroCode):
            min_distance_bruteforce(C)

    def test_unknown_metric(self, tower9):
        # a named error, as the CLI reports every SumrankError as JSON
        C = LinearCode(tower9, [[1] * 9], Partition.equal(3, 3))
        with pytest.raises(InvalidParameter, match="unknown metric 'foo'"):
            min_distance_bruteforce(C, metric="foo")

    def test_budget_guard(self, tower9, monkeypatch):
        monkeypatch.setenv("SUMRANK_BUDGET", "100")
        C = LinearCode.full_space(tower9, Partition.equal(3, 3))
        with pytest.raises(BudgetExceeded):
            min_distance_bruteforce(C)


class TestShifts:
    def test_rho_rotates_blocks(self, tower9):
        c = (1, 2, 3, 4, 5, 6, 7, 0, 1)
        assert rho_shift(c, Partition.equal(3, 3)) == (7, 0, 1, 1, 2, 3, 4, 5, 6)

    def test_phi_twists_and_rotates_in_block(self, tower9):
        t = tower9
        c = (1, 2, 3, 0, 0, 0, 0, 0, 0)
        out = phi_shift(c, Partition.equal(3, 3), t)
        assert out[:3] == (t.theta(3), t.theta(1), t.theta(2))

    def test_shift_orders(self, tower9):
        rng = random.Random(2)
        t = tower9
        part = Partition.equal(3, 3)
        c = tuple(rng.randrange(8) for _ in range(9))
        v = c
        for _ in range(3):
            v = rho_shift(v, part)
        assert v == c
        # phi^N composes theta^N on each entry; phi^(N * ord theta) = id
        v = c
        for _ in range(9):
            v = phi_shift(v, part, t)
        assert v == c

    @pytest.mark.parametrize("length", [8, 10])
    def test_length_mismatch(self, tower9, length):
        part = Partition.equal(3, 3)
        with pytest.raises(LengthMismatch):
            rho_shift((1,) * length, part)
        with pytest.raises(LengthMismatch):
            phi_shift((1,) * length, part, tower9)


class TestGeneratedCodes:
    def test_generator_code_is_csc(self, tower9):
        t = tower9
        f1 = BivarPoly.from_x_poly(t, "F", [1, 1])
        f2 = BivarPoly.from_z_poly(t, "F", [1, 1])
        C = code_from_skew_generator(biv_mul(f1, f2), t)
        assert C.k == 4
        assert is_cyclic_skew_cyclic(C)
        assert min_distance_bruteforce(C) == 2

    def test_L_level_generator_refused(self, tower9):
        with pytest.raises(LevelMismatch):
            code_from_skew_generator(BivarPoly.one(tower9, "L"), tower9)

    def test_generator_is_codeword(self, tower9):
        t = tower9
        g = BivarPoly.from_x_poly(t, "F", [1, 1, 1])
        C = code_from_skew_generator(g, t)
        assert C.contains(list(nu_inverse(g)))


def monomial_orbit_code(g, t):
    """The span of x^i z^j * g through `biv_mul`: a reference for the
    shift-orbit construction of the left ideal of g."""
    rows = [
        nu_inverse(biv_mul(BivarPoly.monomial(t, "F", i, j), g))
        for i in range(t.ell)
        for j in range(t.N)
    ]
    return LinearCode(t, rows, Partition.equal(t.ell, t.N))


class TestShiftOrbit:
    """code_from_skew_generator equals the monomial orbit through biv_mul."""

    @pytest.mark.parametrize("spec", [
        (2, 1, 3, 2, 3, 3), (2, 1, 3, 2, 3, 6), (3, 1, 2, 1, 2, 2), (5, 1, 2, 1, 4, 2),
        (7, 1, 2, 1, 6, 2), (2, 1, 4, 3, 7, 4), (3, 1, 3, 1, 2, 3),
        # E = F9, F4, F8 and F25
        (3, 2, 2, 1, 4, 2), (2, 2, 3, 1, 3, 3), (2, 3, 2, 1, 7, 2), (5, 2, 2, 1, 3, 2),
    ], ids=str)
    def test_matches_monomial_orbit(self, spec):
        # g = r * f1(x) * f2(z) with r sparse or dense: k < n, so a shift
        # that drops its twist or misplaces an entry changes the code
        t = build_tower(*spec)
        rng = random.Random(sum(spec))
        F1 = corpus_f1(t)
        F2 = corpus_f2(t) if t.N == t.m else [  # z - 1 and z^m - 1 divide z^N - 1 for m | N
            SkewPoly.z_pow_minus_one(t, 1), SkewPoly.z_pow_minus_one(t, t.m)
        ]
        ks = set()
        for density in (0.1,) * 5 + (1.0,) * 5:
            grid = [[rng.randrange(t.F.order) if rng.random() < density else 0 for _ in range(t.N)]
                    for _ in range(t.ell)]
            grid[rng.randrange(t.ell)][rng.randrange(t.N)] = rng.randrange(1, t.F.order)
            f = product_generator_poly(t, rng.choice(F1), rng.choice(F2))
            g = biv_mul(BivarPoly.from_lists(t, "F", grid), f)
            C = code_from_skew_generator(g, t)
            assert C.G == monomial_orbit_code(g, t).G
            ks.add(C.k)
        assert ks - {0, t.n}

    def test_orbit_of_a_vector(self, tower9):
        # the orbit of e_0 under rho and phi is the unit vector basis
        t, part = tower9, Partition.equal(3, 3)
        e0 = (1,) + (0,) * 8
        assert shift_orbit_code(t, e0, part) == LinearCode.full_space(t, part)
        assert shift_orbit_code(t, (0,) * 9, part).k == 0


def _scan(C, part):
    return min(sumrank_weight(C.tower, cw, part) for cw in C.codewords() if any(cw))


class TestKernelAgreement:
    def test_kernel_matches_codeword_scan(self, tower9, monkeypatch):
        # min_weight against sumrank_weight over every codeword, on towers with
        # E = F_p and E = F4, for sum-rank, Hamming, rank and unequal blocks;
        # rank blocks exceed the table cap, so direct elimination runs too.
        # Chunks of |F| codewords also run the prefix recursion at k = 3.
        rng = random.Random(77)
        towers = [tower9] + [
            build_tower(*s) for s in ((5, 1, 2, 1, 4, 2), (3, 1, 2, 1, 2, 2), (2, 2, 2, 1, 3, 2))
        ]
        for t in towers:
            q, n = t.F.order, t.n
            tables = FieldTables(t)
            parts = (
                Partition.equal(t.ell, t.N),
                Partition.hamming(n),
                Partition.rank(n),
                Partition((2, 3, 4)) if n == 9 else Partition((1, 2, n - 3)),
            )
            for k in [k for k in (1, 2, 3, 3, 3) if q**k <= 1000]:
                rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
                for part in parts:
                    C = LinearCode(t, rows, part)
                    d = _scan(C, part)
                    for chunk in (kernels.CHUNK, q):
                        monkeypatch.setattr(kernels, "CHUNK", chunk)
                        assert min_weight(C.G, tables, part.parts) == d
                    monkeypatch.undo()

    def test_kernel_k5_chunks_and_paths(self, tower9, monkeypatch):
        # 8^5 codewords over five leading positions; smaller chunks run the
        # prefix recursion, a zero table cap runs direct elimination on
        # blocks of size 3
        rng = random.Random(5)
        rows = [[rng.randrange(8) for _ in range(9)] for _ in range(5)]
        C = LinearCode(tower9, rows, Partition.equal(3, 3))
        d = _scan(C, C.partition)
        assert d > 1
        assert min_weight(C.G, FieldTables(tower9), C.partition.parts) == d
        monkeypatch.setattr(kernels, "CHUNK", 64)
        assert min_weight(C.G, FieldTables(tower9), C.partition.parts) == d
        monkeypatch.setattr(kernels, "TABLE_CAP", 0)
        assert min_weight(C.G, FieldTables(tower9), C.partition.parts) == d

    @pytest.mark.parametrize("spec,k,parts,ranked_per_value", [
        ((5, 1, 2, 1, 4, 2), 3, (1,) * 8, {1}),  # 25 values per block, 625 span rows
        ((2, 2, 2, 1, 3, 2), 4, (2, 2, 2), {2}),  # E = F4: 256 values, 4096 span rows
        ((5, 1, 2, 1, 4, 2), 3, (1, 2, 5), {1}),
        ((2, 2, 2, 1, 3, 2), 4, (1, 2, 3), {1, 2}),
    ], ids=str)
    def test_per_value_ranks_off_characteristic_2(self, spec, k, parts, ranked_per_value,
                                                  monkeypatch):
        # blocks with fewer values than the span has rows are ranked once per
        # value; chunks of |F| codewords leave every block to the per-row path
        t = build_tower(*spec)
        rng = random.Random(str(spec))
        rows = [[rng.randrange(t.F.order) for _ in range(t.n)] for _ in range(k)]
        C = LinearCode(t, rows, Partition(parts))
        d = _scan(C, C.partition)
        assert C.k == k and d > 1
        tables = FieldTables(t)
        per_value = []
        monkeypatch.setattr(tables, "value_ranks", lambda block: (
            per_value.append(len(block)) or FieldTables.value_ranks(tables, block)
        ))
        assert min_weight(C.G, tables, parts) == d
        assert set(per_value) == ranked_per_value
        monkeypatch.setattr(kernels, "CHUNK", t.F.order)
        per_value.clear()
        assert min_weight(C.G, tables, parts) == d
        assert not per_value

    def test_one_span_per_call(self, tower9, monkeypatch):
        # the span of the last rows serves every leading row; a kernel that
        # builds a span per leading row is the slow path this guards against
        built = []

        def counted(rows, tables):
            built.append(len(rows))
            return span(rows, tables)

        span = kernels._span
        monkeypatch.setattr(kernels, "_span", counted)
        rng = random.Random(5)
        rows = [[rng.randrange(8) for _ in range(9)] for _ in range(5)]
        C = LinearCode(tower9, rows, Partition.equal(3, 3))
        assert C.k == 5
        assert min_weight(C.G, FieldTables(tower9), C.partition.parts) > 1
        assert built == [4]

    @pytest.mark.parametrize("spec", [(2, 1, 3, 2, 3, 3), (5, 1, 2, 1, 4, 2), (17, 1, 2, 1, 1, 2)],
                             ids=["F8", "F25", "F289"])
    def test_span_matches_broadcast_gather(self, spec):
        # the flat gather against the two-index one it replaced; on F289 the
        # flat index s * |F| + c wraps int16 and is computed in int32
        t = build_tower(*spec)
        T = FieldTables(t)
        rng = random.Random(str(spec))
        for k in range(1, 4 if t.F.order < 100 else 3):
            rows = np.array([[rng.randrange(t.F.order) for _ in range(t.n)] for _ in range(k)])
            want = np.zeros((1, t.n), T.addF.dtype)
            for row in rows:
                want = T.addF[want[:, None], T.mulF[:, row][None]].reshape(-1, t.n)
            got = kernels._span(rows, T)
            assert got.dtype == T.addF.dtype and got.tolist() == want.tolist()

    @pytest.mark.parametrize(
        "spec",
        [(2, 1, 3, 2, 3, 3), (5, 1, 2, 1, 4, 2), (7, 1, 2, 1, 6, 2), (2, 2, 2, 1, 3, 2)],
        ids=["F8", "F25", "F49", "F16-over-F4"],
    )
    def test_tables_match_field_arithmetic(self, spec):
        t = build_tower(*spec)
        T = FieldTables(t)

        def entrywise(gf, op):
            return [[op(a, b) for b in range(gf.order)] for a in range(gf.order)]

        assert T.mulF.tolist() == entrywise(t.F, t.F.mul)
        assert T.addF.tolist() == entrywise(t.F, t.F.add)
        assert T.negF.tolist() == [t.F.neg(a) for a in range(t.F.order)]
        assert T.invF.tolist() == [t.F.inv(a) if a else 0 for a in range(t.F.order)]
        q = t.E.order
        assert T.moore.tolist() == [
            [t.F.pow(v, q**j) for j in range(t.m)] for v in range(t.F.order)
        ]

    @pytest.mark.parametrize("spec", RANK_TOWERS, ids=str)
    def test_block_ranks_match_span_rank_on_every_block(self, spec):
        # every block of every size b with |F|^b <= 4096, by table and by
        # direct elimination, against the E-span closure of `block_rank`
        t = build_tower(*spec)
        T, q = FieldTables(t), t.F.order
        b = 1
        while q**b <= 4096:
            every = np.array(list(itertools.product(range(q), repeat=b)))
            want = [block_rank(t, block) for block in every.tolist()]
            assert T.block_ranks(every).tolist() == want
            assert T.ranks(every).tolist() == want
            b += 1

    def test_table_order_cap(self, tower9, monkeypatch):
        monkeypatch.setattr(kernels, "ORDER_CAP", 4)
        with pytest.raises(FieldTooLarge):
            FieldTables(tower9)
        assert issubclass(FieldTooLarge, SumrankError)

    def test_oracle_matches_direct_weight_scan(self, tower9):
        # independent slow oracle: min sum-rank weight over explicit codewords
        rng = random.Random(78)
        t = tower9
        part = Partition.equal(3, 3)
        for _ in range(5):
            rows = [[rng.randrange(8) for _ in range(9)] for _ in range(2)]
            C = LinearCode(t, rows, part)
            if C.k == 0:
                continue
            slow = min(
                sumrank_weight(t, cw, part)
                for cw in C.codewords()
                if any(cw)
            )
            assert min_distance_bruteforce(C) == slow
