"""Defining sets and certified lower bounds on the minimum sum-rank distance.

All three certificate families (BCH, Hartmann-Tzeng, Roos) consume pairs
from the canonical ell x m grid {(a^i, sigma^j(beta))} for one fixed
primitive ell-th root a and one fixed normal element beta, computed once per
tower.  Exponents are reduced mod ell in the first component and mod m in the
second; membership of a pair means the code's generator evaluates to zero
there.  A defining set is one ell x m table of booleans, filled with ell
substitutions x := a^i and ell * m right evaluations.  Until ROADMAP item 1's
coset rule lands, the checkers refuse repeated pairs and the search tracks
pair residues mod lcm(ell, m), since a progression can revisit a pair when
gcd(ell, m) > 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dfield
from functools import lru_cache
from math import gcd

from . import linalg
# ev_total stays importable here: benchmark/tracer.py rebinds bounds.ev_total
from .bivar import BivarPoly, ev_az, ev_total  # noqa: F401
from .errors import (
    GridNotContained,
    InvalidParameter,
    NotNormal,
    NotPrimitive,
    ParseError,
    PreconditionViolated,
    SelectionTooSmall,
    ZeroCode,
)
from .skew import right_evaluate
from .tower import FieldTower, find_normal_element, is_normal, primitive_ell_root


@lru_cache(maxsize=None)
def grid_points(t: FieldTower) -> tuple[int, int]:
    """The L-encodings of the tower's fixed a and beta."""
    return primitive_ell_root(t), find_normal_element(t)


def common_zeros(t: FieldTower, polys) -> list[list[bool]]:
    """The ell x m table of the grid pairs at which every poly vanishes: row i
    substitutes x := a^i, column j right-evaluates at sigma^j(sigma(beta)/beta)."""
    a, beta = grid_points(t)
    L = t.L
    lifted = [f.lift_to_L() for f in polys]
    point = L.div(t.sigma(beta), beta)
    points = [t.sigma(point, j) for j in range(t.m)]
    table = []
    for i in range(t.ell):
        rows = [ev_az(f, L.pow(a, i)) for f in lifted]
        table.append([all(right_evaluate(fz, pt) == 0 for fz in rows) for pt in points])
    return table


class DefiningSetView:
    """The ell x m membership table of a CSC code's defining set."""

    def __init__(self, tower: FieldTower, generator: BivarPoly | None, table):
        self.tower = tower
        self.generator = generator  # None when the table came another way
        self.table = table  # table[i][j]: (a^i, sigma^j(beta)) is a member

    @classmethod
    def from_generator(cls, tower, g: BivarPoly):
        return cls(tower, g, common_zeros(tower, [g]))

    @classmethod
    def from_predicate(cls, tower, fn):
        """fn(a_val, beta_val) -> bool on L-encodings."""
        a, beta = grid_points(tower)
        conj = [tower.sigma(beta, j) for j in range(tower.m)]
        return cls(tower, None, [
            [fn(tower.L.pow(a, i), b) for b in conj] for i in range(tower.ell)
        ])

    def grid_member(self, a_exp: int, sig_exp: int) -> bool:
        """Membership of (a^a_exp, sigma^sig_exp(beta))."""
        return self.table[a_exp % self.tower.ell][sig_exp % self.tower.m]

    def grid_table(self):
        """A copy of the ell x m membership table."""
        return [list(row) for row in self.table]


@dataclass(frozen=True)
class BoundParams:
    kind: str  # "bch" | "ht" | "roos"
    b: int
    delta: int
    t: int | None = None  # bch step
    r: int = 0
    t1: int | None = None  # ht
    t2: int | None = None  # ht
    s: int | None = None  # roos
    ks: tuple | None = None  # roos offsets k_0 < ... < k_r

    def as_dict(self):
        d = {"kind": self.kind, "b": self.b, "delta": self.delta, "r": self.r}
        for name in ("t", "t1", "t2", "s"):
            v = getattr(self, name)
            if v is not None:
                d[name] = v
        if self.ks is not None:
            d["ks"] = list(self.ks)
        return d


@dataclass(frozen=True)
class BoundCertificate:
    params: BoundParams
    grid: tuple  # checked (a_exp, sigma_exp) pairs, reduced
    bound: int
    code_id: str
    tower: dict = dfield(default_factory=dict)

    def as_dict(self):
        return {
            "kind": self.params.kind,
            "params": self.params.as_dict(),
            "grid": [list(p) for p in self.grid],
            "bound": self.bound,
            "code_id": self.code_id,
            "tower": self.tower,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data) -> "BoundCertificate":
        """The certificate `as_dict` describes; ParseError on a missing key,
        an unknown kind or a field that is not an integer (b and delta may
        not be null)."""
        _object(data, ("params", "bound", "grid"), "certificate")
        pd = _object(data["params"], ("kind", "b", "delta"), "certificate params")
        if not isinstance(pd["kind"], str) or pd["kind"] not in CHECKERS:
            raise ParseError(f"unknown certificate kind {pd['kind']!r}")
        optional = [key for key in ("r", "t", "t1", "t2", "s") if pd.get(key) is not None]
        fields = {key: _integer(pd[key], key) for key in ("b", "delta", *optional)}
        if pd.get("ks") is not None:
            fields["ks"] = tuple(_integer(k, "ks") for k in _list(pd["ks"], "ks"))
        grid = tuple(
            tuple(_integer(v, "grid") for v in _list(pair, "grid", 2))
            for pair in _list(data["grid"], "grid")
        )
        code_id, tower = data.get("code_id", ""), data.get("tower", {})
        if not isinstance(code_id, str) or not isinstance(tower, dict):
            raise ParseError("certificate code_id must be a string and tower an object")
        return cls(
            BoundParams(pd["kind"], **fields), grid, _integer(data["bound"], "bound"),
            code_id, tower,
        )


def _object(value, keys, what):
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be a JSON object")
    for key in keys:
        if key not in value:
            raise ParseError(f"{what} lacks {key!r}")
    return value


def _integer(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"certificate field {what!r} takes integers, got {value!r}")
    return value


def _list(value, what, length=None):
    if not isinstance(value, list) or length not in (None, len(value)):
        raise ParseError(f"certificate {what} must be a list, got {value!r}")
    return value


def _require_checkable(D: DefiningSetView, p: BoundParams | None = None):
    """Also refuses, given params, a field their family does not read, and delta < 1."""
    if D.tower.N != D.tower.m:
        raise PreconditionViolated("bound checkers require N = m")
    if D.generator is not None and D.generator.is_zero():
        raise ZeroCode("the zero code has no meaningful bound certificate")
    if p is not None:
        for name in ("t", "r", "t1", "t2", "s", "ks"):
            if name not in READS[p.kind] and getattr(p, name) != (0 if name == "r" else None):
                raise PreconditionViolated(f"a {p.kind} certificate does not read {name}")
        if p.delta < 1:
            raise PreconditionViolated("delta >= 1")


def _emit(D: DefiningSetView, p: BoundParams, count, exps, bound, code_id="") -> BoundCertificate:
    """Check the pairs ((b + e) mod ell, e mod m) of the `count` exponents in
    `exps`; more than the grid's ell * m cannot be distinct, so are refused first."""
    t = D.tower
    if count > t.ell * t.m:
        raise PreconditionViolated(f"{count} evaluation pairs exceed the {t.ell} x {t.m} grid")
    reduced = []
    for e in exps:
        key = ((p.b + e) % t.ell, e % t.m)
        if not D.grid_member(*key):
            raise GridNotContained(key)
        reduced.append(key)
    # The theorems count a *set* of evaluation pairs: when ell and m share a
    # factor the exponent patterns can revisit the same reduced pair, which
    # would inflate the bound without adding a vanishing condition.
    if len(set(reduced)) != len(reduced):
        raise PreconditionViolated("evaluation pairs must be pairwise distinct")
    return BoundCertificate(p, tuple(reduced), bound, code_id, t.describe())


def bch_check(D: DefiningSetView, p: BoundParams, code_id="") -> BoundCertificate:
    t = D.tower
    _require_checkable(D, p)
    if p.t is None or gcd(t.n, p.t) != 1:
        raise PreconditionViolated("gcd(n, t) = 1")
    exps = (i * p.t for i in range(p.delta - 1))
    return _emit(D, p, p.delta - 1, exps, p.delta, code_id)


def roos_check(D: DefiningSetView, p: BoundParams, code_id="") -> BoundCertificate:
    t = D.tower
    _require_checkable(D, p)
    ks = p.ks
    if p.s is None or gcd(t.n, p.s) != 1:
        raise PreconditionViolated("gcd(n, s) = 1")
    if p.r < 0:
        raise PreconditionViolated("r >= 0")
    if ks is None or len(ks) != p.r + 1:
        raise PreconditionViolated("k-list length must be r + 1")
    if any(ks[i] >= ks[i + 1] for i in range(len(ks) - 1)):
        raise PreconditionViolated("k-list must be strictly increasing")
    if ks[-1] - ks[0] > p.delta + p.r - 2:
        raise PreconditionViolated("k_r - k_0 <= delta + r - 2")
    if p.delta < 2 and p.r > 0:
        raise PreconditionViolated("delta >= 2 when r > 0")
    exps = (p.s * i + k for i in range(p.delta - 1) for k in ks)
    return _emit(D, p, (p.delta - 1) * len(ks), exps, p.delta + p.r, code_id)


def ht_check(D: DefiningSetView, p: BoundParams, code_id="") -> BoundCertificate:
    t = D.tower
    _require_checkable(D, p)
    if p.t1 is None or gcd(t.n, p.t1) != 1:
        raise PreconditionViolated("gcd(n, t1) = 1")
    if p.t2 is None or gcd(t.n, p.t2) >= p.delta:
        raise PreconditionViolated("gcd(n, t2) < delta")
    if p.r < 0:
        raise PreconditionViolated("r >= 0")
    if p.delta < 2 and p.r > 0:
        raise PreconditionViolated("delta >= 2 when r > 0")
    exps = (i * p.t1 + s * p.t2 for i in range(p.delta - 1) for s in range(p.r + 1))
    return _emit(D, p, (p.delta - 1) * (p.r + 1), exps, p.delta + p.r, code_id)


CHECKERS = {"bch": bch_check, "ht": ht_check, "roos": roos_check}
# The optional BoundParams fields each family reads; the others stay unset.
READS = {"bch": ("t",), "ht": ("r", "t1", "t2"), "roos": ("r", "s", "ks")}


@dataclass(frozen=True)
class SearchLimits:
    delta_max: int | None = None  # default n
    r_max: int | None = None  # default n

    def __post_init__(self):
        for name in ("delta_max", "r_max"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise InvalidParameter(f"{name} must be non-negative, got {value}")


def _units(n):
    return [u for u in range(1, n) if gcd(n, u) == 1]


def best_bound_search(D: DefiningSetView, limits: SearchLimits = SearchLimits(),
                      code_id="") -> BoundCertificate:
    """Exhaustive scan over the three certificate families within caps.

    Ties break by kind order bch < ht < roos, then by the lexicographically
    smallest parameter tuple.  Bound 1 (empty BCH grid) is always available.
    """
    _, kind, key, r = min(_candidates(D, limits), key=lambda c: (-c[0], c[1], c[2]))
    b, delta, step, t1, t2, s, ks = (None if v == -1 else v for v in key)
    params = BoundParams(
        ("bch", "ht", "roos")[kind], b, delta, t=step, r=r, t1=t1, t2=t2, s=s, ks=ks or None
    )
    return CHECKERS[params.kind](D, params, code_id)


def _candidates(D: DefiningSetView, limits: SearchLimits):
    """Yield every certificate the search considers, as (bound, kind index,
    (b, delta, t, t1, t2, s, ks), r); a field the kind does not use is -1,
    or () for ks."""
    t = D.tower
    _require_checkable(D)
    n = t.n
    dmax = n if limits.delta_max is None else limits.delta_max
    rmax = n if limits.r_max is None else limits.r_max
    units = _units(n)
    yield (1, 0, (0, 1, 1, -1, -1, -1, ()), 0)

    # Everything below tracks pairs through the exponent e: with the grid
    # pair at ((b + e) mod ell, e mod m), two exponents hit the same pair
    # exactly when they agree modulo lcm(ell, m).  Membership and pairwise
    # distinctness are therefore lookups on e mod n and e mod lcm.  A set of
    # residues mod lcm is a bit mask.
    lc = (t.ell * t.m) // gcd(t.ell, t.m)
    gcd_n = [gcd(n, k) for k in range(n)]

    # memb reads row (b + e) mod ell, so b and b + ell yield the same
    # candidates and the tie-break keeps the smaller: each start mod ell once
    for b in range(t.ell):
        memb = [D.table[(b + e) % t.ell][e % t.m] for e in range(n)]

        for step in units:
            # base(delta) = {step * i : i < delta - 1} grows by one exponent
            # per delta, and the good offsets k (every base + k a member)
            # shrink by that exponent's test.  Once the base fails, it fails
            # for every larger delta.  shift[k] holds the residues of base + k
            # for a good k, so shift[0] is the base's own; each is a translate
            # of the base's distinct residues, so it has delta - 1 of them.
            # The last delta reached, before a non-member, a repeated residue
            # (delta - 1 = lcm, as step is a unit mod lcm) or dmax, is BCH's.
            good, shift = range(n), [0] * n
            reached = 1
            for delta in range(2, dmax + 1):
                e = (step * (delta - 2)) % n
                if not memb[e] or shift[0] >> (e % lc) & 1:
                    break
                reached = delta
                # ascending, and starts with 0 since the base is all members
                good = [k for k in good if memb[(e + k) % n]]
                for k in good:
                    shift[k] |= 1 << ((e + k) % lc)
                base = shift[0]
                good_set = set(good)

                # ht: extend by columns k = s*t2 while fresh and member; a
                # t2 outside the good offsets stops at r = 0
                for t2 in good[1:]:
                    if gcd_n[t2] >= delta:
                        continue
                    seen = base
                    r = 0
                    while r + 1 <= rmax:
                        k = ((r + 1) * t2) % n
                        if k not in good_set or seen & shift[k]:
                            break
                        seen |= shift[k]
                        r += 1
                    if r >= 1:
                        yield (delta + r, 1, (b, delta, -1, step, t2, -1, ()), r)

                # roos: every offset set {0} | S, S a nonempty subset of the
                # good offsets, with r <= rmax, the window k_r <= delta + r - 2
                # and pairwise-fresh pair residues.  Each condition holds for
                # a set exactly when it holds for every prefix, so the sets
                # grow depth-first in increasing order: a failed window ends
                # the level (later offsets are larger), a residue collision
                # skips one offset.
                pos = good[1:]
                fresh = [shift[k] for k in pos]

                def grow(ks, seen, start):
                    r = len(ks)  # r of ks plus one more offset
                    if r > rmax:
                        return
                    for i in range(start, len(pos)):
                        if pos[i] > delta + r - 2:
                            break
                        if seen & fresh[i]:
                            continue
                        ks_i = ks + (pos[i],)
                        yield (delta + r, 2, (b, delta, -1, -1, -1, step, ks_i), r)
                        yield from grow(ks_i, seen | fresh[i], i + 1)

                yield from grow((0,), base, 0)

            if reached >= 2:
                yield (reached, 0, (b, reached, step, -1, -1, -1, ()), 0)


# -- linearized Reed-Solomon rank oracles -----------------------------------


def lrs_generator_matrix(t: FieldTower, a: int, beta: int, b: int, k: int):
    """The k x n block matrix (D_0 | ... | D_{ell-1}) over L with
    D_i[row][col] = sigma^{row+col}(beta) * a^{(b+row)*i}; a and beta are
    L-encodings."""
    if t.L.pow(a, t.ell) != 1 or (t.ell > 1 and t.L.mult_order(a) != t.ell):
        raise NotPrimitive("a must be a primitive ell-th root of unity")
    if not is_normal(t, beta):
        raise NotNormal("beta must be normal for L/K")
    if not 1 <= k <= t.n:
        raise PreconditionViolated("1 <= k <= n")
    L = t.L
    rows = []
    for row in range(k):
        out = []
        for i in range(t.ell):
            scale = L.pow(a, (b + row) * i)
            for col in range(t.m):
                out.append(L.mul(t.sigma(beta, (row + col) % t.m), scale))
        rows.append(out)
    return rows


def selection_rank_oracle(t: FieldTower, a: int, beta: int, selections, k_list, s: int,
                          i: int, b: int = 0) -> int:
    """Exact rank over L of the stacked column-selection matrix A_i.

    `selections` picks, per block, indices into the conjugate basis
    {beta, sigma(beta), ..., sigma^{m-1}(beta)} scaled by a^{b*block}; the
    stacked matrix twists row group u by sigma^{u*s} and scales block `blk`
    by a^{blk*u*s}.
    """
    L = t.L
    if len(selections) != t.ell:
        raise PreconditionViolated("one selection list per block")
    total = sum(len(sel) for sel in selections)
    r = len(k_list) - 1
    t_steps = total - r
    if t_steps < 1:
        raise SelectionTooSmall(f"need more than r = {r} selected columns")
    if any(k_list[j] >= k_list[j + 1] for j in range(r)):
        raise PreconditionViolated("k-list must be strictly increasing")
    if k_list[-1] - k_list[0] > t_steps + r - 1:
        raise PreconditionViolated("k_r - k_0 <= t + r - 1")
    if gcd(s, t.n) != 1:
        raise PreconditionViolated("gcd(s, ell*m) = 1")
    if not 0 <= i <= t_steps - 1:
        raise PreconditionViolated("0 <= i <= t - 1")
    if t.ell % t.p == 0 or gcd(t.ell, t.m) != 1:
        raise PreconditionViolated("ell coprime with char and with m")
    rows = []
    for u in range(i + 1):
        for k in k_list:
            row = []
            for blk, sel in enumerate(selections):
                for idx in sel:
                    alpha = L.mul(t.sigma(beta, idx), L.pow(a, b * blk))
                    entry = L.mul(t.sigma(alpha, k), L.pow(a, k * blk))
                    entry = L.mul(t.sigma(entry, u * s), L.pow(a, blk * u * s))
                    row.append(entry)
            rows.append(row)
    return linalg.rank(rows, L)
