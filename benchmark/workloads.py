"""Inputs, ops and correctness checks of the three workloads.

Every op receives only inputs generated here from the seed.  An op never
raises: it returns an `Outcome`, and an op fails when the library raises,
when a distance disagrees with its oracle, when a certificate does not
re-verify, or when a certified bound exceeds the exact distance.

`KNOWN_DEFECT` failures are the defects ROADMAP item 1 lists: the unsound
certificates of its counterexamples on (5,1,2,1,4,2) and (7,1,2,1,6,2) and of
seeded general codes on those two towers, and the CLI inputs that end in a
traceback instead of exit code 2.  They are counted as failed ops; any other
failure makes the run incorrect.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from math import gcd
from types import SimpleNamespace

from sumrank import bivar, bounds, codes, product, tower
from sumrank.errors import SumrankError
from sumrank.skew import SkewPoly

from tracer import Tracer

OK, FAILED, KNOWN_DEFECT = "ok", "failed", "known_defect"

SWEEP_TOWER = (2, 1, 3, 2, 3, 3)
# dimensions of the seeded general codes g = r*f1*f2; k <= 4 lands on a product
# code, so those repeat a distance key.  The k = 5 codes are distinct new codes
# without a weight-1 codeword, so the kernel enumerates each of them fully.
SWEEP_GENERAL_K = (1, 2, 3, 4) + (5,) * 18
# oracle scans enumerate |F|^k codewords in pure Python; ops scan codes up to
# SCAN_LIMIT, and input generation scans one k = 5 sweep code (8^5 codewords)
SCAN_LIMIT = 625
# largest factor code space (|F|^k) whose exact distance an op computes;
# keeps k1 = 3 on F49, so the (7,1,2,1,6,2) counterexamples stay in
FACTOR_SPACE_CAP = 200_000

N15 = (2, 1, 3, 4, 5, 3)
N28 = (2, 1, 4, 3, 7, 4)
ODD5 = (5, 1, 2, 1, 4, 2)
ODD7 = (7, 1, 2, 1, 6, 2)
# Product codes certified per pass: None takes every code within the factor
# space cap; a list draws the given number of codes from each stratum of
# (grid pairs, k1), where None matches anything.  Strata keep a pass's cost
# the same from seed to seed.  n = 28 codes with 19 or more grid pairs are not
# drawn: one search takes more than 20 s on them.
CERTIFY_PRODUCT = {
    N15: None,
    N28: [((16, 3), 1), ((12, None), 1)],
    ODD5: None,
    ODD7: [((range(0, 9), range(1, 3)), 6)],
}
# ROADMAP item 1 counterexamples, as (f1, f2) coefficient lists, low degree
# first; every pass certifies all of them.  They are the only product codes
# whose unsound certificate is a known defect; on these two towers seeded
# general codes may have one too.
ODD_COUNTEREXAMPLES = {
    ODD5: [((1, 0, 1), (13, 1)), ((1, 0, 1), (16, 1)), ((4, 0, 1), (13, 1)), ((4, 0, 1), (16, 1))],
    ODD7: [((1, 0, 0, 1), (17, 1)), ((1, 0, 0, 1), (36, 1)), ((6, 0, 0, 1), (17, 1)), ((6, 0, 0, 1), (36, 1))],
}
# dimensions of the seeded general codes g = r*f1*f2 on the odd towers
CERTIFY_GENERAL_K = {ODD5: (2, 2), ODD7: (2, 2, 2)}


@dataclass
class Outcome:
    status: str
    tight: bool | None = None  # certified bound == exact distance
    detail: str = ""


def library(tracer):
    """The entry points ops call, wrapped in spans when tracing."""
    def grid(t, g):
        D = bounds.DefiningSetView.from_generator(t, g)
        D.grid_table()
        return D

    def check(D, params, code_id):
        return bounds.CHECKERS[params.kind](D, params, code_id)

    def counted(corpus):
        def enumerate_divisors(t):
            out = corpus(t)
            tracer.note("corpus_divisors", len(out))
            return out
        return enumerate_divisors

    entries = {
        "build_tower": ("tower.build", tower.build_tower, None),
        "corpus_f1": ("product.corpus", counted(product.corpus_f1), None),
        "corpus_f2": ("product.corpus", counted(product.corpus_f2), None),
        "product_generator_poly": ("codes.build", product.product_generator_poly, None),
        "code_from_skew_generator": ("codes.build", codes.code_from_skew_generator, None),
        "min_distance": ("codes.distance", codes.min_distance_bruteforce, Tracer.distance_key),
        "grid": ("bounds.grid", grid, None),
        "search": ("bounds.search", bounds.best_bound_search, None),
        "check": ("bounds.check", check, None),
        "product_code": ("product.factor", product.product_code_from_polys, None),
        "factor_distances": ("product.factor", product.factor_distances, None),
        "scan_distance": ("codes.scan", scan_distance, None),
    }
    lib = {}
    for name, (span, fn, before) in entries.items():
        if tracer.enabled:
            fn = tracer.wrap(span, fn, before)
        lib[name] = fn
    return SimpleNamespace(**lib)


def scan_distance(C):
    """Exact distance by a direct `sumrank_weight` scan, without the kernel."""
    return min(codes.sumrank_weight(C.tower, c, C.partition) for c in C.codewords() if any(c))


def prepare(lib, specs):
    """Library set-up: each tower, its generator corpora and its kernel tables
    (one distance query on a weight-1 code builds the tables)."""
    towers = {}
    for spec in specs:
        t = lib.build_tower(*spec)
        towers[spec] = (t, lib.corpus_f1(t), lib.corpus_f2(t))
        row = [1] + [0] * (t.n - 1)
        lib.min_distance(codes.LinearCode(t, [row], codes.Partition.equal(t.ell, t.N)))
    return towers


def _random_bivar(t, rng):
    q = t.F.order
    return bivar.BivarPoly.from_lists(
        t, "F", [[rng.randrange(q) for _ in range(t.N)] for _ in range(t.ell)]
    )


def _dims(t, f1, f2):
    return t.ell - (len(f1) - 1), t.N - f2.degree


def _has_weight_one(t, C):
    """Whether C holds a codeword with one nonzero block of E-rank 1, i.e. a
    block a*u with a in F and u in E^N."""
    lifted = [t.lift(e, "E", "F") for e in range(t.E.order)]
    blocks = {tuple(t.F.mul(a, lifted[e]) for e in u)
              for a in range(1, t.F.order)
              for u in itertools.product(range(t.E.order), repeat=t.N) if any(u)}
    zero = (0,) * t.N
    return any(
        C.contains(zero * i + b + zero * (t.ell - 1 - i)) for i in range(t.ell) for b in blocks
    )


def _general_codes(t, pairs, rng, dims, min_k_full=None):
    """Seeded codes g = r*f1*f2 with the given dimensions, in order, each with
    the pair (f1, f2) it was drawn from; codes of dimension >= min_k_full are
    distinct and have no weight-1 codeword."""
    out = []
    seen = set()
    for k in dims:
        while True:
            f1, f2 = rng.choice(pairs)
            k1, k2 = _dims(t, f1, f2)
            if k1 * k2 < k:
                continue
            g = bivar.biv_mul(_random_bivar(t, rng), product.product_generator_poly(t, f1, f2))
            C = codes.code_from_skew_generator(g, t)
            if C.k != k:
                continue
            if min_k_full is not None and k >= min_k_full:
                if C.G in seen or _has_weight_one(t, C):
                    continue
                seen.add(C.G)
            out.append((g, (f1, f2)))
            break
    return out


def _spec(t):
    return (t.p, t.e_deg, t.m, t.h, t.ell, t.N)


def _soundness(t, bound, d, counts_tight, known=False):
    """Outcome of comparing a certified bound with the exact distance; an
    unsound bound is a known defect only where `known` says so.

    Only ops whose inputs vary little with the seed count towards
    `tight_share`: product codes, and the CLI specs."""
    tight = bound == d if counts_tight else None
    if bound <= d:
        return Outcome(OK, tight)
    return Outcome(KNOWN_DEFECT if known else FAILED, tight,
                   f"certified bound {bound} > exact distance {d} on {_spec(t)}")


def _check_inside(lib, t, d, pair):
    """A general code g = r*f1*f2 lies inside the product code of (f1, f2),
    so its distance is at least d_H*d_R of that pair; None when it is."""
    dH, dR = lib.factor_distances(lib.product_code(t, *pair))
    if d < dH * dR:
        return Outcome(FAILED, None, f"d = {d} below dH*dR = {dH * dR} of the product code around it")
    return None


def _certify(lib, t, g, C):
    D = lib.grid(t, g)
    cert = lib.search(D, code_id=C.code_id())
    again = lib.check(D, cert.params, C.code_id())
    if again.bound != cert.bound or again.grid != cert.grid:
        return None, f"certificate {cert.params} does not re-verify"
    return cert, ""


def guarded(op):
    """Run an op; an exception is a failed op, reported by name."""
    def run(*args):
        try:
            return op(*args)
        except Exception as exc:  # a failing op is counted, not fatal
            return Outcome(FAILED, None, f"{type(exc).__name__}: {exc}")
    return run


# -- sweep ---------------------------------------------------------------------


def sweep_ops(lib, towers, rng, workdir):
    t, f1s, f2s = towers[SWEEP_TOWER]
    pairs = [(f1, f2) for f1 in f1s for f2 in f2s if all(_dims(t, f1, f2))]
    items = [("product", lib.product_generator_poly(t, *pair), pair, None) for pair in pairs]
    general = _general_codes(t, pairs, rng, SWEEP_GENERAL_K, min_k_full=5)
    # the k = 5 codes are too large to scan in an op; the first one is
    # scanned here, outside the timed ops
    first_full = next(i for i, k in enumerate(SWEEP_GENERAL_K) if k == 5)
    for i, (g, pair) in enumerate(general):
        exact = scan_distance(codes.code_from_skew_generator(g, t)) if i == first_full else None
        items.append(("general", g, pair, exact))
    rng.shuffle(items)
    return [(kind, guarded(_sweep_op), (lib, t, kind, g, pair, exact))
            for kind, g, pair, exact in items]


def _sweep_op(lib, t, kind, g, pair, exact):
    """`exact` is the distance from a scan made outside the op, or None."""
    C = lib.code_from_skew_generator(g, t)
    d = lib.min_distance(C)
    if kind == "product":
        dH, dR = lib.factor_distances(lib.product_code(t, *pair))
        if d != dH * dR:
            return Outcome(FAILED, None, f"d = {d} but dH*dR = {dH * dR}")
    else:
        outside = _check_inside(lib, t, d, pair)
        if outside is not None:
            return outside
    if exact is None and C.field.order ** C.k <= SCAN_LIMIT:
        exact = lib.scan_distance(C)
    if exact is not None and exact != d:
        return Outcome(FAILED, None, f"kernel distance {d} disagrees with the scan ({exact})")
    cert, why = _certify(lib, t, g, C)
    if cert is None:
        return Outcome(FAILED, None, why)
    return _soundness(t, cert.bound, d, kind == "product")


# -- certify -------------------------------------------------------------------


def _matches(want, value):
    return want is None or (value in want if isinstance(want, range) else value == want)


def _factor_space_ok(t, f1, f2):
    k1, k2 = _dims(t, f1, f2)
    q = t.F.order
    return k1 and k2 and q**k1 <= FACTOR_SPACE_CAP and q**k2 <= FACTOR_SPACE_CAP


def _stratified(t, pairs, rng, strata):
    """Draw product codes per (grid pairs, k1) stratum, in seeded order."""
    want = [n for _, n in strata]
    out = []
    order = list(pairs)
    rng.shuffle(order)
    for f1, f2 in order:
        if not any(want):
            break
        D = bounds.DefiningSetView.from_generator(t, product.product_generator_poly(t, f1, f2))
        npairs = sum(map(sum, D.grid_table()))
        k1 = _dims(t, f1, f2)[0]
        for i, (key, _) in enumerate(strata):
            if want[i] and _matches(key[0], npairs) and _matches(key[1], k1):
                want[i] -= 1
                out.append((f1, f2))
                break
    if any(want):
        raise RuntimeError(f"corpus of {t} cannot fill the strata {strata}")
    return out


def certify_ops(lib, towers, rng, workdir):
    items = []
    for spec, strata in CERTIFY_PRODUCT.items():
        t, f1s, f2s = towers[spec]
        pairs = [(f1, f2) for f1 in f1s for f2 in f2s if _factor_space_ok(t, f1, f2)]
        known = [(f1, SkewPoly(t, "F", f2)) for f1, f2 in ODD_COUNTEREXAMPLES.get(spec, ())]
        if any(p not in pairs for p in known):
            raise RuntimeError(f"a ROADMAP counterexample is missing from the corpus of {t}")
        if strata is None:
            chosen = pairs
        else:
            chosen = known + _stratified(t, [p for p in pairs if p not in known], rng, strata)
        items += [("product", (lib, t, f1, f2, (f1, f2) in known)) for f1, f2 in chosen]
        small = [(f1, f2) for f1, f2 in pairs if _dims(t, f1, f2)[0] <= 2]
        general = _general_codes(t, small, rng, CERTIFY_GENERAL_K.get(spec, ()))
        items += [("general", (lib, t, g, pair, spec in ODD_COUNTEREXAMPLES)) for g, pair in general]
    rng.shuffle(items)
    ops = {"product": guarded(_certify_product_op), "general": guarded(_certify_general_op)}
    return [(kind, ops[kind], args) for kind, args in items]


def _certify_product_op(lib, t, f1, f2, known):
    """`known`: (f1, f2) is a ROADMAP item 1 counterexample."""
    g = lib.product_generator_poly(t, f1, f2)
    C = lib.code_from_skew_generator(g, t)
    cert, why = _certify(lib, t, g, C)
    if cert is None:
        return Outcome(FAILED, None, why)
    dH, dR = lib.factor_distances(lib.product_code(t, f1, f2))
    return _soundness(t, cert.bound, dH * dR, True, known)


def _certify_general_op(lib, t, g, pair, known):
    """`known`: the tower is one on which ROADMAP item 1 lists unsound
    certificates."""
    C = lib.code_from_skew_generator(g, t)
    cert, why = _certify(lib, t, g, C)
    if cert is None:
        return Outcome(FAILED, None, why)
    d = lib.min_distance(C)
    outside = _check_inside(lib, t, d, pair)
    if outside is not None:
        return outside
    if C.field.order ** C.k <= SCAN_LIMIT and lib.scan_distance(C) != d:
        return Outcome(FAILED, None, f"kernel distance {d} disagrees with the scan")
    return _soundness(t, cert.bound, d, False, known)


# -- cli -----------------------------------------------------------------------

CLI_N9 = (2, 1, 3, 2, 3, 3)
CLI_N15 = (2, 1, 3, 4, 5, 3)
# every spec's code has this dimension, so an op's cost varies little with the seed
CLI_K = 2
# inputs that must exit 2 but end in a traceback today (ROADMAP item 1)
CLI_ERROR_CONTRACT = ("missing_spec", "verify_without_params", "tower_zero_degree", "tower_field_too_big")


def _poly_text(coeffs, var):
    return " + ".join(
        f"{c}*{var}^{i}" if i else str(c) for i, c in enumerate(coeffs) if c
    ) or "0"


def _bivar_text(g):
    terms = [
        f"{c}*x^{i}*z^{j}" for i, row in enumerate(g.coeffs) for j, c in enumerate(row) if c
    ]
    return " + ".join(terms) or "0"


def _spec_text(spec, generator):
    p, e_deg, m, h, ell, N = spec
    head = f"[tower]\np = {p}\ne_deg = {e_deg}\nm = {m}\nh = {h}\nell = {ell}\nN = {N}\n\n[generator]\n"
    return head + "".join(f"{k} = {v}\n" for k, v in generator.items())


def _tower_args(spec):
    p, e_deg, m, h, ell, N = spec
    return ["tower", "--p", str(p), "--e-deg", str(e_deg), "--m", str(m),
            "--h", str(h), "--ell", str(ell), "--N", str(N)]


def _best_params(t, D, code_id):
    """The valid certificate of each family with the largest bound, over a
    small parameter grid; any family may be missing."""
    n = t.n
    units = [u for u in range(1, n) if gcd(n, u) == 1][:3]
    found = {}
    trials = []
    for b in range(n):
        for s in units:
            for delta in range(2, 5):
                trials.append(bounds.BoundParams("bch", b, delta, t=s))
                for r in range(0, 3):
                    for t2 in units:
                        trials.append(bounds.BoundParams("ht", b, delta, r=r, t1=s, t2=t2))
                for ks in ((0,), (0, 1), (0, 2)):
                    trials.append(bounds.BoundParams("roos", b, delta, r=len(ks) - 1, s=s, ks=ks))
    for params in trials:
        try:
            cert = bounds.CHECKERS[params.kind](D, params, code_id)
        except SumrankError:
            continue
        if params.kind not in found or cert.bound > found[params.kind].bound:
            found[params.kind] = cert
    return found


def _certify_args(cert):
    p = cert.params
    if p.kind == "bch":
        extra = ["--t", str(p.t)]
    elif p.kind == "ht":
        extra = ["--t1", str(p.t1), "--t2", str(p.t2), "--r", str(p.r)]
    else:
        extra = ["--s", str(p.s), "--k", ",".join(map(str, p.ks))]
    return ["certify", p.kind, "--b", str(p.b), "--delta", str(p.delta)] + extra


class CliSpec:
    """A spec file plus the in-process answers the CLI must reproduce."""

    def __init__(self, name, spec, t, generator_text, g, factors, workdir):
        self.name = name
        self.path = os.path.join(workdir, f"{name}.ini")
        with open(self.path, "w") as fh:
            fh.write(_spec_text(spec, generator_text))
        self.code = codes.code_from_skew_generator(g, t)
        self.d = codes.min_distance_bruteforce(self.code)
        D = bounds.DefiningSetView.from_generator(t, g)
        self.bound = bounds.best_bound_search(D, code_id=self.code.code_id()).bound
        if factors is not None:
            dH, dR = product.factor_distances(product.product_code_from_polys(t, *factors))
            if dH * dR != self.d:
                raise RuntimeError(f"oracle disagreement on {name}: d = {self.d}, dH*dR = {dH * dR}")
            self.dH, self.dR = dH, dR
        self.certs = _best_params(t, D, self.code.code_id())


def _cli_product_specs(spec, t, rng, count, workdir):
    """Seeded product codes of dimension CLI_K whose best certificate is tight
    and that have a certificate of every family."""
    f1s, f2s = product.corpus_f1(t), product.corpus_f2(t)
    pairs = [(f1, f2) for f1 in f1s for f2 in f2s if _dims(t, f1, f2)[0] * _dims(t, f1, f2)[1] == CLI_K]
    rng.shuffle(pairs)
    out = []
    for f1, f2 in pairs:
        text = {"f1": _poly_text(f1, "x"), "f2": _poly_text(f2.coeffs, "z")}
        g = product.product_generator_poly(t, f1, f2)
        s = CliSpec(f"n{t.n}_product{len(out)}", spec, t, text, g, (f1, f2), workdir)
        if len(s.certs) == 3 and s.bound == s.d:
            out.append(s)
        if len(out) == count:
            return out
    raise RuntimeError(f"too few product codes with all certificate families on {t}")


def cli_ops(lib, towers, rng, workdir):
    t9 = tower.build_tower(*CLI_N9)
    t15 = tower.build_tower(*CLI_N15)
    # more n = 9 ops than n = 15 ones, so the median op is an n = 9 one
    a, a2 = _cli_product_specs(CLI_N9, t9, rng, 2, workdir)
    c, = _cli_product_specs(CLI_N15, t15, rng, 1, workdir)
    pairs9 = [(f1, f2) for f1 in product.corpus_f1(t9) for f2 in product.corpus_f2(t9) if all(_dims(t9, f1, f2))]
    while True:
        (g, _), = _general_codes(t9, pairs9, rng, (CLI_K,))
        b = CliSpec("n9_general", CLI_N9, t9, {"g": _bivar_text(g)}, g, None, workdir)
        if b.bound == b.d:
            break

    ops = [("tower", _tower_args(CLI_N9), t9), ("tower", _tower_args(CLI_N15), t15)]
    for s in (a, a2, b, c):
        ops += [("code_build", ["code", "build", "--code", s.path], s),
                ("distance", ["distance", "--code", s.path], s),
                ("search", ["search", "--code", s.path], s),
                ("verify", None, s)]
    for s in (a, c):
        ops += [("certify", _certify_args(cert) + ["--code", s.path], cert)
                for cert in s.certs.values()]
    ops += [("product", ["product", "--code1", s.path, "--code2", s.path], s) for s in (a, c)]

    bad_spec = os.path.join(workdir, "bad_token.ini")
    with open(bad_spec, "w") as fh:
        fh.write(_spec_text(CLI_N9, {"f1": "x + q", "f2": "z + 1"}))
    no_params = os.path.join(workdir, "no_params.json")
    missing = os.path.join(workdir, "does_not_exist.ini")
    ops += [("error", ["distance", "--code", missing], "missing_spec"),
            ("error", ["verify", "--certificate", no_params, "--code", a.path], "verify_without_params"),
            ("error", ["tower", "--p", "2", "--m", "0", "--h", "1", "--ell", "1", "--N", "1"],
             "tower_zero_degree"),
            ("error", ["tower", "--p", "2", "--m", "3", "--h", "7", "--ell", "1", "--N", "3"],
             "tower_field_too_big"),
            ("error", ["code", "build", "--code", bad_spec], "bad_token"),
            ("error", ["certify", "bch", "--code", a.path, "--b", "0", "--t", "1",
                       "--delta", str(a.d + 5)], "bound_beyond_defining_set")]
    rng.shuffle(ops)
    # verify ops read the certificates that the search ops write
    ops.sort(key=lambda op: op[0] == "verify" or op[2] == "verify_without_params")
    state = SimpleNamespace(workdir=workdir, no_params=no_params, no_params_spec=a.name, certs={})
    return [(kind, guarded(CliOp(kind, argv, expect, state)), ()) for kind, argv, expect in ops]


class CliOp:
    """One `python -m sumrank.cli` subprocess and the check of its output."""

    runner = None  # set by the worker: argv -> CompletedProcess

    def __init__(self, kind, argv, expect, state):
        self.kind, self.argv, self.expect, self.state = kind, argv, expect, state

    def __call__(self):
        argv = self.argv
        if self.kind == "verify":
            cert_path = self.state.certs.get(self.expect.name)
            if cert_path is None:
                return Outcome(FAILED, None, "no certificate: the search op failed")
            argv = ["verify", "--certificate", cert_path, "--code", self.expect.path]
        proc = CliOp.runner(argv)
        try:
            return self.check(proc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return Outcome(FAILED, None, f"unreadable report: {type(exc).__name__}: {exc}")

    def check(self, proc):
        kind, want = self.kind, self.expect
        if kind == "error":
            if proc.returncode == 2 and "error" in json.loads(proc.stderr):
                return Outcome(OK)
            status = FAILED
            if want in CLI_ERROR_CONTRACT and proc.returncode == 1 and "Traceback" in proc.stderr:
                status = KNOWN_DEFECT
            return Outcome(status, None, f"{want}: exit {proc.returncode}, expected 2")
        if proc.returncode != 0:
            return Outcome(FAILED, None, f"exit {proc.returncode}: {proc.stderr[-200:]}")
        report = json.loads(proc.stdout)
        if kind == "tower":
            ok = json.loads(json.dumps(want.describe())) == report["tower"]
            return Outcome(OK if ok else FAILED, None, "" if ok else "tower description differs")
        if kind == "code_build":
            ok = (report["code"]["code_id"] == want.code.code_id()
                  and report["code"]["k"] == want.code.k
                  and report["code"]["cyclic_skew_cyclic"] is True)
            return Outcome(OK if ok else FAILED, None, "" if ok else "code differs")
        if kind == "distance":
            ok = report["d"] == want.d
            return Outcome(OK if ok else FAILED, None, "" if ok else f"d = {report['d']} != {want.d}")
        if kind == "search":
            cert = report["certificate"]
            path = os.path.join(self.state.workdir, f"{want.name}.cert.json")
            with open(path, "w") as fh:
                json.dump(cert, fh)
            self.state.certs[want.name] = path
            if want.name == self.state.no_params_spec:
                # the malformed-certificate op reuses this certificate
                with open(self.state.no_params, "w") as fh:
                    json.dump({k: v for k, v in cert.items() if k != "params"}, fh)
            if cert["bound"] != want.bound:
                return Outcome(FAILED, None, f"search bound {cert['bound']} != {want.bound}")
            return _soundness(want.code.tower, cert["bound"], want.d, True)
        if kind == "verify":
            ok = report["verified"] is True
            return Outcome(OK if ok else FAILED, None, "" if ok else "not verified")
        if kind == "certify":
            ok = report["certificate"]["bound"] == want.bound
            return Outcome(OK if ok else FAILED, None, "" if ok else "certificate bound differs")
        if kind == "product":
            if (report["dH"], report["dR"], report["dSR"]) != (want.dH, want.dR, want.d):
                return Outcome(FAILED, None, "product distances differ")
            return _soundness(want.code.tower, report["bounds"][0]["bound"], want.d, True)
        raise ValueError(f"unknown cli op {kind}")


# towers each workload sets up before its first op, and its op generator; the
# cli workload's set-up happens in every CLI process instead
WORKLOADS = {
    "sweep": ((SWEEP_TOWER,), sweep_ops),
    "certify": (tuple(CERTIFY_PRODUCT), certify_ops),
    "cli": ((), cli_ops),
}


def run_cli(argv, env, cwd, program=None):
    """Run the CLI (or a script that wraps it) as a subprocess."""
    head = ["-m", "sumrank.cli"] if program is None else [program]
    return subprocess.run([sys.executable] + head + argv, env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


