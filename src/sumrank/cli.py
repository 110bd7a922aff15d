"""Command-line surface: towers, codes, distances, certificates, products.

Exit codes: 0 success, 2 precondition/hypothesis violation (the violated
hypothesis is named in the report), 3 enumeration budget exhausted.  Output
is JSON on stdout by default; `--format text` renders a human summary.
"""

from __future__ import annotations

import argparse
import configparser
import json
import re
import sys
import time

from . import __version__
from .bivar import BivarPoly, nu_map
from .bounds import (
    CHECKERS,
    BoundCertificate,
    BoundParams,
    DefiningSetView,
    SearchLimits,
    best_bound_search,
    common_zeros,
)
from .codes import (
    LinearCode,
    Partition,
    code_from_skew_generator,
    is_cyclic_skew_cyclic,
    min_distance_bruteforce,
)
from .errors import (
    BudgetExceeded,
    ParseError,
    PreconditionViolated,
    SumrankError,
    TowerMismatch,
    UnreadableInput,
    ZeroCode,
)
from .product import factor_distances, product_code_from_polys, product_generator_poly
from .skew import SkewPoly, parse_coeff, parse_poly, parse_terms
from .tower import FieldTower, build_tower


def split_items(text: str, what: str):
    """Items split at commas and/or whitespace; an empty one ("1,,0") is a ParseError."""
    items = re.split(r"\s*,\s*|\s+", text.strip())
    if "" in items:
        raise ParseError(f"{what} has an empty item: {text!r}")
    return items


def parse_bivar(text: str, tower: FieldTower, level: str = "F") -> BivarPoly:
    """Parse "g^3*x^2*z + x + 1" style text into a coefficient grid;
    coefficients as in `parse_coeff`, exponents reduced mod (ell, N)."""
    gf = tower.gf(level)
    grid = [[0] * tower.N for _ in range(tower.ell)]
    for c, exps in parse_terms(text, gf, "xz"):
        i, j = exps.get("x", 0) % tower.ell, exps.get("z", 0) % tower.N
        grid[i][j] = gf.add(grid[i][j], c)
    return BivarPoly.from_lists(tower, level, grid)


class CodeSpec:
    """Parsed code-spec file: a tower plus a matrix or generator data."""

    def __init__(self, tower, code, generator=None, f1=None, f2=None):
        self.tower = tower
        self.code = code
        self.generator = generator  # BivarPoly or None
        self.f1 = f1
        self.f2 = f2

    def defining_view(self) -> DefiningSetView:
        """The defining set the certificates read.  They bound the sum-rank
        distance for ell blocks of size N only, so other partitions are
        refused, as is a matrix code with no rows."""
        t = self.tower
        if self.code.partition != Partition.equal(t.ell, t.N):
            raise PreconditionViolated(
                f"certificates need the partition into {t.ell} blocks of size {t.N}"
            )
        if self.generator is not None:
            return DefiningSetView.from_generator(t, self.generator)
        if self.code.k == 0:
            raise ZeroCode("the zero code has no meaningful bound certificate")
        return DefiningSetView(t, None, common_zeros(t, [nu_map(r, t) for r in self.code.G]))


def parse_code_spec(text: str) -> CodeSpec:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keep key case: N and n differ
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParseError(str(exc))
    if "tower" not in cp:
        raise ParseError("missing [tower] section")
    tw = dict(cp["tower"])
    tw.setdefault("N", tw.get("n"))
    keys = ("p", "m", "h", "ell", "N")
    missing = [key for key in keys if tw.get(key) is None]
    if missing:
        raise ParseError(f"[tower] lacks {', '.join(missing)}")
    try:
        p, m, h, ell, N = (int(tw[key]) for key in keys)
        t = build_tower(p, int(tw.get("e_deg", 1)), m, h, ell, N)
    except ValueError as exc:
        raise ParseError(f"bad [tower] section: {exc}")
    if "matrix" in cp:
        sec = cp["matrix"]
        raw = sec.get("rows", "")
        rows = []
        for line in raw.replace(";", "\n").splitlines():
            line = line.strip()
            if not line:
                continue
            rows.append([parse_coeff(tok, t.F) for tok in split_items(line, "a row")])
        parts_raw = sec.get("parts", "")
        if parts_raw:
            try:
                part = Partition(tuple(int(x) for x in split_items(parts_raw, "parts")))
            except ValueError:
                raise ParseError(f"bad parts {parts_raw!r}")
        else:
            part = Partition.equal(t.ell, t.N)
        code = LinearCode(t, rows, part)
        return CodeSpec(t, code)
    if "generator" in cp:
        sec = cp["generator"]
        if sec.get("g"):
            g = parse_bivar(sec.get("g"), t)
            code = code_from_skew_generator(g, t)
            return CodeSpec(t, code, generator=g)
        f1_text, f2_text = sec.get("f1"), sec.get("f2")
        if f1_text is None or f2_text is None:
            raise ParseError("[generator] needs g= or both f1= and f2=")
        # a divisor of x^ell - 1 or of z^N - 1 has no higher degree
        f1 = parse_poly(f1_text, t, "F", "x", max_deg=t.ell)
        f2 = SkewPoly(t, "F", parse_poly(f2_text, t, "F", "z", max_deg=t.N))
        g = product_generator_poly(t, f1, f2)
        code = code_from_skew_generator(g, t)
        return CodeSpec(t, code, generator=g, f1=f1, f2=f2)
    raise ParseError("need a [matrix] or [generator] section")


def _read(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UnreadableInput(f"cannot read {what} {path!r}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise UnreadableInput(f"{what} {path!r} is not UTF-8 text: {exc.reason}")


def load_code_spec(path: str) -> CodeSpec:
    return parse_code_spec(_read(path, "code spec"))


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    lines = []

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}- {v}")

    walk(report)
    return "\n".join(lines)


def _report(args, payload: dict, timings: dict | None = None) -> None:
    report = {"version": __version__}
    report.update(payload)
    if timings:
        report["timings"] = timings
    print(_render(report, args.format))


def cmd_tower(args) -> int:
    t = build_tower(args.p, args.e_deg, args.m, args.h, args.ell, args.N)
    _report(args, {"tower": t.describe()})
    return 0


def cmd_code_build(args) -> int:
    spec = load_code_spec(args.code)
    payload = {"tower": spec.tower.describe(), "code": spec.code.describe()}
    # the shifts act on ell blocks of size N: other lengths have no answer
    csc = is_cyclic_skew_cyclic(spec.code) if spec.code.n == spec.tower.n else None
    payload["code"]["cyclic_skew_cyclic"] = csc
    if spec.generator is not None:
        payload["generator"] = str(spec.generator)
    _report(args, payload)
    return 0


def cmd_distance(args) -> int:
    spec = load_code_spec(args.code)
    t0 = time.perf_counter()
    d = min_distance_bruteforce(spec.code, metric=args.metric)
    dt = time.perf_counter() - t0
    _report(
        args,
        {"d": d, "metric": args.metric, "code_id": spec.code.code_id()},
        {"distance_seconds": round(dt, 6)},
    )
    return 0


def _params_from_args(args) -> BoundParams:
    if args.kind == "bch":
        return BoundParams("bch", args.b, args.delta, t=args.t)
    if args.kind == "ht":
        return BoundParams("ht", args.b, args.delta, r=args.r, t1=args.t1, t2=args.t2)
    try:
        ks = tuple(int(x) for x in split_items(args.k, "--k"))
    except ValueError:
        raise ParseError(f"--k takes comma-separated integers, got {args.k!r}")
    return BoundParams("roos", args.b, args.delta, r=len(ks) - 1, s=args.s, ks=ks)


def cmd_certify(args) -> int:
    spec = load_code_spec(args.code)
    D = spec.defining_view()
    params = _params_from_args(args)
    cert = CHECKERS[args.kind](D, params, spec.code.code_id())
    _report(args, {"certificate": cert.as_dict()})
    return 0


def cmd_search(args) -> int:
    spec = load_code_spec(args.code)
    D = spec.defining_view()
    limits = SearchLimits(args.delta_max, args.r_max)
    t0 = time.perf_counter()
    cert = best_bound_search(D, limits, spec.code.code_id())
    dt = time.perf_counter() - t0
    _report(args, {"certificate": cert.as_dict()}, {"search_seconds": round(dt, 6)})
    return 0


def cmd_product(args) -> int:
    spec1 = load_code_spec(args.code1)
    spec2 = load_code_spec(args.code2)
    if spec1.tower != spec2.tower:
        raise TowerMismatch("the two code specs use different towers")
    if spec1.f1 is None or spec2.f2 is None:
        raise ParseError("product needs f1 in the first spec and f2 in the second")
    t = spec1.tower
    P = product_code_from_polys(t, spec1.f1, spec2.f2)
    dH, dR = factor_distances(P)
    dSR = min_distance_bruteforce(P.code)
    D = DefiningSetView.from_generator(t, product_generator_poly(t, spec1.f1, spec2.f2))
    cert = best_bound_search(D, code_id=P.code.code_id())
    _report(
        args,
        {
            "k1": P.k1,
            "k2": P.k2,
            "dH": dH,
            "dR": dR,
            "dSR": dSR,
            "bounds": [cert.as_dict()],
        },
    )
    return 0


def _load_certificate(path: str) -> BoundCertificate:
    try:
        data = json.loads(_read(path, "certificate"))
    except ValueError as exc:
        raise ParseError(f"malformed certificate: {exc}")
    return BoundCertificate.from_dict(data)


def cmd_verify(args) -> int:
    claim = _load_certificate(args.certificate)
    spec = load_code_spec(args.code)
    if claim.code_id and claim.code_id != spec.code.code_id():
        raise SumrankError("certificate code_id does not match the code")
    if claim.tower and claim.tower != json.loads(json.dumps(spec.tower.describe())):
        raise TowerMismatch("certificate tower does not match the code's tower")
    D = spec.defining_view()
    cert = CHECKERS[claim.params.kind](D, claim.params, spec.code.code_id())
    if cert.bound != claim.bound:
        raise SumrankError(f"recomputed bound {cert.bound} != certificate bound {claim.bound}")
    if cert.grid != claim.grid:
        raise SumrankError("recomputed grid differs from the certificate grid")
    _report(args, {"verified": True, "certificate": cert.as_dict()})
    return 0


def _add_common(p):
    p.add_argument("--format", choices=("json", "text"), default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sumrank",
        description="Cyclic-skew-cyclic sum-rank codes: distances and certified bounds.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tower", help="build and describe a field tower")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--e-deg", dest="e_deg", type=int, default=1)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("code", help="code operations")
    csub = p.add_subparsers(dest="code_command", required=True)
    pb = csub.add_parser("build", help="build a code from a spec file")
    pb.add_argument("--code", required=True)
    _add_common(pb)
    pb.set_defaults(func=cmd_code_build)

    p = sub.add_parser("distance", help="exact minimum distance by enumeration")
    p.add_argument("--code", required=True)
    p.add_argument("--metric", choices=("sumrank", "hamming", "rank"), default="sumrank")
    _add_common(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("certify", help="check one bound certificate")
    ksub = p.add_subparsers(dest="kind", required=True)
    pk = ksub.add_parser("bch")
    pk.add_argument("--code", required=True)
    pk.add_argument("--b", type=int, required=True)
    pk.add_argument("--t", type=int, required=True)
    pk.add_argument("--delta", type=int, required=True)
    _add_common(pk)
    pk.set_defaults(func=cmd_certify)
    pk = ksub.add_parser("ht")
    pk.add_argument("--code", required=True)
    pk.add_argument("--b", type=int, required=True)
    pk.add_argument("--t1", type=int, required=True)
    pk.add_argument("--t2", type=int, required=True)
    pk.add_argument("--delta", type=int, required=True)
    pk.add_argument("--r", type=int, required=True)
    _add_common(pk)
    pk.set_defaults(func=cmd_certify)
    pk = ksub.add_parser("roos")
    pk.add_argument("--code", required=True)
    pk.add_argument("--b", type=int, required=True)
    pk.add_argument("--s", type=int, required=True)
    pk.add_argument("--delta", type=int, required=True)
    pk.add_argument("--k", required=True, help="comma-separated k_0,...,k_r")
    _add_common(pk)
    pk.set_defaults(func=cmd_certify)

    p = sub.add_parser("search", help="best bound over all certificate families")
    p.add_argument("--code", required=True)
    p.add_argument("--delta-max", dest="delta_max", type=int, default=None)
    p.add_argument("--r-max", dest="r_max", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("product", help="tensor product of two generator-spec codes")
    p.add_argument("--code1", required=True)
    p.add_argument("--code2", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("verify", help="re-check a certificate from scratch")
    p.add_argument("--certificate", required=True)
    p.add_argument("--code", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 3
    except SumrankError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
