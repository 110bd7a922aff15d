"""One pass of a workload in a fresh process.

    python3 benchmark/worker.py --workload sweep --seed 1 --workdir DIR [--traced] [--setup-only]

A fresh process starts from empty library caches (field tables, kernel
tables, distance cache).  The worker sets up the library (towers, corpora,
kernel tables), generates the workload's inputs from its seed, runs every op
once (the `cli` workload runs its op list CLI_CYCLES times), and prints one
JSON line: the monotonic time at which set-up ended, each op's latency and
outcome, peak memory and, when traced, the per-layer figures.  Spans are
written to `.bench_work/`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracer as tr  # noqa: E402

# CLI ops are fresh processes, so repeating them costs no cache effects; two
# rounds give a pass enough ops for a tail percentile
CLI_CYCLES = 2
LAYER_SPANS = {  # per-layer time metric -> spans whose self time it sums
    "kernels.min_weight_s": ("kernels.min_weight",),
    "codes.distance_s": ("codes.distance",),
    "bounds.search_s": ("bounds.search",),
    "bounds.grid_s": ("bounds.grid", "bounds.ev_total"),
    "bounds.check_s": ("bounds.check",),
    "product.factor_s": ("product.factor",),
    "codes.build_s": ("codes.build",),
    "bivar.biv_mul_s": ("bivar.biv_mul",),
    "linalg.rref_s": ("linalg.rref",),
    "tower.build_s": ("tower.build",),
    "kernels.tables_s": ("kernels.tables",),
}


def layer_metrics(tracer, op_span):
    """Per-layer figures of one traced pass."""
    spans = tracer.spans
    table = tr.span_table(spans)

    def self_s(*names):
        return sum(table.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    m = {name: self_s(*names) for name, names in LAYER_SPANS.items()}
    kernel_s = m["kernels.min_weight_s"]
    space = tracer.counters.get("kernel_space", 0)
    candidates = tr.corpus_candidates(spans)
    divisors = tracer.counters.get("corpus_divisors", 0)
    distance_calls = calls("codes.distance")
    m.update({
        "kernels.min_weight_calls": calls("kernels.min_weight"),
        "kernels.space": space,
        "kernels.space_per_s": space / kernel_s if kernel_s else 0.0,
        "codes.distance_calls": distance_calls,
        "codes.distance_cache_hits": distance_calls - calls("kernels.min_weight"),
        "codes.distance_repeat_share": (
            tracer.counters.get("distance_repeats", 0) / distance_calls if distance_calls else 0.0
        ),
        "bounds.search_calls": calls("bounds.search"),
        "bounds.search_max_s": table.get("bounds.search", {}).get("max_s", 0.0),
        "bounds.grid_evals": calls("bounds.ev_total"),
        "product.corpus_s": table.get("product.corpus", {}).get("incl_s", 0.0),
        "product.corpus_candidates": candidates,
        "product.corpus_divisors": divisors,
        "product.corpus_hit_ratio": divisors / candidates if candidates else 0.0,
        "bivar.biv_mul_calls": calls("bivar.biv_mul"),
        "kernels.tables_builds": calls("kernels.tables"),
        "op.time_s": table.get(op_span, {}).get("incl_s", 0.0),
    })
    m["cli.tower_build_ms"] = 1000 * tr.median_per_op(spans, "tower.build") if op_span == "cli.op" else 0.0
    return m, table


def cli_runner(tracer, workdir, env):
    """argv -> CompletedProcess; traced runs go through `cli_child.py`."""
    import workloads

    if not tracer.enabled:
        return lambda argv: workloads.run_cli(argv, env=env, cwd=ROOT)
    child = os.path.join(HERE, "cli_child.py")
    count = [0]

    def run(argv):
        count[0] += 1
        spans_path = os.path.join(workdir, f"child-{count[0]}.json")
        proc = workloads.run_cli(["--spans", spans_path, "--"] + argv, env=env, cwd=ROOT,
                                 program=child)
        if not os.path.exists(spans_path):
            # the tracing harness broke, not the CLI: end the worker
            raise SystemExit(f"cli_child.py wrote no spans:\n{proc.stderr[-2000:]}")
        with open(spans_path) as fh:
            data = json.load(fh)
        os.remove(spans_path)
        base = len(tracer.spans)
        parent = tracer.stack[-1] if tracer.stack else -1
        for name, start, end, p, _ in data["spans"]:
            tracer.spans.append([name, start, end, base + p if p >= 0 else parent, tracer.op])
        for key, value in data["counters"].items():
            tracer.note(key, value)
        return proc

    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "certify", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    tracer = tr.Tracer() if args.traced else tr.NullTracer()
    if tracer.enabled and args.workload != "cli":
        # cli ops run in subprocesses; their spans come from cli_child.py
        tracer.install(tr.library_bindings())
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    rng = random.Random(args.seed)
    lib = workloads.library(tracer)
    specs, make_ops = workloads.WORKLOADS[args.workload]
    towers = workloads.prepare(lib, specs)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    # generating the seeded inputs is the client's work: neither timed nor traced
    tracer.paused = True
    ops = make_ops(lib, towers, rng, args.workdir)
    tracer.paused = False

    op_span = "op"
    if args.workload == "cli":
        op_span = "cli.op"
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        workloads.CliOp.runner = cli_runner(tracer, args.workdir, env)
    records = []
    for _ in range(CLI_CYCLES if args.workload == "cli" else 1):
        for kind, fn, op_args in ops:
            tracer.start_op(len(records))
            t0 = time.perf_counter()
            out = tracer.call(op_span, fn, *op_args)
            dt = time.perf_counter() - t0
            records.append([kind, dt, out.status, out.tight, out.detail])

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result = {
        "ready": ready,
        "ops": records,
        "rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if tracer.enabled:
        result["layers"], table = layer_metrics(tracer, op_span)
        result["self_s"] = {k: v["self_s"] for k, v in table.items()}
        # the run removes its work directory; the spans stay next to it
        spans_dir = os.path.dirname(os.path.abspath(args.workdir))
        tracer.dump(os.path.join(spans_dir, f"spans-{args.workload}-{args.seed}-{os.getpid()}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
