"""The sumrank benchmark: one workload, end-to-end or per-layer metrics.

    python3 benchmark/run.py --workload sweep|certify|cli --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the library from `src/`.
Each pass of a workload runs in a fresh worker process (`worker.py`), one at
a time, so every pass starts from empty library caches.  Workers are started
until the next pass would end after `--seconds` (at least one pass; two when
tracing, one untraced and one traced, alternating).  The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, from untraced passes;
with `--trace 1` they are the per-layer ones, from traced passes, plus the
tracing overhead and the CLI wall times of the untraced passes.  The line
before it is a report with the environment, the tail percentile, the
failures and the layer self times.  See NOTES.md for the workloads and the
layer-to-metric table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
# single-threaded numeric libraries: the load is one client on a 2-core box
PINNED = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                            "NUMEXPR_NUM_THREADS")}
SETUP_SAMPLES = 5  # set-up times per run, worker passes included
IMPORT_SAMPLES = 9  # bare-import times per `cli` run
# op_tail_ms is the highest of these percentiles that leaves at least
# TAIL_BEYOND ops of a pass above it (nearest-rank)
PERCENTILES = (99.9, 99, 95, 90, 80, 75, 50)
TAIL_BEYOND = 10
CLI_KINDS = ("tower", "code_build", "distance", "certify", "search", "verify", "product", "error")


# the sweep includes the full space F8^9; its enumeration stops at the first
# weight-1 codeword, but the default 2^24 guard refuses it (tests/conftest.py
# raises the guard the same way)
BUDGET = str(1 << 28)


def child_env():
    env = dict(os.environ, **PINNED)
    env.update(PYTHONPATH=SRC, SUMRANK_BUDGET=BUDGET)
    return env


def run_worker(workload, seed, workdir, traced=False, setup_only=False):
    """Start one worker and wait for it; returns (spawn time, its result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir]
    if traced:
        cmd.append("--traced")
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} exited with {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def import_seconds():
    """Wall time of a bare `import sumrank` in a new interpreter."""
    start = time.monotonic()
    # captured output: `wait` with a timeout but no pipes polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import sumrank"], env=child_env(), cwd=ROOT,
                   check=True, timeout=60, capture_output=True)
    return time.monotonic() - start


def tail(latencies):
    """(latency, percentile) at the highest percentile of PERCENTILES that
    leaves at least TAIL_BEYOND ops above it."""
    xs = sorted(latencies)
    for pct in PERCENTILES:
        rank = math.ceil(pct / 100 * len(xs))
        if len(xs) - rank >= TAIL_BEYOND:
            return xs[rank - 1], pct
    return statistics.median(xs), 50


def end_to_end(passes, setup_samples):
    ops = [op for p in passes for op in p["ops"]]
    lat = [op[1] for op in ops]
    per_pass = [[op[1] for op in p["ops"]] for p in passes]
    bounded = [op for op in ops if op[3] is not None]
    failed = sum(op[2] != "ok" for op in ops)
    tails = [tail(x) for x in per_pass]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1000 * statistics.median(statistics.median(x) for x in per_pass), "ms"),
        "op_tail_ms": (1000 * statistics.median(t for t, _ in tails), "ms"),
        "ok_share": (1 - failed / len(ops), "ratio"),
        "tight_share": (sum(bool(op[3]) for op in bounded) / len(bounded), "ratio"),
        "peak_rss_mb": (max(p["rss_mb"] for p in passes), "MB"),
    }
    info = {
        "tail_percentile": [pct for _, pct in tails],
        "ops_per_pass": [len(x) for x in per_pass],
        "fail_share": failed / len(ops),
        "setup_samples_s": setup_samples,
    }
    return metrics, info


def cli_wall_ms(passes):
    """Median wall time of each CLI op kind, from untraced passes."""
    by_kind = {}
    for p in passes:
        for kind, latency, *_ in p["ops"]:
            by_kind.setdefault(kind, []).append(1000 * latency)
    return {f"cli.{k}_ms": statistics.median(by_kind.get(k, [0.0])) for k in CLI_KINDS}


def layer_unit(name):
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_share", "ratio"),
                         ("_ratio", "ratio"), ("overhead", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def environment(seed):
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    commit = None
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": has_numba,
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one workload of the sumrank benchmark.")
    ap.add_argument("--workload", required=True, choices=("sweep", "certify", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sumrank", "__init__.py")):
        print(f"no sumrank sources under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2

    workdir = os.path.join(WORKDIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    traced = bool(args.trace)
    setup_samples = []
    if args.workload == "cli":
        setup_samples = [import_seconds() for _ in range(IMPORT_SAMPLES)]

    plain, traced_passes = [], []
    modes = [False, True] if traced else [False]
    try:
        if args.workload != "cli" and not traced:
            for _ in range(SETUP_SAMPLES - 2):
                spawned, res = run_worker(args.workload, args.seed, workdir, setup_only=True)
                setup_samples.append(res["ready"] - spawned)
        start = time.monotonic()
        while True:
            mode = modes[(len(plain) + len(traced_passes)) % len(modes)]
            spawned, res = run_worker(args.workload, args.seed, workdir, traced=mode)
            (traced_passes if mode else plain).append(res)
            if not mode and args.workload != "cli":
                setup_samples.append(res["ready"] - spawned)
            elapsed = time.monotonic() - start
            done = len(plain) + len(traced_passes)
            if done >= len(modes) and elapsed + elapsed / done > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = plain + traced_passes
    ops = [op for p in every for op in p["ops"]]
    failed = [op for op in ops if op[2] != "ok"]
    correct = all(op[2] in ("ok", "known_defect") for op in ops)
    e2e, info = end_to_end(plain, setup_samples)
    if traced:
        keys = traced_passes[0]["layers"]
        metrics = {k: statistics.mean(p["layers"][k] for p in traced_passes) for k in keys}
        fast = e2e["ops_per_s"][0]
        slow = end_to_end(traced_passes, setup_samples)[0]["ops_per_s"][0]
        metrics["trace.overhead"] = fast / slow
        is_cli = args.workload == "cli"
        metrics.update({k: v if is_cli else 0.0 for k, v in cli_wall_ms(plain).items()})
        metrics["cli.import_ms"] = 1000 * statistics.median(setup_samples) if is_cli else 0.0
        metrics = {k: (v, layer_unit(k)) for k, v in metrics.items()}
        info["self_s"] = traced_passes[0]["self_s"]
    else:
        metrics = e2e
    report = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "passes": {"untraced": len(plain), "traced": len(traced_passes)},
        "failures": sorted({f"{op[0]}: {op[4]}" for op in failed}),
        **info,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
