"""Run the sumrank CLI with spans around its layers.

    python3 benchmark/cli_child.py --spans FILE -- <sumrank cli arguments>

Behaves like `python -m sumrank.cli` (same output and exit code, including
tracebacks) and writes the spans it recorded to FILE.  The traced `cli`
workload runs its ops through this script.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tr  # noqa: E402


def main():
    if len(sys.argv) < 4 or sys.argv[1] != "--spans" or sys.argv[3] != "--":
        raise SystemExit("usage: cli_child.py --spans FILE -- <cli arguments>")
    path, argv = sys.argv[2], sys.argv[4:]
    t = tr.Tracer()
    import sumrank.cli

    t.spans.append(["cli.import", START, time.perf_counter(), -1, None])
    t.install(tr.library_bindings() + tr.cli_bindings())
    try:
        return t.call("cli.main", sumrank.cli.main, argv)
    finally:
        t.dump(path)


if __name__ == "__main__":
    raise SystemExit(main())
