"""In-memory spans around calls into the sumrank layers.

A span records its name, start, end, parent span and op id.  Untraced
processes use `NullTracer`, whose `call` is a plain call.  A traced process
wraps the entry points the benchmark calls and also rebinds the names that
library callers look up (`install`), so calls made inside the library (the
kernel, field tables, grid evaluations, ...) get spans too.  Spans are kept
in memory and written out by the process at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time


class NullTracer:
    enabled = False
    paused = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def note(self, key, amount=1):
        pass

    def start_op(self, op_id):
        pass


class Tracer:
    enabled = True
    paused = False  # while set, wrapped calls record nothing

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op = None
        self.counters = {}
        self._distance_keys = set()
        self._pending_space = 0

    def start_op(self, op_id):
        self.op = op_id

    def note(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def call(self, name, fn, *args, **kwargs):
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, *args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self, bindings):
        """Rebind `module.attr` to a traced wrapper for each binding.

        A binding that no longer exists raises: a change that renames it
        updates this list too.
        """
        for module_name, attr, span, before in bindings:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            if isinstance(fn, dict):  # a dispatch table such as CHECKERS
                setattr(module, attr, {k: self.wrap(span, v, before) for k, v in fn.items()})
            else:
                setattr(module, attr, self.wrap(span, fn, before))

    # -- counters fed by `before` hooks --------------------------------------

    def distance_key(self, code, metric="sumrank", *args, **kwargs):
        """Count distance queries and the queries that repeat an earlier key."""
        key = (repr(code.tower), code.level, metric, tuple(code.partition.parts), code.G)
        if key in self._distance_keys:
            self.note("distance_repeats")
        self._distance_keys.add(key)
        self._pending_space = code.field.order ** code.k

    def kernel_space(self, *args, **kwargs):
        """Add |F|^k of the code whose distance query reached the kernel."""
        self.note("kernel_space", self._pending_space)

    # -- output ----------------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def library_bindings():
    """The names library callers bind, with the span each call is recorded as."""
    return [
        ("sumrank.codes", "FieldTables", "kernels.tables", None),
        ("sumrank.codes", "min_weight", "kernels.min_weight", Tracer.kernel_space),
        ("sumrank.codes", "biv_mul", "bivar.biv_mul", None),
        ("sumrank.bounds", "ev_total", "bounds.ev_total", None),
        ("sumrank.product", "right_divides", "skew.right_divides", None),
        ("sumrank.product", "min_distance_bruteforce", "codes.distance", Tracer.distance_key),
        ("sumrank.poly", "divides", "poly.divides", None),
        ("sumrank.linalg", "rref", "linalg.rref", None),
    ]


def cli_bindings():
    """Entry points the CLI module binds, on top of `library_bindings`."""
    return [
        ("sumrank.cli", "build_tower", "tower.build", None),
        ("sumrank.cli", "code_from_skew_generator", "codes.build", None),
        ("sumrank.cli", "product_generator_poly", "codes.build", None),
        ("sumrank.cli", "product_code_from_polys", "codes.build", None),
        ("sumrank.cli", "min_distance_bruteforce", "codes.distance", Tracer.distance_key),
        ("sumrank.cli", "best_bound_search", "bounds.search", None),
        ("sumrank.cli", "CHECKERS", "bounds.check", None),
        ("sumrank.cli", "factor_distances", "product.factor", None),
    ]


# -- aggregation -------------------------------------------------------------


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_table(spans):
    """Per span name: total self time, calls, total and largest duration."""
    table = {}
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"self_s": 0.0, "calls": 0, "max_s": 0.0, "incl_s": 0.0})
        row["self_s"] += own
        row["calls"] += 1
        row["incl_s"] += end - start
        row["max_s"] = max(row["max_s"], end - start)
    return table


def _under(spans, i, name):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def corpus_candidates(spans):
    """Divisibility tests made while enumerating a generator corpus."""
    return sum(
        1
        for i, s in enumerate(spans)
        if s[0] in ("poly.divides", "skew.right_divides") and _under(spans, i, "product.corpus")
    )


def median_per_op(spans, span_name):
    """Median over ops of the self time an op spends in spans of this name."""
    per_op = {}
    for (name, _, _, _, op), own in zip(spans, self_times(spans)):
        if op is not None:
            per_op[op] = per_op.get(op, 0.0) + (own if name == span_name else 0.0)
    return statistics.median(per_op.values()) if per_op else 0.0
