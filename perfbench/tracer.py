"""Run the semdisc CLI with a span recorded around each layer call.

usage: python3 perfbench/tracer.py SPANS_JSON -- <semdisc arguments>

Nothing in semdisc changes. Before `semdisc.cli.main` runs, the module
attributes that each layer looks up at call time are replaced by wrappers
that record (name, start, end, parent) in memory. The spans are written to
SPANS_JSON when the CLI returns; each forked pool worker writes its own to
SPANS_JSON.<pid> when it exits. A name that no longer exists is listed
under "missing" instead of failing the run, so the metrics that need it
read as absent.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import sys
import time
from multiprocessing import util as mp_util

# (module, attribute) pairs whose calls become spans. A span is named after
# the function's own module when it is part of semdisc, and after the
# calling module otherwise (scipy's ndtri is "montecarlo.ndtri").
SPANS = [
    ("semdisc.cli", "main"),
    ("semdisc.cli", "cmd_capacity"),
    ("semdisc.cli", "cmd_palette"),
    ("semdisc.cli", "load_association_csv"),
    ("semdisc.cli", "load_uw71"),
    ("semdisc.cli", "with_library_coordinates"),
    ("semdisc.cli", "max_capacity"),
    ("semdisc.cli", "run_monte_carlo"),
    ("semdisc.io", "lab_to_srgb_hex"),
    ("semdisc.capacity", "_evaluate_subset"),
    ("semdisc.capacity", "max_capacity"),
    ("semdisc.capacity", "exhaustive_pair_semantics"),
    ("semdisc.capacity", "capacity_statistics"),
    ("semdisc.capacity", "run_monte_carlo"),
    ("semdisc.capacity", "semantic_distance_analytic"),
    ("semdisc.capacity", "balanced_merit"),
    ("semdisc.capacity", "solve_assignment"),
    ("semdisc.capacity", "distributions"),
    ("semdisc.capacity", "mean_entropy"),
    ("semdisc.capacity", "total_variation"),
    ("semdisc.capacity", "generalized_total_variation"),
    ("semdisc.montecarlo", "_iteration_normals"),
    ("semdisc.montecarlo", "ndtri"),
    ("semdisc.montecarlo", "balanced_merit_values"),
    ("semdisc.montecarlo", "_solve_square_batch"),
    ("semdisc.montecarlo", "linear_sum_assignment"),
    ("semdisc.model", "AssociationTable.subset"),
]
# generator functions: one span per item produced
GENERATOR_SPANS = [("semdisc.cli", "iter_capacity_reports")]
# calls counted without a span
COUNTS = [("semdisc.model", "AssociationTable.__post_init__")]
# the process pool class the capacity scan instantiates
POOL = ("semdisc.capacity", "ProcessPoolExecutor")


def _iteration_draws(args, kwargs, result):
    # _iteration_normals(seed, start, count, cells)
    return [args[2], args[3]]


def _run_key(args, kwargs, result):
    # run_monte_carlo(table, config): same square and config, same run
    table, config = args[0], args[1] if len(args) > 1 else kwargs.get("config")
    digest = hashlib.sha1(table.values.tobytes())
    digest.update(repr((table.library.ids, table.concepts.concepts, config)).encode())
    return digest.hexdigest()


def _length(args, kwargs, result):
    return len(result)


# extra data kept with a span, computed from the call's arguments/result
PROBES = {
    "_iteration_normals": _iteration_draws,
    "run_monte_carlo": _run_key,
    "exhaustive_pair_semantics": _length,
}


class Recorder:
    """Spans and counts of one process, kept in memory until dump()."""

    def __init__(self, path: str):
        self.path = path
        self.spans: list[list] = []  # [name, start, end, parent, extra]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.main_end = None

    def call(self, name, fn, *args, probe=None, **kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        if probe is not None:
            try:
                span[4] = probe(args, kwargs, result)
            except Exception as exc:  # a changed signature loses the probe only
                span[4] = {"probe_error": repr(exc)}
        return result

    def after_fork(self):
        """In a forked pool worker: drop the parent's spans and write this
        worker's own when it exits."""
        self.spans, self.stack, self.counts = [], [], {}
        self.path = f"{self.path}.{os.getpid()}"
        mp_util.Finalize(self, self.dump, exitpriority=0)

    def dump(self):
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "pid": os.getpid(),
                    "main_end": self.main_end,
                    "spans": self.spans,
                    "counts": self.counts,
                    "missing": self.missing,
                },
                fh,
            )


def _resolve(module: str, attr: str):
    """(owner, final attribute name, current value) or None if missing."""
    try:
        owner = importlib.import_module(module)
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, last, getattr(owner, last)
    except (ImportError, AttributeError):
        return None


def _span_name(module: str, attr: str, fn) -> str:
    home = getattr(fn, "__module__", None) or ""
    if home.startswith("semdisc."):
        return f"{home.split('.', 1)[1]}.{getattr(fn, '__qualname__', attr)}"
    return f"{module.split('.', 1)[1]}.{attr}"


def _wrap_function(rec: Recorder, name: str, fn):
    probe = PROBES.get(name.rsplit(".", 1)[-1])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, *args, probe=probe, **kwargs)

    return wrapper


def _wrap_generator(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            try:
                item = rec.call(name, next, items)
            except StopIteration:
                return
            yield item

    return wrapper


def _wrap_count(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[name] = rec.counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _traced_pool(rec: Recorder, base):
    class TracedPool(base):
        """Times the parent's dispatch: submitting the jobs, each wait
        for the next result, and the shutdown that joins the workers."""

        def map(self, fn, *iterables, **kwargs):
            results = rec.call("dispatch.submit", super().map, fn, *iterables, **kwargs)

            def waited():
                while True:
                    try:
                        item = rec.call("dispatch.wait", next, results)
                    except StopIteration:
                        return
                    yield item

            return waited()

        def shutdown(self, *args, **kwargs):
            return rec.call("dispatch.shutdown", super().shutdown, *args, **kwargs)

    return TracedPool


def install(rec: Recorder) -> None:
    """Replace every listed attribute by its traced wrapper."""
    groups = [
        (SPANS, _wrap_function),
        (GENERATOR_SPANS, _wrap_generator),
        (COUNTS, _wrap_count),
    ]
    for entries, wrap in groups:
        for module, attr in entries:
            found = _resolve(module, attr)
            if found is None:
                rec.missing.append(f"{module}.{attr}")
                continue
            owner, last, fn = found
            name = _span_name(module, attr, fn)
            setattr(owner, last, wrap(rec, name, fn))
    found = _resolve(*POOL)
    if found is None:
        rec.missing.append(".".join(POOL))
    else:
        owner, last, base = found
        setattr(owner, last, _traced_pool(rec, base))
    mp_util.register_after_fork(rec, Recorder.after_fork)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <semdisc arguments>", file=sys.stderr)
        return 2
    rec = Recorder(argv[0])
    import semdisc.cli

    install(rec)
    try:
        return semdisc.cli.main(argv[2:])
    finally:
        rec.main_end = time.perf_counter()
        sys.stdout.flush()
        rec.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
