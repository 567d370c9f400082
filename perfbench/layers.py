"""Per-layer metrics from the tracer's spans and from `python -X importtime`.

A span's self time is its duration minus the durations of its direct
children. Every metric a traced process cannot support reads None
(absent): the layer was not called, or a wrapped name is missing.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    ("montecarlo.philox_s", "s"),
    ("montecarlo.ndtri_s", "s"),
    ("montecarlo.merit_s", "s"),
    ("montecarlo.solve_batch_s", "s"),
    ("montecarlo.run_monte_carlo.self_s", "s"),
    ("montecarlo.us_per_iteration", "us"),
    ("montecarlo.iterations", "count"),
    ("montecarlo.lsa.calls", "count"),
    ("montecarlo.lsa_s", "s"),
    ("montecarlo.run_monte_carlo.calls", "count"),
    ("montecarlo.distinct_runs_ratio", "ratio"),
    ("montecarlo.draws_used_ratio", "ratio"),
    ("capacity.max_capacity.calls", "count"),
    ("capacity.max_capacity.self_s", "s"),
    ("capacity.subset_ms.p50", "ms"),
    ("capacity.subset_ms.p99", "ms"),
    ("model.subset.calls", "count"),
    ("model.subset.self_s", "s"),
    ("model.table_validations", "count"),
    ("model.distributions.self_s", "s"),
    ("model.mean_entropy.self_s", "s"),
    ("model.gtv.self_s", "s"),
    ("assignment.balanced_merit.self_s", "s"),
    ("assignment.solve_assignment.self_s", "s"),
    ("capacity.exhaustive_pair_semantics.self_s", "s"),
    ("capacity.pairs_built", "count"),
    ("capacity.capacity_statistics.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("dispatch.parallel_efficiency", "ratio"),
    ("dispatch.parent_wait_s", "s"),
    ("setup.import.numpy_s", "s"),
    ("setup.import.scipy_special_s", "s"),
    ("setup.import.scipy_optimize_s", "s"),
    ("setup.import.scipy_stats_s", "s"),
    ("setup.import.semdisc_s", "s"),
    ("io.load_association_csv_s", "s"),
    ("io.load_uw71_s", "s"),
    ("colorspace.lab_to_srgb_hex_s", "s"),
    ("trace.overhead_s", "s"),
]

# key -> (span name, the wrapped attribute the span depends on)
SPAN = {
    "philox": ("montecarlo._iteration_normals", "_iteration_normals"),
    "ndtri": ("montecarlo.ndtri", "ndtri"),
    # wrapped where the Monte Carlo kernel looks it up, so kernel calls only
    "merit": ("assignment.balanced_merit_values", "balanced_merit_values"),
    "solve_batch": ("montecarlo._solve_square_batch", "_solve_square_batch"),
    "run_monte_carlo": ("montecarlo.run_monte_carlo", "run_monte_carlo"),
    "lsa": ("montecarlo.linear_sum_assignment", "linear_sum_assignment"),
    "max_capacity": ("capacity.max_capacity", "max_capacity"),
    "subset": ("model.AssociationTable.subset", "subset"),
    "validations": ("model.AssociationTable.__post_init__", "__post_init__"),
    "distributions": ("model.distributions", "distributions"),
    "mean_entropy": ("model.mean_entropy", "mean_entropy"),
    "gtv": ("model.generalized_total_variation", "generalized_total_variation"),
    "balanced_merit": ("assignment.balanced_merit", "balanced_merit"),
    "solve_assignment": ("assignment.solve_assignment", "solve_assignment"),
    "pairs": ("capacity.exhaustive_pair_semantics", "exhaustive_pair_semantics"),
    "statistics": ("capacity.capacity_statistics", "capacity_statistics"),
    "load_csv": ("io.load_association_csv", "load_association_csv"),
    "load_uw71": ("io.load_uw71", "load_uw71"),
    "hex": ("colorspace.lab_to_srgb_hex", "lab_to_srgb_hex"),
    "wait": ("dispatch.wait", "ProcessPoolExecutor"),
}

IMPORT_MODULES = {
    "numpy": "setup.import.numpy_s",
    "scipy.special": "setup.import.scipy_special_s",
    "scipy.optimize": "setup.import.scipy_optimize_s",
    "scipy.stats": "setup.import.scipy_stats_s",
}


def load_trace(spans_path: Path) -> list[dict]:
    """The traced CLI's own record first, then one per pool worker."""
    records = [json.loads(spans_path.read_text())]
    for extra in sorted(spans_path.parent.glob(spans_path.name + ".*")):
        records.append(json.loads(extra.read_text()))
    return records


def _self_times(spans: list[list]) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


def trace_metrics(records: list[dict]) -> dict[str, float | None]:
    """Per-layer metrics of one traced CLI process and its pool workers.

    Times sum over processes, so in a parallel run they are busy time,
    not elapsed time. Wrapped names that were missing make the metrics
    built on them absent.
    """
    missing = {m.rsplit(".", 1)[-1] for r in records for m in r["missing"]}
    durations: dict[str, list[float]] = {}
    selfs: dict[str, float] = {}
    extras: dict[str, list] = {}
    counts: dict[str, int] = {}
    for record in records:
        own = _self_times(record["spans"])
        for (name, start, end, _, extra), self_time in zip(record["spans"], own):
            durations.setdefault(name, []).append(end - start)
            selfs[name] = selfs.get(name, 0.0) + self_time
            if extra is not None:
                extras.setdefault(name, []).append(extra)
        for name, n in record["counts"].items():
            counts[name] = counts.get(name, 0) + n

    def known(key):
        return SPAN[key][1] not in missing

    def calls(key):
        if not known(key):
            return None
        if key == "validations":
            return counts.get(SPAN[key][0], 0)
        return len(durations.get(SPAN[key][0], []))

    def total(key):
        return sum(durations.get(SPAN[key][0], [])) if known(key) else None

    def self_(key):
        return selfs.get(SPAN[key][0], 0.0) if known(key) else None

    draws = [e for e in extras.get(SPAN["philox"][0], []) if isinstance(e, list)]
    iterations = sum(count for count, _ in draws) if known("philox") else None
    run_keys = extras.get(SPAN["run_monte_carlo"][0], [])
    runs = calls("run_monte_carlo")
    max_capacity_ms = [1e3 * d for d in durations.get(SPAN["max_capacity"][0], [])]
    pairs = extras.get(SPAN["pairs"][0], [])
    root = records[0]
    cli_self = sum(
        t
        for (name, *_), t in zip(root["spans"], _self_times(root["spans"]))
        if name.startswith("cli.")
    )
    return {
        "montecarlo.philox_s": self_("philox"),
        "montecarlo.ndtri_s": total("ndtri"),
        "montecarlo.merit_s": total("merit"),
        "montecarlo.solve_batch_s": total("solve_batch"),
        "montecarlo.run_monte_carlo.self_s": self_("run_monte_carlo"),
        "montecarlo.us_per_iteration": (
            1e6 * total("run_monte_carlo") / iterations if iterations else None
        ),
        "montecarlo.iterations": iterations,
        "montecarlo.lsa.calls": calls("lsa"),
        "montecarlo.lsa_s": total("lsa"),
        "montecarlo.run_monte_carlo.calls": runs,
        "montecarlo.distinct_runs_ratio": (
            len(set(map(str, run_keys))) / runs if runs else None
        ),
        "montecarlo.draws_used_ratio": (
            sum(c * cells for c, cells in draws)
            / sum(c * 4 * -(-cells // 4) for c, cells in draws)
            if iterations
            else None
        ),
        "capacity.max_capacity.calls": calls("max_capacity"),
        "capacity.max_capacity.self_s": self_("max_capacity"),
        "capacity.subset_ms.p50": (
            _percentile(max_capacity_ms, 0.50) if max_capacity_ms else None
        ),
        "capacity.subset_ms.p99": (
            _percentile(max_capacity_ms, 0.99) if max_capacity_ms else None
        ),
        "model.subset.calls": calls("subset"),
        "model.subset.self_s": self_("subset"),
        "model.table_validations": calls("validations"),
        "model.distributions.self_s": self_("distributions"),
        "model.mean_entropy.self_s": self_("mean_entropy"),
        "model.gtv.self_s": self_("gtv"),
        "assignment.balanced_merit.self_s": self_("balanced_merit"),
        "assignment.solve_assignment.self_s": self_("solve_assignment"),
        "capacity.exhaustive_pair_semantics.self_s": self_("pairs"),
        "capacity.pairs_built": (
            sum(p for p in pairs if isinstance(p, int)) if known("pairs") else None
        ),
        "capacity.capacity_statistics.self_s": self_("statistics"),
        "cli.self_s": cli_self,
        "dispatch.parent_wait_s": total("wait"),
        "io.load_association_csv_s": total("load_csv"),
        "io.load_uw71_s": total("load_uw71"),
        "colorspace.lab_to_srgb_hex_s": total("hex"),
    }


def blocking_path_s(records: list[dict]) -> float:
    """Self times of the traced process's own spans, which add up to its
    time inside main(), minus the table load that setup_s already
    counts. Pool workers run beside this path, not on it."""
    spans = records[0]["spans"]
    load = sum(end - start for name, start, end, _, _ in spans if name == SPAN["load_csv"][0])
    return sum(_self_times(spans)) - load


def load_end(records: list[dict]) -> float | None:
    """When the traced process finished loading its table."""
    ends = [end for name, _, end, _, _ in records[0]["spans"] if name == SPAN["load_csv"][0]]
    return max(ends) if ends else None


def import_times(stderr: str) -> dict[str, float]:
    """Split the import of semdisc.cli, as `python -X importtime` reports
    it, into the four heavy dependencies and the rest.

    A module counts towards a dependency when it is the dependency or one
    of its submodules (scipy loads scipy.stats lazily, so only its
    submodules are listed). Each dependency gets the cumulative time of
    its modules minus that of any other dependency imported inside them,
    so the parts do not overlap and add up to the whole import.
    """
    pending: list[tuple[int, dict]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, raw = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        node = {"name": raw.strip(), "cum": int(cumulative) * 1e-6, "children": []}
        while pending and pending[-1][0] > depth:
            node["children"].insert(0, pending.pop()[1])
        pending.append((depth, node))
    tops = [n for _, n in pending if n["name"].split(".")[0] == "semdisc"]
    out = {metric: 0.0 for metric in IMPORT_MODULES.values()}

    def walk(node) -> float:
        """Cumulative time of the listed modules at or below node that
        are not below another listed module."""
        inner = sum(walk(child) for child in node["children"])
        metric = next(
            (
                m
                for module, m in IMPORT_MODULES.items()
                if node["name"] == module or node["name"].startswith(module + ".")
            ),
            None,
        )
        if metric is None:
            return inner
        out[metric] += node["cum"] - inner
        return node["cum"]

    listed = sum(walk(top) for top in tops)
    out["setup.import.semdisc_s"] = sum(top["cum"] for top in tops) - listed
    return out
