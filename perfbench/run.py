"""Benchmark of the semdisc CLI: capacity scans, pair scans and palettes.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
       python3 perfbench/run.py --workload all ...   (every workload in turn)
       python3 perfbench/run.py --smoke              (tiny sizes, both modes)

Run from the root of a source checkout; the CLI is imported from ./src.
Each CLI run is a fresh process started as the `semdisc` console script
starts it (entry.py), timed from launch to exit. Its set-up (interpreter
start, imports, table load) ends when the table loader returns, which
entry.py marks, so every process yields its own set-up and compute time.
Every output is checked: the first one of each distinct command against
the reference in oracle.py, every later one byte for byte against the
first.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 each
round adds a traced CLI run (tracer.py) and a `python -X importtime`
probe, and the metrics are the per-layer ones. A human-readable table, with
sample counts and every per-layer metric (or "absent"), is printed first;
the last line of stdout is one JSON object. Full results and spans are
written under .perfbench/ in the checkout. The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402

IMPORT_ENTRY = "import semdisc.cli"
RSS_INTERVAL_S = 0.05
# a CLI process still running after this long is killed with its workers,
# so that a hang fails the run instead of stalling it
PROCESS_LIMIT_S = 100.0

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("compute_s", "s"),
    ("subsets_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
# the workloads BENCHMARK.json lists
LISTED = ("scan_k4_w2", "palette_n6")
# per-layer metrics in the result line: counts, and the times and ratios
# that are measured, and never exactly zero, on every listed workload. The
# rest of layers.LAYER_METRICS is printed and kept in the result file.
PER_LAYER = [
    "montecarlo.philox_s",
    "montecarlo.ndtri_s",
    "montecarlo.merit_s",
    "montecarlo.run_monte_carlo.self_s",
    "montecarlo.us_per_iteration",
    "montecarlo.iterations",
    "montecarlo.run_monte_carlo.calls",
    "montecarlo.lsa.calls",
    "montecarlo.distinct_runs_ratio",
    "montecarlo.draws_used_ratio",
    "capacity.max_capacity.calls",
    "capacity.max_capacity.self_s",
    "capacity.subset_ms.p50",
    "capacity.subset_ms.p99",
    "capacity.pairs_built",
    "model.subset.calls",
    "model.subset.self_s",
    "model.table_validations",
    "model.distributions.self_s",
    "model.mean_entropy.self_s",
    "model.gtv.self_s",
    "assignment.balanced_merit.self_s",
    "assignment.solve_assignment.self_s",
    "cli.self_s",
    "cli.bytes_out",
    "setup.import.numpy_s",
    "setup.import.scipy_special_s",
    "setup.import.scipy_optimize_s",
    "setup.import.scipy_stats_s",
    "setup.import.semdisc_s",
    "io.load_association_csv_s",
    "trace.overhead_s",
]
LAYER_UNITS = dict(layers.LAYER_METRICS)


@dataclass
class Workload:
    name: str
    n_concepts: int
    k: int = 0  # subset size of a scan; 0 for palettes
    exhaustive: bool = False
    workers: int = 1
    palette_size: int = 0
    palettes: int = 0  # distinct concept sets, cycled through
    samples: int = 1000


def workloads(smoke: bool) -> dict[str, Workload]:
    """The benchmark's workloads; smoke sizes only exercise the code paths.

    BENCHMARK.json lists the LISTED two, which between them reach every
    layer. On a shared 2-core host, run-to-run spreads needed runs too
    long to fit four workloads in the benchmark's time budget; the other
    two stay runnable by name.

    scan_k4     capacity --all --k 4 over 71 x 14 (1001 subsets): the
                paper's headline scan, mostly the Monte Carlo kernel on
                its n <= 5 permutation-batch path.
    scan_k4_w2  the same with --workers 2: adds only process-pool
                dispatch, and its stdout must equal scan_k4's.
    pairs_k2    capacity --all --k 2 --exhaustive over 71 x 40 (780
                subsets x 2485 pairs): no Monte Carlo at all, so kernel
                changes should not move it.
    palette_n6  palette for 6 concepts at 20000 samples, one process per
                palette: a few large n >= 6 Monte Carlo runs, and set-up
                is most of each process.
    """
    scan = 6 if smoke else 14
    return {
        "scan_k4": Workload("scan_k4", scan, k=4),
        "scan_k4_w2": Workload("scan_k4_w2", scan, k=4, workers=2),
        "pairs_k2": Workload("pairs_k2", 5 if smoke else 40, k=2, exhaustive=True),
        "palette_n6": Workload(
            "palette_n6",
            8 if smoke else 12,
            palette_size=6,
            palettes=4,
            samples=500 if smoke else 20000,
        ),
    }


@dataclass
class Job:
    """One distinct CLI command of a workload and its output check."""

    argv: list[str]
    items: int  # subsets evaluated by one run
    check: Callable[[bytes], list[str]]
    expected: Optional[bytes] = None  # first verified stdout

    @property
    def name(self) -> str:
        return " ".join(a for a in self.argv if not a.endswith(".csv"))

    def verify(self, stdout: bytes) -> list[str]:
        if self.expected is None:
            errors = self.check(stdout)
            if not errors:
                self.expected = stdout
            return errors
        return [] if stdout == self.expected else ["stdout differs from the verified reference"]


def uw71_labs() -> dict[str, tuple[float, float, float]]:
    import csv

    with open(SRC / "semdisc" / "data" / "uw71.csv", newline="", encoding="utf-8") as fh:
        return {r["index"]: (float(r["L"]), float(r["a"]), float(r["b"])) for r in csv.DictReader(fh)}


def make_jobs(w: Workload, seed: int, work: Path) -> tuple[list[Job], Optional[Job], Path]:
    """The workload's jobs, the serial job whose stdout a parallel run
    must reproduce (or None), and the input CSV."""
    values = inputs.association_values(seed, w.n_concepts)
    csv_path = work / "input.csv"
    inputs.write_association_csv(csv_path, values)
    if w.palettes:
        labs = uw71_labs()
        jobs = []
        for concepts in inputs.palette_concept_sets(seed, w.n_concepts, w.palette_size, w.palettes):
            argv = ["palette", str(csv_path), "--concepts", ",".join(concepts), "--samples", str(w.samples)]
            jobs.append(
                Job(
                    argv,
                    1,
                    lambda out, c=concepts: oracle.check_palette(out, values, c, labs, w.samples, 0),
                )
            )
        return jobs, None, csv_path
    argv = ["capacity", str(csv_path), "--all", "--k", str(w.k)]
    if w.exhaustive:
        argv.append("--exhaustive")
    serial = Job(
        argv,
        comb(w.n_concepts, w.k),
        lambda out: oracle.check_scan(out, values, w.k, w.samples, 0, w.exhaustive),
    )
    if w.workers == 1:
        return [serial], None, csv_path
    parallel = Job(argv + ["--workers", str(w.workers)], serial.items, serial.check)
    return [parallel], serial, csv_path


class TreeSampler(threading.Thread):
    """Peak resident memory (VmHWM) of a process and its descendants,
    read from /proc every RSS_INTERVAL_S until stopped. The process leads
    its own process group, which is killed once `deadline` passes."""

    def __init__(self, pid: int, deadline: float):
        super().__init__(daemon=True)
        self.pid = pid
        self.deadline = deadline
        self.peaks: dict[int, int] = {}
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(RSS_INTERVAL_S):
            for pid in self._tree(self.pid):
                kb = _status_kb(pid, "VmHWM")
                if kb is not None:
                    self.peaks[pid] = max(kb, self.peaks.get(pid, 0))
            if time.perf_counter() > self.deadline:
                os.killpg(self.pid, signal.SIGKILL)
                return

    def _tree(self, pid: int) -> list[int]:
        found = [pid]
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            return found
        for tid in tasks:
            try:
                children = Path(f"/proc/{pid}/task/{tid}/children").read_text().split()
            except OSError:
                continue
            for child in children:
                found += self._tree(int(child))
        return found

    def stop(self) -> int:
        self.done.set()
        self.join()
        return sum(self.peaks.values())


def _status_kb(pid: int, key: str) -> Optional[int]:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(key + ":"):
                return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return None


@dataclass
class Proc:
    start: float  # perf_counter at launch; the clock is shared by processes
    wall: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes
    setup: float = float("nan")


def launch(cmd: list[str], out_path: Path) -> Proc:
    """Run one process to completion with stdout to out_path; wall time
    is launch to exit. Memory is the sum over its process tree of each
    process's peak RSS, and no less than the kernel's figure for the
    largest one."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=err, env=env, cwd=ROOT, start_new_session=True
        )
        sampler = TreeSampler(proc.pid, start + PROCESS_LIMIT_S)
        sampler.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        tree_kb = sampler.stop()
    return Proc(
        start,
        wall,
        max(tree_kb, usage.ru_maxrss) / 1024.0,
        proc.returncode,
        out_path.read_bytes(),
        err_path.read_bytes(),
    )


@dataclass
class Tally:
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    failed: int = 0

    def record(self, what: str, proc: Proc, problems: list[str], stderr_ok=False) -> bool:
        """Count one launch; it failed on a nonzero exit, output on
        stderr (unless expected there), or a failed output check."""
        self.attempted += 1
        if proc.code != 0:
            problems = [f"exit code {proc.code}"] + problems
        if proc.stderr and not stderr_ok:
            problems = [f"stderr: {proc.stderr.decode(errors='replace').strip()[:300]}"] + problems
        if problems:
            self.failed += 1
            self.errors.append(f"{what}: " + "; ".join(problems))
        return not problems


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: Path, min_runs: int):
    """Run the workload's CLI commands back to back until the next run
    would end after `seconds`; with tracing, each round also makes a
    traced run and an import-time probe. Returns the samples and the
    tally of attempts and failures."""
    jobs, serial, csv_path = make_jobs(w, seed, work)
    tally = Tally()
    samples: dict = {key: [] for key in ("wall", "setup", "compute", "rss", "traced_wall", "traced_compute", "after_main", "blocking", "imports", "layers")}
    if serial is not None:
        proc = cli_run(serial, work)
        if tally.record("serial reference run", proc, _problems(serial, proc)):
            samples["serial_compute"] = proc.wall - proc.setup
            jobs[0].expected = serial.expected
    start = time.perf_counter()
    rounds = 0
    while not tally.failed:
        began = time.perf_counter()
        job = jobs[rounds % len(jobs)]
        rounds += 1
        proc = cli_run(job, work)
        if tally.record(job.name, proc, _problems(job, proc)):
            samples["wall"].append(proc.wall)
            samples["setup"].append(proc.setup)
            samples["compute"].append(proc.wall - proc.setup)
            samples["rss"].append(proc.rss_mb)
        if trace:
            traced(job, work, tally, samples)
        elapsed = time.perf_counter() - start
        if rounds >= min_runs and elapsed + (time.perf_counter() - began) > seconds:
            break
    samples["rounds"] = rounds
    samples["items"] = jobs[0].items
    return samples, tally


def cli_run(job: Job, work: Path) -> Proc:
    """One untraced CLI run; its set-up ends at the mark entry.py writes."""
    mark = work / "setup.mark"
    mark.unlink(missing_ok=True)
    proc = launch([sys.executable, str(HERE / "entry.py"), str(mark), *job.argv], work / "cli.out")
    try:
        proc.setup = float(mark.read_text()) - proc.start
    except (OSError, ValueError):
        pass  # stays NaN; _problems reports it
    return proc


def _problems(job: Job, proc: Proc) -> list[str]:
    missing = ["entry.py wrote no set-up mark"] if math.isnan(proc.setup) else []
    return missing + job.verify(proc.stdout)


def traced(job: Job, work: Path, tally: Tally, samples: dict) -> None:
    """A traced run of the job, then an import-time probe."""
    spans_path = work / "spans.json"
    for old in work.glob("spans.json*"):
        old.unlink()
    proc = launch([sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *job.argv], work / "traced.out")
    if tally.record("traced " + job.name, proc, job.verify(proc.stdout)):
        records = layers.load_trace(spans_path)
        metrics = layers.trace_metrics(records)
        metrics["cli.bytes_out"] = len(proc.stdout)
        samples["layers"].append(metrics)
        samples["traced_wall"].append(proc.wall)
        samples["blocking"].append(layers.blocking_path_s(records))
        loaded = layers.load_end(records)
        if loaded is not None:
            samples["traced_compute"].append(proc.start + proc.wall - loaded)
            # span dump and interpreter exit, after the root span closed
            samples["after_main"].append(proc.start + proc.wall - records[0]["main_end"])
    proc = launch([sys.executable, "-X", "importtime", "-c", IMPORT_ENTRY], work / "import.out")
    if tally.record("import probe", proc, [], stderr_ok=True):
        samples["imports"].append(layers.import_times(proc.stderr.decode()))


def end_to_end(samples: dict) -> dict[str, Optional[float]]:
    """Medians over the run's CLI processes; compute_s is the median of
    each process's wall minus its own set-up."""
    wall = _median(samples["wall"])
    return {
        "wall_s": wall,
        "setup_s": _median(samples["setup"]),
        "compute_s": _median(samples["compute"]),
        "subsets_per_s": samples["items"] / wall if wall else None,
        "peak_rss_mb": _median(samples["rss"]),
    }


def per_layer(samples: dict) -> dict[str, Optional[float]]:
    """Median over the traced runs of each layer metric, plus the ones
    that compare traced and untraced runs."""
    out = {
        name: _median([m.get(name) for m in samples["layers"]])
        for name, _ in layers.LAYER_METRICS
    }
    for name in [*layers.IMPORT_MODULES.values(), "setup.import.semdisc_s"]:
        out[name] = _median([m[name] for m in samples["imports"]])
    traced, untraced = _median(samples["traced_wall"]), _median(samples["wall"])
    out["trace.overhead_s"] = traced - untraced if traced and untraced else None
    serial, parallel = samples.get("serial_compute"), _median(samples["compute"])
    if serial is not None and parallel:
        # the serial scan's compute over 2 x the parallel scan's compute
        out["dispatch.parallel_efficiency"] = serial / (2.0 * parallel)
    return out


def manifest() -> dict:
    """Where and on what the run happened, so a loaded host shows."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (git not available)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (git failed)"


def _source_digest() -> str:
    """Identifies the measured code where there is no git metadata."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "semdisc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, min_runs: int) -> dict:
    work = WORK / f"{w.name}-seed{seed}-trace{int(trace)}"
    work.mkdir(parents=True, exist_ok=True)
    for old in work.iterdir():
        old.unlink()
    load_before = _loadavg()
    samples, tally = measure(w, seed, seconds, trace, work, min_runs)
    metrics = per_layer(samples) if trace else end_to_end(samples)
    result = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "rounds": samples["rounds"],
        "counts": {k: len(v) for k, v in samples.items() if isinstance(v, list)},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted if tally.attempted else 1.0,
        "errors": tally.errors,
        "metrics": metrics,
        "samples": {
            k: v
            for k, v in samples.items()
            if k in ("wall", "setup", "compute", "rss", "traced_wall", "blocking", "traced_compute", "after_main")
        },
        "manifest": {**manifest(), "loadavg_before": load_before, "loadavg_after": _loadavg()},
    }
    (work / "result.json").write_text(json.dumps(result, indent=2))
    return result


def print_table(result: dict) -> None:
    trace = result["trace"]
    counts = result["counts"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {trace}  rounds {result['rounds']}")
    rows = []
    if trace:
        for name, unit in layers.LAYER_METRICS:
            n = counts["imports"] if name.startswith("setup.import") else counts["layers"]
            rows.append((name, result["metrics"].get(name), unit, n))
    else:
        label = {"subsets_per_s": "palettes_per_s" if result["workload"].startswith("palette") else "subsets_per_s"}
        for name, unit in END_TO_END:
            n = counts["wall"]
            rows.append((label.get(name, name), result["metrics"].get(name), unit, n))
    rows.append(("failed_frac", result["failed_frac"], "ratio", result["attempted"]))
    for name, value, unit, n in rows:
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>12} {unit:<6} n={n}")
    overhead = result["metrics"].get("trace.overhead_s")
    if trace and result["samples"]["traced_compute"] and overhead is not None:
        blocking, compute, after = (
            statistics.median(result["samples"][k]) for k in ("blocking", "traced_compute", "after_main")
        )
        print(
            f"  traced compute {compute:.4f} s = blocking-path self time {blocking:.4f} s"
            f" + after main() returned {after:.4f} s + unaccounted {compute - blocking - after:.4f} s"
            f" (trace overhead {overhead:.4f} s)"
        )
    for error in result["errors"]:
        print(f"  FAILED {error}")
    print("  manifest " + json.dumps(result["manifest"]))


def result_line(results: list[dict], prefix: bool) -> dict:
    names = [(n, LAYER_UNITS[n]) for n in PER_LAYER] if results[0]["trace"] else END_TO_END
    metrics = {}
    for r in results:
        for name, unit in names:
            key = f"{r['workload']}.{name}" if prefix else name
            metrics[key] = {"value": r["metrics"].get(name), "unit": unit}
    return {
        "correct": all(not r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def smoke() -> int:
    """Every workload at tiny size in both modes; every metric must be
    emitted with its unit, as a number or marked absent."""
    problems = []
    for trace in (False, True):
        for w in workloads(smoke=True).values():
            result = run_workload(w, 0, 0.0, trace, 1)
            print_table(result)
            expected = layers.LAYER_METRICS if trace else END_TO_END
            for name, _ in expected:
                if name not in result["metrics"]:
                    problems.append(f"{w.name} trace {int(trace)}: {name} not emitted")
            line = result_line([result], prefix=False)
            for name, entry in line["metrics"].items():
                if w.name in LISTED and not isinstance(entry["value"], (int, float)):
                    problems.append(f"{w.name} trace {int(trace)}: {name} has no value")
            problems += [f"{w.name} trace {int(trace)}: {e}" for e in result["errors"]]
    for p in problems:
        print("SMOKE " + p)
    print(json.dumps({"smoke_ok": not problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "semdisc" / "cli.py").is_file():
        print(f"error: no semdisc source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    table = workloads(smoke=False)
    if args.workload != "all" and args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(table)} or all", file=sys.stderr)
        return 2
    chosen = list(table.values()) if args.workload == "all" else [table[args.workload]]
    results = []
    for w in chosen:
        # the median of three untraced runs at least; one traced round
        results.append(run_workload(w, args.seed, args.seconds, bool(args.trace), 1 if args.trace else 3))
        print_table(results[-1])
    line = result_line(results, prefix=len(results) > 1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
