"""Capacity metrics for concept sets over a feature library.

Max capacity of a concept subset is the semantic distance of the feature
set picked by a balanced-merit assignment over the whole library:
analytic for 2-concept sets, Monte Carlo for larger ones. The module also
provides the exhaustive pairwise distances used for 2-concept histograms,
summary statistics over those distances, subset enumeration, and a
deterministic (optionally parallel) batch runner over all k-subsets.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import math
import multiprocessing
import signal
import sys
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

import numpy as np
from numpy.random import SeedSequence

from .assignment import balanced_merit, solve_assignment
from .errors import ValidationError
from .model import (
    AssociationTable,
    distributions,
    generalized_total_variation,
    mean_entropy,
)
from .montecarlo import (
    MonteCarloConfig,
    MonteCarloResult,
    _integer,
    _pair_distances,
    _pair_result,
    _usable_cpus,
    run_monte_carlo,
)

__all__ = [
    "CapacityReport",
    "max_capacity",
    "exhaustive_pair_semantics",
    "capacity_statistics",
    "enumerate_subsets",
    "iter_capacity_reports",
    "subset_seed",
]

DEFAULT_THRESHOLD = 0.7


@dataclass(frozen=True)
class CapacityReport:
    """Capacity of one concept subset over a feature library. monte_carlo
    is the result it was read from, a run or the 2-concept closed form;
    only max_capacity (and so palette) keeps it. It is None in the reports
    of iter_capacity_reports, which drop the result and keep only the
    distance."""

    concepts: tuple[str, ...]
    max_capacity: float
    chosen_features: tuple[str, ...]
    distribution_difference: float
    mean_entropy: float
    method: str  # "analytic" or "monte_carlo"
    samples: Optional[int] = None
    seed: Optional[int] = None
    monte_carlo: Optional[MonteCarloResult] = field(default=None, repr=False, compare=False)


def max_capacity(
    table: AssociationTable,
    subset: Sequence[str],
    config: MonteCarloConfig = MonteCarloConfig(),
) -> CapacityReport:
    """Semantic distance of the balanced-merit-optimal feature set for the
    given concepts, using the whole library as candidates: the distance of
    that one set, with no search for a set of larger distance."""
    sub = table.subset(concepts=list(subset))
    chosen = solve_assignment(balanced_merit(sub))
    square = sub.subset(features=list(chosen.feature_ids))
    dists = distributions(sub)
    result = _pair_result(square) if len(subset) == 2 else run_monte_carlo(square, config)
    return CapacityReport(
        concepts=tuple(subset),
        max_capacity=result.delta_s,
        chosen_features=chosen.feature_ids,
        distribution_difference=generalized_total_variation(dists),
        mean_entropy=mean_entropy(dists),
        method="analytic" if result.samples is None else "monte_carlo",
        samples=result.samples,
        seed=result.seed,
        monte_carlo=result,
    )


def exhaustive_pair_semantics(
    table: AssociationTable, subset: Sequence[str]
) -> np.ndarray:
    """Analytic semantic distance of every unordered feature pair for a
    2-concept subset, as one read-only array in the order of
    np.triu_indices(table.n_features, 1); each value is the float
    semantic_distance_analytic gives for that pair, in either order."""
    if len(subset) != 2:
        raise ValidationError(
            f"exhaustive pairwise distances need exactly 2 concepts, got {len(subset)}"
        )
    ds = _pair_distances(table.subset(concepts=list(subset)).values)
    ds.flags.writeable = False
    return ds


def capacity_statistics(
    distances: np.ndarray, threshold: float = DEFAULT_THRESHOLD
) -> dict:
    """Max / mean / median of pairwise distances, plus the fraction
    strictly above the threshold, which must be finite.

    The median is the middle of the sorted values, or the mean of the two
    middles, as np.median computes it, and NaN when a value is NaN; it is
    taken here because np.median imports numpy.ma on its first call."""
    values = np.asarray(distances, dtype=float)
    if values.size == 0:
        raise ValidationError("capacity_statistics needs a non-empty array")
    if not np.isfinite(threshold):
        raise ValidationError(f"threshold must be finite, got {threshold}")
    ordered = np.sort(values, axis=None)  # NaNs sort last
    middle = ordered[(ordered.size - 1) // 2 : ordered.size // 2 + 1]
    return {
        "max": float(values.max()),
        "mean": float(values.mean()),
        "median": math.nan if np.isnan(ordered[-1]) else float(middle.mean()),
        "threshold": float(threshold),
        "threshold_proportion": float((values > threshold).mean()),
    }


def enumerate_subsets(
    concepts: Sequence[str], k: int
) -> Iterator[tuple[str, ...]]:
    """All k-subsets of the concept list, lexicographic by position."""
    m = len(concepts)
    if not 2 <= k <= m:
        raise ValidationError(f"subset size {k} out of range [2, {m}]")
    return itertools.combinations(tuple(concepts), k)


def subset_seed(master_seed: int, subset_index: int) -> int:
    """Independent per-subset seed derived from the master seed."""
    ss = SeedSequence((master_seed, subset_index))
    return int(ss.generate_state(1, np.uint64)[0])


# consecutive subset indices in one task of a scan
_TASK = 8
# unfinished tasks submitted per pool process, so that a process finds its
# next task queued while the caller computes one of its own. Tasks are
# submitted as they are needed and never cancelled: on Python 3.11 a pool
# that breaks while a cancelled future is still queued stops its executor
# thread with InvalidStateError, and the futures after it never finish.
_BACKLOG = 3

# (table, subsets, config) of the scan a pool worker serves, set once in
# each worker process by _start_worker and never in the parent
_worker_args = None


def _start_worker(*args) -> None:
    global _worker_args
    # Ctrl-C reaches the whole process group; the caller handles it and
    # shuts the pool down
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_args = args


def _scan_report(table, subsets, config, idx):
    seeded = replace(config, seed=subset_seed(config.seed, idx))
    return replace(max_capacity(table, subsets[idx], seeded), monte_carlo=None)


def _scan_task(table, subsets, config, task: range) -> list[CapacityReport]:
    return [_scan_report(table, subsets, config, idx) for idx in task]


def _worker_task(task: range) -> list[CapacityReport]:
    return _scan_task(*_worker_args, task)


def _pooled_tasks(scan, tasks: list, workers: int) -> Iterator[list[CapacityReport]]:
    """The reports of each task, in order, computed by workers - 1 pool
    processes and the caller. Each pool process is kept _BACKLOG
    unfinished tasks; while the task the stream needs next is unfinished,
    the caller computes the next task that no process holds. A task's
    own error, and whatever starting the pool, submitting to it or
    waiting on it raises, propagates when the stream reaches it. Leaving
    the generator shuts the pool down."""
    # on Linux the pool forks whatever the default start method: forkserver
    # (Python 3.14's) and spawn import numpy, scipy and semdisc again
    context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    pool = ProcessPoolExecutor(
        workers - 1, mp_context=context, initializer=_start_worker, initargs=scan
    )
    backlog = _BACKLOG * (workers - 1)
    pending = collections.deque()  # futures of the tasks handed out and not streamed
    held = 0  # tasks handed out
    try:
        while pending or held < len(tasks):
            while held < len(tasks) and sum(not f.done() for f in pending) < backlog:
                pending.append(pool.submit(_worker_task, tasks[held]))
                held += 1
            if pending[0].done() or held == len(tasks):
                yield pending.popleft().result()
                continue
            mine = Future()
            try:
                mine.set_result(_scan_task(*scan, tasks[held]))
            except Exception as exc:
                mine.set_exception(exc)
            pending.append(mine)
            held += 1
    finally:
        pool.shutdown(cancel_futures=True)


def _streamed_tasks(scan, tasks: list, workers: int) -> Iterator[CapacityReport]:
    """The reports of every task, in order: the pooled loop's at workers > 1,
    then the no-pool loop's for the tasks not yet streamed."""
    streamed = 0
    if workers > 1:
        try:
            with contextlib.closing(_pooled_tasks(scan, tasks, workers)) as pooled:
                for reports in pooled:
                    yield from reports
                    streamed += 1
        except (OSError, BrokenProcessPool) as exc:
            warnings.warn(
                f"process pool failed ({type(exc).__name__}: {exc}); "
                "the scan goes on in this process",
                RuntimeWarning,
                stacklevel=2,
            )
    for task in tasks[streamed:]:
        yield from _scan_task(*scan, task)


def iter_capacity_reports(
    table: AssociationTable,
    k: int,
    config: MonteCarloConfig = MonteCarloConfig(),
    workers: int = 1,
) -> Iterator[CapacityReport]:
    """Capacity reports for every k-subset, streamed in enumeration order.

    Each subset gets its own seed derived from (config.seed, subset
    index), so results are identical for any worker count; workers must
    be an integer >= 1. Reports keep no MonteCarloResult (monte_carlo is
    None). The scan runs in tasks of _TASK consecutive subsets, on no
    more processes than there are usable CPUs or tasks, the caller
    included. Workers w > 1 run the pooled loop (_pooled_tasks) on w - 1
    forked processes, which receive the table once, when they start, and
    then only a task's subset indices. Otherwise, and after a pool fault,
    the caller computes the tasks in turn with no pool. Both loops stream
    whole tasks, so an error in a task is raised after the reports of
    every task before it, at any worker count. A pool that cannot start
    or take a task (OSError), or that loses a process
    (BrokenProcessPool), is shut down with a RuntimeWarning, and the
    caller computes every task not yet streamed, also those the pool had
    finished: the reports stay the same. Closing the generator cancels
    the tasks not yet started and shuts the pool down. workers and k are
    checked when the function is called, before the first report.
    """
    workers = _integer("workers", workers)
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    subsets = list(enumerate_subsets(table.concepts.concepts, k))
    indices = range(len(subsets))
    tasks = [indices[lo : lo + _TASK] for lo in indices[::_TASK]]
    workers = min(workers, len(tasks), _usable_cpus())
    return _streamed_tasks((table, subsets, config), tasks, workers)
