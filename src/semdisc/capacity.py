"""Capacity metrics for concept sets over a feature library.

Max capacity of a concept subset is the semantic distance of the feature
set picked by a balanced-merit assignment over the whole library:
analytic for 2-concept sets, Monte Carlo for larger ones. The module also
provides the exhaustive pairwise distances used for 2-concept histograms,
summary statistics over those distances, subset enumeration, and a
deterministic (optionally parallel) batch runner over all k-subsets.
"""

from __future__ import annotations

import itertools
import signal
import warnings
from concurrent.futures import Future, ProcessPoolExecutor, wait
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
    _pair_distances,
    _usable_cpus,
    run_monte_carlo,
    semantic_distance_analytic,
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
    is the run it was read from; only max_capacity (and so palette) keeps
    it. It is None on the analytic 2-concept path and in the reports of
    iter_capacity_reports, which drop the run and keep only the
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
    n = len(subset)
    if n == 2:
        capacity = semantic_distance_analytic(square)
        method = "analytic"
        samples = seed = result = None
    else:
        result = run_monte_carlo(square, config)
        capacity = result.delta_s
        method = "monte_carlo"
        samples, seed = config.samples, config.seed
    return CapacityReport(
        concepts=tuple(subset),
        max_capacity=capacity,
        chosen_features=chosen.feature_ids,
        distribution_difference=generalized_total_variation(dists),
        mean_entropy=mean_entropy(dists),
        method=method,
        samples=samples,
        seed=seed,
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
    strictly above the threshold."""
    values = np.asarray(distances, dtype=float)
    if values.size == 0:
        raise ValidationError("capacity_statistics needs a non-empty array")
    return {
        "max": float(values.max()),
        "mean": float(values.mean()),
        "median": float(np.median(values)),
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


# consecutive subset indices in one task of a pooled scan
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


def _finished(future: Future) -> bool:
    """Whether a task's future holds its reports or its own error, rather
    than a pool fault."""
    return (
        future.done()
        and not future.cancelled()
        and not isinstance(future.exception(), BrokenProcessPool)
    )


def _stop_pool(pool, futures: list, start: int, cause: Exception) -> None:
    """Give up a pool that could not start, take a task or finish one:
    shut it down, hand every task from start on that it has not finished
    back to the caller (None), and warn."""
    if pool:
        pool.shutdown(cancel_futures=True)
    for j in range(start, len(futures)):
        if futures[j] and not _finished(futures[j]):
            futures[j] = None
    warnings.warn(
        f"process pool failed ({type(cause).__name__}: {cause}); "
        "the scan goes on in this process",
        RuntimeWarning,
        stacklevel=3,
    )


def iter_capacity_reports(
    table: AssociationTable,
    k: int,
    config: MonteCarloConfig = MonteCarloConfig(),
    workers: int = 1,
) -> Iterator[CapacityReport]:
    """Capacity reports for every k-subset, streamed in enumeration order.

    Each subset gets its own seed derived from (config.seed, subset
    index), so results are identical for any worker count. Reports keep
    no MonteCarloResult (monte_carlo is None). Every worker count runs
    one loop over tasks of _TASK consecutive subsets, on no more
    processes than there are usable CPUs or tasks, the caller included:
    workers w > 1 fork w - 1 pool processes, which receive the table once,
    when they start, and then only a task's subset indices. Tasks go out
    in order: each pool process is kept _BACKLOG unfinished tasks, and
    while the task the stream needs next is unfinished, the caller
    computes the next task that no process holds. An error in a task is
    raised when the stream reaches that task, after the reports of every
    task before it. A pool that cannot start or take a task (OSError),
    or that loses a process (BrokenProcessPool), is shut down with a
    RuntimeWarning, and the caller computes every task that it has not
    finished: the reports stay the same. Closing the generator cancels
    the tasks not yet started and shuts the pool down.
    """
    subsets = list(enumerate_subsets(table.concepts.concepts, k))
    scan = (table, subsets, config)
    indices = range(len(subsets))
    tasks = [indices[lo : lo + _TASK] for lo in indices[::_TASK]]
    workers = min(workers, len(tasks), _usable_cpus())
    futures = [None] * len(tasks)  # None: no process holds the task
    held = 0  # every task below held is, or was, held by a process
    pool = None
    try:
        if workers > 1:
            try:
                pool = ProcessPoolExecutor(workers - 1, initializer=_start_worker, initargs=scan)
            except OSError as exc:
                _stop_pool(None, futures, 0, exc)
        for i in range(len(tasks)):
            while not (futures[i] and _finished(futures[i])):
                try:
                    if futures[i] and futures[i].done():  # the pool lost a process
                        raise futures[i].exception()
                    while pool and held < len(tasks) and (
                        sum(not f.done() for f in futures[i:held]) < _BACKLOG * (workers - 1)
                    ):
                        futures[held] = pool.submit(_worker_task, tasks[held])
                        held += 1
                except (OSError, BrokenProcessPool) as exc:
                    _stop_pool(pool, futures, i, exc)
                    pool = None
                j = i if futures[i] is None else held
                if j == len(tasks):
                    wait([futures[i]])
                    continue
                mine = futures[j] = Future()
                try:
                    mine.set_result(_scan_task(*scan, tasks[j]))
                except Exception as exc:
                    mine.set_exception(exc)
                held = max(held, j + 1)
            yield from futures[i].result()
            futures[i] = None  # the stream is past it: free its reports
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
