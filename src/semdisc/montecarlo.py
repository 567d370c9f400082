"""Noise model and Monte Carlo estimation of assignment robustness.

Association ratings are treated as independent Gaussians with per-cell
standard deviation 1.4 * a * (1 - a); perturbed ratings are not clamped
to [0, 1], since clamping would bias the cells near the endpoints while
outcomes depend only on merit comparisons. Robustness of a square
feature set is estimated by repeatedly perturbing the raw ratings,
recomputing the balanced merit, re-solving the assignment, and tallying
how often each distinct assignment wins. From the tally we get:

- generalized semantic distance: a rescaling of the modal assignment's
  frequency p, (n! p - 1) / (n! - 1), in [0, 1];
- semantic contrast: per feature, the proportion of iterations in which
  it kept the concept it holds in the unperturbed optimal assignment;
- the full response matrix of feature -> concept assignment proportions.

At n = 2, _pair_result gives the closed form (semantic_distance_analytic)
as a result whose tally holds the two assignments' win probabilities in
place of counts; run_monte_carlo stays Monte Carlo at n = 2.

Sampling uses the counter-based Philox generator keyed by the master
seed, with each iteration's draws starting at a fixed counter offset.
Normal deviates come from the inverse CDF of Philox uniforms, so results
are bit-identical for any chunking or worker count.

The kernel works on chunks of S iterations laid out concept-major: the
draws are transposed to (concept, feature, S) before the noise is
applied, so each cell's S values are one contiguous row and each
concept's cells one contiguous block. The balanced merit is then a
running maximum and minimum over the concept blocks, and its result
keeps that layout. For n <= 5 the solver scores every permutation by
adding the n merit rows of its cells, from the last concept, and takes the
first maximum; it does so for a slice of iterations at a time whose
totals fit in 64 KiB, which keeps them in cache and keeps the allocator
from returning and faulting in fresh pages for every subset of a scan.
A dynamic program over used-feature sets solves n = 6 to 8, its backward
pass on slices of 256 iterations and its backtrack on the whole chunk;
scipy solves each larger iteration. One tally of winning assignments is
the source of every estimate.

An assignment's code is its feature rows in concept order read as a
base-n number, so codes sort as the rows do lexicographically. The
tally keeps the distinct codes won, in ascending order, and the
iterations each won; for every n, each chunk of 2048 iterations is
solved, its codes are counted with np.unique and merged into the earlier
chunks' tally, so its memory grows with the number of distinct winners,
not with the samples. Codes are int64 up to n = 15 and Python ints
above, where n**n overflows int64. A run of more than one chunk, in a
process with more than one usable CPU, draws each next chunk's normals
on one helper thread while the current chunk is solved; the draws are
counter-indexed, so no byte depends on the helper. No helper starts in a
pool worker or in a process with live workers, so no subset of a
`--workers` scan starts one, in the workers or in the calling process.

Tie rule: for n <= 8 the iterations and the optimal assignment take the
lexicographically first permutation (feature rows in concept order) of
largest total, its merits added from the last concept, m0 + (m1 + ...);
for n >= 9, scipy's optimum, which is deterministic for a given scipy but
not necessarily the first. An iteration the tie rule resolves counts as
agreement: noiseless cells that tie exactly pick the same winner in
every iteration, so on [[1, 1], [0, 0]] delta_s is 1, while the closed
form reads such a tie as 0.
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
import operator
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtr, ndtri

from .assignment import Assignment, balanced_merit_values, linear_sum_assignment
from .errors import ShapeError, ValidationError
from .model import AssociationTable

__all__ = [
    "sigma",
    "MonteCarloConfig",
    "MonteCarloResult",
    "semantic_distance_analytic",
    "run_monte_carlo",
]

# half-grid shift keeps inverse-CDF inputs strictly inside (0, 1)
_U_SHIFT = 2.0 ** -54
# largest n solved by scoring every permutation, and by the subset DP
_PERM_LIMIT, _DP_LIMIT = 5, 8
# iterations drawn, solved and tallied together, and the width of the
# subset DP's backward-pass slices: its temporaries stay below glibc's
# 128 KiB mmap threshold at n = 6; at n = 7 and 8 narrower ones were slower
_CHUNK, _DP_CHUNK = 2048, 256
# size of the permutation totals the n <= 5 solver forms at once
_SOLVE_BYTES = 1 << 16


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a `taskset` or a container's cpuset narrows it), otherwise
    os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _integer(name: str, value) -> int:
    """value as a Python int (numpy integers too), or a ValidationError
    that names it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def sigma(a) -> np.ndarray:
    """Per-cell rating noise: 1.4 * a * (1 - a), zero at the rating-scale
    endpoints and at most 0.35."""
    a = np.asarray(a, dtype=float)
    return 1.4 * a * (1.0 - a)


@dataclass(frozen=True)
class MonteCarloConfig:
    """Sampling parameters: the number of perturb-and-solve iterations
    and the master seed, a Philox key in [0, 2**128)."""

    samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("samples", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.samples < 1:
            raise ValidationError("samples must be >= 1")
        if not 0 <= self.seed < 2**128:
            raise ValidationError(f"seed must be in [0, 2**128), got {self.seed}")


@dataclass(frozen=True)
class MonteCarloResult:
    """Tally of a perturb-and-solve run on one square feature set, or the
    closed form of a 2 x 2 one (_pair_result).

    assignment_frequencies maps the tuple of feature ids in concept order
    to the number of iterations that assignment won, its keys in
    lexicographic order of feature rows. contrast is aligned
    with the table's feature rows. response_matrix[i, j] is the fraction
    of iterations in which feature row i was assigned concept j; its rows
    and columns each sum to 1. These three and the optimal assignment are
    each decoded from the tally on its own first read, so a caller pays
    only for what it reads, and for delta_s nothing. The closed form's
    samples and seed are None, and its tally holds each assignment's win
    probability in place of a count.
    """

    concepts: tuple[str, ...]
    feature_ids: tuple[str, ...]
    modal_proportion: float
    delta_s: float
    samples: int | None
    seed: int | None
    # the square table's values, the assignment codes won in ascending
    # order, and the iterations each won (see _tally), or in the closed
    # form each one's win probability
    _values: np.ndarray = field(repr=False, compare=False)
    _codes: np.ndarray = field(repr=False, compare=False)
    _counts: np.ndarray = field(repr=False, compare=False)

    @functools.cached_property
    def optimal(self) -> Assignment:
        """Optimal assignment on the unperturbed means, solved through the
        same path as the sampled iterations so tie-breaking is shared."""
        m0 = balanced_merit_values(self._values)
        rows = _rows(_winners(m0.T[:, :, None]), len(self.concepts))[0]
        return Assignment._from_rows(self.concepts, self.feature_ids, m0, rows)

    @functools.cached_property
    def assignment_frequencies(self) -> dict[tuple[str, ...], int]:
        ids = np.array(self.feature_ids, dtype=object)
        keys = ids[_rows(self._codes, len(self.concepts))].tolist()
        return dict(zip(map(tuple, keys), self._counts.tolist()))

    @functools.cached_property
    def contrast(self) -> tuple[float, ...]:
        # by feature row: the iterations in which feature optimal[j] kept
        # concept j, an exact integer sum before the division
        perm0 = list(self.optimal.feature_indices)
        kept = self._counts @ (_rows(self._codes, len(perm0)) == perm0)
        contrast = np.zeros(len(perm0))
        contrast[perm0] = kept / (self.samples or 1)
        return tuple(contrast.tolist())

    @functools.cached_property
    def response_matrix(self) -> np.ndarray:
        n = len(self.concepts)
        # (feature, concept) cells won, one per concept of each winner
        cells = (_rows(self._codes, n) * n + np.arange(n)).ravel()
        wins = np.bincount(cells, weights=np.repeat(self._counts, n), minlength=n * n)
        return wins.reshape(n, n) / (self.samples or 1)

    def contrast_by_feature(self) -> dict[str, float]:
        return dict(zip(self.feature_ids, self.contrast))


def _pair_distances(a: np.ndarray) -> np.ndarray:
    """Closed-form semantic distance of every feature pair i < j of an
    N x 2 value array, in np.triu_indices(N, 1) order: the probability
    margin |2 Phi(z) - 1| by which the sign of the perturbed margin
    (a[i,0] - a[i,1]) - (a[j,0] - a[j,1]) picks the winning assignment.
    |margin| and its variance are symmetric in i and j, so no value depends
    on feature order. A noiseless pair's limit is 1, or 0 for a tie."""
    s2 = (sigma(a) ** 2).sum(axis=1)
    d = a[:, 0] - a[:, 1]
    i1, i2 = np.triu_indices(a.shape[0], k=1)
    num = np.abs(d[i1] - d[i2])
    var = s2[i1] + s2[i2]
    return np.where(
        var > 0.0,
        2.0 * ndtr(num / np.sqrt(np.where(var > 0.0, var, 1.0))) - 1.0,
        (num != 0.0).astype(float),
    )


def semantic_distance_analytic(sub) -> float:
    """Closed-form semantic distance for 2 features x 2 concepts (see
    _pair_distances). A table's values were checked when it was built;
    an array's must lie in [0, 1]."""
    is_table = isinstance(sub, AssociationTable)
    a = np.asarray(sub.values if is_table else sub, dtype=float)
    if a.shape != (2, 2):
        raise ShapeError(f"expected a 2x2 table, got shape {a.shape}")
    if not is_table and not ((a >= 0.0) & (a <= 1.0)).all():
        raise ValidationError(f"association values must lie in [0, 1]: {a.tolist()}")
    return float(_pair_distances(a)[0])


def _pair_result(square: AssociationTable) -> MonteCarloResult:
    """The closed form of a 2 x 2 square as a result: its delta_s is
    semantic_distance_analytic's, and its tally gives the optimal
    assignment the win probability p = (1 + delta_s) / 2, the modal
    proportion, and the other 1 - p. The optimum is rows (0, 1), code 1,
    unless a[0,0] - a[0,1] < a[1,0] - a[1,1]: the kernel's first-permutation
    tie rule."""
    a = square.values
    delta_s = semantic_distance_analytic(square)
    p = (1.0 + delta_s) / 2.0
    d = a[:, 0] - a[:, 1]
    return MonteCarloResult(
        concepts=square.concepts.concepts,
        feature_ids=square.library.ids,
        modal_proportion=p,
        delta_s=delta_s,
        samples=None,
        seed=None,
        _values=a,
        _codes=np.array([1, 2]),
        _counts=np.array([1.0 - p, p] if d[0] < d[1] else [p, 1.0 - p]),
    )


def _iteration_normals(seed: int, start: int, count: int, cells: int) -> np.ndarray:
    """Standard-normal draws for iterations [start, start+count), shape
    (count, cells).

    Each iteration owns a fixed budget of Philox counter blocks (4
    doubles per 128-bit block), so any split into chunks, threads or
    workers reproduces the serial stream exactly.
    """
    blocks = -(-cells // 4)
    u = Generator(Philox(key=seed, counter=start * blocks)).random((count, blocks * 4))
    z = u[:, :cells]
    z += _U_SHIFT
    return ndtri(z, out=z)


@functools.cache
def _place_values(n: int) -> np.ndarray:
    """Place value of concept j's feature row in an assignment code,
    n**(n-1-j): int64 while n**n fits (n <= 15), Python ints above."""
    values = np.array(
        [n ** (n - 1 - j) for j in range(n)], dtype=np.int64 if n <= 15 else object
    )
    values.flags.writeable = False
    return values


def _code(rows: np.ndarray) -> np.ndarray:
    """Code of each assignment of rows (S, n), feature row per concept."""
    return rows @ _place_values(rows.shape[1])


def _rows(codes: np.ndarray, n: int) -> np.ndarray:
    """Feature row per concept, (S, n), of each assignment code."""
    return (codes[:, None] // _place_values(n) % n).astype(np.intp)


@functools.cache
def _permutations(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of range(n) in lexicographic order, and their codes."""
    perms = np.array(list(itertools.permutations(range(n))))
    codes = _code(perms)
    perms.flags.writeable = codes.flags.writeable = False
    return perms, codes


def _solve_square_batch(merits: np.ndarray) -> np.ndarray:
    """Winning assignment code per iteration of concept-major merits
    (concept, feature, S) for n <= _PERM_LIMIT; first (lexicographically
    smallest) permutation wins exact ties.

    A permutation's total adds its n cells' rows of the flattened merits
    from the last concept, m0 + (m1 + (... + m(n-1))), which is how the
    subset DP rounds it, so both follow the module's one tie rule.
    """
    n = merits.shape[0]
    perms, perm_codes = _permutations(n)
    flat = merits.reshape(n * n, -1)
    cells = np.arange(n) * n + perms
    step = max(1, _SOLVE_BYTES // (8 * len(perms)))
    codes = np.empty(flat.shape[1], dtype=np.int64)
    for lo in range(0, flat.shape[1], step):
        block = flat[:, lo : lo + step]
        totals = block[cells[:, -1]]
        for j in reversed(range(n - 1)):
            totals += block[cells[:, j]]
        codes[lo : lo + step] = perm_codes[np.argmax(totals, axis=0)]
    return codes


@functools.cache
def _mask_levels(n: int):
    """Per concept j, the rows that hold the used-feature sets of size j
    when the 2**n sets are grouped by size, each group in ascending mask
    order; each set's free features in ascending order; and the rows of
    the sets they lead to."""
    by_size = [[m for m in range(1 << n) if m.bit_count() == j] for j in range(n + 1)]
    row = np.empty(1 << n, dtype=np.intp)
    row[[m for masks in by_size for m in masks]] = np.arange(1 << n)
    levels, lo = [], 0
    for masks in by_size[:-1]:
        free = np.array([[i for i in range(n) if not m >> i & 1] for m in masks])
        after = row[np.array(masks)[:, None] | 1 << free]
        levels.append((slice(lo, lo + len(masks)), free, after))
        lo += len(masks)
    return levels


def _dp_best(merits: np.ndarray, best: np.ndarray) -> None:
    """Backward pass of the subset DP over concept-major merits (concept,
    feature, S): writes into best, (2**n, S) in _mask_levels' rows, each
    used-feature set's best completion, the largest total of the merits
    still to come, added from the last concept."""
    levels = _mask_levels(merits.shape[0])
    best[-1] = 0.0  # every feature used
    for j in reversed(range(len(levels))):
        rows, free, after = levels[j]
        np.maximum.reduce(merits[j][free] + best[after], axis=1, out=best[rows])


def _dp_rows(merits: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Backtrack of the subset DP: feature row per concept, (S, n), of
    each iteration, given the best completions _dp_best wrote. It takes
    the first feature whose best completion, with the chosen merits added
    back, reaches the largest total, so the tie rule holds where one more
    addition rounds two completion totals together. Gathers go through
    flat indices, cell (row, s) at row * S + s; the last concept takes
    the one feature left."""
    n, _, S = merits.shape
    merits, best = merits.reshape(n, -1), best.reshape(-1)
    top, s = best[:S, None], np.arange(S)
    at, picked, chosen = np.zeros(S, dtype=np.intp), [], []
    *levels, (last, free_last, _) = _mask_levels(n)
    for j, (rows, free, after) in enumerate(levels):
        i = at - rows.start
        f, nxt = free.take(i, axis=0), after.take(i, axis=0)  # (S, free feature)
        totals = merits[j].take(f * S + s[:, None])
        totals += best.take(nxt * S + s[:, None])
        for m in reversed(chosen):
            totals = m[:, None] + totals
        # first to reach the top, as a flat index into (S, free feature)
        c = (totals == top).argmax(axis=1) + s * f.shape[1]
        picked.append(f.take(c))
        chosen.append(merits[j].take(picked[-1] * S + s))
        at = nxt.take(c)
    picked.append(free_last[at - last.start, 0])
    return np.stack(picked, axis=1)


def _solve_subset_dp(merits: np.ndarray) -> np.ndarray:
    """Feature row per concept, (S, n), of each iteration of concept-major
    merits: the first permutation of largest total, by a DP over
    used-feature sets (Held & Karp 1962). Its backward pass runs on slices
    of _DP_CHUNK iterations, its backtrack on all S at once."""
    S = merits.shape[2]
    best = np.empty((1 << merits.shape[0], S))
    for lo in range(0, S, _DP_CHUNK):
        cols = slice(lo, lo + _DP_CHUNK)
        _dp_best(merits[:, :, cols], best[:, cols])
    return _dp_rows(merits, best)


def _winners(merits: np.ndarray) -> np.ndarray:
    """Code of the winning assignment of each iteration of concept-major
    merits (concept, feature, S)."""
    n, _, S = merits.shape
    if n <= _PERM_LIMIT:
        return _solve_square_batch(merits)
    if n <= _DP_LIMIT:
        rows = _solve_subset_dp(merits)
    else:
        rows = np.empty((S, n), dtype=np.intp)
        # above n = 8, where the subset DP is no faster, scipy solves each
        # iteration's (feature, concept) matrix and breaks its ties
        for t, m in enumerate(np.ascontiguousarray(merits.transpose(2, 1, 0))):
            r, c = linear_sum_assignment(m, maximize=True)
            rows[t, c] = r
    return _code(rows)


def _tally(a: np.ndarray, config: MonteCarloConfig):
    """The assignment codes won in config.samples perturb-and-solve
    iterations on the square value array a, in ascending order, and the
    iterations each won. Every Monte Carlo estimate is read from this
    tally. Each chunk of _CHUNK iterations is drawn, perturbed, given
    merits, solved, counted and merged into the earlier chunks' tally.

    A run of more than one chunk, in a process with more than one usable
    CPU, draws each next chunk's normals on one helper thread while this
    thread solves the current chunk; a draw the helper has not started
    when it is needed is cancelled and made here. Draws are
    counter-indexed, so no value depends on which thread made it.
    Single-chunk runs start no thread, and neither does a pool worker or
    a process with live workers, such as a scan's caller, whose workers
    already use the other CPUs. Each draw is a fresh array that no other
    thread writes."""
    n, samples = a.shape[0], config.samples
    noise = sigma(a).T[:, :, None]
    mean = a.T[:, :, None]
    helper = None
    if (
        samples > _CHUNK
        and multiprocessing.parent_process() is None
        and not multiprocessing.active_children()
        and _usable_cpus() > 1
    ):
        from concurrent.futures import ThreadPoolExecutor

        helper = ThreadPoolExecutor(1)

    def draw(start):
        count = min(_CHUNK, samples - start)
        return _iteration_normals(config.seed, start, count, n * n)

    codes = counts = ahead = None
    try:
        for start in range(0, samples, _CHUNK):
            z = draw(start) if ahead is None or ahead.cancel() else ahead.result()
            if helper is not None and start + _CHUNK < samples:
                ahead = helper.submit(draw, start + _CHUNK)
            count = len(z)
            x = np.empty((n, n, count))  # x[j, i]: cell (feature i, concept j)
            np.multiply(noise, z.T.reshape(n, n, count).swapaxes(0, 1), out=x)
            x += mean
            won = _winners(balanced_merit_values(x, axis=0))
            won, wins = np.unique(won, return_counts=True)
            if codes is not None:  # merge into the earlier chunks' tally
                merged = np.union1d(codes, won)
                total = np.zeros(len(merged), dtype=np.int64)
                total[np.searchsorted(merged, codes)] += counts
                total[np.searchsorted(merged, won)] += wins
                won, wins = merged, total
            codes, counts = won, wins
    finally:
        if helper is not None:
            helper.shutdown(cancel_futures=True)
    return codes, counts


def run_monte_carlo(
    table: AssociationTable, config: MonteCarloConfig = MonteCarloConfig()
) -> MonteCarloResult:
    """Full perturb-and-solve tally for a square n x n table.

    The distance, contrast, and response-matrix estimates all come from
    the same iterations; all but the distance are decoded on first read.
    """
    a = table.values
    n = a.shape[1]
    if a.shape[0] != n:
        raise ShapeError(f"square table required, got {a.shape}")
    codes, counts = _tally(a, config)
    p_modal = int(counts.max()) / config.samples
    n_fact = math.factorial(n)
    delta_s = (n_fact * p_modal - 1.0) / (n_fact - 1.0)
    return MonteCarloResult(
        concepts=table.concepts.concepts,
        feature_ids=table.library.ids,
        modal_proportion=p_modal,
        delta_s=delta_s,
        samples=config.samples,
        seed=config.seed,
        _values=a,
        _codes=codes,
        _counts=counts,
    )
