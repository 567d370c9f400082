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

Sampling uses the counter-based Philox generator keyed by the master
seed, with each iteration's draws starting at a fixed counter offset.
Normal deviates come from the inverse CDF of Philox uniforms, so results
are bit-identical for any chunking or worker count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox
from scipy.optimize import linear_sum_assignment
from scipy.special import ndtr, ndtri

from .assignment import Assignment, balanced_merit_values
from .errors import ShapeError, ValidationError
from .model import AssociationTable

__all__ = [
    "sigma",
    "MonteCarloConfig",
    "MonteCarloResult",
    "standard_normal_cdf",
    "semantic_distance_analytic",
    "run_monte_carlo",
]

# half-grid shift keeps inverse-CDF inputs strictly inside (0, 1)
_U_SHIFT = 2.0 ** -54
# cap on vectorized permutation enumeration; beyond this each iteration
# is solved individually
_PERM_LIMIT = 5


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
        if self.samples < 1:
            raise ValidationError("samples must be >= 1")
        if not 0 <= self.seed < 2**128:
            raise ValidationError(f"seed must be in [0, 2**128), got {self.seed}")


@dataclass(frozen=True)
class MonteCarloResult:
    """Tally of a perturb-and-solve run on one square feature set.

    assignment_frequencies maps the tuple of feature ids in concept order
    to the number of iterations that assignment won. contrast is aligned
    with the table's feature rows. response_matrix[i, j] is the fraction
    of iterations in which feature row i was assigned concept j; its rows
    and columns each sum to 1.
    """

    concepts: tuple[str, ...]
    feature_ids: tuple[str, ...]
    assignment_frequencies: dict[tuple[str, ...], int]
    modal_proportion: float
    delta_s: float
    contrast: tuple[float, ...]
    optimal: Assignment
    response_matrix: np.ndarray = field(repr=False)
    samples: int = 1000
    seed: int = 0

    def contrast_by_feature(self) -> dict[str, float]:
        return dict(zip(self.feature_ids, self.contrast))


def standard_normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return float(ndtr(z))


def semantic_distance_analytic(sub) -> float:
    """Closed-form semantic distance for 2 features x 2 concepts.

    The winning assignment is decided by the sign of the diagonal-minus-
    antidiagonal sum of perturbed ratings; under the Gaussian noise model
    that sign probability has a normal-CDF form, and the distance is the
    probability margin |2 Phi(z) - 1|. If every cell is noiseless the
    limit is 1 for a nonzero margin and 0 for a tie.
    """
    a = np.asarray(sub.values if isinstance(sub, AssociationTable) else sub, dtype=float)
    if a.shape != (2, 2):
        raise ShapeError(f"expected a 2x2 table, got shape {a.shape}")
    numerator = (a[0, 0] + a[1, 1]) - (a[0, 1] + a[1, 0])
    var = float((sigma(a) ** 2).sum())
    if var == 0.0:
        return 1.0 if numerator != 0.0 else 0.0
    prob_positive = standard_normal_cdf(numerator / math.sqrt(var))
    return abs(2.0 * prob_positive - 1.0)


def _iteration_normals(
    seed: int, start: int, count: int, cells: int
) -> np.ndarray:
    """Standard-normal draws for iterations [start, start+count).

    Each iteration owns a fixed budget of Philox counter blocks (4
    doubles per 128-bit block), so any split into chunks or workers
    reproduces the serial stream exactly.
    """
    blocks = -(-cells // 4)
    bg = Philox(key=seed)
    if start:
        bg.advance(start * blocks)
    u = Generator(bg).random(count * blocks * 4).reshape(count, blocks * 4)
    return ndtri(u[:, :cells] + _U_SHIFT)


def _solve_square_batch(merits: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Winning permutation index per iteration; first (lexicographically
    smallest) permutation wins exact ties."""
    n = merits.shape[-1]
    totals = merits[:, perms, np.arange(n)].sum(axis=-1)
    return np.argmax(totals, axis=1)


def _winners(merits: np.ndarray, perms) -> np.ndarray:
    """Code of the winning assignment of each merit matrix in a batch.

    For n <= _PERM_LIMIT, perms is the array of all permutations in
    lexicographic order and a code is an index into it. Above that,
    perms is a dict from winning feature rows (one per concept) to codes,
    extended in order of first appearance, and scipy solves each matrix.
    """
    if isinstance(perms, np.ndarray):
        return _solve_square_batch(merits, perms)
    n = merits.shape[-1]
    codes = np.empty(len(merits), dtype=np.int64)
    rows = np.empty(n, dtype=int)
    for t, m in enumerate(merits):
        r, c = linear_sum_assignment(m, maximize=True)
        rows[c] = r
        codes[t] = perms.setdefault(tuple(rows.tolist()), len(perms))
    return codes


def run_monte_carlo(
    table: AssociationTable, config: MonteCarloConfig = MonteCarloConfig()
) -> MonteCarloResult:
    """Full perturb-and-solve tally for a square n x n table.

    The distance, contrast, and response-matrix estimates all come from
    the same iterations.
    """
    a = table.values
    n = a.shape[1]
    if a.shape[0] != n:
        raise ShapeError(f"square table required, got {a.shape}")
    noise = sigma(a)
    n_fact = math.factorial(n)
    perms = np.array(list(itertools.permutations(range(n)))) if n <= _PERM_LIMIT else {}
    m0 = balanced_merit_values(a)

    counts = np.zeros(0, dtype=np.int64)  # iterations won, by code
    chunk = 4096
    for start in range(0, config.samples, chunk):
        count = min(chunk, config.samples - start)
        z = _iteration_normals(config.seed, start, count, n * n)
        z = z.reshape(count, n, n)
        merits = balanced_merit_values(a + noise * z)
        won = np.bincount(_winners(merits, perms), minlength=len(perms))
        won[: len(counts)] += counts
        counts = won

    # optimal assignment on the unperturbed means, solved through the
    # same path as the sampled iterations so tie-breaking is shared, and
    # after them so that codes keep the iterations' order of first win
    code0 = _winners(m0[None, :, :], perms)[0]
    rows_of = perms if isinstance(perms, np.ndarray) else np.array(list(perms))
    perm0 = rows_of[code0]
    ids = table.library.ids
    optimal = Assignment(
        concepts=table.concepts.concepts,
        feature_ids=tuple(ids[i] for i in perm0),
        feature_indices=tuple(int(i) for i in perm0),
        total_merit=float(m0[perm0, np.arange(n)].sum()),
    )

    freq = {}
    match = np.zeros(n, dtype=np.int64)  # per concept position
    response = np.zeros((n, n))
    for k in np.nonzero(counts)[0]:
        p = rows_of[k]
        freq[tuple(ids[i] for i in p)] = int(counts[k])
        match += np.where(p == perm0, counts[k], 0)
        response[p, np.arange(n)] += counts[k]

    p_modal = int(counts.max()) / config.samples
    delta_s = (n_fact * p_modal - 1.0) / (n_fact - 1.0)
    # contrast indexed by feature row: feature perm0[j] matched concept j
    contrast = np.zeros(n)
    contrast[perm0] = match / config.samples
    return MonteCarloResult(
        concepts=table.concepts.concepts,
        feature_ids=ids,
        assignment_frequencies=freq,
        modal_proportion=p_modal,
        delta_s=delta_s,
        contrast=tuple(float(x) for x in contrast),
        optimal=optimal,
        response_matrix=response / config.samples,
        samples=config.samples,
        seed=config.seed,
    )
