"""Merit functions and the exact linear assignment solver.

Merit matrices have one row per feature and one column per concept. The
isolated merit is the raw association strength; the balanced merit
penalizes each pairing by the feature's strongest competing association.
Solving maximizes total merit over injective concept -> feature mappings,
for square or rectangular (more features than concepts) instances.

The solver takes the concepts' best features where those are untied and
distinct, and otherwise scipy's exact Jonker-Volgenant implementation,
imported on first use since it costs about a quarter second to load.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, ShapeError, ValidationError
from .model import AssociationTable, ConceptSet, FeatureLibrary, _keep_values

__all__ = [
    "MeritMatrix",
    "Assignment",
    "isolated_merit",
    "balanced_merit",
    "balanced_merit_values",
    "solve_assignment",
]


@dataclass(frozen=True)
class MeritMatrix:
    """Merit scores for every feature-concept pairing.

    kind is "isolated" or "balanced". Rows follow the library order,
    columns the concept order; merits may be negative. Shape,
    finiteness and the frozen copy are model._keep_values's.
    """

    library: FeatureLibrary
    concepts: ConceptSet
    values: np.ndarray = field(repr=False)
    kind: str = "isolated"

    def __post_init__(self):
        _keep_values(self, "merit")
        if self.kind not in ("isolated", "balanced"):
            raise ValidationError(f"unknown merit kind {self.kind!r}")


@dataclass(frozen=True)
class Assignment:
    """An injective concept -> feature mapping with its total merit.

    feature_indices[j] is the library row assigned to concept j, in
    concept order.
    """

    concepts: tuple[str, ...]
    feature_ids: tuple[str, ...]
    feature_indices: tuple[int, ...]
    total_merit: float

    def __post_init__(self):
        if not (
            len(self.concepts)
            == len(self.feature_ids)
            == len(self.feature_indices)
        ):
            raise ShapeError("assignment field lengths differ")
        if len(set(self.feature_indices)) != len(self.feature_indices):
            raise ValidationError("assignment reuses a feature")

    @classmethod
    def _from_rows(cls, concepts, ids, merits, rows) -> "Assignment":
        """Feature row rows[j] (of ids and merits) to concept j, the total
        merit summed in concept order."""
        return cls(
            concepts=concepts,
            feature_ids=tuple(ids[r] for r in rows),
            feature_indices=tuple(int(r) for r in rows),
            total_merit=float(merits[rows, np.arange(len(rows))].sum()),
        )

    @property
    def mapping(self) -> dict[str, str]:
        return dict(zip(self.concepts, self.feature_ids))


def isolated_merit(table: AssociationTable) -> MeritMatrix:
    """Merit = raw association strength."""
    return MeritMatrix(table.library, table.concepts, table.values, "isolated")


def balanced_merit_values(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Balanced merit on a raw value array whose concept axis is `axis`
    (vectorized over every other axis): each cell minus the row's best
    competing column.

    The row's top two come from a running maximum and minimum over the
    concept axis. The merits equal those computed from a partial sort of
    the row under ==; only where a row's two largest values are 0.0 and
    -0.0 may a zero merit carry the other sign."""
    a = np.asarray(a, dtype=float)
    if a.shape[axis] < 2:
        raise ValidationError("balanced merit needs at least 2 concepts")
    cols = a.swapaxes(0, axis)  # cols[j]: concept j's cells
    top1 = np.maximum(cols[0], cols[1])
    top2 = np.minimum(cols[0], cols[1])
    for c in cols[2:]:
        np.maximum(top2, np.minimum(top1, c), out=top2)
        np.maximum(top1, c, out=top1)
    # competitor max is top1 unless the cell is the row's maximum
    competitor = np.where(cols == top1, top2, top1)
    return np.subtract(cols, competitor, out=competitor).swapaxes(0, axis)


def balanced_merit(table: AssociationTable) -> MeritMatrix:
    """Merit = association strength minus the feature's next most strongly
    associated concept's strength."""
    return MeritMatrix(
        table.library,
        table.concepts,
        balanced_merit_values(table.values),
        "balanced",
    )


@functools.cache
def _scipy_solver():
    from scipy.optimize import linear_sum_assignment
    return linear_sum_assignment


def linear_sum_assignment(cost_matrix, maximize=False):
    """scipy.optimize.linear_sum_assignment, imported on the first call."""
    return _scipy_solver()(cost_matrix, maximize=maximize)


def solve_assignment(merit: MeritMatrix) -> Assignment:
    """Exact maximum-merit assignment for square or rectangular instances.

    No total exceeds the sum of column maxima, so maxima that are untied
    and on distinct rows are the unique optimum. Otherwise scipy decides,
    breaking ties deterministically.
    """
    v = merit.values
    N, n = v.shape
    if N < n:
        raise InfeasibleError(f"{N} features cannot cover {n} concepts")
    rows = v.argmax(axis=0)
    if np.count_nonzero(v == v[rows, np.arange(n)]) > n or len(set(rows.tolist())) < n:
        row_ind, col_ind = linear_sum_assignment(v, maximize=True)
        rows[col_ind] = row_ind
    return Assignment._from_rows(merit.concepts.concepts, merit.library.ids, v, rows)

