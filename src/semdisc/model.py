"""Data model and distribution mathematics.

Holds the feature library / concept set / association table types and the
deterministic metrics computed from them: normalized association
distributions, entropy, total variation (TV), generalized total variation
(GTV), the maximum-likelihood error identity, and min-max specificity
scores.

All functions here are pure and operate on immutable inputs; they are safe
to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .colorspace import _check_lab
from .errors import (
    DegenerateInputError,
    ShapeError,
    UnknownIdError,
    ValidationError,
)

__all__ = [
    "FeatureRecord",
    "FeatureLibrary",
    "ConceptSet",
    "AssociationTable",
    "normalize",
    "distributions",
    "entropy",
    "mean_entropy",
    "total_variation",
    "generalized_total_variation",
    "ml_error_probability",
    "specificity_scores",
]


def _check_ids(ids: Sequence[str], kind: str, owner: str) -> None:
    """Feature and concept ids alike: at least 2, none empty or repeated."""
    if len(ids) < 2:
        raise ValidationError(f"{owner} needs at least 2 {kind}s")
    if any(not i for i in ids):
        raise ValidationError(f"{kind} ids must be non-empty")
    if len(set(ids)) != len(ids):
        raise ValidationError(f"{kind} ids must be unique")


def _position(ids: tuple[str, ...], id_: str, kind: str) -> int:
    """Index of id_ in ids, or UnknownIdError naming the kind of id."""
    try:
        return ids.index(id_)
    except ValueError:
        raise UnknownIdError(f"unknown {kind} id {id_!r}") from None


def _keep_values(matrix, name: str) -> np.ndarray:
    """Store matrix.values as a finite, read-only float copy shaped
    features x concepts, and return it."""
    v = np.array(matrix.values, dtype=float, copy=True)
    N, n = len(matrix.library), len(matrix.concepts)
    if v.shape != (N, n):
        raise ShapeError(
            f"{name} shape {v.shape} does not match {N} features x {n} concepts"
        )
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} values must be finite")
    v.flags.writeable = False
    object.__setattr__(matrix, "values", v)
    return v


@dataclass(frozen=True)
class FeatureRecord:
    """One candidate feature (a color), optionally carrying CIELAB
    coordinates and its hue-sorted display position."""

    id: str
    lab: Optional[tuple[float, float, float]] = None
    sorted_position: Optional[int] = None


@dataclass(frozen=True)
class FeatureLibrary:
    """Ordered pool of candidate features; index set runs 0..N-1. Ids
    follow _check_ids and _position, coordinates colorspace._check_lab."""

    features: tuple[FeatureRecord, ...]

    def __post_init__(self):
        _check_ids(self.ids, "feature", "feature library")
        for f in self.features:
            if f.lab is not None:
                try:
                    _check_lab(*f.lab)
                except ValidationError as exc:
                    raise ValidationError(f"feature {f.id!r}: {exc}") from None
            if f.sorted_position is not None and f.sorted_position < 1:
                raise ValidationError(
                    f"feature {f.id!r}: sorted_position must be positive"
                )

    @classmethod
    def from_ids(cls, ids: Iterable[str]) -> "FeatureLibrary":
        return cls(tuple(FeatureRecord(id=i) for i in ids))

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(f.id for f in self.features)

    def index_of(self, feature_id: str) -> int:
        return _position(self.ids, feature_id, "feature")

    def __len__(self) -> int:
        return len(self.features)


@dataclass(frozen=True)
class ConceptSet:
    """Ordered set of concept ids; index set runs 0..n-1. Ids follow
    _check_ids and _position."""

    concepts: tuple[str, ...]

    def __post_init__(self):
        _check_ids(self.concepts, "concept", "concept set")

    def index_of(self, concept_id: str) -> int:
        return _position(self.concepts, concept_id, "concept")

    def __len__(self) -> int:
        return len(self.concepts)


@dataclass(frozen=True)
class AssociationTable:
    """Raw association matrix: one row per feature, one column per concept.

    Values must lie in [0, 1] (out-of-range values are rejected, never
    clamped) and every concept column must have a positive sum so that
    normalization is defined. Both are checked when a table is built,
    not by subset(): a subset of features may have a zero column sum.
    Shape, finiteness and the frozen copy are _keep_values's.
    """

    library: FeatureLibrary
    concepts: ConceptSet
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = _keep_values(self, "association matrix")
        if np.any(v < 0.0) or np.any(v > 1.0):
            i, j = np.argwhere((v < 0.0) | (v > 1.0))[0]
            raise ValidationError(
                f"association value {v[i, j]} at feature "
                f"{self.library.ids[i]!r}, concept "
                f"{self.concepts.concepts[j]!r} outside [0, 1]"
            )
        sums = v.sum(axis=0)
        if np.any(sums <= 0.0):
            j = int(np.argmin(sums))
            raise DegenerateInputError(
                f"concept {self.concepts.concepts[j]!r} has zero column sum"
            )

    @property
    def n_features(self) -> int:
        return len(self.library)

    @property
    def n_concepts(self) -> int:
        return len(self.concepts)

    def column(self, concept_id: str) -> np.ndarray:
        return self.values[:, self.concepts.index_of(concept_id)]

    def subset(
        self,
        concepts: Optional[Sequence[str]] = None,
        features: Optional[Sequence[str]] = None,
    ) -> "AssociationTable":
        """Restrict the table to the given concept/feature ids (in the
        given order). Either argument may be None to keep all. Unknown
        and repeated ids are rejected; the values are not checked again.
        """
        values, cset, lib = self.values, self.concepts, self.library
        if concepts is not None:
            cols = [self.concepts.index_of(c) for c in concepts]
            cset = ConceptSet(tuple(concepts))
            values = values[:, cols]
        if features is not None:
            rows = [self.library.index_of(f) for f in features]
            lib = FeatureLibrary(tuple(self.library.features[r] for r in rows))
            values = values[rows]
        return self._trusted(lib, cset, values)

    @classmethod
    def _trusted(
        cls, library: FeatureLibrary, concepts: ConceptSet, values: np.ndarray
    ) -> "AssociationTable":
        """Build a table from values that come from a validated table,
        without copying or checking them again."""
        values.flags.writeable = False
        table = object.__new__(cls)
        table.__dict__.update(library=library, concepts=concepts, values=values)
        return table

    @classmethod
    def from_arrays(
        cls, feature_ids: Sequence[str], concept_ids: Sequence[str], values
    ) -> "AssociationTable":
        library = FeatureLibrary.from_ids(feature_ids)
        return cls(library, ConceptSet(tuple(concept_ids)), values)


def normalize(table: AssociationTable, concept: str) -> np.ndarray:
    """Normalize one concept column of raw associations into a discrete
    probability distribution over the feature library, returned as a
    read-only float array."""
    col = table.column(concept)
    s = col.sum()
    if s <= 0.0:
        raise DegenerateInputError(
            f"concept {concept!r} has zero column sum; normalization undefined"
        )
    p = col / s
    p.flags.writeable = False
    return p


def distributions(table: AssociationTable) -> list[np.ndarray]:
    """Normalized distributions for every concept in the table."""
    return [normalize(table, c) for c in table.concepts.concepts]


def entropy(dist) -> float:
    """Shannon entropy in nats, with the 0*log(0) = 0 convention.

    Lies in [0, log N] for a distribution over N features.
    """
    p = np.asarray(dist, dtype=float)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def mean_entropy(dists: Sequence) -> float:
    """Arithmetic mean of the entropies of a collection of distributions."""
    if len(dists) == 0:
        raise ValidationError("mean_entropy needs a non-empty list")
    return float(np.mean([entropy(d) for d in dists]))


def total_variation(d1, d2) -> float:
    """Total variation distance: half the L1 distance between two
    distributions. 0 iff identical, 1 iff disjoint supports."""
    p1, p2 = np.asarray(d1, dtype=float), np.asarray(d2, dtype=float)
    if p1.shape != p2.shape:
        raise ShapeError(
            f"distribution lengths differ: {p1.shape} vs {p2.shape}"
        )
    return float(0.5 * np.abs(p1 - p2).sum())


def generalized_total_variation(dists: Sequence) -> float:
    """Generalized total variation over k >= 2 distributions:
    -1 plus the sum over features of the per-feature maximum probability.

    Ranges over [0, k-1]; per-feature ties need no tie-breaking since
    only the max value enters. For k = 2 it is total_variation of the
    two, to the last bit: that sum and this one are equal in exact
    arithmetic but round differently, so two distributions take
    total_variation's.
    """
    if len(dists) < 2:
        raise ValidationError(
            "generalized_total_variation needs at least 2 distributions"
        )
    mat = np.asarray(dists, dtype=float)
    if mat.ndim != 2:
        raise ShapeError("distributions must be 1-D vectors of equal length")
    if len(mat) == 2:
        return total_variation(mat[0], mat[1])
    return float(mat.max(axis=0).sum() - 1.0)


def ml_error_probability(dists: Sequence) -> float:
    """Average error probability of the maximum-likelihood guess of which
    of k equiprobable distributions generated a single observed feature:
    (1 - 1/k) - GTV/k, which for k = 2 is (1 - TV)/2 with TV as
    total_variation gives it.
    """
    k = len(dists)
    gtv = generalized_total_variation(dists)
    return float((1.0 - 1.0 / k) - gtv / k)


def specificity_scores(entropies: Sequence[float]) -> list[float]:
    """Min-max normalize a collection of entropy values and flip so that
    larger scores mean more specific (lower entropy).

    The collection to normalize over is supplied explicitly by the caller;
    all-equal collections are rejected as degenerate.
    """
    h = np.asarray(entropies, dtype=float)
    if h.size < 2:
        raise ValidationError("specificity_scores needs at least 2 values")
    lo, hi = h.min(), h.max()
    if hi == lo:
        raise DegenerateInputError(
            "all entropy values equal; min-max normalization undefined"
        )
    return list(1.0 - (h - lo) / (hi - lo))
