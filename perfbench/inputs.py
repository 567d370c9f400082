"""Seeded synthetic inputs for the benchmark workloads.

Every table is uniform(0.02, 0.98) over 71 features with ids "1".."71",
so the bundled UW-71 color coordinates attach to it, and concepts
"c0".."c<m-1>". The values stay away from 0 and 1, where the noise model
has zero variance and assignments can tie exactly. The same seed always
gives the same tables and the same palette concept sets.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

N_FEATURES = 71
LOW, HIGH = 0.02, 0.98


def feature_ids() -> list[str]:
    return [str(i + 1) for i in range(N_FEATURES)]


def concept_ids(n_concepts: int) -> list[str]:
    return [f"c{j}" for j in range(n_concepts)]


def association_values(seed: int, n_concepts: int) -> np.ndarray:
    """The 71 x n_concepts table for a workload seed. Tables with the
    same seed and width are identical, so a serial and a parallel run of
    one scan see the same input."""
    rng = np.random.default_rng([seed, n_concepts])
    return rng.uniform(LOW, HIGH, size=(N_FEATURES, n_concepts))


def palette_concept_sets(
    seed: int, n_concepts: int, size: int, count: int
) -> list[list[str]]:
    """`count` distinct concept sets of `size` concepts, each in a seeded
    order, drawn from the table's `n_concepts` concepts."""
    rng = np.random.default_rng([seed, n_concepts, size, count])
    names = concept_ids(n_concepts)
    sets: list[list[str]] = []
    while len(sets) < count:
        pick = [names[j] for j in rng.choice(n_concepts, size, replace=False)]
        if pick not in sets:
            sets.append(pick)
    return sets


def write_association_csv(path: Path, values: np.ndarray) -> None:
    """Write the table in the CLI's association CSV format, with every
    value in shortest round-trip form so the CLI reads back the exact
    floats the reference uses."""
    lines = ["feature_id," + ",".join(concept_ids(values.shape[1]))]
    for fid, row in zip(feature_ids(), values):
        lines.append(fid + "," + ",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
