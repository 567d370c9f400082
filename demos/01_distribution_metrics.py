"""How concept association distributions are summarized.

Walks through the distribution-level metrics: normalization, Shannon
entropy (as a specificity measure), total variation between two concepts,
its multi-concept generalization, and the closed-form link to the error
rate of an ideal observer.

Run:  python3 demos/01_distribution_metrics.py
"""

import numpy as np

from semdisc import (
    AssociationTable,
    distributions,
    entropy,
    generalized_total_variation,
    ml_error_probability,
    normalize,
    specificity_scores,
    total_variation,
)

# A toy table: 5 candidate features (think: colors) rated against 3
# concepts. "peach" is strongly tied to f0, "slate" is diffuse.
table = AssociationTable.from_arrays(
    feature_ids=["f0", "f1", "f2", "f3", "f4"],
    concept_ids=["peach", "slate", "moss"],
    values=[
        [0.90, 0.30, 0.10],
        [0.05, 0.35, 0.15],
        [0.05, 0.25, 0.70],
        [0.10, 0.30, 0.20],
        [0.15, 0.40, 0.10],
    ],
)

print("raw association columns sum to anything; distributions sum to 1:")
for concept, dist in zip(table.concepts.concepts, distributions(table)):
    print(f"  {concept:>6}: {np.round(dist, 3)}")

print("\nentropy (nats) is low for peaked concepts, high for flat ones:")
for concept, dist in zip(table.concepts.concepts, distributions(table)):
    print(f"  H({concept}) = {entropy(dist):.4f}")

spec = specificity_scores([entropy(d) for d in distributions(table)])
print("\nmin-max specificity flips and rescales entropy to [0, 1]:")
for concept, s in zip(table.concepts.concepts, spec):
    print(f"  specificity({concept}) = {s:.4f}")

p_peach = normalize(table, "peach")
p_slate = normalize(table, "slate")
tv = total_variation(p_peach, p_slate)
gtv2 = generalized_total_variation([p_peach, p_slate])
print(f"\nTV(peach, slate) = {tv:.4f}")
print(f"GTV of the same two distributions = {gtv2:.4f}  (identical by design)")

all_three = distributions(table)
gtv3 = generalized_total_variation(all_three)
err = ml_error_probability(all_three)
print(f"\nGTV over all three concepts = {gtv3:.4f}")
print(
    f"ideal-observer error guessing the concept from one feature draw = "
    f"{err:.4f}"
)
print(
    "check: (1 - 1/k) - GTV/k = "
    f"{(1 - 1 / 3) - gtv3 / 3:.4f}  (same number, k = 3)"
)
