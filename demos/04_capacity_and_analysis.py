"""Semantic capacity of concept sets and the statistical pipeline.

For each subset of concepts, the library picks the best feature set from
the whole candidate pool (balanced-merit assignment) and scores how
decodable that set is. Scanning all k-subsets yields a table we can
correlate against distribution-level predictors, mirroring a
capacity-vs-distinctness regression analysis.

Run:  python3 demos/04_capacity_and_analysis.py
"""

import numpy as np

from semdisc import (
    AssociationTable,
    MonteCarloConfig,
    analyze,
    build_frame,
    capacity_statistics,
    exhaustive_pair_semantics,
    max_capacity,
)

rng = np.random.default_rng(2026)
table = AssociationTable.from_arrays(
    [f"f{i:02d}" for i in range(30)],
    [f"c{j}" for j in range(8)],
    rng.uniform(0.02, 0.98, size=(30, 8)),
)

# --- one concept pair, in depth -----------------------------------------
report = max_capacity(table, ["c0", "c1"])
print(f"max capacity of (c0, c1): {report.max_capacity:.4f}")
print(f"  chosen features: {report.chosen_features}  ({report.method})")

pairs = exhaustive_pair_semantics(table, ["c0", "c1"])
stats = capacity_statistics(pairs, threshold=0.7)
print(
    f"  exhaustive over all {len(pairs)} feature pairs: "
    f"max {stats['max']:.4f}, median {stats['median']:.4f}, "
    f"{stats['threshold_proportion']:.1%} above 0.7"
)

# --- the full scan + regression ------------------------------------------
cfg = MonteCarloConfig(samples=500, seed=0)
frame = build_frame(table, 2, cfg)
print(f"\nscanned {len(frame)} concept pairs")

analysis = analyze(frame)
r_dd = analysis["correlations"]["capacity_vs_distribution_difference"]
r_sp = analysis["correlations"]["capacity_vs_specificity"]
print(f"capacity vs log distribution difference: r = {r_dd['r']:+.3f} (p = {r_dd['p']:.3g})")
print(f"capacity vs log specificity:             r = {r_sp['r']:+.3f} (p = {r_sp['p']:.3g})")

cmp = analysis["fisher"]["independent"]
print(f"Fisher r-to-z comparison of the two correlations: z = {cmp['z']:+.2f}")

reg = analysis["regression"]
print("\nOLS with z-scored predictors:")
for name, b, t, p in zip(reg["names"], reg["beta"], reg["t"], reg["p"]):
    print(f"  {name:>24}: beta = {b:+.4f}, t = {t:+.2f}, p = {p:.3g}")
