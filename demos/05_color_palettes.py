"""Building a decodable color palette from the bundled 71-color library.

Ties everything together: attach CIELAB coordinates to an association
table, pick the balanced-merit-optimal colors for a concept set, score
the palette's semantic distance, and render each pick as an sRGB hex
string (D65 white point; out-of-gamut colors are clamped and flagged).

Run:  python3 demos/05_color_palettes.py
"""

import numpy as np

from semdisc import (
    AssociationTable,
    MonteCarloConfig,
    lab_to_srgb_hex,
    load_uw71,
    max_capacity,
    with_library_coordinates,
)

library = load_uw71()
print(f"bundled library: {len(library)} colors")
for fid in ("25", "29"):
    rec = library.features[library.index_of(fid)]
    hex_str, in_gamut = lab_to_srgb_hex(rec.lab)
    print(f"  color {fid}: L*a*b* {rec.lab} -> {hex_str} (in gamut: {in_gamut})")

# Synthetic ratings over the full library for four concepts. Real use
# would load human ratings via load_association_csv.
rng = np.random.default_rng(8)
concepts = ["citrus", "forest", "ocean", "brick"]
table = with_library_coordinates(
    AssociationTable.from_arrays(
        library.ids, concepts, rng.uniform(0.02, 0.98, size=(71, 4))
    ),
    library,
)

cfg = MonteCarloConfig(samples=2000, seed=0)
report = max_capacity(table, concepts, cfg)
print(f"\nbest palette for {concepts}:")

mc = report.monte_carlo  # the run max_capacity scored the palette with
contrast = dict(zip(mc.feature_ids, mc.contrast))
for concept, fid in mc.optimal.mapping.items():
    rec = table.library.features[table.library.index_of(fid)]
    hex_str, in_gamut = lab_to_srgb_hex(rec.lab)
    flag = "" if in_gamut else "  [clamped]"
    print(
        f"  {concept:>6} -> color {fid:>2} {hex_str}"
        f"  contrast {contrast[fid]:.3f}{flag}"
    )
print(f"palette semantic distance: {mc.delta_s:.4f}")

print("\nthe same pipeline is available from the command line:")
print("  semdisc palette ratings.csv --concepts citrus,forest,ocean,brick")
