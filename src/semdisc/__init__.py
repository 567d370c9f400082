"""semdisc: semantic discriminability metrics for feature-concept data.

Distribution metrics (entropy, TV, GTV), merit-based assignment, Monte
Carlo semantic distance and contrast, capacity of concept sets over a
feature library, the accompanying statistical pipeline, and the bundled
UW-71 color library.
"""

__version__ = "0.1.0"

from .model import (
    AssociationTable,
    ConceptSet,
    FeatureLibrary,
    FeatureRecord,
    distributions,
    entropy,
    generalized_total_variation,
    mean_entropy,
    ml_error_probability,
    normalize,
    specificity_scores,
    total_variation,
)
from .assignment import (
    Assignment,
    MeritMatrix,
    balanced_merit,
    isolated_merit,
    solve_assignment,
)
from .montecarlo import (
    MonteCarloConfig,
    MonteCarloResult,
    run_monte_carlo,
    semantic_distance_analytic,
    sigma,
)
from .capacity import (
    CapacityReport,
    capacity_statistics,
    enumerate_subsets,
    exhaustive_pair_semantics,
    iter_capacity_reports,
    max_capacity,
)
from .analysis import (
    AnalysisFrame,
    analyze,
    build_frame,
    dependent_correlation_compare,
    fisher_r_to_z_compare,
    ols_regression,
    pearson_r,
)
from .colorspace import lab_to_srgb_hex
from .io import (
    load_association_csv,
    load_library_csv,
    load_uw71,
    with_library_coordinates,
    write_association_csv,
)
