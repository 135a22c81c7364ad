"""Direct, spillover, and interaction effects of randomized treatment on a network.

The package simulates geometric random networks and outcomes, fits linear
(count-based, ratio-based, combined) and causal-reduced-form OLS estimators,
recovers the causal effect tables they imply, and benchmarks all estimators'
bias and SD in a reproducible Monte Carlo study.
"""

__version__ = "0.1.0"

from .dgp import (
    DgpParams,
    PotentialOutcomeGrid,
    SampleFrame,
    TrueEffects,
    assign_treatment,
    dgp_scenario,
    potential_outcome,
    simulate_frame,
    simulate_frames,
    true_aggregate_effects,
)
from .design import (
    DesignMatrix,
    ModelKind,
    ModelSpec,
    build_design,
    format_model_spec,
    parse_model_spec,
    split_by_f,
)
from .effects import (
    CellMeans,
    EffectAggregates,
    EffectCell,
    EffectTable,
    cell_means,
    complete_effects,
    recover_effect_table,
    telescope_level_from_changes,
)
from .errors import (
    DataError,
    DegreesOfFreedomError,
    NumericalError,
    OutOfSupportError,
    RankDeficiencyError,
)
from .graph import (
    DEFAULT_RADIUS,
    DegreeSummary,
    Network,
    PositionSet,
    build_geometric_network,
    calibrate_radius,
    degree_stats,
    generate_positions,
    ingest_network,
    network_from_edge_pairs,
)
from .lsq import FitResult, fit, vcov
from .montecarlo import (
    MCConfig,
    MCReport,
    TableComparison,
    load_reference_tables,
    replicate_table,
    run_replication,
    run_study,
)
from .rng import GENERATOR_NAME, rng_from_seed

__all__ = [
    "__version__",
    "DgpParams", "PotentialOutcomeGrid", "SampleFrame", "TrueEffects",
    "assign_treatment", "dgp_scenario",
    "potential_outcome", "simulate_frame", "simulate_frames", "true_aggregate_effects",
    "DesignMatrix", "ModelKind", "ModelSpec", "build_design",
    "format_model_spec", "parse_model_spec", "split_by_f",
    "CellMeans", "EffectAggregates", "EffectCell", "EffectTable",
    "cell_means", "complete_effects", "recover_effect_table",
    "telescope_level_from_changes",
    "DataError", "DegreesOfFreedomError", "NumericalError",
    "OutOfSupportError", "RankDeficiencyError",
    "DEFAULT_RADIUS", "DegreeSummary", "Network", "PositionSet",
    "build_geometric_network", "calibrate_radius", "degree_stats",
    "generate_positions", "ingest_network", "network_from_edge_pairs",
    "FitResult", "fit", "vcov",
    "MCConfig", "MCReport", "TableComparison", "load_reference_tables",
    "replicate_table", "run_replication", "run_study",
    "GENERATOR_NAME", "rng_from_seed",
]
