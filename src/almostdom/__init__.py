"""Almost-dominance coefficients with bootstrap confidence intervals.

Estimates how close one outcome distribution comes to dominating another
in the Lorenz, inverse stochastic dominance, and stochastic dominance
senses, as the share of the area between the relevant curves where the
ordering is violated. Ships the exact empirical-curve machinery,
studentization curves, a directional-derivative bootstrap for confidence
intervals, threshold calibration, simulation drivers, and a CLI.
"""

from . import errors
from .calculus import (
    GridFunction,
    GridSpec,
    area_ratio,
    negative_area,
    positive_area,
)
from .coefficients import (
    CoefficientEstimate,
    Direction,
    DominanceFamily,
    Family,
    PreferenceFunction,
    RankMeasures,
    coefficient,
    cubic_preference,
    default_grid,
    difference_curve,
    family_curves,
    rank_measures,
)
from .covariance import CovKernel, lorenz_kernel, std_curve_for
from .empirical import (
    EmpiricalDistribution,
    PairedSample,
    Sample,
    SamplingScheme,
    build_empirical,
)
from .inference import (
    BootstrapResult,
    ContactSets,
    InferenceConfig,
    TuningTable,
    bootstrap_ci,
    contact_sets,
    derivative,
    select_tuning,
    tuning_table,
)
from .simulation import (
    DiscreteLaw,
    DoublePareto,
    MonteCarloReport,
    MonteCarloStudy,
    monte_carlo,
    population_coefficient,
    run_replicates,
    sample_dgp,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "GridFunction",
    "GridSpec",
    "area_ratio",
    "negative_area",
    "positive_area",
    "CoefficientEstimate",
    "Direction",
    "DominanceFamily",
    "Family",
    "PreferenceFunction",
    "RankMeasures",
    "coefficient",
    "cubic_preference",
    "default_grid",
    "difference_curve",
    "family_curves",
    "rank_measures",
    "CovKernel",
    "lorenz_kernel",
    "std_curve_for",
    "EmpiricalDistribution",
    "PairedSample",
    "Sample",
    "SamplingScheme",
    "build_empirical",
    "BootstrapResult",
    "ContactSets",
    "InferenceConfig",
    "TuningTable",
    "bootstrap_ci",
    "contact_sets",
    "derivative",
    "select_tuning",
    "tuning_table",
    "DiscreteLaw",
    "DoublePareto",
    "MonteCarloReport",
    "MonteCarloStudy",
    "monte_carlo",
    "population_coefficient",
    "run_replicates",
    "sample_dgp",
]
