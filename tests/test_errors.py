"""Bad arguments raise the package's own error types, not plain ValueError."""

import warnings
from functools import partial

import numpy as np
import pytest

from almostdom.calculus import GridFunction, GridSpec
from almostdom.cli import load_csv
from almostdom.coefficients import DominanceFamily, cubic_preference, rank_measures
from almostdom.covariance import std_curve_for
from almostdom.empirical import EmpiricalDistribution, PairedSample, SamplingScheme
from almostdom.errors import (
    AlmostDomError,
    DegenerateCurvesError,
    DomainError,
    GridMismatchError,
    InvalidConfigError,
    NumericOverflowError,
    SchemeMismatchError,
)
from almostdom.inference import (
    ContactSets,
    InferenceConfig,
    _unpack,
    bootstrap_ci,
    contact_sets,
    derivative,
    select_tuning,
    tuning_table,
)
from almostdom.simulation import DiscreteLaw, DoublePareto, MonteCarloStudy

SPEC = GridSpec(4)
MASK = np.array([True, False, False, False])
SAMPLES = (np.array([1.0, 2.0, 4.0]), np.array([2.0, 3.0, 3.5]))
MARGINALS = tuple(EmpiricalDistribution(x) for x in SAMPLES)
CFG = InferenceConfig(t_n=1.0, seed=0, n_boot=5)
# each public entry that takes a sampling scheme, called with ``scheme`` on
# independent samples
SCHEME_ENTRIES = {
    "bootstrap_ci": lambda s: bootstrap_ci(SAMPLES, DominanceFamily.lorenz(1), s, SPEC, CFG),
    "tuning_table": lambda s: tuning_table(
        SAMPLES, DominanceFamily.lorenz(1), s, SPEC, CFG, [1.0], 2, 5
    ),
    "select_tuning": lambda s: select_tuning(
        SAMPLES, DominanceFamily.lorenz(1), s, SPEC, CFG, [1.0], 2, 5
    ),
    "std_curve_for": lambda s: std_curve_for(DominanceFamily.sd(1), *MARGINALS, None, s, SPEC),
    "load_csv": lambda s: load_csv("no-such-file.csv", s),
}


def study(true_c):
    return MonteCarloStudy(
        DoublePareto(3.0, 1.5), DoublePareto(2.1, 3.0), DominanceFamily.lorenz(1),
        SamplingScheme.MATCHED, (50, 50), InferenceConfig(t_n=1.0, seed=0), 10, true_c,
    )


CASES = {
    "grid_function_shape": (DomainError, lambda: GridFunction(SPEC, np.ones(3))),
    "grid_function_finite": (
        DomainError, lambda: GridFunction(SPEC, np.array([1.0, np.inf, 0.0, 0.0]))
    ),
    "contact_sets_shape": (
        DomainError, lambda: ContactSets(MASK, ~MASK, np.zeros(3, dtype=bool))
    ),
    "contact_sets_partition": (
        DomainError, lambda: ContactSets(MASK, ~MASK, MASK)
    ),
    "double_pareto_parameters": (InvalidConfigError, lambda: DoublePareto(3.0, -1.0)),
    "double_pareto_nan_alpha": (InvalidConfigError, lambda: DoublePareto(np.nan, 1.5)),
    "double_pareto_infinite_alpha": (InvalidConfigError, lambda: DoublePareto(np.inf, 1.5)),
    "double_pareto_nan_beta": (InvalidConfigError, lambda: DoublePareto(3.0, np.nan)),
    "double_pareto_infinite_beta": (InvalidConfigError, lambda: DoublePareto(3.0, np.inf)),
    "double_pareto_nan_scale": (InvalidConfigError, lambda: DoublePareto(3.0, 1.5, np.nan)),
    "double_pareto_infinite_scale": (
        InvalidConfigError, lambda: DoublePareto(3.0, 1.5, np.inf)
    ),
    "discrete_law_positive": (
        InvalidConfigError, lambda: DiscreteLaw([(0.0, 1.5), (1.0, -0.5)])
    ),
    "discrete_law_sum": (InvalidConfigError, lambda: DiscreteLaw([(0.0, 0.5), (1.0, 0.4)])),
    "discrete_law_nan_probability": (
        InvalidConfigError, lambda: DiscreteLaw([(1.0, np.nan), (2.0, 1.0)])
    ),
    "discrete_law_infinite_atom": (
        InvalidConfigError, lambda: DiscreteLaw([(1.0, 0.5), (np.inf, 0.5)])
    ),
    "discrete_law_nan_atom": (
        InvalidConfigError, lambda: DiscreteLaw([(1.0, 0.5), (np.nan, 0.5)])
    ),
    "monte_carlo_nan_truth": (InvalidConfigError, lambda: study(np.nan)),
    "monte_carlo_truth_above_one": (InvalidConfigError, lambda: study(2.0)),
    "monte_carlo_negative_truth": (InvalidConfigError, lambda: study(-1.0)),
    # parameters that are not numbers, or not pairs
    "double_pareto_text_alpha": (InvalidConfigError, lambda: DoublePareto("3", 1.5)),
    "discrete_law_text_atom": (InvalidConfigError, lambda: DiscreteLaw([("a", 1.0)])),
    "discrete_law_not_atoms": (InvalidConfigError, lambda: DiscreteLaw(5)),
    "monte_carlo_no_truth": (InvalidConfigError, lambda: study(None)),
    "inference_text_threshold": (InvalidConfigError, lambda: InferenceConfig(t_n="1", seed=0)),
    "inference_no_trim": (InvalidConfigError, lambda: InferenceConfig(t_n=1.0, seed=0, xi0=None)),
    "inference_infinite_threshold": (
        InvalidConfigError, lambda: InferenceConfig(t_n=np.inf, seed=0)
    ),
    "inference_infinite_trim": (
        InvalidConfigError, lambda: InferenceConfig(t_n=1.0, seed=0, xi0=np.inf)
    ),
    "inference_text_alpha": (
        InvalidConfigError, lambda: InferenceConfig(t_n=1.0, seed=0, alpha="0.1")
    ),
    "grid_text_domain": (InvalidConfigError, lambda: GridSpec(10, ("a", 1))),
    "grid_one_ended_domain": (InvalidConfigError, lambda: GridSpec(10, (0,))),
    # a scheme that is neither a member nor a member's value
    **{
        f"{name}_scheme_{scheme}": (InvalidConfigError, partial(entry, scheme))
        for name, entry in SCHEME_ENTRIES.items()
        for scheme in ("paired", 1)
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_typed_error(name):
    kind, make = CASES[name]
    with pytest.raises(AlmostDomError) as info:
        make()
    assert isinstance(info.value, kind) and isinstance(info.value, ValueError)


DIFF = GridFunction(SPEC, np.array([1.0, -1.0, 0.5, 0.0]))
SETS = ContactSets(MASK, ~MASK, np.zeros(4, dtype=bool))
PAIRS = PairedSample(np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 4.0]))
PAIRS_OF_FOUR = PairedSample(np.array([1.0, 2.0, 3.0, 5.0]), np.array([2.0, 1.0, 4.0, 3.0]))
DISTS = (EmpiricalDistribution(PAIRS.x1), EmpiricalDistribution(PAIRS.x2))
# ISD 3 variances near (1e160)**2 overflow the float range
HUGE = tuple(EmpiricalDistribution(d.sorted_values * 1e160) for d in DISTS)
WIDE = np.ones(5, dtype=bool)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # alpha <= 2 warns of infinite variance
    NO_MEAN = DoublePareto(1.0, 1.5)

GUARDS = {
    "contact_sets_effective_n": (
        InvalidConfigError,
        lambda: contact_sets(DIFF, DIFF, 0.0, InferenceConfig(t_n=1.0, seed=0)),
    ),
    "derivative_grid": (
        GridMismatchError, lambda: derivative(GridFunction(GridSpec(5), np.ones(5)), SETS, DIFF)
    ),
    "derivative_sets_size": (
        GridMismatchError, lambda: derivative(DIFF, ContactSets(WIDE, ~WIDE, ~WIDE), DIFF)
    ),
    "derivative_zero_curve": (
        DegenerateCurvesError, lambda: derivative(DIFF, SETS, GridFunction(SPEC, np.zeros(4)))
    ),
    "unpack_not_a_pair": (
        SchemeMismatchError, lambda: _unpack(np.ones(3), SamplingScheme.INDEPENDENT)
    ),
    "std_matched_without_pairs": (
        SchemeMismatchError,
        lambda: std_curve_for(
            DominanceFamily.inverse_sd(2), *DISTS, None, SamplingScheme.MATCHED, SPEC
        ),
    ),
    "std_pairs_size": (
        SchemeMismatchError,
        lambda: std_curve_for(
            DominanceFamily.inverse_sd(2), *DISTS, PAIRS_OF_FOUR, SamplingScheme.MATCHED, SPEC
        ),
    ),
    "std_overflow": (
        NumericOverflowError,
        lambda: std_curve_for(
            DominanceFamily.inverse_sd(3), *HUGE, None, SamplingScheme.INDEPENDENT, SPEC
        ),
    ),
    "rank_measures_domain": (
        InvalidConfigError,
        lambda: rank_measures(DISTS[0], cubic_preference(), GridSpec(4, (0.0, 2.0))),
    ),
    "load_csv_matched_two_files": (
        InvalidConfigError, lambda: load_csv("a.csv", SamplingScheme.MATCHED, "b.csv")
    ),
    "cum_quantile_range": (DomainError, lambda: DoublePareto(3.0, 1.5).cum_quantile(1.5)),
    "cum_quantile_alpha": (DomainError, lambda: NO_MEAN.cum_quantile(0.5)),
    "discrete_quantile_range": (
        DomainError, lambda: DiscreteLaw([(0.0, 0.5), (1.0, 0.5)]).quantile(1.0)
    ),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_guard_raises_its_type(name):
    kind, make = GUARDS[name]
    with pytest.raises(kind):
        make()


def test_double_pareto_mean_diverges():
    assert NO_MEAN.mean() == np.inf
