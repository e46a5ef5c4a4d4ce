"""Bad arguments raise the package's own error types, not plain ValueError."""

import numpy as np
import pytest

from almostdom.calculus import GridFunction, GridSpec
from almostdom.coefficients import Family
from almostdom.covariance import CovKernel
from almostdom.empirical import SamplingScheme
from almostdom.errors import AlmostDomError, DomainError, InvalidConfigError
from almostdom.inference import ContactSets
from almostdom.rng import child_rng
from almostdom.simulation import DiscreteLaw, DoublePareto, sample_dgp

SPEC = GridSpec(4)
MASK = np.array([True, False, False, False])

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
    "cov_kernel_shape": (
        DomainError,
        lambda: CovKernel(SPEC, np.eye(3), Family.LORENZ, SamplingScheme.MATCHED),
    ),
    "double_pareto_parameters": (InvalidConfigError, lambda: DoublePareto(3.0, -1.0)),
    "discrete_law_positive": (
        InvalidConfigError, lambda: DiscreteLaw([(0.0, 1.5), (1.0, -0.5)])
    ),
    "discrete_law_sum": (InvalidConfigError, lambda: DiscreteLaw([(0.0, 0.5), (1.0, 0.4)])),
    "sample_dgp_size": (
        InvalidConfigError, lambda: sample_dgp(DoublePareto(3.0, 1.5), 0, child_rng(0))
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_typed_error(name):
    kind, make = CASES[name]
    with pytest.raises(AlmostDomError) as info:
        make()
    assert isinstance(info.value, kind) and isinstance(info.value, ValueError)
