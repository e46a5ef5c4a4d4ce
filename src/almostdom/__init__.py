"""Almost-dominance coefficients with bootstrap confidence intervals.

Estimates how close one outcome distribution comes to dominating another
in the Lorenz, inverse stochastic dominance, and stochastic dominance
senses, as the share of the area between the relevant curves where the
ordering is violated. Ships the exact empirical-curve machinery,
studentization curves, a directional-derivative bootstrap for confidence
intervals, threshold calibration, simulation drivers, and a CLI.
"""

from . import calculus, coefficients, covariance, empirical, errors, inference, simulation
from .calculus import *
from .coefficients import *
from .covariance import *
from .empirical import *
from .inference import *
from .simulation import *

__version__ = "0.1.0"

_MODULES = (calculus, coefficients, covariance, empirical, inference, simulation)
__all__ = ["errors"] + [name for module in _MODULES for name in module.__all__]
