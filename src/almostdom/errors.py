"""Exception types raised across the package.

Every error subclasses :class:`AlmostDomError`, so callers can catch the
whole family with one clause; most also subclass a fitting builtin
(``ValueError``/``ArithmeticError``) for generic handling.
"""


class AlmostDomError(Exception):
    """Base class for all errors raised by this package."""


class EmptySampleError(AlmostDomError, ValueError):
    """A sample with no observations was supplied."""


class ZeroMeanError(AlmostDomError, ValueError):
    """A Lorenz curve was requested for a sample whose mean is not positive."""


class DomainError(AlmostDomError, ValueError):
    """An argument lies outside the mathematical domain of the function."""


class InvalidFamilyDegreeError(AlmostDomError, ValueError):
    """The (family, degree, direction) combination is not defined."""


class DegenerateCurvesError(AlmostDomError, ArithmeticError):
    """Both signed areas vanish: the two curves coincide on the grid.

    The coefficient is 0/0 and the distributions are indistinguishable at
    the working resolution.
    """


class SchemeMismatchError(AlmostDomError, ValueError):
    """The sampling scheme is inconsistent with the data supplied."""


class GridMismatchError(AlmostDomError, ValueError):
    """Curves or contact sets on different grids were passed together."""


class NonFiniteDrawError(AlmostDomError, ArithmeticError):
    """No usable bootstrap draw, or no usable study replicate, is left."""


class NumericOverflowError(DomainError):
    """A sum or integral of the data exceeds the floating-point range."""


class InvalidConfigError(AlmostDomError, ValueError):
    """A configuration value violates its constraints."""


class CsvParseError(AlmostDomError, ValueError):
    """A CSV cell could not be parsed; carries 1-based row/column positions."""

    def __init__(self, message: str, row: int, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class NegativeValueError(CsvParseError):
    """A negative outcome was supplied to a family that requires nonnegative data."""
