"""Error and warning types shared across the package."""

import numpy as np

# the most float64 or int64 elements numpy can describe in one array
MOST_ELEMENTS = np.iinfo(np.intp).max // 8


class AfmError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(AfmError):
    """Operand shapes do not conform to an operation's shape rule."""


class NumericError(AfmError):
    """A non-finite value (NaN/Inf) was encountered where finiteness is required."""


class ConfigError(AfmError):
    """Invalid configuration or argument bounds."""


class SubgradientWarning(UserWarning):
    """A finite-difference probe crossed a relu kink; the coordinate was skipped."""
