"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: hypothesis violations -> 1,
numerical failures -> 2, configuration errors -> 3.
"""


class StarpinchError(Exception):
    """Base class for all package errors."""


class HypothesisError(StarpinchError):
    """A geometric hypothesis is violated (not starshaped, min H_{r+1;n,1} <= 0 at r >= 2, ...)."""


class NumericalError(StarpinchError):
    """A numerical procedure failed (non-convergence, NaN, broken bound)."""


class ConfigError(StarpinchError):
    """The experiment configuration is malformed or inconsistent."""
