"""Exception hierarchy shared by all solver and CLI layers."""


class PdmpError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PdmpError):
    """A problem definition or configuration document is invalid."""


class NumericsError(PdmpError):
    """Grid, timestep, or probability-validity requirements are violated."""


class ConvergenceError(PdmpError):
    """An iterative solver failed to converge within its iteration budget."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
