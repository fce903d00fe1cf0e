"""Exit-cost distributions, bounds, and threshold-optimal control for PDMPs.

The solvers report fallbacks (a failed sparse LU, monotonicity clamps) on
the ``pdmp_cdf`` logger; attach a handler to see them.  The package never
prints.
"""

import logging

from .errors import ConfigError, ConvergenceError, NumericsError, PdmpError
from .model import (
    CdfField,
    ControlSet,
    ExitSpec,
    Grid,
    MinCostField,
    ModeSpec,
    ProblemSpec,
    RateBounds,
    RateMatrix,
    ScalarField,
    VectorField,
    build_grid,
    cfl_max_ds,
    transition_probabilities,
)
from . import bounds, catalog, cdf_solver, control, discrete, simulate

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "CdfField", "ControlSet", "ExitSpec", "Grid", "MinCostField", "ModeSpec",
    "ProblemSpec", "RateBounds", "RateMatrix", "ScalarField", "VectorField",
    "build_grid", "cfl_max_ds", "transition_probabilities",
    "bounds", "catalog", "cdf_solver", "control", "discrete", "simulate",
    "ConfigError", "ConvergenceError", "NumericsError", "PdmpError",
]
