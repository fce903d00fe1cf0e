"""Built-in benchmark problems.

All six share unit running cost and zero exit cost on the whole boundary,
so the cumulative cost is the time to reach the boundary.

  example1  1D sailboat, speeds +1/-1, symmetric switching rate 2
  example2  1D, unequal speeds +1/2 and -1, rate 2
  example3  2D, four unit-speed compass modes, rate 1
  example4  example1 dynamics with switching rates roaming [1, 4]
  example5  1D controlled: direction choice +-1 with per-mode drift +-1/2
  example6  2D controlled: unit-circle steering with compass drifts 1/2
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .model import (
    ControlSet,
    ExitSpec,
    ModeSpec,
    ProblemSpec,
    RateBounds,
    RateMatrix,
    ScalarField,
    VectorField,
)

BUILTIN_NAMES = ("example1", "example2", "example3", "example4", "example5", "example6")

# grid defaults used by the command line when a config does not override them
DEFAULT_NUMERICS = {
    "example1": {"dx": 1e-3, "ds": 1e-3, "s_max": 1.0},
    "example2": {"dx": 1e-3, "ds": 1e-3, "s_max": 1.0},
    "example3": {"dx": 1e-2, "ds": 1e-2, "s_max": 1.0},
    "example4": {"dx": 1e-3, "ds": 1e-3, "s_max": 1.0},
    "example5": {"dx": 1e-3, "ds": 5e-4, "s_max": 1.0},
    "example6": {"dx": 5e-3, "ds": 5e-3, "s_max": 0.5, "n_angles": 32},
}


def _uncontrolled_1d(velocities, rates, name) -> ProblemSpec:
    modes = tuple(
        ModeSpec(
            dynamics=VectorField.constant([v]),
            cost=ScalarField.constant(1.0),
            exit_cost=ScalarField.constant(0.0),
        )
        for v in velocities
    )
    return ProblemSpec(
        dim=1, lo=np.array([0.0]), hi=np.array([1.0]), exit_set=ExitSpec("boundary"),
        modes=modes, rates=rates, name=name,
    )


def example1() -> ProblemSpec:
    return _uncontrolled_1d([1.0, -1.0], RateMatrix.uniform(2, 2.0), "example1")


def example2() -> ProblemSpec:
    return _uncontrolled_1d([0.5, -1.0], RateMatrix.uniform(2, 2.0), "example2")


def example3() -> ProblemSpec:
    dirs = [(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, -1.0)]  # left, up, right, down
    modes = tuple(
        ModeSpec(
            dynamics=VectorField.constant(v),
            cost=ScalarField.constant(1.0),
            exit_cost=ScalarField.constant(0.0),
        )
        for v in dirs
    )
    return ProblemSpec(
        dim=2, lo=np.zeros(2), hi=np.ones(2), exit_set=ExitSpec("boundary"),
        modes=modes, rates=RateMatrix.uniform(4, 1.0), name="example3",
    )


def example4() -> ProblemSpec:
    base = example1()
    return ProblemSpec(
        dim=1, lo=base.lo, hi=base.hi, exit_set=base.exit_set, modes=base.modes,
        rates=RateBounds.uniform(2, 1.0, 4.0), name="example4",
    )


def example5() -> ProblemSpec:
    modes = tuple(
        ModeSpec(
            dynamics=VectorField.control_offset([offset]),
            cost=ScalarField.constant(1.0),
            exit_cost=ScalarField.constant(0.0),
        )
        for offset in (0.5, -0.5)
    )
    return ProblemSpec(
        dim=1, lo=np.array([0.0]), hi=np.array([1.0]), exit_set=ExitSpec("boundary"),
        modes=modes, rates=RateMatrix.uniform(2, 2.0),
        controls=ControlSet.from_list([[-1.0], [1.0]]), name="example5",
    )


def example6(n_angles: int = 32) -> ProblemSpec:
    offsets = [(-0.5, 0.0), (0.0, 0.5), (0.5, 0.0), (0.0, -0.5)]
    modes = tuple(
        ModeSpec(
            dynamics=VectorField.control_offset(v),
            cost=ScalarField.constant(1.0),
            exit_cost=ScalarField.constant(0.0),
        )
        for v in offsets
    )
    return ProblemSpec(
        dim=2, lo=np.zeros(2), hi=np.ones(2), exit_set=ExitSpec("boundary"),
        modes=modes, rates=RateMatrix.uniform(4, 1.0),
        controls=ControlSet.unit_circle(n_angles), name="example6",
    )


def builtin(name: str, n_angles: int | None = None) -> ProblemSpec:
    """Look up a built-in problem by name."""
    if name == "example6":
        return example6(DEFAULT_NUMERICS["example6"]["n_angles"] if n_angles is None else n_angles)
    makers = {
        "example1": example1, "example2": example2, "example3": example3,
        "example4": example4, "example5": example5,
    }
    if name not in makers:
        raise ConfigError(f"unknown builtin problem {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    return makers[name]()
