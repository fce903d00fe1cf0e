"""Problem definitions, grids, rate matrices, and interpolation kernels.

A piecewise-deterministic Markov process is specified by a box domain, an
exit set, M deterministic modes (velocity field, running cost, exit cost
each), a switching-rate description (a fixed rate matrix or entrywise
interval bounds), and an optional control set.  Everything downstream
(solvers, bounds, control synthesis, simulation) consumes these types.
Two rules live here once for all of them: the exit geometry on
``ExitSpec`` (exit faces, exit boxes and the first hit of a segment) and
the bang-bang rate choice on ``RateBounds.extreme_rates``.

All types are immutable after construction and all operations here are
pure, so they are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, NumericsError

# Relative tolerance for snapping coordinates to grid nodes and for
# point-in-domain checks.
GEOM_RTOL = 1e-9

# box faces by axis, lower face first
_FACE_NAMES = ("x_min", "x_max", "y_min", "y_max")


# ---------------------------------------------------------------------------
# switching rates
# ---------------------------------------------------------------------------


class RateMatrix:
    """Generator matrix of the mode-switching Markov chain.

    Off-diagonal entries are the switching rates (1/time); each diagonal
    entry is minus the sum of the off-diagonal entries in its row, so rows
    sum to zero.
    """

    def __init__(self, rates: np.ndarray | Sequence[Sequence[float]]):
        q = np.array(rates, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ConfigError("rate matrix must be square")
        off = q - np.diag(np.diag(q))
        if np.any(off < 0.0):
            raise ConfigError("off-diagonal switching rates must be nonnegative")
        np.fill_diagonal(off, 0.0)
        self._q = off - np.diag(off.sum(axis=1))
        self._q.setflags(write=False)

    @classmethod
    def uniform(cls, n_modes: int, rate: float) -> "RateMatrix":
        """All off-diagonal rates equal to ``rate``."""
        q = np.full((n_modes, n_modes), float(rate))
        return cls(q)

    @property
    def matrix(self) -> np.ndarray:
        return self._q

    @property
    def n_modes(self) -> int:
        return self._q.shape[0]

    def off_diagonal(self) -> np.ndarray:
        off = self._q.copy()
        np.fill_diagonal(off, 0.0)
        return off

    def total_rates(self) -> np.ndarray:
        """Per-mode total departure rates, sum_{j != i} rate(i, j)."""
        return -np.diag(self._q)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RateMatrix({self._q.tolist()})"


@dataclass(frozen=True)
class RateBounds:
    """Entrywise interval bounds 0 <= lower <= upper on off-diagonal rates."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lower, dtype=float)
        hi = np.array(self.upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 2 or lo.shape[0] != lo.shape[1]:
            raise ConfigError("rate bounds must be two square matrices of equal shape")
        np.fill_diagonal(lo, 0.0)
        np.fill_diagonal(hi, 0.0)
        if np.any(lo < 0.0) or np.any(lo > hi):
            raise ConfigError("rate bounds must satisfy 0 <= lower <= upper entrywise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def uniform(cls, n_modes: int, lo: float, hi: float) -> "RateBounds":
        return cls(np.full((n_modes, n_modes), float(lo)), np.full((n_modes, n_modes), float(hi)))

    @property
    def n_modes(self) -> int:
        return self.lower.shape[0]

    def contains(self, rates: RateMatrix, tol: float = 1e-12) -> bool:
        off = rates.off_diagonal()
        return bool(np.all(off >= self.lower - tol) and np.all(off <= self.upper + tol))

    def extreme_rates(self, sense: str, gap, i=slice(None), j=slice(None)) -> np.ndarray:
        """Bang-bang rates i -> j that extremize the coupling ``rate * gap``.

        ``gap`` is the value gap w_j - w_i at the step foot and broadcasts
        against the bounds of the rates ``[i, j]`` (all of them by default).
        Each update is affine in every rate, so ``"min"`` takes the upper rate
        where the gap is nonpositive (drain as much as possible) and the lower
        rate otherwise, and ``"max"`` takes the upper rate where the gap is
        nonnegative.  Ties at zero gap take the upper rate in both senses;
        the update value is unaffected there.
        """
        gap = np.asarray(gap, dtype=float)
        if sense == "min":
            return np.where(gap <= 0.0, self.upper[i, j], self.lower[i, j])
        if sense == "max":
            return np.where(gap >= 0.0, self.upper[i, j], self.lower[i, j])
        raise ConfigError(f"unknown optimization sense {sense!r}")


def transition_probabilities(rates: RateMatrix, tau: float) -> np.ndarray:
    """Mode-transition probabilities over a step of length ``tau``: I + tau * Q.

    This first-order rule is the one every semi-Lagrangian sweep mixes
    modes with; it is a valid stochastic matrix while tau times the largest
    total rate is at most one.
    """
    if tau < 0.0:
        raise NumericsError("step length tau must be nonnegative")
    max_total = float(rates.total_rates().max(initial=0.0))
    if tau * max_total > 1.0 + 1e-12:
        raise NumericsError(
            f"first-order probabilities invalid: tau * max total rate = "
            f"{tau * max_total:.6g} exceeds 1"
        )
    return np.eye(rates.n_modes) + tau * rates.matrix


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """Running or exit cost of one mode.

    ``constant`` carries a single value; ``tabulated`` carries one value per
    grid node (multilinearly interpolated).
    """

    kind: str  # "constant" | "tabulated"
    value: float = 0.0
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "tabulated"):
            raise ConfigError(f"unknown scalar field kind {self.kind!r}")
        if self.kind == "constant" and not math.isfinite(self.value):
            raise ConfigError("constant field value must be finite")
        if self.kind == "tabulated":
            if self.values is None or not np.size(self.values):
                raise ConfigError("tabulated field needs node values")
            v = np.array(self.values, dtype=float)
            if not np.all(np.isfinite(v)):
                raise ConfigError("tabulated field values must be finite")
            v.setflags(write=False)
            object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, value: float) -> "ScalarField":
        return cls("constant", value=float(value))

    def at(self, grid: "Grid", points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        if self.kind == "constant":
            return np.full(pts.shape[0], self.value)
        return grid.interp_nodes(self.values.reshape(-1), pts)

    def node_values(self, grid: "Grid") -> np.ndarray:
        if self.kind == "constant":
            return np.full(grid.n_nodes, self.value)
        return np.asarray(self.values, dtype=float).reshape(-1)

    def min_value(self) -> float:
        return self.value if self.kind == "constant" else float(self.values.min())


@dataclass(frozen=True)
class VectorField:
    """Velocity field of one mode.

    kinds:
      * ``constant``        -- f(x) = vector
      * ``control_offset``  -- f(x, a) = a + vector (controlled problems)
      * ``tabulated``       -- per-node vectors, multilinearly interpolated
    """

    kind: str
    vector: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "control_offset", "tabulated"):
            raise ConfigError(f"unknown vector field kind {self.kind!r}")
        if self.kind in ("constant", "control_offset"):
            v = np.array(self.vector, dtype=float).reshape(-1)
            if not np.all(np.isfinite(v)):
                raise ConfigError("velocity parameters must be finite")
            v.setflags(write=False)
            object.__setattr__(self, "vector", v)
        else:
            if self.values is None or not np.size(self.values):
                raise ConfigError("tabulated velocity needs node values")
            v = np.array(self.values, dtype=float)
            if not np.all(np.isfinite(v)):
                raise ConfigError("tabulated velocity values must be finite")
            v.setflags(write=False)
            object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, vector: Sequence[float]) -> "VectorField":
        return cls("constant", vector=np.array(vector, dtype=float))

    @classmethod
    def control_offset(cls, offset: Sequence[float]) -> "VectorField":
        return cls("control_offset", vector=np.array(offset, dtype=float))

    @property
    def controlled(self) -> bool:
        return self.kind == "control_offset"

    @property
    def constant_in_space(self) -> bool:
        return self.kind in ("constant", "control_offset")

    def at(self, grid: "Grid", points: np.ndarray, action: np.ndarray | None = None) -> np.ndarray:
        """Velocity at ``points`` (n, d) under one action (d,) or one per point (n, d).

        This is the one velocity rule: only ``control_offset`` reads the
        action, f = action + vector, and it needs one; the other kinds ignore it.
        """
        pts = np.atleast_2d(points)
        if self.kind == "constant":
            return np.broadcast_to(self.vector, (pts.shape[0], self.vector.size)).copy()
        if self.kind == "control_offset":
            if action is None:
                raise ConfigError("control-offset velocity needs an action value")
            vec = np.asarray(action, dtype=float) + self.vector
            return np.broadcast_to(vec, (pts.shape[0], self.vector.size)).copy()
        d = self.values.shape[-1]
        flat = self.values.reshape(-1, d)
        out = np.empty((pts.shape[0], d))
        for a in range(d):
            out[:, a] = grid.interp_nodes(flat[:, a], pts)
        return out

    def max_speed(self, controls: "ControlSet") -> float:
        if self.kind == "constant":
            return float(np.linalg.norm(self.vector))
        if self.kind == "control_offset":
            if controls.kind == "unit_circle":
                return float(np.linalg.norm(self.vector)) + 1.0
            return float(max(np.linalg.norm(a + self.vector) for a in controls.vectors))
        d = self.values.shape[-1]
        return float(np.linalg.norm(self.values.reshape(-1, d), axis=1).max())


@dataclass(frozen=True)
class ControlSet:
    """Admissible control values: empty, a finite list, or a sampled unit circle."""

    kind: str = "none"  # "none" | "list" | "unit_circle"
    vectors: np.ndarray | None = None
    n_angles: int = 0

    def __post_init__(self):
        if self.kind == "none":
            return
        if self.kind == "list":
            v = np.atleast_2d(np.array(self.vectors, dtype=float))
            if v.size == 0 or not np.all(np.isfinite(v)):
                raise ConfigError("control list must be nonempty and finite")
            key, n = "vectors", len(v)
        elif self.kind == "unit_circle":
            if self.n_angles < 2:
                raise ConfigError("unit-circle control set needs at least 2 angles")
            key, n = "n_angles", self.n_angles
        else:
            raise ConfigError(f"unknown control set kind {self.kind!r}")
        if n >= 2**15:
            raise ConfigError(f"{key} gives {n} actions, but policies store action indices "
                              "as int16: a control set holds fewer than 2**15")
        if self.kind == "unit_circle":
            ang = 2.0 * np.pi * np.arange(n) / n
            v = np.column_stack([np.cos(ang), np.sin(ang)])
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @classmethod
    def none(cls) -> "ControlSet":
        return cls("none")

    @classmethod
    def from_list(cls, vectors: Sequence[Sequence[float]] | Sequence[float]) -> "ControlSet":
        arr = np.array(vectors, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        return cls("list", vectors=arr)

    @classmethod
    def unit_circle(cls, n_angles: int) -> "ControlSet":
        return cls("unit_circle", n_angles=int(n_angles))

    @property
    def empty(self) -> bool:
        return self.kind == "none"

    @property
    def n_actions(self) -> int:
        return 0 if self.empty else self.vectors.shape[0]

    def action(self, index: int) -> np.ndarray:
        return self.vectors[index]


# ---------------------------------------------------------------------------
# exit set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExitSpec:
    """Where the process terminates, and where a straight segment first meets it.

    ``boundary`` is the whole box boundary; ``faces`` lists box faces by name
    (x_min/x_max/y_min/y_max); ``boxes`` lists grid-aligned axis boxes inside
    the domain; ``none`` disables termination (simulation-only problems).
    Every other module asks these methods for the exit geometry: the exit
    faces as a mask (`face_exits`), membership of points in an exit box
    (`in_boxes`) and the first hit of a segment (`first_hit`).
    """

    kind: str = "boundary"
    faces: tuple[str, ...] = ()
    boxes: tuple[tuple[tuple[float, float], ...], ...] = ()

    def __post_init__(self):
        if self.kind not in ("boundary", "faces", "boxes", "none"):
            raise ConfigError(f"unknown exit set kind {self.kind!r}")
        if self.kind == "faces" and not self.faces:
            raise ConfigError("face exit set must list at least one face")
        if self.kind == "boxes" and not self.boxes:
            raise ConfigError("box exit set must list at least one box")

    def face_exits(self, dim: int) -> np.ndarray:
        """(dim, 2) mask of the domain faces that are exits; column 0 is the lower face."""
        names = _FACE_NAMES[:2 * dim]
        listed = names if self.kind == "boundary" else self.faces if self.kind == "faces" else ()
        for f in listed:
            if f not in names:
                raise ConfigError(f"unknown face name {f!r} for dimension {dim}")
        return np.array([f in listed for f in names], dtype=bool).reshape(dim, 2)

    def in_boxes(self, pts: np.ndarray, tol: float) -> np.ndarray:
        """Whether each point lies within ``tol`` (per axis, or one value) of an exit box."""
        pts = np.atleast_2d(pts)
        tol = np.broadcast_to(tol, (pts.shape[1],))
        hit = np.zeros(pts.shape[0], dtype=bool)
        for box in self.boxes if self.kind == "boxes" else ():
            inside = np.ones(pts.shape[0], dtype=bool)
            for a, (b_lo, b_hi) in enumerate(box):
                inside &= (pts[:, a] >= b_lo - tol[a]) & (pts[:, a] <= b_hi + tol[a])
            hit |= inside
        return hit

    def first_hit(self, lo: np.ndarray, hi: np.ndarray, x: np.ndarray,
                  disp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First ``t >= 0`` at which ``x + t * disp`` reaches the exit set, and a non-exit face.

        ``lo``/``hi`` are the domain box and ``x``, ``disp`` are (n, dim).
        Returns ``(t_exit, t_escape)``, ``inf`` where the line never gets
        there.  A face is reached only when moving towards it, so a segment
        that starts on a face and leaves it does not hit it; an axis that
        does not move lies in a box slab for all t or for none.  Callers that
        compare the two times give a tie to the exit.
        """
        n, dim = x.shape
        t_exit = np.full(n, np.inf)
        t_escape = np.full(n, np.inf)
        exits = self.face_exits(dim)
        for a in range(dim):
            d = disp[:, a]
            for side, bound, toward in ((0, lo[a], d < 0), (1, hi[a], d > 0)):
                with np.errstate(divide="ignore", invalid="ignore"):
                    t = np.maximum(np.where(toward, (bound - x[:, a]) / d, np.inf), 0.0)
                if exits[a, side]:
                    t_exit = np.minimum(t_exit, t)
                else:
                    t_escape = np.minimum(t_escape, t)
        for box in self.boxes if self.kind == "boxes" else ():
            t_in = np.zeros(n)
            t_out = np.full(n, np.inf)
            for a, (b_lo, b_hi) in enumerate(box):
                d = disp[:, a]
                with np.errstate(divide="ignore", invalid="ignore"):
                    t0 = (b_lo - x[:, a]) / d
                    t1 = (b_hi - x[:, a]) / d
                lo_t = np.where(d < 0, t1, t0)
                hi_t = np.where(d < 0, t0, t1)
                stuck = np.abs(d) < 1e-300
                in_slab = (x[:, a] >= b_lo) & (x[:, a] <= b_hi)
                lo_t = np.where(stuck, np.where(in_slab, 0.0, np.inf), lo_t)
                hi_t = np.where(stuck, np.where(in_slab, np.inf, -np.inf), hi_t)
                t_in = np.maximum(t_in, lo_t)
                t_out = np.minimum(t_out, hi_t)
            enters = (t_in <= t_out) & (t_in >= 0.0)
            t_exit = np.minimum(t_exit, np.where(enters, t_in, np.inf))
        return t_exit, t_escape


# ---------------------------------------------------------------------------
# problem spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeSpec:
    dynamics: VectorField
    cost: ScalarField
    exit_cost: ScalarField


@dataclass(frozen=True)
class ProblemSpec:
    """Complete definition of one exit-cost problem."""

    dim: int
    lo: np.ndarray
    hi: np.ndarray
    exit_set: ExitSpec
    modes: tuple[ModeSpec, ...]
    rates: RateMatrix | RateBounds
    controls: ControlSet = field(default_factory=ControlSet.none)
    name: str = ""

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError("only 1D and 2D domains are supported")
        lo = np.array(self.lo, dtype=float).reshape(-1)
        hi = np.array(self.hi, dtype=float).reshape(-1)
        if lo.size != self.dim or hi.size != self.dim or np.any(hi <= lo):
            raise ConfigError("domain box must have hi > lo on every axis")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not self.modes:
            raise ConfigError("at least one mode is required")
        if self.rates.n_modes != len(self.modes):
            raise ConfigError("rate description size does not match mode count")
        controlled = any(m.dynamics.controlled for m in self.modes)
        if controlled and self.controls.empty:
            raise ConfigError("controlled dynamics require a nonempty control set")
        if not self.controls.empty and self.controls.vectors.shape[1] != self.dim:
            raise ConfigError(f"controls hold {self.controls.vectors.shape[1]}-component vectors "
                              f"in a {self.dim}D problem")
        for k, m in enumerate(self.modes):
            f = m.dynamics
            if (f.vector.shape if f.constant_in_space else f.values.shape[-1:]) != (self.dim,):
                raise ConfigError(f"modes[{k}].dynamics needs {self.dim}-component velocities "
                                  f"in a {self.dim}D problem")
            if m.cost.min_value() <= 0.0:
                raise ConfigError(f"running cost of mode {k} must be strictly positive")
            if m.exit_cost.min_value() < 0.0:
                raise ConfigError(f"exit cost of mode {k} must be nonnegative")

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def controlled(self) -> bool:
        return not self.controls.empty

    @property
    def fixed_rates(self) -> bool:
        return isinstance(self.rates, RateMatrix)

    def require_fixed_rates(self) -> RateMatrix:
        if not self.fixed_rates:
            raise ConfigError("this operation needs a fixed rate matrix, not rate bounds")
        return self.rates

    def require_rate_bounds(self) -> RateBounds:
        if self.fixed_rates:
            raise ConfigError("this operation needs rate bounds, not a fixed rate matrix")
        return self.rates

    def max_speed(self) -> float:
        return max(m.dynamics.max_speed(self.controls) for m in self.modes)

    def min_cost_rate(self) -> float:
        return min(m.cost.min_value() for m in self.modes)

    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))


def cfl_max_ds(spec: ProblemSpec, dx: float | Sequence[float]) -> float:
    """Largest cost-axis spacing admitting a single causal step length.

    Returns dx * min(running cost) / max(speed); this keeps one uniform
    pseudo-timestep both causal in the cost variable and inside the domain.
    """
    dxv = np.broadcast_to(np.array(dx, dtype=float).reshape(-1), (spec.dim,))
    c_min = spec.min_cost_rate()
    if c_min <= 0.0:
        raise NumericsError("minimum running cost must be positive")
    speed = spec.max_speed()
    if speed <= 0.0:
        return math.inf
    return float(dxv.min()) * c_min / speed


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


class Grid:
    """Regular node-centered grid over the domain box and the cost axis.

    Node ``k`` on axis ``a`` sits at ``lo[a] + k * dx[a]`` exactly; cost
    level ``n`` sits at ``n * ds``.  Spatial nodes are stored flattened in
    C order (axis 0 slowest).
    """

    def __init__(self, lo, dx, shape, ds, n_levels, exit_mask):
        self.lo = np.array(lo, dtype=float).reshape(-1)
        self.dx = np.array(dx, dtype=float).reshape(-1)
        self.shape = tuple(int(n) for n in shape)
        self.dim = len(self.shape)
        self.ds = float(ds)
        self.n_levels = int(n_levels)
        self.exit_mask = np.asarray(exit_mask, dtype=bool).reshape(-1)
        self.n_nodes = int(np.prod(self.shape))
        self.hi = self.lo + self.dx * (np.array(self.shape) - 1)
        axes = [self.lo[a] + self.dx[a] * np.arange(self.shape[a]) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        self.points = np.column_stack([m.reshape(-1) for m in mesh])
        self.points.setflags(write=False)
        self.exit_mask.setflags(write=False)
        self._strides = np.array(
            [int(np.prod(self.shape[a + 1 :], dtype=int)) for a in range(self.dim)], dtype=int
        )

    @property
    def s_max(self) -> float:
        return (self.n_levels - 1) * self.ds

    @property
    def s_levels(self) -> np.ndarray:
        return np.arange(self.n_levels) * self.ds

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        tol = GEOM_RTOL * self.dx
        return np.all((pts >= self.lo - tol) & (pts <= self.hi + tol), axis=1)

    def spatial_stencil(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Multilinear stencil (flat node indices and weights) for points in the box.

        Returns ``(idx, w)`` of shapes ``(2**dim, n)``; points are clamped to
        the box after a tolerance check, so callers must have validated
        domain membership already.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(self.contains(pts)):
            bad = np.where(~self.contains(pts))[0][:3]
            raise NumericsError(f"points outside the domain box: {pts[bad].tolist()}")
        n = pts.shape[0]
        corners = 1 << self.dim
        idx = np.zeros((corners, n), dtype=int)
        w = np.ones((corners, n))
        for a in range(self.dim):
            rel = (pts[:, a] - self.lo[a]) / self.dx[a]
            rel = np.clip(rel, 0.0, self.shape[a] - 1)
            base = np.minimum(rel.astype(int), self.shape[a] - 2) if self.shape[a] > 1 else np.zeros(n, dtype=int)
            frac = rel - base
            for c in range(corners):
                hi_side = (c >> a) & 1
                idx[c] += (base + hi_side) * self._strides[a]
                w[c] *= np.where(hi_side, frac, 1.0 - frac)
        return idx, w

    def interp_nodes(self, node_values: np.ndarray, points: np.ndarray) -> np.ndarray:
        idx, w = self.spatial_stencil(points)
        vals = np.asarray(node_values, dtype=float).reshape(-1)
        return np.einsum("cn,cn->n", w, vals[idx])

    def curve(self, level_values: np.ndarray, x, nodes: np.ndarray | None = None) -> np.ndarray:
        """A (levels, nodes) field's values over all its levels at one spatial point.

        ``nodes`` names the node of each column of ``level_values`` (sorted,
        as a sweep keeps them: ``Keep``); None means every node in order.
        """
        idx, w = self.spatial_stencil(np.atleast_2d(np.asarray(x, dtype=float)))
        cols = idx[:, 0] if nodes is None else _positions(nodes, idx[:, 0], "stencil nodes")
        return np.einsum("c,mc->m", w[:, 0], level_values[:, cols])


def _positions(kept: np.ndarray, wanted, what: str) -> np.ndarray:
    """Positions of ``wanted`` in the sorted ``kept``; a ValueError when one is not kept."""
    wanted = np.asarray(wanted)
    if not np.all(np.isin(wanted, kept)):
        raise ValueError(f"{what} {np.setdiff1d(wanted, kept).tolist()} were not kept")
    return np.searchsorted(kept, wanted)


def _axis_counts(lo: np.ndarray, hi: np.ndarray, dx: np.ndarray) -> list[int]:
    counts = []
    for a in range(lo.size):
        n_cells = (hi[a] - lo[a]) / dx[a]
        rounded = round(n_cells)
        if abs(n_cells - rounded) > GEOM_RTOL * max(1.0, abs(n_cells)) or rounded < 1:
            raise NumericsError(
                f"spacing {dx[a]:.6g} does not divide the axis-{a} extent "
                f"{hi[a] - lo[a]:.6g}"
            )
        counts.append(int(rounded) + 1)
    return counts


def _exit_mask(spec: ProblemSpec, axes: list[np.ndarray], shape: tuple[int, ...], dx: np.ndarray) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    es = spec.exit_set
    for axis, side in zip(*np.nonzero(es.face_exits(spec.dim))):
        sl = [slice(None)] * spec.dim
        sl[axis] = -1 if side == 1 else 0
        mask[tuple(sl)] = True
    if es.kind != "boxes":
        return mask.reshape(-1)
    for box in es.boxes:
        if len(box) != spec.dim:
            raise ConfigError("exit box dimensionality does not match the domain")
        for a, edges in enumerate(box):
            for edge in edges:
                rel = (edge - spec.lo[a]) / dx[a]
                if abs(rel - round(rel)) > GEOM_RTOL * max(1.0, abs(rel)):
                    raise NumericsError(f"exit box edge {edge:.6g} is not grid-aligned on axis {a}")
    points = np.column_stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")])
    return es.in_boxes(points, GEOM_RTOL * dx)


def grid_desc(grid) -> dict:
    """The grid descriptor of a manifest and a policy file, for a `Grid` or a policy."""
    return {"lo": grid.lo.tolist(), "dx": grid.dx.tolist(), "shape": list(grid.shape),
            "ds": grid.ds, "n_levels": grid.n_levels}


def build_grid(
    spec: ProblemSpec,
    dx: float | Sequence[float],
    ds: float,
    s_max: float,
) -> Grid:
    """Discretize the domain box and the cost axis.

    ``dx`` may be a scalar (same spacing on every axis) or per-axis values;
    each spacing must divide its axis extent, ``ds`` must divide ``s_max``,
    and the exit set must be grid-aligned.
    """
    dxv = np.broadcast_to(np.array(dx, dtype=float).reshape(-1), (spec.dim,)).astype(float)
    if np.any(dxv <= 0.0) or ds <= 0.0:
        raise NumericsError("grid spacings must be positive")
    counts = _axis_counts(spec.lo, spec.hi, dxv)
    n_s = s_max / ds
    n_s_round = round(n_s)
    if abs(n_s - n_s_round) > GEOM_RTOL * max(1.0, n_s) or n_s_round < 1:
        raise NumericsError(f"cost spacing {ds:.6g} does not divide the cost range {s_max:.6g}")
    n_nodes = math.prod(counts)
    for k, m in enumerate(spec.modes):
        for name, f, width in (("dynamics", m.dynamics, spec.dim), ("cost", m.cost, 1),
                               ("exit_cost", m.exit_cost, 1)):
            if f.kind == "tabulated" and f.values.size != n_nodes * width:
                raise ConfigError(f"modes[{k}].{name} holds {f.values.size} values; a grid "
                                  f"of {n_nodes} nodes needs {n_nodes * width}")
    axes = [spec.lo[a] + dxv[a] * np.arange(counts[a]) for a in range(spec.dim)]
    mask = _exit_mask(spec, axes, tuple(counts), dxv)
    return Grid(spec.lo, dxv, counts, ds, int(n_s_round) + 1, mask)


# ---------------------------------------------------------------------------
# grid fields
# ---------------------------------------------------------------------------


class Keep(NamedTuple):
    """The slices a sweep stores of each field: whole levels, and node columns at every level.

    ``levels`` (the sheets) and ``nodes`` (the curve points' interpolation
    stencils) are sorted and distinct.  A field swept with a keep holds
    only these: ``values`` (M, len(levels), N) and ``columns`` (M, L,
    len(nodes)).
    """

    levels: np.ndarray
    nodes: np.ndarray

    @classmethod
    def of(cls, grid: Grid, levels=(), points=()) -> "Keep":
        """The sheet ``levels`` and every stencil node of the curve ``points``."""
        levels = np.unique(np.asarray(levels, dtype=np.intp))
        if levels.size and (levels[0] < 0 or levels[-1] >= grid.n_levels):
            raise ValueError(f"sheet levels {levels.tolist()} outside 0..{grid.n_levels - 1}")
        idx, _ = grid.spatial_stencil(np.asarray(points, dtype=float).reshape(-1, grid.dim))
        return cls(levels, np.unique(idx))


class CdfField:
    """Per-mode grid function W[mode, level, node] approximating a CDF.

    ``evaluate`` interpolates multilinearly in space and linearly in the
    cost threshold; queries below threshold zero return the flat extension
    (zero off the exit set, the exit-cost indicator on it).  ``clamp`` is
    the monotone clamp of the restricted sweep that produced the field
    (None when unrestricted); the fields of one rate-stacked sweep share it.

    Without ``keep`` the field is whole: ``values`` is (M, L, N).  With a
    ``Keep`` it holds that keep's slices only, ``values`` its levels and
    ``columns`` its node columns; ``sheets`` and ``curve`` read either kind,
    ``evaluate`` only a whole field.
    """

    def __init__(self, grid: Grid, values: np.ndarray, spec: ProblemSpec | None = None,
                 tau: float | None = None, clamp=None, keep: Keep | None = None,
                 columns: np.ndarray | None = None):
        self.grid = grid
        self.values = values
        self.spec = spec
        self.tau = tau
        self.clamp = clamp
        self.keep = keep
        self.columns = columns

    @property
    def n_modes(self) -> int:
        return self.values.shape[0]

    def sheets(self, levels) -> np.ndarray:
        """Every mode's values at the grid levels ``levels``: (M, len(levels), N)."""
        if self.keep is not None:
            levels = _positions(self.keep.levels, levels, "sheet levels")
        return self.values[:, levels]

    def evaluate(self, mode: int, x, s: float) -> float:
        if self.keep is not None:
            raise ValueError("a field swept with a keep holds its slices only; sweep it whole")
        pt = np.atleast_2d(np.asarray(x, dtype=float))
        grid = self.grid
        if s < 0.0:
            if self.spec is None:
                return 0.0
            q = self.spec.modes[mode].exit_cost.node_values(grid)
            vals = np.where(grid.exit_mask & (s >= q - 1e-15), 1.0, 0.0)
            return float(grid.interp_nodes(vals, pt)[0])
        rel = min(s / grid.ds, grid.n_levels - 1)
        n_lo = min(int(rel), grid.n_levels - 2) if grid.n_levels > 1 else 0
        th = rel - n_lo
        lo_val = grid.interp_nodes(self.values[mode, n_lo], pt)[0]
        hi_val = grid.interp_nodes(self.values[mode, min(n_lo + 1, grid.n_levels - 1)], pt)[0]
        return float((1.0 - th) * lo_val + th * hi_val)

    def curve(self, mode: int, x) -> np.ndarray:
        """CDF values over all grid levels at one spatial point."""
        if self.keep is None:
            return self.grid.curve(self.values[mode], x)
        return self.grid.curve(self.columns[mode], x, self.keep.nodes)


class MinCostField:
    """Minimal attainable cost s0 per node and attainment probability per mode.

    ``counters`` holds the solve's counts (candidates, s0 passes, node
    updates, w0 passes) when a solver produced the field, else None.
    """

    def __init__(self, grid: Grid, s0: np.ndarray, w0: np.ndarray, counters: dict | None = None):
        self.grid = grid
        self.s0 = s0
        self.w0 = w0
        self.counters = counters

    def first_level(self) -> np.ndarray:
        """Conservatively rounded-up first active level per node."""
        ds = self.grid.ds
        lvl = np.ceil(self.s0 / ds - GEOM_RTOL)
        lvl = np.where(np.isfinite(lvl), np.maximum(lvl, 0.0), self.grid.n_levels + 1)
        return lvl.astype(int)
