"""Controlled problems: expectation-optimal and threshold-optimal synthesis.

Two value problems are solved on the same grids.  The expectation problem
is the semi-Lagrangian form of the coupled Bellman system

    u_i(x) = min_a { tau C_i(x,a) + sum_j p_ij(tau) u_j(x + tau f_i(x,a)) },

solved by the policy iteration of ``cdf_solver.policy_iteration``.  The
threshold problem maximizes the probability of keeping the cumulative cost
under each threshold level simultaneously,

    W_i(x, s) = max_a sum_j p_ij(tau) W_j(x + tau f_i(x,a), s - tau C_i(x,a)),

swept upward in s exactly like the uncontrolled CDF.  Where several
actions tie for the maximum (always on the hopeless region, typically on
the surely-successful one) the tie is broken by the smallest companion
expected cost V, then by action index.  On the hopeless region V is pinned
to the expectation-optimal value so the stored action coincides with the
expectation-optimal policy there.

Both problems run on the stacked step operators of ``cdf_solver``: the
steps of all actions of a mode are one ``StepStack`` and share one
probability row.  The threshold sweep is the CDF's level update: per mode
the previous levels of ``[W, V]`` are mixed over the modes and one
``StepStack.gather`` (one sparse product per level shift) gives the
candidates of every action; ``_sweep`` owns level 0, the restricted
seeding, the monotone clamp and the exit rows, as for the CDF and the
bounds, and stores W whole or only a ``Keep``'s slices of it; V and the
actions are stored whole.  The policy iteration's Bellman pass is the
same product on u.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .cdf_solver import (
    SemiLagrangianStep,
    StepStack,
    _sweep,
    causal_tau,
    check_causality,
    exit_costs,
    policy_iteration,
    solve_cdf,
)
from .errors import ConfigError
from .model import (GEOM_RTOL, CdfField, ControlSet, Grid, Keep, MinCostField, ProblemSpec,
                    grid_desc)
from .reader import (_AXES, _COUNT, _POSITIVE, _STRING, CONTROLS, Obj, Rule, _instance, _read,
                     _whole)

TIE_TOL = 1e-9  # probability slack for membership in the maximizing action set


@dataclass(frozen=True)
class ValueField:
    """Expectation-optimal value u[mode, node]."""

    grid: Grid
    u: np.ndarray

    def evaluate(self, mode: int, x) -> float:
        return float(self.grid.interp_nodes(self.u[mode], np.atleast_2d(np.asarray(x, float)))[0])


class Policy:
    """Feedback control law stored as action indices per (mode, level, node).

    A threshold policy is level-dependent: simulated trajectories look it
    up at the remaining budget (threshold minus cost so far), taking the
    containing cell's lower-corner node, and fall back to the
    expectation-optimal action once the budget is spent.  An
    expectation-optimal policy stores a single level.  Every stored action
    and fallback is an index of one of the control set's actions.

    ``actions`` and ``fallback`` are read-only, and no one else can write
    them (a writable input is copied), so what is derived from them stays
    valid: ``radii`` keeps the simulator's run-length radii per exit set
    (``simulate._constant_action_radii``), computed once per policy however
    many batches run it.
    """

    def __init__(self, control_set: ControlSet, actions: np.ndarray, fallback: np.ndarray,
                 lo: np.ndarray, dx: np.ndarray, shape: tuple[int, ...], ds: float,
                 provenance: str):
        self.control_set = control_set
        self.actions = _read_only(actions)
        self.fallback = _read_only(fallback)
        self.radii: dict = {}
        self.lo = np.asarray(lo, dtype=float)
        self.dx = np.asarray(dx, dtype=float)
        self.shape = tuple(int(v) for v in shape)
        self.ds = float(ds)
        self.provenance = provenance
        for name, indices in (("actions", self.actions), ("fallback", self.fallback)):
            if indices.size and not 0 <= indices.min() <= indices.max() < control_set.n_actions:
                raise ConfigError(f"{name} must be indices of the control set's "
                                  f"{control_set.n_actions} actions")
        self._strides = np.array(
            [int(np.prod(self.shape[a + 1:], dtype=int)) for a in range(len(self.shape))], dtype=int
        )

    @property
    def s_dependent(self) -> bool:
        return self.actions.shape[1] > 1

    @property
    def n_levels(self) -> int:
        return self.actions.shape[1]

    def cell_of(self, x) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        cell = np.floor((pts - self.lo) / self.dx + 1e-12).astype(int)
        return np.clip(cell, 0, np.array(self.shape) - 1)

    def action_index_at_cell(self, mode, s_cell, flat_node):
        """Vectorized lookup from integer cell coordinates."""
        below = s_cell < 0
        lvl = np.clip(s_cell, 0, self.n_levels - 1)
        idx = self.actions[mode, lvl, flat_node]
        if np.ndim(idx) == 0:
            return int(self.fallback[mode, flat_node]) if below else int(idx)
        return np.where(below, self.fallback[mode, flat_node], idx)

    def action_index(self, mode: int, x, s_remaining: float | None = None) -> int:
        cell = self.cell_of(x)[0]
        flat = int(cell @ self._strides)
        if not self.s_dependent:
            return int(self.actions[mode, 0, flat])
        if s_remaining is None:
            raise ConfigError("level-dependent policy lookup needs the remaining budget")
        if s_remaining < 0.0:
            return int(self.fallback[mode, flat])
        s_cell = int(np.floor(s_remaining / self.ds + 1e-12))
        return self.action_index_at_cell(mode, s_cell, flat)

    def require_fits(self, spec: ProblemSpec) -> None:
        """Reject a policy whose dimension, domain, mode count or controls differ from the problem's."""
        if len(self.shape) != spec.dim:
            raise ConfigError(f"policy is {len(self.shape)}D but the problem is {spec.dim}D")
        hi = self.lo + self.dx * (np.array(self.shape) - 1)
        tol = GEOM_RTOL * (spec.hi - spec.lo)
        if np.any(np.abs(self.lo - spec.lo) > tol) or np.any(np.abs(hi - spec.hi) > tol):
            raise ConfigError(f"policy covers {self.lo.tolist()} to {hi.tolist()} but the "
                              f"problem's domain is {spec.lo.tolist()} to {spec.hi.tolist()}")
        if self.actions.shape[0] != spec.n_modes:
            raise ConfigError(f"policy has {self.actions.shape[0]} modes but the problem "
                              f"has {spec.n_modes}")
        if self.control_set.vectors.shape[1] != spec.dim:
            raise ConfigError(f"policy control vectors have dimension "
                              f"{self.control_set.vectors.shape[1]}, the problem {spec.dim}")


def _read_only(actions) -> np.ndarray:
    """``actions`` as a read-only int16 C-ordered array that no one else can write.

    A read-only input is viewed; a writable one is copied.
    """
    arr = np.ascontiguousarray(actions, dtype=np.int16)
    arr = arr.copy() if arr.flags.writeable and np.may_share_memory(arr, actions) else arr.view()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ThresholdValue:
    """Optimal success probability W, companion expectation V, chosen actions."""

    grid: Grid
    spec: ProblemSpec
    w: CdfField
    v: np.ndarray
    actions: np.ndarray
    u: np.ndarray          # expectation-optimal value used on the hopeless region
    a_star: np.ndarray     # expectation-optimal action indices
    tau: float


# ---------------------------------------------------------------------------
# expectation-optimal value and policy
# ---------------------------------------------------------------------------


def _action_stacks(spec, grid, tau) -> list[StepStack]:
    """One stack of all actions' steps per mode; each mode's steps are freed once stacked."""
    return [StepStack([SemiLagrangianStep(spec, grid, tau, i, action=spec.controls.action(a))
                       for a in range(spec.controls.n_actions)], rates=[spec.rates])
            for i in range(spec.n_modes)]


def solve_hjb_expectation(
    spec: ProblemSpec,
    grid: Grid,
    tol: float = 1e-8,
    max_iter: int = 1000,
    tau: float | None = None,
    initial: np.ndarray | None = None,
) -> tuple[ValueField, Policy]:
    """Expectation-optimal value and feedback policy.

    Modified policy iteration (``cdf_solver.policy_iteration``): Bellman
    steps over all actions, with an exact sparse evaluation of the frozen
    minimizing policy once the actions stop changing between steps, on
    the first step, and at least once per grid crossing.  ``max_iter``
    caps the number of exact evaluations; example5 at dx 1e-3 needs 34.
    A coarse-grid solution can be passed through ``initial`` to
    warm-start.
    """
    spec.require_fixed_rates()
    if spec.controls.empty:
        raise ConfigError("expectation-optimal synthesis needs a control set")
    if tau is None:
        speed = spec.max_speed()
        tau = grid.dx.min() / speed if speed > 0 else grid.ds
    u, actions = policy_iteration(spec, grid, _action_stacks(spec, grid, tau), initial,
                                  tol, max_iter)
    actions = actions.astype(np.int16)
    fill = _nearest_interior(grid)
    actions[:, grid.exit_mask] = actions[:, fill[grid.exit_mask]]
    actions.flags.writeable = False
    policy = Policy(spec.controls, actions[:, None, :], actions, grid.lo, grid.dx,
                    grid.shape, grid.ds, provenance="expectation")
    return ValueField(grid, u), policy


def _nearest_interior(grid: Grid) -> np.ndarray:
    """Map every node to the closest non-exit node (itself when interior).

    Updates at exit nodes are pure boundary data and carry no meaningful
    action, but cell-based policy lookups can land on them (the lower
    corner of a boundary cell); redirecting those entries to the adjacent
    interior node keeps the stored law sensible everywhere.
    """
    from collections import deque

    n = grid.n_nodes
    mapping = np.arange(n)
    interior = ~grid.exit_mask
    if interior.all() or not interior.any():
        return mapping
    shape = grid.shape
    strides = grid._strides
    multi = np.array(np.unravel_index(np.arange(n), shape)).T
    seen = interior.copy()
    queue = deque(int(k) for k in np.where(interior)[0])
    while queue:
        k = queue.popleft()
        mk = multi[k]
        for a in range(grid.dim):
            for d in (-1, 1):
                j = mk[a] + d
                if 0 <= j < shape[a]:
                    k2 = k + d * strides[a]
                    if not seen[k2]:
                        seen[k2] = True
                        mapping[k2] = mapping[k]
                        queue.append(k2)
    return mapping


def prolong(values: np.ndarray, coarse: Grid, fine: Grid) -> np.ndarray:
    """Multilinear prolongation of per-mode node values onto a finer grid."""
    m = values.shape[0]
    out = np.empty((m, fine.n_nodes))
    for i in range(m):
        out[i] = coarse.interp_nodes(values[i], fine.points)
    return out


# ---------------------------------------------------------------------------
# threshold-optimal value and policy
# ---------------------------------------------------------------------------


def solve_threshold(
    spec: ProblemSpec,
    grid: Grid,
    tau: float | None = None,
    restrict: MinCostField | None = None,
    hjb: tuple[ValueField, Policy] | None = None,
    keep: Keep | None = None,
) -> ThresholdValue:
    """Maximal success probability for every threshold level at once.

    The sweep needs the expectation-optimal solution for tie-breaking; it
    is computed here unless passed in.  ``restrict`` (minimal-cost field of
    the controlled problem) zeroes hopeless levels exactly and seeds the
    first attainable one.  W is whole (M, L, N), or with ``keep`` only that
    keep's sheets and node columns; the companion V and the actions are
    always whole, as a policy reads every level.
    """
    spec.require_fixed_rates()
    if spec.controls.empty:
        raise ConfigError("threshold synthesis needs a nonempty control set")
    if hjb is None:
        hjb = solve_hjb_expectation(spec, grid)
    value, exp_policy = hjb
    u = value.u
    a_star = exp_policy.fallback

    if tau is None:
        tau = causal_tau(spec, grid)
    check_causality(tau, spec.min_cost_rate(), grid.ds)
    stacks = _action_stacks(spec, grid, tau)
    m, n_nodes, n_act = spec.n_modes, grid.n_nodes, spec.controls.n_actions
    v = np.zeros((m, grid.n_levels, n_nodes))
    actions = np.zeros((m, grid.n_levels, n_nodes), dtype=np.int16)
    q_exit = np.array([spec.modes[i].exit_cost.node_values(grid) for i in range(m)])
    ex = grid.exit_mask
    v[:, 0] = np.where(ex, q_exit, u)
    actions[:, 0] = a_star
    # levels up to the first attainable one keep the expectation-optimal law
    seeded = restrict.first_level() if restrict is not None else np.full(n_nodes, -1)
    cols = np.arange(n_nodes)
    zero = np.zeros(n_nodes)

    def update(level, n: int) -> np.ndarray:
        wmax = np.empty((m, n_nodes))
        for i, stack in enumerate(stacks):
            # [W, V] candidates of every action, the modes mixed first
            probs = stack.probs[0, 0]
            cand = stack.gather(n, lambda lo, p: np.column_stack(
                [probs @ level(lo + p)[0] if lo >= 0 else zero, probs @ v[:, max(lo + p, 0)]]))
            wc = cand[:, 0]
            wc[stack.cap_rows] = stack.cap_cdf(n)[0]
            vals = wc.reshape(n_act, n_nodes)
            vcand = (stack.const[0] + cand[:, 1]).reshape(n_act, n_nodes)
            wmax[i] = vals.max(axis=0)
            tied = vals >= wmax[i][None, :] - TIE_TOL
            vmasked = np.where(tied, vcand, np.inf)
            a_hat = np.argmin(vmasked, axis=0)
            fallback = (wmax[i] <= 0.0) | (n <= seeded)
            actions[i, n] = np.where(fallback, a_star[i], a_hat)
            v[i, n] = np.where(ex, q_exit[i], np.where(fallback, u[i], vmasked[a_hat, cols]))
        return wmax[None]

    ((w, columns),), clamp = _sweep(ex, exit_costs(spec, grid), grid.ds, grid.n_levels, restrict,
                                    update, "threshold sweep", 1,
                                    max(stack.depth for stack in stacks), keep)

    # boundary-cell lookups read the exit-node entries; give them the law of
    # the nearest interior node instead of meaningless boundary updates
    fill = _nearest_interior(grid)
    if np.any(ex):
        actions[:, :, ex] = actions[:, :, fill[ex]]
    actions.flags.writeable = False  # a policy views it, and caches what it derives from it

    wf = CdfField(grid, w, spec=spec, tau=tau, clamp=clamp, keep=keep, columns=columns)
    return ThresholdValue(grid=grid, spec=spec, w=wf, v=v, actions=actions,
                          u=u, a_star=a_star, tau=tau)


def synthesize_policy(tv: ThresholdValue, spec: ProblemSpec, grid: Grid) -> Policy:
    """Package the per-level maximizing actions as a feedback policy.

    Ties were already broken during the sweep (smallest companion
    expectation, then action index); on the hopeless region the stored
    action is the expectation-optimal one.
    """
    if tv.grid.shape != grid.shape or tv.grid.ds != grid.ds:
        raise ConfigError("threshold value was computed on a different grid")
    return Policy(spec.controls, tv.actions, tv.a_star, grid.lo, grid.dx,
                  grid.shape, grid.ds, provenance="threshold")


def evaluate_policy_cdf(
    policy: Policy,
    spec: ProblemSpec,
    grid: Grid,
    tau: float | None = None,
    keep: Keep | None = None,
) -> CdfField:
    """Exit-cost CDF of a level-independent feedback policy.

    The policy enters the CDF sweep as its actions, one per mode and node,
    which reduces the problem to an uncontrolled solve (``solve_cdf``,
    which also reads ``keep``).  Level-dependent policies have no such
    reduction (their success probability is threshold-specific), so they
    must be evaluated by simulation instead.
    """
    if policy.s_dependent:
        raise ConfigError(
            "level-dependent policies must be evaluated by Monte-Carlo simulation"
        )
    policy.require_fits(spec)
    if tuple(policy.shape) != grid.shape:
        raise ConfigError("policy was synthesized on a different grid")
    return solve_cdf(spec, grid, tau=tau, actions=policy.control_set.vectors[policy.actions[:, 0]],
                     keep=keep)


# ---------------------------------------------------------------------------
# policy file format
# ---------------------------------------------------------------------------

POLICY_FORMAT = "pdmp-policy/1"


def save_policy(policy: Policy, path: str) -> None:
    """Write a policy as a self-describing JSON document.

    The action array is row-major (mode, level, node) int16, little-endian,
    base64-encoded; the header carries the grid descriptor and the control
    set (as its `CONTROLS` object) so the file can be simulated without the
    original problem object.  `POLICY` reads it back.
    """
    cs = policy.control_set
    doc = {
        "format": POLICY_FORMAT,
        "provenance": policy.provenance,
        "grid": grid_desc(policy),
        "n_modes": policy.actions.shape[0],
        "control_set": {"kind": cs.kind, **{key: np.asarray(getattr(cs, key)).tolist()
                                            for key in CONTROLS[cs.kind].keys}},
        "dtype": "int16",
        "byte_order": "little",
        **{f"{name}_b64": base64.b64encode(getattr(policy, name).astype("<i2").tobytes()).decode()
           for name in ("actions", "fallback")},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _exactly(text: str) -> Rule:
    """The one value ``text``: what the writer puts there."""
    def parse(value):
        if value != text:
            raise ValueError(value)
        return value
    return Rule(repr(text), parse)


def _int16s(value) -> np.ndarray:
    """The read-only little-endian int16 array that ``value``, base64 text, encodes."""
    return np.frombuffer(base64.b64decode(_STRING.parse(value), validate=True), dtype="<i2")


def _policy(grid, n_modes, control_set, actions_b64, fallback_b64, provenance="unknown",
            **literals) -> Policy:
    """A Policy from the values of its file (``literals``, its format, dtype and byte
    order, are checked by their rules and build nothing)."""
    if not len(grid["lo"]) == len(grid["dx"]) == len(grid["shape"]):
        raise ConfigError("grid lo, dx and shape must give one entry per axis")
    n_levels, n_nodes = grid["n_levels"], math.prod(grid["shape"])
    if actions_b64.size != n_modes * n_levels * n_nodes or fallback_b64.size != n_modes * n_nodes:
        raise ConfigError(f"actions_b64 and fallback_b64 do not hold {n_modes} modes x "
                          f"{n_levels} levels x {n_nodes} nodes")
    return Policy(control_set, actions_b64.reshape(n_modes, n_levels, n_nodes),
                  fallback_b64.reshape(n_modes, n_nodes), grid["lo"], grid["dx"], grid["shape"],
                  grid["ds"], provenance)


_INT16S = Rule("base64 text of little-endian int16 values", _int16s)

# The policy file, read by `reader._read` as `cli.PROBLEM` reads a problem.
POLICY = {
    "policy": Obj(_policy, {
        "format": _exactly(POLICY_FORMAT), "provenance": _STRING, "grid": "grid",
        "n_modes": _COUNT, "control_set": "controls", "dtype": _exactly("int16"),
        "byte_order": _exactly("little"), "actions_b64": _INT16S, "fallback_b64": _INT16S,
    }, frozenset({"provenance"})),
    "grid": Obj(dict, {
        "lo": _AXES, "dx": Rule("a list of finite numbers > 0, one per axis",
                                lambda value: [_POSITIVE.parse(v) for v in _instance(list)(value)]),
        "shape": Rule("a list of node counts (whole numbers >= 1), one per axis",
                      lambda value: tuple(map(_whole(1), _instance(list)(value)))),
        "ds": _POSITIVE, "n_levels": _COUNT,
    }),
    "controls": CONTROLS,
}


def load_policy(path: str) -> Policy:
    """Read a policy file through `POLICY`; a file that is not one is a ConfigError naming
    the key path that breaks."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read policy file {path}: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"policy file {path} is not valid JSON: {exc}") from None
    return _read(doc, "policy", "policy", POLICY)

