"""Monte-Carlo oracle: exact-event simulation of switching trajectories.

Between switches the motion is deterministic, so for piecewise-constant
velocities every trajectory is integrated in closed form: exit times come
from exact segment/boundary intersections (``ExitSpec.first_hit``, which
the CDF step uses too; a policy face event reads ``ExitSpec.face_exits``
and ``ExitSpec.in_boxes``) and the only randomness is the exponential
switch clock and the successor-mode draw.  Problems with a tabulated
(per-node) velocity, running cost or exit cost run through the same
lockstep loop, with one classical 4-stage integrator step of length at
most dx/|f| per event, cut where its chord first meets the exit set
(``ExitSpec.first_hit`` again).

Randomness contract v2 (``philox4x64-10/v2``): sample ``i`` of a run with
seed ``s`` and stream offset ``o`` has the Philox4x64-10 key ``(s, o + i)``.
Its events are numbered from 0: event 0 is the initial clock and event
``k >= 1`` is the k-th switch.  Event ``k`` uses the four-word block that
``np.random.Philox(key=np.array([s, o + i], dtype=np.uint64),
counter=[k, 0, 0, 0]).random_raw(4)`` returns first (the Philox bijection
of the counter ``(k + 1, 0, 0, 0)``).  Word 0 gives the successor uniform
``u = (w0 >> 11) * 2**-53`` (unused by event 0); word 1 gives the next
clock ``E = -log1p(-(w1 >> 11) * 2**-53)``, a unit exponential that the
departure rate of the new mode divides.  The successor is the number of
entries of the mode's cumulative successor table that are ``<= u``,
clipped to the last mode.  Samples are therefore independent,
reproducible bitwise, and parallelizable by splitting the index range;
the blocks are computed in bulk (`philox4x64`), one per switching sample
and event, with the 64x64->128-bit products done on 32-bit limbs
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .control import Policy
from .csvtable import Table, write_csv
from .errors import ConfigError, NumericsError
from .model import Grid, ProblemSpec
from .reader import _FINITE, _HORIZON, _value

_MAX_EVENTS = 2_000_000
_MOVE_RTOL = 1e-12  # a policy step shorter than this share of a cell crossing is roundoff
RNG_CONTRACT = "philox4x64-10/v2"


@dataclass
class TrajectorySample:
    """One simulated run with its event history."""

    start_x: np.ndarray
    start_mode: int
    switch_times: list[float] = field(default_factory=list)
    modes: list[int] = field(default_factory=list)
    cost: float = math.inf
    exit_time: float | None = None
    exit_point: np.ndarray | None = None
    exited: bool = False
    escaped: bool = False
    censored: bool = False
    cost_checkpoints: list[tuple[float, float]] = field(default_factory=list)

    @property
    def n_switches(self) -> int:
        return len(self.switch_times)


@dataclass
class BatchResult:
    """Aggregated outcome arrays of a Monte-Carlo run."""

    start_x: np.ndarray
    start_mode: int
    seed: int
    costs: np.ndarray
    exited: np.ndarray
    escaped: np.ndarray
    censored: np.ndarray
    switch_counts: np.ndarray
    events: np.ndarray     # event-loop steps per sample (integrator steps for tabulated fields)
    exit_times: np.ndarray
    occupancy: np.ndarray  # (n, M) time spent per mode
    samples: list[TrajectorySample] | None = None

    @property
    def n(self) -> int:
        return self.costs.size


def default_horizon(spec: ProblemSpec) -> float:
    """50 domain diameters at the slowest mode's top speed."""
    speeds = [m.dynamics.max_speed(spec.controls) for m in spec.modes]
    slowest = min(speeds)
    if slowest <= 0.0:
        raise ConfigError("a mode cannot move; pass an explicit horizon cap")
    return 50.0 * spec.diameter() / slowest


# Philox4x64-10 multipliers and key increments, as in numpy.random.Philox
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
_MASK64 = (1 << 64) - 1


def _mulhilo(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``a * b`` (uint64 array, constant)."""
    b0, b1 = np.uint64(b & 0xFFFFFFFF), np.uint64(b >> 32)
    a0, a1 = a & _LOW32, a >> _SHIFT32
    p01 = a0 * b1
    p10 = a1 * b0
    mid = ((a0 * b0) >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    hi = a1 * b1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, a * np.uint64(b)


def philox4x64(key0: int, key1: np.ndarray, counter: np.ndarray) -> tuple[np.ndarray, ...]:
    """Philox4x64-10 blocks of the counters ``(counter, 0, 0, 0)``.

    ``key0`` is one integer in [0, 2**64); ``key1`` and ``counter`` are uint64
    arrays of one shape.  Returns the four output words, each of that shape.
    """
    key0 = int(key0)
    key1 = np.asarray(key1, dtype=np.uint64)
    c0 = np.asarray(counter, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros(c0.shape, dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        k0 = np.uint64((key0 + r * _PHILOX_W[0]) & _MASK64)
        k1 = key1 + np.uint64(r * _PHILOX_W[1] & _MASK64)
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def _uniform(w: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1) from the top 53 bits of uint64 words."""
    return (w >> _SHIFT11).astype(float) * 2.0**-53


def _exponential(w: np.ndarray) -> np.ndarray:
    """Unit exponentials by inversion; 0 at word 0, about 36.7 at word 2**64 - 1."""
    return -np.log1p(-_uniform(w))


def _event_draws(seed: int, index: np.ndarray, event: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Successor uniforms and unit exponential clocks of the given events."""
    w0, w1, _, _ = philox4x64(seed, index, np.asarray(event, dtype=np.uint64) + np.uint64(1))
    return _uniform(w0), _exponential(w1)


def _successors(cum: np.ndarray, modes: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Successor modes: ``searchsorted(cum[mode], u, side="right")`` clipped to the last mode."""
    return np.minimum((cum[modes] <= u[:, None]).sum(axis=1), cum.shape[0] - 1)


def _stream_indices(seed: int, offset: int, n: int) -> np.ndarray:
    """The second key words ``offset + i`` of ``n`` samples, after range checks."""
    if not 0 <= seed <= _MASK64:
        raise ConfigError(f"seed {seed} is outside [0, 2**64)")
    if offset < 0 or offset + n - 1 > _MASK64:
        raise ConfigError("stream indices must lie in [0, 2**64)")
    return np.uint64(offset) + np.arange(n, dtype=np.uint64)


def _chessboard_radii(actions: np.ndarray, blocked: np.ndarray) -> np.ndarray:
    """Constant-action radii of ``actions`` (modes, *axes) as int16.

    Entry ``p`` gets the largest ``r = 2**k`` such that the L-infinity box of
    radius ``r`` around ``p`` in the trailing axes holds one action and no
    ``blocked`` entry (``blocked`` broadcasts against one mode's axes); other
    entries get 0.  This is a chessboard distance transform rounded down to a
    power of two, by doubling: the box of radius 1 compares each entry with
    its neighbours, and the box of radius ``2r`` is the union of the
    radius-``r`` boxes at offsets ``-r``, 0 and ``r`` along each axis in
    turn.  Those boxes all contain ``p``, so after the first pass each
    doubling is two shifted ANDs per axis.
    """
    to_radius = np.array([0] + [1 << k for k in range(15)], dtype=np.int16)
    radius = np.empty(actions.shape, dtype=np.int16)
    for mode, act in enumerate(actions):
        ok = np.broadcast_to(~blocked, act.shape)
        buffers = (np.empty(act.shape, dtype=bool), np.empty(act.shape, dtype=bool))
        passes = np.zeros(act.shape, dtype=np.uint8)  # radius 2**(passes - 1)
        shift = 1
        for k in range(to_radius.size - 1):
            for axis, size in enumerate(act.shape):
                grown = buffers[0] if ok is buffers[1] else buffers[1]
                lead = (slice(None),) * axis
                grown[lead + (slice(0, shift),)] = False
                grown[lead + (slice(max(shift, size - shift), size),)] = False
                if 2 * shift < size:
                    mid = lead + (slice(shift, size - shift),)
                    low = lead + (slice(0, size - 2 * shift),)
                    high = lead + (slice(2 * shift, size),)
                    out = grown[mid]
                    np.logical_and(ok[mid], ok[low], out=out)
                    out &= ok[high]
                    if k == 0:
                        out &= act[low] == act[mid]
                        out &= act[high] == act[mid]
                ok = grown
            if not ok.any():
                break
            passes += ok
            shift = 1 << k
        radius[mode] = to_radius[passes]
    return radius


def _constant_action_radii(spec: ProblemSpec, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Run-length radii of a policy's actions and of its fallback, shaped like them.

    A box may not touch a domain-boundary cell, a cell meeting an exit box
    or, for a level-dependent policy, the first or the last level.  A sample
    that crosses a box face therefore never lands on an exit or an escape,
    never skips the fallback, and never starts from the top level, whose
    budget may exceed one level when the threshold is above ``s_max``.  Nodes
    on the last index of an axis start no cell and get 0.  They are computed
    once per policy and exit set, and kept read-only in ``policy.radii``.
    """
    cached = policy.radii.get(spec.exit_set)
    if cached is not None:
        return cached
    shape = policy.shape
    blocked = np.zeros(shape, dtype=bool)
    for a, size in enumerate(shape):
        edge = [slice(None)] * len(shape)
        for k in (0, size - 2, size - 1):
            edge[a] = k
            blocked[tuple(edge)] = True
    if spec.exit_set.kind == "boxes":
        for box in spec.exit_set.boxes:
            hit = np.ones(shape, dtype=bool)
            for a, (b_lo, b_hi) in enumerate(box):
                # cells meeting the box grown by half a cell: generous, never too few
                lower = policy.lo[a] + np.arange(shape[a]) * policy.dx[a]
                meets = (lower <= b_hi + 0.5 * policy.dx[a]) & (lower + 1.5 * policy.dx[a] >= b_lo)
                hit &= meets.reshape([-1 if b == a else 1 for b in range(len(shape))])
            blocked |= hit
    m, n_levels = policy.actions.shape[:2]
    actions = policy.actions.reshape(m, n_levels, *shape)
    if policy.s_dependent:
        levels = np.zeros((n_levels,) + (1,) * len(shape), dtype=bool)
        levels[[0, -1]] = True
        radius = _chessboard_radii(actions, blocked | levels)
    else:
        radius = _chessboard_radii(actions[:, 0], blocked)[:, None]
    fallback = _chessboard_radii(policy.fallback.reshape(m, *shape), blocked)
    radii = radius.reshape(policy.actions.shape), fallback.reshape(policy.fallback.shape)
    for arr in radii:
        arr.flags.writeable = False
    policy.radii[spec.exit_set] = radii
    return radii


def _jump_tables(spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Total departure rates and cumulative successor distributions."""
    rm = spec.require_fixed_rates()
    off = rm.off_diagonal()
    totals = rm.total_rates()
    m = spec.n_modes
    cum = np.zeros((m, m))
    for i in range(m):
        if totals[i] > 0:
            cum[i] = np.cumsum(off[i] / totals[i])
        else:
            cum[i] = 1.0
    return totals, cum


def run_batch(
    spec: ProblemSpec,
    start: tuple,
    n: int,
    seed: int,
    policy: Policy | None = None,
    threshold: float | None = None,
    horizon_cap: float | None = None,
    record: bool = False,
    grid: Grid | None = None,
    stream_offset: int = 0,
) -> BatchResult:
    """Simulate ``n`` independent trajectories from one start configuration.

    The whole batch advances in lockstep over events, so the cost is a few
    vector operations per event.  When every velocity, running cost and
    exit cost is constant in space, events are exact: a sample moves
    straight to its first exit or escape (``ExitSpec.first_hit``), to its
    next switch or to the horizon.  Otherwise an event is one 4-stage
    integrator step (`_integrator_step`) on fields interpolated on ``grid``,
    which is then required; policies over tabulated fields are rejected.

    With a policy, events are run-length: each (mode, level, cell) of the
    policy and (mode, cell) of its fallback has a precomputed radius, the
    largest ``2**k`` (or 0) whose L-infinity box in (level, cell) index space
    has one action and touches no domain-boundary cell, no cell meeting an
    exit box and neither the first nor the last level (`_constant_action_radii`).
    An event moves a sample to the first face of its box, to its next switch
    or to the horizon; its cell and level then advance by ``r + 1`` and the
    axes it merely moved along are recomputed (`_settle_in_boxes`).  At
    radius 0 (action interfaces, next to the boundary, and while the sliding
    or stuck guard is active) an event is the per-cell step.  ``events``
    counts each sample's loop steps.  Switch draws, exits, escapes,
    censoring, ``record`` and ``occupancy`` are shared by all three motions.

    Velocities come from ``VectorField.at`` alone, as (mode, action) rows
    built once: a policy's action moves only ``control_offset`` modes, and
    such a mode without a policy has no velocity, so the run raises
    `ConfigError`.  ``threshold`` is the cost budget of a level-dependent
    policy and must be finite; it is rejected without one.  ``horizon_cap``
    must be positive (``inf`` is allowed).  Bad values raise `ConfigError`.
    """
    x0 = np.array(start[0], dtype=float).reshape(-1)
    mode0 = int(start[1])
    if x0.size != spec.dim:
        raise ConfigError("start point has the wrong dimension")
    if not np.all((x0 >= spec.lo) & (x0 <= spec.hi)):
        raise ConfigError("start point lies outside the domain")
    if not 0 <= mode0 < spec.n_modes:
        raise ConfigError(f"start mode index {mode0} is outside [0, {spec.n_modes})")
    if horizon_cap is not None:
        horizon_cap = float(_value(_HORIZON, horizon_cap, "horizon cap"))
    if threshold is not None:
        if policy is None or not policy.s_dependent:
            raise ConfigError("a cost threshold needs a level-dependent policy; "
                              "only threshold policies read it")
        threshold = float(_value(_FINITE, threshold, "cost threshold"))
    integrate = any(f.kind == "tabulated" for ms in spec.modes
                    for f in (ms.dynamics, ms.cost, ms.exit_cost))
    if policy is not None:
        if integrate:
            raise ConfigError("policies over tabulated fields are not supported")
        policy.require_fits(spec)
        if policy.s_dependent and threshold is None:
            raise ConfigError("a level-dependent policy needs a cost threshold")
    if integrate and grid is None:
        raise ConfigError("tabulated fields need the grid for interpolation")
    cap = horizon_cap if horizon_cap is not None else default_horizon(spec)

    m = spec.n_modes
    d = spec.dim
    totals, cum = _jump_tables(spec)
    exit_costs = [ms.exit_cost for ms in spec.modes]
    face_exits = spec.exit_set.face_exits(d)
    if not integrate:
        cost_rate = np.array([ms.cost.value for ms in spec.modes])
        # velocity of each (mode, action) by the one velocity rule; without a
        # policy one row per mode, and a control-offset mode has no velocity
        actions = policy.control_set.vectors if policy is not None else None
        points = np.zeros((1 if actions is None else actions.shape[0], d))
        velocity = np.array([ms.dynamics.at(grid, points, actions) for ms in spec.modes])

    index = _stream_indices(seed, stream_offset, n)
    x = np.tile(x0, (n, 1))
    mode = np.full(n, mode0, dtype=int)
    t = np.zeros(n)
    c = np.zeros(n)
    if totals[mode0] > 0:
        next_switch = _event_draws(seed, index, np.zeros(n))[1] / totals[mode0]
    else:
        next_switch = np.full(n, np.inf)
    costs = np.full(n, np.inf)
    exited = np.zeros(n, dtype=bool)
    escaped = np.zeros(n, dtype=bool)
    censored = np.zeros(n, dtype=bool)
    switch_counts = np.zeros(n, dtype=np.uint64)  # also each sample's contract event number
    events = np.zeros(n, dtype=np.int64)
    exit_times = np.full(n, np.nan)
    exit_points = np.full((n, d), np.nan)
    occupancy = np.zeros((n, m))
    alive = np.ones(n, dtype=bool)

    def exit_now(sel):
        costs[sel] = c[sel] + _per_mode(exit_costs, grid, mode[sel], x[sel])
        exited[sel] = True
        exit_times[sel] = t[sel]
        exit_points[sel] = x[sel]
        alive[sel] = False

    use_cells = policy is not None
    if use_cells:
        radius, fallback_radius = _constant_action_radii(spec, policy)
        cell = np.minimum(policy.cell_of(x), np.array(policy.shape) - 2)
        strides = policy._strides
        if policy.s_dependent:
            s_cell = np.full(n, int(math.floor(threshold / policy.ds + 1e-12)))
            s_cell = np.minimum(s_cell, policy.n_levels - 1)
        else:
            s_cell = np.zeros(n, dtype=int)
        # guards against zero-length event cycles at policy interfaces: first
        # slide along a re-crossed face, then freeze entirely until the next
        # switch (the stationary sliding-mode interpretation); a guarded
        # sample steps one cell at a time
        prev_face_axis = np.full(n, -1, dtype=np.int8)
        slide_axis = np.full(n, -1, dtype=np.int8)
        zero_streak = np.zeros(n, dtype=np.int32)

    recs = [TrajectorySample(x0.copy(), mode0, modes=[mode0]) for _ in range(n)] if record else None

    for _ in range(_MAX_EVENTS):
        act = np.where(alive)[0]
        if act.size == 0:
            break
        events[act] += 1
        xm = x[act]
        md = mode[act]
        if integrate:
            kinds = ["switch", "horizon", "exit", "escape"]
            x_new, dt, crate, hit = _integrator_step(spec, grid, md, xm, t[act],
                                                     next_switch[act], cap)
        else:
            if use_cells:
                flat = cell[act] @ strides
                sc = s_cell[act]
                lvl = np.clip(sc, 0, policy.n_levels - 1)
                rad = np.where(sc < 0, fallback_radius[md, flat],
                               radius[md, lvl, flat]).astype(int)
                v = velocity[md, policy.action_index_at_cell(md, sc, flat)]
                sliding = slide_axis[act]
                if np.any(sliding >= 0):
                    rows = np.where(sliding >= 0)[0]
                    v = v.copy()
                    v[rows, sliding[rows]] = 0.0
                    rad[rows] = 0
                stuck = zero_streak[act] >= 6
                if np.any(stuck):
                    v = v.copy()
                    v[stuck] = 0.0
                    rad[stuck] = 0
            else:
                v = velocity[md, 0]
            crate = cost_rate[md]

            dt_switch = next_switch[act] - t[act]
            dt_hor = cap - t[act]
            cands = [dt_switch, dt_hor]
            kinds = ["switch", "horizon"]
            if use_cells:
                if policy.s_dependent:
                    s_rem = threshold - c[act]
                    dt_s = np.where(sc >= 0, (s_rem - (sc - rad) * policy.ds) / crate, np.inf)
                    cands.append(np.maximum(dt_s, 0.0))
                    kinds.append("s_cell")
                for a in range(d):
                    # faces of the sample's box: its cell grown by `rad` cells each way
                    lo_face = policy.lo[a] + (cell[act, a] - rad) * policy.dx[a]
                    hi_face = lo_face + (2 * rad + 1) * policy.dx[a]
                    va = v[:, a]
                    with np.errstate(divide="ignore", invalid="ignore"):
                        dt_a = np.where(va > 0, (hi_face - xm[:, a]) / va,
                                        np.where(va < 0, (lo_face - xm[:, a]) / va, np.inf))
                    cands.append(np.maximum(dt_a, 0.0))
                    kinds.append(f"face{a}")
            else:
                t_exit, t_escape = spec.exit_set.first_hit(spec.lo, spec.hi, xm, v)
                cands.extend([t_exit, t_escape])
                kinds.extend(["exit", "escape"])

            mat = np.vstack(cands)
            which = np.argmin(mat, axis=0)
            dt = mat[which, np.arange(act.size)]
            hit = which == np.arange(len(kinds))[:, None]
            x_new = xm + v * dt[:, None]

        x[act] = x_new
        c[act] += crate * dt
        t[act] += dt
        occupancy[act, md] += dt
        if use_cells:
            # only a step longer than roundoff against a cell crossing (any
            # positive step when frozen) clears the ping-pong and stuck guards
            with np.errstate(divide="ignore"):
                crossing = np.min(policy.dx / np.abs(v), axis=1)
            moved = dt > _MOVE_RTOL * np.where(np.isfinite(crossing), crossing, 0.0)
            prev_face_axis[act[moved]] = -1
            slide_axis[act[moved]] = -1
            zero_streak[act[moved]] = 0
            zero_streak[act[~moved]] += 1
            wide = np.nonzero(rad > 0)[0]
            if wide.size:
                _settle_in_boxes(wide, act, which, kinds, rad, v, x, c, cell, s_cell,
                                 policy, threshold)

        for kname, hits in zip(kinds, hit):
            sel = act[hits]
            if sel.size == 0:
                continue
            if kname == "switch":
                switch_counts[sel] += np.uint64(1)
                u_draw, e_draw = _event_draws(seed, index[sel], switch_counts[sel])
                new_modes = _successors(cum, mode[sel], u_draw)
                mode[sel] = new_modes
                rates_new = totals[new_modes]
                safe_new = np.where(rates_new > 0, rates_new, 1.0)
                next_switch[sel] = np.where(rates_new > 0, t[sel] + e_draw / safe_new, np.inf)
                if record:
                    for pos, smp in enumerate(sel):
                        recs[smp].switch_times.append(float(t[smp]))
                        recs[smp].modes.append(int(new_modes[pos]))
                        recs[smp].cost_checkpoints.append((float(t[smp]), float(c[smp])))
            elif kname == "horizon":
                censored[sel] = True
                alive[sel] = False
            elif kname == "s_cell":
                s_cell[sel] -= 1 + rad[hits]
            elif kname.startswith("face"):
                a = int(kname[4:])
                r_sel = rad[hits]
                midpoint = policy.lo[a] + (cell[sel, a] + 0.5) * policy.dx[a]
                going_up = x[sel, a] >= midpoint
                new_face = np.where(going_up, cell[sel, a] + r_sel + 1, cell[sel, a] - r_sel)
                x[sel, a] = policy.lo[a] + new_face * policy.dx[a]
                # zero-length re-crossing of the same axis: slide along the interface
                pingpong = ~moved[hits] & (prev_face_axis[sel] == a)
                slide_axis[sel[pingpong]] = a
                prev_face_axis[sel] = a
                at_hi = going_up & (new_face >= policy.shape[a] - 1)
                at_lo = ~going_up & (new_face <= 0)
                is_exit_face = (at_hi & face_exits[a, 1]) | (at_lo & face_exits[a, 0])
                done_exit = is_exit_face | spec.exit_set.in_boxes(x[sel], 1e-12)
                done_escape = (at_hi | at_lo) & ~done_exit
                if done_exit.any():
                    exit_now(sel[done_exit])
                esc_sel = sel[done_escape]
                if esc_sel.size:
                    escaped[esc_sel] = True
                    alive[esc_sel] = False
                move = ~done_exit & ~done_escape
                mv = sel[move]
                if mv.size:
                    jump = r_sel[move] + 1
                    cell[mv, a] = np.clip(cell[mv, a] + np.where(going_up[move], jump, -jump),
                                          0, policy.shape[a] - 2)
            elif kname == "exit":
                exit_now(sel)
            elif kname == "escape":
                escaped[sel] = True
                alive[sel] = False
    else:
        raise NumericsError("simulation exceeded its event budget; check the horizon cap")

    if record:
        for i, rec in enumerate(recs):
            rec.cost = float(costs[i])
            rec.exited = bool(exited[i])
            rec.escaped = bool(escaped[i])
            rec.censored = bool(censored[i])
            if exited[i]:
                rec.exit_time = float(exit_times[i])
                rec.exit_point = exit_points[i].copy()
    return BatchResult(
        start_x=x0, start_mode=mode0, seed=seed, costs=costs, exited=exited,
        escaped=escaped, censored=censored, switch_counts=switch_counts.astype(int),
        events=events, exit_times=exit_times, occupancy=occupancy, samples=recs,
    )


def _per_mode(fields, grid: Grid | None, modes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Each row's value of ``fields[mode]`` at its point, one ``at`` call per mode present."""
    out = None
    for k, f in enumerate(fields):
        rows = modes == k
        if rows.any():
            value = f.at(grid, points[rows])
            if out is None:
                out = np.empty((modes.size,) + value.shape[1:])
            out[rows] = value
    return out


def _integrator_step(spec: ProblemSpec, grid: Grid, modes: np.ndarray, x: np.ndarray,
                     t: np.ndarray, t_switch: np.ndarray, cap: float):
    """One classical 4-stage step for each sample of a problem with tabulated fields.

    The step length is ``dx_min / |f|`` (the time to the horizon when the
    sample does not move), shortened to the horizon and to the next switch
    (at least 1e-15).  The step ends early where its chord first meets the
    exit set or a non-exit face (``ExitSpec.first_hit``); a tie goes to the
    exit.  The running cost is charged at the rate of the start point.

    Returns the new points, the step times, the cost rates and the masks of
    the events ``switch``, ``horizon``, ``exit`` and ``escape`` (a step may
    both switch and reach the horizon).
    """
    velocity = [ms.dynamics for ms in spec.modes]
    k1 = _per_mode(velocity, grid, modes, x)
    speed = np.linalg.norm(k1, axis=1)
    with np.errstate(divide="ignore"):
        h = np.where(speed > 0, grid.dx.min() / speed, cap - t)
    h = np.minimum(np.minimum(h, cap - t), np.maximum(t_switch - t, 1e-15))

    def stage(k, share):
        return _per_mode(velocity, grid, modes,
                         np.clip(x + share * h[:, None] * k, grid.lo, grid.hi))

    k2 = stage(k1, 0.5)
    k3 = stage(k2, 0.5)
    k4 = stage(k3, 1.0)
    step = (h / 6.0)[:, None] * (k1 + 2 * k2 + 2 * k3 + k4)
    t_exit, t_escape = spec.exit_set.first_hit(spec.lo, spec.hi, x, step)
    theta = np.minimum(t_exit, t_escape)
    ends = theta <= 1.0
    share = np.minimum(theta, 1.0)
    x_new = np.clip(x + share[:, None] * step, spec.lo, spec.hi)
    dt = h * share
    crate = _per_mode([ms.cost for ms in spec.modes], grid, modes, x)
    t_new = t + dt
    to_exit = ends & (t_exit <= t_escape)
    hit = np.array([~ends & (t_new >= t_switch), ~ends & (t_new >= cap), to_exit, ends & ~to_exit])
    return x_new, dt, crate, hit


def _settle_in_boxes(wide, act, which, kinds, rad, v, x, c, cell, s_cell, policy, threshold):
    """Cell and level of the samples ``act[wide]`` after an event inside their box.

    The event moved them straight across their constant-action box; the cells
    and levels they entered are the ones the per-cell loop would have stepped
    through.  An axis that moved up is in the cell whose lower face it last
    reached, one that moved down in the cell below the upper face it last
    reached (a face counts as crossed on contact, as there).  The axis of a
    face event and the level of a level event are left to the event itself.
    """
    smp, r, kind = act[wide], rad[wide], which[wide]
    for a in range(cell.shape[1]):
        va = v[wide, a]
        pos = (x[smp, a] - policy.lo[a]) / policy.dx[a]
        entered = np.where(va > 0, np.floor(pos), np.ceil(pos) - 1)
        k = cell[smp, a]
        moved = (va != 0) & (kind != kinds.index(f"face{a}"))
        cell[smp, a] = np.where(moved, np.clip(entered, k - r, k + r), k)
    if policy.s_dependent:
        level = s_cell[smp]
        entered = np.ceil((threshold - c[smp]) / policy.ds) - 1
        keep = (level < 0) | (kind == kinds.index("s_cell"))
        s_cell[smp] = np.where(keep, level, np.clip(entered, level - r, level))


def sample_trajectory(
    spec: ProblemSpec,
    start: tuple,
    seed: int,
    index: int = 0,
    policy: Policy | None = None,
    threshold: float | None = None,
    horizon_cap: float | None = None,
    grid: Grid | None = None,
) -> TrajectorySample:
    """Simulate one trajectory on the stream with Philox key ``(seed, index)``.

    Identical to row ``index`` of a batch run with the same seed.  Under
    randomness contract v2 (see the module docstring) event ``k`` of the
    trajectory (0: the initial clock, k >= 1: the k-th switch) uses the block
    ``np.random.Philox(key=np.array([seed, index], dtype=np.uint64),
    counter=[k, 0, 0, 0]).random_raw(4)``: word 0 gives the successor uniform
    ``(w0 >> 11) * 2**-53`` and word 1 the clock
    ``-log1p(-(w1 >> 11) * 2**-53)``.
    """
    batch = run_batch(spec, start, 1, seed, policy=policy, threshold=threshold,
                      horizon_cap=horizon_cap, record=True, grid=grid,
                      stream_offset=index)
    return batch.samples[0]


# ---------------------------------------------------------------------------
# empirical distribution
# ---------------------------------------------------------------------------


class EmpiricalCdf:
    """Right-continuous empirical distribution of finite sample costs.

    Censored or escaped samples count toward the total but never toward a
    finite threshold, so the curve tops out below one when they exist.
    """

    def __init__(self, finite_costs: np.ndarray, n_total: int, seed: int | None = None):
        if n_total < 1:
            raise ConfigError("empirical CDF needs at least one sample")
        self.costs = np.sort(np.asarray(finite_costs, dtype=float))
        self.n_total = int(n_total)
        self.seed = seed

    @classmethod
    def from_batch(cls, batch: BatchResult) -> "EmpiricalCdf":
        return cls(batch.costs[np.isfinite(batch.costs)], batch.n, seed=batch.seed)

    def evaluate(self, s):
        pos = np.searchsorted(self.costs, np.asarray(s, dtype=float), side="right")
        out = pos / self.n_total
        return float(out) if np.ndim(s) == 0 else out

    def __call__(self, s):
        return self.evaluate(s)

    def dkw_epsilon(self, alpha: float = 0.01) -> float:
        """Half-width of the distribution-free uniform confidence band."""
        if not 0.0 < alpha < 1.0:
            raise ConfigError("confidence level must be in (0, 1)")
        return math.sqrt(math.log(2.0 / alpha) / (2.0 * self.n_total))


def empirical_cdf(samples) -> EmpiricalCdf:
    """Build the empirical CDF from a sample list or a batch result."""
    if isinstance(samples, BatchResult):
        return EmpiricalCdf.from_batch(samples)
    costs = np.array([s.cost for s in samples], dtype=float)
    if costs.size == 0:
        raise ConfigError("empirical CDF needs at least one sample")
    return EmpiricalCdf(costs[np.isfinite(costs)], costs.size)


def estimate_mean(samples) -> tuple[float, float]:
    """Sample mean and standard error of the costs; rejects censored runs."""
    if isinstance(samples, BatchResult):
        costs = samples.costs
    else:
        costs = np.array([s.cost for s in samples], dtype=float)
    if costs.size == 0:
        raise ConfigError("mean estimation needs at least one sample")
    if not np.all(np.isfinite(costs)):
        raise ConfigError("mean estimation requires every sample to have exited")
    mean = float(np.mean(costs))
    se = float(np.std(costs, ddof=1) / math.sqrt(costs.size)) if costs.size > 1 else 0.0
    return mean, se


def write_samples_csv(batch: BatchResult, path: str) -> None:
    """One row per sample: stream index, start, outcome flags, cost, switches.

    A cost that is not finite (a censored or escaped sample) reads ``inf``.
    """
    coords = [f"x0_{a}" for a in range(batch.start_x.size)]
    header = ["sample", *coords, "mode0", "exited", "escaped", "censored", "cost", "switches"]
    write_csv(path, header, Table([
        np.arange(batch.n), *(float(v) for v in batch.start_x), batch.start_mode + 1,
        batch.exited.astype(int), batch.escaped.astype(int), batch.censored.astype(int),
        np.where(np.isfinite(batch.costs), batch.costs, np.inf), batch.switch_counts]))
