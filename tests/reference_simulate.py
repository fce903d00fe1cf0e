"""Reference loops for Monte-Carlo runs that the package once ran itself.

`per_cell_batch` is the lockstep event loop that `simulate.run_batch` ran
before it crossed whole constant-action boxes: every event stops at the
next face of the sample's policy cell, at the next cost level, at its next
switch or at the horizon.  `per_sample_tabulated_batch` is the integrator
that ran problems with tabulated fields one sample at a time, with a
bisection at the domain boundary.  Both share only the randomness contract
(`_event_draws`, `_successors`, `_jump_tables`, `_stream_indices`) and the
exit geometry (`ExitSpec.face_exits`, `ExitSpec.in_boxes`) with the
package, so a test against them checks the stepping and not the draws.
"""

import math

import numpy as np

from pdmp_cdf.simulate import (
    TrajectorySample,
    _event_draws,
    _jump_tables,
    _stream_indices,
    _successors,
    default_horizon,
)


def per_cell_batch(spec, start, n, seed, policy, threshold=None, horizon_cap=None):
    """Simulate ``n`` policy-driven samples one policy cell per event.

    Returns a dict of per-sample arrays: ``costs``, ``exited``, ``escaped``,
    ``censored``, ``switch_counts``, ``final_mode`` and ``events`` (the loop
    steps each sample took part in).
    """
    x0 = np.array(start[0], dtype=float).reshape(-1)
    mode0 = int(start[1])
    cap = horizon_cap if horizon_cap is not None else default_horizon(spec)
    d = spec.dim
    totals, cum = _jump_tables(spec)
    cost_rate = np.array([ms.cost.value for ms in spec.modes])
    q_exit = np.array([ms.exit_cost.value for ms in spec.modes])
    face_exits = spec.exit_set.face_exits(d)
    offsets = np.array([ms.dynamics.vector for ms in spec.modes])
    ctrl_vecs = policy.control_set.vectors

    index = _stream_indices(seed, 0, n)
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
    switch_counts = np.zeros(n, dtype=np.uint64)
    events = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)

    cell = np.minimum(policy.cell_of(x), np.array(policy.shape) - 2)
    strides = policy._strides
    if policy.s_dependent:
        s_cell = np.full(n, int(math.floor(threshold / policy.ds + 1e-12)))
        s_cell = np.minimum(s_cell, policy.n_levels - 1)
    else:
        s_cell = np.zeros(n, dtype=int)
    prev_face_axis = np.full(n, -1, dtype=np.int8)
    slide_axis = np.full(n, -1, dtype=np.int8)
    zero_streak = np.zeros(n, dtype=np.int32)

    while alive.any():
        act = np.where(alive)[0]
        events[act] += 1
        xm = x[act]
        md = mode[act]
        flat = cell[act] @ strides
        sc = s_cell[act]
        below = sc < 0
        lvl = np.clip(sc, 0, policy.n_levels - 1)
        a_idx = np.where(below, policy.fallback[md, flat], policy.actions[md, lvl, flat])
        v = ctrl_vecs[a_idx] + offsets[md]
        sliding = slide_axis[act]
        if np.any(sliding >= 0):
            rows = np.where(sliding >= 0)[0]
            v = v.copy()
            v[rows, sliding[rows]] = 0.0
        stuck = zero_streak[act] >= 6
        if np.any(stuck):
            v = v.copy()
            v[stuck] = 0.0
        crate = cost_rate[md]

        cands = [next_switch[act] - t[act], cap - t[act]]
        kinds = ["switch", "horizon"]
        if policy.s_dependent:
            s_rem = threshold - c[act]
            dt_s = np.where(s_cell[act] >= 0, (s_rem - s_cell[act] * policy.ds) / crate, np.inf)
            cands.append(np.maximum(dt_s, 0.0))
            kinds.append("s_cell")
        for a in range(d):
            lo_face = policy.lo[a] + cell[act, a] * policy.dx[a]
            hi_face = lo_face + policy.dx[a]
            va = v[:, a]
            with np.errstate(divide="ignore", invalid="ignore"):
                dt_a = np.where(va > 0, (hi_face - xm[:, a]) / va,
                                np.where(va < 0, (lo_face - xm[:, a]) / va, np.inf))
            cands.append(np.maximum(dt_a, 0.0))
            kinds.append(f"face{a}")

        mat = np.vstack(cands)
        which = np.argmin(mat, axis=0)
        dt = mat[which, np.arange(act.size)]
        x[act] += v * dt[:, None]
        c[act] += crate * dt
        t[act] += dt
        # a move is longer than roundoff against a cell crossing (any
        # positive step of a frozen sample), as in the package
        with np.errstate(divide="ignore"):
            crossing = np.min(policy.dx / np.abs(v), axis=1)
        moved = dt > 1e-12 * np.where(np.isfinite(crossing), crossing, 0.0)
        prev_face_axis[act[moved]] = -1
        slide_axis[act[moved]] = -1
        zero_streak[act[moved]] = 0
        zero_streak[act[~moved]] += 1

        for k_id, kname in enumerate(kinds):
            hits = which == k_id
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
            elif kname == "horizon":
                censored[sel] = True
                alive[sel] = False
            elif kname == "s_cell":
                s_cell[sel] -= 1
            else:
                a = int(kname[4:])
                midpoint = policy.lo[a] + (cell[sel, a] + 0.5) * policy.dx[a]
                going_up = x[sel, a] >= midpoint
                new_face = np.where(going_up, cell[sel, a] + 1, cell[sel, a])
                x[sel, a] = policy.lo[a] + new_face * policy.dx[a]
                pingpong = ~moved[hits] & (prev_face_axis[sel] == a)
                slide_axis[sel[pingpong]] = a
                prev_face_axis[sel] = a
                at_hi = going_up & (new_face >= policy.shape[a] - 1)
                at_lo = ~going_up & (new_face <= 0)
                done_exit = ((at_hi & face_exits[a, 1]) | (at_lo & face_exits[a, 0])
                             | spec.exit_set.in_boxes(x[sel], 1e-12))
                done_escape = (at_hi | at_lo) & ~done_exit
                ex_sel = sel[done_exit]
                costs[ex_sel] = c[ex_sel] + q_exit[mode[ex_sel]]
                exited[ex_sel] = True
                alive[ex_sel] = False
                esc_sel = sel[done_escape]
                escaped[esc_sel] = True
                alive[esc_sel] = False
                move = ~done_exit & ~done_escape
                mv = sel[move]
                cell[mv, a] = np.clip(cell[mv, a] + np.where(going_up[move], 1, -1),
                                      0, policy.shape[a] - 2)
    return {
        "costs": costs, "exited": exited, "escaped": escaped, "censored": censored,
        "switch_counts": switch_counts.astype(int), "final_mode": mode, "events": events,
    }


def per_sample_tabulated_batch(spec, grid, start, n, seed, horizon_cap=None):
    """Integrate ``n`` samples one at a time with the 4-stage one-step scheme.

    Returns the samples and a dict of per-sample arrays: ``costs``,
    ``exited``, ``escaped``, ``censored``, ``switch_counts``, ``final_mode``,
    ``exit_times`` and ``events`` (integrator steps).
    """
    x0 = np.array(start[0], dtype=float).reshape(-1)
    mode0 = int(start[1])
    runs = [_sample_tabulated(spec, grid, x0, mode0, seed, index, horizon_cap)
            for index in _stream_indices(seed, 0, n)]
    samples = [rec for rec, _ in runs]
    return samples, {
        "costs": np.array([s.cost for s in samples]),
        "exited": np.array([s.exited for s in samples]),
        "escaped": np.array([s.escaped for s in samples]),
        "censored": np.array([s.censored for s in samples]),
        "switch_counts": np.array([s.n_switches for s in samples]),
        "final_mode": np.array([s.modes[-1] for s in samples]),
        "exit_times": np.array([np.nan if s.exit_time is None else s.exit_time for s in samples]),
        "events": np.array([steps for _, steps in runs], dtype=np.int64),
    }


def _sample_tabulated(spec, grid, x0, mode0, seed, index, horizon_cap):
    """One-step 4-stage integration path for space-varying velocities.

    Draws from the stream ``(seed, index)`` exactly as `run_batch` does.
    Returns the sample and its number of integrator steps.
    """
    stream = np.array([index], dtype=np.uint64)
    cap = horizon_cap if horizon_cap is not None else default_horizon(spec)
    rec = TrajectorySample(np.array(x0, float), mode0, modes=[mode0])
    x = np.array(x0, dtype=float)
    mode = mode0
    totals, cum = _jump_tables(spec)
    t = c = 0.0
    clock = float(_event_draws(seed, stream, np.zeros(1))[1][0])
    t_next = clock / totals[mode] if totals[mode] > 0 else math.inf
    dx_min = float(grid.dx.min())
    steps = 0

    def vel(p, mode_now):
        return spec.modes[mode_now].dynamics.at(grid, p[None, :])[0]

    while t < cap:
        steps += 1
        v = vel(x, mode)
        speed = float(np.linalg.norm(v))
        h = dx_min / speed if speed > 0 else cap - t
        h = min(h, cap - t, max(t_next - t, 1e-15))
        k1 = v
        k2 = vel(np.clip(x + 0.5 * h * k1, grid.lo, grid.hi), mode)
        k3 = vel(np.clip(x + 0.5 * h * k2, grid.lo, grid.hi), mode)
        k4 = vel(np.clip(x + h * k3, grid.lo, grid.hi), mode)
        step = (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        x_new = x + step
        inside = bool(np.all((x_new >= grid.lo) & (x_new <= grid.hi)))
        if not inside:
            lo_f, hi_f = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo_f + hi_f)
                p = x + mid * step
                if np.all((p >= grid.lo) & (p <= grid.hi)):
                    lo_f = mid
                else:
                    hi_f = mid
            x_new = np.clip(x + hi_f * step, grid.lo, grid.hi)
            h = h * hi_f
        c += float(spec.modes[mode].cost.at(grid, x[None, :])[0]) * h
        t += h
        x = x_new
        if not inside:
            if _point_on_exit(spec, grid, x):
                qv = float(spec.modes[mode].exit_cost.at(grid, x[None, :])[0])
                rec.cost = c + qv
                rec.exited = True
                rec.exit_time = t
                rec.exit_point = x.copy()
            else:
                rec.escaped = True
            return rec, steps
        if t >= t_next:
            u, e = _event_draws(seed, stream, np.array([len(rec.modes)]))
            mode = int(_successors(cum, np.array([mode]), u)[0])
            rec.switch_times.append(t)
            rec.modes.append(mode)
            rec.cost_checkpoints.append((t, c))
            t_next = t + (float(e[0]) / totals[mode] if totals[mode] > 0 else math.inf)
    rec.censored = True
    return rec, steps


def _point_on_exit(spec, grid, x) -> bool:
    on_face = np.abs(x[:, None] - np.column_stack([spec.lo, spec.hi])) <= 1e-9 * float(grid.dx.min())
    return bool(np.any(on_face & spec.exit_set.face_exits(spec.dim))
                or spec.exit_set.in_boxes(x, 1e-12)[0])
