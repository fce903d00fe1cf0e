"""Per-cell reference for policy-driven Monte-Carlo runs.

This is the lockstep event loop that `simulate.run_batch` ran before it
crossed whole constant-action boxes: every event stops at the next face of
the sample's policy cell, at the next cost level, at its next switch or at
the horizon.  It shares only the randomness contract (`_event_draws`,
`_successors`, `_jump_tables`, `_stream_indices`) and the exit geometry
(`ExitSpec.face_exits`, `ExitSpec.in_boxes`) with the package, so a test
against it checks the run-length stepping and not the draws.
"""

import math

import numpy as np

from pdmp_cdf.simulate import (
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
