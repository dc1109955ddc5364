"""Method-of-steps integration of delay systems with dense output.

Fixed-step classical RK4; delayed arguments are read from the already
computed piecewise-linear dense trajectory.  Requiring dt <= delay/4
(for positive delays) keeps every delayed read inside the completed
segment, so the scheme stays explicit.  Blow-up is a trajectory status,
not an exception: experiments deliberately probe near finite escape.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import histories
from .histories import HistoryFunction, _interp_row
from .systems import DelaySystem, InputSignal, zero_input

__all__ = [
    "Trajectory",
    "integrate",
    "history_at",
    "history_norm_series",
    "export_csv",
]

COMPLETED = "completed"
BLEW_UP = "blew_up"

_DIV_TOL = 1e-9


@dataclass(frozen=True)
class Trajectory:
    """Dense solver output on [-delay, T].

    `times` starts with the union of the initial-history grid and the
    uniform step grid on [-delay, 0] (so the stored values reproduce the
    initial history at its own nodes), then continues uniformly with
    step dt.  If status is "blew_up", the grid stops at the last finite
    state and `t_escape` records the first bad step time.
    """

    system: DelaySystem
    times: np.ndarray
    values: np.ndarray
    status: str
    t_escape: Optional[float]
    x0: HistoryFunction
    u: InputSignal
    dt: float

    @property
    def delay(self) -> float:
        return self.system.delay

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


def integrate(sys: DelaySystem, x0: HistoryFunction, u: InputSignal | None,
              horizon: float, dt: float,
              blowup_threshold: float = 1e9) -> Trajectory:
    """Integrate dx/dt = f(x_t, u(t)) from the initial history x0.

    Preconditions: x0.delay == sys.delay, dt > 0, dt divides both the
    delay (with dt <= delay/4 when the delay is positive) and the
    horizon.
    """
    if u is None:
        u = zero_input(sys.m)
    if abs(x0.delay - sys.delay) > _DIV_TOL * max(1.0, sys.delay):
        raise ValueError(f"history delay {x0.delay} != system delay {sys.delay}")
    if x0.n != sys.n:
        raise ValueError(f"history dimension {x0.n} != system dimension {sys.n}")
    if u.m != sys.m:
        raise ValueError(f"input dimension {u.m} != system input dimension {sys.m}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    delay = sys.delay
    if delay > 0:
        k = int(round(delay / dt))
        if abs(k * dt - delay) > _DIV_TOL * max(1.0, delay):
            raise ValueError(f"dt={dt} must divide the delay {delay}")
        if k < 4:
            raise ValueError("dt must satisfy dt <= delay/4 to keep the "
                             "method of steps explicit")
    nsteps = int(round(horizon / dt))
    if nsteps < 1 or abs(nsteps * dt - horizon) > _DIV_TOL * max(1.0, horizon):
        raise ValueError(f"dt={dt} must divide the horizon {horizon}")

    neg = _initial_grid(x0, delay, dt)
    times = np.concatenate([neg, dt * np.arange(1, nsteps + 1)])
    n = sys.n
    values = np.empty((times.shape[0], n))
    values[:neg.shape[0]] = x0.eval(neg)
    zero_idx = neg.shape[0] - 1

    status, t_escape = COMPLETED, None
    fast = sys.pointwise is not None
    half = 0.5 * dt
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(nsteps):
            base = zero_idx + j
            t = times[base]
            y = values[base]
            filled = base + 1
            if fast:
                pw = sys.pointwise
                if delay > 0:
                    xd1 = _interp_row(times, values, t - delay)
                    xdm = _interp_row(times, values, t + half - delay)
                    xd2 = _interp_row(times, values, t + dt - delay)
                    k1 = pw(y, xd1, u.evaluate(t))
                    k2 = pw(y + half * k1, xdm, u.evaluate(t + half))
                    k3 = pw(y + half * k2, xdm, u.evaluate(t + half))
                    k4 = pw(y + dt * k3, xd2, u.evaluate(t + dt))
                else:
                    y1 = y
                    k1 = pw(y1, y1, u.evaluate(t))
                    y2 = y + half * k1
                    k2 = pw(y2, y2, u.evaluate(t + half))
                    y3 = y + half * k2
                    k3 = pw(y3, y3, u.evaluate(t + half))
                    y4 = y + dt * k3
                    k4 = pw(y4, y4, u.evaluate(t + dt))
            else:
                f = sys.field
                k1 = f(_stage_history(times, values, filled, delay, t, y),
                       u.evaluate(t))
                k2 = f(_stage_history(times, values, filled, delay, t + half,
                                      y + half * k1), u.evaluate(t + half))
                k3 = f(_stage_history(times, values, filled, delay, t + half,
                                      y + half * k2), u.evaluate(t + half))
                k4 = f(_stage_history(times, values, filled, delay, t + dt,
                                      y + dt * k3), u.evaluate(t + dt))
            ynew = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(ynew)) or np.linalg.norm(ynew) > blowup_threshold:
                status = BLEW_UP
                t_escape = float(times[base + 1])
                times = times[:base + 1].copy()
                values = values[:base + 1].copy()
                break
            values[base + 1] = ynew

    times.flags.writeable = False
    values.flags.writeable = False
    return Trajectory(sys, times, values, status, t_escape, x0, u, dt)


def _initial_grid(x0: HistoryFunction, delay: float, dt: float) -> np.ndarray:
    if delay == 0.0:
        return np.array([0.0])
    k = int(round(delay / dt))
    neg = np.linspace(-delay, 0.0, k + 1)
    spacing = delay / k
    tol = _DIV_TOL * max(1.0, delay)
    idx = np.clip(np.round((x0.grid + delay) / spacing).astype(int), 0, k)
    extras = x0.grid[np.abs(x0.grid - neg[idx]) > tol]
    if extras.size == 0:
        return neg
    return np.sort(np.concatenate([neg, extras]))


def _stage_history(times, values, filled, delay, s, ys):
    # history on [s - delay, s]; the final node carries the stage state,
    # bridging the (at most one step wide) gap past the filled segment
    if delay == 0.0:
        return HistoryFunction._trusted(0.0, np.array([0.0]), ys[None, :])
    lo = s - delay
    i0 = int(np.searchsorted(times, lo, side="right"))
    while times[i0] - s <= -delay:
        # a node just past lo can round onto -delay once shifted; dropping
        # it keeps the grid strictly increasing and phi(-delay) = x(lo)
        i0 += 1
    i1 = min(int(np.searchsorted(times, s, side="left")), filled)
    grid = np.empty(i1 - i0 + 2)
    grid[0] = -delay
    grid[1:-1] = times[i0:i1] - s
    grid[-1] = 0.0
    vals = np.empty((i1 - i0 + 2, ys.shape[0]))
    vals[0] = _interp_row(times, values, lo)
    vals[1:-1] = values[i0:i1]
    vals[-1] = ys
    return HistoryFunction._trusted(delay, grid, vals)


def history_at(traj: Trajectory, t: float) -> HistoryFunction:
    """The state x_t of the trajectory, as a history on [-delay, 0]."""
    return histories.window(traj, t)


def history_norm_series(traj: Trajectory):
    """(times, sup-norms): for each grid time t >= 0, the sup of |x|
    over [t - delay, t] of the piecewise-linear dense output."""
    times = traj.times
    mag = np.linalg.norm(traj.values, axis=1)
    delay = traj.delay
    out_idx = np.nonzero(times >= -1e-15)[0]
    norms = np.empty(out_idx.shape[0])
    dq: deque[int] = deque()
    left = 0
    pos = 0
    for i in range(times.shape[0]):
        while dq and mag[dq[-1]] <= mag[i]:
            dq.pop()
        dq.append(i)
        if pos < out_idx.shape[0] and i == out_idx[pos]:
            lo = times[i] - delay
            while times[left] < lo:
                left += 1
            while dq[0] < left:
                dq.popleft()
            peak = mag[dq[0]]
            if left > 0 and times[left] > lo:
                g0 = times[left - 1]
                lam = (lo - g0) / (times[left] - g0)
                edge = (1.0 - lam) * traj.values[left - 1] + lam * traj.values[left]
                peak = max(peak, float(np.linalg.norm(edge)))
            norms[pos] = peak
            pos += 1
    return times[out_idx], norms


def export_csv(traj: Trajectory, path) -> None:
    """Write t, x_1..x_n, |x(t)|, sup|x_t| rows for t >= 0."""
    t_out, norms = history_norm_series(traj)
    sel = np.nonzero(traj.times >= -1e-15)[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x_{i + 1}" for i in range(traj.system.n)]
                        + ["abs_x", "hist_norm"])
        for row, (idx, t) in enumerate(zip(sel, t_out)):
            x = traj.values[idx]
            writer.writerow([f"{t:.17g}"] + [f"{xi:.17g}" for xi in x]
                            + [f"{np.linalg.norm(x):.17g}", f"{norms[row]:.17g}"])
