"""Method-of-steps integration of delay systems with dense output.

Fixed-step classical RK4; delayed arguments are read from the already
computed piecewise-linear dense trajectory by the one interpolant of
`histories`.  Requiring dt <= delay/4 (for positive delays) keeps every
delayed read inside the completed segment, so the scheme stays explicit.
Blow-up is a trajectory status, not an exception: experiments
deliberately probe near finite escape.

Systems with a pointwise formula f(x(t), x(t - delay), v) are stepped
in blocks of k - 1 steps, k = delay/dt (Bellen & Zennaro, *Numerical
Methods for Delay Differential Equations*, OUP 2003, ch. 3): every
delayed argument a block needs, at t - delay, t + dt/2 - delay and
t + dt - delay for each of its steps, already lies on computed rows
when the block starts, so all of them are read in one vectorised pass,
and its inputs in one `InputSignal.evaluate` call on the array of its
stage times.  A zero delay runs as one block.  A block steps on Python
floats, in a loop generated on first use for each state dimension n:
the components are local floats, the formula receives lists and tuples
of them and returns a sequence of n, and each stage state and update is
written out in the operation order of the vector form, so the states
are those NumPy computes, bit for bit.  Where NumPy would return inf or
nan, Python's `**` and `/` raise instead: an ArithmeticError in a formula
call makes that step's state NaN and ends the block.  Blow-up is
checked once per block, and the trajectory is cut at the first bad
step: a state that is not finite or whose norm (np.linalg.norm of that
state alone) exceeds the threshold; the NaN state is cut at the same
row, with the same t_escape, as the non-finite state of the NumPy form.
Systems with only a general `field` are stepped one at a time, each RK4
stage on its own history.  The input is read at every stage time of a
block, also past a blow-up in it, so `InputSignal.evaluate` must be a
pure function of t.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .histories import HistoryFunction, _interp_rows, _norm, _window_of_rows
from .systems import DelaySystem, InputSignal, zero_input

__all__ = [
    "Trajectory",
    "integrate",
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

    @property
    def start(self) -> int:
        """Index of the t = 0 row; every row before it has t < 0."""
        return int(np.searchsorted(self.times, 0.0))


def integrate(sys: DelaySystem, x0: HistoryFunction, u: InputSignal | None,
              horizon: float, dt: float,
              blowup_threshold: float = 1e9) -> Trajectory:
    """Integrate dx/dt = f(x_t, u(t)) from the initial history x0.

    Preconditions: x0.delay == sys.delay, dt > 0, dt divides both the
    delay (with dt <= delay/4 when the delay is positive) and the
    horizon.  The trajectory stops at the first step whose state is not
    finite or has a norm above blowup_threshold; the formula and the
    input may still be evaluated at the rest of that step's block.
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
    end = zero_idx + nsteps

    if sys.pointwise is None:
        # a field may read the whole history, so no row past a blow-up
        # may enter one: blocks of one step
        span = 1
        run_block = _field_block
    else:
        span = nsteps if delay == 0.0 else k - 1
        run_block = _pointwise_block
    status, t_escape = COMPLETED, None
    with np.errstate(over="ignore", invalid="ignore"):
        for b0 in range(zero_idx, end, span):
            m = min(span, end - b0)
            run_block(sys, u, times, values, b0, m, dt)
            bad = _first_bad(values[b0 + 1:b0 + 1 + m], blowup_threshold)
            if bad is not None:
                status = BLEW_UP
                t_escape = float(times[b0 + bad + 1])
                times = times[:b0 + bad + 1].copy()
                values = values[:b0 + bad + 1].copy()
                break

    times.flags.writeable = False
    values.flags.writeable = False
    return Trajectory(sys, times, values, status, t_escape, x0, u, dt)


def _pointwise_block(sys, u, times, values, b0, m, dt):
    # RK4 steps from row b0 to row b0 + m of the formula f(x, x_delayed, v),
    # all delayed arguments and inputs read first, at the 3m stage times.
    # The last delayed read, (t + dt) - delay of the last step, lies on the
    # grid node dt before row b0's time, up to rounding; one step more and
    # a read rounding just past its node would need a row not yet computed.
    half = 0.5 * dt
    tb = times[b0:b0 + m]
    stages = np.concatenate([tb, tb + half, tb + dt])
    lagged = sys.delay > 0.0
    reads = [u.evaluate(stages).T.tolist()]
    if lagged:
        reads.insert(0, _interp_rows(times, values, stages - sys.delay).T.tolist())
    # per step, a tuple of components at t, one at t + dt/2 and one at t + dt
    lanes = [zip(*[c[i * m:(i + 1) * m] for c in cols])
             for cols in reads for i in range(3)]
    rows = np.reshape(_stepper(sys.n, lagged)(
        sys.pointwise, values[b0].tolist(), lanes, half, dt, dt / 6.0), (-1, sys.n))
    values[b0 + 1:b0 + 1 + len(rows)] = rows


@lru_cache(maxsize=None)
def _stepper(n, lagged):
    """The block loop of n components, generated from n and the flag
    alone, on local floats y0, y1, ... and stages a, b, c and d."""
    def each(form):
        return "".join(form.format(j=j) + ", " for j in range(n))

    def stage(h, k):
        return "s := [" + each(f"y{{j}} + {h} * {k}{{j}}") + "]"

    y = each("y{j}")
    x1, xm, x2 = ("x1", "xm", "x2") if lagged else ("y", "s", "s")
    source = f"""
def step(pw, y, lanes, half, dt, sixth):
    {y}= y
    rows = []
    for {"x1, xm, x2, " if lagged else ""}v1, vm, v2 in zip(*lanes):
        try:
            {each("a{j}")}= pw(y, {x1}, v1)
            {each("b{j}")}= pw({stage("half", "a")}, {xm}, vm)
            {each("c{j}")}= pw({stage("half", "b")}, {xm}, vm)
            {each("d{j}")}= pw({stage("dt", "c")}, {x2}, v2)
        except ArithmeticError:
            rows += [float("nan")] * {n}
            break
        {y}= {each("y{j} + sixth * (a{j} + 2.0 * b{j} + 2.0 * c{j} + d{j})")}
        y = [{y}]
        rows += y
    return rows
"""
    exec(compile(source, f"<rk4 stepper n={n} lagged={lagged}>", "exec"),
         namespace := {})
    return namespace["step"]


def _field_block(sys, u, times, values, b0, m, dt):
    # RK4 steps of the general field, each stage on its own history whose
    # final node carries the stage state, bridging the (at most one step
    # wide) gap past the filled rows
    f = sys.field
    delay = sys.delay
    half = 0.5 * dt
    for base in range(b0, b0 + m):
        t = times[base]
        y = values[base]
        filled = base + 1
        k1 = f(_window_of_rows(times, values, delay, t, filled, y),
               u.evaluate(t))
        k2 = f(_window_of_rows(times, values, delay, t + half, filled,
                               y + half * k1), u.evaluate(t + half))
        k3 = f(_window_of_rows(times, values, delay, t + half, filled,
                               y + half * k2), u.evaluate(t + half))
        k4 = f(_window_of_rows(times, values, delay, t + dt, filled,
                               y + dt * k3), u.evaluate(t + dt))
        values[base + 1] = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _first_bad(rows, threshold):
    """Index of the first row that is not finite or whose norm, as
    np.linalg.norm computes it for that row alone, exceeds threshold;
    None if none."""
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1) | (_norm(rows) > threshold))
    return int(bad[0]) if bad.size else None


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


def history_norm_series(traj: Trajectory):
    """(times, sup-norms): for each grid time t >= 0, the sup of |x|
    over [t - delay, t] of the piecewise-linear dense output: the largest
    node norm in the window, or the norm at its interpolated left edge."""
    times = traj.times
    values = traj.values
    out_idx = np.arange(traj.start, times.shape[0])
    lo = times[out_idx] - traj.delay
    left = np.searchsorted(times, lo, side="left")
    norms = _window_max(np.linalg.norm(values, axis=1), left, out_idx)
    cut = np.flatnonzero((left > 0) & (times[left] > lo))
    norms[cut] = np.maximum(norms[cut], _norm(_interp_rows(times, values, lo[cut])))
    return times[out_idx], norms


def _window_max(a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(a[lo[k]:hi[k] + 1]) for each k, lo <= hi: each window is
    covered by two spans of 2^j entries, whose maxima are built by
    doubling j (a sparse table, one level at a time)."""
    level = np.frexp(hi - lo + 1)[1] - 1
    out = np.empty(lo.shape[0])
    table = a
    for j in range(int(level.max()) + 1):
        k = np.flatnonzero(level == j)
        out[k] = np.maximum(table[lo[k]], table[hi[k] + 1 - (1 << j)])
        table = np.maximum(table[:-(1 << j)], table[1 << j:])
    return out


def export_csv(traj: Trajectory, path) -> None:
    """Write t, x_1..x_n, |x(t)|, sup|x_t| rows for t >= 0.  |x(t)| is
    the node norm history_norm_series takes, so |x(t)| <= sup|x_t|
    holds exactly on every row."""
    t_out, norms = history_norm_series(traj)
    xs = traj.values[traj.start:]
    abs_x = np.linalg.norm(xs, axis=1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x_{i + 1}" for i in range(traj.system.n)]
                        + ["abs_x", "hist_norm"])
        for t, x, a, s in zip(t_out, xs, abs_x, norms):
            writer.writerow([f"{t:.17g}"] + [f"{xi:.17g}" for xi in x]
                            + [f"{a:.17g}", f"{s:.17g}"])
