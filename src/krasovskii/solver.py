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
stage times.  Only the delayed and input components that a formula's
text names are read and converted (a formula without text reads them
all), and an input returned as a stride-0 broadcast, as zero and
constant inputs are, is bound once per block as names.  A zero delay
runs as one block.  A block steps on local Python floats in one loop
template, generated on first use per formula text, dimensions and zero
or positive delay: a built-in formula's text is spliced into each stage,
its parameters bound as names, and any other formula is called on tuples
of components.  The block's rows go through one array('d') buffer into
the trajectory.  Each stage state and update
is written out in the operation order of the vector form, so the states
are those NumPy computes, bit for bit.  Where NumPy would return inf or
nan, Python's `**` and `/` raise instead: an ArithmeticError in a stage
makes that step's state NaN and ends the block.  Blow-up is
checked once per block, and the trajectory is cut at the first bad
step: a state that is not finite or whose norm exceeds the threshold,
the norm being the package's one rule, `histories._norm`, the square
root of the squares summed in a fixed order; the NaN state is cut at
the same row, with the same t_escape, as the non-finite state of the
NumPy form.
Systems with only a general `field` are stepped one at a time, each RK4
stage on its own history.  The input is read at every stage time of a
block, also past a blow-up in it, so `InputSignal.evaluate` must be a
pure function of t.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from functools import lru_cache, partial
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
        run_block = partial(_field_block, sys)
    else:
        span = nsteps if delay == 0.0 else k - 1
        run_block = partial(_pointwise_block, _stepper(sys), delay)
    status, t_escape = COMPLETED, None
    with np.errstate(over="ignore", invalid="ignore"):
        for b0 in range(zero_idx, end, span):
            m = min(span, end - b0)
            run_block(u, times, values, b0, m, dt)
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


def _pointwise_block(stepper, delay, u, times, values, b0, m, dt):
    # RK4 steps from row b0 to row b0 + m of the formula f(x, x_delayed, v),
    # the delayed arguments and inputs it reads taken first, at the 3m
    # stage times.  The last delayed read, (t + dt) - delay of the last
    # step, lies on the grid node dt before row b0's time, up to rounding;
    # one step more and a read rounding just past its node would need a
    # row not yet computed.
    varying, fixed, delayed, inputs = stepper
    half = 0.5 * dt
    tb = times[b0:b0 + m]
    stages = np.concatenate([tb, tb + half, tb + dt])
    v = u.evaluate(stages)
    if v.strides[0] == 0:
        # a stride-0 broadcast holds one row for every stage time
        step, v, reads = fixed, v[0].tolist(), []
    else:
        step, reads = varying, v.T[inputs].tolist()
    if delayed:
        past = values[:b0 + 1].T[delayed, :, None]
        reads = _interp_rows(times[:b0 + 1], past, stages - delay).reshape(
            len(delayed), -1).tolist() + reads
    # each column at t, at t + dt/2 and at t + dt
    cols = [c[i * m:(i + 1) * m] for c in reads for i in range(3)]
    n = values.shape[1]
    rows = step(values[b0].tolist(), cols, v, m, half, dt, dt / 6.0)
    values[b0 + 1:b0 + 1 + len(rows) // n] = np.frombuffer(rows).reshape(-1, n)


def _stepper(sys):
    """The block loops of sys's formula, for a varying and for a constant
    input, and the delayed and input components it reads: its text
    spliced into each stage, or, for a formula without text, a call of
    it, which reads every component."""
    pw = sys.pointwise
    text = getattr(pw, "text", None)
    namespace = {"pw": pw} if text is None else dict(pw.params)
    if text is None:
        text = (f"{_each('f{j}', range(sys.n))}= pw(({_each('x{j}', range(sys.n))}), "
                f"({_each('xd{j}', range(sys.n))}), ({_each('v{j}', range(sys.m))}))")
    code, delayed, inputs = _loop(text, sys.n, sys.m, sys.delay > 0.0)
    namespace["array"] = array
    exec(code, namespace)
    return namespace["varying"], namespace["fixed"], delayed, inputs


def _each(form, indices):
    return "".join(form.format(j=j) + ", " for j in indices)


@lru_cache(maxsize=None)
def _loop(text, n, m, lagged):
    """The block loops of a formula text, compiled, and the delayed and
    input components the text reads.  `varying` reads each input at t,
    t + dt/2 and t + dt from its columns; `fixed` binds a constant
    input's components once.  Their locals, which a text's own names
    must not be: the state y0, ..., stage state s0, ..., delayed reads
    d1_0, dm_0, d2_0, ... and inputs v1_0, vm_0, v2_0, ... at t, t + dt/2
    and t + dt, constant inputs u0, ..., and stages k1_0, ..., k4_0, ...."""
    delayed = sorted({int(j) for j in re.findall(r"\bxd(\d+)\b", text)} if lagged else ())
    inputs = sorted({int(j) for j in re.findall(r"\bv(\d+)\b", text)})

    def stage(x, at, k, fixed):
        names = {"x": x, "xd": f"d{at}_" if lagged else x,
                 "v": "u" if fixed else f"v{at}_", "f": k}
        spliced = re.sub(r"\b(xd|x|v|f)(\d+)\b", lambda g: names[g[1]] + g[2], text)
        return "".join(f"\n            {line}" for line in spliced.splitlines())

    def state(h, k):
        return "".join(f"\n            s{j} = y{j} + {h} * {k}{j}" for j in range(n))

    y = _each("y{j}", range(n))
    update = _each("y{j} + sixth * (k1_{j} + 2.0 * k2_{j} + 2.0 * k3_{j} + k4_{j})", range(n))
    pushes = "".join(f"\n        push(y{j})" for j in range(n))

    def source(name, fixed):
        reads = _each("d1_{j}, dm_{j}, d2_{j}", delayed) + (
            "" if fixed else _each("v1_{j}, vm_{j}, v2_{j}", inputs))
        stages = (stage("y", 1, "k1_", fixed) + state("half", "k1_")
                  + stage("s", "m", "k2_", fixed) + state("half", "k2_")
                  + stage("s", "m", "k3_", fixed) + state("dt", "k3_")
                  + stage("s", 2, "k4_", fixed))
        binds = f"\n    {_each('u{j}', range(m))}= u" if fixed else ""
        return f"""
def {name}(y, cols, u, count, half, dt, sixth):
    {y}= y{binds}
    rows = array("d")
    push = rows.append
    for {f"{reads}in zip(*cols)" if reads else "_ in range(count)"}:
        try:{stages}
        except ArithmeticError:
            rows.extend([float("nan")] * {n})
            break
        {y}= {update}{pushes}
    return rows
"""
    code = compile(source("varying", False) + source("fixed", True),
                   f"<rk4 stepper n={n} lagged={lagged}>", "exec")
    return code, delayed, inputs


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
    """Index of the first row that is not finite or whose norm, by the
    one norm rule `histories._norm`, exceeds threshold; None if none."""
    if threshold < math.inf:
        # a row holding nan or inf has no norm <= threshold
        bad = np.flatnonzero(~(_norm(rows) <= threshold))
    else:
        # no norm exceeds an infinite threshold
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
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
    norms = _window_max(_norm(values), left, out_idx)
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
    abs_x = _norm(xs)
    header = ["t", *(f"x_{i + 1}" for i in range(traj.system.n)), "abs_x", "hist_norm"]
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    table = np.column_stack([t_out, xs, abs_x, norms]).tolist()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row % tuple(r) for r in table)
