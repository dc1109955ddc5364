"""Method-of-steps integration of delay systems with dense output.

Fixed-step classical RK4; delayed arguments are read from the already
computed piecewise-linear dense trajectory by the one interpolant of
`histories`.  Requiring dt <= delay/4 (for positive delays) keeps every
delayed read inside the completed segment, so the scheme stays explicit.
Blow-up is a trajectory status, not an exception: experiments
deliberately probe near finite escape.  Inputs are read in one
`InputSignal.evaluate` call per trajectory, at every stage time, also
past a blow-up, so `evaluate` must be a pure function of t.

Systems with a pointwise formula f(x(t), x(t - delay), v) are stepped
in blocks of k or k - 1 steps, k = delay/dt (Bellen & Zennaro, *Numerical
Methods for Delay Differential Equations*, OUP 2003, ch. 3): every
delayed argument a block needs, at t - delay, t + dt/2 - delay and
t + dt - delay for each of its steps, already lies on computed rows
when the block starts, so all of them are read in one vectorised pass.
A block takes k steps where its last delayed read, (t + dt) - delay of
its last step, lies below the time of the block's first row, or on it
with every component of that row nonzero, so that the interpolant on
the computed rows gives that row's own bits; otherwise k - 1 steps,
whose last read lies a step further back, up to rounding.  A formula
system's inputs are kept as contiguous rows, one per input component and
stage; the loop reads them, and a block's delayed reads, through
memoryview slices, converted to no list.  Only the delayed and input
components that a formula's text names are read (a formula without text
reads them all), and an input returned as a stride-0 broadcast, as zero
and constant inputs are, is bound once per block as names.  A zero delay
runs as one block.  A block steps on local Python floats in one loop
template, generated on first use per formula text, dimensions and zero
or positive delay: a built-in formula's text, whose read set and
per-stage renaming come from `systems`, is spliced into each stage, its
parameters bound as names, and any other formula is called on tuples of
components.  The block's rows go through one array('d') buffer into the
trajectory.  Each stage state and update is written out in the
operation order of the vector form, so the states are those NumPy
computes, bit for bit.  Where NumPy would return inf or nan, Python's
`**` and `/` raise instead: an ArithmeticError in a stage makes that
step's state NaN and ends the block.  Blow-up is checked once per block,
and the trajectory is cut at the first bad step: a state that is not
finite or whose norm exceeds the threshold, the norm being the package's
one rule, `histories._norm`, the square root of the squares summed in a
fixed order; the NaN state is cut at the same row, with the same
t_escape, as the non-finite state of the NumPy form.
Systems with only a general `field` are stepped in blocks of one step,
each RK4 stage on its own history, its inputs rows of the one input
array; an ArithmeticError in a stage makes the step's state NaN, as
in a formula's block.

Tables of floats (the trajectory CSV here, the envelope plot data in
`estimate`) are written by one formatter, `_write_table`, with the bytes
of "%.17g" row by row, formatted as arrays.  For 1e-6 <= |x| < 1e17 the
decimal exponent E of x at 17 digits lies in [-6, 16], so 10**(16 - E)
is an exact double, and P = |x| 10**(16 - E) is held exactly as hi + lo
by Dekker's error-free product (Dekker, *Numer. Math.* 18, 1971).  E is
guessed from log10 and corrected until P lies in [1e16, 1e17), where hi
is an even integer (1e16 > 2**53); so hi + rint(lo) is P rounded half to
even, the 17 digits that CPython's correctly rounded dtoa prints.  The
digits, the dot, the "0.000" prefix and the "e-05"/"e-06" exponent of
%g fill fixed slots, NUL where %g prints nothing (trailing zeros, for
one), and one bytes.translate deletes the NULs.  A row holding any other
value (NaN, +-inf, 0 < |x| < 1e-6, |x| >= 1e17) is formatted by % itself.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .histories import HistoryFunction, _edge_tol, _interp_rows, _norm, _window_of_rows
from .systems import DelaySystem, InputSignal, _reads, _splice, zero_input

__all__ = [
    "Trajectory",
    "integrate",
    "history_norm_series",
    "export_csv",
]

COMPLETED = "completed"
BLEW_UP = "blew_up"


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
    finite or has a norm above blowup_threshold; the formula may still be
    evaluated at the rest of that step's block.

    The input is evaluated once, at every stage time of the horizon (t,
    t + dt/2 and t + dt of each step), also past a blow-up.  Until the
    call returns it holds those 3 nsteps stage times and, unless the
    input is a stride-0 broadcast, the 3 nsteps m input values and, for
    a formula, a copy of the components it reads.
    """
    if u is None:
        u = zero_input(sys.m)
    if abs(x0.delay - sys.delay) > _edge_tol(sys.delay):
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
        if abs(k * dt - delay) > _edge_tol(delay):
            raise ValueError(f"dt={dt} must divide the delay {delay}")
        if k < 4:
            raise ValueError("dt must satisfy dt <= delay/4 to keep the "
                             "method of steps explicit")
    nsteps = int(round(horizon / dt))
    if nsteps < 1 or abs(nsteps * dt - horizon) > _edge_tol(horizon):
        raise ValueError(f"dt={dt} must divide the horizon {horizon}")

    neg = _initial_grid(x0, delay, dt)
    times = np.concatenate([neg, dt * np.arange(1, nsteps + 1)])
    values = np.empty((times.shape[0], sys.n))
    values[:neg.shape[0]] = x0.eval(neg)
    zero_idx = neg.shape[0] - 1
    tb = times[zero_idx:zero_idx + nsteps]
    # the stage times of every step: t, then t + dt/2, then t + dt
    stages = np.concatenate([tb, tb + 0.5 * dt, tb + dt])

    status, t_escape = COMPLETED, None
    b0 = zero_idx
    with np.errstate(over="ignore", invalid="ignore"):
        v = u.evaluate(stages)
        if sys.pointwise is None:
            blocks = _field_blocks(sys, stages.reshape(3, nsteps),
                                   v.reshape(3, nsteps, sys.m), times, values, b0, dt)
        else:
            blocks = _pointwise_blocks(_stepper(sys), delay, k if delay > 0 else nsteps,
                                       stages.reshape(3, nsteps), v, times, values, b0, dt)
        for m in blocks:
            bad = _first_bad(values[b0 + 1:b0 + 1 + m], blowup_threshold)
            if bad is not None:
                status = BLEW_UP
                t_escape = float(times[b0 + bad + 1])
                times = times[:b0 + bad + 1].copy()
                values = values[:b0 + bad + 1].copy()
                break
            b0 += m

    times.flags.writeable = False
    values.flags.writeable = False
    return Trajectory(sys, times, values, status, t_escape, x0, u, dt)


def _pointwise_blocks(stepper, delay, k, stages, v, times, values, b0, dt):
    # RK4 steps of the formula f(x, x_delayed, v) from row b0, given the
    # stage times (3, nsteps) of every step and the inputs v at them, in
    # blocks of at most k steps, yielding each block's step count once its
    # rows are written.  A block's delayed reads are taken first, from the
    # rows up to b0.  Its last read, (t + dt) - delay of its last step, lies
    # on row b0's time after k steps and on the node before it after
    # k - 1, up to rounding: k steps are taken where that read lies below
    # row b0's time, or on it with every component of row b0 nonzero, so
    # that the read's 0.0 x[b0 - 1] + 1.0 x[b0] has the bits of x[b0];
    # otherwise k - 1, and a read rounding just past its node never needs
    # a row not yet computed.
    varying, fixed, delayed, inputs = stepper
    nsteps = stages.shape[1]
    n = values.shape[1]
    if v.strides[0] == 0:
        # a stride-0 broadcast holds one row for every stage time
        step, v, held = fixed, v[0].tolist(), []
    else:
        # one row per input component and stage, handed to the loop as
        # memoryview slices, which zip reads as it reads lists
        step, rows = varying, memoryview(v.T[inputs].ravel())
        held = range(0, 3 * len(inputs) * nsteps, nsteps)
    lags = stages - delay if delay > 0 else None
    half, sixth = 0.5 * dt, dt / 6.0
    j = 0
    while j < nsteps:
        m = min(k, nsteps - j)
        y = values[b0].tolist()
        if m == k and lags is not None:
            last, t0 = lags[2, j + k - 1], times[b0]
            if not (last < t0 or (last == t0 and all(y))):
                m -= 1
        cols = []
        if delayed:
            past = values[:b0 + 1].T[delayed, :, None]
            reads = memoryview(_interp_rows(times[:b0 + 1], past,
                                            lags[:, j:j + m].ravel()).ravel())
            # each component at t, at t + dt/2 and at t + dt
            cols = [reads[i:i + m] for i in range(0, 3 * m * len(delayed), m)]
        cols += [rows[i + j:i + j + m] for i in held]
        out = step(y, cols, v, m, half, dt, sixth)
        values[b0 + 1:b0 + 1 + len(out) // n] = np.frombuffer(out).reshape(-1, n)
        yield m
        j += m
        b0 += m


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
    delayed = _reads(text, "xd") if lagged else []
    inputs = _reads(text, "v")

    def stage(x, at, k, fixed):
        names = {"x": x, "xd": f"d{at}_" if lagged else x,
                 "v": "u" if fixed else f"v{at}_", "f": k}
        return "".join(f"\n            {line}" for line in _splice(text, names).splitlines())

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


def _field_blocks(sys, stages, v, times, values, b0, dt):
    # RK4 steps of the general field from row b0, one per block: a field
    # may read the whole history, so no row past a blow-up may enter one.
    # Step j reads its inputs at its stage times stages[:, j] as v[:, j],
    # and takes each stage on its own history whose final node carries the
    # stage state, bridging the one step wide gap past the filled rows; an
    # ArithmeticError in a stage makes the state NaN, as in the formula loop
    half, sixth = 0.5 * dt, dt / 6.0

    def stage(s, state, v):
        return sys.field(_window_of_rows(times, values, sys.delay, s, b0 + 1, state), v)

    for (t, tm, t2), (v1, vm, v2) in zip(stages.T, v.swapaxes(0, 1)):
        y = values[b0]
        try:
            k1 = stage(t, y, v1)
            k2 = stage(tm, y + half * k1, vm)
            k3 = stage(tm, y + half * k2, vm)
            k4 = stage(t2, y + dt * k3, v2)
            values[b0 + 1] = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        except ArithmeticError:
            values[b0 + 1] = np.nan
        yield 1
        b0 += 1


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
    tol = _edge_tol(delay)
    idx = np.minimum(np.maximum(np.round((x0.grid + delay) / spacing).astype(int), 0), k)
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
    doubling j (a sparse table, one level at a time).  Only the levels
    that hold windows are read."""
    level = np.frexp(hi - lo + 1)[1] - 1
    held = np.bincount(level).tolist()
    out = np.empty(lo.shape[0])
    table = a
    for j, count in enumerate(held):
        if count:
            k = np.flatnonzero(level == j)
            out[k] = np.maximum(table[lo[k]], table[hi[k] + 1 - (1 << j)])
        if j + 1 < len(held):
            table = np.maximum(table[:-(1 << j)], table[1 << j:])
    return out


# _write_table's rows per chunk: a chunk of 3 columns peaks at about
# 0.2 MB of arrays; 1 024 rows wrote the envelope benchmark's data 15-20%
# faster, and took 0.2 MB more
_WRITE_ROWS = 512
# 10**k is a double for k <= 22, and so are its Veltkamp halves, split
# here once by 2**27 + 1
_POW10 = np.array([float(10 ** k) for k in range(23)])
_SPLIT = 134217729.0
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_WORD = np.dtype("<u8")


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


@lru_cache(maxsize=None)
def _digit_table():
    """By 4-digit group g: its four ASCII digits in the low half of a
    word, and in byte 4 + i, for g != 0, the length up to g's last nonzero
    digit of a 17-digit string whose group i (digits 4i..4i+3) is g.
    Built on first use from byte strings, which page in no NumPy kernel
    and need no temporary the size of the table."""
    table = np.zeros(10000, _WORD)
    column = table.view(np.uint8).reshape(10000, 8)
    # the lengths of the 0-digit string, then of every (i + 1)-digit one:
    # 10 h + d has length i + 1 if d != 0, else that of h
    length = b"\0"
    for i in range(4):
        run = 10 ** (3 - i)
        column[:, i] = np.frombuffer(
            b"".join(bytes([48 + d]) * run for d in range(10)) * 10 ** i, np.uint8)
        length = b"".join(bytes([n, i + 1]) + bytes([i + 1]) * 8 for n in length)
    for i in range(4):
        shift = bytes([0, *range(4 * i + 1, 4 * i + 5)]).ljust(256, b"\0")
        column[:, 4 + i] = np.frombuffer(length.translate(shift), np.uint8)
    return table


@lru_cache(maxsize=None)
def _dot_masks():
    """By p * 18 + s, for words 1..3 of a slot: the bytes [0, min(p, s))
    kept from the digit string, the bytes [p + 1, s] kept from it shifted
    one byte up, and '.' at byte p if s > p.  p = 17 puts no dot.  Built
    on first use, as _digit_table is."""
    masks = []
    for p in range(18):
        for s in range(18):
            after = s > p
            masks += [(1 << 8 * min(p, s)) - 1,
                      after * ((1 << 8 * s + 8) - (1 << 8 * p + 8)),
                      after * 46 << 8 * p]
    words = np.frombuffer(b"".join(m.to_bytes(24, "little") for m in masks), _WORD)
    return words.reshape(324, 3, 3).transpose(1, 2, 0).copy()


# by E + 6, E the decimal exponent in [-6, 16]: p * 18, p the dot's byte
# (after the integer digits, after the first digit in exponent notation,
# none in 0.000ddd); word 0 for x >= 0 and for x < 0 (the sign, and
# "0." plus -1 - E zeros); and the exponent, from byte 2 of word 3
_E = range(-6, 17)
_DOT_AT = np.array([e + 1 if e >= 0 else 1 if e < -4 else 17 for e in _E]) * 18
_HEAD = np.array([_word(sign + (b"0.000"[:1 - e] if -4 <= e < 0 else b""))
                  for e in _E for sign in (b"", b"-")], dtype=_WORD)
_EXPONENT = np.array([_word(b"\0\0" + (b"e-%02d" % -e if e < -4 else b""))
                      for e in _E], dtype=_WORD)
del _E


def _scaled(a, e):
    """hi + lo = a * 10**(16 - e) exactly, for 0 <= 16 - e <= 22 and
    1e-6 <= a < 1e17: Dekker's TwoProduct on a Veltkamp split of a,
    lo = al bl - (((hi - ah bh) - al bh) - ah bl), each operation one
    binary64 ufunc, in place where it can be."""
    k = 16 - e
    hi = a * _POW10.take(k)
    bh = _POW10_HI.take(k)
    bl = _POW10_LO.take(k)
    del k
    ah = a * _SPLIT
    ah -= ah - a
    al = a - ah
    lo = ah * bh
    np.subtract(hi, lo, out=lo)
    lo -= al * bh
    lo -= ah * bl
    np.subtract(al * bl, lo, out=lo)
    return hi, lo


def _outside(hi, lo):
    """Whether P = hi + lo lies outside [1e16, 1e17): hi is P rounded and
    |lo| at most half the spacing of doubles at hi, so each sum has the
    sign of P less the bound."""
    return ((hi - 1e16) + lo < 0.0) | ((hi - 1e17) + lo >= 0.0)


def _slots(x, tail):
    """The "%.17g" text of each value of x (N,) in words (4, N) of 8
    bytes, NUL for every absent byte: word 0 holds the sign and the 0.000
    prefix, words 1-3 the 17 digits with the dot put in, then from byte 2
    of word 3 the e-05 or e-06 exponent, and tail (cols,) is OR-ed into
    word 3 of each run of cols values.  Also which values the text is
    right for: +-0 and 1e-6 <= |x| < 1e17."""
    a = np.abs(x)
    # as doubles: the double nearest 1e-6 lies below 10**-6
    fast = (a > 1e-6) & (a < 1e17)
    zero = a == 0.0
    a[~fast] = 1.0
    # E, the decimal exponent of x at 17 digits, is guessed by log10 and
    # corrected until P = |x| 10**(16 - E), taken exactly, lies in
    # [1e16, 1e17)
    e = np.floor(np.log10(a)).astype(np.int64)
    np.minimum(np.maximum(e, -6, out=e), 16, out=e)
    hi, lo = _scaled(a, e)
    moved = _outside(hi, lo).nonzero()[0]
    while moved.size:
        e[moved] += np.where(hi[moved] >= 1e17, 1, -1)
        h, l = _scaled(a[moved], e[moved])
        hi[moved], lo[moved] = h, l
        moved = moved[_outside(h, l)]
    # hi >= 1e16 > 2**53 is an even integer, so d is P rounded half to
    # even, the 17 digits of CPython's correctly rounded dtoa.  It never
    # carries to 1e17: that takes |x| within 5e-18 relative below a power
    # of ten, and no double lies there from 1e-5 to 1e17
    d = hi.astype(np.int64)
    d += np.rint(lo).astype(np.int64)
    del a, hi, lo
    d[zero] = 0
    e[zero] = 0
    fast |= zero
    # the digits in groups 4, 4, 4, 4 and 1; the ASCII of each group of 4
    # from _digit_table, and the last digit's by adding '0'
    top = d // 10 ** 9
    d -= top * 10 ** 9
    rest = d // 10
    d -= rest * 10
    groups = np.empty((4, x.shape[0]), np.int64)
    np.floor_divide(top, 10 ** 4, out=groups[0])
    np.subtract(top, groups[0] * 10 ** 4, out=groups[1])
    np.floor_divide(rest, 10 ** 4, out=groups[2])
    np.subtract(rest, groups[2] * 10 ** 4, out=groups[3])
    quads = _digit_table().take(groups)
    del top, rest, groups
    words = np.empty((4, x.shape[0]), _WORD)
    digits = words[1:4]
    np.bitwise_and(quads[0::2], 0xFFFFFFFF, out=digits[:2])
    digits[:2] |= quads[1::2] << 32
    np.add(d, 48, out=digits[2].view(np.int64))
    # s, the digits shown: up to the last nonzero one (byte 4 + i of group
    # i's word, or all 17), and at least the integer digits.  Here and for
    # the sign below, words and int64 only: a cast from uint8 or bool pages
    # in one more block of NumPy's code, 64 kB of peak RSS each
    for i in range(4):
        quads[i] >>= 32 + 8 * i
    quads &= 0xFF
    s = quads.max(axis=0).view(np.int64)
    del quads
    s[d != 0] = 17
    e += 6
    np.maximum(s, e - 5, out=s)
    # the dot at byte p: digits before it as they are, digits after it
    # one byte up
    at = _DOT_AT.take(e) + s
    shifted = digits << 8
    shifted[1:] |= digits[:2] >> 56
    keep, after, dot = _dot_masks()
    digits &= keep.take(at, axis=1)
    shifted &= after.take(at, axis=1)
    digits |= shifted
    digits |= dot.take(at, axis=1)
    # + 1 where the sign bit is set: x < 0 and -0.0
    words[0] = _HEAD.take(2 * e - (x.view(np.int64) >> 63))
    words[3] |= _EXPONENT.take(e)
    words[3].reshape(-1, tail.shape[0])[...] |= tail
    return words, fast


def _write_table(fh, table, sep: str, end: str) -> None:
    """Write the float64 table (rows, cols >= 1) to the binary file fh:
    the bytes of (sep.join(["%.17g"] * cols) + end) % tuple(row), row by
    row, for sep and end of at most 2 bytes and without a NUL.

    Chunks of _WRITE_ROWS rows are formatted as arrays by _slots and
    compacted by one bytes.translate that deletes their NUL bytes.  A row
    holding a value that _slots leaves out (NaN, +-inf, 0 < |x| < 1e-6,
    |x| >= 1e17) is formatted by that % and spliced in in its place."""
    rows, cols = table.shape
    line = sep.join(["%.17g"] * cols) + end
    marks = [sep.encode()] * (cols - 1) + [end.encode()]
    if max(map(len, marks)) > 2:
        raise ValueError("sep and end must hold at most 2 bytes")
    # each value's separator, in bytes 6 and 7 of its word 3
    tail = np.frombuffer(b"".join((b"\0" * 6 + m).ljust(8, b"\0") for m in marks), _WORD)
    row_bytes = cols * 32
    for start in range(0, rows, _WRITE_ROWS):
        chunk = table[start:start + _WRITE_ROWS]
        words, fast = _slots(chunk.ravel(), tail)
        text = words.T.tobytes()
        del words
        slow = np.flatnonzero(~fast.reshape(-1, cols).all(axis=1)).tolist()
        if slow:
            parts = []
            done = 0
            for i in slow:
                parts += [text[done * row_bytes:i * row_bytes],
                          (line % tuple(chunk[i].tolist())).encode()]
                done = i + 1
            parts.append(text[done * row_bytes:])
            text = b"".join(parts)
        fh.write(text.translate(None, b"\0"))


def export_csv(traj: Trajectory, path) -> None:
    """Write t, x_1..x_n, |x(t)|, sup|x_t| rows for t >= 0.  |x(t)| is
    the node norm history_norm_series takes, so |x(t)| <= sup|x_t|
    holds exactly on every row.  The values are written by _write_table,
    as "%.17g" joined by "," with "\r\n" after each row."""
    t_out, norms = history_norm_series(traj)
    xs = traj.values[traj.start:]
    header = ["t", *(f"x_{i + 1}" for i in range(traj.system.n)), "abs_x", "hist_norm"]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        _write_table(fh, np.column_stack([t_out, xs, _norm(xs), norms]), ",", "\r\n")
