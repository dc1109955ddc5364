"""History functions: the state objects of time-delay systems.

A history is a curve phi on [-delay, 0] with values in R^n, stored as
samples on a strictly increasing grid and interpolated piecewise
linearly between them, the one rule every exact computation of the
package assumes, computed by the one kernel `_interp_rows`.  The sup
norm is the supremum of the Euclidean norm |phi(tau)| over the window;
it is attained at a grid node, so it is computed exactly.  Every norm of
the package is `_norm`, summed in one fixed order, so no norm depends
on its batch or on the BLAS kernel.

The module also provides `driver_extension`, the package's one rule for
the two-branch extension behind the finite-step quotients of upper
right-hand derivatives: for a step h in [0, delay) and a direction w,
it shifts one history left by h and continues it with slope w on [-h, 0].

Every random stream of the package is NumPy's own: the generator that
`np.random.default_rng(key)` builds from its seed key, one per key and
local to its caller, so streams share no state.  The keys the package
builds come from `stream_key`, the seed, a nonzero stream tag and an
index, so no two of its streams coincide.  Every seeded family of random
histories draws from the one strata table, NORM_SCALES x MODE_CHOICES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_DEDUPE_REL = 1e-12
_EDGE_REL = 1e-9

# the strata of every seeded family of random histories (the sampler,
# the validate probes, seeded_history_sampler): sup norms and mode counts
NORM_SCALES = (0.1, 1.0, 10.0)
MODE_CHOICES = (0, 2, 8)

# the tag of each random stream the package draws, nonzero and distinct.
# SeedSequence pads a key with zeros, so (s,), (s, 0) and (s, 0, 0) are
# one generator; keys of stream_key's one length, the tag second, are one
# generator only when seed, tag and index agree.  A stream with one
# generator per item appends index i to (seed, tag): stream_key(seed, tag, i)
HISTORY_STREAM = 1      # the CLI's random history, index 0
NOISE_STREAM = 2        # the CLI's noise input, one index per segment
SAMPLER_STREAM = 3      # FalsificationSampler, one index per page
ENSEMBLE_STREAM = 4     # the CLI's envelope ensemble, one per history
CONTRACTION_STREAM = 5  # empirical_two_inequality's histories
GAIN_STREAM = 6         # fit_iss_gain's histories
PROBE_STREAM = 7        # UncertaintyPair.validate's probes, seed 0

__all__ = [
    "HistoryFunction",
    "constant_history",
    "zero_history",
    "random_history",
    "driver_extension",
]


def _edge_tol(delay: float) -> float:
    return _EDGE_REL * max(1.0, delay)


@dataclass(frozen=True)
class HistoryFunction:
    """Sampled curve on [-delay, 0], piecewise linear between its nodes.

    Immutable after construction: the grid and values arrays are
    read-only, and histories may share one grid.
    """

    delay: float
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if self.delay < 0:
            raise ValueError("delay must be nonnegative")
        if grid.ndim != 1 or values.ndim != 2 or values.shape[0] != grid.shape[0]:
            raise ValueError("grid must be (m,), values (m, n) with matching m")
        if self.delay == 0.0:
            if grid.shape[0] != 1 or grid[0] != 0.0:
                raise ValueError("zero-delay history must have the single node 0")
        else:
            if grid.shape[0] < 2 or np.any(np.diff(grid) <= 0):
                raise ValueError("grid must be strictly increasing")
            if grid[0] != -self.delay or grid[-1] != 0.0:
                raise ValueError("grid must span exactly [-delay, 0]")
        if not np.all(np.isfinite(values)):
            raise ValueError("history values must be finite")
        grid.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @classmethod
    def _trusted(cls, delay, grid, values):
        # Hot-path constructor for solver-internal grids; skips validation.
        obj = object.__new__(cls)
        object.__setattr__(obj, "delay", float(delay))
        object.__setattr__(obj, "grid", grid)
        object.__setattr__(obj, "values", values)
        return obj

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def eval(self, tau):
        """Value at tau in [-delay, 0]; exact at grid nodes.

        Accepts a scalar or a 1-d array of query points.
        """
        return _eval_on_grid(self.delay, self.grid, self.values, tau)

    def sup_norm(self) -> float:
        """sup of |phi(tau)| over [-delay, 0], exact: the Euclidean norm
        along a linear segment is convex, so it peaks at an endpoint."""
        return float(np.max(_norm(self.values)))


def constant_history(delay: float, value) -> HistoryFunction:
    value = np.atleast_1d(np.asarray(value, dtype=float))
    if delay == 0.0:
        return HistoryFunction(0.0, np.array([0.0]), value[None, :])
    grid = np.array([-delay, 0.0])
    return HistoryFunction(delay, grid, np.vstack([value, value]))


def zero_history(delay: float, n: int) -> HistoryFunction:
    return constant_history(delay, np.zeros(n))


def random_history(seed, n: int, delay: float, norm_bound: float,
                   modes: int) -> HistoryFunction:
    """Deterministic-in-seed random history.

    A random constant plus `modes` random Fourier modes on [-delay, 0],
    rescaled so the sup norm equals norm_bound (or the zero history for
    norm_bound = 0).  `seed` may be an int or a tuple of ints, the key of
    the history's generator np.random.default_rng(seed); the same seed
    always yields a bitwise-identical history.
    """
    if not 0 <= norm_bound < math.inf:
        raise ValueError("norm_bound must be finite and >= 0")
    if modes < 0:
        raise ValueError("modes must be >= 0")
    rng = np.random.default_rng(seed)
    # the constant, then each mode's cosine and sine amplitudes, drawn in
    # the order of one vector at a time
    draws = rng.standard_normal((1, 1 + 2 * modes, n))
    grid, values = _fourier_histories(draws, delay, np.array([norm_bound]))
    # valid by construction, and the grid is shared by every random
    # history with the same delay and mode count
    return HistoryFunction._trusted(delay, grid, values[0])


def stream_key(seed: int, tag: int, index: int = 0) -> tuple:
    """The seed key (seed, tag, index) of item `index` of the stream
    `tag` under `seed`: every key the package builds has this length."""
    return (seed, tag, index)


def _fourier_histories(draws: np.ndarray, delay: float, norm_bounds: np.ndarray):
    """The shared grid and the read-only values (B, len(grid), n) of the
    random histories with the amplitudes `draws` (B, 1 + 2 modes, n):
    row 0 the constant, then each mode's cosine and sine amplitudes.
    History b is rescaled so its sup norm equals norm_bounds[b], or is
    zero when that bound or its peak is.  At zero delay a history is its
    constant alone.

    Each history's terms are added one after another, constant first,
    so its values do not depend on the batch it is drawn in.
    """
    if not delay >= 0:
        raise ValueError("delay must be nonnegative")
    batch, rows, n = draws.shape
    if delay == 0.0:
        grid, values = _ZERO_GRID, draws[:, :1].copy()
    else:
        grid, basis = _fourier_basis(delay, (rows - 1) // 2)
        values = np.empty((batch, grid.shape[0], n))
        # the terms (term, history, component, node) of a few histories
        # at a time, so a large batch holds no more than _TERMS at once
        step = max(1, _TERMS // (basis.size * n))
        for lo in range(0, batch, step):
            terms = (draws[lo:lo + step].transpose(1, 0, 2)[..., None]
                     * basis[:, None, None, :])
            values[lo:lo + step] = np.add.reduce(terms, axis=0).transpose(0, 2, 1)
    peak = _norm(values).max(axis=-1)
    zero = (norm_bounds == 0.0) | (peak == 0.0)
    values *= (norm_bounds / np.where(zero, 1.0, peak))[:, None, None]
    values[zero] = 0.0
    values.flags.writeable = False
    return grid, values


# Fourier terms held at once by _fourier_histories: 256 KiB
_TERMS = 1 << 15

_ZERO_GRID = np.array([0.0])
_ZERO_GRID.flags.writeable = False


@lru_cache(maxsize=64)
def _fourier_basis(delay: float, modes: int):
    """The read-only grid of the random histories with `modes` modes on
    [-delay, 0], and the basis on it, one term per row: 1, then
    cos(j pi tau / delay) and sin(j pi tau / delay) for j = 1..modes."""
    grid = np.linspace(-delay, 0.0, max(2, 8 * modes + 1))
    if np.any(np.diff(grid) <= 0):
        raise ValueError("delay too small for a strictly increasing grid")
    phase = np.arange(1, modes + 1)[:, None] * np.pi * grid / delay
    basis = np.ones((1 + 2 * modes, grid.shape[0]))
    basis[1::2] = np.cos(phase)
    basis[2::2] = np.sin(phase)
    grid.flags.writeable = False
    basis.flags.writeable = False
    return grid, basis


def driver_extension(phi: HistoryFunction, h: float, w) -> HistoryFunction:
    """Extension of phi by a step h in [0, delay) with slope w.

    The result equals phi(. + h) on [-delay, -h) and continues linearly
    from phi(0) with slope w on [-h, 0].  The grid is the union of the
    shifted grid and the breakpoint -h, so no interpolation error is
    introduced at the kink.
    """
    if h == 0.0:
        return phi
    if h < 0 or h >= phi.delay:
        raise ValueError("step must satisfy 0 <= h < delay")
    w = _slope_row(phi, w)
    delay, shifted, last = phi.delay, phi.grid - h, phi.values[-1:]
    tol = _DEDUPE_REL * max(1.0, delay)
    keep = (shifted > -delay + tol) & (shifted < -h - tol)
    return HistoryFunction(
        delay, np.concatenate(([-delay], shifted[keep], [-h, 0.0])),
        np.concatenate([phi.eval([-delay + h]), phi.values[keep], last,
                        last + h * w]))


def _slope_row(phi: HistoryFunction, w) -> np.ndarray:
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.shape != (phi.n,):
        raise ValueError(f"slope must have shape ({phi.n},)")
    return w


def _eval_on_grid(delay, grid, values, tau):
    """phi(tau) for each history of `values` (..., len(grid), n) on the
    shared `grid`: (..., n) for a scalar tau, (..., len(tau), n) for a
    1-d array."""
    tau = np.asarray(tau, dtype=float)
    t = np.atleast_1d(tau)
    tol = _edge_tol(delay)
    if (t < -delay - tol).any() or (t > tol).any():
        raise ValueError(f"tau outside [-{delay}, 0]")
    t = np.minimum(np.maximum(t, -delay), 0.0)
    if grid.shape[0] == 1:
        out = values[..., np.zeros(t.shape[0], dtype=np.intp), :]
    else:
        out = _interp_rows(grid, values, t)
    return out[..., 0, :] if tau.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class _Part:
    """Histories on one shared grid: values (B, len(grid), n)."""

    delay: float
    grid: np.ndarray
    values: np.ndarray


class _Batch:
    """Histories in parts of one delay, the batch evaluators' one input,
    and the read-only reads x0 = phi(0) and xd = phi(-delay) (B, n),
    taken part by part when it is built and joined in the order of the
    parts.  An evaluator reads x0 and xd, and anything else that needs no
    grid, on the whole batch, and each part for what does (`per_part`).
    A lone history is a batch of one part; certify's sweep block has one
    part per grid.  Iterating a batch yields its parts."""

    def __init__(self, parts):
        self.parts = parts = tuple(parts)
        self.delay = parts[0].delay
        if any(p.delay != self.delay for p in parts):
            raise ValueError("the histories of a sweep must share one delay")
        self.x0, self.xd = self._read(0.0), self._read(-self.delay)
        self.x0.flags.writeable = self.xd.flags.writeable = False

    def __iter__(self):
        return iter(self.parts)

    def at(self, tau: float) -> np.ndarray:
        """phi(tau) of each history, (B, n), as _eval_on_grid reads it:
        the kept read at 0 and at -delay, any other lag afresh."""
        if tau == 0.0:
            return self.x0
        return self.xd if tau == -self.delay else self._read(tau)

    def _read(self, tau: float) -> np.ndarray:
        return self.per_part(
            lambda p: _eval_on_grid(p.delay, p.grid, p.values, tau))

    def per_part(self, read) -> np.ndarray:
        """read(part) of each part, joined in the order of the parts: one
        array of the batch's rows."""
        return _join([read(part) for part in self.parts])


def _join(arrays: list) -> np.ndarray:
    """The arrays joined along the first axis; a lone array as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _window_of_rows(times, values, delay, t, stop, last) -> HistoryFunction:
    """x_t on [-delay, 0] from the rows `values` on the increasing grid
    `times`: phi(-delay) = x(t - delay) interpolated, then the nodes
    strictly inside (t - delay, t) that lie before index `stop`, shifted
    by -t, and phi(0) = last."""
    if delay == 0.0:
        return HistoryFunction._trusted(0.0, np.array([0.0]), last[None, :])
    lo = t - delay
    i0 = int(np.searchsorted(times, lo, side="right"))
    while times[i0] - t <= -delay:
        # a node just past lo can round onto -delay once shifted; dropping
        # it keeps the grid strictly increasing and phi(-delay) = x(lo)
        i0 += 1
    i1 = min(int(np.searchsorted(times, t, side="left")), stop)
    grid = np.empty(i1 - i0 + 2)
    grid[0] = -delay
    grid[1:-1] = times[i0:i1] - t
    grid[-1] = 0.0
    vals = np.empty((i1 - i0 + 2, values.shape[1]))
    vals[0] = _interp_rows(times, values, np.array([lo]))[0]
    vals[1:-1] = values[i0:i1]
    vals[-1] = last
    return HistoryFunction._trusted(delay, grid, vals)


def _norm(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm along the last axis, for every leading index:
    the package's one norm rule, the square root of the squares summed
    by _sum_last, so a row's norm does not depend on its batch or on
    the BLAS kernel."""
    return np.sqrt(_sum_last(rows * rows))


def _sum_last(a: np.ndarray) -> np.ndarray:
    """The sum along the last axis, for every leading index, in the order
    np.sum adds one contiguous 1-d array: left to right below 8 values,
    eight running sums up to 128, halves above.  NumPy's own reduction
    over the last axis of a 2-d array may take another order, depending
    on the shape; written out, a row's sum does not depend on its batch."""
    n = a.shape[-1]
    if n < 8:
        total = np.zeros(a.shape[:-1])
        for k in range(n):
            total = total + a[..., k]
        return total
    if n <= 128:
        r = a[..., :8].copy()
        stop = n - n % 8
        for i in range(8, stop, 8):
            r += a[..., i:i + 8]
        total = (((r[..., 0] + r[..., 1]) + (r[..., 2] + r[..., 3]))
                 + ((r[..., 4] + r[..., 5]) + (r[..., 6] + r[..., 7])))
        for k in range(stop, n):
            total = total + a[..., k]
        return total
    half = n // 2
    half -= half % 8
    return _sum_last(a[..., :half]) + _sum_last(a[..., half:])


def _interp_rows(times: np.ndarray, values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The piecewise-linear interpolant of the rows of `values`
    (..., len(times), n) on the increasing grid `times`, at each point of
    the 1-d array t: (..., len(t), n).  The package's one interpolation
    rule, (1 - lam) x_j + lam x_j+1 on the segment that holds the point,
    with no node special case: a read at a node may turn a -0.0 entry
    into +0.0, and a non-finite neighbouring row into nan."""
    idx = np.searchsorted(times, t, side="right") - 1
    # np.clip, and indexing the rows in place of np.take, cost several
    # times as much, on the short arrays of a sweep and on a solver block
    idx = np.minimum(np.maximum(idx, 0), times.shape[0] - 2)
    g0 = times[idx]
    lam = ((t - g0) / (times[idx + 1] - g0))[:, None]
    return (1.0 - lam) * values.take(idx, -2) + lam * values.take(idx + 1, -2)
