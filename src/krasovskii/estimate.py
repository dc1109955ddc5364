"""Empirics: ensembles, decay-envelope fits, input-gain fits, and the
empirical overshoot/contraction test.

Envelope fitting is a domination problem, not a regression: for each
candidate rate eta on a log grid the smallest admissible overshoot
k(eta) = max_t r(t) exp(eta t), r = |x(t)| / sup|x0|, is computed
exactly from the samples, and the fastest rate whose overshoot stays
below a cap wins.  For a fixed eta that maximum is a linear one in
(t, log r), so only points on or within rounding of the upper convex
hull of (t, log r) can attain it: each trajectory is evaluated on those
candidates alone, giving k(eta) bit for bit as over every point.  The
certified contraction horizon of the left-growth route is
astronomically conservative, so empirical runs use a user-chosen
horizon and the two are reported side by side.  The envelope's plot
data go through the solver's table writer, which gives the bytes of
"%.17g" row by row from exact array arithmetic (see `solver`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .histories import (
    CONTRACTION_STREAM,
    GAIN_STREAM,
    MODE_CHOICES,
    HistoryFunction,
    _norm,
    random_history,
    zero_history,
)
from .solver import (
    COMPLETED,
    Trajectory,
    _write_table,
    history_norm_series,
    integrate,
)
from .systems import DelaySystem, InputSignal, constant_input, zero_input

__all__ = [
    "EnvelopeFit",
    "GainFit",
    "TwoInequalityFit",
    "FitFailure",
    "run_ensemble",
    "fit_envelope",
    "fit_iss_gain",
    "empirical_two_inequality",
    "seeded_history_sampler",
    "write_envelope_data",
]

# fit_envelope's candidate rates
_ETA_GRID = np.logspace(-3, 1, 200)
# the size of fit_envelope's one temporary, exp(eta t) r at a block of
# rates on a trajectory's candidates: at most _ETA_BLOCK times the
# trajectory's length, so 16 rates per array where every point is a
# candidate and all 200 at once where few are.  The block changes no bit;
# blocks of 16 cut the full evaluation's time by a third against one
# rate at a time
_ETA_BLOCK = 16
# exp(eta t) is finite below t = _EXP_SAFE / eta
_EXP_SAFE = 700.0
_U = 2.0 ** -53
# _upper_hull's levels read at most this many points per point: a level
# costs about a fifteenth of evaluating its points at every rate, so
# where nearly every point is a hull vertex (a log-concave run) the hull
# adds at most about a quarter to the full evaluation
_HULL_READS = 4
# fit_iss_gain's random histories per amplitude and its tail's share of
# the horizon
_GAIN_HISTORIES = 4
_TAIL_FRACTION = 0.25


class FitFailure(RuntimeError):
    """No admissible envelope at this overshoot cap: evidence against
    exponential decay at the explored scale."""


def seeded_history_sampler(seed, n: int, delay: float, norm_bound: float):
    """index -> reproducible random history: history i is drawn from the
    key (seed..., i) with MODE_CHOICES[i % 3] modes."""
    prefix = (seed,) if np.isscalar(seed) else tuple(seed)

    def sample(i: int) -> HistoryFunction:
        return random_history((*prefix, i), n, delay, norm_bound,
                              MODE_CHOICES[i % len(MODE_CHOICES)])

    return sample


def run_ensemble(sys: DelaySystem, history_sampler, input_sampler,
                 count: int, horizon: float, dt: float) -> list[Trajectory]:
    """count seeded, reproducible integrations.  Blow-ups are returned
    as trajectories with their status set, not raised."""
    if count < 1:
        raise ValueError("count must be >= 1")

    def one(i: int) -> Trajectory:
        u = input_sampler(i) if input_sampler is not None else None
        return integrate(sys, history_sampler(i), u, horizon, dt)

    return [one(i) for i in range(count)]


@dataclass(frozen=True)
class EnvelopeFit:
    """Dominating envelope k sup|x0| exp(-eta t) over an ensemble.

    slack is the smallest gap between envelope and samples; it is
    nonnegative by construction.
    """

    k: float
    eta: float
    slack: float
    trajectories: int
    k_cap: float

    def __post_init__(self):
        if self.k < 1 or self.eta <= 0 or self.slack < 0:
            raise ValueError("fit must satisfy k >= 1, eta > 0, slack >= 0")


def fit_envelope(trajs: Sequence[Trajectory], k_cap: float = 1e3) -> EnvelopeFit:
    """Largest grid rate whose exact overshoot stays below k_cap.

    Requires completed trajectories with nonzero initial histories and
    (the intended use) zero input.  The rate grid is 200 log-spaced
    points in [1e-3, 10].  A trajectory's overshoot k(eta) is the largest
    exp(eta t) r(t), r = |x(t)| / sup|x0|, evaluated on its candidates
    (_candidates) only, copied into contiguous arrays: the same bits as
    over all of its points.
    """
    if not trajs:
        raise ValueError("need at least one trajectory")
    sups = [tr.x0.sup_norm() for tr in trajs]
    for tr, sup in zip(trajs, sups):
        if tr.status != COMPLETED:
            raise ValueError("envelope fits need completed trajectories")
        if sup == 0.0:
            raise ValueError("initial histories must be nonzero")
    pairs = [(tr.times[tr.start:], _norm(tr.values[tr.start:]) / sup)
             for tr, sup in zip(trajs, sups)]
    k_eta = _overshoots(pairs)
    admissible = np.flatnonzero(k_eta <= k_cap)
    if not admissible.shape[0]:
        raise FitFailure(f"no rate admits an overshoot below {k_cap}")
    eta, k_raw = float(_ETA_GRID[admissible[-1]]), float(k_eta[admissible[-1]])
    k = max(k_raw, 1.0)
    slack = math.inf
    for sup, (t, ratio) in zip(sups, pairs):
        gap = float(np.min(k * np.exp(-eta * t) - ratio)) * sup
        slack = min(slack, gap)
    if -1e-9 * k < slack < 0.0:
        slack = 0.0  # rounding of exp(-eta t) against the argmax sample
    return EnvelopeFit(k, eta, slack, len(trajs), k_cap)


def _overshoots(pairs) -> np.ndarray:
    """k(eta) at every grid rate over trajectories given as (t, r)
    pairs: each trajectory's largest exp(eta t) r, evaluated on its
    candidates only, 0 where it has none (r = 0 throughout); then the
    worst over trajectories in their order, as Python's max takes it: a
    later value replaces the current one only if it is larger."""
    over = np.zeros((len(pairs), _ETA_GRID.shape[0]))
    for row, (t, ratio) in zip(over, pairs):
        keep = _candidates(t, ratio)
        count = int(np.count_nonzero(keep))
        if not count:
            continue
        step = _ETA_BLOCK * (t.shape[0] // count)
        if count < t.shape[0]:
            t, ratio = t[keep], ratio[keep]
        del keep  # before the temporaries are made
        for s in range(0, _ETA_GRID.shape[0], step):
            scaled = _ETA_GRID[s:s + step, None] * t
            np.exp(scaled, out=scaled)
            scaled *= ratio
            row[s:s + step] = scaled.max(axis=1)
            del scaled  # before the next one is made
    k_eta = over[0]
    for row in over[1:]:
        k_eta = np.where(row > k_eta, row, k_eta)
    return k_eta


def _candidates(t: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """The points of one trajectory, times t increasing from 0, at which
    the computed exp(eta t) r can be the largest for some grid rate eta,
    as a mask: every point that lies within a margin m of the upper hull
    of (t, log r), and every point the hull does not judge (r not
    finite, or eta t too large for a finite exp).

    A point with r = 0 never counts: its value is 0, and a point with
    r > 0 has a value of at least r, the product rounding monotonically.
    For any polyline through points of (t, L), L = log r, and any eta,
    L + eta t of a point below the polyline is at most its value at one
    of the two vertices around the point, so only the final filter
    L >= np.interp(t, vertices) - m decides; the hull's own rounding
    changes what it finds, never a result.

    Derivation of m, with u = 2^-53 and S = 1 + max(|L|, eta_max t_last)
    over the judged points: the computed L is within 16 ulps, 32 u S, of
    log r; np.interp's slope, difference, product and sum move the
    polyline by at most 16 u S, and subtracting m moves it by 2 u S; the
    computed eta t is within u S of the exact one, and 16 ulps for
    np.exp add 33 u.  The product's rounding is monotone and needs no
    room.  A point dropped by the filter then has log(exp(eta t) r)
    below that of one of the two vertices by at least
    m - 84 u S - 66 u > 0 for m = 256 u S, as S >= 1, so a candidate's
    computed value is at least its own.
    """
    eta_max = float(_ETA_GRID[-1])
    keep = np.ones(t.shape[0], dtype=bool)
    # t increases, so the points whose exp(eta t) is finite come first
    safe = int(np.searchsorted(t, _EXP_SAFE / eta_max))
    t, ratio = t[:safe], ratio[:safe]
    with np.errstate(divide="ignore", invalid="ignore"):
        log = np.log(ratio)
    judged = np.isfinite(log)  # 0 < r < inf
    keep[:safe] = ~judged & (ratio != 0.0)
    if judged.all():
        t_hull, log_hull = t, log
    elif judged.any():
        t_hull, log_hull = t[judged], log[judged]
    else:
        return keep
    vertices = _upper_hull(t_hull, log_hull)
    scale = 1.0 + max(-float(log_hull.min()), float(log_hull.max()),
                      eta_max * float(t_hull[-1]))
    polyline = np.interp(t_hull, t_hull[vertices], log_hull[vertices])
    keep[:safe][judged] = log_hull >= polyline - 256 * _U * scale
    return keep


def _upper_hull(t: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Indices, increasing, of the upper convex hull's vertices of the
    points (t, L), t increasing: quickhull, one pass per level over every
    open segment.  A segment between two neighbouring vertices holds the
    points between them that lie above its chord; each level makes the
    highest of each segment's points (the first, on a tie) a vertex, and
    drops the points that lie below the new chords.  The levels stop once
    they have read _HULL_READS points per point: the points still open
    lie above the polyline, and _candidates keeps them."""
    last = t.shape[0] - 1
    if last < 2:
        return np.arange(last + 1)
    vertices = np.array([0, last])
    inside = np.arange(1, last)
    read = 0
    while True:
        read += inside.shape[0]
        height = L[inside] - np.interp(t[inside], t[vertices], L[vertices])
        above = height > 0.0
        inside, height = inside[above], height[above]
        if not inside.shape[0] or read > _HULL_READS * last:
            return vertices
        # the points are sorted, so each open segment's points are one
        # run of inside, and its first highest point the first peak of it
        bounds = np.searchsorted(inside, vertices)
        counts = np.diff(bounds)
        starts = bounds[:-1][counts > 0]
        counts = counts[counts > 0]
        peaks = np.flatnonzero(
            height == np.repeat(np.maximum.reduceat(height, starts), counts))
        far = inside[peaks[np.searchsorted(peaks, starts)]]
        vertices = np.sort(np.concatenate((vertices, far)))
        inside = inside[inside != np.repeat(far, counts)]


@dataclass(frozen=True)
class GainFit:
    """Linear input-gain estimate from constant-input tails.

    tails maps amplitude -> worst tail sup of |x|; mu0 is the largest
    tail-to-amplitude ratio, so tails <= mu0 * amplitude by
    construction.  Amplitudes whose ensembles blew up are excluded and
    listed."""

    mu0: float
    tail_fraction: float
    tails: dict
    excluded: tuple = ()


def fit_iss_gain(sys: DelaySystem, amplitudes: Sequence[float], horizon: float,
                 dt: float, history_bound: float = 1.0,
                 seed: int = 2024) -> GainFit:
    """Constant-input ensembles from the zero history and four random
    histories, the same four for every amplitude (keys
    stream_key(seed, GAIN_STREAM, i)); for each amplitude record the
    tail sup of |x| over the last quarter of the horizon."""
    if any(s < 0 for s in amplitudes):
        raise ValueError("amplitudes must be nonnegative")
    tails = {}
    excluded = []
    cut = horizon * (1.0 - _TAIL_FRACTION)
    hist = seeded_history_sampler((seed, GAIN_STREAM), sys.n, sys.delay,
                                  history_bound)

    def sample(i):
        return hist(i) if i else zero_history(sys.delay, sys.n)

    for s in amplitudes:
        u = constant_input(s * np.eye(sys.m)[0])
        trajs = run_ensemble(sys, sample, lambda i, u=u: u,
                             _GAIN_HISTORIES + 1, horizon, dt)
        if any(tr.status != COMPLETED for tr in trajs):
            excluded.append(float(s))
            continue
        worst = 0.0
        for tr in trajs:
            sel = tr.times >= cut
            worst = max(worst, float(np.max(_norm(tr.values[sel]))))
        tails[float(s)] = worst
    positive = [(s, tail) for s, tail in tails.items() if s > 0]
    mu0 = max((tail / s for s, tail in positive), default=0.0)
    return GainFit(mu0, _TAIL_FRACTION, tails, tuple(excluded))


@dataclass(frozen=True)
class TwoInequalityFit:
    """Empirical overshoot/contraction estimates over an ensemble.

    ell bounds sup-norm growth on [0, T] relative to the initial
    history, lam is the same ratio at exactly T; contraction (lam < 1)
    is the evidence that an exponential envelope exists.
    """

    ell: float
    lam: float
    mu0: float
    horizon: float
    trajectories: int

    @property
    def contraction(self) -> bool:
        return self.lam < 1.0


def empirical_two_inequality(sys: DelaySystem, horizon: float, budget: int,
                             dt: float, seed: int = 77,
                             input_amplitudes: Sequence[float] = (0.0,),
                             mu0: Optional[float] = None) -> TwoInequalityFit:
    """Estimate the overshoot ell and end-of-horizon contraction lam
    over seeded ensembles from random histories of sup norm 1, history
    i drawn from stream_key(seed, CONTRACTION_STREAM, i).

    mu0 defaults to a constant-input gain fit over the positive
    amplitudes; pass mu0=0 for input-free studies.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if mu0 is None:
        positive = [s for s in input_amplitudes if s > 0]
        mu0 = (fit_iss_gain(sys, positive, horizon, dt, seed=seed).mu0
               if positive else 0.0)
    hist = seeded_history_sampler((seed, CONTRACTION_STREAM), sys.n,
                                  sys.delay, 1.0)

    def input_for(i: int) -> InputSignal:
        s = input_amplitudes[i % len(input_amplitudes)]
        if s == 0:
            return zero_input(sys.m)
        return constant_input(s * np.eye(sys.m)[0])

    trajs = run_ensemble(sys, hist, input_for, budget, horizon, dt)
    ell = -math.inf
    lam = -math.inf
    for tr in trajs:
        if tr.status != COMPLETED:
            ell = lam = math.inf
            break
        x0_norm = tr.x0.sup_norm()
        if x0_norm == 0.0:
            continue
        _, norms = history_norm_series(tr)
        # a zero or constant input: its sup on [0, t] is |u(0)| for every t
        usup = float(_norm(tr.u.evaluate(0.0)))
        ratios = (norms - mu0 * usup) / x0_norm
        ell = max(ell, float(np.max(ratios)))
        lam = max(lam, float(ratios[-1]))
    return TwoInequalityFit(ell, lam, mu0, horizon, budget)


def write_envelope_data(fit: EnvelopeFit, trajs: Sequence[Trajectory],
                        path) -> None:
    """Plot data: per trajectory a block of (t, |x(t)|, envelope(t))
    rows, blocks separated by blank lines.  Each block is written by
    solver._write_table: the bytes of "%.17g %.17g %.17g\\n" % row, row
    by row."""
    with open(path, "wb") as fh:
        fh.write(b"# t  abs_x  envelope\n")
        for tr in trajs:
            t = tr.times[tr.start:]
            rows = np.empty((t.shape[0], 3))
            rows[:, 0] = t
            rows[:, 1] = _norm(tr.values[tr.start:])
            rows[:, 2] = fit.k * tr.x0.sup_norm() * np.exp(-fit.eta * t)
            _write_table(fh, rows, " ", "\n")
            fh.write(b"\n")
