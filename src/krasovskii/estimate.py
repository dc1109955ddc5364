"""Empirics: ensembles, decay-envelope fits, input-gain fits, and the
empirical overshoot/contraction test.

Envelope fitting is a domination problem, not a regression: for each
candidate rate eta on a log grid the smallest admissible overshoot
k(eta) is computed exactly from the samples, and the fastest rate whose
overshoot stays below a cap wins.  The certified contraction horizon of
the left-growth route is astronomically conservative, so empirical runs
use a user-chosen horizon and the two are reported side by side.
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
from .solver import COMPLETED, Trajectory, history_norm_series, integrate
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

# fit_envelope's candidate rates; fit_iss_gain's random histories per
# amplitude and its tail's share of the horizon
_ETA_GRID = np.logspace(-3, 1, 200)
# rates per array in fit_envelope: on 3 001-point trajectories its one
# temporary is 0.38 MB; blocks of 8, 16 and 32 gave the same bits, and
# blocks of 16 cut the fit's time by a third against one rate at a time
_ETA_BLOCK = 16
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
    points in [1e-3, 10].
    """
    if not trajs:
        raise ValueError("need at least one trajectory")
    for tr in trajs:
        if tr.status != COMPLETED:
            raise ValueError("envelope fits need completed trajectories")
        if tr.x0.sup_norm() == 0.0:
            raise ValueError("initial histories must be nonzero")
    pairs = []
    for tr in trajs:
        pairs.append((tr.times[tr.start:],
                      _norm(tr.values[tr.start:]) / tr.x0.sup_norm()))
    # each trajectory's overshoot at _ETA_BLOCK rates per array, then the
    # worst over trajectories, in their order, as Python's max takes it
    over = np.empty((len(pairs), _ETA_GRID.shape[0]))
    for s in range(0, _ETA_GRID.shape[0], _ETA_BLOCK):
        etas = _ETA_GRID[s:s + _ETA_BLOCK, None]
        for row, (t, ratio) in zip(over, pairs):
            scaled = etas * t
            np.exp(scaled, out=scaled)
            scaled *= ratio
            row[s:s + _ETA_BLOCK] = scaled.max(axis=1)
            del scaled  # before the next one is made
    k_eta = [max(column) for column in over.T.tolist()]
    admissible = [j for j, k in enumerate(k_eta) if k <= k_cap]
    if not admissible:
        raise FitFailure(f"no rate admits an overshoot below {k_cap}")
    eta, k_raw = float(_ETA_GRID[admissible[-1]]), k_eta[admissible[-1]]
    k = max(k_raw, 1.0)
    slack = math.inf
    for tr, (t, ratio) in zip(trajs, pairs):
        gap = float(np.min(k * np.exp(-eta * t) - ratio)) * tr.x0.sup_norm()
        slack = min(slack, gap)
    if -1e-9 * k < slack < 0.0:
        slack = 0.0  # rounding of exp(-eta t) against the argmax sample
    return EnvelopeFit(k, eta, slack, len(trajs), k_cap)


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
        direction = np.zeros(sys.m)
        direction[0] = 1.0
        u = constant_input(s * direction)
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
        direction = np.zeros(sys.m)
        direction[0] = 1.0
        return constant_input(s * direction)

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
    rows, blocks separated by blank lines."""
    with open(path, "w") as fh:
        fh.write("# t  abs_x  envelope\n")
        for tr in trajs:
            t = tr.times[tr.start:]
            mag = _norm(tr.values[tr.start:])
            env = fit.k * tr.x0.sup_norm() * np.exp(-fit.eta * t)
            fh.writelines("%.17g %.17g %.17g\n" % row
                          for row in zip(t, mag, env))
            fh.write("\n")
