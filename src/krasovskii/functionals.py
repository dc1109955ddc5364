"""Composable Lyapunov-Krasovskii functionals.

A functional is an immutable expression tree over quadratic building
blocks of the history phi:

    PointQuadratic(Q)        phi(0)' Q phi(0)
    DelayedQuadratic(Q, at)  phi(at)' Q phi(at)
    IntegralQuadratic(Q, w)  integral of w(tau) phi(tau)' Q phi(tau)
    MaxExp(P)                max over tau of exp(2 tau) phi(tau)' P phi(tau)
    Scale(k, F), Sum(F, G)

Trees compose with + and scalar *.  Two derivative evaluators are
provided: a closed form (exact on piecewise-linear histories, max-free
trees only) and a finite-step quotient along the two-branch extension,
maximised over a decreasing step schedule to approximate the upper
limit from above.

The max-type term is evaluated exactly on piecewise-linear histories:
on each segment exp(2 tau) times a quadratic is maximised through its
critical points, which avoids any oversampling error.  This matters for
the branch inequalities of the max-term derivative, where a sampled max
would pollute small-step difference quotients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .histories import HistoryFunction, driver_extension

__all__ = [
    "Functional",
    "PointQuadratic",
    "DelayedQuadratic",
    "IntegralQuadratic",
    "MaxExp",
    "Scale",
    "Sum",
    "ConstantWeight",
    "ExponentialWeight",
    "eval_functional",
    "driver_derivative_closed",
    "driver_derivative_numeric",
    "v0_max",
    "combine_W",
    "contains_maxexp",
    "PowerGain",
    "square_gain",
    "zero_gain",
    "HypothesisConstants",
]

DEFAULT_H_FRACTIONS = (1e-2, 1e-3, 1e-4)


def _symmetric(Q) -> np.ndarray:
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if Q.shape[0] != Q.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(Q, Q.T, atol=1e-12 * (1.0 + np.abs(Q).max())):
        raise ValueError("matrix must be symmetric")
    Q = 0.5 * (Q + Q.T)
    Q.flags.writeable = False
    return Q


def _qform(rows: np.ndarray, Q: np.ndarray) -> np.ndarray:
    return np.einsum("ij,jk,ik->i", rows, Q, rows)


class Functional:
    def __add__(self, other):
        if not isinstance(other, Functional):
            return NotImplemented
        return Sum(self, other)

    def __mul__(self, k):
        if not np.isscalar(k):
            return NotImplemented
        return Scale(float(k), self)

    __rmul__ = __mul__


@dataclass(frozen=True)
class ConstantWeight:
    c: float = 1.0

    def value(self, tau):
        return np.full_like(np.asarray(tau, dtype=float), self.c)

    def derivative(self, tau):
        return np.zeros_like(np.asarray(tau, dtype=float))

    polynomial = True


@dataclass(frozen=True)
class ExponentialWeight:
    """w(tau) = c * exp(rate * tau)."""

    c: float
    rate: float

    def value(self, tau):
        return self.c * np.exp(self.rate * np.asarray(tau, dtype=float))

    def derivative(self, tau):
        return self.rate * self.value(tau)

    polynomial = False


@dataclass(frozen=True)
class PointQuadratic(Functional):
    Q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", _symmetric(self.Q))


@dataclass(frozen=True)
class DelayedQuadratic(Functional):
    Q: np.ndarray
    at: float

    def __post_init__(self):
        object.__setattr__(self, "Q", _symmetric(self.Q))
        if self.at > 0:
            raise ValueError("evaluation point must lie in [-delay, 0]")


@dataclass(frozen=True)
class IntegralQuadratic(Functional):
    Q: np.ndarray
    weight: ConstantWeight | ExponentialWeight = field(default_factory=ConstantWeight)

    def __post_init__(self):
        object.__setattr__(self, "Q", _symmetric(self.Q))
        if np.isscalar(self.weight):
            object.__setattr__(self, "weight", ConstantWeight(float(self.weight)))


@dataclass(frozen=True)
class MaxExp(Functional):
    P: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "P", _symmetric(self.P))
        if np.min(np.linalg.eigvalsh(self.P)) <= 0:
            raise ValueError("max-type term needs a positive definite matrix")


@dataclass(frozen=True)
class Scale(Functional):
    k: float
    inner: Functional


@dataclass(frozen=True)
class Sum(Functional):
    left: Functional
    right: Functional


def contains_maxexp(V: Functional) -> bool:
    if isinstance(V, MaxExp):
        return True
    if isinstance(V, Scale):
        return contains_maxexp(V.inner)
    if isinstance(V, Sum):
        return contains_maxexp(V.left) or contains_maxexp(V.right)
    return False


# ---------------------------------------------------------------------------
# evaluation

def eval_functional(V: Functional, phi: HistoryFunction) -> float:
    if isinstance(V, PointQuadratic):
        x = phi.eval(0.0)
        return float(x @ V.Q @ x)
    if isinstance(V, DelayedQuadratic):
        if V.at < -phi.delay - 1e-9 * max(1.0, phi.delay):
            raise ValueError("evaluation point precedes -delay")
        x = phi.eval(max(V.at, -phi.delay))
        return float(x @ V.Q @ x)
    if isinstance(V, IntegralQuadratic):
        return _integral_eval(V.Q, V.weight.value, V.weight.polynomial, phi)
    if isinstance(V, MaxExp):
        return _maxexp_eval(V.P, phi)
    if isinstance(V, Scale):
        return V.k * eval_functional(V.inner, phi)
    if isinstance(V, Sum):
        return eval_functional(V.left, phi) + eval_functional(V.right, phi)
    raise TypeError(f"not a functional term: {V!r}")


def _integral_eval(Q, weight_fn, polynomial, phi: HistoryFunction) -> float:
    # per-segment Simpson; exact when the integrand is polynomial of
    # degree <= 3 per segment (constant weight, linear history)
    if phi.delay == 0.0 or phi.grid.shape[0] < 2:
        return 0.0
    if polynomial:
        g = phi.grid
        vals = phi.values
        mids = 0.5 * (vals[:-1] + vals[1:])
        fa = weight_fn(g[:-1]) * _qform(vals[:-1], Q)
        fm = weight_fn(0.5 * (g[:-1] + g[1:])) * _qform(mids, Q)
        fb = weight_fn(g[1:]) * _qform(vals[1:], Q)
        return float(np.sum(np.diff(g) / 6.0 * (fa + 4.0 * fm + fb)))
    # refined composite Simpson on each segment
    panels = 8
    total = 0.0
    g = phi.grid
    for a, b in zip(g[:-1], g[1:]):
        ts = np.linspace(a, b, 2 * panels + 1)
        f = weight_fn(ts) * _qform(phi.eval(ts), Q)
        h = (b - a) / (2 * panels)
        total += h / 3.0 * (f[0] + f[-1] + 4.0 * np.sum(f[1:-1:2])
                            + 2.0 * np.sum(f[2:-2:2]))
    return float(total)


def _maxexp_eval(P, phi: HistoryFunction) -> float:
    g = phi.grid
    vals = phi.values
    node_vals = np.exp(2.0 * g) * _qform(vals, P)
    best = float(np.max(node_vals))
    if g.shape[0] < 2:
        return best
    # exact interior maxima: on each segment the integrand is
    # exp(2 tau) (alpha t^2 + beta t + gamma); critical points solve
    # 2 alpha t^2 + 2(alpha + beta) t + (beta + 2 gamma) = 0
    L = np.diff(g)
    u = vals[:-1]
    d = (vals[1:] - vals[:-1]) / L[:, None]
    alpha = _qform(d, P)
    beta = 2.0 * np.einsum("ij,jk,ik->i", u, P, d)
    gam = _qform(u, P)
    A = 2.0 * alpha
    B = 2.0 * (alpha + beta)
    C = beta + 2.0 * gam
    scale = np.abs(A) + np.abs(B) + np.abs(C) + 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = B * B - 4.0 * A * C
        sq = np.sqrt(np.maximum(disc, 0.0))
        quad = np.abs(A) > 1e-14 * scale
        roots = np.full((L.shape[0], 2), np.nan)
        roots[quad, 0] = (-B[quad] - sq[quad]) / (2.0 * A[quad])
        roots[quad, 1] = (-B[quad] + sq[quad]) / (2.0 * A[quad])
        lin = (~quad) & (np.abs(B) > 1e-14 * scale)
        roots[lin, 0] = -C[lin] / B[lin]
        roots[quad & (disc < 0), :] = np.nan
    for col in range(2):
        t = roots[:, col]
        ok = np.isfinite(t) & (t > 0.0) & (t < L)
        if np.any(ok):
            tt = t[ok]
            val = np.exp(2.0 * (g[:-1][ok] + tt)) * (
                alpha[ok] * tt * tt + beta[ok] * tt + gam[ok])
            best = max(best, float(np.max(val)))
    return best


# ---------------------------------------------------------------------------
# derivatives

def driver_derivative_closed(V: Functional, phi: HistoryFunction, w) -> float:
    """Exact derivative of max-free trees on piecewise-linear histories."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if isinstance(V, PointQuadratic):
        return float(2.0 * phi.eval(0.0) @ V.Q @ w)
    if isinstance(V, DelayedQuadratic):
        if V.at == 0.0:
            return float(2.0 * phi.eval(0.0) @ V.Q @ w)
        slope = _right_slope(phi, V.at)
        return float(2.0 * phi.eval(V.at) @ V.Q @ slope)
    if isinstance(V, IntegralQuadratic):
        x0 = phi.eval(0.0)
        xd = phi.eval(-phi.delay)
        wt = V.weight
        boundary = (float(wt.value(0.0)) * float(x0 @ V.Q @ x0)
                    - float(wt.value(-phi.delay)) * float(xd @ V.Q @ xd))
        if wt.polynomial:
            return boundary
        return boundary - _integral_eval(V.Q, wt.derivative, False, phi)
    if isinstance(V, Scale):
        return V.k * driver_derivative_closed(V.inner, phi, w)
    if isinstance(V, Sum):
        return (driver_derivative_closed(V.left, phi, w)
                + driver_derivative_closed(V.right, phi, w))
    if isinstance(V, MaxExp):
        raise ValueError("max-type terms have no closed-form derivative; "
                         "use driver_derivative_numeric")
    raise TypeError(f"not a functional term: {V!r}")


def _right_slope(phi: HistoryFunction, tau: float) -> np.ndarray:
    if phi.grid.shape[0] < 2:
        return np.zeros(phi.n)
    idx = int(np.searchsorted(phi.grid, tau, side="right"))
    idx = min(max(idx, 1), phi.grid.shape[0] - 1)
    return ((phi.values[idx] - phi.values[idx - 1])
            / (phi.grid[idx] - phi.grid[idx - 1]))


def driver_derivative_numeric(V: Functional, phi: HistoryFunction, w,
                              h_schedule=None) -> float:
    """max over a decreasing step schedule of the extension quotient
    (V(phi_{h,w}) - V(phi)) / h, approximating the upper limit from
    above.  Default schedule: (1e-2, 1e-3, 1e-4) * delay."""
    if phi.delay <= 0:
        raise ValueError("numeric derivative needs a positive delay")
    if h_schedule is None:
        h_schedule = tuple(f * phi.delay for f in DEFAULT_H_FRACTIONS)
    hs = [float(h) for h in h_schedule]
    if not hs or any(h <= 0 or h >= phi.delay for h in hs):
        raise ValueError("step schedule must be positive and below the delay")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("step schedule must be decreasing")
    base = eval_functional(V, phi)
    return max((eval_functional(V, driver_extension(phi, h, w)) - base) / h
               for h in hs)


def v0_max(P) -> Callable[[HistoryFunction], float]:
    """The coercive max-type functional as a plain callable.

    In debug mode every call asserts the two-sided squeeze
    exp(-2 delay) p_m sup|phi|^2 <= value <= p_M sup|phi|^2.
    """
    term = MaxExp(P)
    eigs = np.linalg.eigvalsh(term.P)
    p_m, p_M = float(eigs[0]), float(eigs[-1])

    def evaluate(phi: HistoryFunction) -> float:
        val = eval_functional(term, phi)
        if __debug__:
            s2 = phi.sup_norm() ** 2
            slack = 1e-9 * (1.0 + abs(val) + s2)
            assert np.exp(-2.0 * phi.delay) * p_m * s2 <= val + slack
            assert val <= p_M * s2 + slack
        return val

    return evaluate


def combine_W(V: Functional, eps: float, P) -> Functional:
    """V plus eps times the coercive max-type term."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return Sum(V, Scale(eps, MaxExp(P)))


# ---------------------------------------------------------------------------
# hypothesis constants and gains

@dataclass(frozen=True)
class PowerGain:
    """gamma(s) = coefficient * s ** exponent, a nondecreasing gain with
    gamma(0) = 0.  Power form keeps inverses and linear-gain detection
    exact."""

    coefficient: float
    exponent: float

    def __post_init__(self):
        if self.coefficient < 0:
            raise ValueError("gain coefficient must be >= 0")
        if self.coefficient > 0 and self.exponent <= 0:
            raise ValueError("gain exponent must be positive")

    def __call__(self, s: float) -> float:
        if s < 0:
            raise ValueError("gains are defined for s >= 0")
        if self.coefficient == 0.0:
            return 0.0
        return self.coefficient * s ** self.exponent

    def inverse(self, y: float) -> float:
        if self.coefficient <= 0:
            raise ValueError("zero gain is not invertible")
        return (y / self.coefficient) ** (1.0 / self.exponent)


def square_gain(coefficient: float = 1.0) -> PowerGain:
    return PowerGain(coefficient, 2.0)


def zero_gain() -> PowerGain:
    return PowerGain(0.0, 1.0)


@dataclass(frozen=True)
class HypothesisConstants:
    """Constants of one dissipation hypothesis set.

    a_lower/a_upper squeeze the functional between a_lower |phi(0)|^rho
    and a_upper sup|phi|^rho (a_lower may be absent), `a` is the
    point-wise dissipation rate, `c` the strength of the history term,
    `sigma` the growth constant for the matrix P, and `gamma` the input
    gain (PowerGain or any callable vanishing at zero).
    """

    a_upper: float
    a: float
    rho: float = 2.0
    a_lower: Optional[float] = None
    c: float = 0.0
    sigma: Optional[float] = None
    P: Optional[np.ndarray] = None
    gamma: object = None

    def __post_init__(self):
        if self.a_upper <= 0 or self.a <= 0 or self.rho <= 0:
            raise ValueError("a_upper, a and rho must be positive")
        if self.a_lower is not None:
            if self.a_lower <= 0:
                raise ValueError("a_lower must be positive when present")
            if self.a_lower > self.a_upper:
                raise ValueError("the squeeze forces a_lower <= a_upper")
        if self.c < 0:
            raise ValueError("c must be >= 0")
        if self.sigma is not None and self.sigma <= 0:
            raise ValueError("sigma must be positive when present")
        if self.P is not None:
            P = _symmetric(self.P)
            if np.min(np.linalg.eigvalsh(P)) <= 0:
                raise ValueError("P must be positive definite")
            object.__setattr__(self, "P", P)
        if self.gamma is not None:
            g0 = self.gamma(0.0)
            if abs(g0) > 1e-12:
                raise ValueError("gamma must vanish at zero")

    @property
    def p_m(self) -> float:
        return float(np.min(np.linalg.eigvalsh(self.P)))

    @property
    def p_M(self) -> float:
        return float(np.max(np.linalg.eigvalsh(self.P)))

    def has_linear_gain_form(self) -> bool:
        """True when gamma(s) = g0 * s^rho, the shape that turns the
        decay estimate into one with a linear input gain."""
        return isinstance(self.gamma, PowerGain) and self.gamma.exponent == self.rho
