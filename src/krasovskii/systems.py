"""Delay systems dx/dt = f(x_t, u(t)) and input signals t -> u(t).

Provides three built-in planar benchmark systems (a cubically coupled
pair, its perturbed variant with bounded modeling uncertainties, and a
variant with an extra -x2^3 damping term that defeats any quadratic
lower growth bound) plus an analytically solvable scalar baseline
dx/dt = -a x(t) + b x(t - delay) + u(t).

Vector fields are pure callables (HistoryFunction, input vector) -> R^n
with f(0, 0) = 0, asserted once at construction.  Each built-in
right-hand side reads the history only through phi(0) and phi(-delay),
so it is stated once, as a `pointwise` formula f(x(t), x(t - delay), v);
its `field` is derived from that formula, and the solver uses the
formula directly as its fast path.  A formula indexes the components of
its arguments and returns a tuple of n components: the solver passes
lists and tuples of floats, the sweeps (n, B) and (m, B) columns, so one
definition serves both.  Construction probes the formula with lists of
zeros.  Only example2 with a user-supplied uncertainty pair, which may
read the whole history, has a general `field` and no `pointwise`
formula.  An input is evaluated at a float t or, broadcast, at a 1-d
array of times, so the solver reads a block's inputs in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .histories import (
    MODE_CHOICES,
    NORM_SCALES,
    HistoryFunction,
    _keyed_generators,
    random_history,
    zero_history,
)

__all__ = [
    "DelaySystem",
    "InputSignal",
    "UncertaintyPair",
    "make_example1",
    "make_example2",
    "make_example3",
    "make_linear_baseline",
    "zero_input",
    "constant_input",
    "step_input",
    "sinusoid_input",
    "piecewise_noise_input",
    "build_system",
    "PARAMETERS",
    "UNCERTAINTIES",
]


@dataclass(frozen=True)
class DelaySystem:
    """Immutable system description; `field` must be pure."""

    n: int
    m: int
    delay: float
    field: Callable[[HistoryFunction, np.ndarray], np.ndarray]
    name: str = ""
    # the formula f(x(t), x(t - delay), v) of a field that reads the
    # history only at 0 and -delay; the solver's fast path.  It indexes
    # its arguments' components, x[0], x[1], ..., and returns a sequence
    # of n components: the solver calls it with lists and tuples of
    # floats, the falsification checks with (n, B) and (m, B) columns.
    pointwise: Optional[Callable[[Sequence, Sequence, Sequence], Sequence]] = None

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError("delay must be nonnegative")
        origin = np.asarray(self.field(zero_history(self.delay, self.n),
                                       np.zeros(self.m)), dtype=float)
        if origin.shape != (self.n,) or np.max(np.abs(origin)) > 1e-12:
            raise ValueError(f"field must satisfy f(0, 0) = 0, got {origin}")
        if self.pointwise is not None:
            z = [0.0] * self.n
            try:
                pw = [float(c) for c in self.pointwise(z, z, [0.0] * self.m)]
            except (AttributeError, IndexError, TypeError) as exc:
                raise ValueError(
                    f"the pointwise formula of {self.name!r} must index the "
                    f"components of its arguments and return a sequence: "
                    f"{exc}") from exc
            if len(pw) != self.n or not all(abs(c) <= 1e-12 for c in pw):
                raise ValueError(
                    f"the pointwise formula of {self.name!r} must return "
                    f"{self.n} components with f(0, 0) = 0, got {pw}")


@dataclass(frozen=True)
class InputSignal:
    """Input u(t) for t >= 0, a pure function of t: the solver may call
    evaluate past the last step of a trajectory that blew up.  evaluate
    takes a float t, giving an (m,) array, or a 1-d array of k times,
    giving (k, m) whose row i is evaluate(float(t[i])), bit for bit; a
    caller must not write into the result."""

    m: int
    evaluate: Callable[[float | np.ndarray], np.ndarray]
    name: str = ""


@dataclass(frozen=True)
class UncertaintyPair:
    """Two scalar functionals of the history, each bounded by the sup norm."""

    d1: Callable[[HistoryFunction], float]
    d2: Callable[[HistoryFunction], float]

    def validate(self, n: int, delay: float) -> None:
        """Probe |d_i(phi)| <= sup|phi| on seeded random histories, a
        contract check, not a proof.  Probe i, for i < 100, is
        random_history((911, i), n, delay, NORM_SCALES[i % 3],
        MODE_CHOICES[(i // 3) % 3]); the ValueError names the first
        probe that fails."""
        for i in range(100):
            phi = random_history((911, i), n, delay, NORM_SCALES[i % 3],
                                 MODE_CHOICES[(i // 3) % 3])
            cap = phi.sup_norm() * (1.0 + 1e-9) + 1e-15
            for tag, d in (("d1", self.d1), ("d2", self.d2)):
                if abs(float(d(phi))) > cap:
                    raise ValueError(
                        f"uncertainty {tag} violates |d(phi)| <= sup|phi| "
                        f"on probe {i}")


# built-in bounded uncertainty of example2: the component values at -delay
DELAYED_UNCERTAINTY = UncertaintyPair(lambda phi: float(phi.eval(-phi.delay)[0]),
                                      lambda phi: float(phi.eval(-phi.delay)[1]))


def _pointwise_system(n: int, delay: float, name: str, pointwise) -> DelaySystem:
    """The system whose one formula is pointwise(x(t), x(t - delay), v)."""

    def field(phi, v):
        return np.array(pointwise(phi.eval(0.0), phi.eval(-delay), v))

    return DelaySystem(n, 1, delay, field, name, pointwise)


def make_example1(delay: float) -> DelaySystem:
    """Planar system with a delayed cross-coupling and cubic rotation terms."""

    def pointwise(x, xd, v):
        q = x[0] * x[0] + xd[1] * xd[1]
        return (-0.5 * x[0] + xd[1] + x[1] * q,
                -2.0 * x[1] - x[0] * q + v[0])

    return _pointwise_system(2, delay, "example1", pointwise)


def make_example2(delay: float, epsilon: float = 0.0,
                  d: UncertaintyPair | None = None) -> DelaySystem:
    """Perturbed variant: x1 self-coupling through the delay plus
    uncertainty terms epsilon*d_i(x_t) with |d_i(phi)| <= sup|phi|.

    With epsilon = 0 and d = 0 the first equation still reads
    x1(t - delay), unlike example1's x2(t - delay); this follows the
    defining equations of this variant.

    d = DELAYED_UNCERTAINTY folds into the pointwise formula as
    epsilon * x(t - delay); any other d is validated, and the system
    then has only a general `field`.
    """
    name = f"example2(eps={epsilon:g})"

    def core(x, xd, v):
        q = x[0] * x[0] + xd[1] * xd[1]
        return (-0.5 * x[0] + xd[0] + x[1] * q,
                -2.0 * x[1] - x[0] * q + v[0])

    if d is not None and d is not DELAYED_UNCERTAINTY:
        d.validate(2, delay)
    if d is None or epsilon == 0.0:
        return _pointwise_system(2, delay, name, core)
    if d is DELAYED_UNCERTAINTY:
        def delayed(x, xd, v):
            f1, f2 = core(x, xd, v)
            return (f1 + epsilon * xd[0], f2 + epsilon * xd[1])

        return _pointwise_system(2, delay, name, delayed)

    def field(phi, v):
        return (np.array(core(phi.eval(0.0), phi.eval(-delay), v))
                + epsilon * np.array([d.d1(phi), d.d2(phi)]))

    return DelaySystem(2, 1, delay, field, name)


def make_example3(delay: float) -> DelaySystem:
    """example2 with epsilon = 0 plus an extra -x2^3 term in the second
    equation.  The quartic it induces in x(0)'f(x_t, .) defeats every
    quadratic lower growth bound."""

    def pointwise(x, xd, v):
        q = x[0] * x[0] + xd[1] * xd[1]
        return (-0.5 * x[0] + xd[0] + x[1] * q,
                -2.0 * x[1] - x[1] ** 3 - x[0] * q + v[0])

    return _pointwise_system(2, delay, "example3", pointwise)


def make_linear_baseline(a: float, b: float, delay: float) -> DelaySystem:
    """Scalar dx/dt = -a x(t) + b x(t - delay) + u(t); solvable by hand."""

    def pointwise(x, xd, v):
        return (-a * x[0] + b * xd[0] + v[0],)

    return _pointwise_system(1, delay, f"linear(a={a:g},b={b:g})", pointwise)


# ---------------------------------------------------------------------------
# input signals

def zero_input(m: int = 1) -> InputSignal:
    return InputSignal(m, constant_input(np.zeros(m)).evaluate, "zero")


def constant_input(value) -> InputSignal:
    value = np.array(value, dtype=float, ndmin=1)
    value.flags.writeable = False
    return InputSignal(value.shape[0], lambda t: np.broadcast_to(
        value, np.shape(t) + value.shape), f"constant({value})")


def step_input(t_switch: float, before, after) -> InputSignal:
    before, after = constant_input(before), constant_input(after)
    if before.m != after.m:
        raise ValueError("before/after must have the same dimension")

    def evaluate(t):
        return np.where(np.reshape(np.greater_equal(t, t_switch),
                                   np.shape(t) + (1,)),
                        after.evaluate(t), before.evaluate(t))

    return InputSignal(before.m, evaluate, f"step(t={t_switch:g})")


def sinusoid_input(amplitude: float, omega: float, phase: float = 0.0) -> InputSignal:
    def evaluate(t):
        return np.reshape(amplitude * np.sin(np.multiply(omega, t) + phase),
                          np.shape(t) + (1,))

    return InputSignal(1, evaluate, f"sinusoid(A={amplitude:g},w={omega:g})")


def piecewise_noise_input(seed, amplitude: float, switch_dt: float,
                          m: int = 1) -> InputSignal:
    """Seeded piecewise-constant noise, uniform in [-amplitude, amplitude].

    Each segment's value is drawn once, from its own stream (the seed key
    followed by the segment index), and kept as a read-only array, which
    a float t returns itself."""
    if switch_dt <= 0:
        raise ValueError("switch_dt must be positive")

    @lru_cache(maxsize=None)
    def _segment(j: int) -> np.ndarray:
        (rng,) = _keyed_generators([(seed, j) if np.isscalar(seed) else (*seed, j)])
        value = rng.uniform(-amplitude, amplitude, m)
        value.flags.writeable = False
        return value

    def evaluate(t):
        if np.ndim(t) == 0:
            return _segment(math.floor(t / switch_dt))
        index, rows = np.unique(np.floor(np.divide(t, switch_dt)),
                                return_inverse=True)
        table = np.array([_segment(int(j)) for j in index.tolist()])
        return np.reshape(table[rows], np.shape(t) + (m,))

    return InputSignal(m, evaluate, f"noise(A={amplitude:g})")


# ---------------------------------------------------------------------------
# registry used by the CLI

# example2's built-in bounded uncertainty pairs, by parameter value
UNCERTAINTIES = {"delayed": DELAYED_UNCERTAINTY}


# the parameters each built-in system takes
PARAMETERS = {"example1": (), "example2": ("epsilon", "uncertainty"),
              "example3": (), "linear": ("a", "b")}


def build_system(name: str, delay: float, params: dict | None = None) -> DelaySystem:
    params = params or {}
    if name not in PARAMETERS:
        raise ValueError(f"unknown system {name!r}")
    unknown = sorted(set(params) - set(PARAMETERS[name]))
    if unknown:
        raise ValueError(f"unknown {name} parameter(s): {unknown}")
    if name == "example1":
        return make_example1(delay)
    if name == "example2":
        d = params.get("uncertainty")
        if d is not None and d not in UNCERTAINTIES:
            raise ValueError(f"unknown example2 uncertainty {d!r}; "
                             f"built-in: {', '.join(UNCERTAINTIES)}")
        return make_example2(delay, float(params.get("epsilon", 0.0)),
                             UNCERTAINTIES.get(d))
    if name == "example3":
        return make_example3(delay)
    return make_linear_baseline(float(params.get("a", 1.0)),
                                float(params.get("b", 0.0)), delay)
