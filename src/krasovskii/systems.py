"""Delay systems dx/dt = f(x_t, u(t)) and input signals t -> u(t).

Provides three built-in planar benchmark systems (a cubically coupled
pair, its perturbed variant with bounded modeling uncertainties, and a
variant with an extra -x2^3 damping term that defeats any quadratic
lower growth bound) plus an analytically solvable scalar baseline
dx/dt = -a x(t) + b x(t - delay) + u(t).

Vector fields are pure callables (HistoryFunction, input vector) -> R^n
with f(0, 0) = 0, asserted once at construction.  Each built-in
right-hand side reads the history only through phi(0) and phi(-delay),
so it is stated once, as the text of a `pointwise` formula f(x(t),
x(t - delay), v): statements over x0, ..., xd0, ... and v0, ... that
assign f0, ..., its parameters bound as names.  One pattern, `_NAME`,
matches these names: the callable generated from the text binds the
components it names and returns a tuple of n components, which the
sweeps call on (n, B) and (m, B) columns, and the solver splices the
text into its loop, calling only a user formula, which has no text.  A
system given only a formula derives its `field`, the formula at phi(0)
and phi(-delay), and probes the formula once, with lists of zeros.  Only
example2 with a user-supplied uncertainty pair, which may read the whole
history, has a general `field` and no `pointwise` formula.  An input is
evaluated at a float t or, broadcast, at a 1-d array of times, so the
solver reads a trajectory's inputs in one call.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .histories import (
    MODE_CHOICES,
    NORM_SCALES,
    PROBE_STREAM,
    HistoryFunction,
    random_history,
    stream_key,
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
    """Immutable system description; `field` must be pure.  A system
    given only a `pointwise` formula derives its `field` from it, marked
    with that formula, and derives it again when given another formula
    (dataclasses.replace(sys, pointwise=...))."""

    n: int
    m: int
    delay: float
    field: Optional[Callable[[HistoryFunction, np.ndarray], np.ndarray]] = None
    name: str = ""
    # the formula f(x(t), x(t - delay), v) of a field that reads the
    # history only at 0 and -delay, indexing components x[0], ..., xd[0],
    # ... and v[0], ... and returning n: the sweeps call it on (n, B) and
    # (m, B) columns; the solver splices a built-in formula's text into
    # its loop and calls any other formula on tuples of floats.
    pointwise: Optional[Callable[[Sequence, Sequence, Sequence], Sequence]] = None

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError("delay must be nonnegative")
        if self.field is None and self.pointwise is None:
            raise ValueError(f"system {self.name!r} needs a field or a pointwise formula")
        stale = self.pointwise is not None and getattr(
            self.field, "formula", self.pointwise) is not self.pointwise
        if self.field is None or stale:
            pointwise = self.pointwise

            def field(phi, v):
                return np.array(pointwise(phi.eval(0.0), phi.eval(-phi.delay), v))

            field.formula = pointwise
            object.__setattr__(self, "field", field)
        else:
            origin = np.asarray(self.field(zero_history(self.delay, self.n),
                                           np.zeros(self.m)), dtype=float)
            if origin.shape != (self.n,) or np.max(np.abs(origin)) > 1e-12:
                raise ValueError(f"field must satisfy f(0, 0) = 0, got {origin}")
        if self.pointwise is not None:
            z = [0.0] * self.n
            try:
                pw = [float(c) for c in self.pointwise(z, z, [0.0] * self.m)]
            except Exception as exc:
                raise ValueError(
                    f"the pointwise formula of {self.name!r} must index the "
                    f"components of its arguments, return a sequence and be "
                    f"defined at zero, but raised {exc!r}") from exc
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
        random_history(stream_key(0, PROBE_STREAM, i), n, delay, s, m),
        (s, m) running through NORM_SCALES x MODE_CHOICES, s fastest; the
        ValueError names the first probe that fails."""
        for i in range(100):
            j, k = divmod(i, len(NORM_SCALES))
            phi = random_history(stream_key(0, PROBE_STREAM, i), n, delay,
                                 NORM_SCALES[k], MODE_CHOICES[j % len(MODE_CHOICES)])
            cap = phi.sup_norm() * (1.0 + 1e-9) + 1e-15
            for tag, d in (("d1", self.d1), ("d2", self.d2)):
                if abs(float(d(phi))) > cap:
                    raise ValueError(
                        f"uncertainty {tag} violates |d(phi)| <= sup|phi| "
                        f"on probe {i}")


# built-in bounded uncertainty of example2: the component values at -delay
DELAYED_UNCERTAINTY = UncertaintyPair(lambda phi: float(phi.eval(-phi.delay)[0]),
                                      lambda phi: float(phi.eval(-phi.delay)[1]))


_NAME = re.compile(r"\b(xd|x|v|f)(\d+)\b")


def _reads(text: str, kind: str) -> list:
    """The components of kind "x", "xd" or "v" that `text` names, sorted."""
    return sorted({int(j) for k, j in _NAME.findall(text) if k == kind})


def _splice(text: str, names: dict) -> str:
    """`text` with each name kind + j renamed names[kind] + j."""
    return _NAME.sub(lambda g: names[g[1]] + g[2], text)


def _formula(text: str, n: int, **params) -> Callable:
    """The pointwise formula of `text`, statements over x0, ..., xd0, ...
    and v0, ... that assign f0, ..., binding `params` and the components
    it names; it keeps `text` and `params`, which the solver splices."""
    reads = "".join(f"    {c}{j} = {c}[{j}]\n" for c in ("x", "xd", "v") for j in _reads(text, c))
    body = "".join(f"    {line}\n" for line in text.splitlines())
    returns = "".join(f"f{j}, " for j in range(n))
    namespace = dict(params)
    exec(f"def pointwise(x, xd, v):\n{reads}{body}    return ({returns})\n", namespace)
    pointwise = namespace["pointwise"]
    pointwise.text, pointwise.params = text, params
    return pointwise


# the built-in formulas, as text; example1's delayed coupling is x2(t - delay)
_EXAMPLE1 = """q = x0 * x0 + xd1 * xd1
f0 = -0.5 * x0 + xd1 + x1 * q
f1 = -2.0 * x1 - x0 * q + v0"""

_EXAMPLE2 = """q = x0 * x0 + xd1 * xd1
f0 = -0.5 * x0 + xd0 + x1 * q
f1 = -2.0 * x1 - x0 * q + v0"""

# example2's built-in delayed uncertainty, eps * x(t - delay)
_DELAYED = """f0 = f0 + eps * xd0
f1 = f1 + eps * xd1"""

_EXAMPLE3 = """q = x0 * x0 + xd1 * xd1
f0 = -0.5 * x0 + xd0 + x1 * q
f1 = -2.0 * x1 - x1 ** 3 - x0 * q + v0"""

_LINEAR = "f0 = -a * x0 + b * xd0 + v0"


def make_example1(delay: float) -> DelaySystem:
    """Planar system with a delayed cross-coupling and cubic rotation terms."""
    return DelaySystem(2, 1, delay, None, "example1", _formula(_EXAMPLE1, 2))


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
    if d is not None and d is not DELAYED_UNCERTAINTY:
        d.validate(2, delay)
    if d is DELAYED_UNCERTAINTY and epsilon != 0.0:
        return DelaySystem(2, 1, delay, None, name,
                           _formula(f"{_EXAMPLE2}\n{_DELAYED}", 2, eps=epsilon))
    plain = DelaySystem(2, 1, delay, None, name, _formula(_EXAMPLE2, 2))
    if d is None or epsilon == 0.0:
        return plain
    core = plain.field

    def field(phi, v):
        return core(phi, v) + epsilon * np.array([d.d1(phi), d.d2(phi)])

    return DelaySystem(2, 1, delay, field, name)


def make_example3(delay: float) -> DelaySystem:
    """example2 with epsilon = 0 plus an extra -x2^3 term in the second
    equation.  The quartic it induces in x(0)'f(x_t, .) defeats every
    quadratic lower growth bound."""
    return DelaySystem(2, 1, delay, None, "example3", _formula(_EXAMPLE3, 2))


def make_linear_baseline(a: float, b: float, delay: float) -> DelaySystem:
    """Scalar dx/dt = -a x(t) + b x(t - delay) + u(t); solvable by hand."""
    return DelaySystem(1, 1, delay, name=f"linear(a={a:g},b={b:g})",
                       pointwise=_formula(_LINEAR, 1, a=a, b=b))


# ---------------------------------------------------------------------------
# input signals

@lru_cache(maxsize=None)
def zero_input(m: int = 1) -> InputSignal:
    """The zero input of dimension m, built once per m: an InputSignal is
    frozen, and building one formats its value into a name."""
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

    Each segment's value is drawn once, from its own generator,
    np.random.default_rng of the seed key followed by the segment index,
    and kept as a read-only array, which
    a float t returns itself."""
    if switch_dt <= 0:
        raise ValueError("switch_dt must be positive")

    @lru_cache(maxsize=None)
    def _segment(j: int) -> np.ndarray:
        rng = np.random.default_rng((seed, j) if np.isscalar(seed) else (*seed, j))
        value = rng.uniform(-amplitude, amplitude, m)
        value.flags.writeable = False
        return value

    def evaluate(t):
        if np.ndim(t) == 0:
            return _segment(math.floor(t / switch_dt))
        j = np.floor(np.divide(t, switch_dt))
        lo, hi = (j.min(), j.max()) if j.size else (0.0, math.inf)
        if not hi - lo < 2 * j.size:
            # times too sparse for a table over their range of segments,
            # or not finite: one call per time
            return np.reshape([_segment(math.floor(s / switch_dt))
                               for s in np.ravel(t).tolist()], np.shape(t) + (m,))
        # a table over the range, filled on the segments some time falls in
        rows = (j - lo).astype(np.intp)
        table = np.empty((int(hi - lo) + 1, m))
        for i in np.flatnonzero(np.bincount(rows)).tolist():
            table[i] = _segment(int(lo) + i)
        return table.take(rows, 0)

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
