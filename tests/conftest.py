import math

import numpy as np
import pytest
from hypothesis import settings

from krasovskii.functionals import IntegralQuadratic, PointQuadratic, Sum
from krasovskii.histories import (
    HistoryFunction,
    _edge_tol,
    _interp_rows,
    _window_of_rows,
)
from krasovskii.systems import InputSignal

# property tests draw the same examples on every run, keep no example
# database and have no deadline: the tier-1 suite stays deterministic on
# a loaded machine
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")


def shift_input(u: InputSignal, offset: float) -> InputSignal:
    """u shifted left: the result evaluated at t equals u(t + offset), the
    input of a run restarted at time offset."""
    return InputSignal(u.m, lambda t: u.evaluate(t + offset),
                       f"{u.name}+{offset:g}")


def window(traj, t: float) -> HistoryFunction:
    """The history x_t(tau) = x(t + tau) extracted from a trajectory.

    `traj` is any object with attributes `times` (increasing, starting
    at -delay), `values` ((len(times), n) array) and `delay`.
    """
    delay = traj.delay
    times = traj.times
    values = traj.values
    tol = _edge_tol(max(delay, abs(times[-1])))
    if t < -tol or t > times[-1] + tol:
        raise ValueError(f"t={t} outside the trajectory domain [0, {times[-1]}]")
    t = min(max(t, 0.0), times[-1])
    return _window_of_rows(times, values, delay, t, times.shape[0],
                           _interp_rows(times, values, np.array([t]))[0])


def norm_reference(row) -> float:
    """|row| in Python floats: the squares added left to right from 0.0,
    then the square root, the package's norm rule for up to 7 entries."""
    total = 0.0
    for x in np.asarray(row, dtype=float).tolist():
        total += x * x
    return math.sqrt(total)


def standard_lkf():
    """|phi(0)|^2 + 2 * integral of phi_2^2 over the delay window."""
    return Sum(PointQuadratic(np.eye(2)),
               IntegralQuadratic(np.diag([0.0, 2.0])))


@pytest.fixture
def lkf():
    return standard_lkf()
