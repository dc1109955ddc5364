import numpy as np
import pytest
from hypothesis import settings

from krasovskii.functionals import IntegralQuadratic, PointQuadratic, Sum
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


def standard_lkf():
    """|phi(0)|^2 + 2 * integral of phi_2^2 over the delay window."""
    return Sum(PointQuadratic(np.eye(2)),
               IntegralQuadratic(np.diag([0.0, 2.0])))


@pytest.fixture
def lkf():
    return standard_lkf()
