import csv
import dataclasses
import io
import math
from collections import deque
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krasovskii import solver
from krasovskii.histories import (
    _interp_rows,
    _norm,
    constant_history,
    random_history,
    zero_history,
)
from krasovskii.solver import (
    BLEW_UP,
    COMPLETED,
    _first_bad,
    _initial_grid,
    _loop,
    _slots,
    _write_table,
    export_csv,
    history_norm_series,
    integrate,
)
from krasovskii.systems import (
    DELAYED_UNCERTAINTY,
    DelaySystem,
    InputSignal,
    _formula,
    build_system,
    constant_input,
    make_example1,
    make_example2,
    make_linear_baseline,
    piecewise_noise_input,
    sinusoid_input,
    step_input,
    zero_input,
)
from tests.conftest import norm_reference, shift_input, window


def _interp_row_reference(times, values, t):
    # the scalar delayed read of the per-step kernel
    idx = int(np.searchsorted(times, t, side="right")) - 1
    if idx >= times.shape[0] - 1:
        idx = times.shape[0] - 2
    elif idx < 0:
        idx = 0
    g0 = times[idx]
    lam = (t - g0) / (times[idx + 1] - g0)
    if lam <= 0.0:
        return values[idx]
    if lam >= 1.0:
        return values[idx + 1]
    return (1.0 - lam) * values[idx] + lam * values[idx + 1]


def per_step_reference(sys, x0, u, horizon, dt, blowup_threshold=1e9):
    """The pointwise path as one RK4 step at a time: three scalar delayed
    reads and one blow-up check per step, on NumPy rows, so a formula's
    overflow gives inf or nan here where the solver's Python floats
    raise.  Returns (times, values, status, t_escape)."""
    if u is None:
        u = zero_input(sys.m)
    delay = sys.delay

    def pw(x, xd, v):
        return np.asarray(sys.pointwise(x, xd, v))

    nsteps = int(round(horizon / dt))
    neg = _initial_grid(x0, delay, dt)
    times = np.concatenate([neg, dt * np.arange(1, nsteps + 1)])
    values = np.empty((times.shape[0], sys.n))
    values[:neg.shape[0]] = x0.eval(neg)
    zero_idx = neg.shape[0] - 1
    half = 0.5 * dt
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(nsteps):
            base = zero_idx + j
            t = times[base]
            y = values[base]
            if delay > 0:
                xd1 = _interp_row_reference(times, values, t - delay)
                xdm = _interp_row_reference(times, values, t + half - delay)
                xd2 = _interp_row_reference(times, values, t + dt - delay)
                k1 = pw(y, xd1, u.evaluate(t))
                k2 = pw(y + half * k1, xdm, u.evaluate(t + half))
                k3 = pw(y + half * k2, xdm, u.evaluate(t + half))
                k4 = pw(y + dt * k3, xd2, u.evaluate(t + dt))
            else:
                y1 = y
                k1 = pw(y1, y1, u.evaluate(t))
                y2 = y + half * k1
                k2 = pw(y2, y2, u.evaluate(t + half))
                y3 = y + half * k2
                k3 = pw(y3, y3, u.evaluate(t + half))
                y4 = y + dt * k3
                k4 = pw(y4, y4, u.evaluate(t + dt))
            ynew = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(ynew)) or norm_reference(ynew) > blowup_threshold:
                return times[:base + 1], values[:base + 1], BLEW_UP, float(times[base + 1])
            values[base + 1] = ynew
    return times, values, COMPLETED, None


def assert_matches_reference(sys, x0, u, horizon, dt, blowup_threshold=1e9):
    traj = integrate(sys, x0, u, horizon, dt, blowup_threshold)
    times, values, status, t_escape = per_step_reference(
        sys, x0, u, horizon, dt, blowup_threshold)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.values, values)
    assert traj.status == status
    assert traj.t_escape == t_escape
    return traj


def cubic_growth_system():
    # dx/dt = x^3 escapes at t = 1/(2 x0^2) from a constant history
    return DelaySystem(1, 1, 0.0, lambda phi, v: phi.eval(0.0) ** 3,
                       "cubic-growth")


def counting_overflows(sys):
    """sys with its formula wrapped to count the OverflowErrors it raises
    (Python floats raise where NumPy returns inf), and the count."""
    count = [0]
    pw = sys.pointwise

    def pointwise(x, xd, v):
        try:
            return pw(x, xd, v)
        except OverflowError:
            count[0] += 1
            raise

    return dataclasses.replace(sys, pointwise=pointwise), count


class TestBasics:
    def test_exponential_decay(self):
        sys = make_linear_baseline(1.0, 0.0, 0.0)
        traj = integrate(sys, constant_history(0.0, [1.0]), None, 1.0, 1e-3)
        assert traj.status == COMPLETED
        assert traj.values[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_method_of_steps_hand_solution(self):
        # a=0, b=-1: on [0, 1] the derivative is the constant -1
        sys = make_linear_baseline(0.0, -1.0, 1.0)
        traj = integrate(sys, constant_history(1.0, [1.0]), None, 1.0, 1e-3)
        assert traj.values[-1, 0] == pytest.approx(0.0, abs=1e-6)
        sel = traj.times >= 0.0
        assert np.allclose(traj.values[sel, 0], 1.0 - traj.times[sel], atol=1e-9)

    def test_zero_stays_zero(self):
        sys = make_example1(1.0)
        traj = integrate(sys, zero_history(1.0, 2), zero_input(1), 2.0, 0.01)
        assert np.max(np.abs(traj.values)) == 0.0

    def test_blowup_escape_time(self):
        traj = integrate(cubic_growth_system(), constant_history(0.0, [2.0]),
                         None, 1.0, 1e-4)
        assert traj.status == BLEW_UP
        assert traj.t_escape == pytest.approx(0.125, abs=0.01)
        assert np.all(np.isfinite(traj.values))
        assert traj.times[-1] < traj.t_escape + 1e-12

    def test_initial_segment_reproduces_history_nodes(self):
        x0 = random_history(13, 2, 1.0, 1.0, 3)
        sys = make_example1(1.0)
        traj = integrate(sys, x0, None, 0.5, 0.01)
        phi = window(traj, 0.0)
        assert np.allclose(phi.eval(x0.grid), x0.values, rtol=0, atol=1e-14)

    def test_window_of_decay_solution(self):
        sys = make_linear_baseline(1.0, 0.0, 1.0)
        traj = integrate(sys, constant_history(1.0, [1.0]), None, 2.0, 1e-3)
        phi = window(traj, 1.0)
        taus = np.linspace(-1.0, 0.0, 11)
        assert np.allclose(phi.eval(taus)[:, 0], np.exp(-(1.0 + taus)),
                           atol=1e-6)

    def test_windows_have_strictly_increasing_grids(self):
        # a node just past t - delay can round onto -delay once shifted
        # (t = 1.18, 1.19, ... here); the window must drop it
        sys = make_example1(1.0)
        x0 = random_history(29, 2, 1.0, 1.0, 2)
        traj = integrate(sys, x0, sinusoid_input(1.0, 1.0), 2.0, 0.01)
        for t in traj.times[traj.times >= 0.0]:
            phi = window(traj, t)
            assert np.all(np.diff(phi.grid) > 0), t
            assert phi.grid[0] == -1.0 and phi.grid[-1] == 0.0

    def test_window_endpoint_exact_at_grid_points(self):
        sys = make_example1(1.0)
        x0 = random_history(17, 2, 1.0, 1.0, 2)
        traj = integrate(sys, x0, None, 1.0, 0.01)
        for t in (0.25, 0.5, 1.0):
            idx = int(np.searchsorted(traj.times, t))
            assert traj.times[idx] == pytest.approx(t, abs=1e-12)
            assert np.array_equal(window(traj, traj.times[idx]).eval(0.0),
                                  traj.values[idx])


PARITY_SYSTEMS = [
    pytest.param("example1", {}, id="example1"),
    pytest.param("example2", {"epsilon": 0.05, "uncertainty": "delayed"},
                 id="example2-delayed"),
    pytest.param("example3", {}, id="example3"),
    pytest.param("linear", {"a": 1.0, "b": 0.5}, id="linear"),
]


PARITY_INPUTS = ["zero", "constant", "step", "sinusoid", "noise"]


def parity_input(kind, seed):
    # switch times off every step grid below
    if kind == "zero":
        return None
    if kind == "constant":
        return constant_input(0.35)
    if kind == "step":
        return step_input(0.537, [0.0], [0.8])
    if kind == "sinusoid":
        return sinusoid_input(1.0, 2.0, 0.3)
    return piecewise_noise_input(seed, 0.5, 0.0437)


class TestBlockParity:
    """The block path against the per-step reference, bit for bit.

    0.7, 0.2 and 0.1 are not binary fractions, so t - delay often rounds
    off the step nodes, at 0.7 and 0.1 also just past the node one delay
    back of a step's end; no horizon is a multiple of its delay; 2 and 8
    modes put x0 nodes off the step grid."""

    GRIDS = [(1.0, 0.01, 2.37), (0.7, 0.01, 1.53), (0.1, 0.01, 0.83),
             (0.2, 2e-3, 0.514)]

    @pytest.mark.parametrize("kind", PARITY_INPUTS)
    @pytest.mark.parametrize("name, params", PARITY_SYSTEMS)
    def test_twenty_seeds(self, name, params, kind):
        for seed in range(20):
            delay, dt, horizon = self.GRIDS[seed % 4]
            sys = build_system(name, delay, params)
            x0 = random_history((41, seed), sys.n, delay, 1.0,
                                (0, 2, 8)[(seed // 4) % 3])
            traj = assert_matches_reference(sys, x0, parity_input(kind, seed),
                                            horizon, dt)
            assert traj.status == COMPLETED

    @pytest.mark.parametrize("kind", PARITY_INPUTS)
    @pytest.mark.parametrize("name, params", PARITY_SYSTEMS)
    def test_zero_delay(self, name, params, kind):
        sys = build_system(name, 0.0, params)
        for seed in range(20):
            x0 = random_history((43, seed), sys.n, 0.0, 1.0, 0)
            assert_matches_reference(sys, x0, parity_input(kind, seed), 0.57,
                                     0.01)

    @pytest.mark.parametrize("delay", [0.0, 0.1, 1.0])
    def test_threshold_blowup(self, delay):
        # exp(40 t) passes 1e9 at t = 0.52: in the first block at delay 1,
        # in the sixth at delay 0.1
        sys = make_linear_baseline(-40.0, 0.0, delay)
        for threshold in (1e3, 1e6, 1e9):
            traj = assert_matches_reference(sys, constant_history(delay, [1.0]),
                                            None, 1.5, 0.01, threshold)
            assert traj.status == BLEW_UP

    @pytest.mark.parametrize("delay", [0.0, 0.1, 1.0])
    def test_non_finite_blowup(self, delay):
        # x' = x^3 + x(t - delay)^3 escapes before t = 0.125 from x0 = 2;
        # an infinite threshold leaves only the finiteness check
        def pointwise(x, xd, v):
            return (x[0] ** 3 + xd[0] ** 3,)

        sys = DelaySystem(1, 1, delay,
                          lambda phi, v: pointwise(phi.eval(0.0),
                                                   phi.eval(-delay), v),
                          "cubic-growth", pointwise)
        sys, overflows = counting_overflows(sys)
        for dt in (0.025, 0.01, 0.004):
            traj = assert_matches_reference(sys, constant_history(delay, [2.0]),
                                            None, 0.5, dt, np.inf)
            assert traj.status == BLEW_UP
        # each blow-up passes through the formula's OverflowError
        assert overflows[0] == 3


class TestArithmeticErrorRule:
    """A formula's OverflowError ends the block with a NaN state, which
    the blow-up cut turns into the row and t_escape of NumPy's inf."""

    @pytest.mark.parametrize("delay, dt, horizon",
                             TestBlockParity.GRIDS + [(0.0, 0.01, 0.57)])
    @pytest.mark.parametrize("kind", ["zero", "noise"])
    def test_example3_at_scale_100(self, delay, dt, horizon, kind):
        sys, overflows = counting_overflows(build_system("example3", delay))
        # at 1e9 the threshold mostly cuts a row before the overflow; an
        # infinite threshold leaves the cut to the NaN row alone
        for threshold in (1e9, math.inf):
            for seed in range(6):
                x0 = random_history((53, seed), 2, delay, 100.0,
                                    (0, 2, 8)[seed % 3])
                traj = assert_matches_reference(
                    sys, x0, parity_input(kind, seed), horizon, dt, threshold)
                assert traj.status == BLEW_UP
        # every one of the twelve blow-ups passes through x[1] ** 3's
        # overflow
        assert overflows[0] == 12

    @settings(max_examples=100, deadline=None)
    @given(case=st.sampled_from(PARITY_SYSTEMS),
           grid=st.sampled_from(TestBlockParity.GRIDS + [(0.0, 0.01, 0.57)]),
           scale=st.sampled_from([1.0, 10.0, 100.0]),
           modes=st.sampled_from([0, 2, 8]),
           kind=st.sampled_from(["zero", "step", "sinusoid", "noise"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_builtins_match_the_reference(self, case, grid, scale, modes,
                                          kind, seed):
        name, params = case.values
        delay, dt, horizon = grid
        sys = build_system(name, delay, params)
        x0 = random_history((59, seed), sys.n, delay, scale, modes)
        assert_matches_reference(sys, x0, parity_input(kind, seed), horizon, dt)


def _x0(phi):
    return float(phi.eval(0.0)[0])


class TestGeneralFieldRule:
    """A general field steps by the formula path's rules: its inputs are
    read once per trajectory, as a formula's are, and an
    ArithmeticError in a stage gives a NaN state, cut at the row and
    t_escape of the formula kernel."""

    @pytest.mark.parametrize("field, formula, start", [
        # (1e8)**3 is finite; the fourth stage's cube overflows
        pytest.param(lambda phi, v: np.array([_x0(phi) ** 3, 0.0]),
                     lambda x, xd, v: (x[0] ** 3, 0.0), [1e8, 0.0],
                     id="overflow"),
        pytest.param(lambda phi, v: np.array(
            [float(phi.eval(0.0)[1]) / (_x0(phi) - 1.0), 0.0]),
                     lambda x, xd, v: (x[1] / (x[0] - 1.0), 0.0), [1.0, 1.0],
                     id="zero-division"),
    ])
    def test_blows_up_as_the_formula_kernel(self, field, formula, start):
        x0 = constant_history(1.0, start)
        general = integrate(DelaySystem(2, 1, 1.0, field), x0, None, 5.0, 0.05)
        pointwise = integrate(DelaySystem(2, 1, 1.0, pointwise=formula), x0,
                              None, 5.0, 0.05)
        for traj in (general, pointwise):
            assert traj.status == BLEW_UP
            assert traj.t_escape == 0.05
        assert np.array_equal(general.times, pointwise.times)
        assert np.array_equal(general.values, pointwise.values)

    @pytest.mark.parametrize("delay", [0.0, 0.2])
    def test_field_reads_inputs_once_per_trajectory(self, delay):
        noise = piecewise_noise_input(3, 0.5, 0.0437)
        seen = []

        def evaluate(t):
            seen.append(np.array(t, copy=True))
            return noise.evaluate(t)

        sys = make_example1(delay)
        x0 = random_history((61, 0), 2, delay, 1.0, 2)
        general = integrate(dataclasses.replace(sys, pointwise=None), x0,
                            InputSignal(1, evaluate, "counted"), 0.5, 0.01)
        assert len(seen) == 1
        tb = general.times[general.start:-1]
        assert seen[0].tobytes() == np.concatenate([tb, tb + 0.005, tb + 0.01]).tobytes()
        assert np.array_equal(general.values,
                              integrate(sys, x0, noise, 0.5, 0.01).values)

    @pytest.mark.parametrize("delay", [0.0, 0.2])
    def test_formula_kernel_reads_inputs_once_per_trajectory(self, delay):
        noise = piecewise_noise_input(3, 0.5, 0.0437)
        seen = []

        def evaluate(t):
            seen.append(np.array(t, copy=True))
            return noise.evaluate(t)

        sys = make_example1(delay)
        x0 = random_history((61, 1), 2, delay, 1.0, 2)
        traj = integrate(sys, x0, InputSignal(1, evaluate, "counted"), 0.5, 0.01)
        assert len(seen) == 1
        tb = traj.times[traj.start:-1]
        assert seen[0].tobytes() == np.concatenate([tb, tb + 0.005, tb + 0.01]).tobytes()
        assert np.array_equal(traj.values, integrate(sys, x0, noise, 0.5, 0.01).values)


def three_state_system(delay):
    """A formula of 3 components driven by a 2-component input, sizes no
    built-in has; Python's x[2] ** 3 overflows from histories of sup norm
    100."""
    def pointwise(x, xd, v):
        return (-x[0] + 0.5 * xd[2] + x[1] * x[2] + v[0],
                -2.0 * x[1] + 0.3 * xd[0] * xd[1] - x[0] * x[2] + v[1],
                -0.5 * x[2] - x[2] ** 3 + x[0] * x[1] - 0.2 * xd[1])

    return DelaySystem(3, 2, delay,
                       lambda phi, v: np.array(pointwise(phi.eval(0.0),
                                                         phi.eval(-delay), v)),
                       "three-state", pointwise)


class TestGeneratedStepper:
    """The stepper generated for n = 3 and an m = 2 noise input against
    the per-step reference, bit for bit."""

    @pytest.mark.parametrize("delay, dt, horizon",
                             TestBlockParity.GRIDS + [(0.0, 0.01, 0.57)])
    def test_three_states_two_inputs(self, delay, dt, horizon):
        sys = three_state_system(delay)
        for seed in range(4):
            x0 = random_history((61, seed), 3, delay, 1.0, (0, 2, 8)[seed % 3])
            u = piecewise_noise_input((61, seed), 0.5, 0.0437, m=2)
            traj = assert_matches_reference(sys, x0, u, horizon, dt)
            assert traj.status == COMPLETED

    @pytest.mark.parametrize("delay", [0.0, 0.1, 0.7, 1.0])
    def test_arithmetic_error_cut(self, delay):
        sys, overflows = counting_overflows(three_state_system(delay))
        escapes = set()
        for seed in range(4):
            x0 = random_history((61, seed), 3, delay, 100.0, (0, 2, 8)[seed % 3])
            u = piecewise_noise_input((61, seed), 0.5, 0.0437, m=2)
            # an infinite threshold leaves only the finiteness check
            traj = assert_matches_reference(sys, x0, u, 2 * max(delay, 0.1),
                                            0.01, np.inf)
            assert traj.status == BLEW_UP
            escapes.add(traj.t_escape)
        # each blow-up passes through one overflow, in the first step or
        # later in its block
        assert overflows[0] == 4
        assert len(escapes) > 1


def block_schedule(x0, delay, dt, horizon, values):
    """The blocks (first row, steps) of the schedule's rule, with the
    place of the last delayed read of each block that could take k =
    delay/dt steps: "<" below the first row's time, "=" on it, ">" past
    it.  k steps are taken below, or on it with every component of the
    first row nonzero; k - 1 otherwise.  `values` are the reference's
    rows; after a blow-up the blocks end with the one holding the bad
    step."""
    k, nsteps = round(delay / dt), round(horizon / dt)
    neg = _initial_grid(x0, delay, dt)
    times = np.concatenate([neg, dt * np.arange(1, nsteps + 1)])
    b0 = neg.shape[0] - 1
    end = b0 + nsteps
    blocks, reads = [], []
    while b0 < min(end, values.shape[0]):
        m = min(k, end - b0)
        if m == k:
            last = (times[b0 + k - 1] + dt) - delay
            at = "<" if last < times[b0] else "=" if last == times[b0] else ">"
            reads.append(at)
            if not (at == "<" or (at == "=" and np.all(values[b0] != 0.0))):
                m = k - 1
        blocks.append((b0, m))
        b0 += m
    return blocks, reads


def assert_block_schedule(sys, x0, u, horizon, dt, blowup_threshold=1e9):
    """The trajectory is the per-step reference's, bit for bit, and its
    blocks, seen through their one delayed read each, are the rule's."""
    seen = []

    def interp(times, values, t):
        seen.append((times.shape[0] - 1, t.shape[0] // 3))
        return _interp_rows(times, values, t)

    with mock.patch.object(solver, "_interp_rows", interp):
        traj = assert_matches_reference(sys, x0, u, horizon, dt, blowup_threshold)
    blocks, reads = block_schedule(x0, sys.delay, dt, horizon, traj.values)
    assert seen == blocks
    return traj, blocks, reads


def linear_growth_system(delay):
    # exp(40 t) passes 1e3 at t = 0.17 and 1e9 at t = 0.52
    return make_linear_baseline(-40.0, 0.5, delay)


class TestBlockSchedule:
    """A formula's blocks take a full delay, k = delay/dt steps, where the
    last delayed read lies below the block's first row, or on it with that
    row nonzero, and k - 1 steps otherwise; every trajectory stays the
    per-step reference's, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(system=st.sampled_from(["example1", "linear", "three-state"]),
           grid=st.sampled_from(TestBlockParity.GRIDS + [(0.1, 0.01, 2.03)]),
           scale=st.sampled_from([0.0, 1.0, 100.0]),
           modes=st.sampled_from([0, 2, 8]),
           kind=st.sampled_from(["zero", "constant", "noise"]),
           threshold=st.sampled_from([1e3, 1e9, math.inf]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(system="example1", grid=(1.0, 0.01, 20.37), scale=1.0, modes=2,
             kind="noise", threshold=1e9, seed=0)
    @example(system="example1", grid=(1.0, 0.01, 20.37), scale=0.0, modes=0,
             kind="zero", threshold=1e9, seed=0)
    def test_matches_the_reference(self, system, grid, scale, modes, kind,
                                   threshold, seed):
        delay, dt, horizon = grid
        if system == "example1":
            sys = make_example1(delay)
        elif system == "linear":
            sys = linear_growth_system(delay)
        else:
            sys = three_state_system(delay)
        x0 = (zero_history(delay, sys.n) if scale == 0.0 else
              random_history((67, seed), sys.n, delay, scale, modes))
        u = parity_input(kind, seed)
        if u is not None and sys.m == 2:
            u = piecewise_noise_input((67, seed), 0.5, 0.0437, m=2)
        assert_block_schedule(sys, x0, u, horizon, dt, threshold)

    def test_delay_one_at_dt_hundredth(self):
        # of the 20 reads that could end a full delay, 19 lie on their
        # node and one rounds past it
        x0 = random_history((67, 1), 2, 1.0, 1.0, 2)
        _, blocks, reads = assert_block_schedule(make_example1(1.0), x0, None,
                                                 20.37, 0.01)
        assert reads == ["="] * 16 + [">"] + ["="] * 3
        assert [m for _, m in blocks] == [100] * 16 + [99] + [100] * 3 + [38]
        # the zero history stays zero, so each of the 15 reads on their
        # node falls back; the blocks shift, and 3 reads lie below theirs
        _, blocks, reads = assert_block_schedule(make_example1(1.0),
                                                 zero_history(1.0, 2), None, 20.37, 0.01)
        assert (reads.count("="), reads.count("<"), reads.count(">")) == (15, 3, 2)
        assert [m for _, m in blocks[:-1]] == [100 if at == "<" else 99 for at in reads]

    def test_read_below_its_node(self):
        x0 = random_history((67, 2), 2, 0.1, 1.0, 2)
        _, blocks, reads = assert_block_schedule(make_example1(0.1), x0, None,
                                                 2.03, 0.01)
        assert {"<", "=", ">"} <= set(reads)
        assert [m for _, m in blocks].count(10) == reads.count("<") + reads.count("=")

    @pytest.mark.parametrize("threshold, start, bad", [(1e3, 100, 118),
                                                      (1e9, 100, 152)])
    def test_blow_up_inside_a_full_delay(self, threshold, start, bad):
        # the bad step's row lies inside the trajectory's last block, a
        # block of the full delay
        traj, blocks, _ = assert_block_schedule(
            linear_growth_system(1.0), constant_history(1.0, [1.0]), None,
            1.5, 0.01, threshold)
        assert traj.status == BLEW_UP
        assert blocks[-1] == (start, 100)
        assert traj.values.shape[0] == bad
        assert start + 1 < bad < start + 100


# every built-in formula, with non-dyadic and negative parameters
FORMULA_SYSTEMS = [
    pytest.param("example1", {}, id="example1"),
    pytest.param("example2", {}, id="example2"),
    *(pytest.param("example2", {"epsilon": eps, "uncertainty": "delayed"},
                   id=f"example2-delayed-eps={eps}") for eps in (0.0, 0.05, -0.3)),
    pytest.param("example3", {}, id="example3"),
    pytest.param("linear", {"a": 0.7, "b": -0.3}, id="linear-b<0"),
    pytest.param("linear", {"a": -0.3, "b": 0.7}, id="linear-a<0"),
]


def formula_system(name, params, delay):
    # example2's epsilon goes through make_example2, which takes any sign
    if name == "example2" and params:
        return make_example2(delay, params["epsilon"], DELAYED_UNCERTAINTY)
    return build_system(name, delay, params)


class TestFormulaText:
    """Each built-in formula is spliced into the block loop as text; the
    trajectories are the per-step reference's, bit for bit, and a
    formula installed in its place is called."""

    @pytest.mark.parametrize("kind", ["zero", "sinusoid", "noise"])
    @pytest.mark.parametrize("name, params", FORMULA_SYSTEMS)
    def test_matches_the_reference(self, name, params, kind):
        for seed, (delay, dt, horizon) in enumerate(
                TestBlockParity.GRIDS + [(0.0, 0.01, 0.57)]):
            sys = formula_system(name, params, delay)
            assert sys.pointwise.text
            x0 = random_history((67, seed), sys.n, delay, 1.0, (0, 2, 8)[seed % 3])
            assert_matches_reference(sys, x0, parity_input(kind, seed), horizon, dt)

    @pytest.mark.parametrize("delay, dt, horizon",
                             TestBlockParity.GRIDS + [(0.0, 0.01, 0.57)])
    def test_example3_overflow_cut(self, delay, dt, horizon):
        # the spliced x1 ** 3 raises as the called formula did
        sys = build_system("example3", delay)
        for threshold in (1e9, math.inf):
            for seed in range(4):
                x0 = random_history((53, seed), 2, delay, 100.0,
                                    (0, 2, 8)[seed % 3])
                traj = assert_matches_reference(sys, x0, None, horizon, dt,
                                                threshold)
                assert traj.status == BLEW_UP

    @pytest.mark.parametrize("delay", [0.0, 0.7])
    @pytest.mark.parametrize("name, params", FORMULA_SYSTEMS)
    def test_replaced_formula_is_called(self, name, params, delay):
        sys = formula_system(name, params, delay)
        calls = [0]
        pw = sys.pointwise

        def counted(x, xd, v):
            calls[0] += 1
            return pw(x, xd, v)

        x0 = random_history((71, 0), sys.n, delay, 1.0, 2)
        u = sinusoid_input(1.0, 2.0, 0.3)
        wrapped = dataclasses.replace(sys, pointwise=counted)
        assert calls == [1]  # the probe at construction
        traj = integrate(wrapped, x0, u, 1.4, 0.01)
        # four stages of each of the 140 steps
        assert calls == [1 + 4 * 140]
        plain = integrate(sys, x0, u, 1.4, 0.01)
        assert np.array_equal(traj.values, plain.values)


def sparse_reference(x, xd, v):
    # sparse_system's formula as a callable written out by hand
    return (-x[0] + 0.5 * xd[2] + v[1],
            -2.0 * x[1] - x[0] * x[2],
            -0.5 * x[2] + x[0] * x[1] - 0.2 * xd[2] * v[1])


def sparse_system(delay):
    """Three states and two inputs: the formula is built from text by
    `systems._formula`, and the field is `sparse_reference` at phi(0)
    and phi(-delay); the text reads xd2 and v1 only, so a block reads
    neither xd0, xd1 nor v0."""
    text = ("f0 = -x0 + 0.5 * xd2 + v1\n"
            "f1 = -2.0 * x1 - x0 * x2\n"
            "f2 = -0.5 * x2 + x0 * x1 - 0.2 * xd2 * v1")
    return DelaySystem(3, 2, delay,
                       lambda phi, v: np.array(sparse_reference(
                           phi.eval(0.0), phi.eval(-delay), v)),
                       "sparse", _formula(text, 3))


def echo_system(delay):
    """dx/dt = v, one state and one input, as text and as the same
    callable: from the -0.0 history under a -0.0 input every state stays
    -0.0, so the input's zero sign reaches the states' bits."""
    def pointwise(x, xd, v):
        return (v[0],)

    pointwise.text = "f0 = v0"
    pointwise.params = {}
    return DelaySystem(1, 1, delay, lambda phi, v: np.array([v[0]]), "echo",
                       pointwise)


def copied_input(u):
    """u's values through an evaluate that returns a fresh array, which
    the solver reads column by column."""
    return InputSignal(u.m, lambda t: np.array(u.evaluate(t)), "copied")


class TestReadSet:
    """A block reads only the delayed and input components its formula
    text names, and binds a constant input once; the trajectories stay
    the per-step reference's, bit for bit."""

    GRIDS = TestBlockParity.GRIDS + [(0.0, 0.01, 0.57)]

    def test_read_set(self):
        text = sparse_system(1.0).pointwise.text
        assert _loop(text, 3, 2, True)[1:] == ([2], [1])
        assert _loop(text, 3, 2, False)[1:] == ([], [1])

    @pytest.mark.parametrize("delay, dt, horizon", GRIDS)
    def test_formula_of_two_inputs_is_the_reference(self, delay, dt, horizon):
        # the text's formula, as the sweeps call it on columns and as the
        # solver splices it, against the callable written out by hand
        sys = sparse_system(delay)
        rng = np.random.default_rng(89)
        x, xd, v = (rng.standard_normal((k, 64)) for k in (3, 3, 2))
        assert (np.array(sys.pointwise(x, xd, v)).tobytes()
                == np.array(sparse_reference(x, xd, v)).tobytes())
        x0 = random_history((89, 0), 3, delay, 1.0, 2)
        u = piecewise_noise_input((89, 0), 0.5, 0.0437, m=2)
        general = integrate(dataclasses.replace(sys, pointwise=None), x0, u,
                            horizon, dt)
        assert general.values.tobytes() == integrate(sys, x0, u, horizon, dt).values.tobytes()

    @pytest.mark.parametrize("delay, dt, horizon", GRIDS)
    def test_ignored_components(self, delay, dt, horizon):
        sys = sparse_system(delay)
        for seed in range(4):
            x0 = random_history((73, seed), 3, delay, 1.0, (0, 2, 8)[seed % 3])
            u = piecewise_noise_input((73, seed), 0.5, 0.0437, m=2)
            traj = assert_matches_reference(sys, x0, u, horizon, dt)
            assert traj.status == COMPLETED

    @pytest.mark.parametrize("delay, dt, horizon", GRIDS)
    @pytest.mark.parametrize("value", [[0.35, -0.0], [-0.0, 0.35], [0.0, -0.0],
                                       [-0.0]])
    def test_constant_input_is_its_columns(self, value, delay, dt, horizon):
        # a constant input is a stride-0 broadcast, bound once per block;
        # the same values through a fresh array are read as columns.  The
        # one-component input drives echo_system from the -0.0 history
        u = constant_input(value)
        assert u.evaluate(np.arange(3.0)).strides[0] == 0
        assert copied_input(u).evaluate(np.arange(3.0)).strides[0] != 0
        if len(value) == 1:
            sys, starts = echo_system(delay), [constant_history(delay, value)]
        else:
            sys = sparse_system(delay)
            starts = [random_history((79, seed), 3, delay, 1.0, (0, 2, 8)[seed % 3])
                      for seed in range(3)]
        for x0 in starts:
            fixed = assert_matches_reference(sys, x0, u, horizon, dt)
            read = assert_matches_reference(sys, x0, copied_input(u), horizon, dt)
            assert fixed.values.tobytes() == read.values.tobytes()
        if len(value) == 1:
            assert np.all(np.signbit(fixed.values))

    @pytest.mark.parametrize("name, params", FORMULA_SYSTEMS)
    def test_zero_delay_constant_input_reads_no_column(self, name, params):
        # at zero delay a constant input leaves the loop no column
        sys = formula_system(name, params, 0.0)
        for value in (0.35, -0.0):
            for seed in range(3):
                x0 = random_history((83, seed), sys.n, 0.0, 1.0, 0)
                assert_matches_reference(sys, x0, constant_input(value), 0.57, 0.01)


def first_bad_reference(rows, threshold):
    for i, row in enumerate(rows):
        if not np.all(np.isfinite(row)) or norm_reference(row) > threshold:
            return i
    return None


@st.composite
def blowup_rows(draw):
    """(rows, threshold): rows mixing nan, +-inf, 1e200, ordinary values
    and norms within a few ulps of 1e9, against 1e9 or inf."""
    n = draw(st.integers(1, 4))
    special = st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e200,
                               0.0, -0.0])
    ordinary = st.floats(-1e10, 1e10)
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["special", "ordinary", "near"]))
        if kind == "near":
            row = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n,
                                         max_size=n)))
            row *= 1e9 / np.linalg.norm(row)
            for _ in range(draw(st.integers(0, 4))):
                row = np.nextafter(row, draw(st.sampled_from([0.0, math.inf])))
        else:
            row = np.array(draw(st.lists(
                special | ordinary if kind == "special" else ordinary,
                min_size=n, max_size=n)))
        rows.append(row)
    return np.array(rows), draw(st.sampled_from([1e9, math.inf]))


@st.composite
def interp_cases(draw):
    """(times, values (B, L, n), points): a strictly increasing grid,
    finite rows, and random in-range points followed by every node."""
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=12))
    times = draw(st.floats(-10.0, 10.0)) + np.concatenate(([0.0], np.cumsum(steps)))
    batch, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = np.array(draw(st.lists(
        st.floats(-1e300, 1e300), min_size=batch * times.shape[0] * n,
        max_size=batch * times.shape[0] * n))).reshape(batch, -1, n)
    inside = draw(st.lists(st.floats(float(times[0]), float(times[-1])),
                           max_size=10))
    return times, values, np.concatenate((inside, times))


class TestKernelEquivalence:
    @settings(max_examples=300)
    @given(blowup_rows())
    # rows whose norm as a plain sum of squares, np.linalg.norm(rows,
    # axis=1), lies on the other side of 1e9 from a BLAS dot's norm
    @example((np.array([[3.0, 4.0], [234177992.15863955, 972193739.9451553]]), 1e9))
    @example((np.array([[605875570.4250425, 795559421.515533]]), 1e9))
    # at an infinite threshold a finite row whose norm overflows is kept,
    # and only the finiteness term finds the inf row
    @example((np.array([[1e200, 0.0], [math.inf, 0.0]]), math.inf))
    def test_first_bad_is_the_row_loop(self, case):
        rows, threshold = case
        with np.errstate(over="ignore", invalid="ignore"):
            assert _first_bad(rows, threshold) == first_bad_reference(rows, threshold)

    @settings(max_examples=200)
    @given(interp_cases())
    def test_interp_rows_is_the_scalar_read(self, case):
        times, values, points = case
        out = _interp_rows(times, values, points)
        assert out.shape == (values.shape[0], points.shape[0], values.shape[2])
        for b in range(values.shape[0]):
            for j, t in enumerate(points):
                assert np.array_equal(
                    out[b, j], _interp_row_reference(times, values[b], t))


class TestPreconditions:
    def test_delay_mismatch(self):
        sys = make_example1(1.0)
        with pytest.raises(ValueError, match="delay"):
            integrate(sys, zero_history(0.5, 2), None, 1.0, 0.01)

    def test_dt_must_divide_delay(self):
        sys = make_example1(1.0)
        with pytest.raises(ValueError, match="divide the delay"):
            integrate(sys, zero_history(1.0, 2), None, 1.0, 0.3)

    def test_dt_must_leave_delay_headroom(self):
        sys = make_example1(1.0)
        with pytest.raises(ValueError, match="delay/4"):
            integrate(sys, zero_history(1.0, 2), None, 1.0, 0.5)

    def test_dt_must_divide_horizon(self):
        sys = make_linear_baseline(1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="horizon"):
            integrate(sys, constant_history(0.0, [1.0]), None, 1.05, 0.1)


class TestAccuracy:
    def test_pure_ode_error_shrinks_16x(self):
        sys = make_linear_baseline(1.0, 0.0, 0.0)
        errs = []
        for dt in (0.05, 0.025):
            traj = integrate(sys, constant_history(0.0, [1.0]), None, 1.0, dt)
            sel = traj.times >= 0.0
            errs.append(np.max(np.abs(traj.values[sel, 0]
                                      - np.exp(-traj.times[sel]))))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.1)

    def test_semigroup_restart(self):
        sys = make_example1(1.0)
        u = sinusoid_input(0.5, 1.3)
        x0 = random_history(23, 2, 1.0, 1.0, 2)
        dt = 0.01
        straight = integrate(sys, x0, u, 2.0, dt)
        first = integrate(sys, x0, u, 1.0, dt)
        restart = integrate(sys, window(first, 1.0), shift_input(u, 1.0),
                            1.0, dt)
        assert np.linalg.norm(restart.values[-1] - straight.values[-1]) <= 10 * dt ** 4 + 1e-9

    @pytest.mark.parametrize("name, params", [
        pytest.param("example1", {}, id="example1"),
        pytest.param("example3", {}, id="example3"),
        pytest.param("linear", {"a": 1.0, "b": 0.5}, id="linear"),
        pytest.param("example2", {"epsilon": 0.05, "uncertainty": "delayed"},
                     id="example2-delayed"),
    ])
    def test_fast_and_general_paths_agree(self, name, params):
        # the derived field on stage histories reads exactly the values
        # the pointwise path interpolates, so the two agree bit for bit
        sys = build_system(name, 1.0, params)
        general = dataclasses.replace(sys, pointwise=None)
        x0 = random_history(29, sys.n, 1.0, 1.0, 2)
        u = sinusoid_input(1.0, 2.0)
        a = integrate(sys, x0, u, 2.0, 0.01)
        b = integrate(general, x0, u, 2.0, 0.01)
        assert np.array_equal(a.values, b.values)

    def test_determinism(self):
        sys = make_example1(1.0)
        x0 = random_history(31, 2, 1.0, 1.0, 2)
        a = integrate(sys, x0, None, 1.0, 0.01)
        b = integrate(sys, x0, None, 1.0, 0.01)
        assert np.array_equal(a.values, b.values)


def norm_series_reference(traj):
    """Reference: the window maxima of history_norm_series as a loop over
    the nodes, with a deque of candidate maxima, and the interpolated
    left-edge term as the Python-float norm of one vector."""
    times = traj.times
    mag = [norm_reference(row) for row in traj.values]
    out_idx = np.nonzero(times >= -1e-15)[0]
    norms = np.empty(out_idx.shape[0])
    dq = deque()
    left = 0
    pos = 0
    for i in range(times.shape[0]):
        while dq and mag[dq[-1]] <= mag[i]:
            dq.pop()
        dq.append(i)
        if pos < out_idx.shape[0] and i == out_idx[pos]:
            lo = times[i] - traj.delay
            while times[left] < lo:
                left += 1
            while dq[0] < left:
                dq.popleft()
            peak = mag[dq[0]]
            if left > 0 and times[left] > lo:
                g0 = times[left - 1]
                lam = (lo - g0) / (times[left] - g0)
                edge = (1.0 - lam) * traj.values[left - 1] + lam * traj.values[left]
                peak = max(peak, norm_reference(edge))
            norms[pos] = peak
            pos += 1
    return times[out_idx], norms


class TestWindowMax:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 300),
           levels=st.sets(st.integers(0, 8), min_size=1),
           count=st.integers(1, 40))
    @example(seed=1, size=300, levels={0, 5, 8}, count=40)
    @example(seed=2, size=1, levels={0}, count=3)
    def test_equals_the_brute_force_maximum(self, seed, size, levels, count):
        # windows of a few levels, 2^j <= length < 2^(j+1), the levels
        # between them absent
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(size) ** 2
        lengths = []
        for j in rng.choice(sorted(levels), count).tolist():
            top = min(2 ** (j + 1) - 1, size)
            if 2 ** j <= top:
                lengths.append(int(rng.integers(2 ** j, top + 1)))
        if not lengths:
            lengths = [1]
        lo = np.array([int(rng.integers(0, size - n + 1)) for n in lengths])
        hi = lo + np.array(lengths) - 1
        brute = np.array([a[i:k + 1].max() for i, k in zip(lo, hi)])
        assert solver._window_max(a, lo, hi).tobytes() == brute.tobytes()


def assert_same_norm_series(traj):
    t_out, norms = history_norm_series(traj)
    t_ref, n_ref = norm_series_reference(traj)
    assert t_out.tobytes() == t_ref.tobytes()
    assert norms.tobytes() == n_ref.tobytes()


class TestStartRow:
    @settings(max_examples=80, deadline=None)
    @given(dt=st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.25]),
           k=st.sampled_from([0]) | st.integers(4, 30),
           nsteps=st.integers(1, 60), modes=st.integers(0, 9),
           rate=st.sampled_from([1.0, -40.0, -1e6]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(dt=0.01, k=100, nsteps=1, modes=8, rate=-1e6, seed=0)
    def test_start_is_the_zero_row(self, dt, k, nsteps, modes, rate, seed):
        # rate -40 blows up inside the horizon, -1e6 within the first step
        delay = k * dt
        sys = make_linear_baseline(rate, 0.5, delay)
        x0 = random_history(seed, 1, delay, 1.0, modes)
        traj = integrate(sys, x0, None, nsteps * dt, dt)
        times = traj.times
        start = traj.start
        assert times[start] == 0.0
        assert np.all(times[:start] < 0.0)
        # the rows of both rules it replaces
        out = np.arange(start, times.shape[0])
        assert np.array_equal(np.flatnonzero(times >= 0.0), out)
        assert np.array_equal(np.flatnonzero(times >= -1e-15), out)


class TestNormSeries:
    @pytest.mark.parametrize("delay, dt, horizon",
                             TestBlockParity.GRIDS + [(0.0, 0.01, 0.57)])
    def test_matches_loop_reference(self, delay, dt, horizon):
        # 2 and 8 modes put x0 nodes off the step grid, so the windows
        # over the initial segment vary in length
        for case in PARITY_SYSTEMS:
            name, params = case.values
            sys = build_system(name, delay, params)
            for seed in range(6):
                x0 = random_history((47, seed), sys.n, delay, 1.0,
                                    (0, 2, 8)[seed % 3])
                assert_same_norm_series(integrate(
                    sys, x0, parity_input("sinusoid", seed), horizon, dt))

    @pytest.mark.parametrize("delay", [0.0, 0.1, 1.0])
    def test_blown_up_matches_loop_reference(self, delay):
        sys = make_linear_baseline(-40.0, 0.0, delay)
        traj = integrate(sys, constant_history(delay, [1.0]), None, 1.5, 0.01)
        assert traj.status == BLEW_UP
        assert_same_norm_series(traj)

    def test_against_brute_force(self):
        sys = make_example1(1.0)
        x0 = random_history(37, 2, 1.0, 1.0, 4)
        traj = integrate(sys, x0, None, 2.0, 0.05)
        t_out, norms = history_norm_series(traj)
        mag = np.linalg.norm(traj.values, axis=1)
        for t, nrm in zip(t_out[::7], norms[::7]):
            lo = t - 1.0
            inside = (traj.times >= lo - 1e-12) & (traj.times <= t + 1e-12)
            dense = np.linspace(lo, t, 400)
            phi_vals = np.array([np.interp(s, traj.times, traj.values[:, k])
                                 for k in range(2) for s in dense])
            brute = max(np.max(mag[inside]) if np.any(inside) else 0.0,
                        np.max(np.linalg.norm(
                            np.column_stack([np.interp(dense, traj.times,
                                                       traj.values[:, k])
                                             for k in range(2)]), axis=1)))
            assert nrm >= brute - 1e-9
            assert nrm <= brute + 1e-6

    def test_zero_delay_is_pointwise_norm(self):
        sys = make_linear_baseline(1.0, 0.0, 0.0)
        traj = integrate(sys, constant_history(0.0, [2.0]), None, 1.0, 0.1)
        t_out, norms = history_norm_series(traj)
        assert np.allclose(norms, np.abs(traj.values[:, 0]), atol=0)


def csv_rows(traj, path):
    """Reference: export_csv with one % per row, as it wrote before its
    rows went through _write_table."""
    t_out, norms = history_norm_series(traj)
    xs = traj.values[traj.start:]
    header = ["t", *(f"x_{i + 1}" for i in range(traj.system.n)), "abs_x", "hist_norm"]
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    table = np.column_stack([t_out, xs, _norm(xs), norms]).tolist()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row % tuple(r) for r in table)


class TestExport:
    def test_csv_columns_and_values(self, tmp_path):
        sys = make_example1(1.0)
        traj = integrate(sys, constant_history(1.0, [1.0, 0.5]), None, 1.0, 0.05)
        path = tmp_path / "traj.csv"
        export_csv(traj, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x_1", "x_2", "abs_x", "hist_norm"]
        first = [float(x) for x in rows[1]]
        assert first[0] == 0.0
        assert first[1:3] == [1.0, 0.5]
        assert first[3] == pytest.approx(np.hypot(1.0, 0.5), rel=1e-15)

    def test_abs_x_never_exceeds_hist_norm(self, tmp_path):
        # example1 from random_history((4, 0), 2, 1, 1, 2) under a sinusoid:
        # a per-row np.linalg.norm put abs_x one ulp above hist_norm at
        # rows 186, 187 and 190 of this trajectory
        x0 = random_history((4, 0), 2, 1.0, 1.0, 2)
        traj = integrate(make_example1(1.0), x0, sinusoid_input(0.5, 3.0, 0.2),
                         5.0, 0.01)
        path = tmp_path / "traj.csv"
        export_csv(traj, path)
        with open(path) as fh:
            rows = np.array([[float(v) for v in r]
                             for r in list(csv.reader(fh))[1:]])
        assert rows.shape == (501, 5)
        assert np.all(rows[:, 3] <= rows[:, 4])
        assert np.array_equal(rows[:, 3], np.linalg.norm(rows[:, 1:3], axis=1))

    @pytest.mark.parametrize("delay, dt, horizon",
                             TestBlockParity.GRIDS + [(0.0, 0.01, 0.57)])
    @pytest.mark.parametrize("name, params", PARITY_SYSTEMS)
    def test_csv_is_the_row_writer(self, tmp_path, name, params, delay, dt,
                                   horizon):
        sys = build_system(name, delay, params)
        for seed, kind in enumerate(("zero", "sinusoid", "noise")):
            x0 = random_history((47, seed), sys.n, delay, 1.0,
                                (0, 2, 8)[seed] if delay else 0)
            traj = integrate(sys, x0, parity_input(kind, seed), horizon, dt)
            export_csv(traj, tmp_path / "table.csv")
            csv_rows(traj, tmp_path / "rows.csv")
            assert ((tmp_path / "table.csv").read_bytes()
                    == (tmp_path / "rows.csv").read_bytes())

    def test_csv_of_small_and_signed_values(self, tmp_path):
        # a decaying oscillation from 3e-5 in place of a linear run's
        # states: negative values, exponent notation (1e-6 <= |x| < 1e-4),
        # values below 1e-6 that % formats, +-0 and a subnormal, over
        # more rows than one chunk holds
        traj = integrate(make_linear_baseline(1.0, 0.5, 0.1),
                         constant_history(0.1, [1.0]), None, 8.0, 0.01)
        t = traj.times
        x = 3e-5 * np.cos(5.0 * t) * np.exp(-np.maximum(t, 0.0))
        x[[20, 21, 22, 400]] = [0.0, -0.0, 5e-324, -1e-6]
        traj = dataclasses.replace(traj, values=x[:, None])
        assert np.any((x < 0) & (np.abs(x) > 1e-6) & (np.abs(x) < 1e-4))
        assert np.any((np.abs(x) < 1e-6) & (x != 0.0))
        export_csv(traj, tmp_path / "table.csv")
        csv_rows(traj, tmp_path / "rows.csv")
        assert ((tmp_path / "table.csv").read_bytes()
                == (tmp_path / "rows.csv").read_bytes())


def table_reference(table, sep, end):
    """Reference: the rows of a float table, one % per row."""
    line = sep.join(["%.17g"] * table.shape[1]) + end
    return "".join(line % tuple(row) for row in table.tolist()).encode()


def table_bytes(table, sep, end):
    fh = io.BytesIO()
    _write_table(fh, table, sep, end)
    return fh.getvalue()


def covered(x):
    """The values _slots formats: +-0, and 1e-6 <= |x| < 1e17 exactly
    (the double nearest 1e-6 lies below it)."""
    a = np.abs(x)
    return (a == 0.0) | ((a > 1e-6) & (a < 1e17))


def neighbours(x, ulps):
    """x and the doubles up to ulps steps above and below it."""
    out = [x]
    up = down = x
    for _ in range(ulps):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out


SEPARATORS = [(" ", "\n"), (",", "\r\n")]
# every power of ten from 1e-7 to 1e18 and its 6-ulp neighbours, of either
# sign: the double below 0.1 is 0.099999999999999992, and the doubles
# nearest 1e-6, 1e-4 and 1e17 sit on the edges of the exponent notation
# and of the covered range
POWERS = np.array([sign * v for p in range(-7, 19)
                   for v in neighbours(float(f"1e{p}"), 6) for sign in (1, -1)])
# floats of every kind: any bit pattern (NaN, +-inf, +-0, subnormals),
# hypothesis's edge-seeking floats, decimals from 1e-9 to 1e19, and
# half-way cases m 2**-(1 + k), whose 17-digit roundings are ties
FLOATS = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(
        lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))),
    st.floats(width=64),
    st.builds(lambda m, k: m * 10.0 ** k, st.floats(-10.0, 10.0), st.integers(-9, 18)),
    st.builds(lambda m, k: m * 2.0 ** -(1 + k), st.integers(1, 2 ** 53),
              st.integers(0, 60)),
)


class TestWriteTable:
    """_write_table writes the bytes of its rows' %, and formats every
    covered value by itself."""

    @settings(max_examples=400, deadline=None)
    @given(values=st.lists(FLOATS, min_size=1, max_size=90),
           cols=st.integers(1, 5), seps=st.sampled_from(SEPARATORS),
           rows=st.sampled_from([1, 2, 3, 7, 512]))
    @example(values=[0.1, 0.09999999999999999, -0.0, 1e-5, 9.99999999999999e-05],
             cols=1, seps=SEPARATORS[0], rows=512)
    def test_is_the_row_format(self, values, cols, seps, rows):
        values += [1.0] * (-len(values) % cols)
        table = np.array(values).reshape(-1, cols)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_WRITE_ROWS", rows)
            assert table_bytes(table, *seps) == table_reference(table, *seps)
        x = table.ravel()
        assert np.array_equal(_slots(x, np.zeros(1, np.uint64))[1],
                              covered(x))

    @pytest.mark.parametrize("sep, end", SEPARATORS)
    @pytest.mark.parametrize("cols", [1, 2, 3])
    def test_powers_of_ten(self, sep, end, cols):
        table = POWERS[:POWERS.shape[0] // cols * cols].reshape(-1, cols)
        assert table_bytes(table, sep, end) == table_reference(table, sep, end)
        assert np.array_equal(_slots(POWERS, np.zeros(1, np.uint64))[1],
                              covered(POWERS))

    def test_no_covered_value_carries(self):
        # _slots takes the 17 digits of P = |x| 10**(16 - E) in [1e16, 1e17)
        # as they are; a carry to 1e17 would need a double within half a
        # 17th digit below a power of ten in the covered range
        for q in range(-5, 18):
            power = Fraction(10) ** q
            below = float(power)
            if Fraction(below) >= power:
                below = math.nextafter(below, 0.0)
            assert power - Fraction(below) > power / (2 * 10 ** 17)
            assert Fraction("%.17g" % below) < power

    def test_ties_round_half_to_even(self):
        table = np.array([[1125899906842624.25, 1125899906842624.75,
                           562949953421312.375]])
        assert table_bytes(table, " ", "\n") == (
            b"1125899906842624.2 1125899906842624.8 562949953421312.38\n")

    @pytest.mark.parametrize("sep, end", SEPARATORS)
    def test_rows_across_chunks(self, sep, end):
        # rows that % formats at a chunk's first and last rows, in the
        # middle, and in every row of a chunk; one-row tables of each kind
        size = solver._WRITE_ROWS
        rng = np.random.default_rng(5)
        shape = (3 * size + 2, 3)
        table = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 5, shape)
        table[[0, size - 1, size, size + 7, 3 * size + 1], 1] = [
            np.nan, 1e-7, -np.inf, 1e17, -5e-324]
        table[2 * size:3 * size, 0] = 2.5e-300
        assert table_bytes(table, sep, end) == table_reference(table, sep, end)
        for row in table[[0, 1, size - 1, 2 * size]]:
            assert (table_bytes(row[None, :], sep, end)
                    == table_reference(row[None, :], sep, end))
