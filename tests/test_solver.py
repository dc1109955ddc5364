import csv
import dataclasses
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krasovskii.histories import (
    _interp_rows,
    constant_history,
    random_history,
    window,
    zero_history,
)
from krasovskii.solver import (
    BLEW_UP,
    COMPLETED,
    _first_bad,
    _initial_grid,
    export_csv,
    history_norm_series,
    integrate,
)
from krasovskii.systems import (
    DelaySystem,
    build_system,
    constant_input,
    make_example1,
    make_linear_baseline,
    piecewise_noise_input,
    sinusoid_input,
    step_input,
    zero_input,
)
from tests.conftest import shift_input


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
            if not np.all(np.isfinite(ynew)) or np.linalg.norm(ynew) > blowup_threshold:
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
        for seed in range(6):
            x0 = random_history((53, seed), 2, delay, 100.0, (0, 2, 8)[seed % 3])
            traj = assert_matches_reference(sys, x0, parity_input(kind, seed),
                                            horizon, dt)
            assert traj.status == BLEW_UP
        # every one of the six blow-ups passes through x[1] ** 3's overflow
        assert overflows[0] == 6

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


def first_bad_reference(rows, threshold):
    for i, row in enumerate(rows):
        if not np.all(np.isfinite(row)) or np.linalg.norm(row) > threshold:
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
    # rows whose norm over a batch, np.linalg.norm(rows, axis=1), lies on
    # the other side of 1e9 from the norm of the row alone
    @example((np.array([[3.0, 4.0], [234177992.15863955, 972193739.9451553]]), 1e9))
    @example((np.array([[605875570.4250425, 795559421.515533]]), 1e9))
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
    left-edge term as np.linalg.norm of one vector."""
    times = traj.times
    mag = np.linalg.norm(traj.values, axis=1)
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
                peak = max(peak, float(np.linalg.norm(edge)))
            norms[pos] = peak
            pos += 1
    return times[out_idx], norms


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
