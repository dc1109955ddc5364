import dataclasses
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from krasovskii.histories import (
    CONTRACTION_STREAM,
    ENSEMBLE_STREAM,
    GAIN_STREAM,
    HISTORY_STREAM,
    NOISE_STREAM,
    PROBE_STREAM,
    SAMPLER_STREAM,
    HistoryFunction,
    _norm,
    constant_history,
    driver_extension,
    random_history,
    stream_key,
    zero_history,
)
from krasovskii.systems import piecewise_noise_input
from tests.conftest import norm_reference, window


def per_mode_reference(seed, n, delay, norm_bound, modes):
    """Reference: random_history as one draw and one sum per mode, the
    form it had before the modes were drawn and summed in one pass."""
    rng = np.random.default_rng(seed)
    const = rng.standard_normal(n)
    if delay == 0.0:
        values = const[None, :]
        grid = np.array([0.0])
    else:
        npts = max(2, 8 * modes + 1)
        grid = np.linspace(-delay, 0.0, npts)
        values = np.tile(const, (npts, 1))
        for j in range(1, modes + 1):
            amp_c = rng.standard_normal(n)
            amp_s = rng.standard_normal(n)
            phase = j * np.pi * grid / delay
            values = (values + np.outer(np.cos(phase), amp_c)
                      + np.outer(np.sin(phase), amp_s))
    peak = float(np.max(np.linalg.norm(values, axis=1)))
    if norm_bound == 0.0 or peak == 0.0:
        values = np.zeros_like(values)
    else:
        values = values * (norm_bound / peak)
    return HistoryFunction(delay, grid, values)


def linear_history(delay, v_start, v_end):
    return HistoryFunction(delay, np.array([-delay, 0.0]),
                           np.array([np.atleast_1d(v_start),
                                     np.atleast_1d(v_end)], dtype=float))


class TestEval:
    def test_zero_history(self):
        phi = zero_history(1.0, 3)
        for tau in (-1.0, -0.3, 0.0):
            assert np.array_equal(phi.eval(tau), np.zeros(3))

    def test_constant_midpoint(self):
        phi = constant_history(2.0, [1.5, -2.0])
        assert np.allclose(phi.eval(-1.0), [1.5, -2.0])

    def test_linear_interpolation_by_hand(self):
        phi = linear_history(1.0, 0.0, 2.0)
        assert phi.eval(-0.5)[0] == pytest.approx(1.0, abs=0)

    def test_exact_at_nodes(self):
        phi = random_history(3, 2, 1.0, 1.0, 4)
        for i, tau in enumerate(phi.grid):
            assert np.array_equal(phi.eval(tau), phi.values[i])

    def test_out_of_range(self):
        phi = constant_history(1.0, [1.0])
        with pytest.raises(ValueError):
            phi.eval(-1.5)
        with pytest.raises(ValueError):
            phi.eval(0.5)

    def test_vectorised_queries(self):
        phi = random_history(5, 2, 1.0, 2.0, 3)
        taus = np.linspace(-1.0, 0.0, 17)
        batch = phi.eval(taus)
        for row, tau in zip(batch, taus):
            assert np.array_equal(row, phi.eval(tau))


class TestSupNorm:
    def test_zero(self):
        assert zero_history(1.0, 2).sup_norm() == 0.0

    def test_constant_euclidean(self):
        assert constant_history(1.0, [3.0, 4.0]).sup_norm() == pytest.approx(5.0, abs=0)

    def test_endpoint_max_of_segment(self):
        phi = linear_history(1.0, 2.0, -3.0)
        assert phi.sup_norm() == pytest.approx(3.0, abs=0)

    def test_homogeneity_exact(self):
        phi = random_history(11, 3, 2.0, 4.0, 5)
        for s in (-2.5, 0.0, 0.25, 7.0):
            scaled = dataclasses.replace(phi, values=s * phi.values)
            assert scaled.sup_norm() == abs(s) * phi.sup_norm()

    def test_triangle_inequality_node_aligned(self):
        a = random_history(21, 2, 1.0, 3.0, 4)
        b = random_history(22, 2, 1.0, 5.0, 4)
        both = dataclasses.replace(a, values=a.values + b.values)
        assert both.sup_norm() <= a.sup_norm() + b.sup_norm() + 1e-12


    @settings(max_examples=60)
    @given(delay=st.floats(1e-3, 100.0), n=st.integers(1, 4),
           widths=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=12),
           data=st.data())
    def test_exact_on_piecewise_linear(self, delay, n, widths, data):
        # the sup norm is a node norm, and no point between nodes exceeds it
        cum = np.cumsum(widths)
        grid = np.concatenate(([-delay], delay * (cum[:-1] / cum[-1] - 1.0),
                               [0.0]))
        assume(np.all(np.diff(grid) > 0))
        values = np.array(data.draw(st.lists(
            st.floats(-1e3, 1e3), min_size=grid.size * n,
            max_size=grid.size * n))).reshape(grid.size, n)
        phi = HistoryFunction(delay, grid, values)
        sup = phi.sup_norm()
        at_nodes = np.linalg.norm(phi.eval(grid), axis=1)
        assert sup == np.max(at_nodes)
        lam = np.linspace(0.0, 1.0, 33)
        taus = (grid[:-1, None] * (1.0 - lam) + grid[1:, None] * lam).ravel()
        between = np.linalg.norm(phi.eval(np.clip(taus, -delay, 0.0)), axis=1)
        assert np.all(between <= sup * (1.0 + 1e-12))


@st.composite
def norm_rows(draw):
    """(B, n) rows, n = 1..7, of ordinary, tiny, huge and signed-zero
    entries, so squares underflow, overflow and tie."""
    n, batch = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    entry = (st.floats(-1e10, 1e10) | st.floats(-1e200, 1e200)
             | st.floats(-1e-160, 1e-160) | st.sampled_from([0.0, -0.0]))
    return np.array(draw(st.lists(entry, min_size=batch * n,
                                  max_size=batch * n))).reshape(batch, n)


class TestNormRule:
    """histories._norm is the package's one norm: the square root of the
    squares added left to right, whatever batch or layout holds a row."""

    @settings(max_examples=300)
    @given(norm_rows(), st.data())
    def test_is_the_float_loop_in_any_batch(self, rows, data):
        expected = np.array([norm_reference(row) for row in rows])
        split = data.draw(st.integers(0, rows.shape[0]))
        # a strided view inside a wider array
        wide = np.zeros((rows.shape[0], 2 * rows.shape[1]))
        wide[:, ::2] = rows
        with np.errstate(over="ignore"):
            assert _norm(rows).tobytes() == expected.tobytes()
            for k, row in enumerate(rows):
                assert _norm(row).tobytes() == expected[k:k + 1].tobytes()
            assert _norm(wide[:, ::2]).tobytes() == expected.tobytes()
            parts = [_norm(rows[:split]), _norm(rows[split:])]
            assert np.concatenate(parts).tobytes() == expected.tobytes()
            stacked = _norm(np.stack([rows, rows[::-1]]))
        assert stacked.tobytes() == np.stack([expected, expected[::-1]]).tobytes()


class TestDriverExtension:
    def test_identity_at_zero_step(self):
        phi = random_history(1, 2, 1.0, 1.0, 2)
        assert driver_extension(phi, 0.0, np.zeros(2)) is phi

    def test_constant_endpoint_value(self):
        x0 = np.array([1.0, -2.0])
        w = np.array([3.0, 0.5])
        phi = constant_history(1.0, x0)
        for h in (0.1, 0.5, 0.9):
            ext = driver_extension(phi, h, w)
            assert np.allclose(ext.eval(0.0), x0 + h * w, rtol=0, atol=1e-15)

    def test_two_branch_hand_values(self):
        phi = linear_history(1.0, 0.0, 1.0)
        ext = driver_extension(phi, 0.5, np.array([2.0]))
        assert ext.eval(-0.5)[0] == pytest.approx(1.0, abs=1e-15)
        assert ext.eval(0.0)[0] == pytest.approx(2.0, abs=1e-15)
        # left branch: shifted original history
        assert ext.eval(-0.75)[0] == pytest.approx(phi.eval(-0.25)[0], abs=1e-15)

    def test_step_out_of_range(self):
        phi = constant_history(1.0, [1.0])
        with pytest.raises(ValueError):
            driver_extension(phi, 1.0, np.array([0.0]))
        with pytest.raises(ValueError):
            driver_extension(phi, -0.1, np.array([0.0]))

    def test_pointwise_convergence_linear_in_h(self):
        phi = random_history(9, 2, 1.0, 1.0, 3)
        w = np.array([0.7, -1.1])
        slopes = np.abs(np.diff(phi.values, axis=0)
                        / np.diff(phi.grid)[:, None])
        rate = float(np.max(np.linalg.norm(slopes, axis=1))) + np.linalg.norm(w)
        for h in (1e-1, 1e-2, 1e-3):
            ext = driver_extension(phi, h, w)
            dev = max(np.linalg.norm(ext.eval(tau) - phi.eval(tau))
                      for tau in phi.grid)
            assert dev <= rate * h * (1.0 + 1e-9)


class TestRandomHistory:
    def test_zero_bound(self):
        phi = random_history(0, 2, 1.0, 0.0, 3)
        assert phi.sup_norm() == 0.0

    def test_same_seed_bitwise_identical(self):
        a = random_history(42, 3, 2.0, 1.5, 4)
        b = random_history(42, 3, 2.0, 1.5, 4)
        assert np.array_equal(a.grid, b.grid)
        assert np.array_equal(a.values, b.values)

    def test_seed7_respects_bound(self):
        phi = random_history(7, 2, 1.0, 1.0, 3)
        assert phi.sup_norm() <= 1.0 + 1e-12

    def test_distinct_seeds_differ(self):
        a = random_history(1, 2, 1.0, 1.0, 2)
        b = random_history(2, 2, 1.0, 1.0, 2)
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("modes", [0, 2, 8])
    @pytest.mark.parametrize("norm_bound", [0.0, 10.0])
    @pytest.mark.parametrize("delay", [1.0, 0.2, 0.0])
    def test_matches_per_mode_reference(self, modes, norm_bound, delay):
        for i in range(40):
            for seed, n in (((20260809, i), 2), (i, 1), ((7, i, 3), 3)):
                got = random_history(seed, n, delay, norm_bound, modes)
                ref = per_mode_reference(seed, n, delay, norm_bound, modes)
                assert np.array_equal(got.grid, ref.grid)
                assert np.array_equal(got.values, ref.values)
                assert not got.grid.flags.writeable
                assert not got.values.flags.writeable

    def test_rejects_bad_bounds(self):
        for delay, bound in ((-1.0, 1.0), (float("nan"), 1.0),
                             (1.0, -1.0), (1.0, float("inf"))):
            with pytest.raises(ValueError):
                random_history(1, 2, delay, bound, 2)

    def test_zero_delay(self):
        phi = random_history(3, 2, 0.0, 1.0, 5)
        assert phi.grid.shape == (1,)
        assert phi.sup_norm() == pytest.approx(1.0)


# key values: the word boundaries SeedSequence splits at, and any value
# up to 2^128 (five words)
KEY_VALUES = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64, 2**128]),
                       st.integers(0, 2**128))

TAGS = (HISTORY_STREAM, NOISE_STREAM, SAMPLER_STREAM, ENSEMBLE_STREAM,
        CONTRACTION_STREAM, GAIN_STREAM, PROBE_STREAM)


class TestKeyedGenerators:
    """Every stream is the generator np.random.default_rng builds from
    its key."""

    @settings(max_examples=60)
    @given(key=st.lists(KEY_VALUES, min_size=1, max_size=6).map(tuple),
           n=st.integers(1, 3), modes=st.sampled_from([0, 2, 8]))
    @example(key=(7, 2**64, 0), n=2, modes=8)
    @example(key=(2**32 - 1, 2**32, 2**64, 0, 9), n=1, modes=2)
    def test_streams_equal_default_rng(self, key, n, modes):
        got = random_history(key, n, 1.0, 1.0, modes)
        ref = per_mode_reference(key, n, 1.0, 1.0, modes)
        assert got.values.tobytes() == ref.values.tobytes()
        noise = piecewise_noise_input(key, 2.0, 0.5, m=n)
        for j in (0, 1, 7):
            expected = np.random.default_rng((*key, j)).uniform(-2.0, 2.0, n)
            assert noise.evaluate(0.5 * j + 0.25).tobytes() == expected.tobytes()

    def test_negative_key_raises_like_default_rng(self):
        for key in ((1, -1), -3):
            with pytest.raises(ValueError):
                np.random.default_rng(key)
            with pytest.raises(ValueError):
                random_history(key, 2, 1.0, 1.0, 2)

    def test_import_loads_no_numpy_random(self):
        # a generator is built when a draw needs it: numpy.random alone
        # costs a fresh interpreter about 16 ms
        code = ("import sys, krasovskii; "
                "krasovskii.FalsificationSampler(1, 2, 1, 1.0); "
                "sys.exit('numpy.random' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0


class TestStreamKeys:
    def test_tags_are_nonzero_and_distinct(self):
        assert 0 not in TAGS and len(set(TAGS)) == len(TAGS)

    @settings(max_examples=200)
    @given(a=st.tuples(KEY_VALUES, st.sampled_from(TAGS), KEY_VALUES),
           b=st.tuples(KEY_VALUES, st.sampled_from(TAGS), KEY_VALUES))
    @example(a=(5, HISTORY_STREAM, 0), b=(5, NOISE_STREAM, 0))
    @example(a=(0, SAMPLER_STREAM, 0), b=(0, SAMPLER_STREAM, 2**32))
    @example(a=(9, GAIN_STREAM, 3), b=(9, GAIN_STREAM, 3))
    def test_built_keys_never_coincide(self, a, b):
        # SeedSequence pads a key with zeros, so keys of one length with
        # the tag second are one generator only when seed, tag and index
        # are equal
        ka, kb = stream_key(*a), stream_key(*b)
        assert len(ka) == len(kb) == 3 and ka[1] == a[1] and kb[1] == b[1]
        states = [np.random.SeedSequence(k).generate_state(4).tobytes()
                  for k in (ka, kb)]
        assert (states[0] == states[1]) == (a == b)


class TestWindowDuckTyped:
    class FakeTraj:
        def __init__(self, delay, times, values):
            self.delay = delay
            self.times = times
            self.values = values

    def test_window_at_zero_is_initial_segment(self):
        times = np.linspace(-1.0, 2.0, 31)
        values = np.column_stack([np.sin(times), np.cos(times)])
        traj = self.FakeTraj(1.0, times, values)
        phi = window(traj, 0.0)
        assert phi.grid[0] == -1.0 and phi.grid[-1] == 0.0
        assert np.allclose(phi.eval(-0.5), [np.sin(-0.5), np.cos(-0.5)],
                           atol=1e-3)

    def test_constant_solution_windows_constant(self):
        times = np.linspace(-1.0, 3.0, 41)
        values = np.full((41, 2), 2.5)
        traj = self.FakeTraj(1.0, times, values)
        for t in (0.0, 1.3, 3.0):
            phi = window(traj, t)
            assert np.allclose(phi.values, 2.5, atol=0)

    def test_out_of_domain(self):
        times = np.linspace(-1.0, 2.0, 4)
        traj = self.FakeTraj(1.0, times, np.zeros((4, 1)))
        with pytest.raises(ValueError):
            window(traj, 2.5)
        with pytest.raises(ValueError):
            window(traj, -0.5)


class TestConstruction:
    def test_grid_must_span_window(self):
        with pytest.raises(ValueError):
            HistoryFunction(1.0, np.array([-0.5, 0.0]), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            HistoryFunction(1.0, np.array([-1.0, 0.5]), np.zeros((2, 1)))

    def test_values_must_be_finite(self):
        with pytest.raises(ValueError):
            HistoryFunction(1.0, np.array([-1.0, 0.0]),
                            np.array([[np.nan], [0.0]]))

    def test_grid_strictly_increasing(self):
        with pytest.raises(ValueError):
            HistoryFunction(1.0, np.array([-1.0, -1.0, 0.0]), np.zeros((3, 1)))

    def test_immutable_arrays(self):
        phi = constant_history(1.0, [1.0])
        with pytest.raises(ValueError):
            phi.values[0, 0] = 2.0
