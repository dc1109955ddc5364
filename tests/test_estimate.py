import dataclasses
import gc
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krasovskii import estimate
from krasovskii.certify import two_inequality_to_expiss
from krasovskii.estimate import (
    EnvelopeFit,
    FitFailure,
    empirical_two_inequality,
    fit_envelope,
    fit_iss_gain,
    run_ensemble,
    seeded_history_sampler,
    write_envelope_data,
)
from krasovskii.histories import (
    CONTRACTION_STREAM,
    _norm,
    constant_history,
    zero_history,
)
from krasovskii.solver import COMPLETED, history_norm_series, integrate
from krasovskii.systems import (
    DelaySystem,
    make_example1,
    make_linear_baseline,
    zero_input,
)


def envelope_slack(fit, trajs):
    """Reference: smallest gap k sup|x0| e^{-eta t} - |x(t)| over an
    ensemble."""
    gap = math.inf
    for tr in trajs:
        sel = tr.times >= 0.0
        t = tr.times[sel]
        mag = np.linalg.norm(tr.values[sel], axis=1)
        gap = min(gap, float(np.min(
            fit.k * tr.x0.sup_norm() * np.exp(-fit.eta * t) - mag)))
    return gap


def full_overshoots(pairs):
    """Reference: k(eta) at every grid rate over every point of each
    (t, r) pair, 16 rates per array, then Python's max over the
    trajectories, as the fit evaluated it before it pruned to hull
    candidates."""
    grid = estimate._ETA_GRID
    over = np.empty((len(pairs), grid.shape[0]))
    for s in range(0, grid.shape[0], 16):
        etas = grid[s:s + 16, None]
        for row, (t, ratio) in zip(over, pairs):
            scaled = etas * t
            np.exp(scaled, out=scaled)
            scaled *= ratio
            row[s:s + 16] = scaled.max(axis=1)
            del scaled
    return [max(column) for column in over.T.tolist()]


def full_fit(trajs, k_cap=1e3):
    """Reference: fit_envelope with full_overshoots."""
    for tr in trajs:
        if tr.status != COMPLETED:
            raise ValueError("envelope fits need completed trajectories")
        if tr.x0.sup_norm() == 0.0:
            raise ValueError("initial histories must be nonzero")
    pairs = [(tr.times[tr.start:], _norm(tr.values[tr.start:]) / tr.x0.sup_norm())
             for tr in trajs]
    k_eta = full_overshoots(pairs)
    admissible = [j for j, k in enumerate(k_eta) if k <= k_cap]
    if not admissible:
        raise FitFailure(f"no rate admits an overshoot below {k_cap}")
    eta = float(estimate._ETA_GRID[admissible[-1]])
    k = max(k_eta[admissible[-1]], 1.0)
    slack = math.inf
    for tr, (t, ratio) in zip(trajs, pairs):
        gap = float(np.min(k * np.exp(-eta * t) - ratio)) * tr.x0.sup_norm()
        slack = min(slack, gap)
    if -1e-9 * k < slack < 0.0:
        slack = 0.0
    return EnvelopeFit(k, eta, slack, len(trajs), k_cap)


def write_rows(fit, trajs, path):
    """Reference: envelope.dat with one % per row."""
    with open(path, "w") as fh:
        fh.write("# t  abs_x  envelope\n")
        for tr in trajs:
            t = tr.times[tr.start:]
            mag = _norm(tr.values[tr.start:])
            env = fit.k * tr.x0.sup_norm() * np.exp(-fit.eta * t)
            fh.writelines("%.17g %.17g %.17g\n" % row
                          for row in zip(t, mag, env))
            fh.write("\n")


def fake_trajectory(times, magnitudes, sup=1.0):
    """What the envelope fit and writer read of a trajectory: a completed
    scalar run with x(t) = magnitudes at times and sup|x0| = sup."""
    return SimpleNamespace(status=COMPLETED, start=0,
                           times=np.asarray(times, dtype=float),
                           values=np.asarray(magnitudes, dtype=float)[:, None],
                           x0=SimpleNamespace(sup_norm=lambda: sup))


def bits(values):
    """The bytes of floats, every NaN as one NaN: exp overflowing times
    r = 0 gives a NaN whose sign bit depends on the reduction that passes
    it on."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values).tobytes()


def outcome(fit, trajs, k_cap):
    """A fit's (k, eta, slack) bits, or the exception it raises."""
    try:
        result = fit(trajs, k_cap)
    except (FitFailure, ValueError) as exc:
        return type(exc), str(exc)
    return bits([result.k, result.eta, result.slack])


@st.composite
def series(draw):
    """(times, |x|, sup|x0|) of one adversarial trajectory for the fit."""
    n = draw(st.sampled_from([2, 3]) | st.integers(2, 40))
    # at dt 3 the later points' exp(eta t) overflows, so exp * 0 is NaN
    dt = draw(st.sampled_from([1e-3, 0.01, 0.25, 3.0]))
    t = dt * np.arange(n)
    free = st.floats(0.0, 1e6)
    head = draw(st.integers(1, n - 1))
    kind = draw(st.sampled_from(["free", "ties", "flat_tail", "zero_start",
                                 "zero_tail", "log_concave", "geometric",
                                 "subnormal"]))
    sup = draw(st.sampled_from([1.0, 0.37, 1e-3]))
    if kind == "free":
        mags = draw(st.lists(free, min_size=n, max_size=n))
    elif kind == "ties":
        # exact ties and repeated maxima
        mags = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]),
                             min_size=n, max_size=n))
    elif kind == "flat_tail":
        mags = (draw(st.lists(free, min_size=head, max_size=head))
                + [draw(st.floats(1e-3, 10.0))] * (n - head))
    elif kind == "zero_start":
        mags = [0.0] + draw(st.lists(free, min_size=n - 1, max_size=n - 1))
    elif kind == "zero_tail":
        mags = draw(st.lists(free, min_size=head, max_size=head)) + [0.0] * (n - head)
    elif kind == "log_concave":
        # every point a hull vertex
        a, b = draw(st.floats(1e-3, 5.0)), draw(st.floats(-2.0, 10.0))
        mags = np.exp(-b * t - a * t * t)
    elif kind == "geometric":
        # log r on a line: every point within rounding of the chord
        mags = draw(st.floats(0.1, 10.0)) * np.exp(-draw(st.floats(0.0, 3.0)) * t)
    else:
        # ratios below the smallest normal number
        mags = draw(st.lists(st.floats(1e-150, 1e-9), min_size=n, max_size=n))
        sup = 1e300
    return t, np.asarray(mags, dtype=float), sup


def decay_ensemble(count=5, horizon=15.0, dt=0.01, scale=1.0):
    sys = make_linear_baseline(1.0, 0.0, 0.0)

    def hist(i):
        return constant_history(0.0, [scale * (0.5 + 0.25 * i)])

    return run_ensemble(sys, hist, None, count, horizon, dt)


class TestRunEnsemble:
    def test_zero_sampler_gives_zero_trajectory(self):
        sys = make_example1(1.0)
        trajs = run_ensemble(sys, lambda i: zero_history(1.0, 2), None, 1,
                             2.0, 0.01)
        assert len(trajs) == 1
        assert np.max(np.abs(trajs[0].values)) == 0.0

    def test_determinism(self):
        sys = make_example1(1.0)
        hist = seeded_history_sampler(5, 2, 1.0, 1.0)
        a = run_ensemble(sys, hist, None, 4, 2.0, 0.01)
        b = run_ensemble(sys, hist, None, 4, 2.0, 0.01)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.values, tb.values)

    def test_repeated_ensemble_identical(self):
        # one history sampler run twice, and a fresh one with the same
        # seed, give the same trajectories
        sys1 = make_example1(1.0)
        hist = seeded_history_sampler(66, 2, 1.0, 1.0)
        runs = [run_ensemble(sys1, h, None, 4, 1.0, 0.02)
                for h in (hist, hist, seeded_history_sampler(66, 2, 1.0, 1.0))]
        for trajs in runs[1:]:
            for a, b in zip(runs[0], trajs):
                assert np.array_equal(a.values, b.values)

    def test_blowups_reported_not_fatal(self):
        cubic = DelaySystem(1, 1, 0.0,
                            lambda phi, v: phi.eval(0.0) ** 3, "cubic")

        def hist(i):
            return constant_history(0.0, [0.1 + 2.0 * i])

        trajs = run_ensemble(cubic, hist, None, 3, 1.0, 1e-3)
        statuses = [tr.status for tr in trajs]
        assert statuses[0] == COMPLETED
        assert "blew_up" in statuses[1:]


class TestFitEnvelope:
    def test_linear_baseline_recovers_unit_rate(self):
        trajs = decay_ensemble()
        fit = fit_envelope(trajs, k_cap=1.02)
        assert fit.eta == pytest.approx(1.0, rel=0.05)
        assert fit.k == pytest.approx(1.0, abs=1e-9)
        assert fit.slack >= 0.0

    def test_scale_equivariance_exact_grid_point(self):
        base = fit_envelope(decay_ensemble(scale=1.0), k_cap=1.02)
        scaled = fit_envelope(decay_ensemble(scale=7.0), k_cap=1.02)
        assert scaled.eta == base.eta
        assert scaled.k == pytest.approx(base.k, rel=1e-12)

    def test_unstable_system_fails(self):
        sys = make_linear_baseline(-1.0, 0.0, 0.0)
        trajs = run_ensemble(sys, lambda i: constant_history(0.0, [1.0]),
                             None, 2, 20.0, 0.01)
        with pytest.raises(FitFailure):
            fit_envelope(trajs)

    def test_zero_history_rejected(self):
        sys = make_linear_baseline(1.0, 0.0, 0.0)
        trajs = run_ensemble(sys, lambda i: zero_history(0.0, 1), None, 1,
                             1.0, 0.01)
        with pytest.raises(ValueError, match="nonzero"):
            fit_envelope(trajs)

    def test_blown_up_rejected(self):
        cubic = DelaySystem(1, 1, 0.0,
                            lambda phi, v: phi.eval(0.0) ** 3, "cubic")
        trajs = run_ensemble(cubic, lambda i: constant_history(0.0, [3.0]),
                             None, 1, 1.0, 1e-3)
        with pytest.raises(ValueError, match="completed"):
            fit_envelope(trajs)

    def test_generalisation_to_fresh_seeds(self):
        sys = make_linear_baseline(1.0, 0.0, 0.5)
        train = run_ensemble(sys, seeded_history_sampler(1, 1, 0.5, 1.0),
                             None, 5, 10.0, 0.05)
        fresh = run_ensemble(sys, seeded_history_sampler(999, 1, 0.5, 1.0),
                             None, 5, 10.0, 0.05)
        fit = fit_envelope(train, k_cap=10.0)
        assert envelope_slack(fit, fresh) >= -1e-9

    @pytest.mark.parametrize("case", ["decay", "example1"])
    def test_blocked_rates_are_the_rate_loop(self, case):
        # the grid's 200 rates in blocks, against one rate at a time; the
        # example1 ensemble has the benchmark's 3 001-point trajectories
        if case == "decay":
            trajs, k_cap = decay_ensemble(), 1.02
        else:
            trajs = run_ensemble(make_example1(1.0),
                                 seeded_history_sampler(5, 2, 1.0, 1.0),
                                 None, 2, 3.0, 1e-3)
            k_cap = 1e3
        best = None
        for eta in np.logspace(-3, 1, 200):
            k_eta = max(float(np.max(
                np.linalg.norm(tr.values[tr.start:], axis=1) / tr.x0.sup_norm()
                * np.exp(eta * tr.times[tr.start:]))) for tr in trajs)
            if k_eta <= k_cap:
                best = (float(eta), k_eta)
        fit = fit_envelope(trajs, k_cap)
        assert (fit.eta, fit.k) == (best[0], max(best[1], 1.0))

    # at dt 3, exp(eta t) overflows and exp * 0 is NaN, on both sides
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=250)
    @given(ensemble=st.lists(series(), min_size=1, max_size=4),
           k_cap=st.sampled_from([1.0, 1.02, 10.0, 1e3, 1e300]))
    @example(ensemble=[(np.arange(5.0), np.zeros(5), 1.0)], k_cap=1e3)
    @example(ensemble=[(np.arange(3.0), np.array([0.0, 2.0, 1.0]), 1.0),
                       (np.arange(2.0), np.array([1.0, 0.0]), 1.0)], k_cap=10.0)
    @example(ensemble=[(3.0 * np.arange(40.0), np.r_[1.0, np.zeros(39)], 1.0)],
             k_cap=1e3)
    # r = |x| / sup|x0| overflows to inf at the middle point
    @example(ensemble=[(np.arange(3.0), np.array([1.0, 1e6, 2.0]), 1e-305)],
             k_cap=math.inf)
    def test_pruned_fit_is_the_full_evaluation(self, ensemble, k_cap):
        # the overshoots on hull candidates only, against every point at
        # every rate: k(eta), k, eta and slack bit for bit
        trajs = [fake_trajectory(*s) for s in ensemble]
        pairs = [(tr.times, _norm(tr.values) / tr.x0.sup_norm()) for tr in trajs]
        assert bits(estimate._overshoots(pairs)) == bits(full_overshoots(pairs))
        assert outcome(fit_envelope, trajs, k_cap) == outcome(full_fit, trajs, k_cap)

    @pytest.mark.parametrize("case", ["decay", "example1"])
    def test_pruned_fit_on_ensembles(self, case):
        if case == "decay":
            trajs = decay_ensemble()
        else:
            # criterion 09's first trajectories, shortened: hulls of up to
            # 2 015 vertices
            trajs = run_ensemble(make_example1(1.0),
                                 seeded_history_sampler(909, 2, 1.0, 1.0),
                                 None, 3, 3.0, 1e-3)
        pairs = [(tr.times[tr.start:],
                  _norm(tr.values[tr.start:]) / tr.x0.sup_norm()) for tr in trajs]
        assert bits(estimate._overshoots(pairs)) == bits(full_overshoots(pairs))
        assert outcome(fit_envelope, trajs, 1e3) == outcome(full_fit, trajs, 1e3)

    def test_fit_leaves_no_reference_cycle(self):
        # criterion 09's first two trajectories, 20 001 points each; the
        # second one's hull has 1 059 vertices
        trajs = run_ensemble(make_example1(1.0),
                             seeded_history_sampler(909, 2, 1.0, 1.0),
                             None, 2, 20.0, 1e-3)
        gc.collect()
        gc.disable()
        try:
            fit_envelope(trajs)
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0

    def test_fit_peak_memory_is_at_most_the_full_loops(self):
        # every point of a log-concave series is a hull vertex, so the
        # fit evaluates every point, as the full loop does
        t = 1e-3 * np.arange(20001)
        trajs = [fake_trajectory(t, np.exp(-t - 0.1 * t * t))]
        ratio = _norm(trajs[0].values)
        assert estimate._candidates(t, ratio).all()
        peaks = []
        for fit in (full_fit, fit_envelope):
            tracemalloc.start()
            try:
                fit(trajs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the two differ by Python's bookkeeping (frames, iterators), a few
        # hundred bytes to a few kB; one more copy of the series is 160 kB
        assert peaks[1] <= peaks[0] + 8192

    def test_envelope_data_file(self, tmp_path):
        trajs = decay_ensemble(count=2, horizon=2.0)
        fit = fit_envelope(trajs, k_cap=1.02)
        path = tmp_path / "envelope.dat"
        write_envelope_data(fit, trajs, path)
        blocks = path.read_text().strip().split("\n\n")
        assert len(blocks) == 2
        first = [float(x) for x in blocks[0].splitlines()[1].split()]
        assert len(first) == 3
        assert first[2] >= first[1]  # envelope dominates

    @pytest.mark.parametrize("case", ["decay", "example1", "extremes", "small"])
    def test_block_writer_is_the_row_writer(self, tmp_path, case):
        if case == "decay":
            trajs = decay_ensemble()
            fit = fit_envelope(trajs, k_cap=1.02)
        elif case == "example1":
            trajs = run_ensemble(make_example1(1.0),
                                 seeded_history_sampler(5, 2, 1.0, 1.0),
                                 None, 3, 3.0, 1e-3)
            fit = fit_envelope(trajs)
        elif case == "extremes":
            # |x| of 0.0 and at and above 1e17, where %.17g switches to
            # exponent notation; |x| itself is never subnormal (a nonzero
            # square's root is at least 2^-537), so the subnormals are in
            # the envelope column, exp(-740) and below
            times = [0.0, 0.5, 74.0, 74.4, 75.0, 1e17, 2.5e17]
            mags = [0.0, 1e17, 123456789012345678.0, 1e150, 2.5e-160,
                    5e-324, 0.1]
            trajs = [fake_trajectory(times, mags, sup=3.0),
                     fake_trajectory(times[:2], mags[:2])]
            fit = EnvelopeFit(2.0, 10.0, 0.0, 2, 1e3)
        else:
            # |x| and the envelope falling through exponent notation
            # (1e-6 <= value < 1e-4) to values below 1e-6, which % formats,
            # over 1 201 rows, more than one chunk
            t = 0.005 * np.arange(1201)
            mags = 5e-5 * np.exp(-2.0 * t) * (1.0 + 0.5 * np.sin(9.0 * t))
            trajs = [fake_trajectory(t, mags, sup=4e-5),
                     fake_trajectory(t[:3], [1e-4, 9.9999999999999991e-05, 1e-6])]
            fit = EnvelopeFit(1.7, 2.5, 0.0, 2, 1e3)
        write_envelope_data(fit, trajs, tmp_path / "blocks.dat")
        write_rows(fit, trajs, tmp_path / "rows.dat")
        assert ((tmp_path / "blocks.dat").read_bytes()
                == (tmp_path / "rows.dat").read_bytes())


class TestFitIssGain:
    def test_linear_baseline_steady_state(self):
        sys = make_linear_baseline(1.0, 0.0, 0.0)
        fit = fit_iss_gain(sys, [0.1, 1.0], horizon=20.0, dt=0.01)
        assert fit.mu0 == pytest.approx(1.0, rel=0.1)
        for s, tail in fit.tails.items():
            assert tail <= fit.mu0 * s + 1e-12 or s == 0.0

    def test_zero_amplitude_only(self):
        sys = make_linear_baseline(1.0, 0.0, 0.0)
        fit = fit_iss_gain(sys, [0.0], horizon=10.0, dt=0.01)
        assert fit.mu0 == 0.0

    def test_blowup_amplitude_excluded(self):
        cubic = DelaySystem(1, 1, 0.0,
                            lambda phi, v: phi.eval(0.0) ** 3 + v, "cubic+u")
        fit = fit_iss_gain(cubic, [0.01, 50.0], horizon=2.0, dt=1e-3,
                           history_bound=0.01)
        assert 50.0 in fit.excluded
        assert 0.01 in fit.tails


class TestEmpiricalTwoInequality:
    def test_linear_baseline_contraction_constant_history(self):
        # from a constant history the window sup at T decays like
        # exp(-(T - delay))
        sys = make_linear_baseline(1.0, 0.0, 0.1)
        traj = integrate(sys, constant_history(0.1, [1.0]), None, 3.0, 0.01)
        _, norms = history_norm_series(traj)
        assert norms[-1] == pytest.approx(math.exp(-2.9), rel=1e-4)

    def test_linear_baseline_fit(self):
        sys = make_linear_baseline(1.0, 0.0, 0.1)
        fit = empirical_two_inequality(sys, horizon=3.0, budget=8, dt=0.01,
                                       mu0=0.0)
        assert fit.contraction
        assert fit.lam <= math.exp(-2.9) * (1.0 + 1e-9)
        assert fit.ell >= 1.0

    @pytest.mark.parametrize("make, amplitudes, horizon, mu0, pinned", [
        pytest.param(lambda: make_linear_baseline(1.0, -0.5, 0.1), (0.5, 1.5),
                     3.0, 0.3, ("0x1.b333333333333p-1", "0x1.199999999999ap-1",
                                "0x1.3333333333333p-2"), id="linear-mu0"),
        pytest.param(lambda: make_linear_baseline(1.0, -0.5, 0.1), (0.5, 1.5),
                     3.0, None, ("0x1.4ba97b756353cp-1", "-0x1.8e2def678dea0p-7",
                                 "0x1.68ad091539588p-1"), id="linear-fitted"),
        pytest.param(lambda: make_example1(1.0), (0.2, 1.0), 2.0, 0.3,
                     ("0x1.e147ae147ae15p-1", "0x1.c18379702e5f1p-1",
                      "0x1.3333333333333p-2"), id="example1-mu0"),
        pytest.param(lambda: make_example1(1.0), (0.2, 1.0), 2.0, None,
                     ("0x1.9df68f107a411p-2", "0x1.59130a16071c1p-4",
                      "0x1.7d45e695b3974p+1"), id="example1-fitted"),
    ])
    def test_constant_inputs_pinned(self, make, amplitudes, horizon, mu0,
                                    pinned):
        # every member carries a positive constant input, so each ratio
        # subtracts mu0 |u(0)|; ell, lam and mu0 are pinned bit for bit
        fit = empirical_two_inequality(make(), horizon=horizon, budget=6,
                                       dt=0.01, input_amplitudes=amplitudes,
                                       mu0=mu0)
        assert (fit.ell.hex(), fit.lam.hex(), fit.mu0.hex()) == pinned

    def test_unstable_refutation(self):
        sys = make_linear_baseline(-1.0, 0.0, 0.1)
        fit = empirical_two_inequality(sys, horizon=2.0, budget=8, dt=0.01,
                                       mu0=0.0)
        assert not fit.contraction

    def test_consistency_with_envelope_conversion(self):
        # feeding the fitted pair back through the converse conversion
        # yields an envelope that dominates the ensemble
        sys = make_example1(1.0)
        horizon, dt = 8.0, 0.01
        fit = empirical_two_inequality(sys, horizon=horizon / 2, budget=6,
                                       dt=dt, mu0=0.0)
        assert fit.contraction
        k, eta, _ = two_inequality_to_expiss(fit.ell, fit.horizon, fit.lam)
        hist = seeded_history_sampler((77, CONTRACTION_STREAM), 2, 1.0, 1.0)
        trajs = run_ensemble(sys, hist, None, 6, horizon, dt)
        for tr in trajs:
            sel = tr.times >= 0.0
            env = k * tr.x0.sup_norm() * np.exp(-eta * tr.times[sel])
            assert np.all(np.linalg.norm(tr.values[sel], axis=1)
                          <= env + 1e-9)
