import dataclasses
import math

import numpy as np
import pytest

from krasovskii.certify import two_inequality_to_expiss
from krasovskii.estimate import (
    FitFailure,
    empirical_two_inequality,
    fit_envelope,
    fit_iss_gain,
    run_ensemble,
    seeded_history_sampler,
    write_envelope_data,
)
from krasovskii.histories import CONTRACTION_STREAM, constant_history, zero_history
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
