import math

import numpy as np
import pytest

from krasovskii.certify import (
    FalsificationSampler,
    InfeasibilityError,
    check_left_growth,
    check_pointwise_dissipation,
    check_right_growth,
    check_sandwich,
    example2_eps2_closed_form,
    expiss_to_two_inequality,
    margin_left,
    margin_right,
    margin_history_term,
    rfc_bound,
    robustness_margin_example2,
    history_term_constants,
    two_inequality_to_expiss,
)
from krasovskii.functionals import PointQuadratic, Scale, square_gain, zero_gain
from krasovskii.histories import constant_history
from krasovskii.systems import DelaySystem, make_example1, make_example3

EYE = np.eye(2)


def margin_right_composite(a, sigma, P, delay):
    """Reference: the single-expression form of the right-growth
    threshold, min(p_m e^{-2 delay}/sigma, 1) * (a p_m / (2 p_M)) e^{-2 delay}.
    Must agree with margin_right to machine precision."""
    eigs = np.linalg.eigvalsh(P)
    p_m, p_M = float(eigs[0]), float(eigs[-1])
    decay = math.exp(-2.0 * delay)
    return min(p_m * decay / sigma, 1.0) * a * p_m * decay / (2.0 * p_M)


def left_contraction_residual(report, lam):
    """Reference: signed slack of the left-growth contraction inequality
    at lam; positive means lam satisfies it strictly."""
    o, i = report.outputs, report.inputs
    a_lower, a_upper, sigma = i["a_lower"], i["a_upper"], i["sigma"]
    eps, q, p_m, p_M = o["eps"], o["q"], o["p_m"], o["p_M"]
    qe = q * eps
    lhs = qe / p_M * (p_m * a_lower / (2.0 * a_upper) * lam * lam
                      - 4.0 * eps * sigma * a_upper / a_lower)
    return lhs - 2.0 * a_upper / a_lower


def sampler_for(sys, seed=1234):
    return FalsificationSampler(seed, sys.n, sys.m, sys.delay)


class TestMarginHistoryTerm:
    def test_no_delay(self):
        assert margin_history_term(1.0, 0.5, 0.0) == 0.5

    def test_direct_evaluations(self):
        assert margin_history_term(1.0, 0.5, 1.0) == pytest.approx(
            0.5 * math.exp(-0.5), rel=1e-15)
        assert margin_history_term(2.0, 1.0, 2.0) == pytest.approx(
            2.0 * math.exp(-2.0), rel=1e-15)

    def test_nonincreasing_in_delay(self):
        vals = [margin_history_term(1.0, 0.7, d) for d in (0.0, 0.5, 1.0, 3.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_companion_constants(self):
        rep = history_term_constants(1.0, 3.0, 0.5, 2.0, 0.1, 1.0)
        base = 0.1 * math.exp(0.5) / 0.5
        eps = 0.5 * (1.0 / base - 1.0)
        xi = 1.0 - base * (1.0 + eps)
        assert rep.outputs["xi"] == pytest.approx(xi, rel=1e-12)
        assert rep.outputs["overshoot_k"] == pytest.approx(
            math.sqrt(6.0 * math.exp(0.5) / xi), rel=1e-12)
        with pytest.raises(InfeasibilityError):
            history_term_constants(1.0, 3.0, 0.5, 2.0, 0.4, 1.0)


class TestMarginRight:
    def test_worked_constants(self):
        rep = margin_right(0.5, 1.0, EYE, 1.0)
        assert rep.outputs["eps"] == pytest.approx(0.125 * math.exp(-2.0), rel=1e-14)
        assert rep.outputs["c_bar"] == pytest.approx(0.25 * math.exp(-4.0), rel=1e-14)

    def test_no_delay_large_rate(self):
        rep = margin_right(2.0, 1.0, EYE, 0.0)
        assert rep.outputs["eps"] == 0.5
        assert rep.outputs["c_bar"] == 1.0

    def test_composite_form_machine_precision(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = 10.0 ** rng.uniform(-2, 2)
            sigma = 10.0 ** rng.uniform(-2, 2)
            p = np.sort(10.0 ** rng.uniform(-1, 1, 2))
            delay = rng.uniform(0.0, 4.0)
            P = np.diag(p)
            rep = margin_right(a, sigma, P, delay)
            assert rep.outputs["c_bar"] == pytest.approx(
                margin_right_composite(a, sigma, P, delay), rel=1e-13)

    def test_gamma_factor_and_w_rate(self):
        rep = margin_right(0.5, 1.0, EYE, 1.0, a_upper=3.0, c=0.001)
        eps = rep.outputs["eps"]
        assert rep.outputs["gamma_factor"] == pytest.approx(1.0 + 2.0 * eps, rel=1e-15)
        assert rep.outputs["w_rate"] == pytest.approx(
            (rep.outputs["c_bar"] - 0.001) / (3.0 + eps), rel=1e-14)

    def test_nonincreasing_in_delay(self):
        vals = [margin_right(0.5, 1.0, EYE, d).outputs["c_bar"]
                for d in (0.0, 0.5, 1.0, 2.0, 4.5)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestMarginLeft:
    def test_worked_constants_exact(self):
        rep = margin_left(1.0, 3.0, 0.5, 3.0, EYE, 1.0)
        o = rep.outputs
        assert o["eps"] == pytest.approx(1.0 / 432.0, rel=1e-12)
        assert o["q"] == 62208
        assert o["T"] == pytest.approx(62352.0, rel=1e-12)
        assert o["c_bar"] == pytest.approx(1.0 / 124704.0, rel=1e-12)
        assert o["lam_min"] ** 2 == pytest.approx(0.75, rel=1e-12)
        assert o["lam_star"] == pytest.approx((math.sqrt(0.75) + 1.0) / 2.0, rel=1e-12)
        assert o["decay_rate"] == pytest.approx(
            math.log(1.0 / o["lam_star"]) / o["T"], rel=1e-12)

    def test_zero_delay_stays_defined(self):
        rep = margin_left(1.0, 3.0, 0.5, 3.0, EYE, 0.0)
        assert rep.outputs["T"] > 0.0
        assert math.isfinite(rep.outputs["c_bar"])

    def test_contraction_residual_signs(self):
        rep = margin_left(1.0, 3.0, 0.5, 3.0, EYE, 1.0)
        assert left_contraction_residual(rep, rep.outputs["lam_star"]) > 0.0
        assert left_contraction_residual(rep, rep.outputs["lam_min"]) <= 1e-12

    def test_feasible_on_random_tuples(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a_lower = 10.0 ** rng.uniform(-1, 1)
            a_upper = a_lower * 10.0 ** rng.uniform(0, 1)
            a = 10.0 ** rng.uniform(-1, 1)
            sigma = 10.0 ** rng.uniform(-1, 1)
            p = np.sort(10.0 ** rng.uniform(-1, 1, 2))
            delay = rng.uniform(0.0, 3.0)
            rep = margin_left(a_lower, a_upper, a, sigma, np.diag(p), delay)
            assert 0.0 < rep.outputs["lam_min"] < 1.0
            assert left_contraction_residual(rep, rep.outputs["lam_star"]) > 0.0

    def test_nonincreasing_in_delay_and_upper(self):
        by_delay = [margin_left(1.0, 3.0, 0.5, 3.0, EYE, d).outputs["c_bar"]
                    for d in (0.0, 0.5, 1.0, 2.0)]
        assert all(a >= b for a, b in zip(by_delay, by_delay[1:]))
        by_upper = [margin_left(1.0, ub, 0.5, 3.0, EYE, 1.0).outputs["c_bar"]
                    for ub in (1.0, 2.0, 3.0, 6.0)]
        assert all(a >= b for a, b in zip(by_upper, by_upper[1:]))

    def test_mu_coefficient_frozen_value(self):
        # with the worked constants the 2T branch of the max dominates:
        # 4 * sqrt(2 * 62352)
        rep = margin_left(1.0, 3.0, 0.5, 3.0, EYE, 1.0)
        assert rep.outputs["mu_coefficient"] == pytest.approx(
            4.0 * math.sqrt(2.0 * 62352.0), rel=1e-12)


class TestExample2Margins:
    def test_eps1_closed_form(self):
        for delay in (0.0, 0.5, 1.0, 2.0, 4.5):
            m = robustness_margin_example2(delay)
            assert m.eps1 == pytest.approx(math.exp(-4.0 * delay) / 16.0,
                                           rel=1e-12)

    def test_closed_form_at_unit_delay(self):
        val = example2_eps2_closed_form(1.0)
        assert val == pytest.approx(1.0 / (8.0 * 186624.0 * (1.0 + 1.0 / 432.0)),
                                    rel=1e-12)
        assert val == pytest.approx(6.683e-7, rel=1e-3)

    def test_margin_vs_closed_form_factor_three(self):
        m = robustness_margin_example2(1.0)
        assert m.eps2_margin / m.eps2_closed_form == pytest.approx(3.0, rel=1e-9)

    def test_crossover_bracket(self):
        hi = robustness_margin_example2(4.5)
        lo = robustness_margin_example2(4.0)
        assert hi.eps2_closed_form > hi.eps1
        assert lo.eps2_closed_form < lo.eps1
        assert hi.crossover and not lo.crossover

    def test_combined_bound_is_max(self):
        m = robustness_margin_example2(1.0)
        assert m.eps_bar == max(m.eps1, m.eps2_margin)
        assert m.eps_bar == m.eps1  # margin route only wins at large delays


class TestRfcBound:
    def test_worked_value(self):
        R = rfc_bound(square_gain(), square_gain(3.0), 0.0, 1.0, square_gain(),
                      0.0, 1.0, 1.0)
        assert R == pytest.approx(math.sqrt(4.0 * math.e), rel=1e-12)

    def test_zero_radius(self):
        assert rfc_bound(square_gain(), square_gain(3.0), 0.0, 1.0,
                         zero_gain(), 0.0, 0.0, 5.0) == 0.0

    def test_monotone_in_horizon(self):
        vals = [rfc_bound(square_gain(), square_gain(2.0), 0.5, 1.0,
                          square_gain(), 0.1, 1.0, T) for T in (1.0, 2.0, 4.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rejects_zero_rate_and_general_alpha(self):
        with pytest.raises(ValueError):
            rfc_bound(square_gain(), square_gain(), 0.0, 0.0, zero_gain(),
                      0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            rfc_bound(lambda s: s ** 2, square_gain(), 0.0, 1.0, zero_gain(),
                      0.0, 1.0, 1.0)


class TestEnvelopeConversions:
    def test_forward_worked_values(self):
        ell, T = expiss_to_two_inequality(2.0, 1.0, 1.0, 0.5)
        assert ell == pytest.approx(2.0 * math.e, rel=1e-12)
        assert T == pytest.approx(1.0 + math.log(4.0), rel=1e-12)

    def test_forward_degenerate(self):
        ell, T = expiss_to_two_inequality(1.0, 1.0, 0.0, 0.5)
        assert ell == 1.0
        assert T == pytest.approx(math.log(2.0), rel=1e-15)

    def test_forward_requires_overshoot_at_least_one(self):
        with pytest.raises(ValueError):
            expiss_to_two_inequality(0.9, 1.0, 1.0, 0.5)

    def test_converse_worked_values(self):
        k, eta, gain = two_inequality_to_expiss(2.0, 2.0, 0.5)
        assert eta == pytest.approx(math.log(2.0) / 2.0, rel=1e-12)
        assert k == 4.0
        assert gain == 5.0

    def test_round_trip_degrades_but_dominates(self):
        k, eta, delay, lam = 2.0, 1.0, 0.0, 0.5
        ell, T = expiss_to_two_inequality(k, eta, delay, lam)
        k2, eta2, _ = two_inequality_to_expiss(ell, T, lam)
        assert k2 == pytest.approx(4.0, rel=1e-12)
        assert eta2 == pytest.approx(0.5, rel=1e-12)

    def test_domination_on_random_tuples(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            k = 1.0 + 9.0 * rng.random()
            eta = 10.0 ** rng.uniform(-2, 0.5)
            delay = rng.uniform(0.0, 2.0)
            lam = rng.uniform(0.05, 0.95)
            ell, T = expiss_to_two_inequality(k, eta, delay, lam)
            k2, eta2, gain = two_inequality_to_expiss(ell, T, lam)
            assert gain >= 1.0
            ts = np.linspace(0.0, T, 50)
            assert np.all(k2 * np.exp(-eta2 * ts)
                          >= k * np.exp(-eta * ts) - 1e-12)


class TestChecks:
    def test_sandwich_standard_lkf(self, lkf):
        sys = make_example1(1.0)
        rep = check_sandwich(lkf, 1.0, 3.0, 2.0, sampler_for(sys), 2000)
        assert not rep.violated
        assert rep.worst <= 1e-9

    def test_sandwich_violation_with_witness(self, lkf):
        sys = make_example1(1.0)
        rep = check_sandwich(lkf, None, 0.5, 2.0, sampler_for(sys), 2000)
        assert rep.violated
        phi, _ = rep.witness
        val = phi.sup_norm()
        assert rep.worst > 0.0 and val > 0.0

    def test_zero_functional_never_violates(self):
        sys = make_example1(1.0)
        V = Scale(0.0, PointQuadratic(EYE))
        rep = check_sandwich(V, None, 0.123, 2.0, sampler_for(sys), 500)
        assert not rep.violated

    def test_dissipation_example1(self, lkf):
        sys = make_example1(1.0)
        rep = check_pointwise_dissipation(sys, lkf, 0.5, 0.0, square_gain(),
                                          sampler_for(sys), 2000)
        assert not rep.violated

    def test_dissipation_tightened_rate_violates(self, lkf):
        sys = make_example1(1.0)
        rep = check_pointwise_dissipation(sys, lkf, 2.0, 0.0, square_gain(),
                                          sampler_for(sys), 2000)
        assert rep.violated
        phi, v = rep.witness
        x0 = float(np.linalg.norm(phi.eval(0.0)))
        from krasovskii.functionals import driver_derivative_closed
        w = sys.field(phi, np.atleast_1d(v))
        residual = (driver_derivative_closed(lkf, phi, w) + 2.0 * x0 ** 2
                    - square_gain()(float(np.linalg.norm(v))))
        assert residual == pytest.approx(rep.worst, rel=1e-12)

    def test_zero_system_zero_rates(self):
        sys = DelaySystem(2, 1, 1.0, lambda phi, v: np.zeros(2), "rest")
        V = PointQuadratic(EYE)
        rep = check_pointwise_dissipation(sys, V, 0.0, 0.0, zero_gain(),
                                          sampler_for(sys), 300)
        assert not rep.violated
        assert rep.worst == pytest.approx(0.0, abs=1e-12)

    def test_growth_checks_example1(self):
        sys = make_example1(1.0)
        right = check_right_growth(sys, EYE, 1.0, square_gain(),
                                   sampler_for(sys), 2000)
        left = check_left_growth(sys, EYE, 3.0, square_gain(),
                                 sampler_for(sys), 2000)
        assert not right.violated and not left.violated

    def test_example3_defeats_left_growth(self):
        sys = make_example3(1.0)
        rep = check_left_growth(sys, EYE, 10.0, square_gain(),
                                sampler_for(sys), 2000)
        assert rep.violated
        phi, v = rep.witness
        lhs = float(phi.eval(0.0) @ sys.field(phi, np.atleast_1d(v)))
        assert lhs < -10.0 * (phi.sup_norm() ** 2
                              + square_gain()(float(np.linalg.norm(v))))

    def test_determinism(self, lkf):
        sys = make_example1(1.0)
        a = check_pointwise_dissipation(sys, lkf, 2.0, 0.0, square_gain(),
                                        sampler_for(sys, 99), 600)
        b = check_pointwise_dissipation(sys, lkf, 2.0, 0.0, square_gain(),
                                        sampler_for(sys, 99), 600)
        assert a.worst == b.worst and a.witness_index == b.witness_index

    def test_blowups_are_skipped_and_counted(self):
        def explosive(phi, v):
            x = phi.eval(0.0)
            return np.array([np.expm1(100.0 * x[0] ** 2) * x[0], 0.0])

        sys = DelaySystem(2, 1, 1.0, explosive, "explosive")
        rep = check_right_growth(sys, EYE, 1.0, square_gain(),
                                 sampler_for(sys), 200)
        assert rep.skipped > 0
        assert rep.samples == 200

    def test_budget_validation(self, lkf):
        sys = make_example1(1.0)
        with pytest.raises(ValueError):
            check_sandwich(lkf, 1.0, 3.0, 2.0, sampler_for(sys), 0)

    def test_report_serialisation(self, lkf):
        sys = make_example1(1.0)
        rep = check_sandwich(lkf, None, 0.5, 2.0, sampler_for(sys), 500)
        rows = rep.csv_rows()
        assert rows[0][0] == "check" and rows[0][6] == "violated"
        assert "not a proof" in rep.text()
