import dataclasses
import math
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from krasovskii import certify, functionals
from krasovskii.certify import (
    CheckReport,
    FalsificationSampler,
    INPUT_SCALES,
    InfeasibilityError,
    MODE_CHOICES,
    NORM_SCALES,
    NO_VIOLATION,
    VIOLATED,
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
from krasovskii.functionals import (
    ConstantWeight,
    DelayedQuadratic,
    ExponentialWeight,
    IntegralQuadratic,
    MaxExp,
    PointQuadratic,
    Scale,
    Sum,
    _form,
    _qform,
    combine_W,
    driver_derivative_closed,
    eval_functional,
    square_gain,
    zero_gain,
)
from krasovskii.histories import (
    SAMPLER_STREAM,
    HistoryFunction,
    _eval_on_grid,
    _fourier_histories,
    _norm,
    _Batch,
    _Part,
    _sum_last,
    constant_history,
)
from krasovskii.systems import (
    DELAYED_UNCERTAINTY,
    DelaySystem,
    UncertaintyPair,
    make_example1,
    make_example2,
    make_example3,
    make_linear_baseline,
)
from tests.conftest import standard_lkf

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


class TestSymmetricIntake:
    """Every P the margins and growth checks take goes through the one
    intake rule of the functionals, functionals._positive_definite."""

    NONSYMMETRIC = [[1.0, 5.0], [0.0, 1.0]]
    INDEFINITE = [[1.0, 2.0], [2.0, 1.0]]

    def test_margins_reject_an_indefinite_P(self):
        with pytest.raises(ValueError, match="^matrix must be positive definite$"):
            margin_right(0.5, 1.0, self.INDEFINITE, 1.0)
        with pytest.raises(ValueError, match="^matrix must be positive definite$"):
            margin_left(1.0, 3.0, 0.5, 3.0, self.INDEFINITE, 1.0)

    @pytest.mark.parametrize("check", [check_right_growth, check_left_growth])
    def test_growth_checks_reject_an_indefinite_P(self, check):
        sys = make_example1(1.0)
        with pytest.raises(ValueError, match="^matrix must be positive definite$"):
            check(sys, self.INDEFINITE, 1.0, square_gain(), sampler_for(sys), 64)

    def test_margins_reject_a_nonsymmetric_P(self):
        # eigvalsh reads one triangle: this P once gave p_m = p_M = 1
        with pytest.raises(ValueError, match="symmetric"):
            margin_right(0.5, 1.0, self.NONSYMMETRIC, 1.0)
        with pytest.raises(ValueError, match="symmetric"):
            margin_left(1.0, 3.0, 0.5, 3.0, self.NONSYMMETRIC, 1.0)

    @pytest.mark.parametrize("check", [check_right_growth, check_left_growth])
    def test_growth_checks_reject_a_nonsymmetric_P(self, check):
        sys = make_example1(1.0)
        with pytest.raises(ValueError, match="symmetric"):
            check(sys, self.NONSYMMETRIC, 1.0, square_gain(), sampler_for(sys), 64)

    def test_a_symmetric_P_keeps_its_bits(self):
        P = np.array([[1.5, 0.1 + 0.2], [0.1 + 0.2, 0.7]])
        eigs = np.linalg.eigvalsh(P)
        rep = margin_right(0.5, 1.0, P, 1.0)
        assert (rep.outputs["p_m"], rep.outputs["p_M"]) == (eigs[0], eigs[-1])


class TestMarginMonotonicity:
    @settings(max_examples=60)
    @given(a_lower=st.floats(0.1, 10.0), ratio=st.floats(1.0, 10.0),
           a=st.floats(0.01, 10.0), sigma=st.floats(0.1, 10.0),
           p=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2),
           delays=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=2))
    def test_nonincreasing_in_delay(self, a_lower, ratio, a, sigma, p, delays):
        short, long = sorted(delays)
        P = np.diag(p)
        right = [margin_right(a, sigma, P, d).outputs for d in (short, long)]
        assert right[0]["eps"] >= right[1]["eps"]
        assert right[0]["c_bar"] >= right[1]["c_bar"]
        assert (margin_history_term(a_lower, a, short)
                >= margin_history_term(a_lower, a, long))
        try:
            left = [margin_left(a_lower, ratio * a_lower, a, sigma, P, d)
                    for d in (short, long)]
        except InfeasibilityError:
            # feasibility does not depend on the delay
            assume(False)
        assert left[0].outputs["c_bar"] >= left[1].outputs["c_bar"]


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

    def test_w_dissipation_example1(self, lkf):
        # the right-growth route's W = V + eps MaxExp(I) dissipates with
        # rate a, history strength 2 eps and gain (1 + 2 eps) s^2
        eps = margin_right(0.5, 1.0, EYE, 1.0).outputs["eps"]
        sampler = FalsificationSampler(20260809, 2, 1, 1.0)
        rep = check_pointwise_dissipation(
            make_example1(1.0), combine_W(lkf, eps, EYE), 0.5, 2.0 * eps,
            square_gain(1.0 + 2.0 * eps), sampler, 10_000)
        assert rep.verdict == NO_VIOLATION
        assert rep.skipped == 0

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

    @pytest.mark.parametrize("check", [
        lambda sys, V, gamma, s: check_pointwise_dissipation(
            sys, V, 0.5, 0.0, gamma, s, 10),
        lambda sys, V, gamma, s: check_right_growth(sys, EYE, 1.0, gamma, s, 10),
        lambda sys, V, gamma, s: check_left_growth(sys, EYE, 3.0, gamma, s, 10),
    ], ids=["dissipation", "right-growth", "left-growth"])
    def test_gain_must_be_a_power_gain(self, lkf, check):
        # a sweep calls gamma once on a whole block of input norms, so a
        # plain callable is refused before the sampler is read
        class Untouched:
            def __getattr__(self, name):
                raise AssertionError(f"sampler.{name} read")

        with pytest.raises(TypeError, match="gamma must be a PowerGain"):
            check(make_example1(1.0), lkf, lambda s: s * s, Untouched())

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

    def test_repeated_sweep_identical(self, lkf):
        # one sampler swept twice gives the same report as a fresh one
        # with the same seed
        sys = make_example1(1.0)
        sampler = sampler_for(sys, 99)
        reports = [check_pointwise_dissipation(sys, lkf, 2.0, 0.0,
                                               square_gain(), s, 600)
                   for s in (sampler, sampler, sampler_for(sys, 99))]
        assert len({report_key(rep) for rep in reports}) == 1

    def test_blowups_are_skipped_and_counted(self):
        def explosive(phi, v):
            x = phi.eval(0.0)
            return np.array([np.expm1(100.0 * x[0] ** 2) * x[0], 0.0])

        sys = DelaySystem(2, 1, 1.0, explosive, "explosive")
        rep = check_right_growth(sys, EYE, 1.0, square_gain(),
                                 sampler_for(sys), 200)
        assert rep.skipped > 0
        assert rep.samples == 200

    @pytest.mark.parametrize("blow", [
        pytest.param(lambda: 10.0 ** 400, id="overflow"),
        pytest.param(lambda: 1.0 / 0.0, id="zero-division"),
    ])
    def test_arithmetic_errors_are_skipped_and_counted(self, blow):
        # any ArithmeticError of a general field skips its sample
        def fragile(phi, v):
            if phi.sup_norm() > 5.0:
                blow()
            return -phi.eval(0.0)

        sys = DelaySystem(2, 1, 1.0, fragile, "fragile")
        sampler = sampler_for(sys)
        rep = check_right_growth(sys, EYE, 1.0, square_gain(), sampler, 200)
        assert rep.samples == 200
        assert rep.skipped == sum(sampler.sample(i)[0].sup_norm() > 5.0
                                  for i in range(200)) > 0

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


# ---------------------------------------------------------------------------
# the batched sweep against the per-sample loop it replaced

def per_sample_reference(check, residual_fn, sampler, budget, tolerance):
    """Reference: the sweep as a loop over single samples, each residual
    computed on its own by residual_fn(phi, v)."""
    if budget < 1:
        raise ValueError("budget must be >= 1")

    def one(i):
        phi, v = sampler.sample(i)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                r = residual_fn(phi, v)
        except (FloatingPointError, OverflowError):
            return None
        if not np.isfinite(r):
            return None
        return float(r)

    worst = -math.inf
    worst_idx = None
    skipped = 0
    for i, r in enumerate([one(i) for i in range(budget)]):
        if r is None:
            skipped += 1
        elif r > worst:
            worst, worst_idx = r, i
    if worst_idx is None:
        raise RuntimeError(f"every sample of check {check} was skipped")
    if worst > tolerance:
        return CheckReport(check, budget, skipped, worst, tolerance, VIOLATED,
                           sampler.sample(worst_idx), worst_idx)
    return CheckReport(check, budget, skipped, worst, tolerance, NO_VIOLATION)


def reference_sandwich(V, a_lower, a_upper, rho):
    def residual(phi, v):
        val = eval_functional(V, phi)
        upper = val - a_upper * phi.sup_norm() ** rho
        if a_lower is None:
            return upper
        x0 = float(np.linalg.norm(phi.eval(0.0)))
        return max(upper, a_lower * x0 ** rho - val)

    return residual


def reference_field(sys, phi, v):
    w = sys.field(phi, np.atleast_1d(v))
    if not np.all(np.isfinite(w)):
        raise FloatingPointError("field evaluation blew up")
    return w


def reference_dissipation(sys, V, a, c, gamma):
    def residual(phi, v):
        w = reference_field(sys, phi, v)
        d = driver_derivative_closed(V, phi, w)
        x0 = float(np.linalg.norm(phi.eval(0.0)))
        return (d + a * x0 ** 2 - c * phi.sup_norm() ** 2
                - gamma(float(np.linalg.norm(v))))

    return residual


def reference_growth(sys, P, sigma, gamma, sign):
    def residual(phi, v):
        w = reference_field(sys, phi, v)
        lhs = float(phi.eval(0.0) @ P @ w)
        cap = sigma * (phi.sup_norm() ** 2 + gamma(float(np.linalg.norm(v))))
        return lhs - cap if sign > 0 else -lhs - cap

    return residual


class MemoSampler:
    """A FalsificationSampler whose draws are kept, so the reference and
    the batched sweep read the very same samples without drawing twice."""

    def __init__(self, seed, n, delay):
        self.inner = FalsificationSampler(seed, n, 1, delay)
        self.drawn = {}

    def sample(self, i):
        if i not in self.drawn:
            self.drawn[i] = self.inner.sample(i)
        return self.drawn[i]


def explosive_pointwise(x, xd, v):
    # overflows to inf at norm scale 10, and only there
    return np.array([np.expm1(100.0 * x[0] ** 2) * x[0], 0.0 * x[1]])


def parity_systems(delay):
    n = 2
    mean_first = UncertaintyPair(
        lambda phi: float(np.mean(phi.values[:, 0])),
        lambda phi: float(phi.eval(-0.5 * phi.delay)[1]))
    return {
        "example1": make_example1(delay),
        "example2-delayed": make_example2(delay, 0.05, DELAYED_UNCERTAINTY),
        "example3": make_example3(delay),
        "linear": make_linear_baseline(1.0, 0.5, delay),
        "example2-user-pair": make_example2(delay, 0.05, mean_first),
        "explosive-pointwise": DelaySystem(
            n, 1, delay, lambda phi, v: explosive_pointwise(
                phi.eval(0.0), phi.eval(-delay), v), "explosive", explosive_pointwise),
        "explosive-field": DelaySystem(
            n, 1, delay, lambda phi, v: explosive_pointwise(
                phi.eval(0.0), phi.eval(-delay), v), "explosive"),
    }


def parity_functionals(n, delay=1.0):
    eye = np.eye(n)
    base = PointQuadratic(eye) + IntegralQuadratic(np.diag([0.0] * (n - 1) + [2.0]))
    return {
        "point": PointQuadratic(np.array([[2.0, 0.3], [0.3, 1.0]])[:n, :n]),
        "delayed": DelayedQuadratic(eye, -0.3 * delay),
        "integral-constant": base,
        "integral-exponential": PointQuadratic(eye) + IntegralQuadratic(
            eye, ExponentialWeight(1.5, 0.7)),
        "combined-W": combine_W(base, 0.02, eye),
    }


PARITY_SYSTEMS = ("example1", "example2-delayed", "example2-user-pair",
                  "example3", "explosive-field", "explosive-pointwise", "linear")
PARITY_FUNCTIONALS = ("combined-W", "delayed", "integral-constant",
                      "integral-exponential", "point")
PARITY_BUDGETS = (1, 35, 37, 576)
PARITY_DELAYS = (1.0, 0.2)


def assert_same_report(got, ref):
    assert got.verdict == ref.verdict
    assert got.samples == ref.samples
    assert got.skipped == ref.skipped
    assert got.witness_index == ref.witness_index
    assert got.worst == pytest.approx(ref.worst, rel=1e-12, abs=0.0)
    if ref.witness is not None:
        assert got.witness[0] is ref.witness[0]


def memoized(residual_fn):
    """residual_fn with its value or exception kept per sample, so the
    references of the nested budgets compute each residual once."""
    seen = {}

    def residual(phi, v):
        key = id(phi)
        if key not in seen:
            try:
                seen[key] = (residual_fn(phi, v), None)
            except (FloatingPointError, OverflowError) as exc:
                seen[key] = (None, exc)
        value, exc = seen[key]
        if exc is not None:
            raise exc
        return value

    return residual


def assert_parity(check, batched, reference, sampler, tolerance=1e-9):
    reference = memoized(reference)
    for budget in PARITY_BUDGETS:
        try:
            ref = per_sample_reference(check, reference, sampler, budget,
                                       tolerance)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                batched(budget)
            continue
        assert_same_report(batched(budget), ref)


class TestBatchedSweepParity:
    @pytest.mark.parametrize("delay", PARITY_DELAYS)
    @pytest.mark.parametrize("name", PARITY_FUNCTIONALS)
    def test_sandwich(self, name, delay):
        V = parity_functionals(2, delay)[name]
        s = MemoSampler(31, 2, delay)
        for a_lower, a_upper in ((1.0, 3.0), (None, 1.2)):
            assert_parity(
                "sandwich",
                lambda b: check_sandwich(V, a_lower, a_upper, 2.0, s, b),
                reference_sandwich(V, a_lower, a_upper, 2.0), s)

    @pytest.mark.parametrize("delay", PARITY_DELAYS)
    @pytest.mark.parametrize("system", PARITY_SYSTEMS)
    def test_dissipation(self, system, delay):
        # every functional on example1; on the other systems one without
        # and one with the max-type term, and on the exploding fields,
        # whose skips are the point, one
        sys = parity_systems(delay)[system]
        s = MemoSampler(32, sys.n, delay)
        gain = square_gain(0.5)
        functionals = parity_functionals(sys.n, delay)
        keep = {"example1": functionals.keys(),
                "linear": ("point", "combined-W"),
                "explosive-field": ("integral-constant",),
                "explosive-pointwise": ("integral-constant",)}.get(
                    system, ("integral-constant", "combined-W"))
        functionals = {k: functionals[k] for k in keep}
        for V in functionals.values():
            assert_parity(
                "pointwise-dissipation",
                lambda b: check_pointwise_dissipation(sys, V, 0.5, 0.01, gain,
                                                      s, b),
                reference_dissipation(sys, V, 0.5, 0.01, gain), s)

    @pytest.mark.parametrize("delay", PARITY_DELAYS)
    @pytest.mark.parametrize("system", PARITY_SYSTEMS)
    def test_growth(self, system, delay):
        sys = parity_systems(delay)[system]
        s = MemoSampler(33, sys.n, delay)
        P = np.array([[2.0, 0.3], [0.3, 1.0]])[:sys.n, :sys.n]
        assert_parity(
            "right-growth",
            lambda b: check_right_growth(sys, P, 1.0, square_gain(), s, b),
            reference_growth(sys, P, 1.0, square_gain(), +1), s)
        assert_parity(
            "left-growth",
            lambda b: check_left_growth(sys, P, 3.0, zero_gain(), s, b),
            reference_growth(sys, P, 3.0, zero_gain(), -1), s)

    def test_forced_skips_are_counted(self):
        sys = parity_systems(1.0)["explosive-pointwise"]
        rep = check_right_growth(sys, EYE, 1.0, square_gain(),
                                 MemoSampler(34, 2, 1.0), 576)
        # only norm scale 10, every third stratum, overflows
        assert 0 < rep.skipped <= 192

    def test_pointwise_formula_must_broadcast(self):
        def by_components(x, xd, v):
            return np.array([float(x[0]) * 0.0, 0.0])

        sys = DelaySystem(2, 1, 1.0, lambda phi, v: by_components(
            phi.eval(0.0), phi.eval(-1.0), v), "scalar-only", by_components)
        with pytest.raises((ValueError, TypeError)):
            check_right_growth(sys, EYE, 1.0, square_gain(),
                               sampler_for(sys), 10)


def report_key(rep):
    return (rep.check, rep.samples, rep.skipped, rep.worst, rep.verdict,
            rep.witness_index)


class TestBlockSizeIndependence:
    @settings(max_examples=12)
    @given(seed=st.integers(0, 2 ** 32 - 1), budget=st.integers(1, 120),
           kind=st.sampled_from(["sandwich", "dissipation", "W-dissipation",
                                 "right-growth", "left-growth"]))
    @example(seed=20260809, budget=120, kind="sandwich")
    @example(seed=20260809, budget=109, kind="W-dissipation")
    def test_reports_identical_for_any_block(self, seed, budget, kind):
        sys = make_example1(1.0)
        V = PointQuadratic(EYE) + IntegralQuadratic(np.diag([0.0, 2.0]))
        s = MemoSampler(seed, 2, 1.0)
        sweeps = {
            "sandwich": lambda: check_sandwich(V, 1.0, 1.5, 2.0, s, budget),
            "dissipation": lambda: check_pointwise_dissipation(
                sys, V, 1.0, 0.0, square_gain(), s, budget),
            "W-dissipation": lambda: check_pointwise_dissipation(
                sys, combine_W(V, 0.02, EYE), 0.5, 0.04, square_gain(1.04),
                s, budget),
            "right-growth": lambda: check_right_growth(
                sys, EYE, 0.5, square_gain(), s, budget),
            "left-growth": lambda: check_left_growth(
                sys, EYE, 1.0, square_gain(), s, budget),
        }
        reports = []
        for size in (1, 7, 36, budget, certify._BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(certify, "_BLOCK", size)
                reports.append(report_key(sweeps[kind]()))
        assert all(rep == reports[0] for rep in reports)


# ---------------------------------------------------------------------------
# batched draws against lone draws

def reference_sample(sampler, i):
    """Reference: sample i by the page definition, drawn with NumPy
    directly.  Page p = i // 64 is np.random.default_rng((seed,
    SAMPLER_STREAM, p)); its first standard_normal call gives (64, 17, n)
    history amplitudes and its second (64, m) inputs.  Sample i reads row
    i % 64 of both, its history the first 1 + 2 modes amplitude rows."""
    strata = i % (len(NORM_SCALES) * len(INPUT_SCALES) * len(MODE_CHOICES))
    norm_scale = NORM_SCALES[strata % len(NORM_SCALES)]
    strata //= len(NORM_SCALES)
    input_scale = INPUT_SCALES[strata % len(INPUT_SCALES)]
    modes = MODE_CHOICES[strata // len(INPUT_SCALES)]
    page, row = divmod(i, 64)
    rng = np.random.default_rng((sampler.seed, SAMPLER_STREAM, page))
    amplitudes = rng.standard_normal((64, 17, sampler.n))[row]
    inputs = rng.standard_normal((64, sampler.m))[row]
    grid, values = _fourier_histories(amplitudes[None, :1 + 2 * modes],
                                      sampler.delay, np.array([norm_scale]))
    return (HistoryFunction(sampler.delay, grid, values[0]),
            input_scale * inputs)


def sample_rows(groups):
    """index -> (grid, values, inputs) of each sample of `groups`."""
    return {i: (g.grid, g.values[j], g.inputs[j])
            for g in groups for j, i in enumerate(g.indices.tolist())}


class TestBatchedDraws:
    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(1, 9),
           m=st.integers(0, 3),
           delay=st.sampled_from([0.0, 0.2, 1.0]) | st.floats(1e-3, 50.0),
           start=st.integers(0, 10 ** 9), length=st.integers(1, 80))
    @example(seed=20260809, n=2, m=1, delay=1.0, start=0, length=80)
    def test_groups_equal_lone_samples(self, seed, n, m, delay, start,
                                       length):
        sampler = FalsificationSampler(seed, n, m, delay)
        drawn = []
        for g in sampler.groups(start, start + length):
            assert not g.values.flags.writeable
            for j, i in enumerate(g.indices.tolist()):
                phi, v = reference_sample(sampler, i)
                got_phi, got_v = sampler.sample(i)
                for grid, values, inputs in ((g.grid, g.values[j], g.inputs[j]),
                                             (got_phi.grid, got_phi.values,
                                              got_v)):
                    assert grid.tobytes() == phi.grid.tobytes()
                    assert values.shape == phi.values.shape
                    assert values.tobytes() == phi.values.tobytes()
                    assert inputs.tobytes() == v.tobytes()
                drawn.append(i)
        assert sorted(drawn) == list(range(start, start + length))

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(1, 4),
           m=st.integers(0, 2), delay=st.sampled_from([0.0, 0.2, 1.0]),
           page=st.integers(0, 10 ** 7), cuts=st.lists(
               st.integers(0, 200), min_size=2, max_size=5, unique=True))
    @example(seed=20260809, n=2, m=1, delay=1.0, page=0, cuts=[0, 63, 65, 200])
    @example(seed=7, n=1, m=0, delay=0.0, page=3, cuts=[1, 64, 127, 128])
    def test_sample_is_its_row_of_groups(self, seed, n, m, delay, page, cuts):
        # any split of a range, including splits inside a page, draws
        # the same rows, and each is sample(i) bit for bit
        sampler = FalsificationSampler(seed, n, m, delay)
        cuts = [64 * page + c for c in sorted(cuts)]
        whole = sample_rows(sampler._draw(cuts[0], cuts[-1]))
        parts = {}
        for start, stop in zip(cuts, cuts[1:]):
            parts.update(sample_rows(sampler._draw(start, stop)))
        assert whole.keys() == parts.keys() == set(range(cuts[0], cuts[-1]))
        for i, rows in whole.items():
            phi, v = sampler.sample(i)
            for got in (rows, parts[i], (phi.grid, phi.values, v)):
                assert [a.tobytes() for a in got] == [a.tobytes() for a in rows]
                assert got[1].shape == rows[1].shape

    @settings(max_examples=12)
    @given(seed=st.integers(0, 2 ** 32 - 1), budget=st.integers(1, 300),
           delay=st.sampled_from([0.0, 0.2, 1.0]),
           kind=st.sampled_from(["sandwich", "dissipation", "W-dissipation",
                                 "right-growth", "field-left-growth"]))
    @example(seed=20260809, budget=300, delay=1.0, kind="right-growth")
    @example(seed=7, budget=300, delay=0.2, kind="field-left-growth")
    @example(seed=7, budget=100, delay=0.0, kind="dissipation")
    def test_sweep_same_through_the_adaptor(self, seed, budget, delay, kind):
        sys = make_example1(delay)
        V = PointQuadratic(EYE) + IntegralQuadratic(np.diag([0.0, 2.0]))
        field_only = parity_systems(delay)["example2-user-pair"]
        sweeps = {
            "sandwich": lambda s: check_sandwich(V, 1.0, 1.5, 2.0, s, budget),
            "dissipation": lambda s: check_pointwise_dissipation(
                sys, V, 1.0, 0.0, square_gain(), s, budget),
            "W-dissipation": lambda s: check_pointwise_dissipation(
                sys, combine_W(V, 0.02, EYE), 0.5, 0.04, square_gain(1.04),
                s, budget),
            "right-growth": lambda s: check_right_growth(
                sys, EYE, 0.5, square_gain(), s, budget),
            "field-left-growth": lambda s: check_left_growth(
                field_only, EYE, 1.0, square_gain(), s, budget),
        }
        batched = sweeps[kind](FalsificationSampler(seed, 2, 1, delay))
        # MemoSampler has only sample(i), so its sweep takes the adaptor
        adapted = sweeps[kind](MemoSampler(seed, 2, delay))
        assert report_key(batched) == report_key(adapted)
        assert np.float64(batched.worst).tobytes() == \
            np.float64(adapted.worst).tobytes()
        if batched.witness is not None:
            assert (batched.witness[0].values.tobytes()
                    == adapted.witness[0].values.tobytes())


# ---------------------------------------------------------------------------
# the sampler's memo of drawn blocks

SHARED_KINDS = ("sandwich", "dissipation", "W-dissipation", "right-growth",
                "field-left-growth")


def sweep_of(kind, sampler, budget, delay=1.0):
    """One example1 sweep of `kind`; "field-left-growth" runs the general
    field path of a system without a pointwise formula.  The sandwich,
    dissipation and right-growth constants are tight enough to refute."""
    sys = make_example1(delay)
    V = PointQuadratic(EYE) + IntegralQuadratic(np.diag([0.0, 2.0]))
    if kind == "sandwich":
        return check_sandwich(V, 1.0, 1.5, 2.0, sampler, budget)
    if kind == "dissipation":
        return check_pointwise_dissipation(sys, V, 1.0, 0.0, square_gain(),
                                           sampler, budget)
    if kind == "W-dissipation":
        return check_pointwise_dissipation(
            sys, combine_W(V, 0.02, EYE), 0.5, 0.04, square_gain(1.04),
            sampler, budget)
    if kind == "right-growth":
        return check_right_growth(sys, EYE, 0.5, square_gain(), sampler,
                                  budget)
    return check_left_growth(parity_systems(delay)["example2-user-pair"], EYE,
                             1.0, square_gain(), sampler, budget)


def report_bits(rep):
    """Everything a report says, floats and arrays as their bytes."""
    witness = None
    if rep.witness is not None:
        phi, v = rep.witness
        witness = (phi.grid.tobytes(), phi.values.tobytes(),
                   np.asarray(v).tobytes())
    return (report_key(rep), np.float64(rep.worst).tobytes(), witness)


def memo_bytes(sampler):
    return sum(block.nbytes for block in sampler._memo.values())


class TestSharedSampler:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           delay=st.sampled_from([0.0, 0.2, 1.0]),
           sweeps=st.lists(st.tuples(st.sampled_from(SHARED_KINDS),
                                     st.sampled_from([1, 37, 256, 600, 1500])
                                     | st.integers(1, 1500)),
                           min_size=1, max_size=4))
    @example(seed=20260809, delay=1.0,
             sweeps=[("sandwich", 600), ("right-growth", 600),
                     ("dissipation", 300), ("field-left-growth", 1500)])
    def test_sharing_a_sampler_changes_nothing(self, seed, delay, sweeps):
        shared = FalsificationSampler(seed, 2, 1, delay)
        for kind, budget in sweeps:
            fresh = FalsificationSampler(seed, 2, 1, delay)
            assert (report_bits(sweep_of(kind, shared, budget, delay))
                    == report_bits(sweep_of(kind, fresh, budget, delay)))
        assert shared._memo.nbytes == memo_bytes(shared)

    def test_kept_groups_are_read_only(self):
        sampler = FalsificationSampler(3, 2, 1, 1.0)
        check_sandwich(PointQuadratic(EYE), 1.0, 3.0, 2.0, sampler, 300)
        assert sampler._memo
        for block in sampler._memo.values():
            for g in block:
                for array in (g.values, g.inputs, g.indices):
                    with pytest.raises(ValueError, match="read-only"):
                        array[0] = 0

    def test_second_sweep_reads_the_kept_blocks(self):
        sampler = FalsificationSampler(3, 2, 1, 1.0)
        first = sampler.groups(0, 256)
        assert sampler.groups(0, 256) is first
        assert list(sampler._memo) == [(0, 256)]

    @pytest.mark.parametrize("blocks_kept", [0, 1, 2])
    def test_blocks_past_the_cap_are_not_kept(self, monkeypatch, blocks_kept):
        monkeypatch.setattr(certify, "_BLOCK", 256)
        budget = 600  # blocks (0, 256), (256, 512) and (512, 600)
        sizes = [FalsificationSampler(5, 2, 1, 1.0)._draw(
            start, min(start + 256, budget)).nbytes for start in (0, 256)]
        cap = sum(sizes[:blocks_kept])
        monkeypatch.setattr(certify, "_MEMO_BYTES", cap)
        sampler = FalsificationSampler(5, 2, 1, 1.0)
        for kind in SHARED_KINDS:
            capped = report_bits(sweep_of(kind, sampler, budget))
            assert memo_bytes(sampler) == sampler._memo.nbytes <= cap
            assert list(sampler._memo) == [(0, 256), (256, 512)][:blocks_kept]
            monkeypatch.setattr(certify, "_MEMO_BYTES", 64 << 20)
            assert capped == report_bits(sweep_of(
                kind, FalsificationSampler(5, 2, 1, 1.0), budget))
            monkeypatch.setattr(certify, "_MEMO_BYTES", cap)

    def test_sample_keeps_nothing(self):
        sampler = FalsificationSampler(7, 2, 1, 1.0)
        for i in (0, 1, 35, 10 ** 6):
            (phi, v), (ref_phi, ref_v) = (sampler.sample(i),
                                          reference_sample(sampler, i))
            assert phi.values.tobytes() == ref_phi.values.tobytes()
            assert v.tobytes() == ref_v.tobytes()
        assert not sampler._memo and sampler._memo.nbytes == 0

    def test_memo_is_no_part_of_equality(self):
        sampler = FalsificationSampler(7, 2, 1, 1.0)
        sampler.groups(0, 10)
        fresh = FalsificationSampler(7, 2, 1, 1.0)
        assert sampler == fresh and hash(sampler) == hash(fresh)
        assert "_memo" not in repr(sampler)

    def test_memo_at_the_acceptance_budget(self):
        # criterion 04's sampler: 10^4 samples of example1 at delay 1
        sampler = FalsificationSampler(20260809, 2, 1, 1.0)
        for start in range(0, 10_000, certify._BLOCK):
            sampler.groups(start, min(start + certify._BLOCK, 10_000))
        assert len(sampler._memo) == math.ceil(10_000 / certify._BLOCK)
        assert sampler._memo.nbytes <= 8 << 20

    def test_memo_counts_every_buffer(self):
        # the memo's count is no less than the distinct buffers its kept
        # blocks and their groups hold, each array followed to the buffer
        # it views
        sampler = FalsificationSampler(20260809, 2, 1, 1.0)
        for start in range(0, 10_000, certify._BLOCK):
            sampler.groups(start, min(start + certify._BLOCK, 10_000))
        buffers = {}
        for block in sampler._memo.values():
            for holder in (block, *block):
                for array in vars(holder).values():
                    if not isinstance(array, np.ndarray):
                        continue
                    while isinstance(array.base, np.ndarray):
                        array = array.base
                    buffers[id(array)] = array
        held = sum(a.nbytes for a in buffers.values())
        assert held <= sampler._memo.nbytes <= 8 << 20


# the reads a block takes when it is built, beside its groups' draws
BLOCK_READS = ("x0", "xd", "inputs", "indices", "point_norm", "sup_norm",
               "input_norm")


def fresh_reads(g):
    """Every read of BLOCK_READS of one group, taken afresh."""
    read = partial(_eval_on_grid, g.delay, g.grid, g.values)
    return {"x0": read(0.0), "xd": read(-g.delay), "inputs": g.inputs,
            "indices": g.indices, "point_norm": _norm(read(0.0)),
            "sup_norm": np.sqrt(np.max(_sum_last(g.values * g.values),
                                       axis=-1)),
            "input_norm": _norm(g.inputs)}


class TestStoredReads:
    @pytest.mark.parametrize("delay", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("source", ["draw", "adaptor"])
    def test_reads_are_the_fresh_reads(self, source, delay):
        # every read a block keeps is the read a check took before it was
        # kept, group by group in the order of the groups, bit for bit,
        # none of them can be written, and the groups hold only their draw
        if source == "draw":
            block = FalsificationSampler(11, 2, 1, delay)._draw(0, 300)
        else:
            block = certify._Block(certify._groups_of_samples(
                MemoSampler(11, 2, delay), 0, 300))
        groups = list(block)
        assert sum(len(g.indices) for g in groups) == 300
        for g in groups:
            assert set(vars(g)) == {"delay", "grid", "values", "inputs",
                                    "indices"}
        fresh = [fresh_reads(g) for g in groups]
        for name in BLOCK_READS:
            kept = getattr(block, name)
            array = np.concatenate([f[name] for f in fresh])
            assert kept.shape == array.shape, name
            assert kept.tobytes() == array.tobytes(), name
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 0
        # at zero delay the two reads are one, and at() returns x0
        assert block.at(0.0) is block.x0
        assert block.at(-delay) is (block.xd if delay else block.x0)
        lag = -0.37 * delay
        assert block.at(lag).tobytes() == np.concatenate(
            [_eval_on_grid(delay, g.grid, g.values, lag) for g in groups]
        ).tobytes()
        with pytest.raises(ValueError, match="outside"):
            block.at(-delay - 1e-6)
        # the memo's byte count covers the draws and the kept reads
        held = {id(a): a for a in (
            *(getattr(block, name) for name in BLOCK_READS),
            *(a for g in groups for a in (g.grid, g.values, g.inputs,
                                          g.indices)))}
        assert block.nbytes == sum(a.nbytes for a in held.values())

    @pytest.mark.parametrize("delay", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("source", ["draw", "adaptor", "wrapper"])
    def test_block_reads_are_one_copy(self, source, delay):
        # a block's reads are its groups' fresh reads joined in the order
        # of its groups, read-only, and kept by the block alone: a group
        # holds no read, and a block of one group joins nothing, so its
        # inputs and indices are the group's own arrays
        sampler = FalsificationSampler(11, 2, 1, delay)
        if source == "draw":
            block = sampler._draw(0, 300)
        elif source == "adaptor":
            block = certify._Block(certify._groups_of_samples(
                MemoSampler(11, 2, delay), 0, 300))
        else:
            block = certify._Block(ZeroInputs(sampler).groups(0, 300))
        groups = list(block)
        assert groups == list(block.parts) and len(groups) == (
            1 if delay == 0.0 else 3)
        assert np.array_equal(np.sort(block.indices), np.arange(300))
        for name in BLOCK_READS:
            joined = getattr(block, name)
            for g in groups:
                if name in ("inputs", "indices"):
                    assert (getattr(g, name) is joined) == (len(groups) == 1)
                else:
                    assert not hasattr(g, name), name
            assert joined.tobytes() == np.concatenate(
                [fresh_reads(g)[name] for g in groups]).tobytes(), name
            with pytest.raises(ValueError, match="read-only"):
                joined[0] = 0
        assert block.at(0.0) is block.x0
        assert block.at(-delay) is (block.xd if delay else block.x0)
        lag = -0.37 * delay
        assert block.at(lag).tobytes() == np.concatenate(
            [_eval_on_grid(delay, g.grid, g.values, lag) for g in groups]
        ).tobytes()
        with pytest.raises(ValueError, match="outside"):
            block.at(-delay - 1e-6)
        # the block's bytes: every read once, and each group's draw, whose
        # inputs and indices are a second copy only when the block joined
        assert block.nbytes == sum(
            getattr(block, name).nbytes for name in BLOCK_READS) + sum(
            g.grid.nbytes + g.values.nbytes for g in groups) + (
            0 if len(groups) == 1 else
            sum(g.inputs.nbytes + g.indices.nbytes for g in groups))

    def test_a_block_has_one_delay(self):
        # a block reads phi(-delay) once for all its groups, so a sampler
        # whose histories differ in delay is refused, not misread
        class MixedDelays:
            def sample(self, i):
                delay = 1.0 if i % 2 else 0.5
                return constant_history(delay, [1.0, 2.0]), np.zeros(1)

        with pytest.raises(ValueError, match="one delay"):
            check_sandwich(PointQuadratic(EYE), 1.0, 3.0, 2.0, MixedDelays(),
                           4)


# ---------------------------------------------------------------------------
# one pass per block against the per-group loop
#
# The reference evaluates each group of a block on its own, as every
# term, field and check did before blocks were evaluated whole, and takes
# each read of a group afresh: the per-group sweep loop, its residuals,
# and the max-type kernel of one grid.

def group_at(g, tau):
    return _eval_on_grid(g.delay, g.grid, g.values, tau)


def group_integral(form, weight_fn, polynomial, g):
    delay, grid, values = g.delay, g.grid, g.values
    if delay == 0.0 or grid.shape[0] < 2:
        return np.zeros(values.shape[0])
    if polynomial:
        mids = 0.5 * (values[:, :-1] + values[:, 1:])
        fa = weight_fn(grid[:-1]) * _qform(values[:, :-1], form)
        fm = weight_fn(0.5 * (grid[:-1] + grid[1:])) * _qform(mids, form)
        fb = weight_fn(grid[1:]) * _qform(values[:, 1:], form)
        return _sum_last(np.diff(grid) / 6.0 * (fa + 4.0 * fm + fb))
    ts = np.linspace(grid[:-1], grid[1:], 17, axis=-1)
    rows = _eval_on_grid(delay, grid, values, ts.ravel())
    f = weight_fn(ts) * _qform(rows, form).reshape((values.shape[0],)
                                                   + ts.shape)
    odd_sum = _sum_last(f[..., 1:-1:2])
    even_sum = _sum_last(f[..., 2:-2:2])
    h = (grid[1:] - grid[:-1]) / 16
    per_segment = h / 3.0 * (f[..., 0] + f[..., -1] + 4.0 * odd_sum
                             + 2.0 * even_sum)
    return np.cumsum(per_segment, axis=-1)[:, -1]


def group_maxexp(V, g, values):
    """The pruned max-type kernel of one grid g: (M, f, rest)."""
    q = _qform(values, V.form)
    e = np.exp(2.0 * g)
    f = e * q
    rest = np.max(f[:, 1:], axis=-1, initial=-np.inf)
    if g.shape[0] < 2:
        return np.maximum(f[:, 0], rest), f, rest
    L = np.diff(g)
    with np.errstate(invalid="ignore"):
        inflate, lim = functionals._limits(V, values.shape[-1], g, q, rest)
        rows, seg = np.nonzero(~(np.maximum(q[:, :-1], q[:, 1:])
                                 * (e[1:] * inflate) < lim[:, None]))
    L, g0 = L[seg], g[seg]
    u = values[rows, seg]
    d = (values[rows, seg + 1] - u) / L[:, None]
    alpha = _qform(d, V.form)
    beta = 2.0 * _qform(u, V.form, d)
    gam = q[rows, seg]
    A = 2.0 * alpha
    B = 2.0 * (alpha + beta)
    C = beta + 2.0 * gam
    scale = np.abs(A) + np.abs(B) + np.abs(C) + 1e-300
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disc = B * B - 4.0 * A * C
        sq = np.sqrt(np.maximum(disc, 0.0))
        quad = np.abs(A) > 1e-14 * scale
        lin = (~quad) & (np.abs(B) > 1e-14 * scale)
        real = quad & ~(disc < 0)
        roots = (np.where(real, (-B - sq) / (2.0 * A),
                          np.where(lin, -C / B, np.nan)),
                 np.where(real, (-B + sq) / (2.0 * A), np.nan))
        for t in roots:
            ok = np.isfinite(t) & (t > 0.0) & (t < L)
            if not ok.any():
                continue
            t = t[ok]
            val = np.exp(2.0 * (g0[ok] + t)) * (alpha[ok] * t * t
                                                 + beta[ok] * t + gam[ok])
            peak = np.full(rest.shape, -np.inf)
            np.maximum.at(peak, rows[ok], val)
            rest = np.where(peak > rest, peak, rest)
    return np.maximum(f[:, 0], rest), f, rest


def group_slope(grid, values, tau):
    if grid.shape[0] < 2:
        return np.zeros((values.shape[0], values.shape[-1]))
    idx = int(np.searchsorted(grid, tau, side="right"))
    idx = min(max(idx, 1), grid.shape[0] - 1)
    return ((values[:, idx] - values[:, idx - 1])
            / (grid[idx] - grid[idx - 1]))


def group_values(V, g):
    if isinstance(V, DelayedQuadratic):
        return _qform(group_at(g, V.at), V.form)
    if isinstance(V, IntegralQuadratic):
        return group_integral(V.form, V.weight.value, V.weight.polynomial, g)
    if isinstance(V, MaxExp):
        return group_maxexp(V, g.grid, g.values)[0]
    if isinstance(V, Scale):
        return V.k * group_values(V.inner, g)
    return group_values(V.left, g) + group_values(V.right, g)


def group_closed(V, g, w):
    if isinstance(V, DelayedQuadratic):
        slope = w if V.at == 0.0 else group_slope(g.grid, g.values, V.at)
        return 2.0 * _qform(group_at(g, V.at), V.form, slope)
    if isinstance(V, IntegralQuadratic):
        wt = V.weight
        boundary = (float(wt.value(0.0)) * _qform(group_at(g, 0.0), V.form)
                    - float(wt.value(-g.delay))
                    * _qform(group_at(g, -g.delay), V.form))
        if wt.polynomial:
            return boundary
        return boundary - group_integral(V.form, wt.derivative, False, g)
    if isinstance(V, Scale):
        return V.k * group_closed(V.inner, g, w)
    if isinstance(V, Sum):
        return group_closed(V.left, g, w) + group_closed(V.right, g, w)
    point = 2.0 * _qform(group_at(g, 0.0), V.form, w)
    if g.grid.shape[0] < 2:
        return point
    M, f, rest = group_maxexp(V, g.grid, g.values)
    tie = M - 1e-9 * np.abs(M)
    d_start = 2.0 * f[:, 0] + 2.0 * np.exp(2.0 * g.grid[0]) * _qform(
        g.values[:, 0], V.form, group_slope(g.grid, g.values, g.grid[0]))
    d = np.where(rest >= tie, 0.0, -np.inf)
    d = np.where(f[:, 0] >= tie, np.maximum(d, d_start), d)
    d = np.where(f[:, -1] >= tie, np.maximum(d, 2.0 * M + point), d)
    return d - 2.0 * M


def group_field(sys, g):
    if sys.pointwise is not None:
        w = np.asarray(sys.pointwise(group_at(g, 0.0).T,
                                     group_at(g, -sys.delay).T,
                                     g.inputs.T), dtype=float)
        return np.ascontiguousarray(w.T)
    rows = np.empty((g.values.shape[0], sys.n))
    for j, (row, v) in enumerate(zip(g.values, g.inputs)):
        try:
            rows[j] = sys.field(HistoryFunction._trusted(g.delay, g.grid, row),
                                v)
        except ArithmeticError:
            rows[j] = np.nan
    return rows


def group_residual(check, sys, V, P, gamma):
    """The residual of one group for each check, with its constants as
    the block tests set them."""
    form = _form(P)

    def residual(g):
        reads = fresh_reads(g)
        if check == "sandwich":
            val = group_values(V, g)
            upper = val - 3.0 * reads["sup_norm"] ** 2.0
            lower = 0.5 * reads["point_norm"] ** 2.0 - val
            return np.where(lower > upper, lower, upper)
        w = group_field(sys, g)
        if check == "dissipation":
            r = (group_closed(V, g, w) + 0.5 * reads["point_norm"] ** 2
                 - 0.01 * reads["sup_norm"] ** 2 - gamma(reads["input_norm"]))
        else:
            lhs = _qform(reads["x0"], form, w)
            cap = 1.0 * (reads["sup_norm"] ** 2 + gamma(reads["input_norm"]))
            r = lhs - cap if check == "right-growth" else -lhs - cap
        return np.where(np.all(np.isfinite(w), axis=-1), r, np.nan)

    return residual


def block_check(check, sys, V, P, gamma, sampler, budget):
    if check == "sandwich":
        return check_sandwich(V, 0.5, 3.0, 2.0, sampler, budget)
    if check == "dissipation":
        return check_pointwise_dissipation(sys, V, 0.5, 0.01, gamma, sampler,
                                           budget)
    growth = check_right_growth if check == "right-growth" else \
        check_left_growth
    return growth(sys, P, 1.0, gamma, sampler, budget)


def per_group_sweep(name, residual, sampler, budget, tolerance=1e-9):
    """The sweep loop that evaluates each group of a block on its own:
    (its report, the residuals)."""
    groups = getattr(sampler, "groups", None)
    draw = groups or partial(certify._groups_of_samples, sampler)
    r = np.empty(budget)
    best, held = -np.inf, ()
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, budget, certify._BLOCK):
            stop = min(start + certify._BLOCK, budget)
            block = list(draw(start, stop))
            for group in block:
                r[group.indices] = residual(group)
            top = np.max(r[start:stop], where=np.isfinite(r[start:stop]),
                         initial=-np.inf)
            if top > best:
                best, held = top, block
    finite = np.isfinite(r)
    if not finite.any():
        raise RuntimeError(f"every sample of check {name} was skipped")
    skipped = budget - int(np.count_nonzero(finite))
    worst_idx = int(np.argmax(np.where(finite, r, -np.inf)))
    worst = float(r[worst_idx])
    if worst > tolerance:
        witness = (certify._row(held, worst_idx) if groups
                   else sampler.sample(worst_idx))
        return CheckReport(name, budget, skipped, worst, tolerance, VIOLATED,
                           witness, worst_idx), r
    return CheckReport(name, budget, skipped, worst, tolerance,
                       NO_VIOLATION), r


class ZeroInputs:
    """Criterion 05's sampler: each group of the inner block with its
    inputs replaced by zeros."""

    def __init__(self, inner):
        self.inner = inner

    def sample(self, i):
        phi, _ = self.inner.sample(i)
        return phi, np.zeros(1)

    def groups(self, start, stop):
        return [dataclasses.replace(g, inputs=np.zeros_like(g.inputs))
                for g in self.inner.groups(start, stop)]


def ill_conditioned_P():
    """A non-diagonal P of condition number 1e14, past the range where
    the max-type kernel prunes any segment."""
    c, s = math.cos(0.3), math.sin(0.3)
    R = np.array([[c, -s], [s, c]])
    P = R @ np.diag([1.0, 1e-14]) @ R.T
    return 0.5 * (P + P.T)


BLOCK_P = np.array([[2.0, 0.3], [0.3, 1.0]])
CHECK_NAMES = {"sandwich": "sandwich", "dissipation": "pointwise-dissipation",
               "right-growth": "right-growth", "left-growth": "left-growth"}


def block_terms(delay):
    return {
        "point": PointQuadratic(BLOCK_P),
        "delayed-half": DelayedQuadratic(BLOCK_P, -0.5 * delay),
        "delayed-0.3": DelayedQuadratic(BLOCK_P, -0.3),
        "integral-constant": IntegralQuadratic(BLOCK_P, ConstantWeight(2.0)),
        "integral-exponential": IntegralQuadratic(
            BLOCK_P, ExponentialWeight(1.5, 0.7)),
        "max": MaxExp(BLOCK_P),
        "max-ill": MaxExp(ill_conditioned_P()),
        "W": combine_W(standard_lkf(), 0.02, BLOCK_P),
    }


def block_samplers(seed, delay):
    return {
        "draw": FalsificationSampler(seed, 2, 1, delay),
        "adaptor": MemoSampler(seed, 2, delay),
        "wrapper": ZeroInputs(FalsificationSampler(seed, 2, 1, delay)),
    }


class TestOnePassPerBlock:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           delay=st.sampled_from([0.0, 0.2, 1.0, 3.0]),
           budget=st.sampled_from([1, 64, 1024, 1025, 1500])
           | st.integers(1, 1500),
           source=st.sampled_from(["draw", "adaptor", "wrapper"]),
           system=st.sampled_from(["example1", "example2-user-pair"]),
           term=st.sampled_from(["point", "delayed-half", "delayed-0.3",
                                 "integral-constant", "integral-exponential",
                                 "max", "max-ill", "W"]),
           check=st.sampled_from(["sandwich", "dissipation", "right-growth",
                                  "left-growth"]))
    @example(seed=20260809, delay=1.0, budget=1500, source="draw",
             system="example1", term="W", check="dissipation")
    @example(seed=11, delay=3.0, budget=1025, source="adaptor",
             system="example2-user-pair", term="max-ill", check="sandwich")
    @example(seed=5, delay=0.2, budget=700, source="wrapper",
             system="example1", term="delayed-0.3", check="dissipation")
    @example(seed=7, delay=0.0, budget=300, source="draw",
             system="example2-user-pair", term="integral-exponential",
             check="left-growth")
    def test_block_equals_the_per_group_loop(self, seed, delay, budget,
                                             source, system, term, check):
        sys = parity_systems(delay)[system]
        V = block_terms(delay)[term]
        P = V.P if isinstance(V, MaxExp) else BLOCK_P
        gamma = square_gain(0.5)
        recorded = {}
        sweep = certify._sweep

        def recording(name, residual, sampler, budget, tolerance):
            r = recorded[name] = np.full(budget, -1.0)

            def block_residual(block):
                out = residual(block)
                r[block.indices] = out
                return out

            return sweep(name, block_residual, sampler, budget, tolerance)

        outcomes = []
        for run in ("block", "reference"):
            sampler = block_samplers(seed, delay)[source]
            try:
                if run == "block":
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(certify, "_sweep", recording)
                        rep = block_check(check, sys, V, P, gamma, sampler,
                                          budget)
                    (r,) = recorded.values()
                else:
                    rep, r = per_group_sweep(
                        CHECK_NAMES[check],
                        group_residual(check, sys, V, P, gamma), sampler,
                        budget)
            except (ValueError, RuntimeError) as exc:
                outcomes.append((type(exc), str(exc)))
                continue
            outcomes.append((report_bits(rep), r.tobytes()))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           delay=st.sampled_from([0.0, 0.2, 1.0, 3.0]),
           stop=st.integers(1, 1024),
           source=st.sampled_from(["draw", "adaptor", "wrapper"]),
           system=st.sampled_from(["example1", "example2-user-pair"]))
    @example(seed=20260809, delay=1.0, stop=576, source="draw",
             system="example1")
    def test_terms_equal_the_per_group_terms(self, seed, delay, stop, source,
                                             system):
        # every term's value and closed-form derivative on a block, and
        # the field, are the per-group results joined in group order
        sys = parity_systems(delay)[system]
        sampler = block_samplers(seed, delay)[source]
        if source == "adaptor":
            block = certify._Block(certify._groups_of_samples(sampler, 0,
                                                              stop))
        else:
            block = certify._Block(sampler.groups(0, stop))
        w = certify._field(sys, block)
        assert w.tobytes() == np.concatenate(
            [group_field(sys, g) for g in block]).tobytes()
        for name, V in block_terms(delay).items():
            if name == "delayed-0.3" and delay < 0.3:
                with pytest.raises(ValueError, match="outside"):
                    functionals._values(V, block)
                continue
            with np.errstate(all="ignore"):
                got = (functionals._values(V, block),
                       functionals._closed(V, block, w))
                ref = [], []
                for g, rows in zip(block, group_rows(block)):
                    ref[0].append(group_values(V, g))
                    ref[1].append(group_closed(V, g, w[rows]))
            for a, b in zip(got, ref):
                assert a.tobytes() == np.concatenate(b).tobytes(), name


def group_rows(block):
    """The rows of each group in its block."""
    lo = 0
    for g in block:
        yield slice(lo, lo + g.indices.shape[0])
        lo += g.indices.shape[0]


@st.composite
def read_set_cases(draw):
    """(V, batch, w): an integral term whose Q (n = 1..4) has zero rows
    and columns, with a constant weight of 1.0 or 0.5 or an exponential
    weight, on a batch of parts of 1, 2, 17 or 65 nodes, and slope rows w."""
    n = draw(st.integers(1, 4))
    read = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                    dtype=float)
    S = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n * n,
                               max_size=n * n))).reshape(n, n)
    weight = draw(st.sampled_from([ConstantWeight(1.0), ConstantWeight(0.5),
                                   ExponentialWeight(1.5, 0.7)]))
    sizes = draw(st.sampled_from([[1], [2], [17], [65], [2, 17, 65], [65, 2]]))
    delay = 0.0 if sizes == [1] else draw(st.sampled_from([0.2, 1.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = []
    for size in sizes:
        grid = np.zeros(1) if size == 1 else np.concatenate(
            [[-delay], np.sort(rng.uniform(-delay, 0.0, size - 2)), [0.0]])
        rows = draw(st.integers(1, 4))
        parts.append(_Part(delay, grid, rng.normal(size=(rows, size, n))))
    w = rng.normal(size=(sum(p.values.shape[0] for p in parts), n))
    return IntegralQuadratic((S + S.T) * np.outer(read, read), weight), \
        _Batch(parts), w


class TestIntegralReadSet:
    """The integral term averages, interpolates and forms only the
    components its Q reads, and multiplies by a constant weight only when
    it is not 1.0: the bits of the per-group reference, which does all
    of that on every component."""

    @settings(max_examples=200, deadline=None)
    @given(read_set_cases())
    def test_is_the_full_component_reference(self, case):
        V, batch, w = case
        wt, ends = V.weight, np.cumsum([0] + [p.values.shape[0] for p in batch])
        values = np.concatenate([group_integral(V.form, wt.value,
                                                wt.polynomial, p)
                                 for p in batch])
        closed = np.concatenate([group_closed(V, p, w[a:b]) for p, a, b
                                 in zip(batch, ends[:-1], ends[1:])])
        assert functionals._values(V, batch).tobytes() == values.tobytes()
        assert functionals._closed(V, batch, w).tobytes() == closed.tobytes()

    def test_reads_only_what_Q_reads(self):
        # example1's integral term reads its second component alone; a Q
        # reading components 0 and 2 of 3 reads the span 0..2, its form
        # unchanged; a zero Q reads nothing
        span, form = IntegralQuadratic(np.diag([0.0, 2.0])).reads
        assert (span, form) == (slice(1, 2), ((0, 0, 2.0),))
        Q = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.5],
                      [0.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 2.0]])
        assert IntegralQuadratic(Q).reads == (
            slice(1, 4), ((0, 0, 1.0), (0, 2, 0.5), (2, 0, 0.5), (2, 2, 2.0)))
        assert IntegralQuadratic(np.zeros((2, 2))).reads == (slice(0, 0), ())


# ---------------------------------------------------------------------------
# criterion 04's exact thresholds: example1 with standard_lkf(), V =
# |phi(0)|^2 + 2 * integral of phi_2^2, where every residual is a closed
# form in x = phi(0), y = phi(-delay) and v

# a* of the dissipation check with c = 0 and gamma(s) = s^2: the residual
# (a-1) x1^2 + 2 x1 y2 - 2 y2^2 + (a-2) x2^2 + 2 x2 v - v^2 is negative
# semidefinite iff a <= 1/2
DISSIPATION_A = 0.5
# sigma* of right growth with P = I: the maximum of phi(0)'f over
# max(|x|^2, |y|^2) + v^2, reached by the ramp from y = (0, 1) to x = (1, 0)
RIGHT_GROWTH_SIGMA = 0.5
THRESHOLD_BUDGET = 1000


def sandwich_thresholds(delay):
    """(a_lower*, a_upper*) with rho = 2: V >= |phi(0)|^2, equal where
    phi_2 = 0; V <= (1 + 2 delay) sup|phi|^2, equal on the constant
    histories with phi_1 = 0."""
    return 1.0, 1.0 + 2.0 * delay


class TestExactThresholds:
    @settings(max_examples=10)
    @given(seed=st.integers(0, 2 ** 32 - 1), delay=st.sampled_from([0.2, 1.0]))
    @example(seed=20260809, delay=1.0)
    def test_no_violation_at_the_threshold(self, seed, delay):
        sys, V = make_example1(delay), standard_lkf()
        sampler = FalsificationSampler(seed, 2, 1, delay)
        a_lower, a_upper = sandwich_thresholds(delay)
        B = THRESHOLD_BUDGET
        for rep in (
                check_pointwise_dissipation(sys, V, DISSIPATION_A, 0.0,
                                            square_gain(), sampler, B),
                check_sandwich(V, a_lower, a_upper, 2.0, sampler, B),
                check_right_growth(sys, EYE, RIGHT_GROWTH_SIGMA,
                                   square_gain(), sampler, B)):
            assert rep.verdict == NO_VIOLATION and rep.skipped == 0, rep.check

    @pytest.mark.parametrize("delay", [0.2, 1.0])
    @pytest.mark.parametrize("seed", [20260809, 0, 1])
    def test_refuted_past_the_threshold(self, seed, delay):
        # the distances that every measured seed refutes at this budget:
        # 10% above a*, and 0.1% past either sandwich constant.  Right
        # growth is not pinned: at this budget some seeds miss even
        # sigma = 0.25, half its threshold.
        sys, V = make_example1(delay), standard_lkf()
        sampler = FalsificationSampler(seed, 2, 1, delay)
        a_lower, a_upper = sandwich_thresholds(delay)
        B = THRESHOLD_BUDGET
        assert check_pointwise_dissipation(sys, V, 1.1 * DISSIPATION_A, 0.0,
                                           square_gain(), sampler, B).violated
        assert check_sandwich(V, None, 0.999 * a_upper, 2.0, sampler,
                              B).violated
        assert check_sandwich(V, 1.001 * a_lower, a_upper, 2.0, sampler,
                              B).violated


# ---------------------------------------------------------------------------
# closed forms of acceptance criteria 01-02 against 50-digit evaluations

def assert_close(value, oracle, rel=1e-13):
    assert abs(value - float(oracle)) <= rel * abs(float(oracle))


class TestMpmathOracles:
    @pytest.fixture(autouse=True)
    def fifty_digits(self):
        with mpmath.workdps(50):
            yield

    @pytest.mark.parametrize("delay", [0.0, 0.5, 1.0, 2.0, 4.5])
    def test_margin_right(self, delay):
        a, sigma, p_m, p_M = (mpmath.mpf(0.5), mpmath.mpf(1), mpmath.mpf(1),
                              mpmath.mpf(1))
        decay = mpmath.exp(-2 * mpmath.mpf(delay))
        eps = a * p_m * decay / (4 * sigma * p_M)
        c_bar = min(2 * eps, a / (2 * p_M)) * p_m * decay
        out = margin_right(a=0.5, sigma=1.0, P=EYE, delay=delay).outputs
        assert_close(out["eps"], eps)
        assert_close(out["c_bar"], c_bar)
        assert_close(out["gamma_factor"], 1 + 2 * eps * sigma)
        # criterion 01's closed form
        assert_close(out["c_bar"], mpmath.exp(-4 * mpmath.mpf(delay)) / 4)

    def test_margin_left_worked_values(self):
        a_lower, a_upper, a, sigma = (mpmath.mpf(1), mpmath.mpf(3),
                                      mpmath.mpf(0.5), mpmath.mpf(3))
        p_m = p_M = mpmath.mpf(1)
        delay = mpmath.mpf(1)
        eps = p_m * a_lower ** 2 / (16 * a_upper ** 2 * sigma)
        q = int(mpmath.ceil(p_M / (sigma * eps * eps)))
        T = q * (delay + eps)
        qe = q * eps
        lam_min = mpmath.sqrt(
            (2 * a_upper / a_lower + qe / p_M * (4 * eps * sigma * a_upper / a_lower))
            * 2 * a_upper * p_M / (qe * p_m * a_lower))
        out = margin_left(1.0, 3.0, 0.5, 3.0, EYE, 1.0).outputs
        assert_close(out["eps"], eps)
        assert out["q"] == q == 62208
        assert_close(out["T"], T)
        assert_close(out["c_bar"], a_lower / (2 * T))
        assert_close(out["lam_min"], lam_min)

    @pytest.mark.parametrize("c, delay", [(0.0, 1.0), (0.1, 1.0), (0.02, 2.5)])
    def test_history_term_constants(self, c, delay):
        a_lower, a_upper, a, rho = (mpmath.mpf(1), mpmath.mpf(3),
                                    mpmath.mpf(0.5), mpmath.mpf(2))
        c, d = mpmath.mpf(c), mpmath.mpf(delay)
        growth = mpmath.exp(a * d)
        base = c * growth / (a_lower * a)
        eps = mpmath.mpf(0.5) * (1 / base - 1) if base > 0 else mpmath.mpf(0)
        xi = 1 - base * (1 + eps)
        rep = history_term_constants(1.0, 3.0, 0.5, 2.0, float(c), delay)
        assert_close(rep.outputs["c_bar"], a_lower * a * mpmath.exp(-a * d))
        if base > 0:
            assert_close(rep.inputs["eps"], eps)
        else:
            assert rep.inputs["eps"] == 0.0
        assert_close(rep.outputs["xi"], xi)
        assert_close(rep.outputs["overshoot_k"],
                     (2 * a_upper * growth / (a_lower * xi)) ** (1 / rho))
        assert_close(rep.outputs["gain_prefactor"],
                     (2 * growth * (1 + eps) / (a_lower * a * xi)) ** (1 / rho))
