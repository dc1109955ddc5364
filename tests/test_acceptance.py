"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantities (run with -v or -s to see them)."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from krasovskii.certify import (
    FalsificationSampler,
    check_left_growth,
    check_pointwise_dissipation,
    check_right_growth,
    check_sandwich,
    expiss_to_two_inequality,
    margin_left,
    margin_right,
    rfc_bound,
    robustness_margin_example2,
    two_inequality_to_expiss,
)
from krasovskii.cli import main as cli_main
from krasovskii.estimate import (
    empirical_two_inequality,
    fit_envelope,
    fit_iss_gain,
    run_ensemble,
    seeded_history_sampler,
)
from krasovskii.functionals import (
    MaxExp,
    driver_derivative_closed,
    driver_derivative_numeric,
    eval_functional,
    square_gain,
    zero_gain,
)
from krasovskii.histories import constant_history, random_history
from krasovskii.solver import COMPLETED, integrate
from krasovskii.systems import (
    constant_input,
    make_example1,
    make_example3,
    make_linear_baseline,
    sinusoid_input,
    zero_input,
)
from tests.conftest import shift_input, standard_lkf, window

EYE = np.eye(2)
DELTAS = (0.0, 0.5, 1.0, 2.0, 4.5)


def report(n, detail):
    print(f"CRITERION {n:02d} PASS: {detail}")


@pytest.fixture(scope="module")
def example1():
    return make_example1(1.0)


@pytest.fixture(scope="module")
def example1_ensemble(example1):
    hist = seeded_history_sampler(909, 2, 1.0, 1.0)
    return run_ensemble(example1, hist, None, 50, 20.0, 1e-3)


def test_criterion_01_right_margin_closed_forms():
    for delay in DELTAS:
        rep = margin_right(a=0.5, sigma=1.0, P=EYE, delay=delay)
        assert rep.outputs["c_bar"] == pytest.approx(
            math.exp(-4.0 * delay) / 4.0, rel=1e-12)
        m = robustness_margin_example2(delay)
        assert m.eps1 == pytest.approx(math.exp(-4.0 * delay) / 16.0, rel=1e-12)
    report(1, "c_bar = exp(-4 delay)/4 and eps1 = exp(-4 delay)/16 on all "
              f"delays {DELTAS} at 1e-12 relative")


def test_criterion_02_left_margin_worked_values():
    rep = margin_left(a_lower=1.0, a_upper=3.0, a=0.5, sigma=3.0, P=EYE,
                      delay=1.0)
    o = rep.outputs
    assert o["eps"] == pytest.approx(1.0 / 432.0, rel=1e-12)
    assert isinstance(o["q"], int) and o["q"] == 62208
    assert o["T"] == pytest.approx(62352.0, rel=1e-12)
    assert o["c_bar"] == pytest.approx(1.0 / 124704.0, rel=1e-12)
    assert o["lam_min"] ** 2 == pytest.approx(0.75, rel=1e-12)
    m = robustness_margin_example2(1.0)
    assert m.eps2_closed_form == pytest.approx(6.683e-7, rel=1e-3)
    ratio = m.eps2_margin / m.eps2_closed_form
    assert ratio == pytest.approx(3.0, rel=1e-6)
    report(2, f"eps=1/432, q=62208, T=62352, c_bar=1/124704, lam_min^2=0.75; "
              f"closed form {m.eps2_closed_form:.4e} vs computed "
              f"{m.eps2_margin:.4e} (factor {ratio:.3f} surfaced)")


def test_criterion_03_crossover():
    import mpmath

    mpmath.mp.dps = 50
    hi = robustness_margin_example2(4.5)
    lo = robustness_margin_example2(4.0)
    assert hi.eps2_closed_form > hi.eps1
    assert lo.eps2_closed_form < lo.eps1
    # independent high-precision evaluation of both closed forms
    eps1_hp = mpmath.exp(-18) / 16
    eps2_hp = 1 / (8 * mpmath.mpf(23040000) * (mpmath.mpf(9) / 2
                                               + mpmath.mpf(1) / 4800))
    ratio_hp = float(eps2_hp / eps1_hp)
    assert hi.eps2_closed_form / hi.eps1 == pytest.approx(ratio_hp, rel=1e-3)
    assert hi.eps2_closed_form == pytest.approx(1.206e-9, rel=1e-3)
    # the reference value 9.54e-10 sits 0.2% above exp(-18)/16 = 9.519e-10
    assert hi.eps1 == pytest.approx(9.54e-10, rel=5e-3)
    report(3, f"eps2 {hi.eps2_closed_form:.4e} > eps1 {hi.eps1:.4e} at delay 4.5, "
              f"reversed at 4.0; ratio matches high-precision evaluation")


@pytest.mark.slow
def test_criterion_04_certificate_suite(example1):
    lkf = standard_lkf()
    sampler = FalsificationSampler(20260809, 2, 1, 1.0)
    budget = 10_000
    gam = square_gain()
    clean = [
        check_sandwich(lkf, 1.0, 3.0, 2.0, sampler, budget),
        check_pointwise_dissipation(example1, lkf, 0.5, 0.0, gam, sampler,
                                    budget),
        check_right_growth(example1, EYE, 1.0, gam, sampler, budget),
        check_left_growth(example1, EYE, 3.0, gam, sampler, budget),
    ]
    assert all(not rep.violated for rep in clean)
    tight_rate = check_pointwise_dissipation(example1, lkf, 2.0, 0.0, gam,
                                             sampler, budget)
    tight_growth = check_right_growth(example1, EYE, 0.1, gam, sampler, budget)
    assert tight_rate.violated and tight_rate.witness is not None
    assert tight_growth.violated and tight_growth.witness is not None
    report(4, "all four hypothesis checks clean at 1e4 samples; tightened "
              f"constants refuted (witnesses #{tight_rate.witness_index}, "
              f"#{tight_growth.witness_index})")


def test_criterion_05_example3_refutation():
    class ZeroInputSampler:
        def __init__(self, inner):
            self.inner = inner

        def sample(self, i):
            phi, _ = self.inner.sample(i)
            return phi, np.zeros(1)

        def groups(self, start, stop):
            # the inner sampler's block draw, so a sweep draws each
            # page once rather than once per sample
            return [dataclasses.replace(g, inputs=np.zeros_like(g.inputs))
                    for g in self.inner.groups(start, stop)]

    sys3 = make_example3(1.0)
    sampler = ZeroInputSampler(FalsificationSampler(20260809, 2, 1, 1.0))
    rep = check_left_growth(sys3, EYE, 10.0, zero_gain(), sampler, 10_000)
    assert rep.violated
    phi, v = rep.witness
    lhs = float(phi.eval(0.0) @ sys3.field(phi, v))
    assert lhs < -10.0 * phi.sup_norm() ** 2
    report(5, f"witness #{rep.witness_index}: x(0)'f = {lhs:.4g} < "
              f"-10 sup^2 = {-10.0 * phi.sup_norm() ** 2:.4g}")


def test_criterion_06_derivative_cross_check():
    # sampled at norm scale 0.01 so the first-order quotient error stays
    # below the 1e-6 floor for every draw; formula errors would still
    # surface at ~1e-4
    lkf = standard_lkf()
    worst = 0.0
    for i in range(1000):
        rng = np.random.default_rng((606, i))
        phi = random_history((606, i, 1), 2, 1.0, 0.01, i % 3)
        w = 0.01 * rng.standard_normal(2)
        closed = driver_derivative_closed(lkf, phi, w)
        numeric = driver_derivative_numeric(lkf, phi, w, (1e-4,))
        diff = abs(numeric - closed)
        assert diff <= max(1e-6, 1e-3 * abs(closed))
        worst = max(worst, diff)
    report(6, f"1e3 samples at h = 1e-4 * delay, worst |numeric - closed| "
              f"= {worst:.3e}")


def test_criterion_07_branch_inequalities():
    # fine steps keep the quotient within tolerance of the branch caps
    # near switch points
    schedule = (1e-7, 1e-8)
    counts = []
    for p_seed in range(3):
        rng = np.random.default_rng(7000 + p_seed)
        A = rng.standard_normal((2, 2))
        P = A @ A.T + 0.5 * EYE
        term = MaxExp(P)
        strict = equality = 0
        for i in range(1000):
            phi = random_history((707, p_seed, i), 2, 1.0, 1.0, i % 5)
            w = np.random.default_rng((707, p_seed, i, 1)).standard_normal(2)
            v0 = eval_functional(term, phi)
            x0 = phi.eval(0.0)
            quotient = driver_derivative_numeric(term, phi, w, schedule)
            tol = 1e-3 * (1.0 + abs(v0))
            if v0 > float(x0 @ P @ x0) * (1.0 + 1e-6):
                strict += 1
                assert quotient <= -2.0 * v0 + tol
            else:
                equality += 1
                assert quotient <= max(-2.0 * v0,
                                       2.0 * float(x0 @ P @ w)) + tol
        counts.append((strict, equality))
    report(7, f"3 random spd P x 1e3 samples, branch splits {counts}")


def test_criterion_08_solver_orders():
    # pure ODE: classical fourth order
    pure = make_linear_baseline(1.0, 0.0, 0.0)
    perrs = []
    for dt in (0.05, 0.025):
        tr = integrate(pure, constant_history(0.0, [1.0]), None, 1.0, dt)
        sel = tr.times >= 0.0
        perrs.append(np.max(np.abs(tr.values[sel, 0] - np.exp(-tr.times[sel]))))
    pure_order = math.log2(perrs[0] / perrs[1])
    assert pure_order == pytest.approx(4.0, abs=0.2)

    # delayed baseline dx/dt = -x(t) - x(t-1): hand-derived solution is
    # 2 e^{-t} - 1 on [0,1] and 2 e^{-t}(1 - e t) + 1 on [1,2]
    def exact(t):
        return np.where(t <= 1.0, 2.0 * np.exp(-t) - 1.0,
                        2.0 * np.exp(-t) * (1.0 - math.e * t) + 1.0)

    delayed = make_linear_baseline(1.0, -1.0, 1.0)
    derrs = []
    for dt in (1.0 / 16, 1.0 / 32):
        tr = integrate(delayed, constant_history(1.0, [1.0]), None, 2.0, dt)
        sel = tr.times >= 0.0
        derrs.append(np.max(np.abs(tr.values[sel, 0] - exact(tr.times[sel]))))
    delayed_order = math.log2(derrs[0] / derrs[1])
    # asymptotic order is exactly 2; finite-step estimates approach it
    # from below (measured 1.9998), hence the measurement slack
    assert delayed_order >= 2.0 - 0.01

    # semigroup: restarting from the extracted state matches the straight run
    sys1 = make_example1(1.0)
    u = sinusoid_input(0.5, 1.3)
    x0 = random_history(23, 2, 1.0, 1.0, 2)
    dt = 0.01
    straight = integrate(sys1, x0, u, 2.0, dt)
    first = integrate(sys1, x0, u, 1.0, dt)
    restart = integrate(sys1, window(first, 1.0), shift_input(u, 1.0),
                        1.0, dt)
    drift = float(np.linalg.norm(restart.values[-1] - straight.values[-1]))
    assert drift <= 10.0 * dt ** 4
    report(8, f"pure order {pure_order:.3f}, delayed order {delayed_order:.4f}, "
              f"restart drift {drift:.2e}")


@pytest.mark.slow
def test_criterion_09_ges_desk_scale(example1, example1_ensemble):
    assert len(example1_ensemble) == 50
    assert all(tr.status == COMPLETED for tr in example1_ensemble)
    fit = fit_envelope(example1_ensemble)
    assert fit.eta > 0.05
    assert fit.slack >= 0.0
    two = empirical_two_inequality(example1, 20.0, 10, 1e-3, mu0=0.0)
    assert two.lam < 1.0
    report(9, f"50/50 completed; envelope k={fit.k:.4g} eta={fit.eta:.4g} "
              f"slack={fit.slack:.3g}; contraction lam={two.lam:.3e} < 1")


def test_criterion_10_iss_gain(example1):
    fit = fit_iss_gain(example1, [0.0, 0.1, 1.0], horizon=20.0, dt=2e-3)
    assert math.isfinite(fit.mu0) and fit.mu0 > 0.0
    for s, tail in fit.tails.items():
        if s > 0:
            assert tail <= fit.mu0 * s + 1e-12
    assert fit.tails[0.0] < 1e-3
    report(10, f"mu0={fit.mu0:.4g}; tails {{amplitude: tail}} = "
               f"{ {s: float(f'{t:.3e}') for s, t in fit.tails.items()} }; "
               f"zero-input tail {fit.tails[0.0]:.2e} < 1e-3")


def test_criterion_11_rfc_bound(example1):
    lkf = standard_lkf()
    sampler = FalsificationSampler(1111, 2, 1, 1.0)
    # growth inequality D+V <= 1 * sup|phi|^2 + |v|^2 checked by sampling
    growth = check_pointwise_dissipation(example1, lkf, 0.0, 1.0,
                                         square_gain(), sampler, 2000)
    assert not growth.violated
    R = rfc_bound(square_gain(), square_gain(3.0), 0.0, a=1.0,
                  gamma=square_gain(), c=0.0, r=1.0, T=5.0)
    assert R == pytest.approx(math.sqrt(4.0 * math.exp(5.0)), rel=1e-12)

    hist = seeded_history_sampler(1212, 2, 1.0, 1.0)

    def inputs(i):
        amp = (0.0, 0.5, 1.0)[i % 3]
        return constant_input([amp]) if amp else zero_input(1)

    trajs = run_ensemble(example1, hist, inputs, 12, 5.0, 2e-3)
    worst = max(float(np.max(np.linalg.norm(tr.values[tr.times >= 0], axis=1)))
                for tr in trajs)
    assert all(tr.status == COMPLETED for tr in trajs)
    assert worst <= R
    report(11, f"reach radius R={R:.4g}; ensemble sup|x| = {worst:.4g} <= R")


def test_criterion_12_envelope_conversions():
    ell, T = expiss_to_two_inequality(2.0, 1.0, 1.0, 0.5)
    assert ell == pytest.approx(2.0 * math.e, rel=1e-12)
    assert T == pytest.approx(1.0 + math.log(4.0), rel=1e-12)
    k, eta, gain = two_inequality_to_expiss(2.0, 2.0, 0.5)
    assert eta == pytest.approx(math.log(2.0) / 2.0, rel=1e-12)
    assert k == pytest.approx(4.0, rel=1e-12)
    assert gain == pytest.approx(5.0, rel=1e-12)

    rng = np.random.default_rng(4)
    for _ in range(100):
        k0 = 1.0 + 9.0 * rng.random()
        eta0 = 10.0 ** rng.uniform(-2, 0.5)
        delay = rng.uniform(0.0, 2.0)
        lam = rng.uniform(0.05, 0.95)
        ell, T = expiss_to_two_inequality(k0, eta0, delay, lam)
        k1, eta1, gain = two_inequality_to_expiss(ell, T, lam)
        assert gain >= 1.0
        # reconstructed envelope dominates the original at 0 and T (and,
        # the exponents being log-affine, everywhere between)
        assert k1 >= k0 - 1e-12
        assert k1 * math.exp(-eta1 * T) >= k0 * math.exp(-eta0 * T) - 1e-12
        ts = np.linspace(0.0, T, 33)
        assert np.all(k1 * np.exp(-eta1 * ts) >= k0 * np.exp(-eta0 * ts) - 1e-12)
    report(12, "worked conversion values at 1e-12 and round-trip domination "
               "on 100 random tuples")


def test_criterion_13_cli_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("""
command = certify
seed = 404
budget = 1500
system.name = example1
system.delay = 1.0
lkf.term.1.kind = point_quadratic
lkf.term.1.matrix = 1 0; 0 1
lkf.term.2.kind = integral_quadratic
lkf.term.2.matrix = 0 0; 0 2
constants.a_lower = 1.0
constants.a_upper = 3.0
constants.a = 0.5
constants.rho = 2
constants.sigma_right = 1.0
constants.sigma_left = 3.0
constants.gamma = power 1 2
constants.P = 1 0; 0 1
""")
    cfg2 = tmp_path / "margins.cfg"
    cfg2.write_text("command = example2-margins\nseed = 1\n"
                    "example2.deltas = 0 0.5 1 2 4.5\n")
    bodies = []
    for name, conf in (("a", cfg), ("b", cfg), ("ma", cfg2), ("mb", cfg2)):
        out = tmp_path / name
        command = "certify" if conf is cfg else "example2-margins"
        assert cli_main([command, "--config", str(conf), "--out", str(out),
                         "--quiet"]) == 0
        body = [ln for ln in (out / "report.csv").read_bytes().splitlines()
                if not ln.startswith(b"# generated")]
        bodies.append(body)
    assert bodies[0] == bodies[1]
    assert bodies[2] == bodies[3]
    report(13, "byte-identical report.csv across repeated runs "
               "(timestamp line excluded)")
