"""The three benchmark workloads.

Each workload builds its inputs once from the workload seed (`__init__`,
timed as set-up) and then runs rounds.  A round (`run_round`) calls the
program's public functions in the order of the matching CLI subcommand
and writes the subcommand's output files; `check` then tests every
output against the independent computations in `checks`.  Program functions are looked up
on their modules at call time, so the traced run can rebind them.

Random inputs are drawn by the benchmark from keys (seed, stream, ...)
with one stream per kind of input, so histories and noise never share a
generator; the program receives only the generated inputs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from krasovskii import certify, estimate, functionals, histories, solver, systems

import checks
from speed import Clock

HISTORY_STREAM = 1
NOISE_STREAM = 2

DELAY = 1.0
DT = 1e-3
EYE = np.eye(2)


@dataclass
class Round:
    """Outcome of one round.

    The round's program calls and writes took `wall_s` wall seconds and
    `run_s` reference seconds (see speed.py).  `items` units of work
    (samples or RK4 steps) took `kernel_s` reference seconds inside the
    kernel calls; `phase_s` splits that time for workloads with several
    kernels.  `problems` lists failed correctness checks.
    """

    wall_s: float = 0.0
    run_s: float = 0.0
    items: int = 0
    kernel_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    phase_s: dict = field(default_factory=dict)
    phase_items: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)


def _write_report(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


# ---------------------------------------------------------------------------
# certify

class Certify:
    """Falsification sweeps on example1 at delay 1 (`krasovskii certify`).

    The six sweeps of acceptance criterion 04 (four clean checks, two
    with tightened constants) and two sweeps of the right-growth
    combined functional W = V + eps MaxExp(I), with eps from
    margin_right.  Expected verdicts follow from the example1 formula:
    the clean hypotheses hold identically, and both W verdicts are
    implied by them (see the README).  The W dissipation sweep reports
    spurious violations through the coarse default step schedule of
    driver_derivative_numeric; it is counted as the one failed operation
    and always runs on the acceptance seed, so it fails on every run.
    """

    fault_seed = 20260809
    budget = 576  # 16 samples from each of the 36 strata
    tolerance = 1e-9

    def __init__(self, seed: int, outdir: Path):
        self.outdir = outdir
        self.system = systems.make_example1(DELAY)
        self.V = functionals.PointQuadratic(EYE) + functionals.IntegralQuadratic(
            np.diag([0.0, 2.0]))
        self.eps = certify.margin_right(a=0.5, sigma=1.0, P=EYE,
                                        delay=DELAY).outputs["eps"]
        self.W = functionals.combine_W(self.V, self.eps, EYE)
        self.gamma = functionals.square_gain()
        self.w_gamma = functionals.square_gain(1.0 + 2.0 * self.eps)
        self.sampler = certify.FalsificationSampler(seed, 2, 1, DELAY)
        self.fault_sampler = certify.FalsificationSampler(
            self.fault_seed, 2, 1, DELAY)

    def _sweeps(self):
        """(label, group, expected verdict, thunk), in CLI check order."""
        V, W, B, s, gam = self.V, self.W, self.budget, self.sampler, self.gamma
        sys1, eps = self.system, self.eps
        clean, violated = certify.NO_VIOLATION, certify.VIOLATED
        return [
            ("sandwich", "quadratic", clean,
             lambda: certify.check_sandwich(V, 1.0, 3.0, 2.0, s, B)),
            ("dissipation", "quadratic", clean,
             lambda: certify.check_pointwise_dissipation(
                 sys1, V, 0.5, 0.0, gam, s, B)),
            ("right-growth", "quadratic", clean,
             lambda: certify.check_right_growth(sys1, EYE, 1.0, gam, s, B)),
            ("left-growth", "quadratic", clean,
             lambda: certify.check_left_growth(sys1, EYE, 3.0, gam, s, B)),
            ("tight-dissipation", "quadratic", violated,
             lambda: certify.check_pointwise_dissipation(
                 sys1, V, 2.0, 0.0, gam, s, B)),
            ("tight-right-growth", "quadratic", violated,
             lambda: certify.check_right_growth(sys1, EYE, 0.1, gam, s, B)),
            ("W-sandwich", "maxexp", clean,
             lambda: certify.check_sandwich(W, 1.0, 3.0 + eps, 2.0, s, B)),
            ("W-dissipation", "maxexp", clean,
             lambda: certify.check_pointwise_dissipation(
                 sys1, W, 0.5, 2.0 * eps, self.w_gamma, self.fault_sampler,
                 B)),
        ]

    def run_round(self):
        rnd = Round()
        clock = Clock()
        reports = {}
        for label, group, expected, sweep in self._sweeps():
            rep, elapsed = clock.call(sweep)
            reports[label] = (group, expected, rep)
            rnd.phase_s[group] = rnd.phase_s.get(group, 0.0) + elapsed
            rnd.phase_items[group] = rnd.phase_items.get(group, 0) + rep.samples
        clock.call(lambda: _write_report(
            self.outdir / "report.csv",
            [row for _, _, rep in reports.values() for row in rep.csv_rows()]))
        rnd.wall_s, rnd.run_s = clock.wall_s, clock.run_s
        rnd.kernel_s = sum(rnd.phase_s.values())
        rnd.items = sum(rep.samples for _, _, rep in reports.values())
        rnd.counts = {"certify.samples": rnd.items,
                      "certify.skipped": sum(rep.skipped
                                             for _, _, rep in reports.values())}
        return rnd, reports

    def check(self, rnd: Round, reports) -> None:
        for label, (_, expected, rep) in reports.items():
            rnd.attempted += 1
            rnd.check(rep.samples == self.budget, f"{label}: {rep.samples} samples")
            if rep.verdict != expected:
                if label == "W-dissipation":
                    self._check_fault(rnd, rep)
                else:
                    rnd.problems.append(f"{label}: verdict {rep.verdict}, "
                                        f"expected {expected}")
                rnd.failed += 1
            elif rep.violated:
                self._check_witness(rnd, label, rep)

    def _check_witness(self, rnd: Round, label: str, rep) -> None:
        phi, v = rep.witness
        if label == "tight-dissipation":
            r = checks.dissipation_residual(phi, v, a=2.0, c=0.0, gain=1.0)
        else:
            r = checks.right_growth_residual(phi, v, sigma=0.1)
        rnd.check(r > rep.tolerance,
                  f"{label}: witness residual {r:.6g} within tolerance")
        rnd.check(abs(r - rep.worst) <= 1e-8 * (1.0 + abs(r)),
                  f"{label}: witness residual {r:.17g} != reported {rep.worst:.17g}")

    def _check_fault(self, rnd: Round, rep) -> None:
        """A W dissipation violation is the known numeric-derivative fault
        only if an accurate derivative shows none at the witness."""
        phi, v = rep.witness
        bound = checks.w_dissipation_bound(phi, v, self.eps, a=0.5,
                                           c=2.0 * self.eps,
                                           gain=1.0 + 2.0 * self.eps)
        rnd.check(bound <= rep.tolerance,
                  f"W-dissipation: witness #{rep.witness_index} violates the "
                  f"accurate bound too ({bound:.6g})")


# ---------------------------------------------------------------------------
# envelope

class Envelope:
    """Decay-envelope ensemble on example1 (`krasovskii envelope`).

    Trajectories of horizon 3 at dt 1e-3 from zero input, the envelope
    fit and its plot data, then the contraction test on min(count, 10)
    trajectories, as the CLI does.  The kernel time is the time of the
    two ensembles: run_ensemble, and the contraction test, whose own
    post-processing is about 5% of its time.
    """

    count = 2
    contraction_count = min(count, 10)
    horizon = 3.0
    modes = (0, 2, 8)

    def __init__(self, seed: int, outdir: Path):
        self.outdir = outdir
        self.seed = seed
        self.system = systems.make_example1(DELAY)
        self.x0s = [
            histories.random_history((seed, HISTORY_STREAM, i), 2, DELAY, 1.0,
                                     self.modes[i % len(self.modes)])
            for i in range(self.count)]

    def run_round(self):
        rnd = Round(attempted=4)
        clock = Clock()
        trajs, rnd.kernel_s = clock.call(
            estimate.run_ensemble, self.system, self.x0s.__getitem__, None,
            self.count, self.horizon, DT)
        fit, _ = clock.call(estimate.fit_envelope, trajs)
        rows = [["envelope", "k", f"{fit.k:.17g}"],
                ["envelope", "eta", f"{fit.eta:.17g}"],
                ["envelope", "slack", f"{fit.slack:.17g}"],
                ["envelope", "trajectories", str(fit.trajectories)]]
        data = self.outdir / "envelope.dat"
        clock.call(estimate.write_envelope_data, fit, trajs, data)
        two, elapsed = clock.call(
            estimate.empirical_two_inequality, self.system, self.horizon,
            self.contraction_count, DT, seed=self.seed, mu0=0.0)
        rnd.kernel_s += elapsed
        rows += [["contraction", "ell", f"{two.ell:.17g}"],
                 ["contraction", "lam", f"{two.lam:.17g}"],
                 ["contraction", "holds", str(two.contraction)]]
        clock.call(_write_report, self.outdir / "report.csv", rows)
        rnd.wall_s, rnd.run_s = clock.wall_s, clock.run_s
        # the contraction test's own ensemble completes (its check below
        # fails otherwise) with the same number of steps per trajectory
        rnd.items = sum(int(round(tr.t_end / tr.dt)) for tr in trajs) + (
            self.contraction_count * int(round(self.horizon / DT)))
        return rnd, (trajs, fit, two, data)

    def check(self, rnd: Round, outputs) -> None:
        trajs, fit, two, data = outputs
        done = sum(tr.status == "completed" for tr in trajs)
        rnd.check(len(trajs) == self.count and done == self.count,
                  f"{done}/{self.count} trajectories completed")
        rnd.check(fit.k >= 1.0 and fit.eta > 0.05,
                  f"fit k={fit.k:.6g} eta={fit.eta:.6g}")
        for i, (tr, x0) in enumerate(zip(trajs, self.x0s)):
            gap, scale = checks.envelope_gap(fit.k, fit.eta, x0.values,
                                             np.asarray(tr.times),
                                             np.asarray(tr.values))
            # the fit allows 1e-9 k of rounding in exp(-eta t)
            rnd.check(gap >= -1e-9 * scale,
                      f"trajectory {i} leaves the envelope by {-gap:.3g}")
        rnd.check(math.isfinite(two.ell) and two.lam < 1.0,
                  f"contraction lam={two.lam:.6g}")
        rows = sum(int(round(tr.t_end / tr.dt)) + 1 for tr in trajs)
        with open(data) as fh:
            lines = sum(1 for _ in fh)
        rnd.check(lines == 1 + rows + len(trajs),
                  f"envelope.dat has {lines} lines")


# ---------------------------------------------------------------------------
# perturbed

class Perturbed:
    """One example2 trajectory with eps = 0.05 and the built-in delayed
    uncertainty, driven by piecewise-constant noise, then its CSV export
    (`krasovskii simulate`).  It runs for three delays, so that after the
    first delay the delayed reads come from the computed trajectory.  Every RK4 stage goes through the generic
    `field` path and the noise input."""

    epsilon = 0.05
    delay = 0.2
    horizon = 3 * delay
    noise_amplitude = 0.1
    switch_dt = 0.1

    def __init__(self, seed: int, outdir: Path):
        self.outdir = outdir
        self.system = systems.build_system(
            "example2", self.delay,
            {"epsilon": self.epsilon, "uncertainty": "delayed"})
        self.x0 = histories.random_history((seed, HISTORY_STREAM, 0), 2, self.delay,
                                           1.0, 2)
        self.noise = systems.piecewise_noise_input(
            (seed, NOISE_STREAM), self.noise_amplitude, self.switch_dt)
        # the check reads the same noise, outside the traced input
        self.noise_at = self.noise.evaluate

    def run_round(self):
        rnd = Round(attempted=2)
        clock = Clock()
        traj, rnd.kernel_s = clock.call(
            solver.integrate, self.system, self.x0, self.noise, self.horizon, DT)
        out = self.outdir / "trajectories.csv"
        clock.call(solver.export_csv, traj, out)
        clock.call(_write_report, self.outdir / "report.csv", [[
            "simulate", traj.status,
            "" if traj.t_escape is None else f"{traj.t_escape:.17g}",
            f"{traj.t_end:.17g}"]])
        rnd.wall_s, rnd.run_s = clock.wall_s, clock.run_s
        rnd.items = int(round(traj.t_end / traj.dt))
        return rnd, (traj, out)

    def check(self, rnd: Round, outputs) -> None:
        traj, out = outputs
        nsteps = int(round(self.horizon / DT))
        rnd.check(traj.status == "completed" and rnd.items == nsteps,
                  f"trajectory {traj.status} after {rnd.items} steps")
        if rnd.problems:
            return
        segments = {}

        def input_at(s):
            # the noise is constant on [j switch_dt, (j + 1) switch_dt)
            j = int(math.floor(s / self.switch_dt))
            if j not in segments:
                segments[j] = float(self.noise_at(s)[0])
            return segments[j]

        ref = checks.reference_example2(self.x0.grid, self.x0.values, self.delay,
                                        self.epsilon, DT, nsteps, input_at)
        times = np.asarray(traj.times)
        values = np.asarray(traj.values)
        got = values[times >= 0.0]
        err = float(np.max(np.abs(got - ref)))
        rnd.check(err <= 1e-9 * (1.0 + float(np.max(np.abs(ref)))),
                  f"trajectory differs from the RK4 reference by {err:.3g}")
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        rnd.check(table.shape == (nsteps + 1, 5), f"csv shape {table.shape}")
        if table.shape != (nsteps + 1, 5):
            return
        rnd.check(np.array_equal(table[:, 1:3], got), "csv states differ")
        brute = checks.window_max(times, values, self.delay, table[:, 0])
        hist_err = float(np.max(np.abs(table[:, 4] - brute) / (1e-300 + brute)))
        rnd.check(hist_err <= 1e-12,
                  f"hist_norm differs from the window maximum by {hist_err:.3g}")


WORKLOADS = {"certify": Certify, "envelope": Envelope, "perturbed": Perturbed}
