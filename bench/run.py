"""Benchmark of the krasovskii laboratory.

    python3 bench/run.py --workload certify --seed 20260809 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
its `src/` directory.  The workload (certify, envelope or perturbed; see
workloads.py and the README) is built from --seed and run in whole
rounds until --seconds have passed, in one process with one worker.
The first round warms up: it is checked and counted, but its times are
left out of the timings.  Every round's outputs are checked.  Timings
are given in reference seconds (see speed.py).  The last
line of standard output is one JSON object: whether every check held,
the operations attempted and failed, and the metrics.  With --trace 0
these are the end-to-end metrics.  With --trace 1 the run spends the
first half of --seconds on untraced rounds, then rebinds the program's
public functions to span recorders (tracing.py) and spends the second
half on traced rounds; it prints the per-layer metrics and the tracing
overhead, and writes the spans under bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
DEFAULT_SEEDS = {"certify": 20260809, "envelope": 909, "perturbed": 909}
SETUP_PROBES = 9

# per-layer metrics (traced run): "<layer>.us" is microseconds per call,
# "<layer>.s" seconds per round, both inclusive of traced children
LAYERS_US = (
    "histories.random_history", "histories.sup_norm",
    "histories.driver_extension", "certify.sample",
    "functionals.eval_functional", "functionals.derivative_closed",
    "functionals.derivative_numeric", "systems.field", "systems.pointwise",
    "systems.input_evaluate",
)
LAYERS_S = (
    "solver.history_norm_series", "solver.export_csv", "estimate.run_ensemble",
    "estimate.fit_envelope", "estimate.write_envelope_data",
    "estimate.empirical_two_inequality",
)
COUNTS = ("certify.samples", "certify.skipped", "solver.steps", "solver.blowups")


def import_program():
    """Import krasovskii from this checkout's src/ (and nowhere else)."""
    package = SRC / "krasovskii"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: program source not found at {package}")
    sys.path.insert(0, str(SRC))
    import krasovskii

    if Path(krasovskii.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported krasovskii from {krasovskii.__file__}")
    return krasovskii


def build(workload, seed, outdir):
    """Import the program and build the workload: the timed set-up."""
    start = perf_counter()
    program = import_program()
    import workloads

    wl = workloads.WORKLOADS[workload](seed, outdir)
    return perf_counter() - start, program, wl


class SetupProbes:
    """Set-up times of fresh interpreters, each importing the program and
    building the workload once, in reference seconds: each probe runs
    the reference kernel right after its build (before it, the kernel
    would import NumPy outside the timed set-up).  One probe is taken
    before each round, outside the round's own times."""

    def __init__(self, workload, seed):
        self.args = [sys.executable, str(Path(__file__).resolve()),
                     "--setup-probe", "--workload", workload, "--seed", str(seed)]
        self.times = []

    def __call__(self):
        if len(self.times) < SETUP_PROBES:
            out = subprocess.run(self.args, check=True, capture_output=True,
                                 text=True, timeout=120)
            import speed

            build_s, ref_s = map(float, out.stdout.split()[-2:])
            self.times.append(speed.REFERENCE_S * build_s / ref_s)

    def median(self):
        """Median set-up time, after taking any probes still missing."""
        while len(self.times) < SETUP_PROBES:
            self()
        return statistics.median(self.times)


def run_rounds(wl, seconds, tracer=None, before_round=None):
    """Whole rounds until `seconds` have passed (at least one)."""
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        if before_round is not None:
            before_round()
        if tracer is None:
            rnd, outputs = wl.run_round()
        else:
            before = dict(tracer.counters)
            rnd, outputs = tracer.span("bench.round", wl.run_round)
            rnd.counts.update({k: v - before[k] for k, v in tracer.counters.items()})
        wl.check(rnd, outputs)
        rounds.append(rnd)
    return rounds


def machine():
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "platform": platform.platform()}


def timed(rounds):
    """The rounds after the warm-up round (all of them if there is one)."""
    return rounds[1:] or rounds


def run_s(rounds):
    """Median round time over the timed rounds, in reference seconds."""
    return statistics.median(r.run_s for r in timed(rounds))


def rate(rounds, items, seconds):
    """Median over the timed rounds of work items per reference second."""
    return statistics.median(items(r) / seconds(r) for r in timed(rounds))


def end_to_end(rounds, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s(rounds), "s"),
        "items_per_s": (rate(rounds, lambda r: r.items, lambda r: r.kernel_s),
                        "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def group_rate(rounds, group):
    if not rounds[0].phase_s.get(group):
        return 0.0
    return rate(rounds, lambda r: r.phase_items[group],
                lambda r: r.phase_s[group])


def per_layer(untraced, traced, tracer):
    layers = tracer.layers
    metrics = {}
    for layer in LAYERS_US:
        calls, inclusive, _ = layers.get(layer, (0, 0.0, 0.0))
        metrics[f"{layer}.us"] = (1e6 * inclusive / calls if calls else 0.0, "us")
    steps = sum(r.counts["solver.steps"] for r in traced)
    _, inclusive, own = layers.get("solver.integrate", (0, 0.0, 0.0))
    metrics["solver.step.us"] = (1e6 * inclusive / steps if steps else 0.0, "us")
    metrics["solver.step_self.us"] = (1e6 * own / steps if steps else 0.0, "us")
    for layer in LAYERS_S:
        metrics[f"{layer}.s"] = (layers.get(layer, (0, 0.0))[1] / len(traced), "s")
    for name in COUNTS:
        metrics[name] = (traced[0].counts.get(name, 0), "count")
    metrics["certify.quadratic_samples_per_s"] = (
        group_rate(untraced, "quadratic"), "samples/s")
    metrics["certify.maxexp_samples_per_s"] = (
        group_rate(untraced, "maxexp"), "samples/s")
    metrics["trace.overhead_s"] = (
        run_s(traced) - run_s(untraced), "s")
    return metrics


def problems_of(rounds):
    problems = [p for r in rounds for p in r.problems]
    counts = {tuple(sorted(r.counts.items())) for r in rounds}
    if len(counts) > 1:
        problems.append(f"counts differ between rounds: {sorted(counts)}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(DEFAULT_SEEDS), required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance seed, "
                             "20260809 for certify, 909 otherwise)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("KRASOVSKII_THREADS", None)  # one worker, probes included
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    outdir = RESULTS / "out" / args.workload

    if args.setup_probe:
        elapsed, _, _ = build(args.workload, seed, outdir)
        import speed

        print(repr(elapsed), repr(speed.reference_s()))
        return 0

    import_program()  # fail fast, before spawning set-up probes
    outdir.mkdir(parents=True, exist_ok=True)
    probes = SetupProbes(args.workload, seed)
    _, program, wl = build(args.workload, seed, outdir)
    untraced = run_rounds(wl, args.seconds / 2 if args.trace else args.seconds,
                          before_round=probes)
    setup_s = probes.median()
    result = {"workload": args.workload, "seed": seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine(),
              "setup_probes_s": probes.times}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer, program, wl)
        try:
            traced = run_rounds(wl, args.seconds / 2, tracer)
        finally:
            uninstall()
        metrics = per_layer(untraced, traced, tracer)
        rounds = untraced + traced
        spans_path = RESULTS / f"spans-{args.workload}-{seed}.json"
        spans_path.write_text(json.dumps(dict(
            result, rounds=len(traced), **tracer.report()), indent=1))
        problems = problems_of(untraced) + problems_of(traced)
    else:
        metrics = end_to_end(untraced, setup_s)
        rounds = untraced
        problems = problems_of(untraced)

    summary = {"correct": not problems,
               "attempted": sum(r.attempted for r in rounds),
               "failed": sum(r.failed for r in rounds),
               "metrics": {name: {"value": value, "unit": unit}
                           for name, (value, unit) in metrics.items()}}
    result.update(summary, rounds=len(rounds), problems=problems,
                  round_wall_s=[r.wall_s for r in rounds],
                  round_run_s=[r.run_s for r in rounds])
    (RESULTS / f"{args.workload}-{seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))

    print(f"workload {args.workload} seed {seed}: {len(rounds)} rounds, "
          f"{summary['failed']}/{summary['attempted']} operations failed")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in result["machine"].items()))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
