"""Byte-parity check of the command-line interface against another tree.

    python tools/cli_parity.py --against DIR

Runs one fixed set of configs, covering every subcommand and four
configs that must be rejected at load (REJECTED), once with the
`krasovskii` package of this source tree and once with that of the tree
at DIR (its package in DIR/src), each run in a fresh directory with
PYTHONPATH=<tree>/src.  Compares the exit codes, stdout, stderr and
every output file byte for byte, after dropping each file's
"# generated" timestamp line.  Prints one line per config; exits 0 when
every run matches and 1 when any differs, naming each difference.  A
config that differs also gets a verdict line: whether its exit code
matches, and whether each verdict row of its report.csv (a check's
name, verdict and skip count, a simulation's status, the contraction
test's outcome) is the same on both trees.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CRITERION_13 = """
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
"""

EXAMPLE1 = """
command = certify
seed = 11
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
constants.c = 0.0
constants.rho = 2
constants.sigma_right = 1.0
constants.sigma_left = 3.0
constants.gamma = power 1 2
constants.P = 1 0; 0 1
"""

# the right-growth route's W = V + eps MaxExp(I) on example1, with
# eps = e^-2 / 8 from margin_right(0.5, 1, I, 1)
W_EPS = math.exp(-2.0) / 8.0
W_CERTIFY = f"""
command = certify
seed = 20260809
budget = 3600
system.name = example1
system.delay = {{delay}}
lkf.term.1.kind = point_quadratic
lkf.term.1.matrix = 1 0; 0 1
lkf.term.2.kind = integral_quadratic
lkf.term.2.matrix = 0 0; 0 2
lkf.term.3.kind = max_exp
lkf.term.3.matrix = 1 0; 0 1
lkf.term.3.scale = {W_EPS!r}
constants.a = 0.5
constants.c = {2.0 * W_EPS!r}
constants.gamma = power {1.0 + 2.0 * W_EPS!r} 2
"""

# a sandwich and a dissipation sweep at the acceptance size of
# example1's standard LKF plus a max-type term on a non-diagonal P with
# condition number about 3 400: the segment pruning at a wide margin
MAXEXP_ILL_CONDITIONED = """
command = certify
seed = 17
budget = 10000
system.name = example1
system.delay = 1.0
lkf.term.1.kind = point_quadratic
lkf.term.1.matrix = 1 0; 0 1
lkf.term.2.kind = integral_quadratic
lkf.term.2.matrix = 0 0; 0 2
lkf.term.3.kind = max_exp
lkf.term.3.matrix = 100 9.9; 9.9 1
lkf.term.3.scale = 0.001
constants.a_lower = 1.0
constants.a_upper = 3.2
constants.rho = 2
constants.a = 0.5
constants.c = 0.2
constants.gamma = power 1.2 2
"""

TIGHTENED = """
command = certify
seed = 13
budget = 2000
system.name = example1
system.delay = 1.0
lkf.term.1.kind = point_quadratic
lkf.term.1.matrix = 1 0; 0 1
lkf.term.2.kind = integral_quadratic
lkf.term.2.matrix = 0 0; 0 2
lkf.term.2.weight_rate = 0.5
lkf.term.3.kind = delayed_quadratic
lkf.term.3.matrix = 0.1 0; 0 0.1
lkf.term.3.lag = 0.5
lkf.term.4.kind = max_exp
lkf.term.4.matrix = 1 0; 0 1
lkf.term.4.scale = 0.02
constants.a = 1.5
constants.gamma = power 1 2
"""

FALSIFY_EXAMPLE3 = """
command = falsify
seed = 5
budget = 2000
system.name = example3
system.delay = 1.0
constants.sigma_left = 3.0
constants.gamma = power 1 2
constants.P = 1 0; 0 1
"""

EXAMPLE2_TERMS = """
command = certify
seed = 3
budget = 1200
system.name = example2
system.delay = 0.5
system.epsilon = 0.1
system.uncertainty = delayed
lkf.term.1.kind = point_quadratic
lkf.term.1.matrix = 1 0; 0 1
lkf.term.2.kind = delayed_quadratic
lkf.term.2.matrix = 0.5 0; 0 0.5
lkf.term.2.lag = 0.25
lkf.term.3.kind = integral_quadratic
lkf.term.3.matrix = 1 0; 0 1
lkf.term.3.weight_rate = 1.0
lkf.term.4.kind = max_exp
lkf.term.4.matrix = 1 0; 0 1
lkf.term.4.scale = 0.05
constants.a_lower = 1.0
constants.a_upper = 4.0
constants.a = 0.5
constants.gamma = zero
"""

LINEAR_ZERO_DELAY = """
command = certify
seed = 21
budget = 1000
system.name = linear
system.delay = 0
system.a = 1.0
system.b = 0.5
lkf.term.1.kind = point_quadratic
lkf.term.1.matrix = 1
lkf.term.2.kind = max_exp
lkf.term.2.matrix = 1
lkf.term.2.scale = 0.1
constants.a_lower = 1.0
constants.a_upper = 1.2
constants.a = 0.5
constants.sigma_right = 2.0
constants.sigma_left = 2.0
constants.gamma = power 1 2
constants.P = 1
"""

MARGIN = """
command = margin
seed = 1
system.name = example1
system.delay = 1.0
constants.a_lower = 1.0
constants.a_upper = 3.0
constants.a = 0.5
constants.c = {c}
constants.sigma_right = 1.0
constants.sigma_left = 3.0
constants.P = 1 0; 0 1
"""

SIMULATE_EXAMPLE1 = """
command = simulate
seed = 4
horizon = 3.0
step = 0.01
system.name = example1
system.delay = 1.0
history.bound = 2.0
history.modes = 8
input.kind = sinusoid
input.amplitude = 0.5
input.omega = 3.0
input.phase = 0.2
"""

SIMULATE_EXAMPLE2_NOISE = """
command = simulate
seed = 6
horizon = 2.0
step = 0.005
system.name = example2
system.delay = 0.5
system.epsilon = 0.05
system.uncertainty = delayed
input.kind = noise
input.amplitude = 0.3
input.switch_dt = 0.0437
"""

SIMULATE_LINEAR_NOISE = """
command = simulate
seed = 1
horizon = 2.0
step = 0.01
system.name = linear
system.delay = 0.5
history.kind = constant
history.value = 0
input.kind = noise
input.amplitude = 1.0
input.switch_dt = 0.1
"""

SIMULATE_LINEAR_CONSTANT = """
command = simulate
seed = 4
horizon = 3.0
step = 0.02
system.name = linear
system.delay = 0.4
system.a = 1.0
system.b = 0.5
history.bound = 1.0
history.modes = 8
input.kind = constant
input.value = 0.5
"""

# zero delay and a constant input: the solver's loop reads no column
SIMULATE_LINEAR_CONSTANT_ZERO_DELAY = """
command = simulate
seed = 17
horizon = 2.0
step = 0.01
system.name = linear
system.delay = 0
system.a = 0.7
system.b = -0.3
history.bound = 1.0
input.kind = constant
input.value = -0.45
"""

SIMULATE_ZERO_DELAY = """
command = simulate
seed = 10
horizon = 1.0
step = 0.01
system.name = example1
system.delay = 0
history.bound = 1.5
history.modes = 8
input.kind = step
input.t_switch = 0.3
input.before = 0
input.after = 1
"""

# a step input switching at 64.5 steps of dt = 2^-7, a half-step stage
# time exact in binary: the block's one array read of its stage inputs
# meets the switch exactly
SIMULATE_STEP_AT_STAGE = """
command = simulate
seed = 14
horizon = 2.0
step = 0.0078125
system.name = linear
system.delay = 0.25
system.a = 1.0
system.b = 0.5
history.bound = 1.0
history.modes = 2
input.kind = step
input.t_switch = 0.50390625
input.before = 0
input.after = 1
"""

# x' = 10 x + x(t - 0.5) passes the blow-up threshold 1e9 near t = 2
SIMULATE_BLOWUP = """
command = simulate
seed = 8
horizon = 5.0
step = 0.01
system.name = linear
system.delay = 0.5
system.a = -10
system.b = 1
history.kind = constant
history.value = 1
"""

# example3 from a history of sup norm 100 overflows Python's x[1] ** 3
# in its first step, so the solver's arithmetic-error rule ends it
SIMULATE_EXAMPLE3_BLOWUP = """
command = simulate
seed = 2
horizon = 2.0
step = 0.01
system.name = example3
system.delay = 1.0
history.bound = 100
history.modes = 2
"""

# non-dyadic parameters, and a negative one where the load takes it:
# the built-in formulas bind them as names, never as text
SIMULATE_EXAMPLE2_NONDYADIC = """
command = simulate
seed = 15
horizon = 3.0
step = 0.01
system.name = example2
system.delay = {delay}
system.epsilon = 0.3
system.uncertainty = delayed
history.bound = 1.5
history.modes = 8
input.kind = sinusoid
input.amplitude = 0.7
input.omega = 2.3
"""

SIMULATE_LINEAR_NEGATIVE_B = """
command = simulate
seed = 16
horizon = 3.0
step = 0.01
system.name = linear
system.delay = 0.3
system.a = 0.7
system.b = -0.3
history.bound = 1.0
history.modes = 8
input.kind = noise
input.amplitude = 0.3
input.switch_dt = 0.07
"""

ENVELOPE_LINEAR = """
command = envelope
seed = 3
horizon = 10.0
step = 0.05
ensemble.count = 4
system.name = linear
system.delay = 0.5
system.a = 1.0
history.bound = 1.0
contraction.horizon = 10.0
"""

ENVELOPE_EXAMPLE1 = """
command = envelope
seed = 12
horizon = 4.0
step = 0.01
ensemble.count = 6
system.name = example1
system.delay = 1.0
history.bound = 0.5
contraction.horizon = 4.0
"""

# ENVELOPE_EXAMPLE1 over horizon 20: its hulls of (t, log r) hold 2 to
# 133 vertices, so the fit's pruning is checked on maxima inside a hull,
# not only on the 2-vertex hulls of the shorter configs
ENVELOPE_EXAMPLE1_LONG = """
command = envelope
seed = 12
horizon = 20.0
step = 0.01
ensemble.count = 6
system.name = example1
system.delay = 1.0
history.bound = 0.5
contraction.horizon = 4.0
"""

EXAMPLE2_MARGINS = """
command = example2-margins
seed = 1
example2.deltas = 0 0.5 1 2 4.5
"""

# name -> (subcommand, config text, further arguments)
CONFIGS = {
    "criterion-13": ("certify", CRITERION_13, ()),
    "criterion-13-seeded": ("certify", CRITERION_13,
                            ("--seed", "20260809", "--budget", "3000")),
    "example1": ("certify", EXAMPLE1, ()),
    "example1-seeded": ("certify", EXAMPLE1, ("--seed", "7", "--budget", "500")),
    # the acceptance size: four checks share every kept group
    "example1-acceptance": ("certify", EXAMPLE1, ("--budget", "10000")),
    "example1-tightened": ("certify", TIGHTENED, ()),
    "W-delay-1": ("certify", W_CERTIFY.format(delay="1.0"), ()),
    "W-delay-0": ("certify", W_CERTIFY.format(delay="0"), ()),
    "W-delay-3": ("certify", W_CERTIFY.format(delay="3.0"), ()),
    "maxexp-ill-conditioned": ("certify", MAXEXP_ILL_CONDITIONED, ()),
    "falsify-example3": ("falsify", FALSIFY_EXAMPLE3, ()),
    "example2-four-terms": ("certify", EXAMPLE2_TERMS, ()),
    "linear-zero-delay": ("certify", LINEAR_ZERO_DELAY, ()),
    "margin": ("margin", MARGIN.format(c=0.0), ()),
    "margin-history-term": ("margin", MARGIN.format(c=0.1), ()),
    "simulate-example1-sinusoid": ("simulate", SIMULATE_EXAMPLE1, ()),
    "simulate-example2-noise": ("simulate", SIMULATE_EXAMPLE2_NOISE, ()),
    "simulate-linear-noise": ("simulate", SIMULATE_LINEAR_NOISE, ()),
    "simulate-linear-noise-seeded": ("simulate", SIMULATE_LINEAR_NOISE,
                                     ("--seed", "9")),
    "simulate-linear-constant": ("simulate", SIMULATE_LINEAR_CONSTANT, ()),
    "simulate-linear-constant-zero-delay": (
        "simulate", SIMULATE_LINEAR_CONSTANT_ZERO_DELAY, ()),
    "simulate-zero-delay": ("simulate", SIMULATE_ZERO_DELAY, ()),
    "simulate-step-at-stage-time": ("simulate", SIMULATE_STEP_AT_STAGE, ()),
    "simulate-blowup": ("simulate", SIMULATE_BLOWUP, ()),
    "simulate-example3-overflow": ("simulate", SIMULATE_EXAMPLE3_BLOWUP, ()),
    "simulate-example2-nondyadic-eps": (
        "simulate", SIMULATE_EXAMPLE2_NONDYADIC.format(delay="0.5"), ()),
    "simulate-example2-nondyadic-eps-zero-delay": (
        "simulate", SIMULATE_EXAMPLE2_NONDYADIC.format(delay="0"), ()),
    "simulate-linear-negative-b": ("simulate", SIMULATE_LINEAR_NEGATIVE_B, ()),
    "envelope-linear": ("envelope", ENVELOPE_LINEAR, ()),
    "envelope-example1": ("envelope", ENVELOPE_EXAMPLE1, ()),
    "envelope-example1-long": ("envelope", ENVELOPE_EXAMPLE1_LONG, ()),
    "example2-margins": ("example2-margins", EXAMPLE2_MARGINS, ()),
    "margin-system-name-typo": (
        "margin", MARGIN.format(c=0.0).replace("example1", "exampel1")
        + "system.a = 2\n", ("--quiet",)),
    "margin-foreign-parameter": ("margin", MARGIN.format(c=0.0)
                                 + "system.a = 2\n", ("--quiet",)),
    "margin-lag-beyond-delay": ("margin", MARGIN.format(c=0.0)
                                + "lkf.term.1.kind = delayed_quadratic\n"
                                "lkf.term.1.matrix = 1 0; 0 1\n"
                                "lkf.term.1.lag = 2\n", ("--quiet",)),
    "certify-field-the-kind-ignores": ("certify", EXAMPLE1
                                       + "lkf.term.1.lag = 0.5\n",
                                       ("--quiet",)),
}

# the configs that must exit 2 at load, and the field each must name
REJECTED = {"margin-system-name-typo": "'system.name'",
            "margin-foreign-parameter": "'system.a'",
            "margin-lag-beyond-delay": "'lkf.term.1.lag'",
            "certify-field-the-kind-ignores": "'lkf.term.1.lag'"}


def _environment(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    # the package must come from the tree, never from an installed copy
    found = subprocess.run(
        [sys.executable, "-c", "import krasovskii; print(krasovskii.__file__)"],
        env=env, capture_output=True, text=True)
    expected = (tree / "src" / "krasovskii").resolve()
    if found.returncode or Path(found.stdout.strip()).resolve().parent != expected:
        raise SystemExit(f"error: cannot import krasovskii from {expected}: "
                         f"{found.stdout.strip() or found.stderr.strip()}")
    return env


def _outputs(env: dict, workdir: Path, command: str, text: str, extra) -> dict:
    """The exit code, stdout, stderr and output files of one run in
    `workdir`, the files without their "# generated" lines."""
    workdir.mkdir(parents=True)
    (workdir / "exp.cfg").write_text(text.lstrip())
    proc = subprocess.run(
        [sys.executable, "-m", "krasovskii.cli", command, "--config", "exp.cfg",
         "--out", "out", *extra],
        cwd=workdir, env=env, capture_output=True)
    out = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
           "stderr": proc.stderr}
    outdir = workdir / "out"
    for path in sorted(outdir.rglob("*")):
        if path.is_file():
            lines = path.read_bytes().splitlines(keepends=True)
            out[f"file {path.relative_to(outdir).as_posix()}"] = b"".join(
                ln for ln in lines if not ln.startswith(b"# generated"))
    return out


def _differences(here: dict, there: dict) -> list:
    found = []
    for key in sorted(here.keys() | there.keys()):
        if key not in there:
            found.append(f"{key} only in this tree")
        elif key not in here:
            found.append(f"{key} only in the other tree")
        elif here[key] != there[key]:
            if key == "exit code":
                found.append(f"exit code {here[key].decode()} != "
                             f"{there[key].decode()}")
            else:
                found.append(f"{key} differs")
    return found


def _verdicts(out: dict) -> list:
    """The verdict rows of a run's report.csv, one string each."""
    rows = csv.reader(out.get("file report.csv", b"").decode().splitlines())
    found = []
    for row in rows:
        if row[:1] == ["check"]:
            found.append(f"{row[1]} {row[6]} skipped={row[3]}")
        elif row[:1] == ["simulate"]:
            found.append(f"simulate {row[1]}")
        elif row[:2] == ["contraction", "holds"]:
            found.append(f"contraction holds={row[2]}")
    return found


def _verdict_line(here: dict, there: dict) -> str:
    exit_code = "same" if here["exit code"] == there["exit code"] else "differs"
    mine, theirs = _verdicts(here), _verdicts(there)
    if mine == theirs:
        return f"exit code {exit_code}; verdict rows the same: {len(mine)}"
    moved = [f"{b or 'none'} -> {a or 'none'}"
             for a, b in itertools.zip_longest(mine, theirs) if a != b]
    return f"exit code {exit_code}; verdicts differ: " + "; ".join(moved)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, type=Path,
                        help="root of the source tree to compare with")
    args = parser.parse_args(argv)
    trees = {"here": ROOT, "there": args.against.resolve()}
    envs = {side: _environment(tree) for side, tree in trees.items()}
    failed = 0
    with tempfile.TemporaryDirectory(prefix="cli-parity-") as tmp:
        for name, (command, text, extra) in CONFIGS.items():
            here, there = (_outputs(envs[side], Path(tmp) / side / name,
                                    command, text, extra) for side in trees)
            found = _differences(here, there)
            code = here["exit code"].decode()
            if found:
                failed += 1
                print(f"{name}: DIFFERS (exit {code}): " + "; ".join(found))
                print(f"  {_verdict_line(here, there)}")
            else:
                files = sum(key.startswith("file ") for key in here)
                print(f"{name}: same (exit {code}, {files} files)")
    print(f"{len(CONFIGS) - failed} of {len(CONFIGS)} configs identical")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
