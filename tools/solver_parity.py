"""Bit-for-bit comparison of solver trajectories between two source trees.

    python tools/solver_parity.py [--against DIR] [--seeds 6]

Integrates, for each of --seeds seeds, each of 5 formula systems
(example1, example2, example2 with the delayed uncertainty at epsilon
0.05, example3, and the linear baseline with a = -40 and b = 0.5, whose
states grow as exp(40 t)), each history (the zero history, and seeded
random ones of sup norm 1 and 100), each input (zero, seeded noise, a
sinusoid and the constant -0.0) and each blow-up threshold (1e3, 1e9
and inf), on each of the 8 GRIDS below: 8 640 trajectories at the
default 6 seeds.  Each of these configurations, on grid number seed
mod 8 and over at most its first 60 steps, also runs as its
general-field twin, dataclasses.replace(sys, pointwise=None): 1 080
more.  The twins are few and short because the general field path
costs about 0.3 ms a step.

Every trajectory's times and values bytes, status and t_escape go into
one sha256 per path, formula and general field.  Each tree runs in a
child process that imports the `krasovskii` package of that tree
(PYTHONPATH=<tree>/src), this tree first.  Prints each tree's two hashes
and, with --against, whether they match; exits 1 when they differ.  A
run that imports the package from anywhere but its tree's src/ is an
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]

# (delay, dt, horizon): no horizon is a multiple of its positive delay,
# and delay 1 at dt 0.01 over 20.37 has 20 reads that could end a
# full-delay block
GRIDS = [(1.0, 0.01, 2.37), (0.7, 0.01, 1.53), (0.1, 0.01, 0.83),
         (0.2, 2e-3, 0.514), (0.0, 0.01, 0.57), (0.3, 0.01, 1.07),
         (0.1, 0.01, 2.03), (1.0, 0.01, 20.37)]
SYSTEMS = [("example1", {}), ("example2", {}),
           ("example2", {"epsilon": 0.05, "uncertainty": "delayed"}),
           ("example3", {}), ("linear", {"a": -40.0, "b": 0.5})]
SCALES = [0.0, 1.0, 100.0]
INPUTS = ["zero", "noise", "sinusoid", "constant"]
THRESHOLDS = [1e3, 1e9, math.inf]
TWIN_STEPS = 60


def _child(seeds: int) -> dict:
    """One tree's hashes, computed in this process."""
    import krasovskii
    from krasovskii.histories import random_history, zero_history
    from krasovskii.solver import integrate
    from krasovskii.systems import (build_system, constant_input,
                                    piecewise_noise_input, sinusoid_input)

    def signal(kind, seed):
        if kind == "zero":
            return None
        if kind == "noise":
            return piecewise_noise_input((97, seed), 0.5, 0.0437)
        if kind == "sinusoid":
            return sinusoid_input(1.0, 2.0, 0.3)
        return constant_input(-0.0)

    hashes = {"formula": hashlib.sha256(), "field": hashlib.sha256()}
    counts = dict.fromkeys(hashes, 0)

    def record(path, traj):
        hashes[path].update(traj.times.tobytes() + traj.values.tobytes())
        hashes[path].update(f"{traj.status} {traj.t_escape!r};".encode())
        counts[path] += 1

    start = perf_counter()
    for seed in range(seeds):
        for g, (delay, dt, horizon) in enumerate(GRIDS):
            for name, params in SYSTEMS:
                sys = build_system(name, delay, params)
                twin = dataclasses.replace(sys, pointwise=None)
                for scale in SCALES:
                    x0 = (zero_history(delay, sys.n) if scale == 0.0 else
                          random_history((97, seed), sys.n, delay, scale,
                                         (0, 2, 8)[seed % 3]))
                    for kind in INPUTS:
                        u = signal(kind, seed)
                        for threshold in THRESHOLDS:
                            record("formula", integrate(sys, x0, u, horizon, dt, threshold))
                            if g == seed % len(GRIDS):
                                steps = min(TWIN_STEPS, round(horizon / dt))
                                record("field", integrate(twin, x0, u, steps * dt, dt,
                                                          threshold))
    return {"sha256": {path: h.hexdigest() for path, h in hashes.items()},
            "trajectories": counts, "s": perf_counter() - start,
            "package": str(Path(krasovskii.__file__).resolve().parent)}


def _run(tree: Path, seeds: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         "--seeds", str(seeds)],
        env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"error: run on {tree} failed:\n{proc.stderr}")
    run = json.loads(proc.stdout.splitlines()[-1])
    # the package must come from the tree, never from an installed copy
    if Path(run["package"]) != (tree / "src" / "krasovskii").resolve():
        raise SystemExit(f"error: imported krasovskii from {run['package']}")
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, default=None,
                        help="root of the source tree to compare with")
    parser.add_argument("--seeds", type=int, default=6)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.seeds)))
        return 0
    trees = {"here": ROOT}
    if args.against is not None:
        trees["there"] = args.against.resolve()
    runs = {}
    for side, tree in trees.items():
        runs[side] = run = _run(tree, args.seeds)
        print(f"{side} ({tree}): " + ", ".join(
            f"{path} {run['trajectories'][path]} trajectories sha256 {digest}"
            for path, digest in run["sha256"].items()) + f" ({run['s']:.1f} s)")
    if len(runs) == 1:
        return 0
    same = runs["here"]["sha256"] == runs["there"]["sha256"]
    print("trajectories " + ("same" if same else "DIFFER"))
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
