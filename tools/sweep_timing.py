"""In-process timing of the benchmark's eight certify sweeps.

    python tools/sweep_timing.py [--against DIR] [--budgets 36,576,10000]
                                 [--runs 2] [--rounds 60] [--seed 20260809]

Builds the certify workload of bench/workloads.py (imported read-only
from this tree's bench/) and times its eight sweeps together, round by
round, at each budget.  Each run is a child process that imports the
`krasovskii` package of one tree (PYTHONPATH=<tree>/src); with --against
the runs alternate between this tree and the tree at DIR, this tree
first.  A run warms up with one round, then times --rounds rounds, each
scaled by the mean of the reference kernel taken right before and right
after it, as bench/speed.Clock scales a call; the run's figure is the
median round.  The samplers are kept from round to round, as the
benchmark keeps them.  After the timed rounds, one more round runs
untimed under tracemalloc: its peak is the transient memory of a round
on kept blocks, the memo not included.

Prints, per budget and tree, the median and range of the runs' figures
in reference milliseconds and the largest tracemalloc peak of the runs,
and whether every run's sha256 of the eight
reports (CSV rows, report text, worst value bits, witness index and
bytes, skip counts) is the same; exits 1 when any two hashes differ.  A
run that imports the package from anywhere but its tree's src/ is an
error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _digest(reports) -> str:
    h = hashlib.sha256()
    for rep in reports:
        h.update(repr(rep.csv_rows()).encode() + rep.text().encode())
        h.update(float(rep.worst).hex().encode())
        h.update(f"{rep.witness_index} {rep.skipped}".encode())
        if rep.witness is not None:
            phi, v = rep.witness
            for array in (phi.grid, phi.values, v):
                h.update(array.tobytes())
    return h.hexdigest()


def _child(budget: int, rounds: int, seed: int) -> dict:
    """One run in this process: the round times and the reports' hash."""
    sys.path.insert(0, str(BENCH))
    import krasovskii
    import speed
    import workloads

    with tempfile.TemporaryDirectory(prefix="sweep-timing-") as tmp:
        wl = workloads.Certify(seed, Path(tmp))
    wl.budget = budget
    sweeps = [thunk for _, _, _, thunk in wl._sweeps()]
    digest = _digest([sweep() for sweep in sweeps])
    times, ref = [], speed.reference_s()
    for _ in range(rounds):
        start = perf_counter()
        for sweep in sweeps:
            sweep()
        wall = perf_counter() - start
        after = speed.reference_s()
        times.append(speed.REFERENCE_S * wall / (0.5 * (ref + after)))
        ref = after
    tracemalloc.start()
    for sweep in sweeps:
        sweep()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"ms": 1e3 * statistics.median(times), "sha256": digest,
            "peak_mb": peak / 1e6,
            "package": str(Path(krasovskii.__file__).resolve().parent)}


def _run(tree: Path, budget: int, rounds: int, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         "--budgets", str(budget), "--rounds", str(rounds), "--seed", str(seed)],
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
    parser.add_argument("--budgets", default="36,576,10000")
    parser.add_argument("--runs", type=int, default=2,
                        help="runs per tree and budget")
    parser.add_argument("--rounds", type=int, default=60)
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    budgets = [int(b) for b in args.budgets.split(",")]
    if args.child:
        print(json.dumps(_child(budgets[0], args.rounds, args.seed)))
        return 0
    trees = {"here": ROOT}
    if args.against is not None:
        trees["there"] = args.against.resolve()
    same = True
    for budget in budgets:
        runs = {side: [] for side in trees}
        for _ in range(args.runs):
            for side, tree in trees.items():
                runs[side].append(_run(tree, budget, args.rounds, args.seed))
        hashes = {run["sha256"] for side in runs for run in runs[side]}
        same &= len(hashes) == 1
        for side, tree in trees.items():
            ms = [run["ms"] for run in runs[side]]
            peak = max(run["peak_mb"] for run in runs[side])
            print(f"budget {budget} {side} ({tree}): median "
                  f"{statistics.median(ms):.3f} ms, range {min(ms):.3f}-"
                  f"{max(ms):.3f} ms over {len(ms)} runs, tracemalloc peak "
                  f"{peak:.2f} MB")
        print(f"budget {budget}: reports "
              + ("same" if len(hashes) == 1 else "DIFFER")
              + f" (sha256 {sorted(hashes)[0][:16]}"
              + ("" if len(hashes) == 1 else ", ...") + ")")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
