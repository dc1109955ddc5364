"""The traced benchmark's contract with the package.

`bench/tracing.py` rebinds named functions of the package's modules to
span recorders (`bench/run.py --trace 1`), so every name it lists must
exist, and `uninstall` must put back every name that `install` rebound.
The benchmark's files are imported as they are and left unchanged.
"""

import importlib
import sys
from pathlib import Path

import pytest

import krasovskii
from krasovskii.histories import HistoryFunction

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    # leave no bytecode cache under bench/
    sys.path.insert(0, str(BENCH))
    cache, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("tracing"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = cache


def bindings(tracing, workload):
    """Every name that tracing.install may rebind, with its value."""
    names = {(module, attribute): getattr(getattr(krasovskii, module), attribute)
             for module, attribute, _ in tracing.FUNCTIONS}
    names["HistoryFunction", "sup_norm"] = vars(HistoryFunction)["sup_norm"]
    for module in ("solver", "estimate"):
        names[module, "zero_input"] = getattr(krasovskii, module).zero_input
    names.update((("workload", k), v) for k, v in vars(workload).items())
    return names


def test_every_traced_name_exists(bench):
    tracing, _ = bench
    missing = [f"{module}.{attribute}" for module, attribute, _ in tracing.FUNCTIONS
               if not hasattr(getattr(krasovskii, module), attribute)]
    assert not missing


@pytest.mark.parametrize("name", ["certify", "envelope", "perturbed"])
def test_uninstall_restores_every_name(bench, name, tmp_path):
    tracing, workloads = bench
    workload = workloads.WORKLOADS[name](909, tmp_path)
    before = bindings(tracing, workload)
    uninstall = tracing.install(tracing.Tracer(), krasovskii, workload)
    try:
        during = bindings(tracing, workload)
    finally:
        uninstall()
    after = bindings(tracing, workload)
    rebound = {key for key in before if during[key] is not before[key]}
    assert set(before) - {key for key in before if key[0] == "workload"} <= rebound
    assert ("workload", "system") in rebound
    assert [key for key in before if after[key] is not before[key]] == []


@pytest.mark.parametrize("name", ["certify", "envelope", "perturbed"])
def test_one_traced_round_checks_clean(bench, name, tmp_path):
    # one round of `bench/run.py --trace 1`: every check holds and no
    # operation fails; on certify the sampler-only path records its draws
    tracing, workloads = bench
    workload = workloads.WORKLOADS[name](909, tmp_path)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, krasovskii, workload)
    try:
        rnd, outputs = workload.run_round()
        workload.check(rnd, outputs)
    finally:
        uninstall()
    assert rnd.problems == []
    assert rnd.failed == 0 and rnd.attempted > 0
    if name == "certify":
        assert tracer.layers["certify.sample"][0] > 0
