import csv
import importlib.util
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from krasovskii import cli, estimate
from krasovskii.cli import ConfigError, main, parse_config_file, run
from krasovskii.functionals import DelayedQuadratic, eval_functional
from krasovskii.histories import (
    CONTRACTION_STREAM,
    ENSEMBLE_STREAM,
    HISTORY_STREAM,
    NOISE_STREAM,
    constant_history,
    random_history,
    stream_key,
)

EXAMPLE1_CERTIFY = """
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

# the right-growth route's W = V + eps MaxExp(I), eps = e^-2 / 8 from
# margin_right(0.5, 1, I, 1): rate 0.5, history strength 2 eps, gain
# (1 + 2 eps) s^2
W_EPS = math.exp(-2.0) / 8.0
W_CERTIFY = f"""
command = certify
seed = 20260809
budget = 3600
system.name = example1
system.delay = 1.0
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


GROWTH_CERTIFY = """
seed = 5
budget = 200
system.name = example1
system.delay = 1.0
constants.sigma_right = 0.1
constants.P = 1 0; 0 1
"""

MARGIN = """
command = margin
seed = 1
system.name = example1
system.delay = 1.0
constants.a_lower = 1.0
constants.a_upper = 3.0
constants.a = 0.5
constants.sigma_right = 1.0
constants.sigma_left = 3.0
constants.P = 1 0; 0 1
"""

NOISE_SIMULATE = """
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


# an lkf.term.1 of kind delayed_quadratic, for edit(); its lag is set apart
DELAYED_TERM = {"lkf__term__1__kind": "delayed_quadratic",
                "lkf__term__1__matrix": "1 0; 0 1"}


def edit(text, **changes):
    """`text` with the given keys (dots written as __) set, or removed
    when the value is None."""
    keys = {k.replace("__", "."): v for k, v in changes.items()}
    lines = [ln for ln in text.strip().splitlines()
             if ln.split("=")[0].strip() not in keys]
    return "\n".join(lines + [f"{k} = {v}" for k, v in keys.items()
                               if v is not None]) + "\n"


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_report(outdir):
    with open(outdir / "report.csv") as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if not ln.startswith("# generated")]
    return list(csv.reader(lines))


class TestParsing:
    def test_key_value_comments(self, tmp_path):
        cfg = parse_config_file(write_config(tmp_path, """
        # a comment
        seed = 3
        system.name = example1   # trailing comment
        """))
        assert cfg == {"seed": "3", "system.name": "example1"}

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="sytsem.name"):
            parse_config_file(write_config(tmp_path, "sytsem.name = example1"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(write_config(tmp_path, "seed = 1\nseed = 2"))

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(write_config(tmp_path, "seed 1"))


class TestExitCodes:
    def test_missing_seed_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "command = certify\nsystem.name = example1\n"
                                     "system.delay = 1.0\nconstants.a = 0.5\n"
                                     "lkf.term.1.kind = point_quadratic\n"
                                     "lkf.term.1.matrix = 1 0; 0 1\n")
        code = main(["certify", "--config", str(cfg), "--out",
                     str(tmp_path / "o")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_unknown_system_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "seed = 1\nsystem.name = lorenz\n"
                                     "system.delay = 1.0\nconstants.a = 0.5\n"
                                     "lkf.term.1.kind = point_quadratic\n"
                                     "lkf.term.1.matrix = 1 0; 0 1\n")
        code = main(["certify", "--config", str(cfg), "--out",
                     str(tmp_path / "o")])
        assert code == 2
        assert "system.name" in capsys.readouterr().err

    def test_unknown_lkf_term_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "seed = 1\nsystem.name = example1\n"
                                     "system.delay = 1.0\nconstants.a = 0.5\n"
                                     "lkf.term.1.kind = quartic\n"
                                     "lkf.term.1.matrix = 1 0; 0 1\n")
        code = main(["certify", "--config", str(cfg), "--out",
                     str(tmp_path / "o")])
        assert code == 2
        assert "lkf.term.1.kind" in capsys.readouterr().err

    def test_certify_example1_passes(self, tmp_path):
        cfg = write_config(tmp_path, EXAMPLE1_CERTIFY)
        out = tmp_path / "out"
        code = main(["certify", "--config", str(cfg), "--out", str(out),
                     "--quiet"])
        assert code == 0
        rows = read_report(out)
        checks = [r[1] for r in rows if r[0] == "check"]
        assert checks == ["sandwich", "pointwise-dissipation", "right-growth",
                          "left-growth"]
        assert all(r[6] == "no-violation-found" for r in rows)

    @pytest.mark.parametrize("delay", ["1.0", "0"])
    def test_certify_max_exp_dissipation_passes(self, tmp_path, delay):
        cfg = write_config(tmp_path, edit(W_CERTIFY, system__delay=delay))
        out = tmp_path / "out"
        code = main(["certify", "--config", str(cfg), "--out", str(out),
                     "--quiet"])
        assert code == 0
        rows = read_report(out)
        assert [r[1] for r in rows] == ["pointwise-dissipation"]
        assert rows[0][6] == "no-violation-found"

    def test_falsify_example3_left_growth_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, """
        command = falsify
        seed = 5
        budget = 2000
        system.name = example3
        system.delay = 1.0
        constants.sigma_left = 3.0
        constants.gamma = power 1 2
        constants.P = 1 0; 0 1
        """)
        out = tmp_path / "out"
        code = main(["falsify", "--config", str(cfg), "--out", str(out),
                     "--quiet"])
        assert code == 1
        rows = read_report(out)
        assert rows[0][1] == "left-growth" and rows[0][6] == "violated"
        assert rows[0][8] != ""  # witness sup norm recorded


class TestRejectedAtLoad:
    """Bad values exit 2 with a message that names the field, before any
    computation."""

    @pytest.mark.parametrize("command, text, named", [
        pytest.param("certify", edit(GROWTH_CERTIFY, tolerance="nan"),
                     "'tolerance'", id="tolerance-nan"),
        pytest.param("certify", edit(GROWTH_CERTIFY, system__delay="inf"),
                     "'system.delay'", id="delay-inf"),
        pytest.param("simulate", edit(NOISE_SIMULATE, seed=1, horizon="inf"),
                     "'horizon'", id="horizon-inf"),
        pytest.param("certify", edit(GROWTH_CERTIFY, constants__P="1 0; 0 -1"),
                     "'constants.P'", id="P-indefinite"),
        pytest.param("certify", edit(GROWTH_CERTIFY, constants__P="1 0.5; 0 1"),
                     "'constants.P'", id="P-not-symmetric"),
        pytest.param("certify", edit(GROWTH_CERTIFY, constants__a_lower="2",
                                     constants__a_upper="1"),
                     "'constants.a_lower'", id="a-lower-above-a-upper"),
        pytest.param("certify", edit(GROWTH_CERTIFY, constants__a="nan"),
                     "'constants.a'", id="a-nan"),
        pytest.param("margin", edit(MARGIN, system__name="exampel1"),
                     "'system.name'", id="margin-system-name-typo"),
        pytest.param("margin", edit(MARGIN, system__a="2"),
                     "'system.a'", id="margin-parameter-the-system-does-not-take"),
        pytest.param("margin", edit(MARGIN, lkf__term__1__kind="max_exp",
                                    lkf__term__1__matrix="1 0; 0 -1"),
                     "'lkf.term.1.matrix'", id="margin-max-exp-indefinite"),
        pytest.param("certify", edit(GROWTH_CERTIFY,
                                     constants__sigma_right="-1"),
                     "'constants.sigma_right'", id="sigma-negative"),
        pytest.param("certify", edit(GROWTH_CERTIFY, system__name="example2",
                                     system__uncertainty="delayd"),
                     "'system.uncertainty'", id="uncertainty-typo"),
        pytest.param("certify", edit(GROWTH_CERTIFY, system__name="example2",
                                     system__epsilon="abc"),
                     "'system.epsilon'", id="epsilon-not-a-number"),
        pytest.param("certify", edit(GROWTH_CERTIFY, system__delay="nan"),
                     "'system.delay'", id="delay-nan"),
        pytest.param("certify", edit(GROWTH_CERTIFY, system__a="1"),
                     "'system.a'", id="parameter-the-system-does-not-take"),
        pytest.param("certify", edit(GROWTH_CERTIFY, constants__a="0.5",
                                     lkf__term__x__kind="point_quadratic"),
                     "'lkf.term.x.kind'", id="term-index-not-an-integer"),
        pytest.param("certify", edit(GROWTH_CERTIFY, constants__a="0.5",
                                     lkf__term__1="point_quadratic",
                                     lkf__term__1__kind="point_quadratic",
                                     lkf__term__1__matrix="1 0; 0 1"),
                     "'lkf.term.1'", id="term-without-field"),
        pytest.param("certify", edit(GROWTH_CERTIFY, constants__a="0.5",
                                     **DELAYED_TERM, lkf__term__1__lag="2"),
                     "'lkf.term.1.lag'", id="lag-beyond-delay"),
        pytest.param("margin", edit(MARGIN, **DELAYED_TERM,
                                    lkf__term__1__lag="1.5"),
                     "'lkf.term.1.lag'", id="margin-lag-beyond-delay"),
        pytest.param("certify", edit(GROWTH_CERTIFY, constants__a="0.5",
                                     lkf__term__1__kind="point_quadratic",
                                     lkf__term__1__matrix="1 0; 0 1",
                                     lkf__term__1__lag="0.5"),
                     "'lkf.term.1.lag'", id="lag-on-point-quadratic"),
        pytest.param("certify", edit(GROWTH_CERTIFY, constants__a="0.5",
                                     lkf__term__1__kind="max_exp",
                                     lkf__term__1__matrix="1 0; 0 1",
                                     lkf__term__1__weight_rate="3"),
                     "'lkf.term.1.weight_rate'",
                     id="weight-rate-on-max-exp"),
        pytest.param("margin", edit(MARGIN, **DELAYED_TERM,
                                    lkf__term__1__lag="0.5",
                                    lkf__term__1__weight="2"),
                     "'lkf.term.1.weight'", id="weight-on-delayed-quadratic"),
        pytest.param("certify", edit(GROWTH_CERTIFY, constants__a="0.5",
                                     lkf__term__1__kind="integral_quadratic",
                                     lkf__term__1__matrix="1 0; 0 1",
                                     lkf__term__1__lag="0.5"),
                     "'lkf.term.1.lag'", id="lag-on-integral-quadratic"),
    ])
    def test_exits_2_naming_the_field(self, tmp_path, capsys, command, text,
                                      named):
        cfg = write_config(tmp_path, text)
        code = main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert named in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lag, loads", [
        ("1", True), ("1.000000001", True), ("1.000000002", False)])
    def test_lag_limit_is_the_evaluators(self, tmp_path, lag, loads):
        # at delay 1 the evaluators accept a lag up to 1 + 1e-9
        raw = parse_config_file(write_config(tmp_path, edit(
            MARGIN, **DELAYED_TERM, lkf__term__1__lag=lag)))
        V = DelayedQuadratic(np.eye(2), -float(lag))
        phi = constant_history(1.0, [1.0, 0.0])
        if loads:
            assert cli.load_config(raw)["lkf"].at == V.at
            assert eval_functional(V, phi) == 1.0
            return
        with pytest.raises(ConfigError, match=re.escape("'lkf.term.1.lag'")):
            cli.load_config(raw)
        with pytest.raises(ValueError):
            eval_functional(V, phi)

    def test_no_traceback(self, tmp_path):
        cfg = write_config(tmp_path, edit(GROWTH_CERTIFY, system__delay="inf"))
        proc = subprocess.run(
            [sys.executable, "-m", "krasovskii.cli", "certify", "--config",
             str(cfg), "--out", str(tmp_path / "o"), "--quiet"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "'system.delay'" in proc.stderr


class TestSeeds:
    def test_seed_option_moves_the_noise(self, tmp_path):
        # no seed key: --seed alone must drive the noise input
        cfg = write_config(tmp_path, NOISE_SIMULATE)
        runs = []
        for i, seed in enumerate(("3", "9", "3")):
            out = tmp_path / f"o{i}"
            assert main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--quiet", "--seed", seed]) == 0
            runs.append((out / "trajectories.csv").read_bytes())
        assert runs[0] != runs[1]
        assert runs[0] == runs[2]

    def test_history_and_noise_streams_are_separate(self, tmp_path):
        raw = parse_config_file(write_config(tmp_path, edit(
            NOISE_SIMULATE, history__kind="random", history__value=None)))
        system = cli._system(cli.load_config(raw, seed=0))
        for seed in range(200):
            cfg = cli.load_config(raw, command="simulate", seed=seed)
            noise = cli._input(cfg, system).evaluate(0.0)
            assert np.array_equal(noise, np.random.default_rng(
                stream_key(seed, NOISE_STREAM, 0)).uniform(-1.0, 1.0, 1))
            shared = np.random.default_rng(
                stream_key(seed, HISTORY_STREAM)).uniform(-1.0, 1.0, 1)
            assert not np.array_equal(noise, shared)
            # the history's own seed moves the history, not the noise
            other = cli.load_config({**raw, "history.seed": str(seed + 1)},
                                    command="simulate", seed=seed)
            assert np.array_equal(cli._input(other, system).evaluate(0.0),
                                  noise)
            assert not np.array_equal(cli._history(other, system).values,
                                      cli._history(cfg, system).values)


class TestCommands:
    def test_margin_rows(self, tmp_path):
        cfg = write_config(tmp_path, MARGIN)
        out = tmp_path / "out"
        assert main(["margin", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        rows = read_report(out)
        routes = {r[1] for r in rows if r[0] == "margin"}
        assert routes == {"history-term", "right-growth", "left-growth"}
        left = {r[3]: r[4] for r in rows if r[1] == "left-growth" and r[2] == "out"}
        assert int(left["q"]) == 62208

    def test_simulate_writes_trajectories(self, tmp_path):
        cfg = write_config(tmp_path, """
        command = simulate
        seed = 2
        horizon = 1.0
        step = 0.01
        system.name = linear
        system.delay = 0.0
        system.a = 1.0
        history.kind = constant
        history.value = 1.0
        """)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        assert (out / "trajectories.csv").exists()
        rows = read_report(out)
        assert rows[0][:2] == ["simulate", "completed"]

    def test_envelope_command(self, tmp_path):
        cfg = write_config(tmp_path, """
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
        """)
        out = tmp_path / "out"
        assert main(["envelope", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        assert (out / "envelope.dat").exists()
        rows = {(r[0], r[1]): r[2] for r in read_report(out)}
        assert float(rows[("envelope", "eta")]) > 0.0
        assert float(rows[("envelope", "slack")]) >= 0.0
        assert rows[("contraction", "holds")] == "True"

    def test_ensemble_and_contraction_streams_are_separate(self, tmp_path,
                                                           monkeypatch):
        # the ensemble's history 0 and the contraction check's history 0
        # come from different streams of one seed
        drawn = []

        def recorded(*args):
            drawn.append(random_history(*args))
            return drawn[-1]

        monkeypatch.setattr(estimate, "random_history", recorded)
        cfg = write_config(tmp_path, """
        command = envelope
        seed = 3
        horizon = 1.0
        step = 0.05
        ensemble.count = 2
        system.name = linear
        system.delay = 0.5
        system.a = 1.0
        history.bound = 1.0
        contraction.horizon = 1.0
        """)
        main(["envelope", "--config", str(cfg), "--out", str(tmp_path / "out"),
              "--quiet"])
        assert len(drawn) == 4
        ensemble, contraction = drawn[:2], drawn[2:]
        assert ensemble[0].grid.tobytes() == contraction[0].grid.tobytes()
        assert ensemble[0].values.tobytes() != contraction[0].values.tobytes()
        assert ensemble[0].values.tobytes() == random_history(
            stream_key(3, ENSEMBLE_STREAM, 0), 1, 0.5, 1.0, 0).values.tobytes()
        assert contraction[0].values.tobytes() == random_history(
            stream_key(3, CONTRACTION_STREAM, 0), 1, 0.5, 1.0,
            0).values.tobytes()

    def test_example2_margins_table(self, tmp_path):
        cfg = write_config(tmp_path, "command = example2-margins\nseed = 1\n"
                                     "example2.deltas = 0 1 4.5\n")
        out = tmp_path / "out"
        assert main(["example2-margins", "--config", str(cfg), "--out",
                     str(out), "--quiet"]) == 0
        rows = read_report(out)
        table = {float(r[1]): r for r in rows}
        assert float(table[0.0][2]) == pytest.approx(1.0 / 16.0, rel=1e-12)
        assert float(table[1.0][2]) == pytest.approx(1.14473e-3, rel=1e-4)
        assert float(table[1.0][3]) == pytest.approx(6.683e-7, rel=1e-3)
        assert table[4.5][6] == "True" and table[1.0][6] == "False"


class TestDeterminism:
    def test_reports_byte_identical_modulo_timestamp(self, tmp_path):
        cfg = write_config(tmp_path, EXAMPLE1_CERTIFY)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["certify", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
            body = [ln for ln in (out / "report.csv").read_bytes().splitlines()
                    if not ln.startswith(b"# generated")]
            outs.append(body)
        assert outs[0] == outs[1]

    def test_console_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, "command = example2-margins\nseed = 1\n"
                                     "example2.deltas = 1\n")
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "krasovskii.cli", "example2-margins",
             "--config", str(cfg), "--out", str(out), "--quiet"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (out / "report.csv").exists()


def _parity_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_parity.py"
    spec = importlib.util.spec_from_file_location("cli_parity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestParityConfigs:
    """Every config of tools/cli_parity.py loads as its command would
    load it, or is rejected naming its field, so that no comparison
    silently becomes one of two configuration errors."""

    tool = _parity_tool()

    @pytest.mark.parametrize("name", list(tool.CONFIGS))
    def test_loads_or_names_its_field(self, tmp_path, name):
        command, text, extra = self.tool.CONFIGS[name]
        args = iter(extra)
        options = {flag[2:]: int(next(args)) for flag in args
                   if flag != "--quiet"}
        raw = parse_config_file(write_config(tmp_path, text))
        if name not in self.tool.REJECTED:
            cli.load_config(raw, command=command, **options)
            return
        with pytest.raises(ConfigError,
                           match=re.escape(self.tool.REJECTED[name])):
            cli.load_config(raw, command=command, **options)

    # np.exp follows NumPy's own SIMD dispatch, which OPENBLAS_CORETYPE
    # does not move, so the envelope configs are left out
    @pytest.mark.parametrize("name", ["example1-tightened",
                                      "simulate-example1-sinusoid"])
    def test_reports_do_not_depend_on_the_blas_kernel(self, tmp_path, name):
        # every norm and form sums in the package's own order, so forcing
        # OpenBLAS's oldest x86-64 kernels changes no byte of a report
        env = self.tool._environment(self.tool.ROOT)
        runs = [self.tool._outputs(dict(env, **extra), tmp_path / side,
                                   *self.tool.CONFIGS[name])
                for side, extra in (("default", {}),
                                    ("prescott", {"OPENBLAS_CORETYPE": "Prescott"}))]
        assert self.tool._differences(*runs) == []

    def test_every_command_is_covered(self):
        assert ({command for command, _, _ in self.tool.CONFIGS.values()}
                == set(cli._COMMANDS))
        assert set(self.tool.REJECTED) <= set(self.tool.CONFIGS)
        assert f"set of {len(self.tool.CONFIGS)} configs" in self.tool.__doc__


def test_sweep_timing_runs_against_its_own_tree():
    # tools/sweep_timing.py: one run at budget 36 on each side, the same
    # tree on both, so the reports' hashes must agree
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / "sweep_timing.py"), "--against",
         str(root), "--budgets", "36", "--runs", "1", "--rounds", "3"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [ln.split(" (")[0] for ln in lines] == [
        "budget 36 here", "budget 36 there", "budget 36: reports same"]
    # each tree's line ends with the transient peak of an untimed round
    for line in lines[:2]:
        peak = line.rsplit("tracemalloc peak ", 1)[1]
        assert peak.endswith(" MB") and float(peak[:-3]) > 0.0


def test_solver_parity_runs_against_its_own_tree():
    # tools/solver_parity.py at one seed, the same tree on both sides, so
    # both paths' hashes must agree
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / "solver_parity.py"), "--against",
         str(root), "--seeds", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [ln.split(" (")[0] for ln in lines] == ["here", "there", "trajectories same"]
    assert "formula 1440 trajectories" in lines[0] and "field 180 trajectories" in lines[0]
