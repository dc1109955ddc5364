"""Batch experiment runner.

Experiments are described by a flat key = value config file with dotted
section names (diff-friendly; exact grammar in the README).  Runs are
deterministic given config + seed: output CSVs are byte-identical apart
from one leading "# generated" timestamp comment line.

A config is read in two steps: `parse_config_file` splits the file into
raw key -> text pairs, and `load_config` parses every value once, against
the one declaration of its key (parser, range and default), applies the
command-line overrides and checks the rules that join two keys.  Every
rule is checked there, for every command; the commands only read parsed
values.

Exit codes: 0 all checks passed / quantities computed, 1 a violation or
refutation was found, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import certify, estimate, functionals, histories, solver, systems

__all__ = ["main", "run", "load_config", "parse_config_file", "ConfigError"]

_COMMANDS = ("simulate", "certify", "margin", "envelope", "falsify",
             "example2-margins")

class ConfigError(Exception):
    pass


class Config(dict):
    """Parsed values by key.  Reading an absent key that has no default
    is a configuration error naming the key; `get` returns None."""

    def __missing__(self, key):
        raise ConfigError(f"missing config field {key!r}")


# ---------------------------------------------------------------------------
# value parsers: text (or an already typed override) -> value, raising
# ValueError with what the field must be

def _parser(expects, convert, ok):
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise ValueError(f"must be {expects}, got {text!r}")
        return value
    return parse


def _number(low=-math.inf, above=False):
    bound = "" if low == -math.inf else f" {'>' if above else '>='} {low:g}"
    return _parser(f"a finite number{bound}", float, lambda x: math.isfinite(x)
                   and (x > low if above else x >= low))


def _integer(low):
    return _parser(f"an integer >= {low}", int, lambda k: k >= low)


def _choice(*names):
    return _parser(" or ".join(map(repr, names)), str, lambda s: s in names)


def _array(expects, convert):
    return _parser(expects, lambda s: np.array(convert(s)),
                   lambda x: x.size > 0 and np.all(np.isfinite(x)))


def _gain(text):
    parts = text.split()
    if parts == ["zero"]:
        return functionals.zero_gain()
    if len(parts) != 3 or parts[0] != "power":
        raise ValueError(f"must be 'power COEF EXP' or 'zero', got {text!r}")
    return functionals.PowerGain(*map(_number(), parts[1:]))


_positive = _number(0, above=True)
_vector = _array("a finite vector like '1 0'",
                 lambda s: [float(x) for x in s.split()])
_matrix = _array("a finite matrix like '1 0; 0 1'",
                 lambda s: [[float(x) for x in r.split()] for r in s.split(";")])
_pd_matrix = _parser("a symmetric positive definite matrix like '1 0; 0 1'",
                     lambda s: functionals._positive_definite(_matrix(s))[0],
                     lambda P: True)

# one declaration per key: (parser, default text or None for no default)
_KEYS = {
    "command": (_choice(*_COMMANDS), None),
    "seed": (_integer(0), None),
    "budget": (_integer(1), "1000"),
    "horizon": (_positive, None),
    "step": (_positive, None),
    "out": (Path, "results"),
    "tolerance": (_number(0), "1e-9"),
    "system.name": (_choice(*systems.PARAMETERS), None),
    "system.delay": (_number(0), None),
    "system.a": (_number(), None),
    "system.b": (_number(), None),
    "system.epsilon": (_number(0), None),
    "system.uncertainty": (_choice(*systems.UNCERTAINTIES), None),
    "constants.a_lower": (_positive, None),
    "constants.a_upper": (_positive, None),
    "constants.a": (_positive, None),
    "constants.c": (_number(0), "0"),
    "constants.rho": (_positive, "2"),
    "constants.sigma_right": (_positive, None),
    "constants.sigma_left": (_positive, None),
    "constants.gamma": (_gain, "power 1 2"),
    "constants.P": (_pd_matrix, None),
    "history.kind": (_choice("random", "constant"), "random"),
    "history.bound": (_number(0), "1"),
    "history.modes": (_integer(0), "2"),
    "history.value": (_vector, None),
    "history.seed": (_integer(0), None),
    "input.kind": (_choice("zero", "constant", "step", "sinusoid", "noise"),
                   "zero"),
    "input.value": (_vector, None),
    "input.t_switch": (_number(), None),
    "input.before": (_vector, None),
    "input.after": (_vector, None),
    "input.amplitude": (_number(), None),
    "input.omega": (_number(), None),
    "input.phase": (_number(), "0"),
    "input.switch_dt": (_positive, None),
    "ensemble.count": (_integer(1), "50"),
    "envelope.k_cap": (_positive, "1e3"),
    "contraction.horizon": (_positive, None),
    "example2.deltas": (_parser(
        "a list of finite numbers >= 0",
        lambda s: [float(x) for x in s.replace(",", " ").split()],
        lambda xs: xs and all(0 <= x < math.inf for x in xs)), "0 0.5 1 2 4.5"),
}
# the fields of each LKF term lkf.term.<i>.<field>
_TERM_KEYS = {
    "kind": (_choice("point_quadratic", "delayed_quadratic",
                     "integral_quadratic", "max_exp"), None),
    "matrix": (_matrix, None),
    "lag": (_number(0), None),
    "weight": (_number(), "1"),
    "weight_rate": (_number(), None),
    "scale": (_number(), "1"),
}
# the term fields each kind reads; giving any other is an error
_TERM_READS = {
    "point_quadratic": {"kind", "matrix", "scale"},
    "delayed_quadratic": {"kind", "matrix", "lag", "scale"},
    "integral_quadratic": {"kind", "matrix", "weight", "weight_rate", "scale"},
    "max_exp": {"kind", "matrix", "scale"},
}
_TERM = re.compile(r"lkf\.term\.(0|[1-9][0-9]*)\.")


def _declarations(keys) -> dict:
    """The declared keys: the fixed ones plus the fields of every LKF
    term index among `keys`.  An undeclared key is an error."""
    decl = dict(_KEYS)
    for i in sorted({m[1] for m in map(_TERM.match, keys) if m}, key=int):
        decl.update({f"lkf.term.{i}.{k}": d for k, d in _TERM_KEYS.items()})
    for key in keys:
        if key not in decl:
            raise ConfigError(f"unknown config field {key!r}")
    return decl


def parse_config_file(path) -> dict:
    """The raw key -> text pairs of a config file; keys are checked
    against the declarations, values are left unparsed."""
    cfg = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in cfg:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key}")
        cfg[key] = value
    _declarations(cfg)
    return cfg


def load_config(raw: dict, command: str | None = None, seed: int | None = None,
                out: str | None = None, budget: int | None = None) -> Config:
    """Parse a raw config once.  The subcommand and the --seed, --out and
    --budget options override their keys and are parsed like them;
    history.seed defaults to the run seed.  Two rules join keys: the
    squeeze needs constants.a_lower <= constants.a_upper, and each
    system.<param> must be a parameter of the named system.  The
    lkf.term.<i> keys are built into the functional "lkf" (None without
    terms), so a term's rules are checked here too: each field must be
    one its kind reads, and a delayed_quadratic lag must not exceed
    system.delay."""
    overrides = {"command": command, "seed": seed, "out": out, "budget": budget}
    raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    cfg = Config()
    for key, (parse, default) in _declarations(raw).items():
        text = raw.get(key, default)
        if text is not None:
            try:
                cfg[key] = parse(text)
            except ValueError as exc:
                raise ConfigError(f"field {key!r}: {exc}") from None
    cfg.setdefault("history.seed", cfg["seed"])
    lower, upper = cfg.get("constants.a_lower"), cfg.get("constants.a_upper")
    if None not in (lower, upper) and lower > upper:
        raise ConfigError("field 'constants.a_lower': must be <= constants."
                          f"a_upper, got {raw['constants.a_lower']!r}")
    name = cfg.get("system.name")
    takes = ("name", "delay") + systems.PARAMETERS.get(name, ())
    for key in cfg:
        if key.startswith("system.") and key[len("system."):] not in takes:
            raise ConfigError(f"field {key!r}: not a parameter of system "
                              f"{name!r}")
    cfg["lkf"] = _lkf(cfg, raw)
    return cfg


# ---------------------------------------------------------------------------
# object builders

def _system(cfg) -> systems.DelaySystem:
    name = cfg["system.name"]
    params = {k: cfg[f"system.{k}"] for k in systems.PARAMETERS[name]
              if f"system.{k}" in cfg}
    return systems.build_system(name, cfg["system.delay"], params)


def _lkf(cfg, raw) -> functionals.Functional | None:
    """The sum of the lkf.term.<i> terms in index order; None if none.
    `raw` holds the given texts, which tell a given field from a
    default."""
    total = None
    # "lkf.term.<i>." prefixes, in index order as load_config stored them
    for p in dict.fromkeys(m[0] for m in map(_TERM.match, cfg) if m):
        kind, matrix = cfg[p + "kind"], cfg[p + "matrix"]
        for name in _TERM_KEYS:
            if p + name in raw and name not in _TERM_READS[kind]:
                raise ConfigError(f"field '{p}{name}': not read by a {kind} "
                                  "term")
        if kind == "delayed_quadratic":
            # the evaluators' tolerance, so that the same lags pass
            lag, delay = cfg[p + "lag"], cfg.get("system.delay")
            if delay is not None and lag > delay + histories._edge_tol(delay):
                raise ConfigError(f"field '{p}lag': must be <= system.delay, "
                                  f"got {raw[p + 'lag']!r}")
        try:
            if kind == "point_quadratic":
                term = functionals.PointQuadratic(matrix)
            elif kind == "delayed_quadratic":
                term = functionals.DelayedQuadratic(matrix, -cfg[p + "lag"])
            elif kind == "integral_quadratic":
                c, rate = cfg[p + "weight"], cfg.get(p + "weight_rate")
                term = functionals.IntegralQuadratic(
                    matrix, functionals.ConstantWeight(c) if rate is None
                    else functionals.ExponentialWeight(c, rate))
            else:
                term = functionals.MaxExp(matrix)
        except ValueError as exc:
            raise ConfigError(f"field '{p}matrix': {exc}") from None
        if cfg[p + "scale"] != 1.0:
            term = functionals.Scale(cfg[p + "scale"], term)
        total = term if total is None else functionals.Sum(total, term)
    return total


def _history(cfg, sys_) -> histories.HistoryFunction:
    if cfg["history.kind"] == "constant":
        return histories.constant_history(sys_.delay, cfg["history.value"])
    return histories.random_history(
        histories.stream_key(cfg["history.seed"], histories.HISTORY_STREAM),
        sys_.n, sys_.delay, cfg["history.bound"], cfg["history.modes"])


def _input(cfg, sys_) -> systems.InputSignal:
    kind = cfg["input.kind"]
    if kind == "zero":
        return systems.zero_input(sys_.m)
    if kind == "constant":
        return systems.constant_input(cfg["input.value"])
    if kind == "step":
        return systems.step_input(cfg["input.t_switch"], cfg["input.before"],
                                  cfg["input.after"])
    if kind == "sinusoid":
        return systems.sinusoid_input(cfg["input.amplitude"],
                                      cfg["input.omega"], cfg["input.phase"])
    # segment j draws from stream_key(seed, NOISE_STREAM, j)
    return systems.piecewise_noise_input(
        (cfg["seed"], histories.NOISE_STREAM), cfg["input.amplitude"],
        cfg["input.switch_dt"], sys_.m)


# ---------------------------------------------------------------------------
# report writing

def _write_report(outdir: Path, name: str, rows) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / name, "w", newline="") as fh:
        fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        writer = csv.writer(fh)
        writer.writerows(rows)


def _say(quiet, *parts):
    if not quiet:
        print(*parts)


# ---------------------------------------------------------------------------
# commands

def _cmd_certify(cfg, quiet) -> int:
    sys_ = _system(cfg)
    sampler = certify.FalsificationSampler(cfg["seed"], sys_.n, sys_.m,
                                           sys_.delay)
    sweep = (sampler, cfg["budget"], cfg["tolerance"])
    a_upper, a = cfg.get("constants.a_upper"), cfg.get("constants.a")
    gamma = cfg["constants.gamma"]
    V = cfg["lkf"]
    if V is None and (a_upper is not None or a is not None):
        raise ConfigError("missing config field 'lkf.term.1.kind'")
    reports = []
    if a_upper is not None:
        reports.append(certify.check_sandwich(
            V, cfg.get("constants.a_lower"), a_upper, cfg["constants.rho"],
            *sweep))
    if a is not None:
        reports.append(certify.check_pointwise_dissipation(
            sys_, V, a, cfg["constants.c"], gamma, *sweep))
    for key, check in (("constants.sigma_right", certify.check_right_growth),
                       ("constants.sigma_left", certify.check_left_growth)):
        if key in cfg:
            reports.append(check(sys_, cfg["constants.P"], cfg[key], gamma,
                                 *sweep))
    if not reports:
        raise ConfigError("no check is configured: provide constants.a_upper, "
                          "constants.a, constants.sigma_right or "
                          "constants.sigma_left")
    rows = []
    for rep in reports:
        rows.extend(rep.csv_rows())
        _say(quiet, rep.text())
    _write_report(cfg["out"], "report.csv", rows)
    return 1 if any(rep.violated for rep in reports) else 0


def _cmd_margin(cfg, quiet) -> int:
    rows = []

    def emit(report):
        rows.extend(report.csv_rows())
        _say(quiet, report.text())

    a_lower, a_upper, a, sigma_right, sigma_left, P = (
        cfg.get(f"constants.{k}")
        for k in ("a_lower", "a_upper", "a", "sigma_right", "sigma_left", "P"))
    c = cfg["constants.c"]
    if a_lower is not None and a is not None:
        delay = cfg["system.delay"]
        c_bar = certify.margin_history_term(a_lower, a, delay)
        if a_upper is not None and c < c_bar:
            emit(certify.history_term_constants(
                a_lower, a_upper, a, cfg["constants.rho"], c, delay))
        else:
            rows.append(["margin", "history-term", "out", "c_bar",
                         f"{c_bar:.17g}"])
            _say(quiet, f"margin [history-term] c_bar = {c_bar:.17g}")
    if all(v is not None for v in (a, sigma_right, P)):
        emit(certify.margin_right(a, sigma_right, P, cfg["system.delay"],
                                  a_upper=a_upper, c=c))
    if all(v is not None for v in (a_lower, a_upper, a, sigma_left, P)):
        emit(certify.margin_left(a_lower, a_upper, a, sigma_left, P,
                                 cfg["system.delay"]))
    if not rows:
        raise ConfigError("no margin is computable from the provided "
                          "constants.* fields")
    _write_report(cfg["out"], "report.csv", rows)
    return 0


def _cmd_simulate(cfg, quiet) -> int:
    sys_ = _system(cfg)
    traj = solver.integrate(sys_, _history(cfg, sys_), _input(cfg, sys_),
                            cfg["horizon"], cfg["step"])
    outdir = cfg["out"]
    outdir.mkdir(parents=True, exist_ok=True)
    solver.export_csv(traj, outdir / "trajectories.csv")
    rows = [["simulate", traj.status,
             "" if traj.t_escape is None else f"{traj.t_escape:.17g}",
             f"{traj.t_end:.17g}"]]
    _write_report(outdir, "report.csv", rows)
    _say(quiet, f"simulate: {traj.status} (t_end={traj.t_end:g})")
    return 0


def _cmd_envelope(cfg, quiet) -> int:
    sys_ = _system(cfg)
    count, dt, outdir = cfg["ensemble.count"], cfg["step"], cfg["out"]
    outdir.mkdir(parents=True, exist_ok=True)
    # history i draws from stream_key(history.seed, ENSEMBLE_STREAM, i)
    sampler = estimate.seeded_history_sampler(
        (cfg["history.seed"], histories.ENSEMBLE_STREAM), sys_.n, sys_.delay,
        cfg["history.bound"])
    trajs = estimate.run_ensemble(sys_, sampler, None, count, cfg["horizon"], dt)
    rows = []
    code = 0
    try:
        fit = estimate.fit_envelope(trajs, cfg["envelope.k_cap"])
        rows += [["envelope", "k", f"{fit.k:.17g}"],
                 ["envelope", "eta", f"{fit.eta:.17g}"],
                 ["envelope", "slack", f"{fit.slack:.17g}"],
                 ["envelope", "trajectories", str(fit.trajectories)]]
        estimate.write_envelope_data(fit, trajs, outdir / "envelope.dat")
        _say(quiet, f"envelope: k={fit.k:.6g} eta={fit.eta:.6g} "
                    f"slack={fit.slack:.3g}")
    except estimate.FitFailure as exc:
        rows.append(["envelope", "failure", str(exc)])
        _say(quiet, f"envelope: {exc}")
        code = 1
    if "contraction.horizon" in cfg:
        fit2 = estimate.empirical_two_inequality(
            sys_, cfg["contraction.horizon"], min(count, 10), dt,
            seed=cfg["seed"], mu0=0.0)
        rows += [["contraction", "ell", f"{fit2.ell:.17g}"],
                 ["contraction", "lam", f"{fit2.lam:.17g}"],
                 ["contraction", "holds", str(fit2.contraction)]]
        _say(quiet, f"contraction at T={fit2.horizon:g}: lam={fit2.lam:.6g}")
        if not fit2.contraction:
            code = 1
    _write_report(outdir, "report.csv", rows)
    return code


def _cmd_example2(cfg, quiet) -> int:
    rows = []
    for delta in cfg["example2.deltas"]:
        m = certify.robustness_margin_example2(delta)
        rows.append(["example2", f"{delta:.17g}", f"{m.eps1:.17g}",
                     f"{m.eps2_closed_form:.17g}", f"{m.eps2_margin:.17g}",
                     f"{m.eps_bar:.17g}", str(m.crossover)])
        _say(quiet, f"delta={delta:g}: eps1={m.eps1:.6g} "
                    f"eps2_closed_form={m.eps2_closed_form:.6g} "
                    f"eps2_margin={m.eps2_margin:.6g} crossover={m.crossover}")
    _write_report(cfg["out"], "report.csv", rows)
    return 0


# ---------------------------------------------------------------------------
# entry point

_RUN = {"simulate": _cmd_simulate, "certify": _cmd_certify,
        "falsify": _cmd_certify, "margin": _cmd_margin,
        "envelope": _cmd_envelope, "example2-margins": _cmd_example2}


def run(cfg: Config, quiet: bool = False) -> int:
    """Run a loaded config's command and return its exit code."""
    return _RUN[cfg["command"]](cfg, quiet)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="krasovskii",
        description="Simulation, certification and envelope fitting for "
                    "time-delay systems.")
    sub = parser.add_subparsers(dest="subcommand")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_help()
        return 2
    try:
        cfg = load_config(parse_config_file(args.config),
                          command=args.subcommand, seed=args.seed,
                          out=args.out, budget=args.budget)
        return run(cfg, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (certify.InfeasibilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
