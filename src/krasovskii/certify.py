"""Hypothesis checking by falsification and closed-form margin constants.

Checks sample (history, input) pairs from a seeded stratified sampler
and report the worst residual of the tested inequality together with a
witness when it is violated.  A "no violation found" verdict is
sampling evidence, never a proof.

A sweep draws its samples in blocks and evaluates each block once.  A
block is a batch (histories._Batch) whose parts are its groups, the
samples whose histories share a grid, each holding only its draw:
(B, len(grid), n) values, sample-minor as the Fourier kernel draws
them (each component's values at each node one contiguous run over the
group), (B, m) inputs and indices.  The block takes
the reads that every check and functional term needs once, when it is
built: phi(0), phi(-delay), |phi(0)|, sup|phi| and |v|.  So every term
and check that reads only these runs once on the whole block, and only
what reads a grid runs group by group (see functionals).
`FalsificationSampler.groups(start, stop)` draws a block straight into
its groups, one Fourier kernel call per mode class, and keeps it, up to
_MEMO_BYTES of arrays per sampler: every check that sweeps the same
sampler reads one draw pass and one set of reads.  Kept blocks are
shared, so their arrays are read-only.  Any other sampler needs only
sample(i), the history and input vector of index i, drawn one index at
a time and grouped by grid; FalsificationSampler.sample(i) reads its
row of its page's kept block.  Either way sample i is row i mod _PAGE
of its page, drawn whole from the page's own generator,
np.random.default_rng((seed, SAMPLER_STREAM, page)), and leaves its
block as C-contiguous rows, as a witness does.  Every residual is
computed as it would be alone, so a verdict, its witness index and the
skip count do not depend on the block size, on how the samples group
or on which blocks were kept.

A draw builds its pages' generators for itself and shares no random
state, but a sampler's memo of kept blocks is not thread-safe, so
sweeps or samples of one sampler must not run in threads at once.

Margins are the closed-form constants attached to the two growth-route
stability results and their supporting lemmas: the tolerable strength
of a history term in the dissipation inequality, the derived decay and
gain factors, the Gronwall reachability radius, and the two-way
conversion between an exponential envelope and the pair of
solution-norm inequalities (bounded overshoot on one horizon plus a
contraction at its end).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .functionals import (
    Functional,
    PowerGain,
    _closed,
    _form,
    _positive_definite,
    _qform,
    _values,
    # the single-history evaluators stay importable from this module
    driver_derivative_closed,  # noqa: F401
    driver_derivative_numeric,  # noqa: F401
    eval_functional,  # noqa: F401
)
from .histories import (
    MODE_CHOICES,
    NORM_SCALES,
    SAMPLER_STREAM,
    HistoryFunction,
    _Batch,
    _Part,
    _c_rows,
    _fourier_histories,
    _norm,
    random_history,  # noqa: F401  (still importable from this module)
    stream_key,
)
from .systems import DelaySystem

__all__ = [
    "FalsificationSampler",
    "CheckReport",
    "MarginReport",
    "InfeasibilityError",
    "check_sandwich",
    "check_pointwise_dissipation",
    "check_right_growth",
    "check_left_growth",
    "margin_history_term",
    "history_term_constants",
    "margin_right",
    "margin_left",
    "robustness_margin_example2",
    "Example2Margins",
    "rfc_bound",
    "expiss_to_two_inequality",
    "two_inequality_to_expiss",
]

EVIDENCE_NOTE = "sampling evidence, not a proof"

INPUT_SCALES = (0.0, 0.1, 1.0, 10.0)
_STRATA = len(NORM_SCALES) * len(INPUT_SCALES) * len(MODE_CHOICES)

# history_term_constants' eps: this fraction of the way to its boundary
_HISTORY_TERM_SLACK = 0.5

VIOLATED = "violated"
NO_VIOLATION = "no-violation-found"


class InfeasibilityError(RuntimeError):
    """A margin computation produced constants outside their feasible range."""


# the most bytes of drawn groups that one sampler keeps
_MEMO_BYTES = 64 << 20

# samples per page, a divisor of _BLOCK: page p of a sampler is one
# generator, default_rng(stream_key(seed, SAMPLER_STREAM, p)), whose two
# standard_normal calls fill (_PAGE, _ROWS, n) history amplitudes (the
# largest class's constant and 2 per mode) and then (_PAGE, m) inputs
_PAGE = 64
_ROWS = 1 + 2 * max(MODE_CHOICES)


class _Memo(dict):
    """A sampler's kept blocks by (start, stop), and their arrays' bytes."""

    nbytes = 0


@dataclass(frozen=True)
class FalsificationSampler:
    """Stratified, seeded sampler of (history, input) pairs.

    Sample i is drawn from stratum i mod 36 of the product
    norm scale x input scale x Fourier-mode count.  Samples are drawn in
    pages of _PAGE consecutive indices, each page from its own
    generator keyed by (seed, SAMPLER_STREAM, page): sample i takes row
    i mod _PAGE of its page's history amplitudes and inputs.  A sample's
    bits therefore depend only on the seed and its index, whatever range
    or grouping draws it, and verdicts are reproducible.

    Each sampler keeps the blocks that `groups` draws, up to _MEMO_BYTES
    of arrays, so the checks of a run that share it draw each block once;
    `sample(i)` reads its row of its page's block.  The memo is not
    thread-safe, and it takes no part in equality or hashing.
    """

    seed: int
    n: int
    m: int
    delay: float

    _memo: _Memo = field(default_factory=_Memo, init=False, compare=False,
                         repr=False)

    def groups(self, start: int, stop: int) -> _Block:
        """Samples start..stop-1 as a _Block, an iterable of one _Group
        per grid.

        The block is drawn once and kept for the next call with the same
        bounds, while the kept blocks' arrays total at most _MEMO_BYTES;
        a block past that is drawn on every call."""
        memo = self._memo
        block = memo.get((start, stop))
        if block is None:
            block = self._draw(start, stop)
            if memo.nbytes + block.nbytes <= _MEMO_BYTES:
                memo[start, stop] = block
                memo.nbytes += block.nbytes
        return block

    def _draw(self, start: int, stop: int) -> _Block:
        """Samples start..stop-1 drawn afresh, one _Group per grid."""
        return _Block(_Group(self.delay, *s) for s in self._stacks(start, stop))

    def _stacks(self, start: int, stop: int):
        """Samples start..stop-1 drawn afresh: (grid, values, inputs,
        indices) of each grid, before any read is taken.

        Every page the range touches is drawn whole and the range's rows
        sliced out.  A sample's mode count, and so its grid, follows from
        its index, and its class reads the first 1 + 2 modes of its _ROWS
        rows.  At zero delay a history is its constant alone, whatever
        its mode count, and every sample falls in one class."""
        first, last = start // _PAGE, -(-stop // _PAGE)
        draws = np.empty(((last - first) * _PAGE, _ROWS, self.n))
        inputs = np.empty(((last - first) * _PAGE, self.m))
        for k, page in enumerate(range(first, last)):
            rng = np.random.default_rng(
                stream_key(self.seed, SAMPLER_STREAM, page))
            rng.standard_normal(out=draws[k * _PAGE:(k + 1) * _PAGE])
            rng.standard_normal(out=inputs[k * _PAGE:(k + 1) * _PAGE])
        rows = slice(start - first * _PAGE, stop - first * _PAGE)
        draws, inputs = draws[rows], inputs[rows]
        index = np.arange(start, stop)
        strata = index % _STRATA
        norm_scale = np.take(NORM_SCALES, strata % len(NORM_SCALES))
        strata //= len(NORM_SCALES)
        input_scale = np.take(INPUT_SCALES, strata % len(INPUT_SCALES))
        modes = np.take(MODE_CHOICES, strata // len(INPUT_SCALES))
        if not self.delay:
            modes[:] = 0
        for mode in dict.fromkeys(modes.tolist()):
            members = modes == mode
            yield (*_fourier_histories(draws[members, :1 + 2 * mode],
                                       self.delay, norm_scale[members]),
                   inputs[members] * input_scale[members, None],
                   index[members])

    def sample(self, i: int):
        """Sample i, its history and read-only input vector: its row of
        its page's block, which `groups` draws and keeps as any other."""
        page = i - i % _PAGE
        return _row(self.groups(page, page + _PAGE), i)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one falsification sweep."""

    check: str
    samples: int
    skipped: int
    worst: float
    tolerance: float
    verdict: str
    witness: Optional[tuple] = None
    witness_index: Optional[int] = None
    note: str = EVIDENCE_NOTE

    @property
    def violated(self) -> bool:
        return self.verdict == VIOLATED

    def csv_rows(self):
        phi0 = inp = sup = ""
        if self.witness is not None:
            phi, v = self.witness
            sup = f"{phi.sup_norm():.17g}"
            phi0 = " ".join(f"{x:.17g}" for x in phi.eval(0.0))
            inp = " ".join(f"{x:.17g}" for x in np.atleast_1d(v))
        return [["check", self.check, str(self.samples), str(self.skipped),
                 f"{self.worst:.17g}", f"{self.tolerance:.17g}", self.verdict,
                 "" if self.witness_index is None else str(self.witness_index),
                 sup, phi0, inp, self.note]]

    def text(self) -> str:
        lines = [
            f"check {self.check}: {self.verdict}",
            f"  samples={self.samples} skipped={self.skipped} "
            f"worst residual={self.worst:.6g} (tolerance {self.tolerance:g})",
        ]
        if self.witness is not None:
            phi, v = self.witness
            lines.append(f"  witness #{self.witness_index}: sup|phi|="
                         f"{phi.sup_norm():.6g}, phi(0)={phi.eval(0.0)}, v={v}")
        lines.append(f"  note: {self.note}")
        return "\n".join(lines)


# samples drawn per block of a sweep; a block's samples are evaluated
# together, and what reads a grid runs once per group, one per shared
# grid.  The benchmark's eight sweeps of 10^4 example1 samples on kept
# blocks took 28.7 ms in blocks of 512, 19.7 in 1024, 17.6 in 2048,
# 17.8 in 3072 and 16.8 in 4096, while the transient peak of a round
# grows with the block: 0.54, 0.99, 1.90, 2.81 and 3.71 MB (medians of
# 4 to 9 tools/sweep_timing.py runs of 30 rounds each, alternating;
# tracemalloc; 2 shared CPUs).  The runs of 2048 spread over 15.1-18.2
# ms, which holds 4096's, at half its peak
_BLOCK = 2048


@dataclass(frozen=True, eq=False)
class _Group(_Part):
    """Samples of one block on one grid, as drawn: a part of its block,
    with their inputs (B, m) and indices.  A drawn group's values are
    sample-minor (histories._fourier_histories); a group stacked from
    sample(i) holds C-ordered rows.  The kernels give the same bits on
    either."""

    inputs: np.ndarray
    indices: np.ndarray


class _Block(_Batch):
    """The samples of one block, a batch whose parts are its groups, one
    per grid.  It joins their inputs and indices and takes the norms the
    checks read, |phi(0)|, sup|phi| and |v| (B,), once, when it is built:
    sup|phi| group by group, on the groups' own layout, the others on
    the joined rows.  Blocks are shared, so every array of a block and
    its groups is read-only."""

    def __init__(self, groups):
        super().__init__(groups)
        self.inputs = self.per_part(lambda g: g.inputs)
        self.indices = self.per_part(lambda g: g.indices)
        self.point_norm, self.input_norm = _norm(self.x0), _norm(self.inputs)
        self.sup_norm = self.per_part(lambda g: _norm(g.values).max(axis=-1))
        for array in self._arrays():
            array.flags.writeable = False

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._arrays())

    def _arrays(self):
        """Every array the block and its groups hold, each once."""
        return {id(a): a for holder in (self, *self.parts)
                for a in vars(holder).values()
                if isinstance(a, np.ndarray)}.values()


def _groups_of_samples(sampler, start: int, stop: int) -> list:
    """The adaptor for a sampler with only sample(i): samples
    start..stop-1 drawn one at a time, stacked into one _Group per grid."""
    drawn = {}
    for i in range(start, stop):
        phi, v = sampler.sample(i)
        key = (phi.delay, phi.n, phi.grid.tobytes())
        drawn.setdefault(key, []).append((i, phi, v))
    return [_Group(phis[0].delay, phis[0].grid,
                   np.stack([phi.values for phi in phis]),
                   np.stack([np.atleast_1d(np.asarray(v, dtype=float))
                             for v in inputs]), np.array(index))
            for index, phis, inputs in (zip(*d) for d in drawn.values())]


def _sweep(check: str, residual, sampler, budget: int,
           tolerance: float) -> CheckReport:
    """Draw samples 0..budget-1 in blocks, with sampler.groups(start,
    stop) when the sampler has it and through sampler.sample(i)
    otherwise, and evaluate `residual`, which maps a _Block to its
    residuals; groups that are not a _Block already are joined into
    one.  A non-finite residual skips its sample.  The witness is read
    from the groups of the first block holding the largest residual, or,
    without groups, is sampler.sample(i)."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    groups = getattr(sampler, "groups", None)
    draw = groups or partial(_groups_of_samples, sampler)
    r = np.empty(budget)
    best, held = -np.inf, ()
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, budget, _BLOCK):
            stop = min(start + _BLOCK, budget)
            block = draw(start, stop)
            if not isinstance(block, _Block):
                block = _Block(block)
            r[block.indices] = residual(block)
            top = r[start:stop].max(where=np.isfinite(r[start:stop]),
                                    initial=-np.inf)
            if top > best:
                best, held = top, block
    finite = np.isfinite(r)
    if not finite.any():
        raise RuntimeError(f"every sample of check {check} was skipped")
    skipped = budget - int(np.count_nonzero(finite))
    # the first largest residual, as a strict > scan in index order finds
    worst_idx = int(np.argmax(np.where(finite, r, -np.inf)))
    worst = float(r[worst_idx])
    if worst > tolerance:
        witness = _row(held, worst_idx) if groups else sampler.sample(worst_idx)
        return CheckReport(check, budget, skipped, worst, tolerance,
                           VIOLATED, witness, worst_idx)
    return CheckReport(check, budget, skipped, worst, tolerance, NO_VIOLATION)


def _row(groups, i: int) -> tuple:
    """Sample i read from the group that holds it, as `sample(i)` and a
    sweep's witness read it: its history and read-only input vector."""
    for g in groups:
        rows = np.flatnonzero(g.indices == i)
        if rows.size:
            return (HistoryFunction._trusted(g.delay, g.grid,
                                             _c_rows(g.values[rows[0]])),
                    g.inputs[rows[0]])


def _field(sys: DelaySystem, block: _Block) -> np.ndarray:
    """f(phi, v) of each sample, (B, n): one call of the pointwise
    formula over the block's (n, B) columns, or one general field call
    per sample, group by group.  A row is non-finite where the field
    blew up, NaN where a general field call raised an ArithmeticError;
    the sweep skips such rows."""
    size = block.x0.shape[0]
    if sys.pointwise is not None:
        w = np.asarray(sys.pointwise(block.x0.T, block.at(-sys.delay).T,
                                     block.inputs.T), dtype=float)
        if w.shape != (sys.n, size):
            raise ValueError(f"the pointwise formula of {sys.name!r} does not "
                             "broadcast over (n, B) columns")
        return np.ascontiguousarray(w.T)
    rows = np.empty((size, sys.n))
    phis = (HistoryFunction._trusted(g.delay, g.grid, row)
            for g in block for row in g.values)
    for j, (phi, v) in enumerate(zip(phis, block.inputs)):
        try:
            rows[j] = sys.field(phi, v)
        except ArithmeticError:
            rows[j] = np.nan
    return rows


def _unless_blown_up(w: np.ndarray, r: np.ndarray) -> np.ndarray:
    # a sample whose field blew up is skipped, whatever its residual reads
    return np.where(np.isfinite(w).all(axis=-1), r, np.nan)


def check_sandwich(V: Functional, a_lower: Optional[float], a_upper: float,
                   rho: float, sampler, budget: int,
                   tolerance: float = 1e-9) -> CheckReport:
    """Residuals of a_lower |phi(0)|^rho <= V(phi) <= a_upper sup|phi|^rho.

    The lower bound is skipped when a_lower is None (the right-growth
    route needs only the upper one)."""

    def residual(b):
        val = _values(V, b)
        upper = val - a_upper * b.sup_norm ** rho
        if a_lower is None:
            return upper
        lower = a_lower * b.point_norm ** rho - val
        # Python's max(upper, lower): lower only when strictly larger
        return np.where(lower > upper, lower, upper)

    return _sweep("sandwich", residual, sampler, budget, tolerance)


def check_pointwise_dissipation(sys: DelaySystem, V: Functional, a: float,
                                c: float, gamma, sampler, budget: int,
                                tolerance: float = 1e-9) -> CheckReport:
    """Residual of the point-wise dissipation inequality D+V(phi, f(phi, v))
    <= -a |phi(0)|^2 + c sup|phi|^2 + gamma(|v|), where gamma, a PowerGain,
    is called once on each block's input norms."""
    if not isinstance(gamma, PowerGain):
        raise TypeError(f"gamma must be a PowerGain, got {gamma!r}")

    def residual(b):
        w = _field(sys, b)
        d = _closed(V, b, w)
        return _unless_blown_up(w, d + a * b.point_norm ** 2
                                - c * b.sup_norm ** 2 - gamma(b.input_norm))

    return _sweep("pointwise-dissipation", residual, sampler, budget, tolerance)


def _growth_residual(sys, P, sigma, gamma, sign):
    if not isinstance(gamma, PowerGain):
        raise TypeError(f"gamma must be a PowerGain, got {gamma!r}")
    form = _form(_positive_definite(P)[0])

    def residual(b):
        w = _field(sys, b)
        lhs = _qform(b.x0, form, w)
        cap = sigma * (b.sup_norm ** 2 + gamma(b.input_norm))
        return _unless_blown_up(w, lhs - cap if sign > 0 else -lhs - cap)

    return residual


def check_right_growth(sys: DelaySystem, P, sigma: float, gamma, sampler,
                       budget: int, tolerance: float = 1e-9) -> CheckReport:
    """Residual of phi(0)' P f(phi, v) <= sigma (sup|phi|^2 + gamma(|v|)),
    gamma a PowerGain."""
    return _sweep("right-growth", _growth_residual(sys, P, sigma, gamma, +1),
                  sampler, budget, tolerance)


def check_left_growth(sys: DelaySystem, P, sigma: float, gamma, sampler,
                      budget: int, tolerance: float = 1e-9) -> CheckReport:
    """Residual of phi(0)' P f(phi, v) >= -sigma (sup|phi|^2 + gamma(|v|)),
    gamma a PowerGain."""
    return _sweep("left-growth", _growth_residual(sys, P, sigma, gamma, -1),
                  sampler, budget, tolerance)


# ---------------------------------------------------------------------------
# margins

@dataclass(frozen=True)
class MarginReport:
    """Constants of one hypothesis set.

    route is one of "history-term" (tolerable history strength under an
    LKF-wise dissipation), "right-growth" or "left-growth".  `outputs`
    always carries c_bar plus the route-specific constants.
    """

    route: str
    delay: float
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.outputs.get("c_bar", 1.0) <= 0:
            raise InfeasibilityError("c_bar must be positive")

    def csv_rows(self):
        rows = []
        for key in sorted(self.inputs):
            rows.append(["margin", self.route, "in", key,
                         _fmt(self.inputs[key])])
        for key in sorted(self.outputs):
            rows.append(["margin", self.route, "out", key,
                         _fmt(self.outputs[key])])
        return rows

    def text(self) -> str:
        ins = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(self.inputs.items()))
        outs = "\n".join(f"  {k} = {_fmt(v)}"
                         for k, v in sorted(self.outputs.items()))
        return f"margin [{self.route}] delay={self.delay:g} ({ins})\n{outs}"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _eigen_extremes(P) -> tuple[float, float]:
    eigs = _positive_definite(P)[1]
    return float(eigs[0]), float(eigs[-1])


def _ceil_snapped(x: float) -> int:
    # float noise within 1e-9 relative of an integer must not bump the
    # ceiling to the next one
    nearest = round(x)
    if abs(x - nearest) <= 1e-9 * max(1.0, abs(x)):
        return int(nearest)
    return int(math.ceil(x))


def margin_history_term(a_lower: float, a: float, delay: float) -> float:
    """Threshold a_lower * a * exp(-a delay) on the history-term strength
    under an LKF-wise dissipation."""
    if a_lower <= 0 or a <= 0 or delay < 0:
        raise ValueError("a_lower, a must be positive and delay >= 0")
    return a_lower * a * math.exp(-a * delay)


def history_term_constants(a_lower: float, a_upper: float, a: float, rho: float,
                           c: float, delay: float) -> MarginReport:
    """Computable companions of the history-term route: the headroom
    xi = 1 - c e^{a delay}(1 + eps)/(a_lower a), the overshoot constant
    and the gain prefactor.  The decay rate itself is not constructive
    and is estimated empirically elsewhere.

    eps is placed halfway to the feasibility boundary (eps = 0 when
    c = 0)."""
    c_bar = margin_history_term(a_lower, a, delay)
    if not 0 <= c < c_bar:
        raise InfeasibilityError(f"c={c} must lie in [0, c_bar={c_bar})")
    base = c * math.exp(a * delay) / (a_lower * a)
    eps = _HISTORY_TERM_SLACK * (1.0 / base - 1.0) if base > 0 else 0.0
    xi = 1.0 - base * (1.0 + eps)
    k = (2.0 * a_upper * math.exp(a * delay) / (a_lower * xi)) ** (1.0 / rho)
    gain_prefactor = (2.0 * math.exp(a * delay) * (1.0 + eps)
                      / (a_lower * a * xi)) ** (1.0 / rho)
    return MarginReport(
        "history-term", delay,
        inputs={"a_lower": a_lower, "a_upper": a_upper, "a": a, "rho": rho,
                "c": c, "eps": eps},
        outputs={"c_bar": c_bar, "xi": xi, "overshoot_k": k,
                 "gain_prefactor": gain_prefactor})


def margin_right(a: float, sigma: float, P, delay: float,
                 a_upper: Optional[float] = None, c: float = 0.0) -> MarginReport:
    """Constants of the right-growth route.

    eps weights the added coercive max-type term, c_bar is the tolerable
    history strength, gamma_factor multiplies the input gain, and (when
    a_upper is given) w_rate is the dissipation rate of the combined
    coercive functional."""
    if a <= 0 or sigma <= 0 or delay < 0:
        raise ValueError("a, sigma must be positive and delay >= 0")
    p_m, p_M = _eigen_extremes(P)
    decay = math.exp(-2.0 * delay)
    eps = a * p_m * decay / (4.0 * sigma * p_M)
    c_bar = min(2.0 * eps, a / (2.0 * p_M)) * p_m * decay
    gamma_factor = 1.0 + 2.0 * eps * sigma
    outputs = {"eps": eps, "c_bar": c_bar, "gamma_factor": gamma_factor,
               "p_m": p_m, "p_M": p_M}
    inputs = {"a": a, "sigma": sigma, "c": c}
    if a_upper is not None:
        inputs["a_upper"] = a_upper
        outputs["w_rate"] = (c_bar - c) / (a_upper + eps * p_M)
    return MarginReport("right-growth", delay, inputs, outputs)


def margin_left(a_lower: float, a_upper: float, a: float, sigma: float, P,
                delay: float) -> MarginReport:
    """Constants of the left-growth route.

    eps is the probing window width, q the number of windows, T = q
    (delay + eps) the contraction horizon, c_bar = a_lower / (2 T) the
    tolerable history strength.  lam_min is the smallest contraction
    factor compatible with the route's key inequality; lam_star is the
    midpoint policy (1 + lam_min)/2, and decay_rate = ln(1/lam_star)/T
    the envelope rate it induces."""
    if min(a_lower, a_upper, a, sigma) <= 0 or delay < 0:
        raise ValueError("all constants must be positive and delay >= 0")
    if a_lower > a_upper:
        raise ValueError("the squeeze forces a_lower <= a_upper")
    p_m, p_M = _eigen_extremes(P)
    eps = p_m * a_lower ** 2 / (16.0 * a_upper ** 2 * sigma)
    q = _ceil_snapped(p_M / (sigma * eps * eps))
    T = q * (delay + eps)
    c_bar = a_lower / (2.0 * T)
    qe = q * eps
    lam_min_sq = ((2.0 * a_upper / a_lower
                   + qe / p_M * (4.0 * eps * sigma * a_upper / a_lower))
                  * 2.0 * a_upper * p_M / (qe * p_m * a_lower))
    if lam_min_sq >= 1.0:
        raise InfeasibilityError(
            f"contraction inequality infeasible: lam_min^2={lam_min_sq}")
    lam_min = math.sqrt(lam_min_sq)
    lam_star = 0.5 * (lam_min + 1.0)
    mu_coefficient = (4.0 / math.sqrt(a_lower)) * max(
        math.sqrt(2.0 * T),
        math.sqrt(a_upper / p_m * (p_M * T / (a * qe)
                                   + sigma * eps * (1.0 + 2.0 * T / a_lower))))
    decay_rate = math.log(1.0 / lam_star) / T
    return MarginReport(
        "left-growth", delay,
        inputs={"a_lower": a_lower, "a_upper": a_upper, "a": a,
                "sigma": sigma},
        outputs={"eps": eps, "q": q, "T": T, "c_bar": c_bar,
                 "lam_min": lam_min, "lam_star": lam_star,
                 "mu_coefficient": mu_coefficient, "decay_rate": decay_rate,
                 "p_m": p_m, "p_M": p_M})


@dataclass(frozen=True)
class Example2Margins:
    """Tolerable uncertainty intensities for the perturbed benchmark.

    The uncertainty enters the dissipation residual with strength
    4 |eps|, so each tolerable intensity is the corresponding history
    margin divided by 4.  eps2_margin evaluates the left-growth margin
    as computed here; eps2_closed_form evaluates a standalone
    closed-form expression for the same quantity whose ceiling constant
    is about 3x larger (2304 vs 768 inside the rounding).  Both are
    surfaced; the combined bound uses the computed margin.
    """

    delay: float
    eps1: float
    eps2_margin: float
    eps2_closed_form: float
    eps_bar: float

    @property
    def crossover(self) -> bool:
        return self.eps2_closed_form > self.eps1


def example2_eps2_closed_form(delay: float) -> float:
    """Standalone closed form of the second tolerable intensity."""
    width = 1.0 / (48.0 * (1.0 + 2.0 * delay) ** 2)
    ceil = _ceil_snapped(2304.0 * (1.0 + 2.0 * delay) ** 4)
    return 1.0 / (8.0 * ceil * (delay + width))


def robustness_margin_example2(delay: float) -> Example2Margins:
    """Both tolerable-uncertainty estimates for the perturbed benchmark
    (squeeze constants 1 and 1 + 2 delay, rate 1/2, growth constants 1
    right / 3 left, P = I)."""
    if delay < 0:
        raise ValueError("delay must be >= 0")
    eye = np.eye(2)
    right = margin_right(a=0.5, sigma=1.0, P=eye, delay=delay)
    eps1 = right.outputs["c_bar"] / 4.0
    left = margin_left(a_lower=1.0, a_upper=1.0 + 2.0 * delay, a=0.5,
                       sigma=3.0, P=eye, delay=delay)
    eps2_margin = left.outputs["c_bar"] / 4.0
    eps2_closed_form = example2_eps2_closed_form(delay)
    return Example2Margins(delay, eps1, eps2_margin, eps2_closed_form,
                           max(eps1, eps2_margin))


def rfc_bound(alpha: PowerGain, alpha_upper, c_bar: float, a: float, gamma,
              c: float, r: float, T: float) -> float:
    """Gronwall reachability radius: initial histories and inputs bounded
    by r stay within R = alpha^{-1}((alpha_upper(r) + c_bar) e^{aT}
    + (gamma(r) + c) e^{aT}/a) up to time T.

    alpha must be an invertible power-form gain; a general numeric
    inversion is deliberately not attempted."""
    if not isinstance(alpha, PowerGain):
        raise ValueError("alpha must be a power-form gain (exact inverse)")
    if a == 0:
        raise ValueError("the bound divides by the growth rate a")
    if a < 0 or r < 0 or T < 0 or c < 0 or c_bar < 0:
        raise ValueError("a, r, T, c, c_bar must be nonnegative")
    growth = math.exp(a * T)
    inner = (alpha_upper(r) + c_bar) * growth + (gamma(r) + c) * growth / a
    return alpha.inverse(inner)


def expiss_to_two_inequality(k: float, eta: float, delay: float,
                             lam: float) -> tuple[float, float]:
    """From an envelope |x(t)| <= k sup|x0| e^{-eta t} + mu(...) to the
    two solution-norm inequalities: overshoot ell = k e^{eta delay} on
    the horizon T = delay + ln(k/lam)/eta, contraction lam at T.
    The gain passes through unchanged."""
    if k < 1:
        raise ValueError("overshoot constant k must be >= 1")
    if eta <= 0 or not 0 < lam < 1 or delay < 0:
        raise ValueError("need eta > 0, lam in (0,1), delay >= 0")
    ell = k * math.exp(eta * delay)
    T = delay + math.log(k / lam) / eta
    return ell, T


def two_inequality_to_expiss(ell: float, T: float,
                             lam: float) -> tuple[float, float, float]:
    """Converse direction: overshoot ell on [0, T] plus contraction lam
    at T give the envelope constants eta = ln(1/lam)/T, k = ell/lam, and
    the factor ell/(1-lam) + 1 multiplying the gain."""
    if ell <= 0 or T <= 0 or not 0 < lam < 1:
        raise ValueError("need ell, T > 0 and lam in (0,1)")
    eta = math.log(1.0 / lam) / T
    k = ell / lam
    gain_factor = ell / (1.0 - lam) + 1.0
    return k, eta, gain_factor
