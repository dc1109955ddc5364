"""Composable Lyapunov-Krasovskii functionals.

A functional is an immutable expression tree over quadratic building
blocks of the history phi:

    PointQuadratic(Q)        phi(0)' Q phi(0)
    DelayedQuadratic(Q, at)  phi(at)' Q phi(at)
    IntegralQuadratic(Q, w)  integral of w(tau) phi(tau)' Q phi(tau)
    MaxExp(P)                max over tau of exp(2 tau) phi(tau)' P phi(tau)
    Scale(k, F), Sum(F, G)

Trees compose with + and scalar *.  Two derivative evaluators are
provided: the closed form, exact on piecewise-linear histories for every
tree, and its cross-check, the largest finite-step quotient over a given
decreasing step schedule, a loop of eval_functional over driver_extension.

The max-type term is evaluated exactly on piecewise-linear histories:
on each segment exp(2 tau) times a quadratic is maximised through its
critical points, which avoids any oversampling error.  The same segment
maxima give its closed-form derivative, which follows the argmax set
(see driver_derivative_closed), and keep small-step difference
quotients free of sampling error.

Only segments that can beat the nodes are solved.  P is positive
definite, so on a segment q = phi' P phi is convex and exp(2 tau) q(tau)
<= exp(2 tau_right) max(q_left, q_right).  A segment whose bound,
inflated by a relative margin, lies below the maximum over the nodes
cannot change the result and is skipped.  The margin is derived from
the rounding of the forms (of order (n^2 + 5) u ||P||_F / lambda_min(P)
with u = 2^-53, about 6e-14 for P = I in two dimensions) and of the
exponential (of order u delay), plus an absolute floor for results
below the smallest normal number (see _limits).  Every segment is
solved where the margin is not derived to hold: in a row with a
non-finite node or near overflow, and for every row when that order
reaches 1e-3, a P too ill-conditioned or a delay above 7e11.  The
result is the bits of solving every segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .histories import (
    HistoryFunction,
    _Batch,
    _eval_on_grid,
    _join,
    _Part,
    _slope_row,
    _sum_last,
    driver_extension,
)

__all__ = [
    "Functional",
    "PointQuadratic",
    "DelayedQuadratic",
    "IntegralQuadratic",
    "MaxExp",
    "Scale",
    "Sum",
    "ConstantWeight",
    "ExponentialWeight",
    "eval_functional",
    "driver_derivative_closed",
    "driver_derivative_numeric",
    "combine_W",
    "PowerGain",
    "square_gain",
    "zero_gain",
]


def _symmetric(Q) -> np.ndarray:
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if Q.shape[0] != Q.shape[1]:
        raise ValueError("matrix must be square")
    T, atol = Q.T, 1e-12 * (1.0 + abs(Q).max())
    # np.allclose(Q, T, rtol=0, atol=atol) by NumPy's own isclose formula
    with np.errstate(invalid="ignore"):
        close = ((abs(Q - T) <= atol) & np.isfinite(T)) | (Q == T)
    if not close.all():
        raise ValueError("matrix must be symmetric")
    Q = 0.5 * (Q + Q.T)
    Q.flags.writeable = False
    return Q


def _positive_definite(P) -> tuple[np.ndarray, np.ndarray]:
    """(_symmetric(P), its eigenvalues ascending), both read-only: the
    package's one rule for a positive definite P, raising ValueError for
    any other P.  Kept for the last 32 float arrays by shape and bytes; a
    P that raised is decided afresh on every call."""
    P = np.asarray(P, dtype=float)
    return _positive_definite_of(P.shape, P.tobytes())


@lru_cache(maxsize=32)
def _positive_definite_of(shape, data):
    P = _symmetric(np.frombuffer(data).reshape(shape))
    eigs = np.linalg.eigvalsh(P)
    if not eigs[0] > 0:
        raise ValueError("matrix must be positive definite")
    eigs.flags.writeable = False
    return P, eigs


def _form(Q: np.ndarray) -> tuple:
    """A fixed square matrix Q as _qform reads it, taken once when its
    term or check is built: its nonzero entries (i, j, Q_ij) in the
    order of (i, j)."""
    return tuple((i, j, float(q)) for (i, j), q in np.ndenumerate(Q) if q != 0.0)


def _qform(a: np.ndarray, form: tuple, b: np.ndarray | None = None) -> np.ndarray:
    """a' Q b (b defaults to a, of a's shape) along the last axis, for
    every leading index, Q given by its _form: the package's one form
    rule.  The terms (a_i Q_ij) b_j are summed in the order of (i, j),
    skipping zero entries of Q, so a row's value does not depend on the
    rows evaluated with it or on the BLAS kernel.  An entry of 1.0 forms
    a_i b_j, the bits of (a_i 1.0) b_j for every double.  Products and
    sums are taken in place, in the layout of a's columns, so a batch of
    large planes allocates one array per entry of Q, not two or three."""
    b = a if b is None else b
    total = None
    for i, j, q in form:
        if q == 1.0:
            term = a[..., i] * b[..., j]
        else:
            term = a[..., i] * q
            term *= b[..., j]
        if total is None:
            total = term
        else:
            total += term
    return np.zeros(a.shape[:-1]) if total is None else total


class Functional:
    def __add__(self, other):
        if not isinstance(other, Functional):
            return NotImplemented
        return Sum(self, other)

    def __mul__(self, k):
        if not np.isscalar(k):
            return NotImplemented
        return Scale(float(k), self)

    __rmul__ = __mul__


@dataclass(frozen=True)
class ConstantWeight:
    c: float = 1.0

    def value(self, tau):
        return np.full(np.shape(tau), self.c, dtype=float)

    polynomial = True


@dataclass(frozen=True)
class ExponentialWeight:
    """w(tau) = c * exp(rate * tau)."""

    c: float
    rate: float

    def value(self, tau):
        return self.c * np.exp(self.rate * np.asarray(tau, dtype=float))

    def derivative(self, tau):
        return self.rate * self.value(tau)

    polynomial = False


_NO_COMPARE = dict(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class DelayedQuadratic(Functional):
    Q: np.ndarray
    at: float
    form: tuple = field(**_NO_COMPARE)

    def __post_init__(self):
        object.__setattr__(self, "Q", _symmetric(self.Q))
        object.__setattr__(self, "form", _form(self.Q))
        if self.at > 0:
            raise ValueError("evaluation point must lie in [-delay, 0]")


@dataclass(frozen=True)
class PointQuadratic(DelayedQuadratic):
    """The delayed quadratic at 0."""

    at: float = field(default=0.0, init=False)


@dataclass(frozen=True)
class IntegralQuadratic(Functional):
    """`reads` is (span, form): the slice from the first to the last
    component Q reads, and Q's form renumbered onto it (see _integral)."""

    Q: np.ndarray
    weight: ConstantWeight | ExponentialWeight = field(default_factory=ConstantWeight)
    form: tuple = field(**_NO_COMPARE)
    reads: tuple = field(**_NO_COMPARE)

    def __post_init__(self):
        object.__setattr__(self, "Q", _symmetric(self.Q))
        object.__setattr__(self, "form", _form(self.Q))
        cols = [k for i, j, _ in self.form for k in (i, j)]
        lo, hi = (min(cols), max(cols) + 1) if cols else (0, 0)
        object.__setattr__(self, "reads", (slice(lo, hi), tuple(
            (i - lo, j - lo, q) for i, j, q in self.form)))
        if np.isscalar(self.weight):
            object.__setattr__(self, "weight", ConstantWeight(float(self.weight)))


@dataclass(frozen=True)
class MaxExp(Functional):
    """The max-type term.  `spectrum` is (||P||_F, a lower bound on
    lambda_min(P) that allows for eigvalsh's rounding, or 0), which
    sizes the segment pruning of its evaluation (see _limits)."""

    P: np.ndarray
    form: tuple = field(**_NO_COMPARE)
    spectrum: tuple = field(**_NO_COMPARE)

    def __post_init__(self):
        P, eigs = _positive_definite(self.P)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "form", _form(P))
        # eigvalsh is backward stable: its eigenvalues are exact to within
        # a small multiple of n u ||P||
        frobenius = float(np.linalg.norm(P))
        lam = float(eigs[0]) - 16 * P.shape[0] * _U * frobenius
        object.__setattr__(self, "spectrum", (frobenius, max(lam, 0.0)))


@dataclass(frozen=True)
class Scale(Functional):
    k: float
    inner: Functional


@dataclass(frozen=True)
class Sum(Functional):
    left: Functional
    right: Functional


# ---------------------------------------------------------------------------
# evaluation
#
# The evaluators take one batch type, `_Batch`, histories in parts on one
# grid each.  A term that reads only phi(0) and phi(-delay), the batch's
# reads, runs once on the whole batch; integrals, reads at other lags,
# right slopes and the max-type term's node phase run part by part.  Each
# result is a (B,) array in the order of the parts.  The public
# single-history functions pass a batch of one part.

def _one(phi: HistoryFunction) -> _Batch:
    return _Batch([_Part(phi.delay, phi.grid, phi.values[None])])


def eval_functional(V: Functional, phi: HistoryFunction) -> float:
    return float(_values(V, _one(phi))[0])


def _values(V: Functional, batch: _Batch) -> np.ndarray:
    if isinstance(V, DelayedQuadratic):
        return _qform(batch.at(V.at), V.form)
    if isinstance(V, IntegralQuadratic):
        return batch.per_part(partial(_integral, V.reads, V.weight,
                                      V.weight.value))
    if isinstance(V, MaxExp):
        return _maxexp(V, batch)[0]
    if isinstance(V, Scale):
        return V.k * _values(V.inner, batch)
    if isinstance(V, Sum):
        return _values(V.left, batch) + _values(V.right, batch)
    raise TypeError(f"not a functional term: {V!r}")


def _integral(reads: tuple, weight, weight_fn, part: _Part) -> np.ndarray:
    """The integral of weight_fn (the weight or its derivative) times the
    form, per history of the part; a constant weight multiplies by its c
    unless c = 1.0.  Only the span of components the form reads is
    averaged, interpolated and formed: the bits of using them all."""
    span, form = reads
    delay, g, values = part.delay, part.grid, part.values[..., span]
    if delay == 0.0 or g.shape[0] < 2:
        return np.zeros(values.shape[0])
    if weight.polynomial:
        # per-segment Simpson; exact when the integrand is polynomial of
        # degree <= 3 per segment (constant weight, linear history).
        # Each step writes into the array it reads, so a large plane is
        # allocated once, not per operation, and keeps the operand order
        # of  h / 6 * (nodes_left + 4 fm + nodes_right),  fm the form at
        # 0.5 * (left + right)
        mids = values[:, :-1] + values[:, 1:]
        np.multiply(0.5, mids, out=mids)
        # the node forms, whose first and last N - 1 are each segment's
        # two ends
        nodes, fm = _qform(values, form), _qform(mids, form)
        if weight.c != 1.0:
            np.multiply(weight.c, nodes, out=nodes)
            np.multiply(weight.c, fm, out=fm)
        np.multiply(4.0, fm, out=fm)
        np.add(nodes[:, :-1], fm, out=fm)
        fm += nodes[:, 1:]
        np.multiply((g[1:] - g[:-1]) / 6.0, fm, out=fm)
        return _sum_last(fm)
    # refined composite Simpson with 8 panels on each segment, the
    # segments summed in order
    ts = np.linspace(g[:-1], g[1:], 17, axis=-1)
    rows = _eval_on_grid(delay, g, values, ts.ravel())
    f = weight_fn(ts) * _qform(rows, form).reshape((values.shape[0],) + ts.shape)
    odd_sum = _sum_last(f[..., 1:-1:2])
    even_sum = _sum_last(f[..., 2:-2:2])
    h = (g[1:] - g[:-1]) / 16
    per_segment = h / 3.0 * (f[..., 0] + f[..., -1] + 4.0 * odd_sum
                             + 2.0 * even_sum)
    return np.cumsum(per_segment, axis=-1)[:, -1]


# Rounding model of the pruning bound: a computed product or quotient is
# (x o y)(1 + d) + e with |d| <= _U, and |e| <= _TINY only where the
# result lies below the smallest normal number.
_U = 2.0 ** -53
_TINY = 2.0 ** -1022
_HUGE = float(np.finfo(float).max)


def _maxexp(V: MaxExp, batch: _Batch):
    """M = max over tau of f(tau) = exp(2 tau) phi(tau)' P phi(tau) for
    each history, exact on piecewise-linear histories: (M, f, rest),
    where f holds each part's f at its nodes (B_part, len(grid)) and
    rest is the maximum of f over the window without its node -delay
    (-inf at zero delay).  A non-finite node makes M non-finite; a NaN
    segment peak is ignored.

    The node phase runs part by part: the node forms, f, rest, the
    margin of _limits and the candidate segments.  Interior maxima are
    solved only on candidates.  P is positive definite, so on a segment
    q = phi' P phi is convex and f <= exp(2 tau_right) max(q_left,
    q_right).  A segment is skipped when that bound, inflated by a
    margin, is below its row's rest at the nodes: no computed value of f
    inside it can then exceed rest, so M, f and rest are the bits of
    solving every segment (see _limits for the margin).  The candidates
    of all parts are solved together, and each row's peak is scattered
    with np.maximum.at, which keeps a NaN as np.max does."""
    fs, rests, found, offset = [], [], [], 0
    for part in batch:
        g, values = part.grid, part.values
        q = _qform(values, V.form)
        e = np.exp(2.0 * g)
        f = e * q
        rest = f[:, 1:].max(axis=-1, initial=-np.inf)
        fs.append(f)
        rests.append(rest)
        if g.shape[0] >= 2:
            L = g[1:] - g[:-1]
            # a row with an infinite node meets inf - inf or 0 * inf here
            with np.errstate(invalid="ignore"):
                inflate, lim = _limits(V, values.shape[-1], g, q, rest)
                # each segment's bound, scaled in place, then the mask of
                # the segments it rules out, which frees the bounds
                skip = np.maximum(q[:, :-1], q[:, 1:])
                skip *= e[1:] * inflate
                skip = np.less(skip, lim[:, None])
                rows, seg = np.divmod(np.flatnonzero(
                    np.logical_not(skip, out=skip)), L.shape[0])
            # each candidate's row of the batch, length, left node, value
            # there, slope and node form
            u, L = values[rows, seg], L[seg]
            found.append((rows + offset, L, g[seg], u,
                          (values[rows, seg + 1] - u) / L[:, None],
                          q[rows, seg]))
        offset += values.shape[0]
    rest = _join(rests)
    if found:
        rest = _segment_peaks(V, rest, *(_join(c) for c in zip(*found)))
    return np.maximum(_join([f[:, 0] for f in fs]), rest), tuple(fs), rest


def _segment_peaks(V: MaxExp, rest, rows, L, g0, u, d, gam):
    """rest raised to the interior maxima of the candidate segments:
    each a segment of length L from g0 of row `rows` of the batch, whose
    history is u + t d, with node form gam at g0."""
    # exact interior maxima: on each segment the integrand is
    # exp(2 tau) (alpha t^2 + beta t + gamma); critical points solve
    # 2 alpha t^2 + 2(alpha + beta) t + (beta + 2 gamma) = 0
    alpha = _qform(d, V.form)
    beta = 2.0 * _qform(u, V.form, d)
    A = 2.0 * alpha
    B = 2.0 * (alpha + beta)
    C = beta + 2.0 * gam
    scale = np.abs(A) + np.abs(B) + np.abs(C) + 1e-300
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disc = B * B - 4.0 * A * C
        sq = np.sqrt(np.maximum(disc, 0.0))
        quad = np.abs(A) > 1e-14 * scale
        lin = (~quad) & (np.abs(B) > 1e-14 * scale)
        real = quad & ~(disc < 0)
        roots = (np.where(real, (-B - sq) / (2.0 * A),
                          np.where(lin, -C / B, np.nan)),
                 np.where(real, (-B + sq) / (2.0 * A), np.nan))
        for t in roots:
            ok = np.isfinite(t) & (t > 0.0) & (t < L)
            if not ok.any():
                continue
            t = t[ok]
            val = np.exp(2.0 * (g0[ok] + t)) * (alpha[ok] * t * t
                                                 + beta[ok] * t + gam[ok])
            peak = np.full(rest.shape, -np.inf)
            np.maximum.at(peak, rows[ok], val)
            # Python's max(rest, peak): a NaN peak leaves rest
            rest = np.where(peak > rest, peak, rest)
    return rest


def _limits(V: MaxExp, n: int, g, q, rest):
    """(1 + m, lim) for the segments of a part on grid g: a segment is a
    candidate unless its bound max(q_left, q_right) * (exp(2 tau_right)
    (1 + m)) is below its row's lim.  lim is -inf, keeping every
    segment, where the bound is not derived.  The scalars are taken
    once per (V.spectrum, n, grid bytes) by _grid_constants.

    Derivation, with u = 2^-53, kappa = ||P||_F / lambda_min(P) and
    D = max(1, delay), for a segment from node a to node b of length L
    whose larger node form is q_max, and any computed root t in (0, L):
    - the computed slope moves the point a + t d off the chord by at
      most 2u |b - a| per component; on the chord x'Px <= q_max by
      convexity, so at the point x'Px <= q_max (1 + 8.1 u sqrt(kappa));
    - the coefficient forms (n^2 terms each) and the evaluation of the
      quadratic add at most 10.2 (n^2 + 5) u kappa q_max, and a computed
      node form is within (n^2 + 2) u kappa of the exact one;
    - the computed argument of the exponential exceeds 2 tau_right by at
      most 4.1 u D, and 16 ulps for each np.exp and one rounding for
      each product add 70 u.
    The sum is at most 13.5 (n^2 + 5) u kappa + 70 u + 4.1 u D.
    m = u (32 (n^2 + 5) kappa + 160 + 12 D) is about twice that, which
    also covers the second-order terms while (n^2 + 5) u kappa and
    12 u D are at most 1e-3; past that no segment is skipped.

    A result below the smallest normal number may be off by that number.
    With a row's node norms bounded by A^2 <= 2 Q / lambda_min, Q its
    largest node form, the floor _TINY (32 n^2 (1 + ||P||_F)
    (1 + L_max)^2 (1 + 1 / lambda_min) + 80)(1 + Q) covers those errors,
    and lim = (rest - floor)(1 - 4u).  A row keeps every segment where Q
    is not finite, where lim <= 0, or where Q > big, for then a slope
    form, up to 12 n^2 ||P||_F A^2 / min(1, L_min)^2, could overflow."""
    constants = _grid_constants(V.spectrum, n, g.tobytes())
    if constants is None:
        return 1.0, np.full(rest.shape, -np.inf)
    inflate, floor, big = constants
    Q = q.max(axis=-1)
    # (rest - floor)(1 - 4u) rounds to at most rest - floor
    lim = (rest - floor * (1.0 + Q)) * (1.0 - 4 * _U)
    return inflate, np.where((Q <= big) & (lim > 0.0), lim, -np.inf)


@lru_cache(maxsize=64)
def _grid_constants(spectrum: tuple, n: int, grid: bytes):
    """(1 + m, floor, big) of _limits, None where the bound is not
    derived; kept for the last 64 keys."""
    frobenius, lam = spectrum
    kappa = frobenius / lam if lam > 0.0 else np.inf
    g = np.frombuffer(grid)
    D = max(1.0, -float(g[0]))
    relative = (n * n + 5) * _U * kappa
    if not (relative <= 1e-3 and 12 * _U * D <= 1e-3):
        return None
    m = _U * (32 * (n * n + 5) * kappa + 160 + 12 * D)
    L = g[1:] - g[:-1]
    short, longest = min(1.0, float(L.min())), float(L.max())
    floor = _TINY * (32 * n * n * (1 + frobenius) * (1 + longest) ** 2
                     * (1 + 1 / lam) + 80)
    big = _HUGE / (64 * n * n * kappa) * short * short
    return 1.0 + m, floor, big


# ---------------------------------------------------------------------------
# derivatives

def driver_derivative_closed(V: Functional, phi: HistoryFunction, w) -> float:
    """The upper right-hand (Driver) derivative of V at phi along the
    extension with slope w, exact on piecewise-linear histories for every
    tree.

    The max-type term M = max over tau of f(tau) = exp(2 tau)
    phi(tau)' P phi(tau), with argmax set A, has
        D+M = -2 M + max over tau in A of d(tau), where
        d = 0 at a point or node inside (-delay, 0),
        d(-delay) = f'(-delay+) = exp(-2 delay) (2 u'Pu + 2 u'Ps), with
            u = phi(-delay) and s the slope of the first segment,
        d(0) = max(0, 2 M + 2 phi(0)' P w).
    Ties: a candidate whose f lies within 1e-9 |M| of M counts as a
    maximiser, so near-ties are active and the value is never below the
    exact one.  At zero delay the window is the node 0, M is the point
    term phi(0)' P phi(0), and its derivative is 2 phi(0)' P w.
    """
    return float(_closed(V, _one(phi), _slope_row(phi, w)[None])[0])


def _closed(V: Functional, batch: _Batch, w) -> np.ndarray:
    """Closed-form derivative of each history of the batch along its
    slope row of w (B, n)."""
    if isinstance(V, DelayedQuadratic):
        slope = w if V.at == 0.0 else batch.per_part(
            lambda p: _right_slope(p.grid, p.values, V.at))
        return 2.0 * _qform(batch.at(V.at), V.form, slope)
    if isinstance(V, IntegralQuadratic):
        x0, xd, wt = batch.x0, batch.xd, V.weight
        boundary = (float(wt.value(0.0)) * _qform(x0, V.form)
                    - float(wt.value(-batch.delay)) * _qform(xd, V.form))
        if wt.polynomial:
            return boundary
        return boundary - batch.per_part(partial(_integral, V.reads, wt,
                                                 wt.derivative))
    if isinstance(V, Scale):
        return V.k * _closed(V.inner, batch, w)
    if isinstance(V, Sum):
        return _closed(V.left, batch, w) + _closed(V.right, batch, w)
    if isinstance(V, MaxExp):
        point = 2.0 * _qform(batch.x0, V.form, w)
        if batch.delay == 0.0:
            return point
        return _maxexp_closed(V, batch, point)
    raise TypeError(f"not a functional term: {V!r}")


def _maxexp_closed(V: MaxExp, batch: _Batch, point) -> np.ndarray:
    """D+M of MaxExp(P) at a positive delay, by the rule and tie rule of
    driver_derivative_closed; `point` is 2 phi(0)' P w.  Each part gives
    f at -delay and at 0, phi(-delay) and its first segment's slope; the
    rule runs once on the whole batch."""
    M, f, rest = _maxexp(V, batch)
    parts = batch.parts
    f_start = _join([nodes[:, 0] for nodes in f])
    f_end = _join([nodes[:, -1] for nodes in f])
    slope = batch.per_part(lambda p: _right_slope(p.grid, p.values,
                                                  p.grid[0]))
    tie = M - 1e-9 * np.abs(M)
    # every part's window starts at -delay
    d_start = 2.0 * f_start + 2.0 * np.exp(2.0 * parts[0].grid[0]) * _qform(
        _join([p.values[:, 0] for p in parts]), V.form, slope)
    d = np.where(rest >= tie, 0.0, -np.inf)
    d = np.where(f_start >= tie, np.maximum(d, d_start), d)
    # rest includes the node 0, so d >= 0 already where f(0) ties
    d = np.where(f_end >= tie, np.maximum(d, 2.0 * M + point), d)
    return d - 2.0 * M


def _right_slope(grid, values, tau: float) -> np.ndarray:
    if grid.shape[0] < 2:
        return np.zeros((values.shape[0], values.shape[-1]))
    idx = int(np.searchsorted(grid, tau, side="right"))
    idx = min(max(idx, 1), grid.shape[0] - 1)
    return ((values[:, idx] - values[:, idx - 1])
            / (grid[idx] - grid[idx - 1]))


def driver_derivative_numeric(V: Functional, phi: HistoryFunction, w,
                              h_schedule) -> float:
    """max over the decreasing step schedule h_schedule of the quotient
    (V(driver_extension(phi, h, w)) - V(phi)) / h, approximating the
    upper limit from above: the cross-check of driver_derivative_closed,
    one eval_functional per step.  Its error grows with h, so the steps
    must be small."""
    if phi.delay <= 0:
        raise ValueError("numeric derivative needs a positive delay")
    hs = [float(h) for h in h_schedule]
    if not hs or any(h <= 0 or h >= phi.delay for h in hs):
        raise ValueError("step schedule must be positive and below the delay")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("step schedule must be decreasing")
    w = _slope_row(phi, w)
    if not np.all(np.isfinite(w)):
        raise ValueError("slope must be finite")
    base = eval_functional(V, phi)
    best = None
    for h in hs:
        q = (eval_functional(V, driver_extension(phi, h, w)) - base) / h
        # a later step wins only when larger, so a NaN never replaces best
        if best is None or q > best:
            best = q
    return best


def combine_W(V: Functional, eps: float, P) -> Functional:
    """V plus eps times the coercive max-type term."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return Sum(V, Scale(eps, MaxExp(P)))


# ---------------------------------------------------------------------------
# gains

@dataclass(frozen=True)
class PowerGain:
    """gamma(s) = coefficient * s ** exponent, a nondecreasing gain with
    gamma(0) = 0.  Power form keeps inverses exact."""

    coefficient: float
    exponent: float

    def __post_init__(self):
        if self.coefficient < 0:
            raise ValueError("gain coefficient must be >= 0")
        if self.coefficient > 0 and self.exponent <= 0:
            raise ValueError("gain exponent must be positive")

    def __call__(self, s):
        """gamma(s) of a scalar, or of each entry of an array."""
        if np.less(s, 0).any():
            raise ValueError("gains are defined for s >= 0")
        if self.coefficient == 0.0:
            return np.zeros_like(s) if isinstance(s, np.ndarray) else 0.0
        return self.coefficient * s ** self.exponent

    def inverse(self, y: float) -> float:
        if self.coefficient <= 0:
            raise ValueError("zero gain is not invertible")
        return (y / self.coefficient) ** (1.0 / self.exponent)


def square_gain(coefficient: float = 1.0) -> PowerGain:
    return PowerGain(coefficient, 2.0)


def zero_gain() -> PowerGain:
    return PowerGain(0.0, 1.0)
