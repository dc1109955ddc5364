import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from krasovskii import functionals, histories
from krasovskii.functionals import (
    ConstantWeight,
    DelayedQuadratic,
    ExponentialWeight,
    IntegralQuadratic,
    MaxExp,
    PointQuadratic,
    PowerGain,
    Scale,
    Sum,
    combine_W,
    driver_derivative_closed,
    driver_derivative_numeric,
    eval_functional,
    zero_gain,
)
from krasovskii.histories import (
    HistoryFunction,
    _Batch,
    _Part,
    constant_history,
    driver_extension,
    random_history,
    zero_history,
)
from krasovskii.systems import make_example1


def v0_max(P):
    """The coercive max-type functional as a plain callable.  Every call
    asserts the two-sided squeeze
    exp(-2 delay) p_m sup|phi|^2 <= value <= p_M sup|phi|^2."""
    term = MaxExp(P)
    eigs = np.linalg.eigvalsh(term.P)
    p_m, p_M = float(eigs[0]), float(eigs[-1])

    def evaluate(phi):
        val = eval_functional(term, phi)
        s2 = phi.sup_norm() ** 2
        slack = 1e-9 * (1.0 + abs(val) + s2)
        assert np.exp(-2.0 * phi.delay) * p_m * s2 <= val + slack
        assert val <= p_M * s2 + slack
        return val

    return evaluate


def hand_derivative(phi, v):
    # explicit expansion of the standard LKF's derivative along example1
    x = phi.eval(0.0)
    xd = phi.eval(-phi.delay)
    return (-x[0] ** 2 + 2.0 * x[0] * xd[1] - 4.0 * x[1] ** 2
            + 2.0 * x[1] * v + 2.0 * (x[1] ** 2 - xd[1] ** 2))


class TestEval:
    def test_zero_history_gives_zero(self, lkf):
        assert eval_functional(lkf, zero_history(1.0, 2)) == 0.0

    def test_standard_lkf_hand_integral(self, lkf):
        phi = constant_history(1.0, [1.0, 1.0])
        assert eval_functional(lkf, phi) == pytest.approx(4.0, abs=0)

    def test_maxexp_constant_peaks_at_zero(self):
        phi = constant_history(1.0, [0.6, -0.8])
        assert eval_functional(MaxExp(np.eye(2)), phi) == pytest.approx(1.0, rel=1e-15)

    def test_scale_and_sum(self, lkf):
        phi = constant_history(1.0, [1.0, 1.0])
        assert eval_functional(2.0 * lkf + lkf, phi) == pytest.approx(12.0)

    def test_integral_quadrature_exact_on_segments(self):
        # piecewise-linear phi_2 makes the integrand piecewise quadratic;
        # freeze against the antiderivative of (1 + tau)^2 on [-1, 0]
        phi = HistoryFunction(1.0, np.array([-1.0, 0.0]),
                              np.array([[0.0, 0.0], [0.0, 1.0]]))
        V = IntegralQuadratic(np.diag([0.0, 2.0]))
        assert eval_functional(V, phi) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_exponential_weight_against_quadrature_oracle(self):
        from scipy.integrate import quad

        phi = random_history(3, 2, 1.0, 1.0, 3)
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        V = IntegralQuadratic(Q, ExponentialWeight(1.5, -2.0))
        oracle, err = quad(
            lambda tau: 1.5 * np.exp(-2.0 * tau)
            * float(phi.eval(tau) @ Q @ phi.eval(tau)),
            -1.0, 0.0, limit=200)
        assert eval_functional(V, phi) == pytest.approx(oracle, abs=max(1e-10, 10 * err))

    def test_nonnegative_for_psd_terms(self, lkf):
        for i in range(30):
            phi = random_history((77, i), 2, 1.0, 2.0, i % 5)
            assert eval_functional(lkf, phi) >= 0.0

    def test_lag_beyond_the_window_raises(self):
        # the one range check is the read's, with the 1e-9 max(1, delay)
        # tolerance of the window
        phi = random_history(5, 2, 1.0, 1.0, 2)
        w = np.array([0.3, -0.2])
        for at in (-1.5, -1.0 - 2e-9):
            V = DelayedQuadratic(np.eye(2), at)
            with pytest.raises(ValueError, match="outside"):
                eval_functional(V, phi)
            with pytest.raises(ValueError, match="outside"):
                driver_derivative_closed(V, phi, w)
        edge = DelayedQuadratic(np.eye(2), -1.0 - 5e-10)
        assert eval_functional(edge, phi) == eval_functional(
            DelayedQuadratic(np.eye(2), -1.0), phi)


def positive_definite_reference(P) -> bool:
    """The CLI's constants.P rule before the package had one intake."""
    try:
        return np.min(np.linalg.eigvalsh(functionals._symmetric(P))) > 0
    except ValueError:  # not square or not symmetric
        return False


@st.composite
def intake_cases(draw):
    """Square matrices B B' + shift I, near singular for small shifts and
    rank-deficient B, or indefinite for negative ones, with one
    off-diagonal entry moved by a multiple of _symmetric's atol; and the
    odd non-square one."""
    n = draw(st.integers(1, 3))
    if draw(st.integers(0, 19)) == 0:
        return np.ones((n, n + 1))
    entries = st.floats(-10.0, 10.0, allow_nan=False)
    B = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    rank = draw(st.integers(0, n))
    B[:, rank:] = 0.0
    shift = draw(st.sampled_from([0.0, 1e-300, 1e-16, 1e-12, 1e-3, 1.0, -1e-16, -1.0]))
    P = B @ B.T + shift * np.eye(n)
    if n > 1:
        atol = 1e-12 * (1.0 + np.abs(P).max())
        P[0, 1] += draw(st.sampled_from([0.0, 0.5, 0.999, 1.001, 2.0, 1e5])) * atol
    return P


# entries at the edges of the float range and of the symmetry test
SYMMETRY_EDGES = (0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e308,
                  -1e308, 2.0 ** -1074, -(2.0 ** -1074), 2.0 ** -1022)


@st.composite
def symmetry_cases(draw):
    """1x1 to 3x3 matrices of edge or arbitrary entries; half of them
    mirrored to exact symmetry, then one entry moved by a multiple of
    _symmetric's atol."""
    n = draw(st.integers(1, 3))
    entry = st.sampled_from(SYMMETRY_EDGES) | st.floats()
    Q = np.array(draw(st.lists(entry, min_size=n * n,
                               max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        Q = np.where(np.tri(n, dtype=bool), Q, Q.T)
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        with np.errstate(all="ignore"):
            atol = 1e-12 * (1.0 + np.abs(Q).max())
            Q[i, j] += draw(st.sampled_from([0.0, 0.5, 1.0, 1.001, 1e5])) * atol
    return Q


class TestPositiveDefiniteIntake:
    """One function decides positive definiteness for every P: the terms,
    the margins, the growth checks and the CLI's constants.P."""

    INDEFINITE = [[1.0, 2.0], [2.0, 1.0]]

    @settings(max_examples=300, deadline=None)
    @given(P=intake_cases())
    @example(P=np.array([[2.0, 1.0 + 2e-12], [1.0, 2.0]]))
    @example(P=np.array([[1.0, 1.0], [1.0, 1.0]]))
    @example(P=np.array([[1e-300, 0.0], [0.0, 1.0]]))
    def test_accepts_what_the_three_rules_accepted(self, P):
        accepted = positive_definite_reference(P)
        try:
            Q, eigs = functionals._positive_definite(P)
        except ValueError:
            assert not accepted
            with pytest.raises(ValueError):
                MaxExp(P)
            return
        assert accepted
        S = functionals._symmetric(P)
        assert Q.tobytes() == S.tobytes()
        assert eigs.tobytes() == np.linalg.eigvalsh(S).tobytes()
        assert MaxExp(P).P.tobytes() == S.tobytes()

    def test_indefinite_P_is_rejected_by_the_max_type_term(self):
        with pytest.raises(ValueError, match="matrix must be positive definite"):
            MaxExp(self.INDEFINITE)

    @settings(max_examples=500, deadline=None)
    @given(Q=symmetry_cases())
    @example(Q=np.array([[1.0, np.inf], [np.inf, 1.0]]))
    @example(Q=np.array([[1.0, np.nan], [np.nan, 1.0]]))
    @example(Q=np.array([[1.0, np.inf], [1e308, 1.0]]))
    @example(Q=np.array([[0.0, -0.0], [0.0, 2.0 ** -1074]]))
    def test_symmetry_decisions_are_np_allclose(self, Q):
        # the reference: np.allclose with no relative tolerance, which
        # warns of a non-finite atol
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            close = np.allclose(Q, Q.T, rtol=0.0,
                                atol=1e-12 * (1.0 + np.abs(Q).max()))
        try:
            with np.errstate(all="ignore"):
                S = functionals._symmetric(Q)
        except ValueError:
            assert not close
            return
        assert close
        with np.errstate(all="ignore"):
            assert S.tobytes() == (0.5 * (Q + Q.T)).tobytes()

    def test_symmetry_has_no_relative_tolerance(self):
        # atol is 1e-12 (1 + max|Q|) = 3e-12 here; np.allclose's default
        # rtol of 1e-5 would let an asymmetry of 9e-6 be averaged away
        with pytest.raises(ValueError, match="symmetric"):
            functionals._symmetric([[2.0, 1.000009], [1.0, 2.0]])
        Q = functionals._symmetric([[2.0, 1.0 + 2e-12], [1.0, 2.0]])
        assert Q[0, 1] == Q[1, 0] == 0.5 * ((1.0 + 2e-12) + 1.0)


class TestKernelMemos:
    """The P intake and the max-type kernel's grid constants are each
    kept in a bounded memo keyed on bytes, never on the caller's array:
    results are read-only, a P mutated in place is decided afresh, and a
    P that raised raises on every call."""

    def test_intake_results_are_read_only(self):
        Q, eigs = functionals._positive_definite(np.diag([2.0, 3.0]))
        for array in (Q, eigs):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_a_mutated_P_is_decided_afresh(self):
        P = np.eye(2)
        assert functionals._positive_definite(P)[1].tolist() == [1.0, 1.0]
        P[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            functionals._positive_definite(P)
        P[1, 0] = 0.5
        Q, eigs = functionals._positive_definite(P)
        assert Q.tobytes() == functionals._symmetric(P).tobytes()
        assert eigs.tolist() == [0.5, 1.5]
        P[:] = TestPositiveDefiniteIntake.INDEFINITE
        with pytest.raises(ValueError, match="positive definite"):
            functionals._positive_definite(P)

    @pytest.mark.parametrize("P, match", [
        ([[1.0, 0.5], [0.0, 1.0]], "symmetric"),
        (TestPositiveDefiniteIntake.INDEFINITE, "positive definite"),
        ([[1.0, 0.0], [0.0, 0.0]], "positive definite")])
    def test_a_bad_P_raises_on_every_call(self, P, match):
        kept = functionals._positive_definite_of.cache_info().currsize
        for _ in range(3):
            with pytest.raises(ValueError, match=match):
                functionals._positive_definite(P)
            with pytest.raises(ValueError, match=match):
                MaxExp(P)
        assert functionals._positive_definite_of.cache_info().currsize == kept

    def test_memos_are_bounded(self):
        for k in range(200):
            P = np.diag([1.0 + k, 2.0])
            functionals._positive_definite(P)
            V = MaxExp(P)
            g = np.linspace(-1.0 - k, 0.0, 5)
            q = np.ones((1, 5))
            functionals._limits(V, 2, g, q, np.full(1, 2.0))
        for memo in (functionals._positive_definite_of,
                     functionals._grid_constants):
            info = memo.cache_info()
            assert info.maxsize is not None and info.maxsize <= 64
            assert info.currsize <= info.maxsize

    def test_a_grid_of_the_same_bytes_gets_the_same_constants(self):
        V = MaxExp(np.array([[2.0, 0.3], [0.3, 1.0]]))
        g = np.array([-1.0, -0.6, -0.25, 0.0])
        q = np.array([[1.0, 4.0, 2.0, 3.0], [np.inf, 1.0, 1.0, 1.0]])
        rest = np.array([5.0, 1.0])
        first = functionals._limits(V, 2, g, q, rest)
        hits = functionals._grid_constants.cache_info().hits
        again = functionals._limits(V, 2, g.copy(), q, rest)
        assert functionals._grid_constants.cache_info().hits == hits + 1
        assert first[0] == again[0] and first[1].tobytes() == again[1].tobytes()
        # the kept constants are the ones taken afresh
        fresh = functionals._grid_constants.__wrapped__(V.spectrum, 2,
                                                         g.tobytes())
        assert functionals._grid_constants(V.spectrum, 2, g.tobytes()) == fresh


class TestMaxExpExactness:
    def test_maxexp_needs_pd(self):
        with pytest.raises(ValueError):
            MaxExp(np.diag([1.0, 0.0]))

    def test_matches_dense_sampling(self):
        P = np.array([[2.0, 0.3], [0.3, 1.0]])
        for i in range(25):
            phi = random_history((5, i), 2, 1.5, 2.0, i % 6)
            exact = eval_functional(MaxExp(P), phi)
            # kinked peaks sit at history nodes, so the oracle grid must
            # contain them
            dense = np.union1d(np.linspace(-1.5, 0.0, 20001), phi.grid)
            vals = phi.eval(dense)
            brute = np.max(np.exp(2.0 * dense)
                           * np.einsum("ij,jk,ik->i", vals, P, vals))
            assert exact >= brute - 1e-12
            assert exact <= brute + 1e-6 * (1.0 + brute)

    def test_analytic_interior_maximum(self):
        # scalar phi(tau) = exp(-2 tau): the max of exp(2 tau) phi^2 sits
        # at -delay with value exp(2 delay)
        delay = 1.0
        grid = np.linspace(-delay, 0.0, 201)
        phi = HistoryFunction(delay, grid, np.exp(-2.0 * grid)[:, None])
        val = v0_max(np.eye(1))(phi)
        assert val == pytest.approx(np.exp(2.0 * delay), rel=1e-3)

    def test_squeeze_between_norm_bounds(self):
        P = np.array([[1.0, 0.2], [0.2, 3.0]])
        p = np.linalg.eigvalsh(P)
        v0 = v0_max(P)
        for i in range(50):
            phi = random_history((6, i), 2, 1.0, (0.1, 1.0, 10.0)[i % 3], i % 5)
            s2 = phi.sup_norm() ** 2
            val = v0(phi)
            assert np.exp(-2.0) * p[0] * s2 <= val + 1e-9 * (1 + s2)
            assert val <= p[-1] * s2 + 1e-9 * (1 + s2)


class TestClosedDerivative:
    def test_point_quadratic_at_origin(self):
        phi = zero_history(1.0, 2)
        assert driver_derivative_closed(PointQuadratic(np.eye(2)), phi,
                                        np.array([3.0, -1.0])) == 0.0

    def test_boundary_terms_cancel_for_constant_history(self):
        V = IntegralQuadratic(np.diag([0.0, 1.0]), ConstantWeight(2.0))
        phi = constant_history(1.0, [0.0, 1.0])
        assert driver_derivative_closed(V, phi, np.zeros(2)) == pytest.approx(0.0, abs=0)

    def test_standard_lkf_matches_hand_expansion(self, lkf):
        sys = make_example1(1.0)
        for i in range(50):
            phi = random_history((8, i), 2, 1.0, 1.5, i % 4)
            v = np.array([0.3 * i - 2.0])
            w = sys.field(phi, v)
            assert driver_derivative_closed(lkf, phi, w) == pytest.approx(
                hand_derivative(phi, v[0]), rel=1e-12, abs=1e-12)

    def test_delayed_quadratic_right_slope(self):
        grid = np.array([-1.0, -0.5, 0.0])
        vals = np.array([[1.0], [2.0], [0.0]])
        phi = HistoryFunction(1.0, grid, vals)
        V = DelayedQuadratic(np.eye(1), -0.5)
        # right slope at -0.5 is (0 - 2)/0.5 = -4; derivative 2*2*(-4)
        assert driver_derivative_closed(V, phi, np.zeros(1)) == pytest.approx(-16.0)

    def test_delayed_at_zero_equals_point_term(self):
        phi = random_history(12, 2, 1.0, 1.0, 2)
        w = np.array([1.0, 2.0])
        Q = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert (driver_derivative_closed(DelayedQuadratic(Q, 0.0), phi, w)
                == driver_derivative_closed(PointQuadratic(Q), phi, w))

    def test_exponential_weight_matches_numeric(self):
        V = IntegralQuadratic(np.eye(2), ExponentialWeight(1.0, 1.3))
        phi = random_history(14, 2, 1.0, 1.0, 2)
        w = np.array([0.5, -0.2])
        closed = driver_derivative_closed(V, phi, w)
        numeric = driver_derivative_numeric(V, phi, w, (1e-5, 1e-6))
        assert closed == pytest.approx(numeric, abs=1e-3)



def random_spd(rng, n=2):
    A = rng.standard_normal((n, n))
    return A @ A.T + 0.5 * np.eye(n)


class TestMaxExpDerivative:
    @settings(max_examples=200)
    @given(seed=st.integers(0, 2 ** 32 - 1), modes=st.integers(0, 8),
           scale=st.floats(0.01, 10.0), w_scale=st.floats(0.01, 1e3),
           tilt=st.floats(0.0, 3.0),
           delay=st.sampled_from([1.0]) | st.floats(0.1, 3.0))
    @example(seed=0, modes=2, scale=10.0, w_scale=1e3, tilt=0.0, delay=1.0)
    def test_matches_the_quotient(self, seed, modes, scale, w_scale, tilt,
                                  delay):
        rng = np.random.default_rng(seed)
        P = random_spd(rng)
        phi = random_history((seed, 1), 2, delay, scale, modes)
        # nodes weighted by exp(-tilt (tau + delay)): a larger tilt moves
        # the maximum towards -delay, so every branch of the rule is hit
        phi = HistoryFunction(delay, phi.grid, phi.values * np.exp(
            -tilt * (phi.grid + delay))[:, None])
        w = w_scale * rng.standard_normal(2)
        M, (f,), rest = functionals._maxexp(
            MaxExp(P), _Batch([_Part(delay, phi.grid, phi.values[None])]))
        M, f_start, f_end, rest = M[0], f[0, 0], f[0, -1], rest[0]
        # away from ties: f(-delay) apart from the maximum over the rest
        # of the window, and f(0) either that maximum or apart from it
        # (the rest includes the node 0)
        assume(abs(f_start - rest) > 1e-6 * M)
        assume(not 0.0 < rest - f_end <= 1e-6 * M)
        term = MaxExp(P)
        h = 1e-8 * delay
        closed = driver_derivative_closed(term, phi, w)
        quotient = driver_derivative_numeric(term, phi, w, (h,))
        # the quotient's error: h w'Pw from the extension's curvature,
        # rounding of order 1e-16 M / h
        tol = 1e-6 * (1.0 + abs(quotient) + M) + 2.0 * h * float(w @ P @ w)
        assert abs(closed - quotient) <= tol

    def test_maximum_at_minus_delay_alone(self):
        # phi falls from 3 to -0.5 on [-1, 0]: exp(2 tau) phi^2 peaks at
        # -1 alone, where f' = e^{-2} (2*9 + 2*3*(-3.5)) = -3 e^{-2}, so
        # D+M = -2 M + f'(-1+) = -21 e^{-2}
        phi = HistoryFunction(1.0, np.array([-1.0, 0.0]),
                              np.array([[3.0], [-0.5]]))
        w = np.array([5.0])
        closed = driver_derivative_closed(MaxExp(np.eye(1)), phi, w)
        assert closed == pytest.approx(-21.0 * np.exp(-2.0), rel=1e-14)
        quotient = driver_derivative_numeric(MaxExp(np.eye(1)), phi, w,
                                             (1e-8,))
        assert quotient == pytest.approx(closed, rel=1e-6)

    def test_zero_delay_is_the_point_term(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3):
            P = random_spd(rng, n)
            values = rng.standard_normal((7, 1, n))
            w = rng.standard_normal((7, n))
            batch = _Batch([_Part(0.0, np.zeros(1), values)])
            assert np.array_equal(
                functionals._closed(MaxExp(P), batch, w),
                functionals._closed(PointQuadratic(P), batch, w))


# ---------------------------------------------------------------------------
# the max-type kernel against its reference

def qform_reference(a, Q, b=None):
    """a' Q b along the last axis: the terms (a_i Q_ij) b_j summed in the
    order of (i, j), skipping zero entries of Q."""
    b = a if b is None else b
    total = None
    for (i, j), q in np.ndenumerate(Q):
        if q != 0.0:
            term = a[..., i] * q * b[..., j]
            total = term if total is None else total + term
    return np.zeros(a.shape[:-1]) if total is None else total


def xQy_reference(x, Q, y):
    """x' Q y of each pair of rows in Python floats: the terms
    (x[i] * Q[i][j]) * y[j] over the nonzero entries of Q in the order of
    (i, j), 0.0 when Q has none."""
    Q = np.asarray(Q, dtype=float).tolist()
    out = []
    for xr, yr in zip(np.asarray(x, dtype=float).tolist(),
                      np.asarray(y, dtype=float).tolist()):
        total = None
        for i, row in enumerate(Q):
            for j, q in enumerate(row):
                if q != 0.0:
                    term = (xr[i] * q) * yr[j]
                    total = term if total is None else total + term
        out.append(0.0 if total is None else total)
    return np.array(out)


@st.composite
def form_cases(draw):
    """(Q, a, b): an n x n matrix, n = 1..4, not symmetric, with zero,
    -0.0 and unit entries 1.0 and -1.0, and (B, n) rows of ordinary,
    huge, signed-zero and infinite entries, in half the draws also NaN."""
    n, batch = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    zero = st.sampled_from([0.0, -0.0])
    unit = st.sampled_from([1.0, -1.0])
    Q = np.array(draw(st.lists(zero | unit | st.floats(-1e3, 1e3),
                               min_size=n * n, max_size=n * n))).reshape(n, n)
    special = [np.inf, -np.inf] + [np.nan] * draw(st.booleans())
    entry = (zero | st.sampled_from(special)
             | st.floats(-1e10, 1e10) | st.floats(-1e160, 1e160))
    a, b = (np.array(draw(st.lists(entry, min_size=batch * n,
                                   max_size=batch * n))).reshape(batch, n)
            for _ in range(2))
    return Q, a, b


def value_bits(x) -> bytes:
    """The bytes of x with every NaN made one NaN: where an input holds a
    NaN, IEEE 754 leaves which NaN a result carries open, and NumPy's
    loops and Python's floats differ in it; every other value keeps its
    bits."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).tobytes()


def exact_bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestFormRule:
    """functionals._qform is the package's one form: (a_i Q_ij) b_j over
    the nonzero entries of Q in (i, j) order, whatever batch holds a row.
    An entry of 1.0 may skip its product; -1.0 may not be read as 1.0."""

    @settings(max_examples=300)
    @given(form_cases(), st.data())
    def test_is_the_float_loop_in_any_batch(self, case, data):
        Q, a, b = case
        form = functionals._form(Q)
        split = data.draw(st.integers(0, a.shape[0]))
        # NaNs made from non-NaN inputs (inf - inf, 0 * inf) are compared
        # bit for bit; only rows drawn with a NaN compare any NaN as one
        bits = (value_bits if np.isnan(a).any() or np.isnan(b).any()
                else exact_bits)
        with np.errstate(over="ignore", invalid="ignore"):
            for y in (b, a):
                expected = bits(xQy_reference(a, Q, y))
                assert bits(functionals._qform(a, form, y)) == expected
                parts = [functionals._qform(a[:split], form, y[:split]),
                         functionals._qform(a[split:], form, y[split:])]
                assert bits(np.concatenate(parts)) == expected
                for k in range(a.shape[0]):
                    row = functionals._qform(a[k], form, y[k])
                    assert bits(row) == expected[8 * k:8 * k + 8]
            assert (bits(functionals._qform(a, form))
                    == bits(xQy_reference(a, Q, a)))


def maxexp_reference(P, grid, values):
    """(M, f, rest) of the max-type term with every segment solved: the
    unpruned kernel, which the pruned one must match bit for bit."""
    g = grid
    f = np.exp(2.0 * g) * qform_reference(values, P)
    rest = np.max(f[:, 1:], axis=-1, initial=-np.inf)
    L = np.diff(g)
    u = values[:, :-1]
    d = (values[:, 1:] - u) / L[:, None]
    alpha = qform_reference(d, P)
    beta = 2.0 * qform_reference(u, P, d)
    gam = qform_reference(u, P)
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
            val = np.exp(2.0 * (g[:-1] + t)) * (alpha * t * t + beta * t + gam)
            peak = np.max(np.where(ok, val, -np.inf), axis=-1)
            rest = np.where(peak > rest, peak, rest)
    return np.maximum(f[:, 0], rest), f, rest


def maxexp_closed_reference(P, batch, w):
    """D+ of the max-type term by the argmax and tie rule, on the
    reference kernel."""
    point = 2.0 * xQy_reference(batch.x0, P, w)
    (part,) = batch
    grid, values = part.grid, part.values
    if grid.shape[0] < 2:
        return point
    M, f, rest = maxexp_reference(P, grid, values)
    tie = M - 1e-9 * np.abs(M)
    d_start = 2.0 * f[:, 0] + 2.0 * np.exp(2.0 * grid[0]) * qform_reference(
        values[:, 0], P, functionals._right_slope(grid, values, grid[0]))
    d = np.where(rest >= tie, 0.0, -np.inf)
    d = np.where(f[:, 0] >= tie, np.maximum(d, d_start), d)
    d = np.where(f[:, -1] >= tie, np.maximum(d, 2.0 * M + point), d)
    return d - 2.0 * M


def spd_with_condition(rng, n, log_cond, log_scale):
    """A random symmetric positive definite n x n matrix whose
    eigenvalues run from 10^log_scale to 10^(log_scale + log_cond)."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = 10.0 ** (log_scale + np.linspace(0.0, log_cond, n))
    return (basis * eigs) @ basis.T


def tied_peaks(grid, P, node_gap):
    """A history whose f = exp(2 tau) phi' P phi has the same interior
    peak, in exact arithmetic, on the first segment and on the last,
    where phi is the first segment's phi shifted by Delta and scaled by
    exp(-Delta); and a node between them whose f is the peak times
    (1 + node_gap), when node_gap is not None.  The grid is uniform."""
    n = P.shape[0]
    v = np.ones(n) / np.sqrt(n)
    h = grid[1] - grid[0]
    # x falls from 1 + h/2 to 1 - h/2 on a segment of length h: the
    # peak exp(h) exceeds both ends' values by about h^2 / 4
    x = np.zeros(grid.shape[0])
    k = grid.shape[0] - 2
    shift = np.exp(-(grid[k] - grid[0]))
    x[0], x[1] = 1.0 + h / 2, 1.0 - h / 2
    x[k], x[k + 1] = shift * x[0], shift * x[1]
    if node_gap is not None:
        peak = np.exp(2.0 * grid[0] + h)
        x[3] = np.sqrt(peak * (1.0 + node_gap) / np.exp(2.0 * grid[3]))
    return x[:, None] * v


class TestPrunedMaxExp:
    """The pruned max-type kernel returns the bits of solving every
    segment: M, f and rest, and the closed-form derivative that reads
    them."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4),
           log_cond=st.floats(0.0, 8.0), log_scale=st.floats(-2.0, 2.0),
           delay=st.sampled_from([0.0, 0.2, 1.0, 3.0, 400.0]),
           modes=st.integers(0, 8), count=st.integers(1, 12),
           scales=st.tuples(st.floats(-150.0, 160.0), st.floats(-150.0, 160.0)),
           tilt=st.floats(0.0, 3.0),
           bad=st.sampled_from([None, np.inf, -np.inf, np.nan]),
           tie=st.sampled_from([None, "peaks", 0.0, 1e-12, -1e-12]))
    @example(seed=1, n=2, log_cond=0.0, log_scale=0.0, delay=1.0, modes=2,
             count=3, scales=(0.0, 0.0), tilt=0.0, bad=None, tie="peaks")
    @example(seed=2, n=2, log_cond=4.0, log_scale=1.0, delay=3.0, modes=1,
             count=2, scales=(-150.0, 160.0), tilt=0.0, bad=None, tie=1e-12)
    @example(seed=3, n=3, log_cond=8.0, log_scale=0.0, delay=0.2, modes=8,
             count=4, scales=(0.0, 0.0), tilt=0.0, bad=np.nan, tie=0.0)
    @example(seed=4, n=1, log_cond=0.0, log_scale=0.0, delay=3.0, modes=1,
             count=2, scales=(100.0, -100.0), tilt=0.0, bad=None, tie=-1e-12)
    @example(seed=6, n=2, log_cond=2.0, log_scale=0.0, delay=400.0, modes=8,
             count=5, scales=(-150.0, 0.0), tilt=0.0, bad=None, tie=None)
    # segments of length 0.2 / 64, whose peaks top their bound's nodes
    # by about 2.4e-6 and the node between them by 1e-12
    @example(seed=7, n=2, log_cond=1.0, log_scale=0.0, delay=0.2, modes=8,
             count=3, scales=(0.0, 0.0), tilt=0.0, bad=None, tie=-1e-12)
    # a condition number past the margin's range: no segment is pruned
    @example(seed=5, n=4, log_cond=13.0, log_scale=0.0, delay=1.0, modes=8,
             count=6, scales=(-5.0, 5.0), tilt=1.0, bad=None, tie=None)
    def test_bits_of_the_unpruned_kernel(self, seed, n, log_cond, log_scale,
                                         delay, modes, count, scales, tilt,
                                         bad, tie):
        rng = np.random.default_rng(seed)
        V = MaxExp(spd_with_condition(rng, n, log_cond, log_scale))
        grid = random_history((seed, 0), n, delay, 1.0, modes).grid
        values = np.stack([random_history((seed, i), n, delay, 1.0,
                                          modes).values
                           for i in range(count)])
        # nodes weighted by exp(-tilt (tau + delay)), as in
        # TestMaxExpDerivative, and each history scaled by its own power
        # of ten between the two drawn
        values = values * np.exp(-tilt * (grid + delay))[:, None]
        values *= 10.0 ** rng.uniform(min(scales), max(scales),
                                      count)[:, None, None]
        # (at delay 400 the tied peaks underflow to 0)
        if tie is not None and grid.shape[0] >= 8 and delay <= 3.0:
            values[0] = 10.0 ** scales[0] * tied_peaks(
                grid, V.P, None if tie == "peaks" else tie)
        if bad is not None:
            for _ in range(rng.integers(1, 3)):
                values[rng.integers(count), rng.integers(grid.shape[0]),
                       rng.integers(n)] = bad
        w = 10.0 ** rng.uniform(-2.0, 3.0) * rng.standard_normal((count, n))
        with np.errstate(all="ignore"):
            M, (f,), rest = functionals._maxexp(
                V, _Batch([_Part(delay, grid, values)]))
            got = M, f, rest
            ref = maxexp_reference(V.P, grid, values)
            for a, b in zip(got, ref):
                assert a.tobytes() == b.tobytes()
            batch = _Batch([_Part(delay, grid, values)])
            assert (functionals._closed(V, batch, w).tobytes()
                    == maxexp_closed_reference(V.P, batch, w).tobytes())


def term_kinds(delay):
    P = np.array([[2.0, 0.3], [0.3, 1.0]])
    return {
        "point": PointQuadratic(P),
        "delayed": DelayedQuadratic(P, -0.3 * delay),
        "integral-constant": IntegralQuadratic(P, ConstantWeight(2.0)),
        "integral-exponential": IntegralQuadratic(
            P, ExponentialWeight(1.5, 0.7)),
        "max": MaxExp(P),
        "tree": Sum(Scale(0.5, PointQuadratic(P)), IntegralQuadratic(P))
        + Scale(2.0, MaxExp(P)),
    }


class TestHomogeneity:
    # k is a power of two, so scaling a history by k scales every
    # product and sum by k^2 exactly: the identities hold bit for bit
    @pytest.mark.parametrize("kind", sorted(term_kinds(1.0)))
    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), modes=st.integers(0, 8),
           scale=st.floats(0.01, 10.0), j=st.integers(-10, 10),
           delay=st.sampled_from([0.0, 0.2, 1.0]) | st.floats(0.05, 5.0))
    def test_quadratic_in_the_history(self, kind, seed, modes, scale, j,
                                      delay):
        V = term_kinds(delay)[kind]
        k = 2.0 ** j
        phi = random_history((seed, 1), 2, delay, scale, modes)
        w = scale * np.random.default_rng(seed).standard_normal(2)
        scaled = HistoryFunction(delay, phi.grid, k * phi.values)
        assert eval_functional(V, scaled) == k * k * eval_functional(V, phi)
        assert (driver_derivative_closed(V, scaled, k * w)
                == k * k * driver_derivative_closed(V, phi, w))


class TestNumericDerivative:
    def test_quadratic_first_order(self):
        x0 = np.array([1.0, -0.5])
        w = np.array([0.4, 0.9])
        phi = constant_history(1.0, x0)
        V = PointQuadratic(np.eye(2))
        for h in (1e-2, 1e-3, 1e-4):
            quotient = driver_derivative_numeric(V, phi, w, (h,))
            assert abs(quotient - 2.0 * x0 @ w) <= (w @ w) * h * 1.01

    def test_agrees_with_closed_to_first_order(self, lkf):
        for i in range(40):
            phi = random_history((16, i), 2, 1.0, 1.0, i % 3)
            w = np.random.default_rng((16, i, 1)).standard_normal(2)
            closed = driver_derivative_closed(lkf, phi, w)
            for h in (1e-3, 1e-4):
                quotient = driver_derivative_numeric(lkf, phi, w, (h,))
                # curvature constant: |w|^2 + boundary slope effects
                slope = np.max(np.abs(np.diff(phi.values, axis=0)
                                      / np.diff(phi.grid)[:, None]))
                bound = (w @ w + 2.0 * abs(w[1]) + 2.0 * slope + 1.0) * h * 2.0
                assert abs(quotient - closed) <= bound

    def test_maxexp_strict_branch_decays(self):
        # interior maximiser well above the endpoint value
        delay = 1.0
        grid = np.linspace(-delay, 0.0, 41)
        bump = 2.0 * np.exp(-20.0 * (grid + 0.5) ** 2) + 0.1
        phi = HistoryFunction(delay, grid, bump[:, None])
        P = np.eye(1)
        v0 = eval_functional(MaxExp(P), phi)
        assert v0 > float(phi.eval(0.0)[0] ** 2) * (1.0 + 1e-6)
        # the quotient carries a systematic +2 h v0 offset, so branch
        # inequalities are probed with a fine schedule
        quotient = driver_derivative_numeric(MaxExp(P), phi, np.zeros(1),
                                             (1e-4, 1e-5, 1e-6))
        assert quotient <= -2.0 * v0 + 1e-3 * (1.0 + abs(v0))

    def test_schedule_validation(self):
        phi = constant_history(1.0, [1.0])
        V = PointQuadratic(np.eye(1))
        with pytest.raises(ValueError):
            driver_derivative_numeric(V, phi, np.ones(1), (1e-3, 1e-2))
        with pytest.raises(ValueError):
            driver_derivative_numeric(V, phi, np.ones(1), (2.0,))


def extend_on_grid_reference(delay, grid, values, h, w):
    """The extension by the step h of each history of `values`
    (..., len(grid), n) on the shared `grid`, with its slope row of w
    (..., n): the batch kernel the package once kept beside
    driver_extension, as a reference."""
    tol = histories._DEDUPE_REL * max(1.0, delay)
    shifted = grid - h
    keep = (shifted > -delay + tol) & (shifted < -h - tol)
    head = histories._eval_on_grid(delay, grid, values, np.array([-delay + h]))
    last = values[..., -1:, :]
    new_grid = np.concatenate(([-delay], shifted[keep], [-h, 0.0]))
    new_values = np.concatenate(
        [head, values[..., keep, :], last, last + h * w[..., None, :]], axis=-2)
    return new_grid, new_values


def numeric_reference(V, batch, w, hs):
    """The extension quotient of each history of the batch along its
    slope row of w (B, n), maximised over the steps hs: the batch kernel
    driver_derivative_numeric once called, as a reference."""
    base = functionals._values(V, batch)
    best = None
    for h in hs:
        (part,) = batch
        extended = _Batch([_Part(batch.delay, *extend_on_grid_reference(
            batch.delay, part.grid, part.values, h, w))])
        q = (functionals._values(V, extended) - base) / h
        best = q if best is None else np.where(q > best, q, best)
    return best


def quotient_terms(delay):
    P = np.array([[2.0, 0.3], [0.3, 1.0]])
    point = PointQuadratic(P)
    return {
        "point-and-integral": point + IntegralQuadratic(P, ConstantWeight(2.0)),
        "delayed": DelayedQuadratic(P, -0.3 * delay),
        "integral-exponential": IntegralQuadratic(P, ExponentialWeight(1.5, 0.7)),
        "max": MaxExp(np.array([[1.0, 0.4], [0.4, 0.5]])),
        "combined": combine_W(point, 0.25, P),
    }


# step fractions of the delay, among them multiples of the grid spacing
# of 2 and 8 modes, where a shifted node falls on -h and is dropped
STEP_FRACTIONS = (st.sampled_from([0.5, 0.25, 0.125, 1 / 16, 1 / 64, 0.9])
                  | st.floats(1e-6, 0.99))


class TestOneExtensionRule:
    """driver_extension and driver_derivative_numeric, one history and
    one step at a time, give the bits of the batch kernels they replace."""

    @pytest.mark.parametrize("kind", sorted(quotient_terms(1.0)))
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), modes=st.sampled_from([0, 2, 8]),
           norm=st.sampled_from([0.01, 1.0, 10.0]),
           delay=st.sampled_from([0.2, 1.0]),
           fractions=st.lists(STEP_FRACTIONS, min_size=1, max_size=3,
                              unique=True))
    def test_quotient_and_extension_are_the_batch_kernels(
            self, kind, seed, modes, norm, delay, fractions):
        hs = tuple(sorted((f * delay for f in fractions), reverse=True))
        assume(all(b < a for a, b in zip(hs, hs[1:])))
        V = quotient_terms(delay)[kind]
        phi = random_history((seed, 2), 2, delay, norm, modes)
        w = norm * np.random.default_rng(seed).standard_normal(2)
        quotient = driver_derivative_numeric(V, phi, w, hs)
        reference = numeric_reference(V, functionals._one(phi), w[None], hs)
        assert np.float64(quotient).tobytes() == reference.tobytes()
        for h in hs:
            ext = driver_extension(phi, h, w)
            grid, values = extend_on_grid_reference(delay, phi.grid,
                                                    phi.values, h, w)
            assert ext.grid.tobytes() == grid.tobytes()
            assert ext.values.tobytes() == values.tobytes()

    def test_overflowing_extension_raises(self):
        # the extension's last node, 1e308 + 0.9 * 1e308, overflows: the
        # batch kernel's quotient was nan, the public extension raises
        phi = constant_history(1.0, [1e308])
        w = np.array([1e308])
        V = PointQuadratic(np.eye(1))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(numeric_reference(V, functionals._one(phi),
                                              w[None], (0.9,))[0])
            with pytest.raises(ValueError, match="values must be finite"):
                driver_extension(phi, 0.9, w)
            with pytest.raises(ValueError, match="values must be finite"):
                driver_derivative_numeric(V, phi, w, (0.9,))


class TestCombined:
    def test_combine_value_identity(self, lkf):
        P = np.array([[1.5, 0.0], [0.0, 1.0]])
        W = combine_W(lkf, 0.25, P)
        v0 = v0_max(P)
        for i in range(20):
            phi = random_history((18, i), 2, 1.0, 1.0, i % 3)
            assert eval_functional(W, phi) == pytest.approx(
                eval_functional(lkf, phi) + 0.25 * v0(phi), rel=1e-12)

    def test_combined_squeeze(self, lkf):
        # standard LKF obeys V <= (1 + 2 delay) sup^2; the combination
        # is squeezed between eps e^{-2D} p_m and (a_upper + eps p_M)
        eps, delay = 0.3, 1.0
        P = np.eye(2)
        W = combine_W(lkf, eps, P)
        for i in range(40):
            phi = random_history((19, i), 2, delay, (0.1, 1.0, 10.0)[i % 3], i % 4)
            s2 = phi.sup_norm() ** 2
            val = eval_functional(W, phi)
            assert eps * np.exp(-2.0 * delay) * s2 <= val + 1e-9 * (1 + s2)
            assert val <= (3.0 + eps) * s2 + 1e-9 * (1 + s2)


class TestLemma1Branches:
    def rand_spd(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((2, 2))
        return A @ A.T + 0.5 * np.eye(2)

    def test_strict_branch(self):
        # histories with the max attained strictly inside the window
        schedule = (1e-5, 1e-6)
        for p_seed in range(3):
            P = self.rand_spd(100 + p_seed)
            term = MaxExp(P)
            hits = 0
            for i in range(120):
                phi = random_history((20, p_seed, i), 2, 1.0, 1.0, 2 + i % 4)
                v0 = eval_functional(term, phi)
                x0 = phi.eval(0.0)
                if v0 <= float(x0 @ P @ x0) * (1.0 + 1e-6):
                    continue
                hits += 1
                w = np.random.default_rng((20, p_seed, i, 1)).standard_normal(2)
                quotient = driver_derivative_numeric(term, phi, w, schedule)
                assert quotient <= -2.0 * v0 + 1e-3 * (1.0 + abs(v0))
            assert hits > 20

    def test_equality_branch(self):
        schedule = (1e-5, 1e-6)
        for p_seed in range(3):
            P = self.rand_spd(200 + p_seed)
            term = MaxExp(P)
            for i in range(60):
                # constant histories attain the max at tau = 0
                rng = np.random.default_rng((21, p_seed, i))
                x0 = rng.standard_normal(2)
                phi = constant_history(1.0, x0)
                w = rng.standard_normal(2)
                v0 = eval_functional(term, phi)
                assert v0 == pytest.approx(float(x0 @ P @ x0), rel=1e-12)
                quotient = driver_derivative_numeric(term, phi, w, schedule)
                cap = max(-2.0 * v0, 2.0 * float(x0 @ P @ w))
                assert quotient <= cap + 1e-3 * (1.0 + abs(v0))


class TestGains:
    def test_power_gain_inverse(self):
        g = PowerGain(2.0, 2.0)
        assert g.inverse(g(3.0)) == pytest.approx(3.0, rel=1e-15)
        assert zero_gain()(5.0) == 0.0
        with pytest.raises(ValueError):
            zero_gain().inverse(1.0)
