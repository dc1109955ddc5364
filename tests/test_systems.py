import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from krasovskii.histories import constant_history, random_history, zero_history
from krasovskii.systems import (
    DelaySystem,
    UncertaintyPair,
    build_system,
    constant_input,
    make_example1,
    make_example2,
    make_example3,
    make_linear_baseline,
    piecewise_noise_input,
    sinusoid_input,
    step_input,
    zero_input,
)
from tests.conftest import shift_input

V0 = np.zeros(1)


class TestExample1:
    def test_origin(self):
        sys = make_example1(1.0)
        assert np.array_equal(sys.field(zero_history(1.0, 2), V0), [0.0, 0.0])

    def test_hand_substitution_x1(self):
        sys = make_example1(1.0)
        f = sys.field(constant_history(1.0, [1.0, 0.0]), V0)
        assert np.allclose(f, [-0.5, -1.0], atol=0)

    def test_hand_substitution_with_input(self):
        sys = make_example1(0.5)
        f = sys.field(constant_history(0.5, [0.0, 1.0]), np.array([2.0]))
        assert np.allclose(f, [2.0, 0.0], atol=0)

    def test_right_growth_bound_on_samples(self):
        sys = make_example1(1.0)
        rng = np.random.default_rng(8)
        for i in range(300):
            phi = random_history((31, i), 2, 1.0, (0.1, 1.0, 10.0)[i % 3], i % 4)
            v = rng.standard_normal(1) * (0.0, 0.5, 2.0)[i % 3]
            lhs = float(phi.eval(0.0) @ sys.field(phi, v))
            assert lhs <= phi.sup_norm() ** 2 + v[0] ** 2 + 1e-9

    def test_left_growth_bound_on_samples(self):
        sys = make_example1(1.0)
        rng = np.random.default_rng(9)
        for i in range(300):
            phi = random_history((37, i), 2, 1.0, (0.1, 1.0, 10.0)[i % 3], i % 4)
            v = rng.standard_normal(1) * (0.0, 0.5, 2.0)[i % 3]
            lhs = float(phi.eval(0.0) @ sys.field(phi, v))
            assert lhs >= -3.0 * (phi.sup_norm() ** 2 + v[0] ** 2) - 1e-9

    def test_pointwise_matches_field(self):
        sys = make_example1(1.0)
        for i in range(20):
            phi = random_history((41, i), 2, 1.0, 2.0, 3)
            v = np.array([float(i) / 7.0])
            assert np.allclose(sys.field(phi, v),
                               sys.pointwise(phi.eval(0.0), phi.eval(-1.0), v),
                               rtol=0, atol=0)


class TestExample2:
    def test_unperturbed_uses_x1_delay(self):
        sys = make_example2(1.0)
        f = sys.field(constant_history(1.0, [1.0, 0.0]), V0)
        assert np.allclose(f, [0.5, -1.0], atol=0)

    def test_uncertainty_enters_scaled(self):
        d = UncertaintyPair(lambda phi: float(phi.eval(0.0)[0]), lambda phi: 0.0)
        sys = make_example2(1.0, epsilon=0.1, d=d)
        f = sys.field(constant_history(1.0, [1.0, 0.0]), V0)
        assert np.allclose(f, [0.6, -1.0], atol=1e-15)

    def test_origin(self):
        sys = make_example2(2.0, epsilon=0.3,
                            d=UncertaintyPair(lambda p: float(p.eval(-1.0)[1]),
                                              lambda p: 0.5 * float(p.eval(0.0)[0])))
        assert np.allclose(sys.field(zero_history(2.0, 2), V0), 0.0, atol=0)

    def test_delayed_uncertainty_folds_into_formula(self):
        # the built-in delayed uncertainty gives the same field, bit for
        # bit, as the equivalent user-supplied pair on the general path
        builtin = build_system("example2", 1.0,
                               {"epsilon": 0.05, "uncertainty": "delayed"})
        user = make_example2(1.0, 0.05, UncertaintyPair(
            lambda p: float(p.eval(-1.0)[0]), lambda p: float(p.eval(-1.0)[1])))
        assert user.pointwise is None
        for i in range(20):
            phi = random_history((43, i), 2, 1.0, 2.0, 3)
            v = np.array([float(i) / 7.0])
            assert np.array_equal(builtin.field(phi, v), user.field(phi, v))

    def test_validate_probe_family(self):
        # a pair bounded except on 8-mode histories (65 nodes) of sup norm
        # 10: validate names the first such probe, and every probe up to
        # it is random_history((911, i), ...) of its stratum
        delay = 0.5
        seen = []

        def rough_and_large(phi):
            return phi.grid.shape[0] == 65 and phi.sup_norm() > 5.0

        def d1(phi):
            seen.append(phi)
            return 2.0 * phi.sup_norm() if rough_and_large(phi) else 0.0

        expected = []
        for i in range(100):
            expected.append(random_history((911, i), 2, delay,
                                           (0.1, 1.0, 10.0)[i % 3],
                                           (0, 2, 8)[(i // 3) % 3]))
            if rough_and_large(expected[-1]):
                break
        with pytest.raises(ValueError, match=rf"d1 .* on probe {i}$"):
            UncertaintyPair(d1, lambda phi: 0.0).validate(2, delay)
        assert len(seen) == len(expected)
        for got, want in zip(seen, expected):
            assert np.array_equal(got.grid, want.grid)
            assert np.array_equal(got.values, want.values)

    def test_unbounded_uncertainty_rejected(self):
        bad = UncertaintyPair(lambda phi: 2.0 * phi.sup_norm() + 1.0,
                              lambda phi: 0.0)
        with pytest.raises(ValueError, match="d1"):
            make_example2(1.0, epsilon=0.5, d=bad)


class TestExample3:
    def test_origin(self):
        sys = make_example3(1.0)
        assert np.array_equal(sys.field(zero_history(1.0, 2), V0), [0.0, 0.0])

    def test_hand_substitution(self):
        sys = make_example3(1.0)
        f = sys.field(constant_history(1.0, [0.0, 1.0]), V0)
        assert np.allclose(f, [1.0, -3.0], atol=0)

    def test_cubic_damping_symbolic(self):
        sys = make_example3(1.0)
        for s in (0.5, 2.0, -3.0, 10.0):
            f = sys.field(constant_history(1.0, [0.0, s]), V0)
            assert f[1] == pytest.approx(-2.0 * s - s ** 3, rel=1e-15)

    def test_defeats_quadratic_lower_bound(self):
        # scaling family (0, s): x(0)'f drops like -s^4
        sys = make_example3(1.0)
        M = 10.0
        found = False
        for s in (1.0, 3.0, 10.0, 30.0):
            phi = constant_history(1.0, [0.0, s])
            lhs = float(phi.eval(0.0) @ sys.field(phi, V0))
            if lhs < -M * phi.sup_norm() ** 2:
                found = True
        assert found


class TestLinearBaseline:
    def test_origin(self):
        sys = make_linear_baseline(1.0, -0.5, 1.0)
        assert sys.field(zero_history(1.0, 1), V0)[0] == 0.0

    def test_field_formula(self):
        sys = make_linear_baseline(2.0, 0.5, 1.0)
        phi = constant_history(1.0, [3.0])
        assert sys.field(phi, np.array([1.0]))[0] == pytest.approx(
            -2.0 * 3.0 + 0.5 * 3.0 + 1.0, abs=0)


class TestConstructionContract:
    def test_nonvanishing_field_rejected(self):
        with pytest.raises(ValueError, match="f\\(0, 0\\)"):
            DelaySystem(1, 1, 0.0, lambda phi, v: np.array([1.0]))


class TestInputSignals:
    def test_noise_deterministic(self):
        a = piecewise_noise_input(9, 2.0, 0.5)
        b = piecewise_noise_input(9, 2.0, 0.5)
        for t in (0.0, 0.3, 1.9, 7.2):
            assert np.array_equal(a.evaluate(t), b.evaluate(t))

    def test_noise_segments_drawn_once_read_only(self):
        u = piecewise_noise_input((9, 4), 2.0, 0.5)
        first = u.evaluate(1.1)
        assert u.evaluate(1.4) is first
        assert not first.flags.writeable
        # each segment j keeps its own generator's draw
        expected = np.random.default_rng((9, 4, 2)).uniform(-2.0, 2.0, 1)
        assert np.array_equal(first, expected)

    @pytest.mark.parametrize("switch_dt", [0.1, 0.0437, 0.5, 1.0 / 3.0])
    def test_noise_index_is_the_numpy_floor(self, switch_dt):
        # at, just below and just above every segment boundary of t >= 0
        u = piecewise_noise_input(5, 1.0, switch_dt)
        for j in range(120):
            near = np.nextafter(j * switch_dt, [-math.inf, 0.0, math.inf]).tolist()
            for t in near[j == 0:]:
                index = int(np.floor(t / switch_dt))
                assert math.floor(t / switch_dt) == index
                expected = np.random.default_rng((5, index)).uniform(-1.0, 1.0, 1)
                assert np.array_equal(u.evaluate(t), expected)
        for t, error in ((math.nan, ValueError), (math.inf, OverflowError)):
            with pytest.raises(error):
                int(np.floor(t / switch_dt))
            with pytest.raises(error):
                u.evaluate(t)

    def test_shift(self):
        u = step_input(1.0, [0.0], [3.0])
        shifted = shift_input(u, 1.0)
        assert shifted.evaluate(0.0)[0] == 3.0

    def test_held_values_are_read_only_copies(self):
        source = np.array([0.35, -1.5])
        before, after = np.array([0.0, 1.0]), np.array([0.8, -2.0])
        inputs = [zero_input(2), constant_input(source),
                  step_input(1.0, before, after)]
        times = [0.5, 1.5, np.array([0.5, 1.5])]
        expected = [[u.evaluate(t).copy() for t in times] for u in inputs]
        for u in inputs[:2]:
            for t in times:
                with pytest.raises(ValueError, match="read-only"):
                    u.evaluate(t)[0] = 9.0
        # a step's value is a new array on every call
        for t in times:
            inputs[2].evaluate(t)[0] = 9.0
        source[:] = 7.0
        before[:] = 7.0
        after[:] = 7.0
        for u, values in zip(inputs, expected):
            for t, value in zip(times, values):
                assert np.array_equal(u.evaluate(t), value)


T_SWITCH = 0.537
SWITCH_DT = 0.0437


def built_in_input(kind):
    """One input of each built-in kind, with m = 2 where the kind has an
    m; the sinusoid turns with omega < 0."""
    return {"zero": zero_input(2),
            "constant": constant_input([0.35, -1.5]),
            "step": step_input(T_SWITCH, [0.0, 1.0], [0.8, -2.0]),
            "sinusoid": sinusoid_input(1.3, -2.7, 0.3),
            "noise": piecewise_noise_input(7, 0.5, SWITCH_DT, m=2)}[kind]


@st.composite
def evaluation_times(draw):
    """Times in [0, 100], and the step's switch or a noise boundary
    j * SWITCH_DT, each exactly or one ulp to either side."""
    special = st.just(T_SWITCH) | st.integers(0, 2300).map(lambda j: j * SWITCH_DT)
    near = st.tuples(special, st.sampled_from([0.0, -math.inf, math.inf])).map(
        lambda p: p[0] if p[1] == 0.0 else math.nextafter(p[0], p[1]))
    return draw(st.lists(st.floats(0.0, 100.0) | near, min_size=1, max_size=30))


class TestArrayEvaluate:
    """evaluate at an array of times is evaluate at each of them."""

    @given(kind=st.sampled_from(["zero", "constant", "step", "sinusoid", "noise"]),
           offset=st.sampled_from([None, 0.25, 3 * SWITCH_DT, 1.7]),
           times=evaluation_times())
    @example(kind="step", offset=None, times=[T_SWITCH, 0.0, T_SWITCH])
    @example(kind="noise", offset=None,
             times=[j * SWITCH_DT for j in range(60)])
    @example(kind="noise", offset=SWITCH_DT,
             times=[j * SWITCH_DT for j in range(60)])
    def test_rows_are_the_scalar_values(self, kind, offset, times):
        u = built_in_input(kind)
        if offset is not None:
            u = shift_input(u, offset)
        ts = np.array(times)
        rows = u.evaluate(ts)
        assert rows.shape == (ts.shape[0], u.m)
        for row, t in zip(rows, ts.tolist()):
            value = u.evaluate(t)
            assert value.shape == (u.m,)
            assert row.tobytes() == value.tobytes()


def _rest_field(n):
    return lambda phi, v: np.zeros(n)


class TestPointwiseContract:
    """A formula indexes its arguments' components and returns n of
    them; construction probes it with lists of zeros."""

    @pytest.mark.parametrize("n, formula", [
        pytest.param(1, lambda x, xd, v: x ** 3, id="power-of-a-list"),
        pytest.param(2, lambda x, xd, v: -x, id="negated-list"),
        pytest.param(1, lambda x, xd, v: x[0], id="a-bare-component"),
        pytest.param(2, lambda x, xd, v: x + xd, id="concatenated-lists"),
        pytest.param(2, lambda x, xd, v: (x[0],), id="too-few-components"),
        pytest.param(1, lambda x, xd, v: (x[2],), id="index-out-of-range"),
        pytest.param(2, lambda x, xd, v: (x[0] + 1.0, x[1]), id="nonzero-origin"),
        pytest.param(1, lambda x, xd, v: (x[0] * math.inf,), id="nan-origin"),
    ])
    def test_rejected_naming_the_system(self, n, formula):
        with pytest.raises(ValueError, match="'non-conforming'"):
            DelaySystem(n, 1, 1.0, _rest_field(n), "non-conforming", formula)

    @pytest.mark.parametrize("formula", [
        pytest.param(lambda x, xd, v: (-x[0], xd[1] - x[1] + v[0]), id="tuple"),
        pytest.param(lambda x, xd, v: [-x[0], -x[1]], id="list"),
        pytest.param(lambda x, xd, v: np.array([-x[0], -x[1]]), id="array"),
    ])
    def test_sequences_of_components_accepted(self, formula):
        sys = DelaySystem(2, 1, 1.0, _rest_field(2), "conforming", formula)
        assert sys.pointwise is formula

    @pytest.mark.parametrize("name, params", [
        pytest.param("example1", {}, id="example1"),
        pytest.param("example2", {"epsilon": 0.05, "uncertainty": "delayed"},
                     id="example2-delayed"),
        pytest.param("example3", {}, id="example3"),
        pytest.param("linear", {"a": 1.0, "b": 0.5}, id="linear"),
    ])
    def test_builtins_return_float_tuples(self, name, params):
        sys = build_system(name, 1.0, params)
        x, xd, v = [0.3] * sys.n, [-0.7] * sys.n, [0.2]
        out = sys.pointwise(x, xd, v)
        assert type(out) is tuple and len(out) == sys.n
        assert all(type(c) is float for c in out)
        assert np.array_equal(np.array(out), sys.pointwise(
            np.array(x), np.array(xd), np.array(v)))


class TestRegistry:
    def test_known_names(self):
        for name in ("example1", "example2", "example3", "linear"):
            sys = build_system(name, 1.0, {})
            assert sys.delay == 1.0

    @pytest.mark.parametrize("name, params", [
        pytest.param("example1", {}, id="example1"),
        pytest.param("example2", {}, id="example2"),
        pytest.param("example2", {"epsilon": "0.05"}, id="example2-eps"),
        pytest.param("example2", {"uncertainty": "delayed"},
                     id="example2-delayed"),
        pytest.param("example2", {"epsilon": "0.05", "uncertainty": "delayed"},
                     id="example2-eps-delayed"),
        pytest.param("example3", {}, id="example3"),
        pytest.param("linear", {}, id="linear"),
        pytest.param("linear", {"a": "2.0", "b": "-1.0"}, id="linear-ab"),
    ])
    def test_builtins_state_a_pointwise_formula(self, name, params):
        assert build_system(name, 1.0, params).pointwise is not None

    def test_linear_params(self):
        sys = build_system("linear", 0.5, {"a": "2.0", "b": "-1.0"})
        assert sys.field(constant_history(0.5, [1.0]), V0)[0] == pytest.approx(-3.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown system"):
            build_system("vanderpol", 1.0, {})

    def test_unknown_uncertainty(self):
        with pytest.raises(ValueError, match="uncertainty 'delayd'"):
            build_system("example2", 1.0, {"uncertainty": "delayd"})

    def test_unknown_param(self):
        with pytest.raises(ValueError, match="unknown linear parameter"):
            build_system("linear", 1.0, {"q": "2"})
