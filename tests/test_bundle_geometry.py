"""Bundle geometry: Gram matrices, momentum map, chart conversions.

Oracles: metric evaluations are checked against an independently built
dense Gram matrix contraction; the momentum example J = 8 is frozen
from h (a.u + xi) = 2 (1*3 + 0*0 + 1) computed by hand; the pendulum
fiber inertia is checked against 1 / <V' . V'>, the fiber mean of the
squared gradient of the drive's zero-mean phase antiderivative V, and
against its closed form 2 / (amp^2 sin^2 theta).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastslow import (AveragedSystem, FiberDependenceWarning, PendulumParams,
                      PhaseStateFull, PhaseStateReduced, TrivialBundleMetric,
                      convert_chart, fiber_inertia, gram_matrix,
                      invariant_metric_from_averaged,
                      mean_grad_antiderivative_sq, mechanical_connection,
                      metric_eval, momentum_map, pendulum_systems)

# Hand-computed: a = (0.5, 0), h = 2, u = (3, 0), xi = 1
# J = h (a . u + xi) = 2 * (1.5 + 1) = 5.
MOMENTUM_EXAMPLE_J = 5.0


def dense_quadratic_form(a, h, u, xi):
    """Oracle: squared length via an explicitly assembled Gram matrix."""
    n = len(a)
    g = np.eye(n + 1)
    g[:n, n] = h * np.asarray(a)
    g[n, :n] = h * np.asarray(a)
    g[n, n] = h
    w = np.concatenate([u, [xi]])
    return float(w @ g @ w)


def constant_metric(a, h, dim):
    a = np.asarray(a, dtype=float)
    return TrivialBundleMetric(dim_base=dim,
                               a=lambda q, phi: a,
                               h=lambda q, phi: h)


finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


class TestMetricEval:
    def test_momentum_example_frozen(self):
        metric = constant_metric([0.5, 0.0], 2.0, 2)
        j = momentum_map(metric, np.zeros(2), 0.0, np.array([3.0, 0.0]), 1.0)
        assert abs(j - MOMENTUM_EXAMPLE_J) < 1e-12

    @given(a1=finite, a2=finite, u1=finite, u2=finite, xi=finite,
           h=st.floats(min_value=0.05, max_value=0.12))
    @settings(deadline=None, max_examples=60)
    def test_matches_dense_gram(self, a1, a2, u1, u2, xi, h):
        # h |a|^2 <= 0.12 * 8 < 1 keeps the Gram matrix definite.
        metric = constant_metric([a1, a2], h, 2)
        u = np.array([u1, u2])
        got = metric_eval(metric, np.zeros(2), 0.3, u, xi)
        want = dense_quadratic_form([a1, a2], h, u, xi)
        assert abs(got - want) < 1e-12

    def test_gram_matrix_is_symmetric(self):
        metric = constant_metric([0.4, -0.2, 0.1], 1.7, 3)
        g = gram_matrix(metric, np.array([0.3, 0.0, -1.0]), 1.1)
        assert np.array_equal(g, g.T)
        assert np.min(np.linalg.eigvalsh(g)) > 0.0

    def test_rejects_non_finite_input(self):
        metric = constant_metric([0.0], 1.0, 1)
        with pytest.raises(ValueError):
            metric_eval(metric, np.array([np.nan]), 0.0, np.array([1.0]), 0.0)

    @given(u1=finite, u2=finite, xi=finite, s=finite, t=finite)
    @settings(deadline=None, max_examples=40)
    def test_momentum_is_linear_in_velocity(self, u1, u2, xi, s, t):
        metric = constant_metric([0.3, -0.1], 1.4, 2)
        q = np.array([0.2, 0.7])
        u = np.array([u1, u2])
        v = np.array([-0.5, 1.1])
        eta = 0.8
        left = momentum_map(metric, q, 0.0, s * u + t * v, s * xi + t * eta)
        right = (s * momentum_map(metric, q, 0.0, u, xi)
                 + t * momentum_map(metric, q, 0.0, v, eta))
        assert abs(left - right) < 1e-12


class TestConstructorValidation:
    def test_rejects_indefinite_gram(self):
        # h |a|^2 = 4 > 1 makes the Gram matrix indefinite.
        with pytest.raises(ValueError, match="positive definite"):
            constant_metric([2.0, 0.0], 1.0, 2)

    def test_rejects_nonpositive_inertia(self):
        with pytest.raises(ValueError):
            constant_metric([0.0], -1.0, 1)

    def test_rejects_aperiodic_coefficients(self):
        with pytest.raises(ValueError, match="periodic"):
            TrivialBundleMetric(dim_base=1,
                                a=lambda q, phi: np.array([0.1 * phi]),
                                h=lambda q, phi: 1.0)

    def test_accepts_periodic_phi_dependence(self):
        metric = TrivialBundleMetric(
            dim_base=1,
            a=lambda q, phi: np.array([0.2 * math.cos(phi)]),
            h=lambda q, phi: 1.0 + 0.3 * math.sin(phi))
        assert fiber_inertia(metric, np.zeros(1), math.pi / 2) \
            == pytest.approx(1.3)


class TestFiberInertia:
    def test_unit_inertia(self):
        metric = constant_metric([0.0, 0.0], 1.0, 2)
        assert fiber_inertia(metric, np.zeros(2)) == 1.0

    def test_phi_slice(self):
        metric = TrivialBundleMetric(
            dim_base=1, a=lambda q, phi: np.zeros(1),
            h=lambda q, phi: 2.0 + math.sin(phi))
        assert fiber_inertia(metric, np.zeros(1), math.pi / 2) \
            == pytest.approx(3.0, abs=1e-14)

    def test_pendulum_inertia_matches_oscillation_energy(self,
                                                         pendulum_drive):
        # Independent oracle: the fiber inertia of the invariant metric
        # built from the floor-0 averaged pendulum must equal
        # 1 / <V' . V'> of the pendulum's drive, and both equal
        # 2 / (amp^2 sin^2 theta).
        params = PendulumParams()
        _, avg = pendulum_systems(params, fiber_floor=0.0)
        metric = invariant_metric_from_averaged(
            avg, sample_points=[np.array([0.9]), np.array([2.0])])
        pot = pendulum_drive(params)
        for x in (0.9, 2.0, -1.1):
            mean_vv = mean_grad_antiderivative_sq(pot, np.array([x]))
            closed = 2.0 / (params.amplitude ** 2 * math.sin(x) ** 2)
            inertia = fiber_inertia(metric, np.array([x]))
            assert abs(inertia - 1.0 / mean_vv) < 1e-10 * closed
            assert abs(inertia - closed) < 1e-10 * closed

    def test_floor_zero_default_samples_rejected(self):
        # The default validation grid contains sin = 0 points where the
        # fiber inertia of the floor-0 pendulum blows up.
        params = PendulumParams()
        _, avg = pendulum_systems(params, fiber_floor=0.0)
        with pytest.raises(ValueError):
            invariant_metric_from_averaged(avg)


class TestMomentumGammaIdentity:
    @given(q1=finite, q2=finite, p1=finite, p2=finite, gamma=finite)
    @settings(deadline=None, max_examples=40)
    def test_momentum_map_reproduces_gamma(self, q1, q2, p1, p2, gamma):
        # With u = p + gamma a0 and xi = a0 . p + h0 gamma, the momentum
        # of the matching invariant metric is exactly gamma.
        def a0(q):
            return np.array([0.3 * math.sin(q[1]), 0.2 * q[0]])

        def h0(q):
            return 2.0 + q[0] * q[0]

        avg = AveragedSystem(dim_base=2, a0=a0, h0=h0,
                             U0=lambda q: 0.0, mu=1.3)
        q = np.array([q1, q2])
        metric = invariant_metric_from_averaged(avg, sample_points=[q])
        p = np.array([p1, p2])
        u = p + gamma * a0(q)
        xi = float(a0(q) @ p) + h0(q) * gamma
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            j = momentum_map(metric, q, 0.0, u, xi)
        assert abs(j - gamma) < 1e-12

    def test_connection_negates_averaged_coefficient(self):
        avg = AveragedSystem(
            dim_base=2, a0=lambda q: np.array([0.4, -0.1]),
            h0=lambda q: 3.0, U0=lambda q: 0.0, mu=1.0)
        metric = invariant_metric_from_averaged(avg)
        a = mechanical_connection(metric, np.array([0.5, 0.5]))
        assert np.allclose(a, [-0.4, 0.1], atol=1e-14)

    def test_degenerate_inertia_rejected(self):
        # h0 = a0 . a0 leaves no positive fiber inertia.
        avg = AveragedSystem(
            dim_base=1, a0=lambda q: np.array([1.0]), h0=lambda q: 1.0,
            U0=lambda q: 0.0, mu=1.0)
        with pytest.raises(ValueError, match="not positive"):
            invariant_metric_from_averaged(avg)


class TestFiberDependenceWarning:
    def test_phi_dependent_metric_warns(self):
        metric = TrivialBundleMetric(
            dim_base=1, a=lambda q, phi: np.array([0.2 * math.cos(phi)]),
            h=lambda q, phi: 1.0)
        with pytest.warns(FiberDependenceWarning):
            momentum_map(metric, np.zeros(1), 0.0, np.array([1.0]), 0.5)
        with pytest.warns(FiberDependenceWarning):
            mechanical_connection(metric, np.zeros(1))

    def test_invariant_metric_is_silent(self):
        metric = constant_metric([0.2], 1.5, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            momentum_map(metric, np.zeros(1), 0.0, np.array([1.0]), 0.5)
            mechanical_connection(metric, np.zeros(1))


class TestPhaseStates:
    def test_phi_wraps(self):
        s = PhaseStateFull(q=[1.0], p=[0.0], phi=7.0, gamma=2.0)
        assert 0.0 <= s.phi < 2.0 * math.pi
        assert s.phi == pytest.approx(7.0 - 2.0 * math.pi)

    def test_array_round_trip(self):
        s = PhaseStateFull(q=[1.0, 2.0], p=[-0.5, 0.25], phi=1.0, gamma=3.0)
        t = PhaseStateFull.from_array(s.as_array(), dim_base=2)
        assert np.array_equal(s.as_array(), t.as_array())

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PhaseStateFull(q=[np.nan], p=[0.0], phi=0.0, gamma=0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            PhaseStateFull(q=[1.0, 2.0], p=[0.0], phi=0.0, gamma=0.0)

    def test_unknown_chart(self):
        with pytest.raises(ValueError, match="chart"):
            PhaseStateReduced(Q=[1.0], P=[0.0], chart="polar")

    @given(q1=finite, p1=finite, mu=finite)
    @settings(deadline=None, max_examples=40)
    def test_chart_round_trip(self, q1, p1, mu):
        def a0(q):
            return np.array([math.sin(q[0])])

        s = PhaseStateReduced(Q=[q1], P=[p1])
        mag = convert_chart(s, a0, mu, to="magnetic")
        back = convert_chart(mag, a0, mu, to="canonical")
        assert mag.chart == "magnetic"
        assert np.max(np.abs(back.P - s.P)) < 1e-14
        assert np.array_equal(back.Q, s.Q)

    def test_convert_to_same_chart_is_identity(self):
        s = PhaseStateReduced(Q=[1.0], P=[2.0])
        assert convert_chart(s, lambda q: np.zeros(1), 1.0,
                             to="canonical") is s

    def test_magnetic_shift_value(self):
        # P1 = P + mu a0(Q) with mu = 2, a0 = (0.5): P1 = 1.0 + 1.0.
        s = PhaseStateReduced(Q=[0.0], P=[1.0])
        mag = convert_chart(s, lambda q: np.array([0.5]), 2.0, to="magnetic")
        assert mag.P[0] == pytest.approx(2.0, abs=1e-15)
