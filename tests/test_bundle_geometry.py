"""Bundle geometry: Gram matrices, momentum map, chart conversions.

Oracles: metric evaluations are checked against an independently built
dense Gram matrix contraction B^T diag(I, h) B; the momentum example J = 8 is frozen
from h (a.u + xi) = 2 (1*3 + 0*0 + 1) computed by hand; the pendulum
fiber inertia is checked against 1 / <V' . V'>, the fiber mean of the
squared gradient of the drive's zero-mean phase antiderivative V, and
against its closed form 2 / (amp^2 sin^2 theta).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastslow import (AveragedSystem, DiskParams, FastSlowSystem,
                      IntegratorConfig, PendulumParams, PhaseStateFull,
                      PhaseStateReduced, TrivialBundleMetric,
                      average_coefficients, convert_chart, disk_momentum,
                      fiber_inertia, gram_matrix,
                      integrate_autonomous, integrate_reduced_canonical,
                      invariant_metric_from_averaged,
                      mean_grad_antiderivative_sq, mechanical_connection,
                      metric_eval, momentum_map, pendulum_systems,
                      sphere_surface, uniform_field_averaged)
from fastslow.systems import _mass_at

from conftest import gradient, slow_difference_jet

# Hand-computed: a = (0.5, 0), h = 2, u = (3, 0), xi = 1
# J = h (a . u + xi) = 2 * (1.5 + 1) = 5.
MOMENTUM_EXAMPLE_J = 5.0


def dense_quadratic_form(a, h, u, xi):
    """Oracle: squared length via G = B^T diag(I, h) B, where
    B = [[I, 0], [a^T, 1]] maps (u, xi) to (u, xi + a . u)."""
    n = len(a)
    b = np.eye(n + 1)
    b[n, :n] = a
    d = np.diag(np.append(np.ones(n), h))
    w = np.concatenate([u, [xi]])
    return float(w @ (b.T @ d @ b) @ w)


def constant_metric(a, h, dim):
    a = np.asarray(a, dtype=float)
    return TrivialBundleMetric(dim_base=dim, a=lambda q: a, h=lambda q: h)


finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


class TestMetricEval:
    def test_momentum_example_frozen(self):
        metric = constant_metric([0.5, 0.0], 2.0, 2)
        j = momentum_map(metric, np.zeros(2), np.array([3.0, 0.0]), 1.0)
        assert abs(j - MOMENTUM_EXAMPLE_J) < 1e-12

    @given(a1=finite, a2=finite, u1=finite, u2=finite, xi=finite,
           h=st.floats(min_value=0.05, max_value=20.0))
    @settings(deadline=None, max_examples=60)
    def test_matches_dense_gram(self, a1, a2, u1, u2, xi, h):
        metric = constant_metric([a1, a2], h, 2)
        u = np.array([u1, u2])
        got = metric_eval(metric, np.zeros(2), u, xi)
        want = dense_quadratic_form([a1, a2], h, u, xi)
        # Values reach h (|xi| + |a| |u|)^2 = 20 * 10^2, so the bound is
        # relative above 1.
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    def test_gram_matrix_is_symmetric(self):
        # Any h > 0 and any a give a positive definite Gram matrix: here
        # h |a|^2 is 0.357, 100 and 0.
        for a, h in (([0.4, -0.2, 0.1], 1.7), ([5.0, 0.0, -5.0], 2.0),
                     ([0.0, 0.0, 0.0], 1e-4)):
            metric = constant_metric(a, h, 3)
            g = gram_matrix(metric, np.array([0.3, 0.0, -1.0]))
            assert np.array_equal(g, g.T)
            assert np.min(np.linalg.eigvalsh(g)) > 0.0

    def test_rejects_non_finite_input(self):
        metric = constant_metric([0.0], 1.0, 1)
        with pytest.raises(ValueError):
            metric_eval(metric, np.array([np.nan]), np.array([1.0]), 0.0)

    @given(u1=finite, u2=finite, xi=finite, s=finite, t=finite)
    @settings(deadline=None, max_examples=40)
    def test_momentum_is_linear_in_velocity(self, u1, u2, xi, s, t):
        metric = constant_metric([0.3, -0.1], 1.4, 2)
        q = np.array([0.2, 0.7])
        u = np.array([u1, u2])
        v = np.array([-0.5, 1.1])
        eta = 0.8
        left = momentum_map(metric, q, s * u + t * v, s * xi + t * eta)
        right = (s * momentum_map(metric, q, u, xi)
                 + t * momentum_map(metric, q, v, eta))
        assert abs(left - right) < 1e-12


class TestConstructorValidation:
    def test_rejects_nonpositive_inertia(self):
        with pytest.raises(ValueError):
            constant_metric([0.0], -1.0, 1)


class TestFiberInertia:
    def test_unit_inertia(self):
        metric = constant_metric([0.0, 0.0], 1.0, 2)
        assert fiber_inertia(metric, np.zeros(2)) == 1.0

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

        avg = AveragedSystem(dim_base=2, slow=slow_difference_jet(
            lambda q: (a0(q), h0(q), 0.0)), mu=1.3)
        q = np.array([q1, q2])
        metric = invariant_metric_from_averaged(avg, sample_points=[q])
        p = np.array([p1, p2])
        u = p + gamma * a0(q)
        xi = float(a0(q) @ p) + h0(q) * gamma
        j = momentum_map(metric, q, u, xi)
        assert abs(j - gamma) < 1e-12

    def test_connection_negates_averaged_coefficient(self):
        zero = [0.0, 0.0]
        avg = AveragedSystem(
            dim_base=2,
            slow=lambda q: ([0.4, -0.1], 3.0, 0.0, [zero, zero], zero, zero),
            mu=1.0)
        metric = invariant_metric_from_averaged(avg)
        a = mechanical_connection(metric, np.array([0.5, 0.5]))
        assert np.allclose(a, [-0.4, 0.1], atol=1e-14)

    def test_degenerate_inertia_rejected(self):
        # h0 = a0 . a0 leaves no positive fiber inertia.
        avg = AveragedSystem(
            dim_base=1,
            slow=lambda q: ([1.0], 1.0, 0.0, [[0.0]], [0.0], [0.0]),
            mu=1.0)
        with pytest.raises(ValueError, match="not positive"):
            invariant_metric_from_averaged(avg)


def gamma_identity_system(mu):
    """The TestMomentumGammaIdentity system, here with the potential
    U0 = |q|^2 / 2 and closed-form gradients."""
    def slow(q):
        x, y = q
        return ([0.3 * math.sin(y), 0.2 * x], 2.0 + x * x,
                0.5 * (x * x + y * y), [[0.0, 0.2], [0.3 * math.cos(y), 0.0]],
                [2.0 * x, 0.0], [x, y])

    return AveragedSystem(dim_base=2, slow=slow, mu=mu)


def shifted_uniform_field():
    """uniform_field_averaged(0.8, 1.0) has h0 = a0 . a0 exactly, which
    no metric realizes. Adding 1 to h0 adds the constant mu^2 / 2 to the
    averaged Hamiltonian: grad h0 and so the flow are unchanged."""
    field = uniform_field_averaged(0.8, 1.0)

    def slow(q):
        a0, h0, *rest = field.slow(q)
        return (a0, h0 + 1.0, *rest)

    return dataclasses.replace(field, slow=slow)


class TestReductionTheorem:
    # Horizon and tolerance, fixed before the first run. Both runs take
    # RK4 steps of dt = 1e-2 on the same analytic field of (q, p) (J is
    # constant on the bundle), so RK4's own error, about dt^4 = 1e-8 per
    # unit time for O(1) derivatives, is common to both; even if it did
    # not cancel it would stay below 1e-7 over t <= 10. What separates
    # them is the bundle side's central-difference force: roundoff
    # 1e-16 |H| / 1e-6 plus truncation 1e-12, under 1e-9 for |H| <= 5,
    # about 1e-8 after 1000 steps. The identity base block of the plain
    # cross-term metric misses the averaged flow by 0.1 to 2.
    HORIZON = 10.0
    TOL = 1e-6
    CONFIG = IntegratorConfig(method="rk4", dt=1e-2)

    @pytest.mark.parametrize("avg, q0, p0", [
        (gamma_identity_system(1.3), [0.5, -0.3], [0.2, 0.4]),
        (shifted_uniform_field(), [1.0, 0.0], [0.0, 0.5]),
    ], ids=["gamma_identity", "uniform_field"])
    def test_natural_flow_reduces_to_averaged_flow(self, avg, q0, p0):
        # The natural system H = (1/2) (p, J) . G(q)^-1 (p, J) + U0(q) on
        # (q, phi, p, J), with G from gram_matrix and dH/dq by central
        # differences; reduced at J = mu its (q, p) flow is the averaged
        # canonical flow.
        metric = invariant_metric_from_averaged(avg, sample_points=[q0])
        n = avg.dim_base

        def hamiltonian(q, p, j):
            w = np.append(p, j)
            return (0.5 * float(w @ np.linalg.solve(gram_matrix(metric, q),
                                                    w))
                    + float(avg.slow(q.tolist())[2]))

        def field(z):
            q, p, j = z[:n], z[n + 1:2 * n + 1], z[-1]
            v = np.linalg.solve(gram_matrix(metric, q), np.append(p, j))
            dp = -gradient(lambda x: hamiltonian(x, p, j), q)
            return np.concatenate([v, dp, [0.0]])

        labels = ([f"q{i + 1}" for i in range(n)] + ["phi"]
                  + [f"p{i + 1}" for i in range(n)] + ["J"])
        bundle = integrate_autonomous(
            field, np.concatenate([q0, [0.0], p0, [avg.mu]]), self.HORIZON,
            self.CONFIG, state_labels=tuple(labels), kind="bundle",
            dim_base=n)
        reduced = integrate_reduced_canonical(
            avg, PhaseStateReduced(Q=q0, P=p0), self.HORIZON, self.CONFIG)
        base = np.r_[0:n, n + 1:2 * n + 1]
        gap = float(np.max(np.abs(bundle.values[:, base] - reduced.values)))
        assert gap < self.TOL


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


class TestDotsAreFloatSums:
    """Each dot of metric_eval, momentum_map, the fiber inertia of
    invariant_metric_from_averaged, the h0 of uniform_field_averaged,
    the h0 - a0 . a0 of average_coefficients and the M u of
    disk_momentum adds its products from +0.0 in index order, so it
    equals the written-out float sum bit for bit, whatever the BLAS
    kernel."""

    def test_dots_equal_the_in_order_float_sums(self):
        def a0(q):
            return [0.3 * math.sin(q[1]), 0.2 * q[0]]

        def slow(q):
            return (a0(q), 2.0 + q[0] * q[0], 0.0,
                    [[0.0, 0.3 * math.cos(q[1])], [0.2, 0.0]],
                    [2.0 * q[0], 0.0], [0.0, 0.0])

        metric = invariant_metric_from_averaged(
            AveragedSystem(dim_base=2, slow=slow, mu=1.3))
        field = uniform_field_averaged(0.8, 1.0)
        rng = np.random.default_rng(11)
        for _ in range(2000):
            (q0, q1), (u0, u1) = rng.uniform(-2.0, 2.0, (2, 2)).tolist()
            gamma, xi = rng.uniform(-2.0, 2.0, 2).tolist()
            b0, b1 = a0([q0, q1])
            h = 1.0 / ((2.0 + q0 * q0) - (0.0 + b0 * b0 + b1 * b1))
            assert metric.h(np.array([q0, q1])) == h
            a_u = 0.0 + -b0 * u0 + -b1 * u1
            w = gamma + a_u
            assert (metric_eval(metric, [q0, q1], [u0, u1], gamma)
                    == (0.0 + u0 * u0 + u1 * u1) + h * (w * w))
            assert (momentum_map(metric, [q0, q1], [u0, u1], xi)
                    == h * (a_u + xi))
            assert (field.slow([q0, q1])[1]
                    == 0.25 * 0.8 * 0.8 * (0.0 + q0 * q0 + q1 * q1))

    def test_averaging_and_disk_momentum_dots_equal_the_float_sums(self):
        def a0(q):
            return [0.3 * math.sin(q[1]), 0.2 * q[0]]

        system = FastSlowSystem(
            dim_base=2,
            slow=lambda q: (a0(q), 2.0 + q[0] * q[0], 0.0,
                            [[0.0, 0.2], [0.3 * math.cos(q[1]), 0.0]],
                            [2.0 * q[0], 0.0], [0.0, 0.0]),
            fast=lambda q, phi: ([0.0, 0.0], 0.0, 0.0, [[0.0, 0.0]] * 2,
                                 [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], 0.0,
                                 0.0),
            epsilon=0.01, mu=1.0)
        params = DiskParams(mass=1.3, inertia_axial=1.0, omega_axial=2.0)
        surface = sphere_surface(1.0)
        rng = np.random.default_rng(12)
        for _ in range(300):
            (q0, q1), (u0, u1) = rng.uniform(0.2, 2.0, (2, 2)).tolist()
            b0, b1 = a0([q0, q1])
            avg = average_coefficients(system,
                                       sample_points=[np.array([q0, q1])])
            assert (avg.diagnostics["inertia_inverse_min"]
                    == (2.0 + q0 * q0) - (0.0 + b0 * b0 + b1 * b1))
            ma11, ma22 = _mass_at(params, surface, (q0, q1))
            assert disk_momentum(params, surface, np.array([q0, q1]),
                                 np.array([u0, u1])).tolist() == [
                0.0 + ma11 * u0 + 0.0 * u1, 0.0 + 0.0 * u0 + ma22 * u1]
