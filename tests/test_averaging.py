"""Tests for fiber averaging and quadrature.

Expected values are hand-computed closed forms: trigonometric moments
(mean of cos^2 is 1/2) and Bessel integrals for quadrature exactness.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastslow import (AveragedSystem, AveragingError, FastSlowSystem,
                      IntegratorConfig, PhaseStateReduced,
                      average_coefficients, averaged_hamiltonian,
                      effective_potential,
                      integrate_reduced_magnetic, magnetic_form,
                      uniform_field_averaged)
from fastslow.averaging import FIBER_GRID, fiber_mean

from conftest import difference_jets, slow_difference_jet

# Hand-computed: a0 = (1,), h0 = 1, U0 = 0.5, mu = 1, P = (1,)
# Hbar = 1/2 + 1 + 1/2 + 1/2 = 2.5.
AVERAGED_HAMILTONIAN_EXAMPLE = 2.5

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def constant_coefficient_system(a0, h0, U0, a1=None, h1=None, U1=None,
                                epsilon=0.01, mu=1.0, dim=1):
    a1 = a1 or (lambda q, phi: np.zeros(dim))
    h1 = h1 or (lambda q, phi: 0.0)
    U1 = U1 or (lambda q, phi: 0.0)
    slow, fast = difference_jets(
        lambda q: (np.full(dim, a0), h0, U0(q)),
        lambda q, phi: (a1(q, phi), h1(q, phi), U1(q, phi)))
    return FastSlowSystem(dim_base=dim, slow=slow, fast=fast,
                          epsilon=epsilon, mu=mu)


def value_jet(values):
    """The slow jet of value-only averaged data values(Q) -> (a0, h0, U0),
    its derivatives central differences (slow_difference_jet)."""
    return slow_difference_jet(values)


def synthetic_averaged(mu=1.0):
    return AveragedSystem(
        dim_base=2,
        slow=value_jet(lambda Q: (np.array([0.3 * np.sin(Q[1]), 0.2 * Q[0]]),
                                  2.0 + Q[0] ** 2, 0.5 * float(Q @ Q))),
        mu=mu)


class TestQuadrature:
    def test_trapezoid_exact_on_trigonometric_polynomials(self):
        for k in (1, 2, 5, 7):
            # Mean of cos^2(k tau) over the circle is 1/2.
            mean = fiber_mean(np.cos(k * FIBER_GRID) ** 2)
            assert abs(mean - 0.5) < 1e-13
            assert abs(fiber_mean(np.sin(k * FIBER_GRID))) < 1e-13

    def test_fiber_mean_matches_bessel_integral(self):
        # Integral of exp(cos tau) over [0, 2 pi) is 2 pi I_0(1).
        want = 2.0 * np.pi * np.i0(1.0)
        got = 2.0 * np.pi * fiber_mean(np.exp(np.cos(FIBER_GRID)))
        assert abs(got - want) < 1e-12

    def test_integrate_handles_vector_samples(self):
        samples = np.array([[np.cos(t) ** 2, np.sin(t)] for t in FIBER_GRID])
        assert samples.shape == (FIBER_GRID.size, 2)
        mean = fiber_mean(samples)
        assert mean.shape == (2,)
        assert abs(mean[0] - 0.5) < 1e-13
        assert abs(mean[1]) < 1e-13


class TestAverageCoefficients:
    def test_zero_oscillation_passes_through(self):
        system = constant_coefficient_system(
            a0=0.0, h0=1.0, U0=lambda q: 0.5 * float(q @ q))
        avg = average_coefficients(system)
        q = np.array([0.7])
        assert avg.mu == system.mu
        assert avg.slow is system.slow
        assert avg.slow(q.tolist())[1] == 1.0
        assert avg.diagnostics["residual_means"]["U1"] == 0.0
        assert abs(avg.diagnostics["inertia_inverse_min"] - 1.0) < 1e-15

    def test_oscillating_potential_averages_to_slow_part(self):
        # U = q^2 (1 + eps cos phi): fiber mean of the eps part is zero.
        system = constant_coefficient_system(
            a0=0.0, h0=1.0,
            U0=lambda q: float(q @ q),
            U1=lambda q, phi: float(q @ q) * np.cos(phi))
        avg = average_coefficients(system)
        q = np.array([-1.3])
        assert abs(avg.slow(q.tolist())[2] - 1.69) < 1e-15
        assert avg.diagnostics["residual_means"]["U1"] < 1e-12

    def test_oscillating_inertia_with_zero_mean_is_accepted(self):
        system = constant_coefficient_system(
            a0=0.0, h0=2.0, U0=lambda q: 0.0,
            h1=lambda q, phi: np.sin(3 * phi))
        avg = average_coefficients(system)
        assert avg.slow([0.0])[1] == 2.0

    def test_nonzero_mean_oscillation_raises_naming_coefficient(self):
        system = constant_coefficient_system(
            a0=0.0, h0=1.0, U0=lambda q: 0.0,
            U1=lambda q, phi: 0.1 + np.cos(phi))
        with pytest.raises(AveragingError) as err:
            average_coefficients(system)
        assert err.value.coefficient == "U1"
        assert err.value.point is not None
        assert abs(err.value.residual - 0.1) < 1e-12

    def test_nonpositive_total_inertia_raises(self):
        system = constant_coefficient_system(
            a0=0.0, h0=0.01, U0=lambda q: 0.0,
            h1=lambda q, phi: np.sin(phi), epsilon=0.1)
        with pytest.raises(AveragingError) as err:
            average_coefficients(system)
        assert err.value.coefficient == "h"

    def test_list_valued_coefficients_average_to_array_callables(self):
        # The full system's jets may return lists; the averaged system's
        # readers take each slot as an array, so mu * a0(Q) stays a vector.
        def slow(q):
            return ([0.5 * q[1], -0.25], 2.0, q[0] ** 2 + q[1] ** 2,
                     [[0.0, 0.0], [0.5, 0.0]], [0.0, 0.0],
                     [2.0 * q[0], 2.0 * q[1]])

        def fast(q, phi):
            zero = [0.0, 0.0]
            return zero, 0.0, 0.0, [zero, zero], zero, zero, zero, 0.0, 0.0

        system = FastSlowSystem(dim_base=2, slow=slow, fast=fast,
                                epsilon=0.01, mu=2.0)
        avg = average_coefficients(system)
        q = np.array([0.4, -1.0])
        P = np.array([1.0, 3.0])
        assert avg.slow is slow
        # Hbar = |P|^2 / 2 + mu a0 . P + mu^2 h0 / 2 + U0 = 5 - 2.5 + 4 + 1.16
        assert averaged_hamiltonian(avg, q, P) == 5.0 - 2.5 + 4.0 + 1.16
        assert effective_potential(avg, q) == 2.0 * (2.0 - 0.3125) + 1.16
        B = magnetic_form(avg, q)
        assert isinstance(B, np.ndarray) and B.dtype == float
        assert np.array_equal(B, [[0.0, -1.0], [1.0, 0.0]])
        start = PhaseStateReduced(Q=q, P=P)
        shifted = integrate_reduced_magnetic(
            avg, start, 0.01, IntegratorConfig(method="rk4", dt=0.01))
        assert np.array_equal(shifted.values[0], [0.4, -1.0, 0.0, 2.5])

    def test_sample_points_are_honored(self):
        system = constant_coefficient_system(
            a0=0.0, h0=1.0, U0=lambda q: 0.0)
        pts = [np.array([5.0]), np.array([-5.0])]
        avg = average_coefficients(system, sample_points=pts)
        stored = avg.diagnostics["sample_points"]
        assert len(stored) == 2
        assert np.array_equal(stored[0], pts[0])

    def test_negative_inertia_inverse_is_reported_not_raised(self):
        # h0 - a0.a0 < 0 is a diagnostic, not an error.
        system = constant_coefficient_system(
            a0=2.0, h0=1.0, U0=lambda q: 0.0)
        avg = average_coefficients(system)
        assert avg.diagnostics["inertia_inverse_min"] == -3.0


class TestAveragedHamiltonian:
    def test_frozen_example(self):
        avg = AveragedSystem(
            dim_base=1,
            slow=lambda Q: ([1.0], 1.0, 0.5, [[0.0]], [0.0], [0.0]),
            mu=1.0)
        got = averaged_hamiltonian(avg, np.zeros(1), np.array([1.0]))
        assert abs(got - AVERAGED_HAMILTONIAN_EXAMPLE) < 1e-14

    @given(q1=finite, q2=finite, p1=finite, p2=finite,
           mu=st.floats(min_value=-1.5, max_value=1.5, allow_nan=False))
    @settings(deadline=None, max_examples=60)
    def test_chart_identity(self, q1, q2, p1, p2, mu):
        # Hbar = |P + mu a0|^2 / 2 + Ubar_mu, an algebraic identity.
        avg = synthetic_averaged(mu)
        Q = np.array([q1, q2])
        P = np.array([p1, p2])
        P1 = P + mu * avg.slow(Q.tolist())[0]
        left = averaged_hamiltonian(avg, Q, P)
        right = 0.5 * float(P1 @ P1) + effective_potential(avg, Q)
        assert abs(left - right) < 1e-12


class TestMagneticForm:
    def test_one_dimensional_form_vanishes(self):
        avg = AveragedSystem(
            dim_base=1,
            slow=value_jet(lambda Q: (np.array([np.sin(Q[0])]), 1.0, 0.0)),
            mu=2.0)
        assert np.max(np.abs(magnetic_form(avg, np.array([0.4])))) < 1e-9

    def test_uniform_field_from_symmetric_gauge(self):
        # a0 = (-b Q2 / 2, b Q1 / 2) generates constant B = [[0, b], [-b, 0]].
        b = 0.8
        avg = uniform_field_averaged(b, 1.0)
        B = magnetic_form(avg, np.array([0.3, -1.1]))
        assert np.max(np.abs(B - np.array([[0.0, b], [-b, 0.0]]))) < 1e-14

    def test_finite_difference_fallback_matches_analytic(self):
        exact = uniform_field_averaged(0.8, 1.0)
        fallback = AveragedSystem(
            dim_base=2, slow=value_jet(lambda Q: exact.slow(Q.tolist())[:3]),
            mu=1.0)
        Q = np.array([0.3, -1.1])
        assert np.max(np.abs(magnetic_form(exact, Q)
                             - magnetic_form(fallback, Q))) < 1e-9

    @given(q1=finite, q2=finite)
    @settings(deadline=None, max_examples=30)
    def test_antisymmetry(self, q1, q2):
        avg = synthetic_averaged(1.3)
        B = magnetic_form(avg, np.array([q1, q2]))
        assert np.max(np.abs(B + B.T)) < 1e-9
