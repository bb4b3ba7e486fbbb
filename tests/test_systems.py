"""Tests for the shipped example systems.

Oracles: the driven pendulum's averaged potential has the closed form
(1/4) mu^2 amp^2 sin^2(theta) - g l cos(theta), with inverted-state
stability threshold mu* = sqrt(2 g l) / amp and small-oscillation
period 2 pi / sqrt(mu^2 amp^2 / 2 - g l) about theta = pi; the round
sphere, the plane, and the e^{2 q1} metric have Gaussian curvatures
1/R^2, 0, and -1; the one-harmonic particle potential has fiber means
<V'.V'> = (alpha^2 cos^2 x + beta^2 sin^2 x) / 2 and
<S'' V'> = alpha beta / 2. Each hand-fused jet of a shipped system
matches the central differences of its own value slots, and the jets
of the oracle difference_jets are the stencils of jacobian, gradient
and phi_derivative exactly (fd: the finite-difference oracles of
tests/conftest.py).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fastslow import (DiskParams, DomainError, HarmonicMode,
                      IntegratorConfig, OscillatingPotential, PendulumParams,
                      PhaseStateFull, PhaseStateReduced, SurfaceMetric,
                      curvature_identity_residual, disk_connection,
                      disk_magnetic_rhs, disk_mass_matrix, disk_momentum,
                      disk_velocity, effective_potential, exponential_surface,
                      fiber_inertia, gaussian_curvature, integrate_autonomous,
                      integrate_full, integrate_reduced_canonical,
                      integrate_reduced_magnetic, magnetic_form,
                      mean_grad_antiderivative_sq, mean_hess_cross_term,
                      mechanical_connection,
                      oscillating_particle_averaged, particle_invariant_metric,
                      particle_potential_1d, particle_potential_2d,
                      particle_systems, pendulum_systems, plane_surface,
                      simulate_physical_pendulum, sphere_surface,
                      spinning_disk_rhs, uniform_field_averaged)
from fastslow.averaging import FIBER_GRID
from fastslow.experiments import TABLE
from fastslow.systems import _disk_geometry, _solve2

import conftest as fd
from conftest import difference_jets

RK4 = IntegratorConfig(method="rk4", dt=1e-3)

# Hand-computed for l = g = 1, amp = 0.5: mu* = sqrt(2) / 0.5.
STABILITY_THRESHOLD = 2.0 * math.sqrt(2.0)
# Hand-computed for mu = 3: omega^2 = mu^2 amp^2 / 2 - g l = 1/8.
INVERTED_PERIOD = 2.0 * math.pi / math.sqrt(0.125)


def kapitza_potential(theta, params):
    return (0.25 * params.mu ** 2 * params.amplitude ** 2
            * math.sin(theta / params.length) ** 2
            - params.gravity * params.length * math.cos(theta / params.length))


def closed_mean_vv(x, alpha=0.7, beta=0.4):
    return 0.5 * (alpha ** 2 * math.cos(x) ** 2
                  + beta ** 2 * math.sin(x) ** 2)


class TestPendulumAveraging:
    def test_effective_potential_closed_form(self):
        params = PendulumParams()
        _, avg = pendulum_systems(params)
        for theta in np.linspace(-math.pi, math.pi, 50):
            got = effective_potential(avg, np.array([theta]))
            assert abs(got - kapitza_potential(theta, params)) < 1e-10

    def test_stability_threshold(self):
        assert abs(PendulumParams().stability_threshold
                   - STABILITY_THRESHOLD) < 1e-14

    def test_induced_potential_matches_effective_potential(self,
                                                           pendulum_drive):
        # Two independent routes to the same averaged potential: the
        # suspension's average, and the slow potential plus the
        # oscillation-induced term of the drive.
        params = PendulumParams()
        pot = pendulum_drive(params)
        U_slow = lambda x: -params.gravity * params.length \
            * math.cos(x[0] / params.length)
        for theta in (0.4, 1.7, 2.9):
            x = np.array([theta])
            got = U_slow(x) + 0.5 * (params.epsilon * params.omega) ** 2 \
                * mean_grad_antiderivative_sq(pot, x)
            assert abs(got - kapitza_potential(theta, params)) < 1e-10

    def test_inverted_equilibrium_period(self):
        _, avg = pendulum_systems(PendulumParams())
        # Amplitude 0.04 keeps the anharmonic period shift below 0.3%.
        start = PhaseStateReduced(Q=np.array([math.pi + 0.04]),
                                  P=np.array([0.0]))
        traj = integrate_reduced_canonical(avg, start, 40.0,
                                           IntegratorConfig(method="rk4",
                                                            dt=2e-3))
        offset = traj.values[:, 0] - math.pi
        sign_flips = np.nonzero(np.diff(np.sign(offset)))[0]
        assert sign_flips.size >= 4
        crossings = []
        for i in sign_flips:
            t0, t1 = traj.times[i], traj.times[i + 1]
            y0, y1 = offset[i], offset[i + 1]
            crossings.append(t0 - y0 * (t1 - t0) / (y1 - y0))
        periods = 2.0 * np.diff(crossings)
        assert abs(np.mean(periods) - INVERTED_PERIOD) \
            < 0.01 * INVERTED_PERIOD

    def test_averaged_system_mu_and_frequency(self):
        params = PendulumParams(epsilon=1e-2)
        system, avg = pendulum_systems(params)
        assert avg.mu == params.mu
        assert system.omega == pytest.approx(300.0)


class TestPhysicalPendulum:
    def test_above_threshold_stays_inverted(self):
        params = PendulumParams(mu=3.0, epsilon=5e-3)
        traj = simulate_physical_pendulum(params, math.pi + 0.05, 0.0,
                                          horizon=20.0)
        assert np.max(np.abs(traj.values[:, 0] - math.pi)) < 0.3
        assert traj.meta["stopped_at"] is None

    def test_below_threshold_departs_and_stops(self):
        params = PendulumParams(mu=2.0, epsilon=5e-3)
        traj = simulate_physical_pendulum(
            params, math.pi + 0.05, 0.0, horizon=50.0,
            stop_when=lambda t, theta, p: abs(theta - math.pi) > 0.3)
        assert traj.meta["stopped_at"] is not None
        assert traj.meta["stopped_at"] < 50.0
        assert abs(traj.values[-1, 0] - math.pi) > 0.3

    def test_trajectory_shape_and_logs(self):
        params = PendulumParams(epsilon=5e-3)
        traj = simulate_physical_pendulum(params, 2.0, 0.0, horizon=1.0)
        assert traj.state_labels == ("theta", "p_theta", "phi")
        assert traj.kind == "pendulum_physical"
        assert traj.times[-1] == pytest.approx(1.0)
        assert np.all(np.isfinite(traj.invariant_log["energy"]))


class TestSurfaces:
    def test_gaussian_curvatures(self):
        probes = [np.array([0.7, 0.3]), np.array([1.9, -1.0]),
                  np.array([2.4, 4.0])]
        for q in probes:
            assert abs(gaussian_curvature(sphere_surface(1.0), q) - 1.0) < 1e-9
            assert abs(gaussian_curvature(sphere_surface(2.0), q) - 0.25) \
                < 1e-9
            assert abs(gaussian_curvature(plane_surface(), q)) < 1e-9
        assert abs(gaussian_curvature(exponential_surface(),
                                      np.array([0.4, 1.0])) + 1.0) < 1e-9

    def test_sphere_connection_closed_form(self):
        surface = sphere_surface(1.0)
        for q1 in (0.5, 1.2, 2.7):
            A = disk_connection(surface, np.array([q1, 0.7]))
            assert abs(A[0]) < 1e-12
            assert abs(A[1] + math.cos(q1)) < 1e-12

    def test_curvature_identity_residual_small(self):
        cases = [(sphere_surface(1.0), np.array([1.1, 0.4])),
                 (plane_surface(), np.array([0.3, -0.8])),
                 (exponential_surface(), np.array([0.5, 2.0]))]
        for surface, q in cases:
            assert abs(curvature_identity_residual(surface, q)) < 1e-7

    def test_domain_rejection(self):
        surface = sphere_surface(1.0)
        with pytest.raises(DomainError, match="domain"):
            gaussian_curvature(surface, np.array([0.001, 0.0]))
        rhs = spinning_disk_rhs(DiskParams(), surface)
        with pytest.raises(DomainError):
            rhs(np.array([0.001, 0.0, 0.1, 0.1]))

    def test_degenerate_metric_rejected(self):
        surface = SurfaceMetric(
            jet=lambda q: (1.0, -1.0, (0.0, 0.0), (0.0, 0.0)))
        q = np.array([0.3, 0.2])
        field = spinning_disk_rhs(DiskParams(), surface)
        for call in (lambda: gaussian_curvature(surface, q),
                     lambda: disk_connection(surface, q),
                     lambda: curvature_identity_residual(surface, q),
                     lambda: field([*q, 0.1, 0.2])):
            with pytest.raises(ValueError, match="a22 must be positive"):
                call()


class TestSpinningDisk:
    def test_flat_surface_motion_is_straight(self):
        rhs = spinning_disk_rhs(DiskParams(omega_axial=2.0), plane_surface())
        z0 = np.array([0.1, -0.2, 0.3, 0.4])
        traj = integrate_autonomous(rhs, z0, 5.0, RK4,
                                    state_labels=("q1", "q2", "u1", "u2"),
                                    kind="disk", dim_base=2)
        want_q = z0[:2] + np.outer(traj.times, z0[2:])
        assert np.max(np.abs(traj.values[:, :2] - want_q)) < 1e-10
        assert np.max(np.abs(traj.values[:, 2:] - z0[2:])) < 1e-10

    def test_spinless_disk_follows_equator_geodesic(self):
        params = DiskParams(omega_axial=0.0)
        rhs = spinning_disk_rhs(params, sphere_surface(1.0))
        z0 = np.array([0.5 * math.pi, 0.0, 0.0, 0.5])
        traj = integrate_autonomous(rhs, z0, 10.0, RK4,
                                    state_labels=("q1", "q2", "u1", "u2"),
                                    kind="disk", dim_base=2)
        assert np.max(np.abs(traj.values[:, 0] - 0.5 * math.pi)) < 1e-8
        assert np.max(np.abs(traj.values[:, 3] - 0.5)) < 1e-8

    def test_energy_conserved_with_spin(self):
        params = DiskParams(omega_axial=2.0)
        surface = sphere_surface(1.0)
        rhs = spinning_disk_rhs(params, surface)
        z0 = np.array([math.pi / 3.0, 0.0, 0.1, 0.5])

        def energy(z):
            m = disk_mass_matrix(params, surface, z[:2])
            return float(0.5 * z[2:] @ m @ z[2:])

        traj = integrate_autonomous(rhs, z0, 10.0, RK4,
                                    state_labels=("q1", "q2", "u1", "u2"),
                                    kind="disk", dim_base=2,
                                    logs={"energy": energy})
        log = traj.invariant_log["energy"]
        assert np.max(np.abs(log - log[0])) < 1e-8

    def test_reduced_magnetic_chart_matches_lagrangian_route(self):
        params = DiskParams(omega_axial=2.0)
        surface = sphere_surface(1.0)
        rhs = spinning_disk_rhs(params, surface)
        z0 = np.array([math.pi / 3.0, 0.0, 0.1, 0.5])
        direct = integrate_autonomous(rhs, z0, 2.0, RK4,
                                      state_labels=("q1", "q2", "u1", "u2"),
                                      kind="disk", dim_base=2)
        p1 = disk_momentum(params, surface, z0[:2], z0[2:])
        reduced = integrate_autonomous(
            disk_magnetic_rhs(params, surface), np.concatenate([z0[:2], p1]),
            2.0, RK4, state_labels=("Q1", "Q2", "P1_1", "P1_2"),
            kind="reduced_magnetic", dim_base=2)
        assert np.max(np.abs(direct.values[:, :2]
                             - reduced.values[:, :2])) < 1e-6

    def test_momentum_and_velocity_maps_are_inverse(self):
        params = DiskParams()
        surface = sphere_surface(1.0)
        q = np.array([1.0, 0.4])
        u = np.array([0.3, -0.2])
        p1 = disk_momentum(params, surface, q, u)
        assert np.max(np.abs(disk_velocity(params, surface, q, p1) - u)) \
            < 1e-12

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            DiskParams(mass=0.0)
        assert DiskParams(inertia_axial=2.0, omega_axial=1.5).mu == 3.0


def _wavy_surface():
    # Both coefficients vary in both coordinates, so each row of dM has
    # two nonzero products.
    def jet(q):
        x, y = q
        a11 = 2.0 + math.sin(x) * math.cos(y)
        a22 = 1.0 + x ** 2 + 0.5 * y ** 2
        s11, s22 = math.sqrt(a11), math.sqrt(a22)
        return (a11, a22,
                (math.cos(x) * math.cos(y) / (2.0 * s11),
                 -math.sin(x) * math.sin(y) / (2.0 * s11)),
                (x / s22, 0.5 * y / s22))

    return SurfaceMetric(jet=jet, name="wavy")


# (label, surface, disk parameters, sampling box inside the chart domain).
# The sphere box stops 0.3 short of the poles: near them H grows like
# 1 / sin^2 q1 and the central-difference reference, not the closed form,
# misses 1e-8 (test_grad_q_on_sphere_matches_analytic covers the poles).
DISK_CASES = [
    ("sphere", sphere_surface(1.3), DiskParams(),
     ((0.3, math.pi - 0.3), (-3.0, 3.0))),
    ("plane", plane_surface(), DiskParams(mass=2.0),
     ((-3.0, 3.0), (-3.0, 3.0))),
    ("exponential", exponential_surface(), DiskParams(),
     ((-1.0, 1.0), (-3.0, 3.0))),
    ("wavy", _wavy_surface(), DiskParams(mass=0.7),
     ((-2.0, 2.0), (-2.0, 2.0))),
]


def _disk_points(box, n=25, seed=7):
    rng = np.random.default_rng(seed)
    (lo1, hi1), (lo2, hi2) = box
    return np.column_stack([rng.uniform(lo1, hi1, n),
                            rng.uniform(lo2, hi2, n)])


class TestDiskClosedForms:
    """Closed-form mass-matrix derivatives and 2 x 2 solves against the
    finite-difference and np.linalg references."""

    @pytest.mark.parametrize("label, surface, params, box", DISK_CASES,
                             ids=[case[0] for case in DISK_CASES])
    def test_mass_derivatives_match_finite_differences(self, label, surface,
                                                       params, box):
        for q in _disk_points(box):
            mass, dmass, _, _ = _disk_geometry(params, surface, q)
            assert np.array_equal(mass, disk_mass_matrix(params, surface, q))
            want = fd.jacobian(
                lambda x: disk_mass_matrix(params, surface, x), q)
            assert np.max(np.abs(np.array(dmass) - want)) < 1e-8

    @pytest.mark.parametrize("label, surface, params, box", DISK_CASES,
                             ids=[case[0] for case in DISK_CASES])
    def test_grad_q_matches_gradient_of_hamiltonian(self, label, surface,
                                                    params, box):
        # Without spin B = 0, so the field's dP1 is -grad_Q H for the
        # kinetic Hamiltonian H = (1/2) P1 . M(Q)^{-1} P1.
        spinless = replace(params, omega_axial=0.0)
        rhs = disk_magnetic_rhs(spinless, surface)
        rng = np.random.default_rng(11)
        for q in _disk_points(box):
            p1 = rng.normal(size=2)
            want = fd.gradient(lambda x: 0.5 * p1 @ disk_velocity(
                spinless, surface, x, p1), q)
            got = -np.array(rhs(np.concatenate([q, p1])))[2:]
            assert np.max(np.abs(got - want)) < 1e-8

    def test_grad_q_on_sphere_matches_analytic(self):
        # H = (P1^2 + P2^2 / sin^2 q1) / (2 m R^2) on the round sphere, so
        # dH/dq1 = -P2^2 cos q1 / (m R^2 sin^3 q1) and dH/dq2 = 0; without
        # spin the field's dP1 is -grad_Q H.
        params, radius = DiskParams(mass=0.8, omega_axial=0.0), 1.3
        rhs = disk_magnetic_rhs(params, sphere_surface(radius))
        rng = np.random.default_rng(5)
        for q in _disk_points(((0.02, math.pi - 0.02), (-3.0, 3.0)), n=200):
            p1 = rng.normal(size=2)
            want = -p1[1] ** 2 * math.cos(q[0]) / (
                params.mass * radius ** 2 * math.sin(q[0]) ** 3)
            got = -np.array(rhs(np.concatenate([q, p1])))[2:]
            assert abs(got[0] - want) <= 1e-12 * max(1.0, abs(want))
            assert got[1] == 0.0

    def test_solve2_matches_linalg_on_spd_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            b = rng.normal(size=(2, 2))
            a = b @ b.T + 0.5 * np.eye(2)
            rhs = rng.normal(size=2)
            want = np.linalg.solve(a, rhs)
            err = np.max(np.abs(_solve2(a.tolist(), rhs) - want))
            assert err <= 1e-13 * np.max(np.abs(want))

    def test_solve2_rejects_singular_matrix(self):
        with pytest.raises(np.linalg.LinAlgError):
            _solve2([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])


def same_bits(got, want):
    return np.asarray(got, dtype=float).tobytes() == \
        np.asarray(want, dtype=float).tobytes()


# On these surfaces every entry of dM but d_1 M_22 is zero, so each dot
# product of the numpy fields has at most one nonzero product and rounds
# alike with or without a fused multiply-add.
FMA_FREE = ("sphere", "plane", "exponential")


class TestFloatDiskPath:
    """The float disk path against the numpy formulas it replaced
    (tests/conftest.py, disk_reference), at 200 states per case."""

    @pytest.mark.parametrize("label, surface, params, box", DISK_CASES,
                             ids=[case[0] for case in DISK_CASES])
    def test_geometry_is_the_numpy_geometry_bit_for_bit(
            self, disk_reference, label, surface, params, box):
        for q in _disk_points(box, n=200):
            assert same_bits(gaussian_curvature(surface, q),
                             disk_reference.gaussian_curvature(surface, q))
            assert same_bits(
                curvature_identity_residual(surface, q),
                disk_reference.curvature_identity_residual(surface, q))
            assert same_bits(
                disk_mass_matrix(params, surface, q),
                disk_reference.disk_mass_matrix(params, surface, q))

    @pytest.mark.parametrize("label, surface, params, box", DISK_CASES,
                             ids=[case[0] for case in DISK_CASES])
    def test_fields_are_the_numpy_fields(self, disk_reference, label,
                                         surface, params, box):
        fields = [(spinning_disk_rhs(params, surface),
                   disk_reference.spinning_disk_rhs(params, surface)),
                  (disk_magnetic_rhs(params, surface),
                   disk_reference.magnetic_field(params, surface))]
        rng = np.random.default_rng(13)
        for q in _disk_points(box, n=200):
            z = np.concatenate([q, rng.normal(size=2)])
            for got_field, want_field in fields:
                got, want = got_field(z), want_field(z)
                if label in FMA_FREE:
                    assert same_bits(got, want), z
                else:
                    # Two nonzero products meet in one dot product here,
                    # which numpy's BLAS may fuse into one multiply-add;
                    # the float path rounds each product.
                    assert np.max(np.abs(got - want)) \
                        <= 1e-13 * max(1.0, np.max(np.abs(want))), z


class TestSurfaceContract:
    """Surface callables get pairs of floats and may return any pair."""

    @pytest.mark.parametrize("style", ["array_sphere", "tuple_sphere"])
    def test_either_pair_style_gives_the_numpy_results(
            self, disk_reference, style):
        # The oracle runs on the sphere whose partials return arrays, as
        # the shipped sphere's did when the oracle was the code.
        params = DiskParams()
        old = disk_reference.array_sphere(1.3)
        surface = getattr(disk_reference, style)(1.3)
        fields = [(spinning_disk_rhs(params, surface),
                   disk_reference.spinning_disk_rhs(params, old)),
                  (disk_magnetic_rhs(params, surface),
                   disk_reference.magnetic_field(params, old))]
        rng = np.random.default_rng(17)
        for q in _disk_points(((0.3, math.pi - 0.3), (-3.0, 3.0)), n=200):
            z = np.concatenate([q, rng.normal(size=2)])
            for got_field, want_field in fields:
                assert same_bits(got_field(z), want_field(z)), z
            assert same_bits(gaussian_curvature(surface, q),
                             disk_reference.gaussian_curvature(old, q))
            assert same_bits(
                curvature_identity_residual(surface, q),
                disk_reference.curvature_identity_residual(old, q))

    @pytest.mark.parametrize("surface, q", [
        (sphere_surface(1.0), (0.001, 0.3)),
        (sphere_surface(1.0), (math.pi - 0.01, -1.0)),
        (sphere_surface(1.0), (math.nan, 0.0)),
        (exponential_surface(), (10.5, 0.0)),
    ], ids=["sphere-north", "sphere-south", "nan", "exponential"])
    def test_float_domain_check_gives_the_array_message(self, surface, q):
        with pytest.raises(DomainError) as want:
            surface.require_in_domain(np.array(q))
        params = DiskParams()
        z = np.array([*q, 0.1, 0.2])
        for field in (spinning_disk_rhs(params, surface),
                      disk_magnetic_rhs(params, surface)):
            with pytest.raises(DomainError) as got:
                field(z)
            assert str(got.value) == str(want.value)

    def test_residual_rejects_a_stencil_point_as_before(self, disk_reference):
        # q is inside the chart but q - h e1 is not: the connection at the
        # stencil point raises, with that point in the message.
        surface = sphere_surface(1.0)
        q = np.array([0.02 + 1e-6, 0.3])
        with pytest.raises(DomainError) as want:
            disk_reference.curvature_identity_residual(surface, q)
        with pytest.raises(DomainError) as got:
            curvature_identity_residual(surface, q)
        assert str(got.value) == str(want.value)
        assert "[0.01999" in str(got.value)

    def test_partials_keep_their_array_contract(self):
        # A jet may return its partials as any pair of reals: disk_connection
        # reads them with float() and returns an array.
        for surface in (sphere_surface(1.0), _wavy_surface()):
            q = (1.1, 0.4)
            a11, a22, d11, d22 = surface.jet(q)
            array_jet = replace(surface, jet=lambda x: (
                a11, a22, np.array(d11), np.array(d22)))
            got = disk_connection(surface, np.array(q))
            assert isinstance(got, np.ndarray) and got.shape == (2,)
            assert same_bits(got, [d11[1] / math.sqrt(a22),
                                   -d22[0] / math.sqrt(a11)])
            assert same_bits(disk_connection(array_jet, np.array(q)), got)


SHIPPED_SURFACES = {
    "sphere": lambda: sphere_surface(1.3),
    "plane": plane_surface,
    "exponential": exponential_surface,
}


class TestSurfaceJets:
    @pytest.mark.parametrize("name", sorted(SHIPPED_SURFACES))
    def test_partial_slots_match_differences_of_the_roots(self, name):
        # JET_TOL's bound: h = 1e-6 max(1, |q|_inf) and |q| <= 3.
        surface = SHIPPED_SURFACES[name]()
        (lo1, hi1), (lo2, hi2) = surface.domain
        box = ((max(lo1, -3.0), min(hi1, 3.0)), (max(lo2, -3.0),
                                                 min(hi2, 3.0)))
        for q in _disk_points(box, n=300, seed=37):
            got = surface.jet(tuple(q.tolist()))
            for j in (0, 1):
                want = fd.gradient(
                    lambda x: math.sqrt(surface.jet(tuple(x.tolist()))[j]), q)
                scale = max(1.0, math.sqrt(got[j]))
                gap = np.max(np.abs(np.array(got[2 + j]) - want))
                assert gap <= JET_TOL * scale, (name, j, q)

    @pytest.mark.parametrize("make_field",
                             [spinning_disk_rhs, disk_magnetic_rhs],
                             ids=["lagrangian", "magnetic"])
    def test_each_field_call_calls_the_jet_five_times(self, make_field):
        # Once at q for the mass matrix and its derivatives, once at each
        # point of the curvature stencil; every point a tuple of floats.
        surface = sphere_surface(1.0)
        calls = []

        def jet(q):
            calls.append(q)
            return surface.jet(q)

        field = make_field(DiskParams(), replace(surface, jet=jet))
        field(np.array([1.0, 0.3, 0.1, 0.5]))
        assert len(calls) == 5
        assert calls[0] == (1.0, 0.3)
        assert all(type(p) is tuple and list(map(type, p)) == [float, float]
                   for p in calls)


def closed_form_particle_1d(x, tau, trap=1.0, alpha=0.7, beta=0.4):
    """U of particle_potential_1d, written out by hand."""
    c = alpha * math.sin(x[0])
    s = beta * math.cos(x[0])
    return 0.5 * trap * x[0] ** 2 + c * math.cos(tau) + s * math.sin(tau)


def closed_form_particle_2d(x, tau, trap=1.0, alpha=0.7, beta=0.4):
    """U of particle_potential_2d, written out by hand."""
    c = alpha * math.sin(float(np.array([1.0, 0.3]) @ x))
    s = beta * math.cos(float(np.array([0.7, -1.0]) @ x))
    return (0.5 * trap * float(x @ x) + c * math.cos(tau)
            + s * math.sin(tau))


def constant_jet(x):
    """Jet of the harmonic c = 1, s = 0 on a 1-d base."""
    return 1.0, 0.0, [0.0], [0.0], [[0.0]], [[0.0]], [[[0.0]]], [[[0.0]]]


class TestOscillatingPotential:
    def test_harmonic_index_positive(self):
        for k in (0, 1.5, 2.0, -1):
            with pytest.raises(ValueError, match="k"):
                HarmonicMode(k=k, jet=constant_jet)
        mode = HarmonicMode(k=np.int64(2), jet=constant_jet)
        assert mode.k == 2

    def test_mean_via_quadrature_matches_declared(self, spectral_reference):
        pot = particle_potential_1d()
        x = np.array([0.8])
        ref = spectral_reference(closed_form_particle_1d, x)
        assert abs(ref.mean - pot.mean(x.tolist())[0]) < 1e-12

    @pytest.mark.parametrize("pot, closed_form, dim", [
        (particle_potential_1d(), closed_form_particle_1d, 1),
        (particle_potential_2d(), closed_form_particle_2d, 2),
    ], ids=["1d", "2d"])
    def test_U_rounds_as_the_closed_form(self, pot, closed_form, dim):
        # The particle experiment's U1 reads U, so U must round as the
        # closed form does for its output files to keep their bytes.
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.uniform(-3.0, 3.0, dim)
            tau = float(rng.uniform(0.0, 1e4))
            assert pot.U(x, tau) == closed_form(x, tau), (x, tau)


class TestAntiderivatives:
    def test_spectral_path_matches_mode_path(self, spectral_reference):
        # V = sum (c sin - s cos) / k and S = -sum (c cos + s sin) / k^2
        # for the one harmonic of particle_potential_1d.
        x = np.array([0.8])
        ref = spectral_reference(closed_form_particle_1d, x)
        tau = FIBER_GRID
        want_V = (0.7 * math.sin(0.8) * np.sin(tau)
                  - 0.4 * math.cos(0.8) * np.cos(tau))
        want_S = -(0.7 * math.sin(0.8) * np.cos(tau)
                   + 0.4 * math.cos(0.8) * np.sin(tau))
        assert np.max(np.abs(ref.V - want_V)) < 1e-10
        assert np.max(np.abs(ref.S - want_S)) < 1e-10

    def test_constant_potential_has_zero_antiderivative(self):
        # No harmonics: U is its mean and both antiderivative means vanish.
        pot = OscillatingPotential(
            dim_base=1, fourier_modes=(),
            mean=lambda x: (0.5 * x[0] ** 2, [x[0]]))
        x = np.array([0.7])
        assert mean_grad_antiderivative_sq(pot, x) == 0.0
        assert np.array_equal(mean_hess_cross_term(pot, x), [0.0])
        assert pot.U(x, 1.3) == pot.mean(x.tolist())[0]


class TestParticleMeans:
    def test_mean_grad_sq_closed_form(self):
        pot = particle_potential_1d()
        for x in (0.0, 0.8, -1.4, 2.2):
            got = mean_grad_antiderivative_sq(pot, np.array([x]))
            assert abs(got - closed_mean_vv(x)) < 1e-12

    def test_mean_cross_term_closed_form(self):
        # <S'' V'> = alpha beta / 2, independent of x.
        pot = particle_potential_1d(alpha=0.7, beta=0.4)
        for x in (0.0, 0.8, -1.4):
            got = mean_hess_cross_term(pot, np.array([x]))
            assert abs(got[0] - 0.14) < 1e-12

    def test_spectral_fallback_agrees(self, spectral_reference):
        pot = particle_potential_1d()
        x = np.array([0.8])
        ref = spectral_reference(closed_form_particle_1d, x)
        assert abs(ref.mean_vv - mean_grad_antiderivative_sq(pot, x)) < 1e-8
        assert np.max(np.abs(ref.mean_cross
                             - mean_hess_cross_term(pot, x))) < 1e-6


class TestAveragedParticle:
    def test_slow_hamiltonian_assembly(self):
        eps, mu = 0.05, 1.3
        pot = particle_potential_1d(trap=1.0, alpha=0.7, beta=0.4)
        avg = oscillating_particle_averaged(pot, eps, mu)
        a0, h0, U0 = avg.slow([0.8])[:3]
        want_U0 = (0.32 + 0.5 * eps ** 2 * mu ** 2
                   * closed_mean_vv(0.8))
        assert abs(U0 - want_U0) < 1e-10
        assert abs(a0[0] + eps ** 3 * 0.14) < 1e-12
        assert h0 == 0.0
        x = np.array([0.8])
        assert abs(mean_hess_cross_term(pot, x)[0] - 0.14) < 1e-12
        assert "note" in avg.diagnostics

    def test_epsilon_scaling_exponents(self):
        pot = particle_potential_1d()
        mu = 1.0
        x = np.array([0.8])
        a1, _, U1 = oscillating_particle_averaged(pot, 0.04, mu).slow(
            [0.8])[:3]
        a2, _, U2 = oscillating_particle_averaged(pot, 0.02, mu).slow(
            [0.8])[:3]
        ubar = pot.mean(x.tolist())[0]
        ratio_U = (U1 - ubar) / (U2 - ubar)
        ratio_a = a1[0] / a2[0]
        assert abs(ratio_U - 4.0) < 1e-10
        assert abs(ratio_a - 8.0) < 1e-10

    def test_two_dimensional_magnetic_form(self):
        pot = particle_potential_2d()
        x = np.array([0.3, -0.4])
        avg1 = oscillating_particle_averaged(pot, 0.05, 1.0)
        avg2 = oscillating_particle_averaged(pot, 0.025, 1.0)
        B1 = magnetic_form(avg1, x)
        B2 = magnetic_form(avg2, x)
        assert np.max(np.abs(B1)) > 1e-8
        assert np.max(np.abs(B1 + B1.T)) < 1e-12 * max(1.0, np.max(np.abs(B1)))
        assert abs(B1[0, 1] / B2[0, 1] - 8.0) < 1e-4

    # a0 = O(eps^3) ~ 1e-4 for the particle, so a 1e-12 gap in its
    # Jacobian is a relative 1e-8. The uniform field's a0 is linear and of
    # size 0.2, so its difference quotient is off by rounding alone, some
    # ulps of 0.2 over the step 1e-6: about 4e-11 each.
    @pytest.mark.parametrize("avg, x, a0_tol", [
        (oscillating_particle_averaged(particle_potential_1d(), 0.05, 1.3),
         np.array([0.8]), 1e-12),
        (oscillating_particle_averaged(particle_potential_2d(), 0.05, 1.3),
         np.array([0.4, -0.3]), 1e-12),
        (uniform_field_averaged(0.8, 1.3), np.array([0.4, -0.3]), 1e-9),
    ], ids=["pot0-x0", "pot1-x1", "uniform-field"])
    def test_closed_form_gradients_match_differences(self, avg, x, a0_tol):
        def slot(k):
            return lambda q: avg.slow(q.tolist())[k]

        jet = avg.slow(x.tolist())
        assert np.max(np.abs(jet[5] - fd.gradient(slot(2), x))) < 1e-8
        assert np.max(np.abs(jet[4] - fd.gradient(slot(1), x))) < 1e-8
        assert np.max(np.abs(jet[3] - fd.jacobian(slot(0), x))) < a0_tol

    def test_invariant_metric_reproduces_reference(self):
        # Fiber inertia 1 / (eps^2 <V'.V'>), connection eps^3 <S'' V'>.
        eps = 0.05
        pot = particle_potential_1d()
        metric = particle_invariant_metric(pot, eps,
                                           sample_points=(np.array([0.8]),))
        x = np.array([0.8])
        assert abs(fiber_inertia(metric, x)
                   - 1.0 / (eps ** 2 * closed_mean_vv(0.8))) < 1e-10
        assert np.max(np.abs(mechanical_connection(metric, x)
                             - eps ** 3 * 0.14)) < 1e-12

    @pytest.mark.parametrize("modes", [
        (),
        # V' is proportional to dc = 2x, which vanishes at the sample x = 0.
        (HarmonicMode(k=1, jet=lambda x: (
            x[0] ** 2, 0.0, [2.0 * x[0]], [0.0], [[2.0]], [[0.0]],
            [[[0.0]]], [[[0.0]]])),),
    ], ids=["no_modes", "zero_gradient"])
    def test_invariant_metric_rejects_degenerate_fiber_inertia(self, modes):
        pot = OscillatingPotential(
            dim_base=1, fourier_modes=modes,
            mean=lambda x: (0.5 * x[0] ** 2, [x[0]]))
        with pytest.raises(ValueError,
                           match=r"degenerate fiber inertia .* at q=\[0\.\]"):
            particle_invariant_metric(pot, 0.05,
                                      sample_points=(np.array([0.0]),))

    def test_weak_suspension_average_keeps_slow_mean(self):
        pot = particle_potential_1d()
        system, avg = particle_systems(pot, epsilon=1e-2, mu=1.0)
        x = np.array([0.8])
        ubar = pot.mean([0.8])[0]
        assert abs(avg.slow([0.8])[2] - ubar) < 1e-14
        # The oscillation enters the suspension at order eps.
        U0, U1 = system.slow([0.8])[2], system.fast([0.8], 0.3)[2]
        gap = U0 + system.epsilon * U1 - ubar
        want = 1e-2 * (pot.U(x, 0.3) - ubar)
        assert abs(gap - want) < 1e-14


# The central differences below step by h = 1e-6 max(1, |q|_inf) in q
# and 1e-6 in phi. Truncation costs at most h^2 |f^(3)| / 6, below 1e-11
# for |q| <= 3 and third derivatives of order 10; rounding costs about
# k ulps of |f| over h, 1e-10 k |f|, for values each rounded some k <= 10
# times. So the hand-fused slots must match to 2e-9 max(1, |f|).
JET_TOL = 2e-9

SHIPPED_JETS = {
    "pendulum": lambda: pendulum_systems(PendulumParams(
        length=1.7, gravity=1.3, amplitude=0.6, mu=2.2, epsilon=0.01))[0],
    "particle_1d": lambda: particle_systems(particle_potential_1d(),
                                            epsilon=0.01, mu=1.0)[0],
    "particle_2d": lambda: particle_systems(particle_potential_2d(),
                                            epsilon=0.01, mu=1.3)[0],
}


# Each potential's harmonic jets and its mean jet, built with the
# pendulum_drive fixture where it needs it.
POTENTIALS = {
    "particle_1d": lambda drive: particle_potential_1d(),
    "particle_2d": lambda drive: particle_potential_2d(),
    "pendulum_drive": lambda drive: drive(PendulumParams(
        length=1.7, gravity=1.3, amplitude=0.6, mu=2.2, epsilon=0.01)),
}

# (derivative slot, slot below it) in a harmonic jet: dc of c, ds of s,
# d2c of dc, d2s of ds, d3c of d2c and d3s of d2s.
HARMONIC_SLOT_PAIRS = ((2, 0), (3, 1), (4, 2), (5, 3), (6, 4), (7, 5))


def counted_harmonics(pot):
    """pot with each harmonic jet logging its calls, and the log."""
    calls = []

    def counted(jet):
        def wrapped(x):
            calls.append(x)
            return jet(x)
        return wrapped

    return replace(pot, fourier_modes=tuple(
        HarmonicMode(k=m.k, jet=counted(m.jet))
        for m in pot.fourier_modes)), calls


def value_jets(system):
    """The value slots of a system's jets, taking q as an array."""
    return (lambda q: system.slow(q.tolist())[:3],
            lambda q, phi: system.fast(q.tolist(), phi)[:3])


class TestJets:
    @pytest.mark.parametrize("name", sorted(SHIPPED_JETS))
    def test_derivative_slots_match_differences_of_the_values(self, name):
        system = SHIPPED_JETS[name]()
        slow_fd, fast_fd = difference_jets(*value_jets(system))
        rng = np.random.default_rng(23)
        for _ in range(300):
            q = rng.uniform(-3.0, 3.0, system.dim_base)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            for got, want in ((system.slow(q.tolist()), slow_fd(q)),
                              (system.fast(q.tolist(), phi),
                               fast_fd(q, phi))):
                scale = max(1.0, *(float(np.max(np.abs(v)))
                                   for v in got[:3]))
                for slot, (g, w) in enumerate(zip(got[3:], want[3:])):
                    gap = np.max(np.abs(np.asarray(g, dtype=float)
                                        - np.asarray(w, dtype=float)))
                    assert gap <= JET_TOL * scale, (slot + 3, q, phi)

    @pytest.mark.parametrize("name", sorted(POTENTIALS))
    def test_potential_slots_match_differences_of_the_slot_below(
            self, name, pendulum_drive):
        pot = POTENTIALS[name](pendulum_drive)
        jets = [(pot.mean, ((1, 0),))] + [
            (m.jet, HARMONIC_SLOT_PAIRS) for m in pot.fourier_modes]
        rng = np.random.default_rng(31)
        for _ in range(300):
            x = rng.uniform(-3.0, 3.0, pot.dim_base)
            for jet, pairs in jets:
                got = jet(x.tolist())
                for slot, below in pairs:
                    want = fd.jacobian(
                        lambda y: jet(y.tolist())[below], x)
                    scale = max(1.0, float(np.max(np.abs(
                        np.asarray(got[below], dtype=float)))))
                    gap = np.max(np.abs(np.asarray(got[slot], dtype=float)
                                        - want))
                    assert gap <= JET_TOL * scale, (slot, x)

    @pytest.mark.parametrize("make_pot",
                             [particle_potential_1d, particle_potential_2d],
                             ids=["1d", "2d"])
    def test_each_jet_call_calls_each_harmonic_jet_once(self, make_pot):
        # The full field and the energy log call the fast jet, and the
        # averaged particle's reduced field and energy log its slow jet;
        # each of those calls calls the one harmonic jet once.
        pot, harmonic_calls = counted_harmonics(make_pot())
        n = pot.dim_base
        system = particle_systems(pot, epsilon=0.01, mu=1.0)[0]
        avg = oscillating_particle_averaged(pot, 0.05, 1.3)
        jet_calls = []

        def fast(q, phi):
            jet_calls.append(q)
            return system.fast(q, phi)

        def slow(q):
            jet_calls.append(q)
            return avg.slow(q)

        rk4 = IntegratorConfig(method="rk4", dt=0.1)
        harmonic_calls.clear()
        system.slow([0.8] * n)
        assert harmonic_calls == []
        full = integrate_full(
            replace(system, fast=fast),
            PhaseStateFull(q=np.full(n, 0.8), p=np.full(n, 0.3), phi=0.0,
                           gamma=1.0), 1.0, rk4)
        assert len(jet_calls) == len(harmonic_calls) > 4 * (len(full) - 1)
        jet_calls.clear()
        harmonic_calls.clear()
        reduced = integrate_reduced_magnetic(
            replace(avg, slow=slow),
            PhaseStateReduced(Q=np.full(n, 0.8), P=np.full(n, 0.3),
                              chart="magnetic"), 1.0, rk4)
        assert len(jet_calls) == len(harmonic_calls) > 4 * (len(reduced) - 1)

    def test_difference_jets_are_the_stencils_exactly(self):
        def a0(q):
            return np.array([np.sin(q[0]) * q[1], q[0] ** 2])

        def h0(q):
            return 2.0 + np.cos(q[1]) * q[0]

        def U0(q):
            return 0.5 * float(q @ q) + np.sin(q[0] * q[1])

        def a1(q, phi):
            return np.array([np.cos(phi) * q[0], np.sin(2.0 * phi) * q[1]])

        def h1(q, phi):
            return np.cos(phi) * q[1] ** 2

        def U1(q, phi):
            return np.sin(phi) * q[0] * q[1]

        slow, fast = difference_jets(
            lambda q: (a0(q), h0(q), U0(q)),
            lambda q, phi: (a1(q, phi), h1(q, phi), U1(q, phi)))
        rng = np.random.default_rng(29)
        for _ in range(100):
            q = rng.uniform(-3.0, 3.0, 2)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            want_slow = (a0(q), h0(q), U0(q), fd.jacobian(a0, q),
                         fd.gradient(h0, q), fd.gradient(U0, q))
            want_fast = (a1(q, phi), h1(q, phi), U1(q, phi),
                         fd.jacobian(lambda x: a1(x, phi), q),
                         fd.gradient(lambda x: h1(x, phi), q),
                         fd.gradient(lambda x: U1(x, phi), q),
                         fd.phi_derivative(a1, q, phi),
                         float(fd.phi_derivative(h1, q, phi)),
                         float(fd.phi_derivative(U1, q, phi)))
            for got, want in ((slow(q.tolist()), want_slow),
                              (fast(q.tolist(), phi), want_fast)):
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert np.asarray(g, dtype=float).tobytes() == \
                        np.asarray(w, dtype=float).tobytes()


class TestRegistry:
    def test_expected_examples_present(self):
        assert set(TABLE) == {"pendulum", "disk", "particle", "euler",
                              "custom"}
        # custom's algebra_file has an empty default: it is required.
        for info in (TABLE[n] for n in ("pendulum", "disk", "particle")):
            assert info.summary
            for name, default, doc in info.parameters:
                assert name and default and doc

    def test_defaults_match_dataclasses(self):
        params = dict((n, d) for n, d, _ in TABLE["pendulum"].parameters)
        assert float(params["mu"]) == PendulumParams().mu
        assert float(params["amplitude"]) == PendulumParams().amplitude
