"""Worked fast-slow systems: pendulum, spinning disk, driven particle.

Three mechanisms produce the same averaged structure:

* A pendulum whose suspension point vibrates vertically at frequency
  omega = mu / epsilon. The suspension trick recasts the strong drive
  as a fast fiber with conserved momentum; averaging yields the
  effective potential (1/4) mu^2 amp^2 sin^2(theta) - g l cos(theta),
  which stabilizes the upright position once mu^2 amp^2 > 2 g l.

* A disk spinning fast about its axis while the axis stays normal to a
  curved surface. Reduction by the spin produces a Lorentz-like force
  proportional to the Gaussian curvature of the surface: the force on
  the Euler-Lagrange side is sqrt(a11 a22) mu K [[0, -1], [1, 0]] qdot,
  matching the magnetic chart with B = sqrt(a11 a22) mu K [[0,1],[-1,0]].

* A particle in a rapidly oscillating potential. With V and S the
  zero-mean first and second time-antiderivatives of the oscillating
  part, the slow system sees the corrected potential
  Ubar + (eps^2 mu^2 / 2) <V'.V'> and, at the next order, a magnetic
  vector coefficient mu a0 = -eps^3 mu <S'' V'> (primes are spatial
  derivatives, angle brackets fiber means). The corrected coefficients
  have h0 = 0, so h0 - a0.a0 < 0: this averaged system is not the
  reduction of any Riemannian bundle metric, which is why the sign is
  only diagnosed, never enforced. The potential is declared by jets: each
  harmonic gives its two coefficients and their first three spatial
  derivatives from one call, the fiber mean its value and gradient, and
  every particle jet and fiber mean calls each of them once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .averaging import TWO_PI, AveragedSystem, FastSlowSystem, \
    _check_finite, _dot, _floats, average_coefficients
from .bundle_geometry import TrivialBundleMetric
from .integrators import IntegrationError, Trajectory, _check_horizon, \
    _raise_at_step, _step_plan

# ---------------------------------------------------------------------------
# Vertically driven pendulum


@dataclass(frozen=True)
class PendulumParams:
    """Pendulum with vertically vibrating suspension.

    length and gravity set the slow pendulum, amplitude the suspension
    stroke (per unit of mu), mu the conserved fast momentum and epsilon
    the timescale ratio; the drive frequency is omega = mu / epsilon.
    """

    length: float = 1.0
    gravity: float = 1.0
    amplitude: float = 0.5
    mu: float = 3.0
    epsilon: float = 5e-3

    def __post_init__(self) -> None:
        for name in ("length", "gravity", "amplitude", "epsilon"):
            _check_finite(name, getattr(self, name), positive=True)
        _check_finite("mu", self.mu)

    @property
    def omega(self) -> float:
        return self.mu / self.epsilon

    @property
    def stability_threshold(self) -> float:
        """Critical mu above which the upright position is stable.

        From (1/2) mu^2 amp^2 = g l: mu* = sqrt(2 g l) / amp.
        """
        return math.sqrt(2.0 * self.gravity * self.length) / self.amplitude


def pendulum_systems(params: PendulumParams,
                     fiber_floor: float = 1.0
                     ) -> tuple[FastSlowSystem, AveragedSystem]:
    """Fast-slow suspension of the driven pendulum and its average.

    Works in the arclength chart x = length * theta. The suspension
    trick adds a fiber circle carrying the drive phase; fiber_floor, a
    finite float, is the x-independent part of the fiber inertia (any
    positive value gives the same slow dynamics because the induced
    constant potential shift is absorbed into U0). The averaged
    effective potential is

        (1/4) mu^2 amp^2 sin^2(x / l) - g l cos(x / l)

    exactly, for every fiber_floor. The two jets share sin and cos of
    x / l, and the fast jet those of phi and 2 phi. The averaged system
    holds the same slow jet (average_coefficients).
    """
    l = params.length
    g = params.gravity
    amp = params.amplitude
    amp2 = amp ** 2
    c = float(fiber_floor)
    _check_finite("fiber_floor", c)
    shift = 0.5 * params.mu ** 2 * c

    def slow(q):
        x = q[0] / l
        sx, cx = math.sin(x), math.cos(x)
        return ([0.0], c + 0.5 * amp2 * sx ** 2, -g * l * cx - shift,
                [[0.0]], [amp2 * sx * cx / l], [g * sx])

    def fast(q, phi):
        x = q[0] / l
        sx, cx = math.sin(x), math.cos(x)
        sx2 = sx ** 2
        sp, cp = math.sin(phi), math.cos(phi)
        s2p, c2p = math.sin(2.0 * phi), math.cos(2.0 * phi)
        return ([-amp * sp * sx], -0.5 * amp2 * c2p * sx2, -g * amp * cp,
                [[-amp / l * sp * cx]], [-amp2 / l * c2p * sx * cx], [0.0],
                [-amp * cp * sx], amp2 * s2p * sx2, g * amp * sp)

    system = FastSlowSystem(dim_base=1, slow=slow, fast=fast,
                            epsilon=params.epsilon, mu=params.mu)
    # Validation samples stay off the zeros of sin(x / l) so that a zero
    # fiber_floor still passes the positivity check.
    samples = [np.array([l * t]) for t in (0.9, 2.0, -1.1, 2.8)]
    averaged = average_coefficients(system, sample_points=samples)
    return system, averaged


def simulate_physical_pendulum(params: PendulumParams, theta0: float,
                               p0: float, horizon: float | None = None,
                               store_every: int | None = None,
                               stop_when: Callable[[float, float, float],
                                                   bool] | None = None
                               ) -> Trajectory:
    """Integrate the driven pendulum itself, with no averaging.

    The Hamiltonian in physical time is

        H = (p - amp mu l sin(phi) sin(theta))^2 / (2 l^2)
            - g l cos(theta),      phi = omega t,  omega = mu / epsilon,

    i.e. the drive enters at strength O(1/epsilon); this is the system
    the averaged pendulum approximates. Integration is classical RK4
    with a step dt of a 64th of the drive period on the clock of
    integrate_autonomous: the steps of _step_plan(horizon, dt), node k
    at k dt, the last at horizon, and the drive phase omega t from the
    time t of each step's first node. horizon defaults to 1/epsilon.
    stop_when(t, theta, p) aborts the run early when it returns True
    (the trigger time is stored in meta["stopped_at"]). Every accepted
    step is offered to stop_when even when only each store_every-th
    state is kept. A horizon _step_plan refuses and the errors of a step
    are raised as integrate_autonomous raises them; a horizon beyond
    10 / epsilon is refused as integrate_full refuses it, after the
    step-count checks and before the first step.
    """
    l = params.length
    g = params.gravity
    amp = params.amplitude
    omega = params.omega
    if horizon is None:
        horizon = 1.0 / params.epsilon
    dt = (TWO_PI / omega) / 64.0
    n, rem, steps = _step_plan(horizon, dt)
    _check_horizon(horizon, params.epsilon)
    if store_every is None:
        store_every = max(1, int(math.ceil(steps / 20000)))

    gl = g * l
    inv_l2 = 1.0 / (l * l)
    aml = amp * params.mu * l

    def rhs(theta: float, p: float, phi: float) -> tuple[float, float]:
        sin_phi = math.sin(phi)
        v = (p - aml * sin_phi * math.sin(theta)) * inv_l2
        return v, v * aml * sin_phi * math.cos(theta) - gl * math.sin(theta)

    def row(t: float, theta: float, p: float) -> tuple:  # a stored node
        phi = math.fmod(omega * t, TWO_PI)
        v = (p - aml * math.sin(phi) * math.sin(theta)) * inv_l2
        return t, theta, p, phi, 0.5 * l * l * v * v - gl * math.cos(theta)

    theta, p = float(theta0), float(p0)
    rows = [row(0.0, theta, p)]
    stopped_at = None
    try:
        for k in range(steps):
            step = dt if k < n else rem
            phi = omega * (k * dt)
            k1t, k1p = rhs(theta, p, phi)
            half = 0.5 * step
            k2t, k2p = rhs(theta + half * k1t, p + half * k1p,
                           phi + half * omega)
            k3t, k3p = rhs(theta + half * k2t, p + half * k2p,
                           phi + half * omega)
            k4t, k4p = rhs(theta + step * k3t, p + step * k3p,
                           phi + step * omega)
            theta += step / 6.0 * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
            p += step / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            if not (math.isfinite(theta) and math.isfinite(p)):
                raise IntegrationError("state became non-finite")
            t = (k + 1) * dt if k + 1 < steps else horizon
            stop = stop_when is not None and stop_when(t, theta, p)
            if stop or (k + 1) % store_every == 0 or k + 1 == steps:
                rows.append(row(t, theta, p))
            if stop:
                stopped_at = t
                break
    except (IntegrationError, ValueError) as err:
        _raise_at_step(err, k, dt)

    table = np.array(rows)
    return Trajectory(
        times=table[:, 0], values=table[:, 1:4],
        state_labels=("theta", "p_theta", "phi"), kind="pendulum_physical",
        dim_base=1, invariant_log={"energy": table[:, 4]},
        meta={"omega": omega, "clock": "physical", "stopped_at": stopped_at})


# ---------------------------------------------------------------------------
# Disk spinning over a curved surface


class DomainError(ValueError):
    """A surface operation was asked for a point outside its chart."""


@dataclass(frozen=True)
class SurfaceMetric:
    """Orthogonal surface metric a11 dq1^2 + a22 dq2^2 on a chart.

    jet(q) -> (a11, a22, d_sqrt_a11, d_sqrt_a22) gives the two metric
    coefficients and the partial derivatives (d1, d2) of sqrt(a11) and
    sqrt(a22) at q from one call. q is a tuple of two floats, read as
    q[0] and q[1]. The slots follow the jet format of the averaging
    module docstring: a11 and a22 are floats, and each partial slot is a
    pair of floats (a tuple on the shipped surfaces), read as it is.
    Every point the disk code visits calls the jet once, so a disk field
    evaluation and a curvature_identity_residual each make 5 calls, and
    the code takes the square roots itself. domain holds the closed
    chart rectangle ((q1_min, q1_max), (q2_min, q2_max)) and operations
    reject points outside it.
    """

    jet: Callable[[tuple], tuple]
    domain: tuple = ((-np.inf, np.inf), (-np.inf, np.inf))
    name: str = "surface"

    def require_in_domain(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        self._check(q[0], q[1])
        return q

    def _check(self, x: float, y: float) -> None:
        """The domain check on the two coordinates of a point."""
        (lo1, hi1), (lo2, hi2) = self.domain
        if not (lo1 <= x <= hi1 and lo2 <= y <= hi2):
            raise DomainError(
                f"point {np.array([x, y])} lies outside the declared chart "
                f"domain {self.domain} of {self.name}")


def _positive_sqrt(name: str, val: float, q) -> float:
    """sqrt(val) for the jet's coefficient name at q; a value that is not
    positive raises ValueError."""
    if not val > 0.0:
        raise ValueError(f"{name} must be positive, got {val:.3e} "
                         f"at q={np.asarray(q, dtype=float)}")
    return math.sqrt(val)


def sphere_surface(radius: float = 1.0) -> SurfaceMetric:
    """Round sphere in colatitude q1 and longitude q2 (poles excluded);
    a radius that is not positive and finite raises ValueError."""
    r = float(radius)
    _check_finite("sphere radius", r, positive=True)
    return SurfaceMetric(
        jet=lambda q: (r * r, r * r * math.sin(q[0]) ** 2,
                       (0.0, 0.0), (r * math.cos(q[0]), 0.0)),
        domain=((0.02, math.pi - 0.02), (-np.inf, np.inf)),
        name=f"sphere(radius={r})")


def plane_surface() -> SurfaceMetric:
    """Euclidean plane in Cartesian coordinates."""
    return SurfaceMetric(jet=lambda q: (1.0, 1.0, (0.0, 0.0), (0.0, 0.0)),
                         name="plane")


def exponential_surface() -> SurfaceMetric:
    """Metric dq1^2 + e^{2 q1} dq2^2 of constant curvature -1."""
    return SurfaceMetric(
        jet=lambda q: (1.0, math.exp(2.0 * q[0]),
                       (0.0, 0.0), (math.exp(q[0]), 0.0)),
        domain=((-10.0, 10.0), (-np.inf, np.inf)),
        name="exponential")


def _stencil(q) -> tuple[float, tuple]:
    """Step h = 1e-5 * max(1, |q|_inf) and the points q + h e1, q - h e1,
    q + h e2, q - h e2 of the curvature stencils, for q a pair of floats.

    Each point is a tuple formed as numpy forms q +- (h, 0) and
    q +- (0, h), the zero included, so it has the same bits, the sign of
    a zero among them.
    """
    x, y = q
    h = 1e-5 * max(1.0, abs(x), abs(y))
    return h, ((x + h, y + 0.0), (x - h, y - 0.0),
               (x + 0.0, y + h), (x - 0.0, y - h))


def _curvature_divergence(h: float, points: tuple, jets) -> float:
    """d1(d1 sqrt(a22) / sqrt(a11)) + d2(d2 sqrt(a11) / sqrt(a22)) at q.

    h and points are _stencil(q) and jets the jet's values at those four
    points, in their order. The outer derivatives are central differences
    in Python floats. K is -div / sqrt(a11 a22). A coefficient that is
    not positive raises _positive_sqrt's ValueError.
    """
    # d1 sqrt(a22) / sqrt(a11) at q +- h e1, d2 sqrt(a11) / sqrt(a22) at
    # q +- h e2.
    (a1p, _, _, g1p), (a1m, _, _, g1m), (_, a2p, g2p, _), (_, a2m, g2m, _) \
        = jets
    return (((g1p[0] / (math.sqrt(a1p) if a1p > 0.0 else
                        _positive_sqrt("a11", a1p, points[0]))
              - g1m[0] / (math.sqrt(a1m) if a1m > 0.0 else
                          _positive_sqrt("a11", a1m, points[1])))
             + (g2p[1] / (math.sqrt(a2p) if a2p > 0.0 else
                          _positive_sqrt("a22", a2p, points[2]))
                - g2m[1] / (math.sqrt(a2m) if a2m > 0.0 else
                            _positive_sqrt("a22", a2m, points[3]))))
            / (2.0 * h))


def _density(surface: SurfaceMetric, q) -> float:
    """sqrt(a11) * sqrt(a22) at q, a pair of floats, from one jet call."""
    a11, a22 = surface.jet(q)[:2]
    return _positive_sqrt("a11", a11, q) * _positive_sqrt("a22", a22, q)


def gaussian_curvature(surface: SurfaceMetric, q: np.ndarray) -> float:
    """Gaussian curvature of an orthogonal metric.

    K = -(1 / sqrt(a11 a22)) [ d1( d1 sqrt(a22) / sqrt(a11) )
                             + d2( d2 sqrt(a11) / sqrt(a22) ) ].

    The inner first derivatives are the jet's partial slots; the outer
    derivatives are central differences with step
    1e-5 * max(1, |q|_inf), computed in Python floats. The jet is called
    at the four stencil points and once at q.
    """
    q = tuple(surface.require_in_domain(q).tolist())
    h, points = _stencil(q)
    return (-_curvature_divergence(h, points, map(surface.jet, points))
            / _density(surface, q))


def _connection(surface: SurfaceMetric, q) -> tuple:
    """disk_connection at q, a pair of floats, as two floats, and the jet."""
    surface._check(*q)
    a11, a22, d11, d22 = jet = surface.jet(q)
    return (d11[1] / _positive_sqrt("a22", a22, q),
            -d22[0] / _positive_sqrt("a11", a11, q), jet)


def disk_connection(surface: SurfaceMetric, q: np.ndarray) -> np.ndarray:
    """Base coefficients A(q) of the axis-normal disk connection.

    A = ( d2 sqrt(a11) / sqrt(a22), -d1 sqrt(a22) / sqrt(a11) ), the
    orientation being fixed so that the exterior derivative identity

        d(A . dq) = sqrt(a11 a22) K dq1 ^ dq2

    holds with positively oriented (q1, q2); on the round sphere
    A = (0, -cos q1).
    """
    return np.array(_connection(
        surface, tuple(np.asarray(q, dtype=float).tolist()))[:2])


def curvature_identity_residual(surface: SurfaceMetric, q) -> float:
    """Residual d(A . dq) - sqrt(a11 a22) K at q (finite differences).

    The curl of the connection is computed with central differences of
    disk_connection, so this is an independent check of the curvature
    rather than a restatement of its formula. q (an array, a list or a
    tuple) is read as two floats and checked against the chart, and so
    is each stencil point. The jet is called at each stencil point, for
    the connection and K's divergence both, and at q: 5 calls.
    """
    x, y = q
    q = (float(x), float(y))
    surface._check(*q)
    h, points = _stencil(q)
    (_, b1p, j1p), (_, b1m, j1m), (b2p, _, j2p), (b2m, _, j2m) = (
        _connection(surface, p) for p in points)
    curl = ((b1p - b1m) - (b2p - b2m)) / (2.0 * h)
    dens = _density(surface, q)
    return curl - dens * (-_curvature_divergence(
        h, points, (j1p, j1m, j2p, j2m)) / dens)


@dataclass(frozen=True)
class DiskParams:
    """Disk of mass m spinning about its surface-normal axis.

    inertia_axial is the moment about the spin axis and omega_axial the
    (fast) spin rate, so the conserved axial momentum is
    mu = inertia_axial * omega_axial. The slow kinetic energy is the
    translational (1/2) m (a11 qdot1^2 + a22 qdot2^2); the tilting of
    the axis as it follows the surface normal is not modelled.
    """

    mass: float = 1.0
    inertia_axial: float = 1.0
    omega_axial: float = 2.0

    def __post_init__(self) -> None:
        for name in ("mass", "inertia_axial"):
            _check_finite(name, getattr(self, name), positive=True)
        _check_finite("omega_axial", self.omega_axial)
        _check_finite("mu = inertia_axial * omega_axial", self.mu)

    @property
    def mu(self) -> float:
        return self.inertia_axial * self.omega_axial


def _mass_at(params: DiskParams, surface: SurfaceMetric,
             q) -> tuple[float, float]:
    """(m a11, m a22), the diagonal of M = m diag(a11, a22) at q, a pair
    of floats, from one jet call. No check is made."""
    a11, a22 = surface.jet(q)[:2]
    m = params.mass
    return m * a11, m * a22


def _solve_mass(ma11: float, ma22: float, b0: float,
                b1: float) -> tuple[float, float]:
    """M^{-1} (b0, b1) for M = diag(ma11, ma22), in floats.

    Cramer's rule for the 2 x 2 matrix [[ma11, 0], [0, ma22]] with its
    zero entries multiplied in: each product, in its order, is that of
    the general 2 x 2 Cramer solve (kept in tests/conftest.py as the
    reference), so the result has its bits, the sign of a zero and a NaN
    from 0 * inf included. A zero determinant raises LinAlgError as
    np.linalg does.
    """
    det = ma11 * ma22 - 0.0 * 0.0
    if det == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    return (ma22 * b0 - 0.0 * b1) / det, (ma11 * b1 - 0.0 * b0) / det


def _disk_local(params: DiskParams,
                surface: SurfaceMetric) -> Callable[[float, float], tuple]:
    """The local geometry both disk fields are built from.

    The returned callable maps the coordinates q1, q2 of a point to
    (m a11, m a22, d1 M11, d1 M22, d2 M11, d2 M22, c) in Python floats:
    the diagonal of M = m diag(a11, a22), the four entries of dM that
    are not identically zero, d_i M_jj = 2 m sqrt(a_jj) d_i sqrt(a_jj)
    through the jet's partial slots, and the gyroscopic coefficient
    c = sqrt(a11 a22) mu K, formed as dens * mu * (-div / dens) with
    div of _curvature_divergence. It checks the point against the chart
    and makes 5 jet calls, one at q and one at each stencil point. A
    coefficient at q that is not positive raises _positive_sqrt's
    ValueError.
    """
    m, mu = params.mass, params.mu
    two_m = 2.0 * m
    jet, check = surface.jet, surface._check

    def local(q1: float, q2: float) -> tuple:
        check(q1, q2)
        q = (q1, q2)
        a11, a22, (g11, g12), (g21, g22) = jet(q)
        s11 = math.sqrt(a11) if a11 > 0.0 else _positive_sqrt("a11", a11, q)
        s22 = math.sqrt(a22) if a22 > 0.0 else _positive_sqrt("a22", a22, q)
        c11, c22 = two_m * s11, two_m * s22
        dens = s11 * s22
        h, points = _stencil(q)
        p1, m1, p2, m2 = points
        div = _curvature_divergence(h, points,
                                    (jet(p1), jet(m1), jet(p2), jet(m2)))
        return (m * a11, m * a22, c11 * g11, c22 * g21, c11 * g12, c22 * g22,
                dens * mu * (-div / dens))

    return local


def disk_mass_matrix(params: DiskParams, surface: SurfaceMetric,
                     q: np.ndarray) -> np.ndarray:
    """Slow kinetic matrix M(q) = m diag(a11, a22)."""
    ma11, ma22 = _mass_at(params, surface, tuple(_floats(q)))
    return np.array([[ma11, 0.0], [0.0, ma22]])


def spinning_disk_rhs(params: DiskParams,
                      surface: SurfaceMetric) -> Callable[[list], list]:
    """Euler-Lagrange vector field of the reduced disk in (q, qdot).

    The slow energy is E0 = (1/2) qdot . M(q) qdot with M the disk mass
    matrix, and reduction by the fast spin adds the gyroscopic force

        sqrt(a11 a22) mu K(q) [[0, -1], [1, 0]] qdot,

    proportional to the Gaussian curvature. The returned callable maps
    z = (q1, q2, u1, u2) to its time derivative; with mu = 0 the flow
    is geodesic for M, and on a flat surface it is straight lines. The
    partial derivatives of M are closed-form. Each evaluation calls the
    local-geometry kernel _disk_local once (5 jet calls, each point a
    tuple of floats) and finishes in Python floats: the rows d_i M u
    and the dots of the force are sums from +0 in index order, the zero
    entries of M and dM included, and M is inverted by _solve_mass.
    """
    local = _disk_local(params, surface)

    def rhs(z) -> list:
        q1, q2, u0, u1 = _floats(z)
        ma11, ma22, d1m11, d1m22, d2m11, d2m22, coef = local(q1, q2)
        # d/dt (M u) - (1/2) u . d_i M u = force_i, with rows d_i M u of
        # du = [[a, b], [c, d]]: force + (1/2) du u - u . du, written out.
        a = 0.0 + d1m11 * u0 + 0.0 * u1
        b = 0.0 + 0.0 * u0 + d1m22 * u1
        c = 0.0 + d2m11 * u0 + 0.0 * u1
        d = 0.0 + 0.0 * u0 + d2m22 * u1
        return [u0, u1, *_solve_mass(
            ma11, ma22,
            coef * -u1 + 0.5 * (0.0 + a * u0 + b * u1)
            - (0.0 + u0 * a + u1 * c),
            coef * u0 + 0.5 * (0.0 + c * u0 + d * u1)
            - (0.0 + u0 * b + u1 * d))]

    return rhs


def disk_momentum(params: DiskParams, surface: SurfaceMetric,
                  q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Shifted-chart momentum P1 = M(q) u matching spinning_disk_rhs."""
    ma11, ma22 = _mass_at(params, surface, tuple(_floats(q)))
    u0, u1 = _floats(u)
    return np.array([0.0 + ma11 * u0 + 0.0 * u1, 0.0 + 0.0 * u0 + ma22 * u1])


def disk_velocity(params: DiskParams, surface: SurfaceMetric,
                  q: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """Velocity u = M(q)^{-1} P1, the inverse of disk_momentum.

    One jet call (_mass_at) and the solve of the disk fields
    (_solve_mass), so u is the magnetic field's velocity bit for bit. No
    domain check is made, as disk_mass_matrix makes none.
    """
    ma11, ma22 = _mass_at(params, surface, tuple(_floats(q)))
    b0, b1 = _floats(p1)
    return np.array(_solve_mass(ma11, ma22, b0, b1))


def disk_magnetic_rhs(params: DiskParams,
                      surface: SurfaceMetric) -> Callable[[list], list]:
    """Magnetic-chart vector field of the reduced disk in (Q, P1).

    The kinetic Hamiltonian is H = (1/2) P1 . M(Q)^{-1} P1 and the
    magnetic matrix B = sqrt(a11 a22) mu K [[0, 1], [-1, 0]], so with
    v = M^{-1} P1 the flow is

        dQ/dt = v,   dP1/dt = (1/2) v . d_i M v + B^T v,

    the Lorentz-force form of spinning_disk_rhs: B^T v is its gyroscopic
    force. The returned callable maps z = (Q1, Q2, P1_1, P1_2), a list or
    an array, to its time derivative as a list. Like spinning_disk_rhs it
    calls the local-geometry kernel _disk_local once (5 jet calls) and
    finishes in Python floats; each dot product, of dM v with v and of
    B^T v, is a sum from +0 in index order, its zero terms included.
    """
    local = _disk_local(params, surface)

    def rhs(z) -> list:
        q1, q2, p0, p1 = _floats(z)
        ma11, ma22, d1m11, d1m22, d2m11, d2m22, c = local(q1, q2)
        v0, v1 = _solve_mass(ma11, ma22, p0, p1)
        # grad_Q H = -(1/2) v . d_i M v, and the columns of
        # B = [[0.0 * c, 1.0 * c], [-1.0 * c, 0.0 * c]] dotted with v.
        a = 0.0 + d1m11 * v0 + 0.0 * v1
        b = 0.0 + 0.0 * v0 + d1m22 * v1
        d = 0.0 + d2m11 * v0 + 0.0 * v1
        e = 0.0 + 0.0 * v0 + d2m22 * v1
        g0 = -0.5 * (0.0 + a * v0 + b * v1)
        g1 = -0.5 * (0.0 + d * v0 + e * v1)
        return [v0, v1, -g0 + (0.0 + 0.0 * c * v0 + -1.0 * c * v1),
                -g1 + (0.0 + 1.0 * c * v0 + 0.0 * c * v1)]

    return rhs


# ---------------------------------------------------------------------------
# Particle in a rapidly oscillating potential


@dataclass(frozen=True)
class HarmonicMode:
    """One fiber harmonic c(x) cos(k tau) + s(x) sin(k tau).

    k is an integer >= 1, so the harmonic is 2*pi-periodic in tau.
    jet(x) -> (c, s, dc, ds, d2c, d2s, d3c, d3s) gives c and s, their
    gradients, Hessians and third-derivative tensors from one call, with
    d2c[i][j] = d_i d_j c and d3c[i][j][l] = d_i d_j d_l c. x is a list
    of dim_base floats, and the slots follow the jet format of the
    averaging module docstring.
    """

    k: int
    jet: Callable[[list], tuple]

    def __post_init__(self) -> None:
        if not isinstance(self.k, numbers.Integral) or self.k < 1:
            raise ValueError(
                f"harmonic index k must be an integer >= 1, got {self.k!r}")


@dataclass(frozen=True)
class OscillatingPotential:
    """Potential U(x, tau) = Ubar(x) + sum_k c_k cos(k tau) + s_k sin(k tau).

    mean(x) -> (Ubar, grad_Ubar) is the jet of the fiber mean and
    fourier_modes the harmonics of the oscillating part, so U is
    2*pi-periodic in the fast phase tau by construction and every fiber
    mean taken below is an exact sum over the harmonics. Both kinds of
    jet take x as a list of floats and fill their slots in the jet format
    of the averaging module docstring. A periodic coefficient that is not
    declared by its harmonics is averaged by average_coefficients on
    FIBER_GRID.
    """

    dim_base: int
    fourier_modes: tuple[HarmonicMode, ...]
    mean: Callable[[list], tuple]

    def __post_init__(self) -> None:
        if self.dim_base < 1:
            raise ValueError("dim_base must be a positive integer")
        object.__setattr__(self, "fourier_modes", tuple(self.fourier_modes))

    def U(self, x, tau: float) -> float:
        # Summed left to right, mode by mode, so that one harmonic rounds
        # as the hand-written Ubar + c cos(tau) + s sin(tau) does.
        x = _point(x)
        total = self.mean(x)[0]
        for m in self.fourier_modes:
            c, s = m.jet(x)[:2]
            total = (total + c * math.cos(m.k * tau)
                     + s * math.sin(m.k * tau))
        return total


def _point(x) -> list:
    """x, a float or a sequence of floats, as a list of floats."""
    return np.atleast_1d(np.asarray(x, dtype=float)).tolist()


def _harmonic_means(potential: OscillatingPotential, x: list) -> tuple:
    """<V'.V'>, <S''V'> and their gradients at x, a list of floats.

    One call of each harmonic jet; the sums are Python floats and lists.
    With primes for spatial derivatives, harmonic k adds

        <V'.V'>       (c'.c' + s'.s') / (2 k^2)
        <S''V'>_j     (c''_jl s'_l - s''_jl c'_l) / (2 k^3)
        d_i <V'.V'>   (c''_il c'_l + s''_il s'_l) / k^2
        d_i <S''V'>_j (c'''_ijl s'_l - s'''_ijl c'_l
                       + (s'' c'' - c'' s'')_ij) / (2 k^3)

    summed over l; grad <S''V'>[i][j] is d_i <S''V'>_j.
    """
    n = potential.dim_base
    vv, cross = 0.0, [0.0] * n
    grad_vv, grad_cross = [0.0] * n, [[0.0] * n for _ in range(n)]
    for m in potential.fourier_modes:
        dc, ds, hc, hs, tc, ts = m.jet(x)[2:]
        k2, k3 = m.k ** 2, 2.0 * m.k ** 3
        hc_t, hs_t = list(zip(*hc)), list(zip(*hs))
        vv += (_dot(dc, dc) + _dot(ds, ds)) / (2.0 * k2)
        cross = [t + (_dot(rc, ds) - _dot(rs, dc)) / k3
                 for t, rc, rs in zip(cross, hc, hs)]
        grad_vv = [t + (_dot(rc, dc) + _dot(rs, ds)) / k2
                   for t, rc, rs in zip(grad_vv, hc, hs)]
        grad_cross = [
            [t + (_dot(c3, ds) - _dot(s3, dc) + _dot(rs, cc) - _dot(rc, cs))
             / k3 for t, c3, s3, cc, cs in zip(row, tci, tsi, hc_t, hs_t)]
            for row, tci, tsi, rc, rs in zip(grad_cross, tc, ts, hc, hs)]
    return vv, cross, grad_vv, grad_cross


def mean_grad_antiderivative_sq(potential: OscillatingPotential,
                                x: np.ndarray) -> float:
    """Fiber mean of V' . V', with V the first antiderivative of U - Ubar.

    Primes denote spatial gradients. V is the zero-mean antiderivative
    sum (c_k sin(k tau) - s_k cos(k tau)) / k, so the mean is the sum
    over harmonics of (|grad c_k|^2 + |grad s_k|^2) / (2 k^2).
    """
    return _harmonic_means(potential, _point(x))[0]


def mean_hess_cross_term(potential: OscillatingPotential,
                         x: np.ndarray) -> np.ndarray:
    """Fiber mean of S'' V' (Hessian of S applied to the gradient of V).

    V and S are the zero-mean first and second antiderivatives of
    U - Ubar; S = -sum (c_k cos(k tau) + s_k sin(k tau)) / k^2. The mean
    is the per-harmonic sum (hess(c_k) grad(s_k) - hess(s_k) grad(c_k))
    / (2 k^3); this vector, scaled by -eps^3, is the magnetic coefficient
    a0 of the averaged particle.
    """
    return np.array(_harmonic_means(potential, _point(x))[1])


def oscillating_particle_averaged(potential: OscillatingPotential,
                                  epsilon: float, mu: float
                                  ) -> AveragedSystem:
    """Averaged system of a particle in a strongly oscillating potential.

    The slow Hamiltonian keeps the fiber-mean potential plus the
    oscillation-induced correction,

        U0 = Ubar + (eps^2 mu^2 / 2) <V' . V'>,

    and acquires the magnetic coefficient mu a0 = -eps^3 mu <S'' V'>
    (h0 = 0: the correction enters the potential once, through U0).
    The slow jet reads the mean jet and one per-harmonic pass
    (_harmonic_means), so grad_U0 and grad_a0 are the exact
    per-harmonic sums; its slots are lists of floats.
    """
    _check_finite("epsilon", epsilon, positive=True)
    eps = float(epsilon)
    n = potential.dim_base
    c2 = 0.5 * eps ** 2 * mu ** 2
    c3 = -eps ** 3

    def slow(q):
        vv, cross, grad_vv, grad_cross = _harmonic_means(potential, q)
        ubar, grad_ubar = potential.mean(q)
        return ([c3 * v for v in cross], 0.0, ubar + c2 * vv,
                [[c3 * v for v in row] for row in grad_cross], [0.0] * n,
                [g + c2 * v for g, v in zip(grad_ubar, grad_vv)])

    samples = [np.full(n, v) for v in (0.4, 0.9, -1.2)]
    inertia_min = min(-_dot(a0, a0)
                      for a0 in (slow(x.tolist())[0] for x in samples))
    diagnostics = {
        "inertia_inverse_min": inertia_min,
        "sample_points": samples,
        "note": "h0 - a0.a0 <= 0: no Riemannian bundle realization",
    }
    return AveragedSystem(dim_base=n, slow=slow, mu=mu,
                          diagnostics=diagnostics)


def particle_invariant_metric(potential: OscillatingPotential,
                              epsilon: float,
                              sample_points: Sequence = ()
                              ) -> TrivialBundleMetric:
    """Bundle metric whose reduction matches the averaged particle.

    The fiber inertia is h = 1 / (eps^2 <V'.V'>) and the connection
    coefficient a = +eps^3 <S'' V'> = -a0, so the metric is positive
    definite wherever h is finite. With the potential Ubar, its reduced
    Hamiltonian at J = mu is (1/2) |P + mu a0|^2 + (eps^2 mu^2 / 2)
    <V'.V'> + Ubar, which exceeds the Hamiltonian of
    oscillating_particle_averaged by (1/2) mu^2 |a0|^2 = O(eps^6):
    that system carries the inertia term in U0 and sets h0 = 0, so it
    leaves out the |a0|^2 part of h0 that a metric needs. Where
    eps^2 <V'.V'> is zero (no harmonics, or harmonics whose gradients
    all vanish at q) the fiber inertia is degenerate and h raises
    ValueError.
    """
    eps = float(epsilon)

    def a(q):
        return eps ** 3 * mean_hess_cross_term(potential, q)

    def h(q):
        vv = eps ** 2 * mean_grad_antiderivative_sq(potential, q)
        if vv == 0.0:
            raise ValueError(
                f"degenerate fiber inertia 1 / (eps^2 <V'.V'>) at q={q}: "
                f"eps^2 <V'.V'> is 0 (eps={eps!r})")
        return 1.0 / vv

    return TrivialBundleMetric(dim_base=potential.dim_base, a=a, h=h,
                               sample_points=tuple(sample_points))


def particle_systems(potential: OscillatingPotential, epsilon: float,
                     mu: float = 1.0
                     ) -> tuple[FastSlowSystem, AveragedSystem]:
    """Weakly forced suspension of the oscillating particle.

    The oscillating part of the potential enters at order eps (U1 =
    U - Ubar), so averaging keeps only Ubar: this is the regime of the
    closeness theorem, where the eps^2 and eps^3 corrections of
    oscillating_particle_averaged are below the theorem's own accuracy
    and are dropped. Both jets pass q, a list of floats, on to the mean
    jet, and the fast jet calls each harmonic jet once; with cos and sin
    of k phi it sums U1, grad_q_U1 and dphi_U1 in Python floats, in the
    grouping of OscillatingPotential.U.
    """
    l = potential.dim_base
    modes = potential.fourier_modes

    def slow(q):
        ubar, grad_ubar = potential.mean(q)
        return ([0.0] * l, 1.0, ubar, [[0.0] * l for _ in range(l)],
                [0.0] * l, grad_ubar)

    def fast(q, phi):
        mean = potential.mean(q)[0]
        total, grad, dphi = mean, [0.0] * l, 0.0
        for m in modes:
            cv, sv, dc, ds = m.jet(q)[:4]
            ck, sk = math.cos(m.k * phi), math.sin(m.k * phi)
            total = total + cv * ck + sv * sk
            grad = [t + (u * ck + v * sk) for t, u, v in zip(grad, dc, ds)]
            dphi += m.k * (-cv * sk + sv * ck)
        return ([0.0] * l, 0.0, total - mean,
                [[0.0] * l for _ in range(l)], [0.0] * l, grad,
                [0.0] * l, 0.0, dphi)

    system = FastSlowSystem(dim_base=l, slow=slow, fast=fast,
                            epsilon=float(epsilon), mu=float(mu))
    averaged = average_coefficients(system)
    return system, averaged


def particle_potential_1d(trap: float = 1.0, alpha: float = 0.7,
                          beta: float = 0.4) -> OscillatingPotential:
    """1-d trap with one oscillating harmonic pair.

    U = (1/2) trap x^2 + alpha sin(x) cos(tau) + beta cos(x) sin(tau),
    with trap, alpha and beta finite.
    """
    for name, value in (("trap", trap), ("alpha", alpha), ("beta", beta)):
        _check_finite(name, value)

    def jet(x):
        sx, cx = math.sin(x[0]), math.cos(x[0])
        return (alpha * sx, beta * cx, [alpha * cx], [-beta * sx],
                [[-alpha * sx]], [[-beta * cx]],
                [[[-alpha * cx]]], [[[beta * sx]]])

    return OscillatingPotential(
        dim_base=1, fourier_modes=(HarmonicMode(k=1, jet=jet),),
        mean=lambda x: (0.5 * trap * x[0] ** 2, [trap * x[0]]))


def particle_potential_2d(trap: float = 1.0, alpha: float = 0.7,
                          beta: float = 0.4) -> OscillatingPotential:
    """2-d trap whose oscillating harmonics carry a nonzero cross term.

    U = (1/2) trap |x|^2 + f(x) cos(tau) + g(x) sin(tau) with
    f = alpha sin(x1 + 0.3 x2) and g = beta cos(0.7 x1 - x2); the
    resulting <S'' V'> has a curl, so the averaged magnetic form is
    nonzero. trap, alpha and beta must be finite. The inner products
    w1 . x, w2 . x and x . x are float sums from +0 in index order, so U
    rounds alike under every BLAS kernel.
    """
    for name, value in (("trap", trap), ("alpha", alpha), ("beta", beta)):
        _check_finite(name, value)
    w1, w2 = [1.0, 0.3], [0.7, -1.0]
    (w11, w12), (w21, w22) = w1, w2
    w1_sq = [[a * b for b in w1] for a in w1]
    w2_sq = [[a * b for b in w2] for a in w2]
    w1_cubed = [[[ab * c for c in w1] for ab in row] for row in w1_sq]
    w2_cubed = [[[ab * c for c in w2] for ab in row] for row in w2_sq]

    def jet(x):
        x1, x2 = x
        u1 = 0.0 + w11 * x1 + w12 * x2
        u2 = 0.0 + w21 * x1 + w22 * x2
        s1, c1 = math.sin(u1), math.cos(u1)
        s2, c2 = math.sin(u2), math.cos(u2)
        k1, k2, k3 = alpha * c1, -beta * s2, -alpha * s1
        k4, k5, k6 = -beta * c2, -alpha * c1, beta * s2
        return (alpha * s1, beta * c2,
                [k1 * w for w in w1], [k2 * w for w in w2],
                [[k3 * w for w in r] for r in w1_sq],
                [[k4 * w for w in r] for r in w2_sq],
                [[[k5 * w for w in r] for r in m] for m in w1_cubed],
                [[[k6 * w for w in r] for r in m] for m in w2_cubed])

    def mean(x):
        x1, x2 = x
        return 0.5 * trap * (0.0 + x1 * x1 + x2 * x2), [trap * x1, trap * x2]

    return OscillatingPotential(
        dim_base=2, fourier_modes=(HarmonicMode(k=1, jet=jet),), mean=mean)


def uniform_field_averaged(strength: float = 0.8,
                           mu: float = 1.0) -> AveragedSystem:
    """Averaged system of a charge in a uniform magnetic field.

    a0 = (-b Q2 / 2, b Q1 / 2) gives the constant magnetic matrix
    B = mu b [[0, 1], [-1, 0]]; h0 = a0 . a0 makes the effective
    potential vanish, so magnetic-chart orbits are circles of Larmor
    radius |P1| / (mu b).
    """
    b = float(strength)

    def slow(q):
        q1, q2 = q
        return ([-0.5 * b * q2, 0.5 * b * q1], 0.25 * b * b * _dot(q, q), 0.0,
                [[0.0, 0.5 * b], [-0.5 * b, 0.0]],
                [0.5 * b * b * q1, 0.5 * b * b * q2], [0.0, 0.0])

    return AveragedSystem(dim_base=2, slow=slow, mu=float(mu))
