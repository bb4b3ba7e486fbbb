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
from operator import mul
from typing import Callable, Sequence

import numpy as np

from .averaging import AveragedSystem, FastSlowSystem, _floats, \
    average_coefficients
from .bundle_geometry import TrivialBundleMetric
from .integrators import Trajectory

TWO_PI = 2.0 * np.pi


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
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")

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
    trick adds a fiber circle carrying the drive phase; fiber_floor is
    the x-independent part of the fiber inertia (any positive value
    gives the same slow dynamics because the induced constant potential
    shift is absorbed into U0). The averaged effective potential is

        (1/4) mu^2 amp^2 sin^2(x / l) - g l cos(x / l)

    exactly, for every fiber_floor. The two jets share sin and cos of
    x / l, and the fast jet those of phi and 2 phi; every vector or matrix
    slot is a list of Python floats, which the full field and the energy
    log read without a conversion. The averaged system holds the same
    slow jet (average_coefficients).
    """
    l = params.length
    g = params.gravity
    amp = params.amplitude
    amp2 = amp ** 2
    c = float(fiber_floor)
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
    with a step of a 64th of the drive period; horizon defaults to
    1/epsilon. stop_when(t, theta, p) aborts the run early when it
    returns True (the trigger time is stored in meta["stopped_at"]).
    Every accepted step is offered to stop_when even when only each
    store_every-th state is kept.
    """
    l = params.length
    g = params.gravity
    amp = params.amplitude
    omega = params.omega
    if horizon is None:
        horizon = 1.0 / params.epsilon
    dt = (TWO_PI / omega) / 64.0
    n_steps = int(math.ceil(horizon / dt - 1e-9))
    if store_every is None:
        store_every = max(1, int(math.ceil(n_steps / 20000)))

    gl = g * l
    inv_l2 = 1.0 / (l * l)
    aml = amp * params.mu * l

    def rhs(theta: float, p: float, phi: float) -> tuple[float, float]:
        sin_phi = math.sin(phi)
        v = (p - aml * sin_phi * math.sin(theta)) * inv_l2
        return v, v * aml * sin_phi * math.cos(theta) - gl * math.sin(theta)

    times = [0.0]
    rows = [(theta0, p0, 0.0)]
    theta, p = float(theta0), float(p0)
    t = 0.0
    stopped_at = None
    for k in range(n_steps):
        step = min(dt, horizon - t)
        phi = omega * t
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
        t += step
        if not (math.isfinite(theta) and math.isfinite(p)):
            raise RuntimeError(f"pendulum state became non-finite at step {k}")
        if (k + 1) % store_every == 0 or k == n_steps - 1:
            times.append(t)
            rows.append((theta, p, math.fmod(omega * t, TWO_PI)))
        if stop_when is not None and stop_when(t, theta, p):
            stopped_at = t
            if times[-1] != t:
                times.append(t)
                rows.append((theta, p, math.fmod(omega * t, TWO_PI)))
            break

    values = np.array(rows)
    energies = np.empty(values.shape[0])
    for i, (th, pp, ph) in enumerate(rows):
        v = (pp - aml * math.sin(ph) * math.sin(th)) * inv_l2
        energies[i] = 0.5 * l * l * v * v - gl * math.cos(th)
    return Trajectory(
        times=np.array(times), values=values,
        state_labels=("theta", "p_theta", "phi"), kind="pendulum_physical",
        dim_base=1,
        invariant_log={"energy": energies,
                       "momentum": np.zeros(values.shape[0])},
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
    q[0] and q[1]; a11 and a22 are reals, and each partial slot is any
    pair of reals (a tuple, a list or an array), read once with float().
    Every point the disk code visits calls the jet once, so a disk field
    evaluation makes 5 calls, and the code takes the square roots
    itself. domain holds the closed chart rectangle
    ((q1_min, q1_max), (q2_min, q2_max)) and operations reject points
    outside it.
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


def _positive_sqrt(name: str, val, q) -> float:
    """sqrt(val) for the jet's coefficient name at q, val read with
    float(); a value that is not positive raises ValueError."""
    val = float(val)
    if not val > 0.0:
        raise ValueError(f"{name} must be positive, got {val:.3e} "
                         f"at q={np.asarray(q, dtype=float)}")
    return math.sqrt(val)


def sphere_surface(radius: float = 1.0) -> SurfaceMetric:
    """Round sphere in colatitude q1 and longitude q2 (poles excluded)."""
    r = float(radius)
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


def _curvature_divergence(surface: SurfaceMetric, q) -> float:
    """d1(d1 sqrt(a22) / sqrt(a11)) + d2(d2 sqrt(a11) / sqrt(a22)) at q.

    q is a pair of floats in the domain. The outer derivatives are
    central differences on _stencil in Python floats, with one jet call
    at each of the four stencil points. K is -div / sqrt(a11 a22).
    """
    h, points = _stencil(q)
    p1, m1, p2, m2 = points
    # d1 sqrt(a22) / sqrt(a11) at q +- h e1, d2 sqrt(a11) / sqrt(a22) at
    # q +- h e2.
    (a1p, _, _, g1p), (a1m, _, _, g1m), (_, a2p, g2p, _), (_, a2m, g2m, _) \
        = map(surface.jet, points)
    return (((float(g1p[0]) / _positive_sqrt("a11", a1p, p1)
              - float(g1m[0]) / _positive_sqrt("a11", a1m, m1))
             + (float(g2p[1]) / _positive_sqrt("a22", a2p, p2)
                - float(g2m[1]) / _positive_sqrt("a22", a2m, m2)))
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
    return -_curvature_divergence(surface, q) / _density(surface, q)


def _connection(surface: SurfaceMetric, q) -> tuple[float, float]:
    """disk_connection at q, a pair of floats, as a pair of floats."""
    surface._check(*q)
    a11, a22, d11, d22 = surface.jet(q)
    return (float(d11[1]) / _positive_sqrt("a22", a22, q),
            -float(d22[0]) / _positive_sqrt("a11", a11, q))


def disk_connection(surface: SurfaceMetric, q: np.ndarray) -> np.ndarray:
    """Base coefficients A(q) of the axis-normal disk connection.

    A = ( d2 sqrt(a11) / sqrt(a22), -d1 sqrt(a22) / sqrt(a11) ), the
    orientation being fixed so that the exterior derivative identity

        d(A . dq) = sqrt(a11 a22) K dq1 ^ dq2

    holds with positively oriented (q1, q2); on the round sphere
    A = (0, -cos q1).
    """
    return np.array(_connection(
        surface, tuple(np.asarray(q, dtype=float).tolist())))


def curvature_identity_residual(surface: SurfaceMetric,
                                q: np.ndarray) -> float:
    """Residual d(A . dq) - sqrt(a11 a22) K at q (finite differences).

    The curl of the connection is computed with central differences of
    disk_connection, so this is an independent check of the curvature
    rather than a restatement of its formula.
    """
    q = tuple(surface.require_in_domain(q).tolist())
    h, (p1, m1, p2, m2) = _stencil(q)
    curl = ((_connection(surface, p1)[1] - _connection(surface, m1)[1])
            - (_connection(surface, p2)[0] - _connection(surface, m2)[0])) \
        / (2.0 * h)
    dens = _density(surface, q)
    return curl - dens * (-_curvature_divergence(surface, q) / dens)


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
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")

    @property
    def mu(self) -> float:
        return self.inertia_axial * self.omega_axial


def _disk_mass(params: DiskParams, a11: float, a22: float) -> list:
    """M = m diag(a11, a22) as rows of Python floats; a11 and a22 are
    the surface's at the point. No check is made."""
    m = params.mass
    return [[m * a11, 0.0], [0.0, m * a22]]


def _mass_at(params: DiskParams, surface: SurfaceMetric, q) -> list:
    """_disk_mass at q, a pair of floats, from one jet call."""
    a11, a22 = surface.jet(q)[:2]
    return _disk_mass(params, float(a11), float(a22))


def _disk_geometry(params: DiskParams, surface: SurfaceMetric, q) -> tuple:
    """(M, dM, sqrt(a11), sqrt(a22)) at q, a pair of floats, in Python
    floats from one jet call.

    dM[i] = d M / d q_i in closed form, d_i (m a_jj) =
    2 m sqrt(a_jj) d_i sqrt(a_jj), through the jet's partial slots.
    """
    a11, a22, (g11, g12), (g21, g22) = surface.jet(q)
    a11, a22 = float(a11), float(a22)
    mass = _disk_mass(params, a11, a22)
    m = params.mass
    s11 = _positive_sqrt("a11", a11, q)
    c11 = 2.0 * m * s11
    s22 = _positive_sqrt("a22", a22, q)
    c22 = 2.0 * m * s22
    dmass = [[[c11 * float(g11), 0.0], [0.0, c22 * float(g21)]],
             [[c11 * float(g12), 0.0], [0.0, c22 * float(g22)]]]
    return mass, dmass, s11, s22


def disk_mass_matrix(params: DiskParams, surface: SurfaceMetric,
                     q: np.ndarray) -> np.ndarray:
    """Slow kinetic matrix M(q) = m diag(a11, a22)."""
    return np.array(_mass_at(params, surface, tuple(_floats(q))))


def _solve2(a: list, b) -> list:
    """Solution x of the 2 x 2 system a x = b by Cramer's rule, in floats.

    a holds the rows of the matrix as floats; b is a pair of floats or an
    array. A singular matrix raises LinAlgError as np.linalg does.
    """
    (a00, a01), (a10, a11) = a
    b0, b1 = _floats(b)
    det = a00 * a11 - a01 * a10
    if det == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    return [(a11 * b0 - a01 * b1) / det, (a00 * b1 - a10 * b0) / det]


def _contract(dmass: list, u0: float, u1: float) -> list:
    """dmass @ (u0, u1) for dmass of shape (2, 2, 2): rows d_i M u.

    Each dot product is 0 + x0 u0 + x1 u1, numpy's result bit for bit
    whenever at most one of its two products is nonzero: on the sphere,
    the plane and the exponential chart, where every entry of dM but
    d_1 M_22 is zero, the disk fields are numpy's to the last bit. With
    two nonzero products numpy's BLAS kernel may fuse a multiply-add,
    and the two results can then differ by a rounding.
    """
    return [[0.0 + a * u0 + b * u1, 0.0 + c * u0 + d * u1]
            for (a, b), (c, d) in dmass]


def spinning_disk_rhs(params: DiskParams,
                      surface: SurfaceMetric) -> Callable[[list], list]:
    """Euler-Lagrange vector field of the reduced disk in (q, qdot).

    The slow energy is E0 = (1/2) qdot . M(q) qdot with M the disk mass
    matrix, and reduction by the fast spin adds the gyroscopic force

        sqrt(a11 a22) mu K(q) [[0, -1], [1, 0]] qdot,

    proportional to the Gaussian curvature. The returned callable maps
    z = (q1, q2, u1, u2) to its time derivative; with mu = 0 the flow
    is geodesic for M, and on a flat surface it is straight lines. The
    partial derivatives of M are closed-form. The field is assembled in
    Python floats from one evaluation of the local geometry
    (_disk_geometry) and the curvature stencil: 5 jet calls, each point
    a tuple of floats.
    """
    mu = params.mu

    def rhs(z) -> list:
        q1, q2, u0, u1 = _floats(z)
        surface._check(q1, q2)
        q = (q1, q2)
        mass, dmass, s11, s22 = _disk_geometry(params, surface, q)
        dens = s11 * s22
        # dens * mu * gaussian_curvature(surface, q), q checked once.
        coef = dens * mu * (-_curvature_divergence(surface, q) / dens)
        # d/dt (M u) - (1/2) u . d_i M u = force_i, with rows d_i M u of
        # du = [[a, b], [c, d]]: force + (1/2) du u - u . du, written out.
        (a, b), (c, d) = _contract(dmass, u0, u1)
        return [u0, u1] + _solve2(mass, [
            coef * -u1 + 0.5 * (0.0 + a * u0 + b * u1)
            - (0.0 + u0 * a + u1 * c),
            coef * u0 + 0.5 * (0.0 + c * u0 + d * u1)
            - (0.0 + u0 * b + u1 * d)])

    return rhs


def disk_momentum(params: DiskParams, surface: SurfaceMetric,
                  q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Shifted-chart momentum P1 = M(q) u matching spinning_disk_rhs."""
    return disk_mass_matrix(params, surface, np.asarray(q, dtype=float)) \
        @ np.asarray(u, dtype=float)


def disk_velocity(params: DiskParams, surface: SurfaceMetric,
                  q: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """Velocity u = M(q)^{-1} P1, the inverse of disk_momentum.

    No domain check is made, as disk_mass_matrix makes none.
    """
    mass = _mass_at(params, surface, tuple(_floats(q)))
    return np.array(_solve2(mass, p1))


def disk_magnetic_rhs(params: DiskParams,
                      surface: SurfaceMetric) -> Callable[[list], list]:
    """Magnetic-chart vector field of the reduced disk in (Q, P1).

    The kinetic Hamiltonian is H = (1/2) P1 . M(Q)^{-1} P1 and the
    magnetic matrix B = sqrt(a11 a22) mu K [[0, 1], [-1, 0]], so with
    v = M^{-1} P1 the flow is

        dQ/dt = v,   dP1/dt = (1/2) v . d_i M v + B^T v,

    the Lorentz-force form of spinning_disk_rhs: B^T v is its gyroscopic
    force. The returned callable maps z = (Q1, Q2, P1_1, P1_2), a list or
    an array, to its time derivative as a list, assembled in Python
    floats from one evaluation of the local geometry (_disk_geometry) and
    5 jet calls, as spinning_disk_rhs is. Each dot product of B^T v is a
    sum from +0 in index order.
    """
    mu = params.mu

    def rhs(z) -> list:
        q1, q2, p0, p1 = _floats(z)
        surface._check(q1, q2)
        q = (q1, q2)
        mass, dmass, s11, s22 = _disk_geometry(params, surface, q)
        dens = s11 * s22
        c = dens * mu * (-_curvature_divergence(surface, q) / dens)
        v = _solve2(mass, [p0, p1])
        v0, v1 = v
        # grad_Q H = -(1/2) v . d_i M v, and the columns of
        # B = [[0.0 * c, 1.0 * c], [-1.0 * c, 0.0 * c]] dotted with v.
        (a, b), (d, e) = _contract(dmass, v0, v1)
        g0 = -0.5 * (0.0 + a * v0 + b * v1)
        g1 = -0.5 * (0.0 + d * v0 + e * v1)
        return v + [-g0 + (0.0 + 0.0 * c * v0 + -1.0 * c * v1),
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
    of dim_base floats, and the slots follow the jet contract of the
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
    jet take x as a list of floats. A periodic coefficient that is not
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


def _dot(u, v) -> float:
    return sum(map(mul, u, v))


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
        dc, ds, hc, hs, tc, ts = map(_floats, m.jet(x)[2:])
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
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    eps = float(epsilon)
    n = potential.dim_base
    c2 = 0.5 * eps ** 2 * mu ** 2
    c3 = -eps ** 3

    def slow(q):
        vv, cross, grad_vv, grad_cross = _harmonic_means(potential, q)
        ubar, grad_ubar = potential.mean(q)
        return ([c3 * v for v in cross], 0.0, ubar + c2 * vv,
                [[c3 * v for v in row] for row in grad_cross], [0.0] * n,
                [g + c2 * v for g, v in zip(_floats(grad_ubar), grad_vv)])

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
    and are dropped. The identically zero slots are fresh lists of 0.0,
    not arrays. Both jets pass q, a list of floats, on to the mean jet,
    and the fast jet calls each harmonic jet once; with cos and sin of
    k phi it sums U1, grad_q_U1 and dphi_U1 in Python floats, in the
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
            grad = [t + (u * ck + v * sk)
                    for t, u, v in zip(grad, _floats(dc), _floats(ds))]
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

    U = (1/2) trap x^2 + alpha sin(x) cos(tau) + beta cos(x) sin(tau).
    """

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
    nonzero. The jets take their inner products with numpy's dot, so U
    rounds as the same closed form written on arrays.
    """
    w1 = np.array([1.0, 0.3])
    w2 = np.array([0.7, -1.0])
    w1_sq, w2_sq = np.outer(w1, w1), np.outer(w2, w2)
    w1_cubed = np.multiply.outer(w1_sq, w1)
    w2_cubed = np.multiply.outer(w2_sq, w2)

    def jet(x):
        x = np.array(x)
        u1, u2 = float(w1 @ x), float(w2 @ x)
        s1, c1 = math.sin(u1), math.cos(u1)
        s2, c2 = math.sin(u2), math.cos(u2)
        return (alpha * s1, beta * c2, alpha * c1 * w1, -beta * s2 * w2,
                -alpha * s1 * w1_sq, -beta * c2 * w2_sq,
                -alpha * c1 * w1_cubed, beta * s2 * w2_cubed)

    def mean(x):
        x = np.array(x)
        return 0.5 * trap * float(x @ x), trap * x

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
        q = np.asarray(q, dtype=float)
        return (np.array([-0.5 * b * q[1], 0.5 * b * q[0]]),
                0.25 * b * b * float(q @ q), 0.0,
                np.array([[0.0, 0.5 * b], [-0.5 * b, 0.0]]),
                0.5 * b * b * q, np.zeros(2))

    return AveragedSystem(dim_base=2, slow=slow, mu=float(mu))
