"""Fixtures and oracles shared by several test modules.

The finite-difference oracles (fastslow._derivatives.jacobian, and
gradient, phi_derivative, hessian and the difference jets defined here)
and the float disk fields on the general 2 x 2 forms are imported from
this module: `from conftest import gradient`.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from fastslow import HarmonicMode, OscillatingPotential, SurfaceMetric
from fastslow._derivatives import FIRST_ORDER_STEP, jacobian, step_size
from fastslow.averaging import FIBER_GRID, FIBER_NODES, _floats
from fastslow.systems import _positive_sqrt
from fastslow.systems import _stencil as disk_stencil


@pytest.fixture
def pendulum_drive():
    """Build the driven pendulum's drive as an OscillatingPotential.

    pendulum_drive(params) is the zero-mean potential
    -amp l cos(x / l) cos(tau) of the vibrating suspension at frozen
    angle, one harmonic whose jet gives every slot in closed form. Its
    induced potential (eps omega)^2 / 2 <V' . V'> is the Kapitza term
    (1/4) mu^2 amp^2 sin^2(x / l).
    """
    def drive(params):
        l = params.length
        amp = params.amplitude

        def jet(x):
            sx, cx = math.sin(x[0] / l), math.cos(x[0] / l)
            return (-amp * l * cx, 0.0, [amp * sx], [0.0],
                    [[amp / l * cx]], [[0.0]],
                    [[[-amp / l ** 2 * sx]]], [[[0.0]]])

        return OscillatingPotential(
            dim_base=1, fourier_modes=(HarmonicMode(k=1, jet=jet),),
            mean=lambda x: (0.0, [0.0]))
    return drive


def gradient(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector,
    with the step of fastslow._derivatives.jacobian."""
    x = np.asarray(x, dtype=float)
    h = step_size(x)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def phi_derivative(f, q: np.ndarray, phi: float) -> np.ndarray:
    """Central difference of f(q, phi) in the fiber angle phi, with the
    fixed step 1e-6."""
    h = FIRST_ORDER_STEP
    hi = np.asarray(f(q, phi + h), dtype=float)
    lo = np.asarray(f(q, phi - h), dtype=float)
    return (hi - lo) / (2.0 * h)


def _stencil(values, x):
    """(h, [(values(x + h e_i), values(x - h e_i)) for each i]): the step
    and points of jacobian and gradient, one call per point."""
    h = step_size(x)
    pairs = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        pairs.append((values(x + e), values(x - e)))
    return h, pairs


def _quotients(h, pairs, k):
    """Row i is the central quotient of value slot k in x_i, by
    jacobian's expression; on a scalar slot it rounds as gradient's."""
    return np.array([(np.asarray(hi[k], dtype=float)
                      - np.asarray(lo[k], dtype=float)) / (2.0 * h)
                     for hi, lo in pairs])


def slow_difference_jet(slow_values):
    """The slow jet of a FastSlowSystem or AveragedSystem from a
    value-only one, slow_values(q) -> (a0, h0, U0) with q a float array.

    Each derivative slot is, to the bit, jacobian's (a0) or gradient's
    (h0, U0) central difference of its value slot; the stencil calls
    slow_values once per point for all three slots.
    """
    def slow(q):
        q = np.asarray(q, dtype=float)
        h, pairs = _stencil(slow_values, q)
        return (*slow_values(q), *(_quotients(h, pairs, k) for k in range(3)))

    return slow


def fast_difference_jet(fast_values):
    """The fast jet of a FastSlowSystem from a value-only one,
    fast_values(q, phi) -> (a1, h1, U1) with q a float array.

    The q slots are those of slow_difference_jet at fixed phi, and the
    phi slots phi_derivative's, to the bit, from one call at each of
    phi +- 1e-6 for all three slots.
    """
    def fast(q, phi):
        q = np.asarray(q, dtype=float)
        h, pairs = _stencil(lambda x: fast_values(x, phi), q)
        dphi = [(np.asarray(hi, dtype=float) - np.asarray(lo, dtype=float))
                / (2.0 * FIRST_ORDER_STEP)
                for hi, lo in zip(fast_values(q, phi + FIRST_ORDER_STEP),
                                  fast_values(q, phi - FIRST_ORDER_STEP))]
        return (*fast_values(q, phi),
                *(_quotients(h, pairs, k) for k in range(3)),
                dphi[0], float(dphi[1]), float(dphi[2]))

    return fast


def difference_jets(slow_values, fast_values):
    """Both jets of a FastSlowSystem from value-only ones."""
    return slow_difference_jet(slow_values), fast_difference_jet(fast_values)


def hessian(f, x: np.ndarray) -> np.ndarray:
    """Central-difference Hessian; entry [i, j] is d2f/dx_i dx_j.

    The step 5e-4 * max(1, |x|_inf) is wider than the first-derivative
    step of fastslow._derivatives, so that round-off does not dominate.
    f may be array-valued; the shape of its values trails the two indices.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    h = 5e-4 * max(1.0, float(np.max(np.abs(x))))

    def fx(y):
        return np.asarray(f(y), dtype=float)

    f0 = fx(x)
    out = np.empty((n, n) + f0.shape)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (fx(x + ei) - 2.0 * f0 + fx(x - ei)) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            mixed = (fx(x + ei + ej) - fx(x + ei - ej)
                     - fx(x - ei + ej) + fx(x - ei - ej))
            out[i, j] = out[j, i] = mixed / (4.0 * h * h)
    return out


def _antiderivative_samples(U, x, order):
    """Zero-mean order-th tau-antiderivative of U(x, .) on FIBER_GRID.

    The rFFT of the samples is divided by (i k)^order and its mean
    dropped, which removes the fiber mean of U as well.
    """
    spec = np.fft.rfft([U(x, tau) for tau in FIBER_GRID])
    k = np.arange(1, spec.size)
    spec[0] = 0.0
    spec[1:] /= (1j * k) ** order
    return np.fft.irfft(spec, n=FIBER_NODES)


@pytest.fixture
def spectral_reference():
    """Fiber means of a closed-form U(x, tau) by sampling, not by modes.

    spectral_reference(U, x) samples U(x, tau) on FIBER_GRID and returns
    its grid mean, the samples V and S of the zero-mean first and second
    tau-antiderivatives of U - Ubar, <V' . V'> and <S'' V'>. The spatial
    derivatives are central differences, fastslow._derivatives.jacobian
    and the wide-step hessian above, applied to the rFFT antiderivatives:
    a second route to what OscillatingPotential's declared harmonics give
    in closed form.
    """
    def reference(U, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        vp = jacobian(lambda pt: _antiderivative_samples(U, pt, 1), x)
        spp = hessian(lambda pt: _antiderivative_samples(U, pt, 2), x)
        return SimpleNamespace(
            mean=float(np.mean([U(x, tau) for tau in FIBER_GRID])),
            V=_antiderivative_samples(U, x, 1),
            S=_antiderivative_samples(U, x, 2),
            mean_vv=float(np.mean(np.sum(vp * vp, axis=0))),
            mean_cross=np.mean(np.einsum("ikn,kn->ni", spp, vp), axis=0))
    return reference


# ---------------------------------------------------------------------------
# The spinning-disk formulas as they were computed on numpy arrays, kept as
# the reference for the float path of fastslow.systems: the geometry, the
# Lagrangian field and the magnetic-chart field. Each reads the surface
# jet through _jet, as floats and arrays.


def _jet(surface, x):
    """(a11, a22, grad sqrt(a11), grad sqrt(a22)) at the point x, the
    coefficients as floats and the partials as arrays."""
    a11, a22, d11, d22 = surface.jet(
        tuple(np.asarray(x, dtype=float).tolist()))
    return (float(a11), float(a22), np.array(d11, dtype=float),
            np.array(d22, dtype=float))


def _density(surface, x):
    a11, a22 = _jet(surface, x)[:2]
    return math.sqrt(a11) * math.sqrt(a22)


def _numpy_gaussian_curvature(surface, q):
    q = surface.require_in_domain(q)

    def r1(x):
        a11, _, _, g22 = _jet(surface, x)
        return g22[0] / math.sqrt(a11)

    def r2(x):
        _, a22, g11, _ = _jet(surface, x)
        return g11[1] / math.sqrt(a22)

    h = 1e-5 * max(1.0, float(np.max(np.abs(q))))
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    div = ((r1(q + e1) - r1(q - e1)) + (r2(q + e2) - r2(q - e2))) / (2.0 * h)
    return -div / _density(surface, q)


def _numpy_disk_connection(surface, q):
    q = surface.require_in_domain(q)
    a11, a22, g11, g22 = _jet(surface, q)
    return np.array([g11[1] / math.sqrt(a22), -g22[0] / math.sqrt(a11)])


def _numpy_curvature_identity_residual(surface, q):
    q = surface.require_in_domain(q)
    h = 1e-5 * max(1.0, float(np.max(np.abs(q))))
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    curl = ((_numpy_disk_connection(surface, q + e1)[1]
             - _numpy_disk_connection(surface, q - e1)[1])
            - (_numpy_disk_connection(surface, q + e2)[0]
               - _numpy_disk_connection(surface, q - e2)[0])) / (2.0 * h)
    dens = _density(surface, q)
    return float(curl - dens * _numpy_gaussian_curvature(surface, q))


def _numpy_metric_mass(params, surface, q):
    m = params.mass
    a11, a22 = _jet(surface, q)[:2]
    return np.array([[m * a11, 0.0], [0.0, m * a22]])


def _numpy_disk_mass_matrix(params, surface, q):
    return _numpy_metric_mass(params, surface, np.asarray(q, dtype=float))


def _numpy_mass_and_derivatives(params, surface, q):
    m = params.mass
    mass = _numpy_metric_mass(params, surface, q)
    dmass = np.zeros((2, 2, 2))
    a11, a22, g11, g22 = _jet(surface, q)
    dmass[:, 0, 0] = 2.0 * m * math.sqrt(a11) * g11
    dmass[:, 1, 1] = 2.0 * m * math.sqrt(a22) * g22
    return mass, dmass


def _numpy_solve2(a, b):
    (a00, a01), (a10, a11) = a.tolist()
    b0, b1 = np.asarray(b, dtype=float).tolist()
    det = a00 * a11 - a01 * a10
    if det == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    return np.array([(a11 * b0 - a01 * b1) / det,
                     (a00 * b1 - a10 * b0) / det])


def _numpy_disk_rhs(params, surface):
    mu = params.mu

    def rhs(z):
        q = z[:2]
        u = z[2:]
        surface.require_in_domain(q)
        mass, dmass = _numpy_mass_and_derivatives(params, surface, q)
        kcurv = _numpy_gaussian_curvature(surface, q)
        dens = _density(surface, q)
        force = dens * mu * kcurv * np.array([-u[1], u[0]])
        du = dmass @ u
        udot = _numpy_solve2(mass, force + 0.5 * (du @ u) - u @ du)
        return np.concatenate([u, udot])

    return rhs


def _numpy_magnetic_field(params, surface):
    """The magnetic-chart field of disk_magnetic_rhs on arrays, from the
    velocity grad_p = M^{-1} P1, the gradient grad_q of H in Q and the
    magnetic matrix b_field."""
    mu = params.mu

    def grad_q(Q, P1):
        surface.require_in_domain(Q)
        mass, dmass = _numpy_mass_and_derivatives(params, surface, Q)
        v = _numpy_solve2(mass, P1)
        return -0.5 * ((dmass @ v) @ v)

    def grad_p(Q, P1):
        return _numpy_solve2(_numpy_disk_mass_matrix(params, surface, Q), P1)

    def b_field(Q):
        dens = _density(surface, Q)
        k = _numpy_gaussian_curvature(surface, Q)
        return dens * mu * k * np.array([[0.0, 1.0], [-1.0, 0.0]])

    def f(z):
        Q = z[:2]
        P1 = z[2:]
        v = np.asarray(grad_p(Q, P1), dtype=float)
        dP1 = (-np.asarray(grad_q(Q, P1), dtype=float)
               + np.asarray(b_field(Q), dtype=float).T @ v)
        return np.concatenate([v, dP1])

    return f


# ---------------------------------------------------------------------------
# The float disk fields as they were written on the general 2 x 2 forms (a
# nested-list M and dM, a Cramer solve of a full 2 x 2 system and a full
# 2 x 2 x 2 contraction), kept as the bit-for-bit reference for the fields
# built on the local-geometry kernel fastslow.systems._disk_local.


def _float_curvature_divergence(surface, q):
    """d1(d1 sqrt(a22) / sqrt(a11)) + d2(d2 sqrt(a11) / sqrt(a22)) at q, a
    pair of floats, by central differences on the curvature stencil."""
    h, points = disk_stencil(q)
    p1, m1, p2, m2 = points
    (a1p, _, _, g1p), (a1m, _, _, g1m), (_, a2p, g2p, _), (_, a2m, g2m, _) \
        = map(surface.jet, points)
    return (((float(g1p[0]) / _positive_sqrt("a11", a1p, p1)
              - float(g1m[0]) / _positive_sqrt("a11", a1m, m1))
             + (float(g2p[1]) / _positive_sqrt("a22", a2p, p2)
                - float(g2m[1]) / _positive_sqrt("a22", a2m, m2)))
            / (2.0 * h))


def _disk_mass(params, a11, a22):
    m = params.mass
    return [[m * a11, 0.0], [0.0, m * a22]]


def _disk_geometry(params, surface, q):
    """(M, dM, sqrt(a11), sqrt(a22)) at q, a pair of floats, in Python
    floats from one jet call; dM[i] = d M / d q_i in closed form."""
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


def _solve2(a, b):
    """Solution x of the 2 x 2 system a x = b by Cramer's rule, in floats.
    A singular matrix raises LinAlgError as np.linalg does."""
    (a00, a01), (a10, a11) = a
    b0, b1 = _floats(b)
    det = a00 * a11 - a01 * a10
    if det == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    return [(a11 * b0 - a01 * b1) / det, (a00 * b1 - a10 * b0) / det]


def _contract(dmass, u0, u1):
    """dmass @ (u0, u1) for dmass of shape (2, 2, 2): rows d_i M u, each
    dot 0 + x0 u0 + x1 u1."""
    return [[0.0 + a * u0 + b * u1, 0.0 + c * u0 + d * u1]
            for (a, b), (c, d) in dmass]


def float_spinning_disk_rhs(params, surface):
    """spinning_disk_rhs on the general 2 x 2 forms."""
    mu = params.mu

    def rhs(z):
        q1, q2, u0, u1 = _floats(z)
        surface._check(q1, q2)
        q = (q1, q2)
        mass, dmass, s11, s22 = _disk_geometry(params, surface, q)
        dens = s11 * s22
        coef = dens * mu * (-_float_curvature_divergence(surface, q) / dens)
        (a, b), (c, d) = _contract(dmass, u0, u1)
        return [u0, u1] + _solve2(mass, [
            coef * -u1 + 0.5 * (0.0 + a * u0 + b * u1)
            - (0.0 + u0 * a + u1 * c),
            coef * u0 + 0.5 * (0.0 + c * u0 + d * u1)
            - (0.0 + u0 * b + u1 * d)])

    return rhs


def float_disk_magnetic_rhs(params, surface):
    """disk_magnetic_rhs on the general 2 x 2 forms."""
    mu = params.mu

    def rhs(z):
        q1, q2, p0, p1 = _floats(z)
        surface._check(q1, q2)
        q = (q1, q2)
        mass, dmass, s11, s22 = _disk_geometry(params, surface, q)
        dens = s11 * s22
        c = dens * mu * (-_float_curvature_divergence(surface, q) / dens)
        v = _solve2(mass, [p0, p1])
        v0, v1 = v
        (a, b), (d, e) = _contract(dmass, v0, v1)
        g0 = -0.5 * (0.0 + a * v0 + b * v1)
        g1 = -0.5 * (0.0 + d * v0 + e * v1)
        return v + [-g0 + (0.0 + 0.0 * c * v0 + -1.0 * c * v1),
                    -g1 + (0.0 + 1.0 * c * v0 + 0.0 * c * v1)]

    return rhs


def float_disk_velocity(params, surface, q, p1):
    """disk_velocity on the general 2 x 2 solve."""
    a11, a22 = surface.jet(tuple(_floats(q)))[:2]
    return np.array(_solve2(_disk_mass(params, float(a11), float(a22)), p1))


def _sphere(radius, pair):
    """The round sphere of sphere_surface, its partials built by pair."""
    r = float(radius)
    return SurfaceMetric(
        jet=lambda q: (r * r, r * r * math.sin(q[0]) ** 2, pair(0.0, 0.0),
                       pair(r * math.cos(q[0]), 0.0)),
        domain=((0.02, math.pi - 0.02), (-np.inf, np.inf)),
        name=f"sphere(radius={r})")


def _array_sphere(radius):
    return _sphere(radius, lambda a, b: np.array([a, b]))


def _tuple_sphere(radius):
    return _sphere(radius, lambda a, b: (a, b))


@pytest.fixture
def disk_reference():
    """The numpy disk formulas the float path replaced.

    Attributes gaussian_curvature(surface, q),
    curvature_identity_residual(surface, q), disk_mass_matrix(params,
    surface, q), spinning_disk_rhs(params, surface) and
    magnetic_field(params, surface), the last the numpy counterpart of
    disk_magnetic_rhs.
    array_sphere(radius) and tuple_sphere(radius) are two copies of the
    shipped round sphere: the first's jet returns its partials as numpy
    arrays, as sphere_surface's partials were when the formulas above
    were its code, the second's as tuples.
    """
    return SimpleNamespace(
        gaussian_curvature=_numpy_gaussian_curvature,
        curvature_identity_residual=_numpy_curvature_identity_residual,
        disk_mass_matrix=_numpy_disk_mass_matrix,
        spinning_disk_rhs=_numpy_disk_rhs,
        magnetic_field=_numpy_magnetic_field,
        array_sphere=_array_sphere,
        tuple_sphere=_tuple_sphere)
