"""Averaging of one-frequency fast-oscillating natural Hamiltonian systems.

The full system has Hamiltonian

    H = (1/2) p.p + gamma a(q, phi) . p + (1/2) h(q, phi) gamma^2 + U(q, phi)

with coefficient expansions a = a0(q) + eps a1(q, phi), h = h0 + eps h1,
U = U0 + eps U1, where the order-eps parts have zero fiber mean. Written
in the fast time the equations of motion are

    dq/dtau   = eps (p + gamma a)
    dphi/dtau = a . p + h gamma
    dp/dtau   = -eps d_q (gamma a . p + (1/2) h gamma^2 + U)
    dgamma/dtau = -eps d_phi (gamma a1 . p + (1/2) h1 gamma^2 + U1)

so gamma drifts only at order eps and is replaced by its initial value
mu in the averaged description. The averaged Hamiltonian

    Hbar = (1/2) P.P + mu a0(Q) . P + (1/2) mu^2 h0(Q) + U0(Q)

generates slow dynamics that shadow (q, p, gamma) to order eps over
slow-time horizons of order one. In the shifted chart P1 = P + mu a0(Q)
the same dynamics take Lorentz-force form with magnetic field
B_ij = mu (d_i a0_j - d_j a0_i) and scalar potential

    Ubar_mu = (1/2) mu^2 (h0 - a0 . a0) + U0.

The quantity h0 - a0 . a0 is the inverse fiber inertia of a matching
bundle metric when positive; averaged data produced by other routes
(strongly forced oscillating potentials, for instance) can make it
non-positive, so its sign is reported as a diagnostic and never enforced.

Both systems hold their coefficients as jets, each giving values and
derivatives from one call, so that shared work (the trigonometry of q
and phi, say) is done once per evaluation:

    slow(q)      -> (a0, h0, U0, grad_a0, grad_h0, grad_U0)
    fast(q, phi) -> (a1, h1, U1, jac_q_a1, grad_q_h1, grad_q_U1,
                     dphi_a1, dphi_h1, dphi_U1)

FastSlowSystem holds both and AveragedSystem the slow one. q is a list
of dim_base Python floats and phi a float. grad_a0[i][j] is
d a0_j / d q_i, and jac_q_a1 has the same layout. Every field and log
calls each jet once per evaluation and reads its derivative slots as
given: nothing here differences a value slot.

The jet format, of these jets and of the harmonic, mean and surface
jets of fastslow.systems: every slot is a Python float or a (nested)
list (or tuple) of them, with dim_base entries per index, and every
field, log and kernel reads it as it is, with no conversion per call.
A jet whose slots hold numpy float64 values still runs, with the same
bits (numpy rounds +, -, * and / of float64 as Python does), only
slower, and the values it feeds are then numpy floats.

Every scalar input of a run, here and in fastslow.systems,
fastslow.integrators, fastslow.experiments and the config parser, is
checked by one rule, _check_finite: epsilon, a horizon and each length,
mass or other physical scale must be positive and finite, and mu, each
harmonic amplitude or trap stiffness and each initial coordinate
finite. A value that breaks it raises
ValueError("<name> must be [positive and ]finite, got <value>").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bundle_geometry import _default_base_samples, _dot

ZERO_MEAN_TOL = 1e-10
TWO_PI = 2.0 * np.pi
# Every fiber mean is taken on this one uniform grid of [0, 2*pi).
FIBER_NODES = 64
FIBER_GRID = np.arange(FIBER_NODES) * (TWO_PI / FIBER_NODES)
FIBER_GRID.flags.writeable = False


class AveragingError(ValueError):
    """A coefficient violates the structural assumptions of averaging."""

    def __init__(self, message: str, coefficient: str | None = None,
                 point=None, residual: float | None = None) -> None:
        super().__init__(message)
        self.coefficient = coefficient
        self.point = point
        self.residual = residual


def _floats(x) -> list:
    """x as nested Python floats: a list as it is, taken to hold floats
    already, anything else by way of np.asarray(x, dtype=float)."""
    return x if type(x) is list else np.asarray(x, dtype=float).tolist()


def fiber_mean(samples: np.ndarray) -> np.ndarray:
    """Mean over the fiber circle of equispaced samples (first axis = nodes).

    On FIBER_GRID this is the periodic trapezoid rule, exact for
    trigonometric polynomials of degree below FIBER_NODES and
    exponentially accurate for analytic integrands.
    """
    return np.mean(np.asarray(samples, dtype=float), axis=0)


def _check_finite(name: str, value: float, positive: bool = False) -> None:
    """Raise the scalar input rule's ValueError (module docstring) for a
    value that is not finite or, with positive, not positive and finite."""
    if not (0.0 < value < math.inf if positive else math.isfinite(value)):
        rule = "positive and finite" if positive else "finite"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class FastSlowSystem:
    """Coefficient data of a fast-oscillating natural Hamiltonian system.

    slow and fast are the two coefficient jets, in the jet format of the
    module docstring. a1, h1 and U1 must have zero fiber mean. epsilon,
    positive and finite, is the timescale ratio and mu, finite, the
    conserved leading-order fiber momentum, so the fast frequency is
    omega = mu / epsilon.
    """

    dim_base: int
    slow: Callable[[list], tuple]
    fast: Callable[[list, float], tuple]
    epsilon: float
    mu: float

    def __post_init__(self) -> None:
        if self.dim_base < 1:
            raise ValueError("dim_base must be a positive integer")
        _check_finite("epsilon", self.epsilon, positive=True)
        _check_finite("mu", self.mu)

    @property
    def omega(self) -> float:
        """Fast fiber frequency mu / epsilon."""
        return self.mu / self.epsilon

    def hamiltonian(self, q, p, phi: float, gamma: float) -> float:
        return self.energy_and_fiber_speed(q, p, phi, gamma)[0]

    def energy_and_fiber_speed(self, q, p, phi: float, gamma: float
                               ) -> tuple[float, float]:
        """H and the fiber speed dphi/dtau = a . p + h gamma at one state.

        Both share one call of each jet. a, h and U are assembled in
        Python floats, each x0 + eps x1 per component, and each dot
        product adds its terms in index order from +0, as the full field
        compiled per dim_base (integrators._full_rhs) writes them out,
        so the fiber speed is that field's phi component bit for bit.
        """
        q, p, gamma = _floats(q), _floats(p), float(gamma)
        eps = self.epsilon
        a0, h0, U0 = self.slow(q)[:3]
        a1, h1, U1 = self.fast(q, phi)[:3]
        h = h0 + eps * h1
        ap = pp = 0.0
        for x, y, p_i in zip(a0, a1, p):
            ap += (x + eps * y) * p_i
            pp += p_i * p_i
        energy = (0.5 * pp + gamma * ap
                  + 0.5 * h * gamma * gamma + (U0 + eps * U1))
        return energy, ap + h * gamma


@dataclass(frozen=True)
class AveragedSystem:
    """Averaged (slow) Hamiltonian data (a0, h0, U0) with momentum mu.

    slow is the slow coefficient jet (module docstring), the same slots
    as FastSlowSystem.slow. The combination h0 - a0 . a0 must evaluate
    finite; its sign is not constrained and is carried in
    diagnostics["inertia_inverse_min"] when the system was produced by
    average_coefficients.
    """

    dim_base: int
    slow: Callable[[list], tuple]
    mu: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dim_base < 1:
            raise ValueError("dim_base must be a positive integer")
        _check_finite("mu", self.mu)


def average_coefficients(system: FastSlowSystem,
                         sample_points: Sequence[np.ndarray] | None = None
                         ) -> AveragedSystem:
    """Averaged system of a fast-slow system, with residual diagnostics.

    Verifies at the sample points that the oscillating coefficients a1,
    h1, U1 have fiber mean below 1e-10 (relative to their own scale; a
    NaN mean is not) and that the total inertia h0 + eps h1 stays
    positive; violations raise an AveragingError naming the offending
    coefficient and point. The returned system holds the slow jet of
    the input as it is, and records the worst residual means, together
    with the minimum of h0 - a0 . a0 over the samples, in diagnostics.
    sample_points None takes the default samples; an empty sequence
    raises ValueError.
    """
    if sample_points is None:
        pts = _default_base_samples(system.dim_base)
    else:
        pts = [np.asarray(p, dtype=float) for p in sample_points]
        if not pts:
            raise ValueError("sample_points must hold at least one point")
    residuals = {"a1": 0.0, "h1": 0.0, "U1": 0.0}
    inertia_min = np.inf
    for q in pts:
        ql = q.tolist()
        a0q, h0q = system.slow(ql)[:2]
        jets = [system.fast(ql, phi)[:3] for phi in FIBER_GRID]
        for k, name in enumerate(residuals):
            samples = np.array([jet[k] for jet in jets], dtype=float)
            scale = max(1.0, float(np.max(np.abs(samples))))
            mean = fiber_mean(samples)
            worst = float(np.max(np.abs(np.atleast_1d(mean))))
            if not worst <= ZERO_MEAN_TOL * scale:
                raise AveragingError(
                    f"coefficient {name} has nonzero fiber mean "
                    f"{worst:.3e} at q={q}",
                    coefficient=name, point=q, residual=worst)
            residuals[name] = max(residuals[name], worst)
        for phi, jet in zip(FIBER_GRID, jets):
            total = h0q + system.epsilon * jet[1]
            if not total > 0.0:
                raise AveragingError(
                    f"total fiber inertia h0 + eps h1 is not positive at "
                    f"q={q}, phi={phi:.3f} (value {total:.3e})",
                    coefficient="h", point=q, residual=total)
        inv = h0q - _dot(a0q, a0q)
        if not np.isfinite(inv):
            raise AveragingError(
                f"h0 - a0.a0 is not finite at q={q}", coefficient="h0",
                point=q)
        inertia_min = min(inertia_min, inv)

    diagnostics = {
        "residual_means": residuals,
        "inertia_inverse_min": float(inertia_min),
        "sample_points": [q.copy() for q in pts],
    }
    return AveragedSystem(dim_base=system.dim_base, slow=system.slow,
                          mu=system.mu, diagnostics=diagnostics)


def averaged_hamiltonian(avg: AveragedSystem, Q: np.ndarray,
                         P: np.ndarray) -> float:
    """Hbar = (1/2) P.P + mu a0(Q).P + (1/2) mu^2 h0(Q) + U0(Q), in
    Python floats, each dot a _dot."""
    P = _floats(P)
    a0, h0, U0 = avg.slow(_floats(Q))[:3]
    return (0.5 * _dot(P, P) + avg.mu * _dot(a0, P)
            + 0.5 * avg.mu ** 2 * h0 + U0)


def effective_potential(avg: AveragedSystem, Q: np.ndarray) -> float:
    """Scalar potential of the magnetic chart.

    Ubar_mu = (1/2) mu^2 (h0 - a0 . a0) + U0, so that the averaged
    Hamiltonian equals (1/2) |P1|^2 + Ubar_mu with P1 = P + mu a0(Q).
    It is formed in Python floats, a0 . a0 a _dot.
    """
    a0, h0, U0 = avg.slow(_floats(Q))[:3]
    return 0.5 * avg.mu ** 2 * (h0 - _dot(a0, a0)) + U0


def magnetic_form(avg: AveragedSystem, Q: np.ndarray) -> np.ndarray:
    """Magnetic two-form matrix B_ij = mu (d_i a0_j - d_j a0_i) at Q."""
    jac = np.asarray(avg.slow(_floats(Q))[3], dtype=float)
    return avg.mu * (jac - jac.T)
