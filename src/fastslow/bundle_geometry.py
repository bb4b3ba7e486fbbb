"""Invariant metrics on trivial circle bundles over Euclidean base charts.

A bundle point is (q, phi) with q in R^l and phi an angle. The metrics
handled here are Kaluza-Klein metrics: a fiber inertia h(q) > 0 and a
connection coefficient a(q), neither depending on phi, give a velocity
(u, xi) the squared length

    |u|^2 + h (xi + a . u)^2

written against the Gram matrix

    G = [[ I + h a a^T   h a ]
         [ h a^T         h   ]].

G = B^T diag(I, h) B with B = [[I, 0], [a^T, 1]], and B is invertible,
so G is positive definite exactly when h > 0. The fiber circle acts by
rotation in phi; since a and h do not depend on phi the action is by
isometries, and the momentum map

    J = h (a . u + xi)

is conserved along geodesics and natural flows. The Legendre map gives
p = u + J a, so reducing at J = mu leaves the base Hamiltonian
(1/2) |p - mu a|^2 + mu^2 / (2 h), a magnetic term with connection a
(Marsden, Montgomery & Ratiu, Reduction, Symmetry and Phases in
Mechanics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np


def _default_base_samples(dim_base: int) -> list[np.ndarray]:
    """Deterministic base points used for constructor validation."""
    pts = [
        np.zeros(dim_base),
        np.full(dim_base, 0.7),
        np.full(dim_base, -1.3),
        np.linspace(0.3, 1.1, dim_base),
    ]
    return [np.asarray(p, dtype=float) for p in pts]


@dataclass(frozen=True)
class PhaseStateFull:
    """State (q, p, phi, gamma) of the full fast-oscillating system.

    q and p are base position and momentum, phi the fiber angle
    (normalized to [0, 2*pi)) and gamma the fiber momentum variable.
    """

    q: np.ndarray
    p: np.ndarray
    phi: float
    gamma: float

    def __post_init__(self) -> None:
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if q.shape != p.shape or q.ndim != 1:
            raise ValueError("q and p must be 1-d arrays of equal length")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * np.pi))
        object.__setattr__(self, "gamma", float(self.gamma))
        if not np.all(np.isfinite(self.as_array())):
            raise ValueError("non-finite entries in phase state")

    @property
    def dim_base(self) -> int:
        return self.q.size

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.q, self.p, [self.phi], [self.gamma]])

    @classmethod
    def from_array(cls, z: Sequence[float], dim_base: int) -> "PhaseStateFull":
        z = np.asarray(z, dtype=float)
        if z.size != 2 * dim_base + 2:
            raise ValueError("state vector has wrong length")
        return cls(q=z[:dim_base], p=z[dim_base:2 * dim_base],
                   phi=z[2 * dim_base], gamma=z[2 * dim_base + 1])


@dataclass(frozen=True)
class PhaseStateReduced:
    """State (Q, P) of a reduced system in a declared chart.

    chart "canonical" stores the conjugate momentum P; chart "magnetic"
    stores the shifted momentum P1 = P + mu a0(Q), in which the dynamics
    take Lorentz-force form.
    """

    Q: np.ndarray
    P: np.ndarray
    chart: Literal["canonical", "magnetic"] = "canonical"

    def __post_init__(self) -> None:
        Q = np.atleast_1d(np.asarray(self.Q, dtype=float))
        P = np.atleast_1d(np.asarray(self.P, dtype=float))
        if Q.shape != P.shape or Q.ndim != 1:
            raise ValueError("Q and P must be 1-d arrays of equal length")
        if self.chart not in ("canonical", "magnetic"):
            raise ValueError(f"unknown chart {self.chart!r}")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "P", P)
        if not np.all(np.isfinite(self.as_array())):
            raise ValueError("non-finite entries in phase state")

    @property
    def dim_base(self) -> int:
        return self.Q.size

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.Q, self.P])

    @classmethod
    def from_array(cls, z: Sequence[float], dim_base: int,
                   chart: str = "canonical") -> "PhaseStateReduced":
        z = np.asarray(z, dtype=float)
        if z.size != 2 * dim_base:
            raise ValueError("state vector has wrong length")
        return cls(Q=z[:dim_base], P=z[dim_base:], chart=chart)


def convert_chart(state: PhaseStateReduced, a0: Callable[[np.ndarray], np.ndarray],
                  mu: float, to: str) -> PhaseStateReduced:
    """Convert a reduced state between the canonical and magnetic charts.

    The shift P1 = P + mu a0(Q) is applied or undone exactly; converting
    to the chart the state is already in returns it unchanged.
    """
    if to not in ("canonical", "magnetic"):
        raise ValueError(f"unknown chart {to!r}")
    if state.chart == to:
        return state
    shift = mu * np.asarray(a0(state.Q), dtype=float)
    if to == "magnetic":
        return PhaseStateReduced(state.Q, state.P + shift, chart="magnetic")
    return PhaseStateReduced(state.Q, state.P - shift, chart="canonical")


@dataclass(frozen=True)
class TrivialBundleMetric:
    """Kaluza-Klein metric |u|^2 + h(q) (xi + a(q) . u)^2 on a trivial
    circle bundle.

    a(q) is the connection coefficient (length dim_base) and h(q) > 0
    the fiber inertia. Neither takes phi, so the fiber rotation acts by
    isometries by construction. The Gram matrix is positive definite
    wherever h > 0; the constructor checks the shape and finiteness of
    a and h, and h > 0, at each sample point.
    """

    dim_base: int
    a: Callable[[np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], float]
    sample_points: tuple = ()

    def __post_init__(self) -> None:
        if self.dim_base < 1:
            raise ValueError("dim_base must be a positive integer")
        pts = [np.asarray(p, dtype=float) for p in self.sample_points]
        if not pts:
            pts = _default_base_samples(self.dim_base)
        object.__setattr__(self, "sample_points", tuple(pts))
        self._validate(pts)

    def _validate(self, pts: list[np.ndarray]) -> None:
        for q in pts:
            if q.shape != (self.dim_base,):
                raise ValueError("sample point has wrong dimension")
            hval = float(self.h(q))
            if not hval > 0.0:
                raise ValueError(
                    f"fiber inertia h must be positive, got {hval:.3e} "
                    f"at q={q}")
            avec = np.asarray(self.a(q), dtype=float)
            if avec.shape != (self.dim_base,):
                raise ValueError("a(q) has wrong shape")
            if not (np.all(np.isfinite(avec)) and np.isfinite(hval)):
                raise ValueError("non-finite metric coefficients")


def gram_matrix(metric: TrivialBundleMetric, q: np.ndarray) -> np.ndarray:
    """Dense (dim_base+1) Gram matrix [[I + h a a^T, h a], [h a^T, h]]
    of the metric at q."""
    q = np.asarray(q, dtype=float)
    a = np.asarray(metric.a(q), dtype=float)
    h = float(metric.h(q))
    n = metric.dim_base
    g = np.eye(n + 1)
    g[:n, :n] += h * np.outer(a, a)
    g[:n, n] = h * a
    g[n, :n] = h * a
    g[n, n] = h
    return g


def metric_eval(metric: TrivialBundleMetric, q: np.ndarray,
                u: np.ndarray, gamma: float) -> float:
    """Squared length of the bundle velocity (u, gamma at the fiber slot).

    Evaluates u.u + h (gamma + a.u)^2, the contraction of the Gram
    matrix with (u, gamma).
    """
    q = np.asarray(q, dtype=float)
    u = np.asarray(u, dtype=float)
    pieces = np.concatenate([q, u, [gamma]])
    if not np.all(np.isfinite(pieces)):
        raise ValueError("non-finite inputs to metric_eval")
    a = np.asarray(metric.a(q), dtype=float)
    h = float(metric.h(q))
    val = float(u @ u + h * (gamma + a @ u) ** 2)
    if not np.isfinite(val):
        raise ValueError("metric evaluation produced a non-finite value")
    return val


def fiber_inertia(metric: TrivialBundleMetric, q: np.ndarray) -> float:
    """Inertia of the fiber circle at q, i.e. h(q)."""
    q = np.asarray(q, dtype=float)
    val = float(metric.h(q))
    if not val > 0.0:
        raise ValueError(f"fiber inertia must be positive, got {val:.3e}")
    return val


def momentum_map(metric: TrivialBundleMetric, q: np.ndarray,
                 u: np.ndarray, xi: float) -> float:
    """Momentum J = h (a . u + xi) of the fiber rotation action."""
    q = np.asarray(q, dtype=float)
    u = np.asarray(u, dtype=float)
    a = np.asarray(metric.a(q), dtype=float)
    h = float(metric.h(q))
    return float(h * (a @ u + xi))


def mechanical_connection(metric: TrivialBundleMetric,
                          q: np.ndarray) -> np.ndarray:
    """Base coefficients A(q) of the mechanical connection one-form.

    The horizontal space of the metric is the kernel of the one-form
    A(q) . dq + dphi, and A coincides with the connection coefficient
    a. The dphi part is implicit and always has coefficient one.
    """
    return np.asarray(metric.a(np.asarray(q, dtype=float)), dtype=float)


def invariant_metric_from_averaged(avg, sample_points=()) -> TrivialBundleMetric:
    """Bundle metric whose reduction reproduces an averaged system.

    Given averaged data (a0, h0, U0, mu) with momentum-side coefficients
    a0 and h0, the matching Kaluza-Klein metric has connection
    coefficient a = -a0 and fiber inertia h = 1 / (h0 - a0 . a0). Its
    reduced Hamiltonian at J = mu is
    (1/2) |P + mu a0|^2 + (1/2) mu^2 (h0 - a0 . a0) = Hbar - U0, so the
    natural system with potential U0 reduces to the averaged system,
    and the momentum map of the metric equals the fiber momentum gamma
    of the corresponding full flows. Raises when h0 - a0 . a0 is not
    positive at the validation samples, since no Riemannian metric
    matches then. sample_points overrides the constructor validation
    points, e.g. to keep them away from zeros of the inertia.
    """
    dim = int(avg.dim_base)

    def a(q):
        q = np.asarray(q, dtype=float)
        return -np.asarray(avg.slow(q.tolist())[0], dtype=float)

    def h(q):
        q = np.asarray(q, dtype=float)
        a0q, h0q = avg.slow(q.tolist())[:2]
        a0q = np.asarray(a0q, dtype=float)
        denom = float(h0q) - float(a0q @ a0q)
        if denom <= 0.0:
            raise ValueError(
                "h0 - a0.a0 is not positive; the averaged system has no "
                f"Riemannian bundle realization at q={q} (value {denom:.3e})")
        return 1.0 / denom

    return TrivialBundleMetric(dim_base=dim, a=a, h=h,
                               sample_points=tuple(sample_points))
