"""Lie-Poisson Euler equations with scalar central extensions.

For a Lie algebra with bracket [e_i, e_j] = sum_k c^k_ij e_k, functions
of the dual variable nu carry the extended Lie-Poisson bracket

    {f, g}(nu) = -<nu, [df, dg]> - sigma(df, dg),

where sigma is an antisymmetric 2-cocycle (the central coordinate is
not evolved: a scalar extension only shifts the bracket). The flow of H
under it is dxi/dt = -ad*_{dH} xi - dH . sigma, with the coadjoint
action (ad*_X xi)_j = sum_{i,k} xi_k c^k_ij X_i. A coboundary
sigma_ij = -sum_k L_k c^k_ij has dH . sigma = -ad*_{dH} L, so it is a
momentum shift: the flow of H = (1/2) <xi, I^{-1} xi> is the shifted
Euler equation

    dxi/dt = -ad*_{I^{-1} xi} (xi - L).

On so(3) with L = 0 this is the rigid body: ad*_X xi = xi x X.

Energy, the quadratic Casimirs, and |xi - L|^2 are all quadratic, so
the implicit midpoint rule conserves them to solver tolerance; their
logged drift measures Newton slop rather than method error.

Every per-step and per-node evaluation works on Python floats over the
nonzero entries of c, I^{-1} and sigma, listed once per closure as
(index..., value) terms in C order: each component is a float sum from
+0.0 over its terms in that order, so no BLAS kernel and no built-in
sum() rounds a value of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .averaging import _floats
from .integrators import (IntegratorConfig, Trajectory, _row_blocks,
                          integrate_autonomous)

JACOBI_TOL = 1e-12
COCYCLE_TOL = 1e-12
INERTIA_SYMMETRY_TOL = 1e-14


def _cyclic_residual(c: np.ndarray, t: np.ndarray) -> float:
    """Max |a_ijk.. + a_jki.. + a_kij..| with a_ijk.. = sum_m c^m_ij t_mk..:
    the Jacobi identity for t = c, the cocycle identity for t = sigma.
    einsum, not BLAS, sums it, so no BLAS kernel enters the value."""
    a = np.einsum("ijm,m...->ij...", c, t)
    return float(np.max(np.abs(a + np.moveaxis(a, 2, 0)
                               + np.moveaxis(a, 0, 2))))


def _terms(a: np.ndarray) -> list:
    """The nonzero entries of a as (index..., value) tuples in C order."""
    nonzero = np.nonzero(a)
    return list(zip(*(i.tolist() for i in nonzero), a[nonzero].tolist()))


def _matvec(terms: list, x: list) -> list:
    """(A x)_i = sum_j A_ij x_j over the (i, j, A_ij) terms of A, as a
    list of floats, each component added from +0.0 in term order."""
    out = [0.0] * len(x)
    for i, j, a in terms:
        out[i] += a * x[j]
    return out


def _ad_star(terms: list, X: list, xi: list) -> list:
    """(ad*_X xi)_j = sum_{i,k} xi_k c^k_ij X_i over the (i, j, k, c^k_ij)
    terms of the structure constants, as a list of floats, each
    component added from +0.0 in term order."""
    out = [0.0] * len(X)
    for i, j, k, c in terms:
        out[j] += c * X[i] * xi[k]
    return out


@dataclass(frozen=True)
class LieAlgebraData:
    """Structure constants of a finite-dimensional Lie algebra.

    structure_constants[i, j, k] is the e_k coefficient of [e_i, e_j].
    Antisymmetry in (i, j) must hold exactly; the Jacobi identity is
    enforced to 1e-12 at construction.
    """

    dim: int
    structure_constants: np.ndarray
    name: str = "algebra"

    def __post_init__(self) -> None:
        c = np.asarray(self.structure_constants, dtype=float)
        if c.shape != (self.dim, self.dim, self.dim):
            raise ValueError("structure constants must be dim^3")
        object.__setattr__(self, "structure_constants", c)
        if np.any(c + np.transpose(c, (1, 0, 2)) != 0.0):
            raise ValueError(
                "structure constants must be antisymmetric in the lower "
                "indices (exactly)")
        worst = self.jacobiator()
        if worst > JACOBI_TOL:
            raise ValueError(
                f"Jacobi identity violated: max residual {worst:.3e} "
                f"exceeds {JACOBI_TOL:.1e}")

    def bracket(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        return np.einsum("i,j,ijk->k", X, Y, self.structure_constants)

    def jacobiator(self) -> float:
        c = self.structure_constants
        return _cyclic_residual(c, c)


@dataclass(frozen=True)
class Cocycle:
    """Antisymmetric scalar 2-cocycle sigma(X, Y) = X . sigma_matrix Y."""

    sigma: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.sigma, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("sigma must be a square matrix")
        object.__setattr__(self, "sigma", s)
        if np.any(s + s.T != 0.0):
            raise ValueError("sigma must be antisymmetric (exactly)")

    def __call__(self, X: np.ndarray, Y: np.ndarray) -> float:
        return float(np.asarray(X, dtype=float) @ self.sigma
                     @ np.asarray(Y, dtype=float))


def cocycle_identity_residual(algebra: LieAlgebraData,
                              cocycle: Cocycle) -> float:
    """Max residual of sigma([e_i,e_j], e_k) + cyclic over basis triples:
    the Jacobiator with sigma in place of the outer structure constants."""
    return _cyclic_residual(algebra.structure_constants, cocycle.sigma)


def make_cocycle(algebra: LieAlgebraData, sigma: np.ndarray) -> Cocycle:
    """Validated cocycle: antisymmetric and closed on the given algebra."""
    coc = Cocycle(sigma=np.asarray(sigma, dtype=float))
    worst = cocycle_identity_residual(algebra, coc)
    if worst > COCYCLE_TOL:
        raise ValueError(
            f"cocycle identity violated on {algebra.name}: max residual "
            f"{worst:.3e} exceeds {COCYCLE_TOL:.1e}")
    return coc


def coadjoint_action(algebra: LieAlgebraData, X: np.ndarray,
                     xi: np.ndarray) -> np.ndarray:
    """Coadjoint action (ad*_X xi)_j = sum_{i,k} xi_k c^k_ij X_i.

    Defined by the pairing identity <ad*_X xi, Y> = <xi, [X, Y]>; on
    so(3) it is the cross product xi x X. The Euler fields share its
    product, _ad_star.
    """
    return np.array(_ad_star(_terms(algebra.structure_constants),
                             _floats(X), _floats(xi)))


def shift_cocycle(algebra: LieAlgebraData, shift: np.ndarray) -> Cocycle:
    """Coboundary cocycle of a momentum shift L on an algebra.

    sigma_ij = -sum_k L_k c^k_ij, i.e. sigma(X, Y) = -<L, [X, Y]>; it is
    automatically closed (its identity residual is the Jacobiator paired
    with L).
    """
    shift = np.asarray(shift, dtype=float)
    sigma = -np.einsum("ijk,k->ij", algebra.structure_constants, shift)
    sigma = 0.5 * (sigma - sigma.T)
    return make_cocycle(algebra, sigma)


def extended_bracket(algebra: LieAlgebraData, cocycle: Cocycle | None,
                     df: np.ndarray, dg: np.ndarray,
                     nu: np.ndarray) -> float:
    """Extended Lie-Poisson bracket of two linear gradients at nu.

    {f, g}(nu) = -<nu, [df, dg]> - sigma(df, dg). The value is
    antisymmetrized structurally, so swapping df and dg negates it
    exactly (bit for bit), not merely to rounding.
    """
    nu = np.asarray(nu, dtype=float)

    def raw(u, v):
        val = -float(nu @ algebra.bracket(u, v))
        if cocycle is not None:
            val -= cocycle(u, v)
        return val

    return 0.5 * (raw(df, dg) - raw(dg, df))


@dataclass(frozen=True)
class EulerSystem:
    """Euler equation data: algebra, inertia tensor, momentum shift.

    inertia must be symmetric (to 1e-14) and positive definite
    (Cholesky); shift is the momentum offset L. The terms of I^{-1} are
    formed once, here, and read by the field, the invariant logs,
    velocity and energy.
    """

    algebra: LieAlgebraData
    inertia: np.ndarray
    shift: np.ndarray | None = None
    _inverse: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        inertia = np.asarray(self.inertia, dtype=float)
        n = self.algebra.dim
        if inertia.shape != (n, n):
            raise ValueError("inertia must be dim x dim")
        asym = float(np.max(np.abs(inertia - inertia.T)))
        if asym > INERTIA_SYMMETRY_TOL:
            raise ValueError(
                f"inertia is not symmetric: max asymmetry {asym:.3e}")
        try:
            np.linalg.cholesky(inertia)
        except np.linalg.LinAlgError as err:
            raise ValueError("inertia is not positive definite") from err
        object.__setattr__(self, "inertia", inertia)
        object.__setattr__(self, "_inverse", _terms(np.linalg.inv(inertia)))
        shift = (np.zeros(n) if self.shift is None
                 else np.asarray(self.shift, dtype=float))
        if shift.shape != (n,):
            raise ValueError("shift must have length dim")
        object.__setattr__(self, "shift", shift)

    def velocity(self, xi: np.ndarray) -> np.ndarray:
        """Angular velocity I^{-1} xi (_matvec)."""
        return np.array(_matvec(self._inverse, _floats(xi)))

    def energy(self, xi: np.ndarray) -> float:
        """(1/2) <xi, I^{-1} xi>, the float sum of integrate_euler's
        energy log, so the two agree bit for bit."""
        xi = _floats(xi)
        e = 0.0
        for x, v in zip(xi, _matvec(self._inverse, xi)):
            e += x * v
        return 0.5 * e


def _euler_field(system: EulerSystem) -> Callable[[list], list]:
    """The field of euler_vector_field as a closure on lists of floats.

    The terms of the structure constants are formed once, and those of
    I^{-1} are the system's; each call forms X = I^{-1} xi with _matvec
    and returns -ad*_X (xi - L) with _ad_star, all in Python floats.
    """
    inverse = system._inverse
    brackets = _terms(system.algebra.structure_constants)
    shift = system.shift.tolist()

    def f(xi: list) -> list:
        moved = [x - s for x, s in zip(xi, shift)]
        return [-a for a in _ad_star(brackets, _matvec(inverse, xi), moved)]

    return f


def euler_vector_field(system: EulerSystem, xi: np.ndarray) -> np.ndarray:
    """Shifted Euler equation dxi/dt = -ad*_{I^{-1} xi} (xi - L).

    The field is orthogonal to the angular velocity I^{-1} xi, so the
    kinetic energy is conserved at the level of the vector field.
    """
    return np.array(_euler_field(system)(_floats(xi)))


def _extended_field(algebra: LieAlgebraData, cocycle: Cocycle | None,
                    inertia: np.ndarray) -> Callable[[list], list]:
    """The field of extended_hamiltonian_field as a closure on lists of
    floats, shaped like _euler_field: the terms of I^{-1}, of the
    structure constants and of sigma are formed once. As sigma is
    antisymmetric, -dH . sigma is the product sigma dH."""
    inverse = _terms(np.linalg.inv(np.asarray(inertia, dtype=float)))
    brackets = _terms(algebra.structure_constants)
    sigma = [] if cocycle is None else _terms(cocycle.sigma)

    def f(xi: list) -> list:
        dh = _matvec(inverse, xi)
        return [s - a for a, s in zip(_ad_star(brackets, dh, xi),
                                      _matvec(sigma, dh))]

    return f


def extended_hamiltonian_field(algebra: LieAlgebraData,
                               cocycle: Cocycle | None,
                               inertia: np.ndarray,
                               xi: np.ndarray) -> np.ndarray:
    """Flow of H = (1/2) <xi, I^{-1} xi> under the extended bracket.

    Component j is {H, xi_j}(xi), in closed form -ad*_{dH} xi - dH . sigma
    with dH = I^{-1} xi. For the coboundary of a shift L,
    (dH . sigma)_j = -sum_{i,k} dH_i L_k c^k_ij = -(ad*_{dH} L)_j, so the
    field is -ad*_{dH} (xi - L), euler_vector_field of the shifted system:
    the two-path identity behind the shift-equivalence check.
    """
    return np.array(_extended_field(algebra, cocycle, inertia)(_floats(xi)))


def integrate_euler(system: EulerSystem, xi0: np.ndarray, horizon: float,
                    config: IntegratorConfig) -> Trajectory:
    """Integrate the (shifted) Euler equation and log its invariants.

    Logs energy (1/2) <xi, I^{-1} xi>, the quadratic form |xi|^2 in the
    momentum slot, and |xi - L|^2 as "casimir_shifted"; for so(3)-like
    algebras the latter is the Casimir of the shifted flow. All three
    are quadratic, so implicit midpoint keeps their drift at the Newton
    tolerance. The logs are taken after the run in one pass of Python
    floats, one block of nodes at a time (_row_blocks): I^{-1} xi is
    _matvec over the system's terms, and each sum over the components is
    added from +0.0 in index order.
    """
    xi0 = np.asarray(xi0, dtype=float)
    n = system.algebra.dim
    if xi0.shape != (n,):
        raise ValueError("xi0 must have length dim")
    labels = tuple(f"xi{i + 1}" for i in range(n))
    traj = integrate_autonomous(
        _euler_field(system), xi0, horizon, config, state_labels=labels,
        kind="euler", dim_base=n, meta={"algebra": system.algebra.name})
    inverse = system._inverse
    shift = system.shift.tolist()
    energy, momentum, casimir = np.empty((3, len(traj)))
    for rows in _row_blocks(len(traj)):
        for i, z in enumerate(traj.values[rows].tolist(), rows.start):
            e = m = c = 0.0
            for x, v, s in zip(z, _matvec(inverse, z), shift):
                e += x * v
                m += x * x
                c += (x - s) * (x - s)
            energy[i], momentum[i], casimir[i] = 0.5 * e, m, c
    traj.invariant_log = {"energy": energy, "momentum": momentum,
                          "casimir_shifted": casimir}
    return traj


# ---------------------------------------------------------------------------
# Built-in algebras, each declared as text for the one loader, which
# fills the antisymmetric mirror and checks the Jacobi identity.


def abelian(n: int) -> LieAlgebraData:
    """Abelian algebra R^n (all brackets vanish)."""
    return load_algebra(f"dim {n}", name=f"abelian({n})")


def so3() -> LieAlgebraData:
    """Rotation algebra so(3): [e1, e2] = e3 and cyclic (configs/so3.alg)."""
    return load_algebra("dim 3\n0 1 2 1.0\n1 2 0 1.0\n2 0 1 1.0",
                        name="so3")


def heisenberg3() -> LieAlgebraData:
    """Heisenberg algebra: [e1, e2] = e3, e3 central."""
    return load_algebra("dim 3\n0 1 2 1.0", name="heisenberg3")


def oscillator4() -> LieAlgebraData:
    """Oscillator algebra: [e1,e2]=e3, [e1,e3]=-e2, [e2,e3]=e4 central."""
    return load_algebra("dim 4\n0 1 2 1.0\n0 2 1 -1.0\n1 2 3 1.0",
                        name="oscillator4")


BUILTIN_ALGEBRAS: dict[str, Callable[[], LieAlgebraData]] = {
    "abelian3": lambda: abelian(3),
    "so3": so3,
    "heisenberg3": heisenberg3,
    "oscillator4": oscillator4,
}


def load_algebra(text: str, name: str = "algebra") -> LieAlgebraData:
    """Parse structure constants from a plain-text description.

    Format: a `dim N` line, then one `i j k value` row per nonzero
    structure constant c^k_ij with 0-indexed basis labels; `#` starts a
    comment. The antisymmetric mirror of every row is filled in
    automatically, conflicting duplicates are rejected, and the Jacobi
    identity is enforced. All violations are reported together with
    their line numbers.
    """
    errors: list[str] = []
    dim: int | None = None
    rows: list[tuple[int, int, int, int, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if dim is None:
            if parts[0] != "dim" or len(parts) != 2:
                errors.append(f"line {lineno}: expected `dim N`, got {raw!r}")
                continue
            try:
                dim = int(parts[1])
            except ValueError:
                errors.append(f"line {lineno}: bad dimension {parts[1]!r}")
                continue
            if dim < 1:
                errors.append(f"line {lineno}: dimension must be positive")
                dim = None
            continue
        if len(parts) != 4:
            errors.append(
                f"line {lineno}: expected `i j k value`, got {raw!r}")
            continue
        try:
            i, j, k = int(parts[0]), int(parts[1]), int(parts[2])
            value = float(parts[3])
        except ValueError:
            errors.append(f"line {lineno}: could not parse {raw!r}")
            continue
        if not all(0 <= idx < dim for idx in (i, j, k)):
            errors.append(
                f"line {lineno}: index out of range for dim {dim}")
            continue
        if i == j and value != 0.0:
            errors.append(
                f"line {lineno}: [e{i}, e{i}] must vanish, got {value}")
            continue
        rows.append((lineno, i, j, k, value))
    if dim is None and not errors:
        errors.append("missing `dim N` line")
    if errors:
        raise ValueError("invalid algebra file:\n" + "\n".join(errors))

    c = np.zeros((dim, dim, dim))
    seen: dict[tuple[int, int, int], tuple[int, float]] = {}
    for lineno, i, j, k, value in rows:
        for ii, jj, vv in ((i, j, value), (j, i, -value)):
            key = (ii, jj, k)
            if key in seen and seen[key][1] != vv:
                errors.append(
                    f"line {lineno}: c^{k}_{ii}{jj}={vv} conflicts with "
                    f"line {seen[key][0]} ({seen[key][1]})")
            else:
                seen[key] = (lineno, vv)
                c[ii, jj, k] = vv
    if errors:
        raise ValueError("invalid algebra file:\n" + "\n".join(errors))
    try:
        return LieAlgebraData(dim=dim, structure_constants=c, name=name)
    except ValueError as err:
        raise ValueError(f"invalid algebra file: {err}") from err
