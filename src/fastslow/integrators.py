"""Symplectic-leaning time integration and closeness diagnostics.

The full fast-oscillating system is integrated in its own fast time tau,
but every trajectory reports the slow time t = eps * tau in its time
column, so full and reduced runs share a clock. Reduced systems are
integrated directly in slow time with the eps-free vector fields

    canonical chart:  dQ/dt = P + mu a0(Q)
                      dP/dt = -d_Q (mu a0 . P + (1/2) mu^2 h0 + U0)
    magnetic chart:   dQ/dt = P1
                      dP1/dt = -grad Ubar_mu(Q) + B(Q)^T P1

with B_ij = mu (d_i a0_j - d_j a0_i). Each field reads the coefficients
and their derivatives from the system's jets (fastslow.averaging), one
call of each per evaluation. Every vector field receives its state as a
list of Python floats.

The default method is the implicit midpoint rule, solved by chord Newton
(one central-difference iteration matrix reused across the steps of an
integration; Hairer, Lubich & Wanner, Geometric Numerical Integration,
VIII.6) warm-started by polynomial extrapolation of the accepted nodes,
of order up to 5 chosen per step; classical RK4 is a non-symplectic
reference.

closeness_report measures sup_{t in [0, min(horizons, 1)]} of the
deviations |q - Q|, |p - P|, |gamma - mu| between a full trajectory and
a reduced one started from matching initial data; the averaging theorem
bounds the sum by a constant times eps on that window, and halving eps
should roughly halve the sup error. The constant itself is never
asserted, only the observed ratios.

The chord update of _midpoint_step, the guess of _extrapolate and the
dot products written sum(map(mul, ...)) add in index order through the
built-in sum(). That is plain left-to-right float addition on CPython
3.10 and 3.11 only: from 3.12 on, sum() of floats is compensated
(Neumaier) summation, so sum([1e16, 1.0, -1e16]) is 1.0 there and 0.0
on 3.11, and these values, with the output bytes, may differ between
the two.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import mul, sub
from typing import Callable, Literal, Sequence

import numpy as np

from ._derivatives import jacobian
from .averaging import AveragedSystem, FastSlowSystem, _floats, \
    averaged_hamiltonian, effective_potential
from .bundle_geometry import PhaseStateFull, PhaseStateReduced, convert_chart

TWO_PI = 2.0 * np.pi
IC_MATCH_TOL = 1e-12
HORIZON_FACTOR_MAX = 10.0
PREDICTOR_MAX_ORDER = 5
# Rows per block of a pass over a whole trajectory (the node logs of
# integrate_full, closeness_report, and the writers of fastslow.cli), so
# that a pass holds one block of Python floats or temporaries at a time.
_BLOCK_ROWS = 4096


def _row_blocks(n: int):
    """The slices of rows 0 .. n-1 in blocks of _BLOCK_ROWS, in order."""
    for start in range(0, n, _BLOCK_ROWS):
        yield slice(start, min(start + _BLOCK_ROWS, n))


class IntegrationError(RuntimeError):
    """Raised when a time step cannot be completed."""

    def __init__(self, message: str, step: int | None = None) -> None:
        super().__init__(message)
        self.step = step


@contextmanager
def _integration(where: str):
    """Add "(in the <where>)" to the message of an IntegrationError or
    ValueError raised inside, which keeps its type and its step."""
    try:
        yield
    except (IntegrationError, ValueError) as err:
        err.args = (f"{err} (in the {where})",)
        raise


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-size and solver settings for the time steppers, and the one
    statement of their rules (the config parser checks with it).

    dt is a positive finite number, measured in fast time tau for the
    full system and in slow time t for reduced systems. newton_tol bounds
    the max-norm residual of the implicit midpoint solve, relative to
    max(1, |z|_inf), and must lie in (0, 1e-6]. newton_max_iter, an
    integer >= 1 (an integral float is stored as an int), caps the chord
    Newton updates per step, the extra update taken after the residual
    meets newton_tol included. Any bad value raises ValueError.
    """

    method: Literal["implicit_midpoint", "rk4"] = "implicit_midpoint"
    dt: float = 1e-2
    newton_tol: float = 1e-12
    newton_max_iter: int = 50

    def __post_init__(self) -> None:
        def real(x) -> bool:
            return isinstance(x, numbers.Real) and not isinstance(x, bool)

        if self.method not in ("implicit_midpoint", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        if not (real(self.dt) and 0.0 < self.dt < math.inf):
            raise ValueError("dt must be a positive finite float")
        if not (real(self.newton_tol) and 0.0 < self.newton_tol <= 1e-6):
            raise ValueError("newton_tol must lie in (0, 1e-6]")
        n = self.newton_max_iter
        if not (real(n) and n >= 1 and n % 1 == 0):
            raise ValueError("newton_max_iter must be a positive integer")
        object.__setattr__(self, "newton_max_iter", int(n))


@dataclass
class Trajectory:
    """Sampled trajectory with per-node conserved-quantity logs.

    times is strictly increasing and measured in the slow clock (or the
    system's own physical clock for standalone simulations); values has
    one state per row. derivs, the state derivative in the same clock as
    times for cubic Hermite interpolation, is set by
    integrate_reduced_canonical only and is None on every other
    trajectory. invariant_log maps names to arrays aligned with times:
    integrate_full logs "energy", "momentum" (gamma) and "phi_dot"; the
    integrate_reduced_* wrappers "energy" and the constant "momentum" mu;
    integrate_euler "energy", "momentum" (|xi|^2) and "casimir_shifted";
    a bare integrate_autonomous run only the logs it is given.
    """

    times: np.ndarray
    values: np.ndarray
    state_labels: tuple[str, ...]
    kind: str
    dim_base: int
    derivs: np.ndarray | None = None
    invariant_log: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.times.size:
            raise ValueError("values must have one row per time node")
        if self.values.shape[1] != len(self.state_labels):
            raise ValueError("state_labels must match the state width")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")
        if self.derivs is not None:
            self.derivs = np.asarray(self.derivs, dtype=float)
            if self.derivs.shape != self.values.shape:
                raise ValueError("derivs must match the shape of values")

    def __len__(self) -> int:
        return self.times.size

    def state(self, i: int):
        """Node i as a typed phase state (full and reduced kinds only; a
        reduced kind other than reduced_magnetic is canonical)."""
        row = self.values[i]
        if self.kind == "full":
            return PhaseStateFull.from_array(row, self.dim_base)
        if self.kind.startswith("reduced"):
            return PhaseStateReduced.from_array(row, self.dim_base, chart=(
                "magnetic" if self.kind == "reduced_magnetic" else "canonical"))
        raise ValueError(f"kind {self.kind!r} has no typed state view")


def _rk4_step(f, z, dt: float) -> list:
    """One classical RK4 step, on lists of Python floats.

    z may be an array or a list of floats, and the new state is returned
    as a list. f receives each stage point as a list. The stage points
    z + (dt/2) k and z + dt k and the update
    z + (dt/6) (((k1 + 2 k2) + 2 k3) + k4) are grouped as numpy groups
    the same expressions on arrays, so every component has numpy's bits.
    """
    z = _floats(z)
    half = 0.5 * dt
    k1 = _floats(f(z))
    k2 = _floats(f([a + half * b for a, b in zip(z, k1)]))
    k3 = _floats(f([a + half * b for a, b in zip(z, k2)]))
    k4 = _floats(f([a + dt * b for a, b in zip(z, k3)]))
    sixth = dt / 6.0
    return [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4)]


def _midpoint_step(f, z, dt: float, guess, tol: float, max_iter: int,
                   inv: list | None = None, *,
                   counts: dict | None = None) -> tuple[list, list]:
    """One implicit midpoint step z' = z + dt f((z + z')/2) by chord Newton.

    inv is the inverse of I - dt/2 J from an earlier step with the same
    dt, as rows of floats, or None. It is rebuilt at the current iterate
    whenever an update leaves the residual above tolerance and shrinks
    it less than tenfold, so a hard step falls back to full Newton. Once
    the residual meets tolerance one more update is taken, if max_iter
    allows, and accepted if it meets tolerance too; long runs then drift
    less. Returns z', as a list of floats, and the inverse used last,
    for the next step to reuse. A converged step adds its chord updates,
    evaluations of f (2n per central-difference Jacobian included) and
    Jacobians to counts, when given, under "newton_updates", "rhs_evals"
    and "jacobians".

    z and guess may be arrays or lists of floats; f receives the
    midpoint, and each point of the central-difference Jacobian, as a
    list. Everything else is Python floats: the iterate,
    the midpoint, the residual, their max-norms and the chord update,
    whose component i is row i of inv dotted with the residual, summed
    from +0 in index order. Only the Jacobian and its inverse are made
    by numpy, and the inverse is turned into rows of floats once, so no
    BLAS kernel rounds a number of the step. A non-finite residual
    component raises IntegrationError at once: the max-norm of Python's
    max skips a NaN that does not come first.
    """
    z = _floats(z)
    znew = _floats(guess)
    bound = tol * max(1.0, max(map(abs, z)))
    jacobians = 0

    def residual(znew: list) -> tuple[list, list, float]:
        mid = [0.5 * (a + b) for a, b in zip(z, znew)]
        res = [b - a - dt * c for a, b, c in zip(z, znew, _floats(f(mid)))]
        if not all(map(math.isfinite, res)):
            raise IntegrationError("implicit midpoint residual is non-finite")
        return mid, res, max(map(abs, res))

    mid, res, err = residual(znew)
    for k in range(max_iter):
        if inv is None:
            inv = np.linalg.inv(np.eye(len(z)) - 0.5 * dt * jacobian(
                lambda x: f(x.tolist()), mid).T).tolist()
            jacobians += 1
        znew = [a - sum(map(mul, row, res)) for a, row in zip(znew, inv)]
        if not all(map(math.isfinite, znew)):
            raise IntegrationError("Newton iterate became non-finite")
        prev = err
        mid, res, err = residual(znew)
        if err <= bound:
            if prev <= bound or k == max_iter - 1:
                if counts is not None:
                    counts["newton_updates"] += k + 1
                    counts["rhs_evals"] += k + 2 + 2 * len(z) * jacobians
                    counts["jacobians"] += jacobians
                return znew, inv
        elif err > 0.1 * prev:
            inv = None
    raise IntegrationError(
        f"implicit midpoint Newton did not converge: residual {err:.3e} "
        f"after {max_iter} updates (tol {tol:.1e})")


def _difference_table(table: list, z: list) -> tuple[list, list]:
    """The backward differences after node z is accepted, and their sizes.

    table holds the rows nabla^k z_n, k = 0 .. m-1, as lists of floats.
    The new rows are z, then nabla^k z_{n+1} = nabla^(k-1) z_{n+1} -
    nabla^(k-1) z_n up to k = PREDICTOR_MAX_ORDER; size[k] is the
    max-norm of row k (size[0], unused, is 0.0).
    """
    rows, size = [z], [0.0]
    for older in table[:PREDICTOR_MAX_ORDER]:
        z = list(map(sub, z, older))
        rows.append(z)
        size.append(max(map(abs, z)))
    return rows, size


def _extrapolate(table: list, size: list) -> list:
    """Predict the next node from the differences of m >= 2 nodes of
    equal step, a table of m rows.

    The guess z_n + nabla z_n + ... + nabla^k z_n, summed per component
    from +0 in that order, is the polynomial through the newest k+1
    nodes, taken one step ahead. As in the order selection of Adams and
    BDF codes (Hairer & Wanner, Solving ODEs II, IV.8), k starts at 1,
    linear extrapolation, and is raised while
    |nabla^{k+1} z_n|_inf < |nabla^k z_n|_inf, so a rough or
    under-resolved history keeps a low order. table and size are those
    of _difference_table.
    """
    m = len(table)
    k = 1
    while k + 1 < m and size[k + 1] < size[k]:
        k += 1
    return list(map(sum, zip(*table[:k + 1])))


def integrate_autonomous(f: Callable[[list], list | np.ndarray],
                         z0: np.ndarray,
                         horizon: float,
                         config: IntegratorConfig,
                         *,
                         state_labels: Sequence[str],
                         kind: str,
                         dim_base: int,
                         logs: dict | None = None,
                         meta: dict | None = None,
                         backward: bool = False) -> Trajectory:
    """Integrate dz/dt = f(z) over [0, horizon] and log invariants.

    horizon must be positive and finite; anything else raises ValueError
    before a step is taken. The run takes n = floor(horizon / dt + 1e-9)
    steps of dt, then one partial step of the remainder when it exceeds
    1e-12 max(1, horizon). Node i is at i * dt and the last at horizon,
    so a run to a node's time retakes the steps before it. No step, or
    more steps than numpy can store (2**62 or so, or more than memory
    holds), raises ValueError before a step is taken, too.

    With backward=True the steps are taken with -dt (the reported times
    still increase from 0), which together with a forward run forms the
    time-reversal test of the symmetric midpoint rule. logs maps
    invariant names to per-state callables; each is evaluated at every
    node into invariant_log under its name, in the order given.

    An IntegrationError from a step is raised again with "step i (t=...)"
    in front of its message, and a ValueError raised by f (a DomainError
    or LinAlgError, say) keeps its type and gains the same prefix.

    The implicit midpoint solve starts from z + dt f(z) on the first
    step, from linear extrapolation on a step whose size differs from
    the last one (the final partial step), and otherwise from the
    variable-order extrapolation of _extrapolate through the newest
    PREDICTOR_MAX_ORDER + 1 nodes at most. Its meta then also holds the
    run's totals "newton_updates", "jacobians" and "rhs_evals" (every
    evaluation of f the steps made, Jacobian columns included). The
    returned trajectory carries no derivs.

    f receives a list of Python floats on every call and returns a list
    of floats or an array. Both methods carry the state from step to
    step as a list, the form _midpoint_step and _rk4_step return, and
    store each node into the preallocated values array. The midpoint
    rule keeps the backward differences of the accepted nodes as a float
    table, updated once per step by _difference_table, and every guess
    after the first is formed from it in floats.
    """
    z0 = np.asarray(z0, dtype=float)
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ValueError("horizon must be positive and finite")
    midpoint = config.method != "rk4"
    sign = -1.0 if backward else 1.0
    try:
        n = int(np.floor(horizon / config.dt + 1e-9))
        rem = horizon - n * config.dt
        steps = n + 1 if rem > 1e-12 * max(1.0, horizon) else n
        values = np.empty((steps + 1, z0.size))
    except (OverflowError, ValueError, MemoryError) as err:
        # horizon / dt may overflow to inf; numpy refuses an array of more
        # than 2**63 bytes with ValueError, and memory it cannot get with
        # MemoryError.
        raise ValueError(
            f"horizon {horizon:.6g} at dt {config.dt:.6g} takes "
            f"{horizon / config.dt:.6g} steps, too many to store") from err
    if steps == 0:
        raise ValueError(f"horizon {horizon:.6g} at dt {config.dt:.6g} "
                         "takes no step")
    values[0] = z0
    z = z0.tolist()
    dt_prev = None
    inv = None
    table = [z]
    counts = {"newton_updates": 0, "jacobians": 0, "rhs_evals": 0}
    for i in range(steps):
        dt = config.dt if i < n else rem
        dt_signed = sign * dt
        try:
            if not midpoint:
                znew = _rk4_step(f, z, dt_signed)
                # _midpoint_step checks every iterate it takes itself.
                if not all(map(math.isfinite, znew)):
                    raise IntegrationError("state became non-finite")
            else:
                if i == 0:
                    guess = [a + dt_signed * b
                             for a, b in zip(z, _floats(f(z)))]
                    counts["rhs_evals"] += 1
                elif dt != dt_prev:
                    ratio = dt / dt_prev
                    guess = [a + ratio * b for a, b in zip(*table[:2])]
                    inv = None  # the iteration matrix belongs to one dt
                else:
                    guess = _extrapolate(table, size)
                znew, inv = _midpoint_step(f, z, dt_signed, guess,
                                           config.newton_tol,
                                           config.newton_max_iter, inv,
                                           counts=counts)
                table, size = _difference_table(table, znew)
        except IntegrationError as err:
            raise IntegrationError(
                f"step {i} (t={i * config.dt:.6g}): {err}", step=i) from err
        except ValueError as err:
            # A field that rejects its state (a DomainError, LinAlgError)
            # keeps its type; its message gains the step and time.
            err.args = (f"step {i} (t={i * config.dt:.6g}): {err}",)
            raise
        dt_prev = dt
        z = znew
        values[i + 1] = z
    times = np.arange(steps + 1) * config.dt
    times[steps] = horizon
    invariant_log = {name: np.array([fn(values[i])
                                     for i in range(values.shape[0])])
                     for name, fn in (logs or {}).items()}
    return Trajectory(times=times, values=values,
                      state_labels=tuple(state_labels), kind=kind,
                      dim_base=dim_base, invariant_log=invariant_log,
                      meta={**(meta or {}), **(counts if midpoint else {})})


def _full_rhs(system: FastSlowSystem) -> Callable[[list], list]:
    """The full field in fast time, on lists of Python floats.

    Each evaluation makes one call of each jet of the system and reads
    their slots under its contract: a list as it is, an array turned
    into floats once. Each x0 + eps x1 is formed per component, and a dot
    product adds the rounded products in index order from +0. For
    dim_base 1 that is numpy's dot bit for bit; longer dots can differ
    from a BLAS kernel that fuses multiply-adds, by rounding alone.
    """
    l = system.dim_base
    eps = system.epsilon
    slow, fast = system.slow, system.fast
    rows = range(l)

    def rhs(z: list) -> list:
        q = z[:l]
        p = z[l:2 * l]
        phi, gam = z[2 * l], z[2 * l + 1]
        a0, h0, _, ga0, gh0, gU0 = slow(q)
        a1, h1, _, ga1, gh1, gU1, da1, dh1, dU1 = fast(q, phi)
        a0, ga0, gh0, gU0, a1, ga1, gh1, gU1, da1 = map(
            _floats, (a0, ga0, gh0, gU0, a1, ga1, gh1, gU1, da1))
        half_gam2 = 0.5 * gam * gam
        out = []
        ap = 0.0
        for i in rows:
            a_i = a0[i] + eps * a1[i]
            out.append(eps * (p[i] + gam * a_i))
            ap += a_i * p[i]
        # Row i: jac_a[i] . p, d_i h and d_i U, each coefficient x + eps y.
        for i in rows:
            j0, j1 = ga0[i], ga1[i]
            jp = 0.0
            for k in rows:
                jp += (j0[k] + eps * j1[k]) * p[k]
            out.append(-eps * (gam * jp + half_gam2 * (gh0[i] + eps * gh1[i])
                               + (gU0[i] + eps * gU1[i])))
        dap = 0.0
        for i in rows:
            dap += da1[i] * p[i]
        out.append(ap + (float(h0) + eps * float(h1)) * gam)
        out.append(-eps * (gam * dap + half_gam2 * float(dh1)
                           + float(dU1)))
        return out

    return rhs


def full_velocities(system: FastSlowSystem,
                    state: PhaseStateFull) -> tuple[np.ndarray, float]:
    """Mixed-clock velocities (u, xi) of a full state.

    u = p + gamma a(q, phi) is the base velocity in the slow clock and
    xi = a . p + h gamma the fiber velocity dphi/dtau in the fast clock;
    these are the velocity slots at which the bundle momentum map
    reproduces gamma.
    """
    q = _floats(state.q)
    a0 = np.asarray(system.slow(q)[0], dtype=float)
    a1 = np.asarray(system.fast(q, state.phi)[0], dtype=float)
    u = state.p + state.gamma * (a0 + system.epsilon * a1)
    xi = system.energy_and_fiber_speed(state.q, state.p, state.phi,
                                       state.gamma)[1]
    return u, xi


def integrate_full(system: FastSlowSystem, state0: PhaseStateFull,
                   horizon: float, config: IntegratorConfig,
                   backward: bool = False) -> Trajectory:
    """Integrate the full system over fast time [0, horizon].

    horizon and config.dt are measured in the fast time tau and horizon
    may not exceed 10 / epsilon; the returned time column is the slow
    time t = eps * tau. Energy, the fiber momentum gamma, and the fiber
    speed dphi/dtau (negated for a backward run) are logged at every
    node. The stored phi column is wrapped to [0, 2*pi). There are no
    derivs, so "rhs_evals" counts the solver's evaluations alone. The
    logs are taken one block of nodes at a time (_row_blocks), so they
    hold one block of Python floats at most.
    """
    eps = system.epsilon
    if horizon > HORIZON_FACTOR_MAX / eps * (1.0 + 1e-9):
        raise ValueError(
            f"horizon {horizon:.6g} exceeds the supported bound "
            f"10/epsilon = {HORIZON_FACTOR_MAX / eps:.6g}")
    l = system.dim_base
    f = _full_rhs(system)
    sign = -1.0 if backward else 1.0
    labels = tuple([f"q{i + 1}" for i in range(l)]
                   + [f"p{i + 1}" for i in range(l)] + ["phi", "gamma"])

    traj = integrate_autonomous(
        f, state0.as_array(), horizon, config, state_labels=labels,
        kind="full", dim_base=l,
        meta={"epsilon": eps, "mu": system.mu, "clock": "slow (t = eps tau)"},
        backward=backward)
    # One evaluation of a and h per node gives both the energy and the
    # fiber speed, the phi component of _full_rhs term for term.
    energy, phi_dot = np.empty((2, len(traj)))
    for rows in _row_blocks(len(traj)):
        for i, z in enumerate(traj.values[rows].tolist(), rows.start):
            energy[i], phi_dot[i] = system.energy_and_fiber_speed(
                z[:l], z[l:2 * l], z[2 * l], z[2 * l + 1])
    phi_dot *= sign
    traj.invariant_log = {"energy": energy,
                          "momentum": traj.values[:, 2 * l + 1].copy(),
                          "phi_dot": phi_dot}
    traj.times = eps * traj.times
    traj.values[:, 2 * l] = np.mod(traj.values[:, 2 * l], TWO_PI)
    return traj


def integrate_reduced_canonical(avg: AveragedSystem,
                                state0: PhaseStateReduced, horizon: float,
                                config: IntegratorConfig) -> Trajectory:
    """Integrate the averaged system in the canonical chart.

    horizon and config.dt are measured directly in the slow time t; the
    eps prefactors of the slow equations are absorbed by that clock
    change, so no epsilon enters. The averaged energy is logged, and the
    momentum log holds the constant mu (exactly, since mu is a parameter
    of the flow rather than an evolving state). derivs holds the field at
    every node, and meta["rhs_evals"], if present, counts those calls.
    """
    state0 = convert_chart(state0, lambda Q: avg.slow(_floats(Q))[0],
                           avg.mu, "canonical")
    l = avg.dim_base
    mu = avg.mu
    slow = avg.slow

    def f(z) -> np.ndarray:
        z = np.array(z, dtype=float)
        P = z[l:]
        a0, _, _, ga0, gh0, gU0 = slow(z[:l].tolist())
        dQ = P + mu * np.asarray(a0, dtype=float)
        dP = -(mu * (np.asarray(ga0, dtype=float) @ P)
               + 0.5 * mu * mu * np.asarray(gh0, dtype=float)
               + np.asarray(gU0, dtype=float))
        return np.concatenate([dQ, dP])

    labels = tuple([f"Q{i + 1}" for i in range(l)]
                   + [f"P{i + 1}" for i in range(l)])
    traj = integrate_autonomous(
        f, state0.as_array(), horizon, config, state_labels=labels,
        kind="reduced_canonical", dim_base=l,
        logs={"energy": lambda z: averaged_hamiltonian(avg, z[:l], z[l:]),
              "momentum": lambda z: mu},
        meta={"mu": mu, "clock": "slow"})
    if "rhs_evals" in traj.meta:
        traj.meta["rhs_evals"] += len(traj)
    return dataclasses.replace(
        traj, derivs=np.array([f(z) for z in traj.values]))


def integrate_reduced_magnetic(avg: AveragedSystem,
                               state0: PhaseStateReduced, horizon: float,
                               config: IntegratorConfig) -> Trajectory:
    """Integrate the averaged system in the magnetic (shifted) chart.

    The state is (Q, P1) with P1 = P + mu a0(Q) and the flow is

        dQ/dt = P1,   dP1/dt = -grad Ubar_mu(Q) + B(Q)^T P1,

    a Lorentz force with magnetic matrix B. A reduction whose kinetic
    energy is not (1/2)|P1|^2, such as the disk of
    systems.disk_magnetic_rhs, has a field of its own for
    integrate_autonomous. The field is assembled in Python floats; as in
    _full_rhs, B^T v is a sum from +0 in index order, numpy's dot bit for
    bit when no row of it has two nonzero products (dim_base 1 and 2,
    where B is antisymmetric).
    """
    state0 = convert_chart(state0, lambda Q: avg.slow(_floats(Q))[0],
                           avg.mu, "magnetic")
    l = avg.dim_base
    mu = avg.mu
    slow = avg.slow

    def f(z: list) -> list:
        v = _floats(z[l:])
        a0, _, _, ga0, gh0, gU0 = slow(_floats(z[:l]))
        a0, ga0 = np.asarray(a0, dtype=float), np.asarray(ga0, dtype=float)
        g = _floats(0.5 * mu * mu * (np.asarray(gh0, dtype=float)
                                     - 2.0 * (ga0 @ a0))
                    + np.asarray(gU0, dtype=float))
        # Column i of B = mu (ga0 - ga0^T) dotted with v, summed from +0.
        dP1 = [-g_i + sum(map(mul, col, v))
               for g_i, col in zip(g, zip(*_floats(mu * (ga0 - ga0.T))))]
        return v + dP1

    def energy(z: np.ndarray) -> float:
        P1 = z[l:]
        return float(0.5 * (P1 @ P1) + effective_potential(avg, z[:l]))

    labels = tuple([f"Q{i + 1}" for i in range(l)]
                   + [f"P1_{i + 1}" for i in range(l)])
    return integrate_autonomous(
        f, state0.as_array(), horizon, config, state_labels=labels,
        kind="reduced_magnetic", dim_base=l,
        logs={"energy": energy, "momentum": lambda z: mu},
        meta={"mu": mu, "clock": "slow"})


def hermite_interpolate(times: np.ndarray, values: np.ndarray,
                        derivs: np.ndarray,
                        t_query: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolation of sampled values with derivatives."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    derivs = np.asarray(derivs, dtype=float)
    t_query = np.atleast_1d(np.asarray(t_query, dtype=float))
    if times.size < 2:
        return np.repeat(values[:1], t_query.size, axis=0)
    idx = np.clip(np.searchsorted(times, t_query, side="right") - 1,
                  0, times.size - 2)
    t0 = times[idx]
    t1 = times[idx + 1]
    h = t1 - t0
    s = ((t_query - t0) / h)[:, None]
    y0 = values[idx]
    y1 = values[idx + 1]
    d0 = derivs[idx] * h[:, None]
    d1 = derivs[idx + 1] * h[:, None]
    s2 = s * s
    s3 = s2 * s
    return ((2.0 * s3 - 3.0 * s2 + 1.0) * y0 + (s3 - 2.0 * s2 + s) * d0
            + (-2.0 * s3 + 3.0 * s2) * y1 + (s3 - s2) * d1)


@dataclass(frozen=True)
class ClosenessReport:
    """Sup-norm deviations between a full and a reduced trajectory.

    Errors are measured over slow times t in [0, min(horizons, 1)],
    i.e. fast times up to 1/eps; horizon records the fast-time length
    actually compared. sup_error_total is the sup over that window of
    |q-Q| + |p-P| + |gamma-mu| at one node; the halving ratio of a
    sweep (fastslow.experiments) divides the previous epsilon's
    sup_error_total by the next one's.
    """

    sup_error_q: float
    sup_error_p: float
    sup_error_gamma: float
    sup_error_total: float
    horizon: float
    epsilon: float


def closeness_report(full: Trajectory, reduced: Trajectory,
                     system: FastSlowSystem) -> ClosenessReport:
    """Compare a full trajectory against a canonical-chart reduced one.

    Initial conditions must match to 1e-12 ((q, p)(0) = (Q, P)(0) and
    gamma(0) = mu). The reduced trajectory, as integrate_reduced_canonical
    returns it, is cubic-Hermite interpolated to the full trajectory's
    time nodes; deviations use the Euclidean norm per node. Any other
    pair of kinds, a magnetic-chart reduced trajectory among them, and a
    reduced trajectory without derivs raise ValueError.

    The nodes are interpolated and compared one block of rows at a time
    (_row_blocks), and each sup is the max of the block maxima. Every
    operation is per node, so the report does not depend on the block
    size, and the temporaries are one block long.
    """
    if full.kind != "full" or reduced.kind != "reduced_canonical":
        raise ValueError(
            "closeness_report takes one full and one canonical-chart "
            f"reduced trajectory, got kinds {full.kind!r} and "
            f"{reduced.kind!r}")
    if reduced.derivs is None:
        raise ValueError("the reduced trajectory has no derivative column "
                         "(derivs); integrate_reduced_canonical gives one")
    l = system.dim_base
    mu = system.mu
    eps = system.epsilon
    red_values = reduced.values

    dq0 = float(np.max(np.abs(full.values[0, :l] - red_values[0, :l])))
    dp0 = float(np.max(np.abs(full.values[0, l:2 * l] - red_values[0, l:2 * l])))
    dg0 = abs(full.values[0, 2 * l + 1] - mu)
    if max(dq0, dp0, dg0) > IC_MATCH_TOL:
        raise ValueError(
            "initial conditions do not match: |q0-Q0|=%.3e, |p0-P0|=%.3e, "
            "|gamma0-mu|=%.3e exceed 1e-12" % (dq0, dp0, dg0))

    s_cap = min(full.times[-1], reduced.times[-1], 1.0)
    # The times increase strictly, so the nodes compared are a prefix.
    n_cmp = int(np.count_nonzero(
        full.times <= s_cap * (1.0 + 1e-12) + 1e-300))
    sups = []
    for rows in _row_blocks(n_cmp):
        interp = hermite_interpolate(reduced.times, red_values,
                                     reduced.derivs, full.times[rows])
        block = full.values[rows]
        err_q = np.sqrt(np.sum((block[:, :l] - interp[:, :l]) ** 2, axis=1))
        err_p = np.sqrt(np.sum((block[:, l:2 * l] - interp[:, l:]) ** 2,
                               axis=1))
        err_g = np.abs(block[:, 2 * l + 1] - mu)
        sups.append((np.max(err_q), np.max(err_p), np.max(err_g),
                     np.max(err_q + err_p + err_g)))
    # np.max, not max: a NaN in any block reaches the report.
    sup_q, sup_p, sup_g, sup_total = np.max(sups, axis=0).tolist()
    return ClosenessReport(
        sup_error_q=sup_q, sup_error_p=sup_p, sup_error_gamma=sup_g,
        sup_error_total=sup_total, horizon=float(s_cap / eps), epsilon=eps)


def closeness_case(system: FastSlowSystem, averaged: AveragedSystem,
                   state_full: PhaseStateFull,
                   state_reduced: PhaseStateReduced, horizon_slow: float,
                   config_full: IntegratorConfig,
                   config_reduced: IntegratorConfig
                   ) -> tuple[Trajectory, Trajectory, ClosenessReport]:
    """One epsilon of a sweep: integrate both systems and compare them.

    The full system runs to the fast time horizon_slow / eps and the
    averaged one to the slow time horizon_slow. An IntegrationError or
    ValueError from either run names the run and the epsilon at the end
    of its message, as in "(in the full integration at eps=0.005)".
    The epsilon sweep of fastslow.experiments (`fastslow verify pendulum`
    and `particle`) runs this once per epsilon and forms the halving
    ratios from the reports.
    """
    eps = system.epsilon
    with _integration(f"full integration at eps={eps!r}"):
        full = integrate_full(system, state_full, horizon_slow / eps,
                              config_full)
    with _integration(f"averaged integration at eps={eps!r}"):
        reduced = integrate_reduced_canonical(averaged, state_reduced,
                                              horizon_slow, config_reduced)
    return full, reduced, closeness_report(full, reduced, system)
