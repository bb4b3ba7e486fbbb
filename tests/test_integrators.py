"""Tests for the time steppers, chart flows, and closeness reports.

Oracles: free motion integrates exactly under the implicit midpoint
rule (the update map is exact on fields with nilpotent Jacobian), a
charged particle in a uniform magnetic field moves on a circle of
radius |P1| / b, and a fast-slow system with phi-independent
coefficients generates identical slow dynamics through the full and
the reduced route, so those two integrations must agree to stepper
accuracy. On a linear field dz/dt = A z the midpoint step is the closed
form (I - dt/2 A)^-1 (I + dt/2 A), and the chord Newton solver must
reproduce steps that build a fresh Jacobian each time, whatever
starting guess the extrapolating predictor chose. A system whose
jets are the central differences of their value slots (the difference
jets of tests/conftest.py) must flow as the same system with analytic
ones. Every field gets a list of Python floats on every call of
integrate_autonomous. The full
field, assembled in Python floats from one call of each jet, must
reproduce bit for bit the numpy assembly it replaced on the shipped
pendulum and particles, and the field compiled per dim_base the
closure it replaced (float_full_rhs) on the shipped systems and on a
dense 3-d system in the jet format, signed zeros included, and a system
whose jets return that system's slots as numpy arrays and floats must
integrate to its bytes, full and reduced, logs included;
and so must the list chord step (_midpoint_step, kept here as the
oracle of the compiled loop) the numpy step it replaced, with the
chord update written as the float sum it documents. The list
predictor's difference table extrapolates integer polynomials exactly
and selects the order the matrix-product differences it replaced
selected. The compiled implicit midpoint loop of integrate_autonomous
must reproduce a step-by-step run of that list oracle bit for bit: its
nodes, its counts, the points it calls the field at and its errors. The
energy and phi_dot logs and the closeness report, taken in row blocks,
must equal bit for bit the one-pass formulas they replaced, and each
reduced energy log the per-node call of its formula. _step_plan is
pinned by hand-counted plans and its refusals.
"""

import dataclasses
import math

import numpy as np
import pytest

from fastslow import integrators
from fastslow.averaging import _dot, _floats
from fastslow import (AveragedSystem, DomainError, EulerSystem,
                      FastSlowSystem, IntegrationError, IntegratorConfig,
                      PendulumParams, PhaseStateFull, PhaseStateReduced,
                      Trajectory,
                      average_coefficients, averaged_hamiltonian,
                      closeness_report, effective_potential,
                      euler_vector_field,
                      full_velocities,
                      hermite_interpolate, integrate_autonomous,
                      integrate_euler, integrate_full,
                      integrate_reduced_canonical,
                      integrate_reduced_magnetic, magnetic_form,
                      oscillating_particle_averaged, particle_potential_1d,
                      particle_potential_2d, particle_systems,
                      pendulum_systems, so3, uniform_field_averaged)

from conftest import difference_jets, slow_difference_jet

MIDPOINT = IntegratorConfig(method="implicit_midpoint", dt=1e-2)
RK4_FINE = IntegratorConfig(method="rk4", dt=1e-3)


def phi_independent_system(epsilon=1e-2, mu=0.7):
    """1d fast-slow system whose oscillating parts vanish identically."""
    def slow(q):
        x = q[0]
        return ([0.3 * np.sin(x)], 2.0 + x ** 2, 0.5 * x * x,
                [[0.3 * np.cos(x)]], [2.0 * x], [x])

    def fast(q, phi):
        return [0.0], 0.0, 0.0, [[0.0]], [0.0], [0.0], [0.0], 0.0, 0.0

    return FastSlowSystem(dim_base=1, slow=slow, fast=fast,
                          epsilon=epsilon, mu=mu)


def wrapped_distance(x, y):
    d = np.mod(x - y, 2.0 * np.pi)
    return min(d, 2.0 * np.pi - d)


class TestSteppers:
    def test_midpoint_exact_on_free_motion(self):
        # f has nilpotent Jacobian, so each midpoint step is exact.
        f = lambda z: np.array([z[1], 0.0])
        traj = integrate_autonomous(
            f, np.array([1.0, 0.5]), 1.0, MIDPOINT,
            state_labels=("q", "p"), kind="generic", dim_base=1)
        want = 1.0 + 0.5 * traj.times
        assert np.max(np.abs(traj.values[:, 0] - want)) < 1e-10
        assert np.max(np.abs(traj.values[:, 1] - 0.5)) < 1e-12

    def test_rk4_matches_exponential(self):
        f = lambda z: [-x for x in z]
        traj = integrate_autonomous(
            f, np.array([2.0]), 1.0, RK4_FINE,
            state_labels=("x",), kind="generic", dim_base=1)
        want = 2.0 * np.exp(-traj.times)
        assert np.max(np.abs(traj.values[:, 0] - want)) < 1e-10

    def test_backward_steps_run_the_reversed_flow(self):
        f = lambda z: z
        traj = integrate_autonomous(
            negated(f), np.array([1.0]), 1.0, RK4_FINE,
            state_labels=("x",), kind="generic", dim_base=1)
        assert traj.times[-1] == pytest.approx(1.0)
        assert np.all(np.diff(traj.times) > 0.0)
        assert abs(traj.values[-1, 0] - np.exp(-1.0)) < 1e-10

    def test_final_partial_step_lands_on_horizon(self):
        f = lambda z: np.zeros(1)
        traj = integrate_autonomous(
            f, np.zeros(1), 0.25, IntegratorConfig(dt=0.1),
            state_labels=("x",), kind="generic", dim_base=1)
        assert len(traj) == 4
        assert abs(traj.times[-1] - 0.25) < 1e-14

    @pytest.mark.parametrize("returns", [list, np.array])
    @pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
    def test_field_gets_a_list_of_floats_on_every_call(self, method,
                                                       returns):
        # The midpoint run's calls include the first step's Euler guess,
        # the Jacobian columns of two iteration matrices (the partial
        # last step builds its own) and every residual; the field may
        # answer with a list or an array.
        seen = []

        def spy(z):
            seen.append(type(z) is list and all(type(x) is float for x in z))
            return returns([z[1], -math.sin(z[0])])

        traj = integrate_autonomous(
            spy, np.array([1.0, 0.0]), 1.05,
            IntegratorConfig(method=method, dt=0.1),
            state_labels=("x", "v"), kind="generic", dim_base=1)
        assert all(seen)
        if method == "rk4":
            assert len(seen) == 4 * (len(traj) - 1)
        else:
            assert traj.meta["jacobians"] == 2
            assert traj.meta["rhs_evals"] == len(seen)

    @pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
    def test_node_times_are_step_multiples_and_restarts_retake_them(
            self, method):
        # Node i is at i * dt and the last node at horizon, so a run
        # again to a node's time retakes the same steps bit for bit.
        rng = np.random.default_rng(61)
        f = lambda z: np.array([z[1], -np.sin(z[0])])
        for _ in range(60):
            config = IntegratorConfig(method=method,
                                      dt=rng.uniform(5e-3, 0.05))
            run = lambda horizon: integrate_autonomous(
                f, np.array([1.0, 0.0]), horizon, config,
                state_labels=("x", "v"), kind="generic", dim_base=1)
            horizon = rng.uniform(0.05, 2.0)
            traj = run(horizon)
            assert traj.times[-1] == horizon
            assert np.array_equal(traj.times[:-1],
                                  np.arange(len(traj) - 1) * config.dt)
            k = int(rng.integers(1, len(traj)))
            again = run(traj.times[k])
            assert np.array_equal(again.times, traj.times[:k + 1])
            assert np.array_equal(again.values, traj.values[:k + 1])

    def test_newton_failure_reports_step(self):
        config = IntegratorConfig(dt=10.0, newton_max_iter=1)
        with pytest.raises(IntegrationError) as err:
            integrate_autonomous(
                lambda z: np.array(z) ** 3, np.array([1.0]), 20.0, config,
                state_labels=("x",), kind="generic", dim_base=1)
        assert err.value.step == 0
        assert "converge" in str(err.value)

    @staticmethod
    def infinite_past_055():
        # The field turns infinite past x = 0.55, which the midpoint of
        # step 5, from x = 0.5, reaches.
        return lambda z: np.array([1.0 if z[0] < 0.55 else np.inf]), 1, 5

    @staticmethod
    def nan_in_last_component():
        # The same crossing, with a NaN behind a finite first component:
        # Python's max of the absolute residuals would skip it.
        return (lambda z: np.array([1.0, 0.0 if z[0] < 0.55 else np.nan]),
                2, 5)

    @staticmethod
    def nan_on_the_accept_path():
        # On this constant field step 0 evaluates f 7 times (the Euler
        # guess, a residual, two Jacobian columns of two calls each, and
        # the residual after its one update) and every later step twice:
        # the guess's residual, which meets tolerance, then the residual
        # after the extra update, which accepts the step. Call 13 is
        # step 3's accept path; a NaN there alone must not be accepted.
        calls = []

        def f(z):
            calls.append(1)
            return np.array([1.0, np.nan if len(calls) == 13 else 0.0])

        return f, 2, 3

    @pytest.mark.parametrize("case", ["infinite_past_055",
                                      "nan_in_last_component",
                                      "nan_on_the_accept_path"])
    def test_nonfinite_midpoint_field_reports_step(self, case):
        f, n, step = getattr(self, case)()
        with pytest.raises(IntegrationError) as err:
            integrate_autonomous(
                f, np.zeros(n), 1.0, IntegratorConfig(dt=0.1),
                state_labels=("x", "y")[:n], kind="generic", dim_base=1)
        assert err.value.step == step
        assert f"step {step} (t=0.{step}): " in str(err.value)
        assert "non-finite" in str(err.value)

    @pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
    def test_field_value_error_reports_step(self, method):
        # Step 3 from x = 0.3 is the first to evaluate f past x = 0.32;
        # the field's error keeps its type and gains the step and time.
        def f(z):
            if z[0] > 0.32:
                raise np.linalg.LinAlgError("Singular matrix")
            return np.ones(1)

        with pytest.raises(np.linalg.LinAlgError,
                           match=r"^step 3 \(t=0\.3\): Singular matrix$"):
            integrate_autonomous(
                f, np.zeros(1), 1.0, IntegratorConfig(method=method, dt=0.1),
                state_labels=("x",), kind="generic", dim_base=1)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_nonfinite_state_reports_step(self):
        config = IntegratorConfig(method="rk4", dt=5.0)
        with pytest.raises(IntegrationError) as err:
            integrate_autonomous(
                lambda z: np.array(z) ** 2, np.array([1.0]), 50.0, config,
                state_labels=("x",), kind="generic", dim_base=1)
        assert err.value.step is not None

    @pytest.mark.parametrize("horizon", [0.0, math.inf, math.nan])
    def test_rejects_horizon_that_is_not_positive_and_finite(self, horizon):
        with pytest.raises(ValueError, match="positive and finite"):
            integrate_autonomous(lambda z: -z, np.ones(1), horizon, RK4_FINE,
                                 state_labels=("x",), kind="generic",
                                 dim_base=1)

    @pytest.mark.parametrize("horizon, dt", [
        (1e300, 1e-3), (2.0 ** 63 * 1e-3, 1e-3), (1e300, 1e-10),
    ], ids=["1e300", "over-2**62-steps", "inf-steps"])
    def test_rejects_step_count_too_large_to_store(self, horizon, dt):
        # Each count needs more than 2**63 bytes of nodes, or overflows
        # to inf, so the run fails before anything is allocated.
        with pytest.raises(ValueError, match="steps, too many to store"):
            integrate_autonomous(lambda z: -z, np.ones(1), horizon,
                                 IntegratorConfig(method="rk4", dt=dt),
                                 state_labels=("x",), kind="generic",
                                 dim_base=1)

    @pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
    def test_rejects_an_empty_state(self, method):
        with pytest.raises(ValueError, match="at least one float"):
            integrate_autonomous(lambda z: z, np.zeros(0), 1.0,
                                 IntegratorConfig(method=method, dt=0.1),
                                 state_labels=(), kind="generic",
                                 dim_base=1)

    @pytest.mark.parametrize("horizon", [1e-13, 5e-13])
    def test_rejects_horizon_shorter_than_a_step(self, horizon):
        # floor(horizon / dt) is 0 and the remainder is within 1e-12, so
        # the run would take no step.
        with pytest.raises(ValueError, match="takes no step"):
            integrate_autonomous(lambda z: -z, np.ones(1), horizon, RK4_FINE,
                                 state_labels=("x",), kind="generic",
                                 dim_base=1)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="method"):
            IntegratorConfig(method="euler")
        # A bool or a string is a bad value too, and raises ValueError
        # rather than a TypeError from a comparison.
        for dt in (0.0, math.inf, math.nan, True, "abc"):
            with pytest.raises(ValueError, match="dt"):
                IntegratorConfig(dt=dt)
        with pytest.raises(ValueError, match="newton_tol"):
            IntegratorConfig(newton_tol=1e-3)
        for cap in (0, 2.5, math.inf, True):
            with pytest.raises(ValueError, match="newton_max_iter"):
                IntegratorConfig(newton_max_iter=cap)

    def test_integral_float_iteration_cap_is_stored_as_int(self):
        cap = IntegratorConfig(newton_max_iter=40.0).newton_max_iter
        assert cap == 40 and type(cap) is int


class TestStepPlan:
    """_step_plan, the one step rule of every stepping loop."""

    @pytest.mark.parametrize("horizon, dt, plan", [
        (1.0, 0.25, (4, 0.0, 4)),
        # 0.3 / 0.1 rounds below 3, and 3 steps of 0.1 overshoot 0.3 by
        # an ulp: three steps, the last node stamped at the horizon.
        (0.3, 0.1, (3, 0.3 - 3 * 0.1, 3)),
        (1.0, 0.3, (3, 1.0 - 3 * 0.3, 4)),
        (0.05, 0.1, (0, 0.05, 1)),
        (2.0 ** 62, 1.0, (2 ** 62, 0.0, 2 ** 62)),
    ], ids=["exact_multiple", "rounded_multiple", "partial_last_step",
            "one_partial_step", "2**62_steps"])
    def test_plan(self, horizon, dt, plan):
        assert integrators._step_plan(horizon, dt) == plan

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_a_horizon_not_positive_and_finite(self, horizon):
        with pytest.raises(ValueError) as excinfo:
            integrators._step_plan(horizon, 0.1)
        assert str(excinfo.value) == (
            f"horizon must be positive and finite, got {horizon!r}")

    @pytest.mark.parametrize("horizon, dt, message", [
        (5e-13, 0.1, "takes no step"),
        (1e300, 1e-10, "steps, too many to store"),
        (2.0 ** 63, 1.0, "steps, too many to store"),
        (1e300, 1e-3, "steps, too many to store"),
    ], ids=["no_step", "overflow_to_inf", "over_sys.maxsize",
            "far_over_sys.maxsize"])
    def test_rejects_a_step_count(self, horizon, dt, message):
        with pytest.raises(ValueError) as excinfo:
            integrators._step_plan(horizon, dt)
        assert str(excinfo.value).startswith(
            f"horizon {horizon:.6g} at dt {dt:.6g} takes ")
        assert str(excinfo.value).endswith(message)

    @pytest.mark.parametrize("horizon", [1.0, 0.3, 0.05])
    def test_integrate_autonomous_takes_the_plan(self, horizon):
        # Node i at i dt, the last at the horizon, one node per step.
        config = IntegratorConfig(method="rk4", dt=0.1)
        traj = integrate_autonomous(lambda z: [-z[0]], np.ones(1), horizon,
                                    config, state_labels=("x",),
                                    kind="generic", dim_base=1)
        steps = integrators._step_plan(horizon, 0.1)[2]
        assert traj.times.tolist() == [i * 0.1 for i in range(steps)] + [
            horizon]


def counted_jacobians(monkeypatch):
    """Record the point of every Jacobian the midpoint solver builds."""
    points = []
    original = integrators.jacobian

    def counting(f, x, *args, **kwargs):
        points.append(np.array(x, dtype=float))
        return original(f, x, *args, **kwargs)

    monkeypatch.setattr(integrators, "jacobian", counting)
    return points


# The list implementation of the implicit midpoint rule that the
# compiled loop of integrators._midpoint_loop replaced, kept as its
# oracle: _midpoint_step, _difference_table and _extrapolate, and the
# midpoint branch of integrate_autonomous's step loop in oracle_run.
# Their sums are float_dot and a loop from +0.0, the additions of the
# built-in sum() they used on CPython 3.10 and 3.11.

def float_dot(row, res):
    """row . res as the chord update documents it: the rounded products
    added one by one, from +0, in index order."""
    total = 0.0
    for a, b in zip(row, res):
        total += a * b
    return total


def _midpoint_step(f, z, dt, guess, tol, max_iter, inv=None, *,
                   counts=None):
    """One implicit midpoint step z' = z + dt f((z + z')/2) by chord
    Newton, on lists of floats. inv is the inverse of I - dt/2 J from an
    earlier step with the same dt, as rows of floats, or None. Returns
    z' and the inverse used last; a converged step adds its chord
    updates, evaluations of f and Jacobians to counts."""
    z = _floats(z)
    znew = _floats(guess)
    bound = tol * max(1.0, max(map(abs, z)))
    jacobians = 0

    def residual(znew):
        mid = [0.5 * (a + b) for a, b in zip(z, znew)]
        res = [b - a - dt * c for a, b, c in zip(z, znew, _floats(f(mid)))]
        if not all(map(math.isfinite, res)):
            raise IntegrationError("implicit midpoint residual is non-finite")
        return mid, res, max(map(abs, res))

    mid, res, err = residual(znew)
    for k in range(max_iter):
        if inv is None:
            inv = np.linalg.inv(
                np.eye(len(z)) - 0.5 * dt * integrators.jacobian(
                    lambda x: f(x.tolist()), mid).T).tolist()
            jacobians += 1
        znew = [a - float_dot(row, res) for a, row in zip(znew, inv)]
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


def _difference_table(table, z):
    """The backward differences after node z is accepted, and their
    max-norms: rows z, then nabla^k z_{n+1} = nabla^(k-1) z_{n+1} -
    nabla^(k-1) z_n up to k = PREDICTOR_MAX_ORDER (size[0] is 0.0)."""
    rows, size = [z], [0.0]
    for older in table[:integrators.PREDICTOR_MAX_ORDER]:
        z = [a - b for a, b in zip(z, older)]
        rows.append(z)
        size.append(max(map(abs, z)))
    return rows, size


def _extrapolate(table, size):
    """The guess z_n + nabla z_n + ... + nabla^k z_n from a table of m >= 2
    rows, with k raised from 1 while the next row is smaller."""
    m = len(table)
    k = 1
    while k + 1 < m and size[k + 1] < size[k]:
        k += 1
    guess = []
    for column in zip(*table[:k + 1]):
        total = 0.0
        for x in column:
            total += x
        guess.append(total)
    return guess


def oracle_run(f, z0, horizon, config, backward=False):
    """The nodes and counts of an implicit midpoint integrate_autonomous
    run, step by step through the list oracle, with its step errors."""
    z0 = np.asarray(z0, dtype=float)
    sign = -1.0 if backward else 1.0
    n = int(np.floor(horizon / config.dt + 1e-9))
    rem = horizon - n * config.dt
    steps = n + 1 if rem > 1e-12 * max(1.0, horizon) else n
    values = np.empty((steps + 1, z0.size))
    values[0] = z0
    z = z0.tolist()
    dt_prev = inv = None
    table = [z]
    counts = {"newton_updates": 0, "jacobians": 0, "rhs_evals": 0}
    for i in range(steps):
        dt = config.dt if i < n else rem
        dt_signed = sign * dt
        try:
            if i == 0:
                guess = [a + dt_signed * b for a, b in zip(z, _floats(f(z)))]
                counts["rhs_evals"] += 1
            elif dt != dt_prev:
                ratio = dt / dt_prev
                guess = [a + ratio * b for a, b in zip(*table[:2])]
                inv = None
            else:
                guess = _extrapolate(table, size)
            z, inv = _midpoint_step(f, z, dt_signed, guess, config.newton_tol,
                                    config.newton_max_iter, inv,
                                    counts=counts)
            table, size = _difference_table(table, z)
        except IntegrationError as err:
            raise IntegrationError(
                f"step {i} (t={i * config.dt:.6g}): {err}", step=i) from err
        except ValueError as err:
            err.args = (f"step {i} (t={i * config.dt:.6g}): {err}",)
            raise
        dt_prev = dt
        values[i + 1] = z
    return values, counts


def fresh_step_error(f, traj, config):
    """Largest gap between each node and a midpoint step taken afresh,
    with a new Jacobian and an explicit Euler guess, from the node before
    it; every step of traj must have size config.dt."""
    dt = config.dt
    worst = 0.0
    for z, row in zip(traj.values[:-1], traj.values[1:]):
        fresh, _ = _midpoint_step(
            f, z, dt, z + dt * np.asarray(f(z.tolist())), config.newton_tol,
            config.newton_max_iter)
        worst = max(worst, float(np.max(np.abs(row - fresh))))
    return worst


def array_field(f):
    """f, which takes a list, as a field of arrays, for the references."""
    return lambda x: np.asarray(f(np.asarray(x).tolist()), dtype=float)


def numpy_midpoint_step(f, z, dt, guess, tol, max_iter, inv=None, *,
                        counts=None):
    """The chord Newton step as it was computed on numpy arrays, the
    reference for the float step of _midpoint_step. Only its
    chord update, once inv @ res, is the documented float sum (float_dot
    of each row of inv with the residual), so that no BLAS kernel rounds
    the reference either. f takes lists, as integrate_autonomous's
    fields do."""
    f = array_field(f)
    bound = tol * max(1.0, float(np.abs(z).max()))
    jacobians = 0
    znew = guess
    mid = 0.5 * (z + znew)
    res = znew - z - dt * f(mid)
    err = float(np.abs(res).max())
    for k in range(max_iter):
        if inv is None:
            inv = np.linalg.inv(np.eye(z.size)
                                - 0.5 * dt * integrators.jacobian(f, mid).T)
            jacobians += 1
        znew = znew - np.array([float_dot(row, res.tolist())
                                for row in inv.tolist()])
        if not np.isfinite(znew).all():
            raise IntegrationError("Newton iterate became non-finite")
        mid = 0.5 * (z + znew)
        res = znew - z - dt * f(mid)
        prev, err = err, float(np.abs(res).max())
        if err <= bound:
            if prev <= bound or k == max_iter - 1:
                if counts is not None:
                    counts["newton_updates"] += k + 1
                    counts["rhs_evals"] += k + 2 + 2 * z.size * jacobians
                    counts["jacobians"] += jacobians
                return znew, inv
        elif err > 0.1 * prev:
            inv = None
    raise IntegrationError(
        f"implicit midpoint Newton did not converge: residual {err:.3e} "
        f"after {max_iter} updates (tol {tol:.1e})")


def step_field(name):
    """(f, state size, dt) of a field the float step is checked on."""
    if name == "pendulum":
        system, _ = pendulum_systems(PendulumParams(epsilon=5e-3))
        return integrators._full_rhs(system), 4, 1e-2
    if name == "euler_so3":
        system = EulerSystem(algebra=so3(), inertia=np.diag([1.0, 2.0, 3.0]))
        return euler_vector_field(system), 3, 1e-2
    if name == "linear_2d":
        a = np.array([[-0.3, 1.0], [-2.0, 0.1]])
        return lambda z: a @ z, 2, 0.1
    if name == "van_der_pol":
        # Under-resolved at mu = 5 and dt = 0.2 (TestPredictor): several
        # large chord updates per step.
        return (lambda z: [z[1], 5.0 * (1.0 - z[0] ** 2) * z[1] - z[0]], 2,
                0.2)
    if name == "ring_12":
        # Six pendulums on a ring, each coupled to its two neighbours: a
        # state of 12 floats, positions then velocities. The step is
        # coarse, so that the rounding of each chord update shows.
        def ring(z):
            x = z[:6]
            return z[6:] + [-math.sin(x[i]) + 0.3 * (x[i - 1] - 2.0 * x[i]
                                                     + x[(i + 1) % 6])
                            for i in range(6)]
        return ring, 12, 0.3
    # The poor-contraction case of TestChordNewton: the cached matrix
    # stops contracting and is rebuilt mid-sequence.
    return lambda z: -np.sin(z), 1, 0.5


def negated(f):
    """The field -f: a backward run of integrate_autonomous is the
    forward run of the negated field."""
    return lambda z: [-v for v in f(z)]


def recorded(f, log):
    """f, appending the bytes of every argument it is called with to log."""
    def wrapped(z):
        log.append(np.asarray(z).tobytes())
        return f(z)
    return wrapped


def midpoint_map(a, dt):
    """Exact one-step map of the implicit midpoint rule on dz/dt = A z."""
    eye = np.eye(a.shape[0])
    return np.linalg.solve(eye - 0.5 * dt * a, eye + 0.5 * dt * a)


class TestChordNewton:
    A = np.array([[-0.3, 1.0], [-2.0, 0.1]])

    def linear_run(self, horizon, config, backward=False):
        f = lambda z: self.A @ z
        return integrate_autonomous(
            negated(f) if backward else f, np.array([1.0, -0.5]), horizon,
            config, state_labels=("x", "y"), kind="generic", dim_base=1)

    def test_single_update_accepted_when_converged(self):
        # Newton is exact on a linear field, so one update per step meets
        # tolerance and newton_max_iter = 1 must not raise.
        config = IntegratorConfig(dt=0.1, newton_max_iter=1)
        traj = self.linear_run(1.0, config)
        step = midpoint_map(self.A, 0.1)
        want = np.array([1.0, -0.5])
        for row in traj.values[1:]:
            want = step @ want
            assert np.max(np.abs(row - want)) < 1e-12

    def test_one_jacobian_per_integration_at_constant_dt(self, monkeypatch):
        points = counted_jacobians(monkeypatch)
        traj = self.linear_run(1.0, IntegratorConfig(dt=0.01))
        assert len(traj) == 101
        assert len(points) == 1

    @pytest.mark.parametrize("backward", [False, True])
    def test_partial_last_step_builds_a_new_jacobian(self, monkeypatch,
                                                     backward):
        # Ten full steps let the extrapolated guess reach its top order
        # before the partial step falls back to a linear one.
        points = counted_jacobians(monkeypatch)
        traj = self.linear_run(1.05, IntegratorConfig(dt=0.1),
                               backward=backward)
        assert len(traj) == 12
        assert len(points) == 2
        sign = -1.0 if backward else 1.0
        want = np.array([1.0, -0.5])
        for row, dt in zip(traj.values[1:], [0.1] * 10 + [0.05]):
            want = midpoint_map(self.A, sign * dt) @ want
            assert np.max(np.abs(row - want)) < 1e-12

    def test_poor_contraction_refreshes_and_matches_fresh_steps(
            self, monkeypatch):
        # Large steps of dz/dt = -sin z from near the unstable rest point
        # swing the Jacobian -cos z from about +1 to -1, so the cached
        # matrix stops contracting and must be rebuilt mid-integration.
        f = lambda z: -np.sin(z)
        config = IntegratorConfig(dt=0.5)
        z0 = np.array([3.0])
        points = counted_jacobians(monkeypatch)
        traj = integrate_autonomous(
            f, z0, 10.0, config, state_labels=("x",), kind="generic",
            dim_base=1)
        assert len(traj) == 21
        assert len(points) > 1
        assert fresh_step_error(f, traj, config) <= config.newton_tol


class TestFloatStep:
    """The float chord step is the numpy step, with the chord update as
    a float sum, bit for bit."""

    @pytest.mark.parametrize("name", ["pendulum", "euler_so3", "linear_2d",
                                      "poor_contraction"])
    def test_float_step_is_the_numpy_step_bit_for_bit(self, name):
        f, n, dt = step_field(name)
        rng = np.random.default_rng(3)
        got_inv = want_inv = None
        got_counts = {"newton_updates": 0, "jacobians": 0, "rhs_evals": 0}
        want_counts = dict(got_counts)
        for trial in range(300):
            z = rng.uniform(-3.0, 3.0, n)
            guess = (z + dt * np.asarray(f(z.tolist()))
                     + rng.uniform(-1e-2, 1e-2, n) * dt)
            if trial % 3 == 2:
                # A guess far from z: the first updates are then large
                # enough for the rounding of their sums to show in z'.
                guess = guess + rng.uniform(-1.0, 1.0, n)
            if trial % 2:
                # integrate_autonomous passes z as a list, fresh_step_error
                # as an array.
                z = z.tolist()
            # The points f is called at, midpoints and Jacobian stencils,
            # must match too: Newton's last update can absorb a one-ulp
            # change of the midpoint before the iterate is rounded.
            want_args, got_args = [], []
            want, want_inv = numpy_midpoint_step(
                recorded(f, want_args), np.array(z), dt, np.array(guess),
                1e-12, 50, want_inv, counts=want_counts)
            got, got_inv = _midpoint_step(
                recorded(f, got_args), z, dt, guess, 1e-12, 50, got_inv,
                counts=got_counts)
            assert got_args == want_args, trial
            assert np.array(got).tobytes() == want.tobytes(), trial
            assert np.array(got_inv).tobytes() == want_inv.tobytes(), trial
            assert got_counts == want_counts, trial
        assert want_counts["newton_updates"] > 300
        if name == "poor_contraction":
            assert want_counts["jacobians"] > 1


class TestMidpointLoop:
    """The compiled midpoint loop is the list oracle bit for bit: its
    nodes, its meta counts, the points it calls f at and its errors."""

    @pytest.mark.parametrize("backward", [False, True],
                             ids=["forward", "backward"])
    @pytest.mark.parametrize("name", ["pendulum", "euler_so3", "linear_2d",
                                      "poor_contraction", "van_der_pol",
                                      "ring_12"])
    def test_loop_is_the_list_oracle_bit_for_bit(self, name, backward):
        f, n, dt = step_field(name)
        z0 = np.random.default_rng(17).uniform(-1.0, 1.0, n)
        if name == "poor_contraction":
            # Near the rest point the flow leaves, forward or backward.
            z0 = np.array([0.1 if backward else 3.0])
        # 40 full steps raise the guess to its top order; the partial
        # last step falls back to a linear guess and a new matrix.
        config = IntegratorConfig(dt=dt)
        want_args, got_args = [], []
        want, counts = oracle_run(recorded(f, want_args), z0, 40.5 * dt,
                                  config, backward)
        got_f = recorded(f, got_args)
        traj = integrate_autonomous(
            negated(got_f) if backward else got_f, z0, 40.5 * dt, config,
            state_labels=[f"z{i}" for i in range(n)], kind="generic",
            dim_base=1)
        assert len(traj) == 42
        assert got_args == want_args
        assert traj.values.tobytes() == want.tobytes()
        assert traj.meta == counts
        assert counts["jacobians"] > (2 if name == "poor_contraction" else 1)

    @staticmethod
    def failing_run(case):
        """(f, z0, horizon, config) of a run that fails on the case's path."""
        if case == "nonfinite_residual":
            return (lambda z: [1.0 if z[0] < 0.55 else math.inf], [0.0],
                    1.0, IntegratorConfig(dt=0.1))
        if case == "nonfinite_iterate":
            # 1 - (dt/2) c = 2**-40, so the chord matrix is about 1.1e12
            # and the first update from z = 1e300 overflows.
            c = 2.0 * (1.0 - 2.0 ** -40)
            return (lambda z: [c * z[0]], [1e300], 1.0,
                    IntegratorConfig(dt=1.0))
        if case == "no_convergence":
            # dz/dt = z^2 from z = 1 blows up at t = 1; step 4 is the
            # first that needs more than 8 updates.
            return (lambda z: [z[0] * z[0]], [1.0], 2.0,
                    IntegratorConfig(dt=0.1, newton_max_iter=8))

        def f(z):
            if z[0] > 0.32:
                raise np.linalg.LinAlgError("Singular matrix")
            return [1.0]

        return f, [0.0], 1.0, IntegratorConfig(dt=0.1)

    @pytest.mark.parametrize("case, message", [
        ("nonfinite_residual", "implicit midpoint residual is non-finite"),
        ("nonfinite_iterate", "Newton iterate became non-finite"),
        ("no_convergence", "implicit midpoint Newton did not converge"),
        ("value_error", "Singular matrix")])
    def test_errors_are_the_oracles(self, case, message):
        f, z0, horizon, config = self.failing_run(case)
        with pytest.raises((IntegrationError, ValueError)) as want:
            oracle_run(f, z0, horizon, config)
        with pytest.raises((IntegrationError, ValueError)) as got:
            integrate_autonomous(f, np.array(z0), horizon, config,
                                 state_labels=("x",), kind="generic",
                                 dim_base=1)
        assert message in str(want.value)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert (getattr(got.value, "step", None)
                == getattr(want.value, "step", None))

    def test_one_compiled_loop_per_source(self):
        # The one cache of generated code is keyed by the source text.
        loop = integrators._compiled(integrators._midpoint_source(3))
        assert integrators._compiled(integrators._midpoint_source(3)) is loop
        assert (integrators._compiled(integrators._midpoint_source(4)).__code__
                is not loop.__code__)


def numpy_rk4_step(f, z, dt):
    """The RK4 step as it was computed on numpy arrays, kept verbatim as
    the reference for the compiled RK4 loop of integrate_autonomous, with
    f taking lists."""
    f = array_field(f)
    k1 = f(z)
    k2 = f(z + 0.5 * dt * k1)
    k3 = f(z + 0.5 * dt * k2)
    k4 = f(z + dt * k3)
    return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestFloatRK4:
    """The compiled RK4 loop of integrate_autonomous is a loop of the
    numpy step bit for bit, and raises as the interpreted loop did."""

    @staticmethod
    def run(f, z0, horizon, dt, backward=False):
        return integrate_autonomous(
            negated(f) if backward else f, np.asarray(z0, dtype=float),
            horizon, IntegratorConfig(method="rk4", dt=dt),
            state_labels=tuple(f"z{i}" for i in range(len(z0))),
            kind="generic", dim_base=1).values

    @pytest.mark.parametrize("backward", [False, True],
                             ids=["forward", "backward"])
    @pytest.mark.parametrize("name", ["linear_2d", "pendulum"])
    def test_float_rk4_is_the_numpy_rk4_bit_for_bit(self, name, backward):
        # linear_2d returns an array, the pendulum's full field a list. The
        # horizon ends in a partial step, sized as integrate_autonomous
        # sizes it.
        f, n, dt = step_field(name)
        z0 = np.random.default_rng(7).uniform(-1.0, 1.0, n)
        horizon = 200.37 * dt
        full = int(np.floor(horizon / dt + 1e-9))
        rem = horizon - full * dt
        sign = -1.0 if backward else 1.0
        want, want_args = [z0], []
        for i in range(full + 1):
            want.append(numpy_rk4_step(recorded(f, want_args), want[-1],
                                       sign * (dt if i < full else rem)))
        got_args = []
        got = self.run(recorded(f, got_args), z0, horizon, dt, backward)
        assert len(got) == full + 2 and 0.0 < rem < dt
        assert got_args == want_args
        assert got.tobytes() == np.array(want).tobytes()

    @staticmethod
    def until(value):
        """A field of 1 below 0.25 that returns value at or above it."""
        return lambda z: [1.0] if z[0] < 0.25 else [value]

    def test_a_nonfinite_state_raises_with_its_step(self):
        # Step 2 starts at 0.2 and its second stage is at 0.25.
        with pytest.raises(IntegrationError) as err:
            self.run(self.until(math.inf), [0.0], 1.0, 0.1)
        assert str(err.value) == "step 2 (t=0.2): state became non-finite"
        assert err.value.step == 2

    def test_a_domain_error_keeps_its_type_and_gains_the_step(self):
        def f(z):
            if z[0] >= 0.25:
                raise DomainError(f"point {z[0]:.2f} lies outside")
            return [1.0]

        with pytest.raises(DomainError) as err:
            self.run(f, [0.0], 1.0, 0.1)
        assert str(err.value) == "step 2 (t=0.2): point 0.25 lies outside"

    def test_runs_of_one_state_size_share_one_compiled_loop(
            self, monkeypatch):
        loops, compiled = [], integrators._compiled

        def recording(source):
            loops.append(compiled(source))
            return loops[-1]

        monkeypatch.setattr(integrators, "_compiled", recording)
        self.run(lambda z: [z[1], -z[0]], [1.0, 0.0], 1.0, 0.1)
        self.run(lambda z: np.array(z), [0.5, -0.5], 0.3, 0.1, True)
        self.run(lambda z: [1.0, 2.0, 3.0], [0.0, 0.0, 0.0], 1.0, 0.1)
        assert loops[0] is loops[1]
        assert loops[2].__code__ is not loops[0].__code__


# Row j of _BACKWARD[:m, :m] @ (z_n, z_{n-1}, ..., z_{n-m+1}) is the
# backward difference nabla^j z_n = sum_i (-1)^i C(j, i) z_{n-i}.
_BACKWARD = np.array([[(-1.0) ** i * math.comb(j, i)
                       for i in range(integrators.PREDICTOR_MAX_ORDER + 1)]
                      for j in range(integrators.PREDICTOR_MAX_ORDER + 1)])


def reference_extrapolate(history):
    """_extrapolate as it was before the difference table:
    the backward differences of m >= 2 nodes (newest first) by a matrix
    product, and the order selection kept verbatim. Returns the guess and
    the order k it selected."""
    m = history.shape[0]
    diffs = _BACKWARD[:m, :m] @ history
    size = np.abs(diffs).max(axis=1)
    k = 1
    while k + 1 < m and size[k + 1] < size[k]:
        k += 1
    return diffs[:k + 1].sum(axis=0), k


def difference_table(nodes):
    """The table of _difference_table after nodes, oldest
    first, have been accepted one by one, and its row sizes."""
    table, size = [list(nodes[0])], [0.0]
    for z in nodes[1:]:
        table, size = _difference_table(table, list(z))
    return table, size


def selected_order(table, size):
    """The order _extrapolate selects for this table and these sizes.

    The rows are swapped for the markers 0, 1, 2, 4, 8, 16, so the
    guess, their sum up to row k, is 2^k - 1.
    """
    markers = [[0.0]] + [[2.0 ** j] for j in range(len(table) - 1)]
    guess = _extrapolate(markers, size)[0]
    return int(guess + 1.0).bit_length() - 1


class TestDifferenceTable:
    """The float table of backward differences and the guess it makes."""

    def test_predicts_polynomial_histories_exactly(self):
        # Integer polynomials at integer nodes keep every value, difference
        # and sum exact. Each component is a (t + T)^d + b t + e with T
        # large, so |nabla^k| falls with k up to k = d, and nabla^{d+1}
        # = 0 is smaller still: the order is d + 1 where the table has
        # that row (the zero rows after it do not raise it further), and
        # the guess must be the polynomial's next value exactly.
        rng = np.random.default_rng(11)
        for trial in range(200):
            d = trial % 5
            n = int(rng.integers(2, 10))
            a, shift = rng.integers(1, 10, 3), rng.integers(20, 60, 3)
            # A linear term would raise the degree of d = 0 to 1.
            b = rng.integers(-3, 4, 3) * (d >= 2)
            e = rng.integers(-50, 51, 3)
            poly = lambda t: [float(a[c] * (t + shift[c]) ** d + b[c] * t
                                    + e[c]) for c in range(3)]
            table, size = difference_table([poly(t) for t in range(n)])
            assert len(table) == min(n, integrators.PREDICTOR_MAX_ORDER + 1)
            assert selected_order(table, size) == min(d + 1,
                                                      len(table) - 1), trial
            if n > d:
                assert _extrapolate(table, size) == poly(n), trial

    def test_selects_the_order_of_the_matrix_differences(self):
        # Smooth histories whose differences up to order 5 stay far above
        # roundoff, so the two ways of forming them cannot tie the sizes.
        rng = np.random.default_rng(12)
        orders = set()
        for trial in range(1000):
            m = int(rng.integers(2, integrators.PREDICTOR_MAX_ORDER + 2))
            h = 10.0 ** rng.uniform(-1.3, 0.0)
            amp, freq, phase = rng.uniform(0.1, 3.0, (3, 4))
            t = rng.uniform(-2.0, 2.0) + h * np.arange(m)
            nodes = amp * np.sin(freq * t[:, None] + phase)
            table, size = difference_table(nodes.tolist())
            guess, want = reference_extrapolate(nodes[::-1])
            assert selected_order(table, size) == want, trial
            assert np.max(np.abs(_extrapolate(table, size)
                                 - guess)) <= 1e-13, trial
            orders.add(want)
        assert orders == {1, 2, 3, 4, 5}


class TestPredictor:
    """The extrapolated starting guess changes the cost, not the nodes."""

    EULER = IntegratorConfig(dt=1e-2, newton_tol=1e-13)

    def euler_run(self):
        system = EulerSystem(algebra=so3(), inertia=np.diag([1.0, 2.0, 3.0]))
        traj = integrate_euler(system, np.array([0.1, 1.0, 0.1]), 10.0,
                               self.EULER)
        return traj, euler_vector_field(system)

    def test_euler_takes_one_update_per_step(self):
        traj, _ = self.euler_run()
        assert len(traj) == 1001
        assert traj.meta["newton_updates"] / (len(traj) - 1) <= 1.1

    def test_euler_nodes_match_fresh_steps(self):
        traj, f = self.euler_run()
        assert fresh_step_error(f, traj, self.EULER) <= self.EULER.newton_tol

    def test_rough_history_keeps_a_low_order(self):
        # Van der Pol at mu = 5 is under-resolved at dt = 0.2. Here the
        # linear guess takes 7.52 updates per step and a fixed order-5
        # extrapolation 8.04; the order test must hold the cost at the
        # linear guess's level.
        mu = 5.0
        f = lambda z: np.array([z[1], mu * (1.0 - z[0] ** 2) * z[1] - z[0]])
        traj = integrate_autonomous(
            f, np.array([2.0, 0.0]), 10.0, IntegratorConfig(dt=0.2),
            state_labels=("x", "y"), kind="generic", dim_base=1)
        assert len(traj) == 51
        assert traj.meta["newton_updates"] / (len(traj) - 1) <= 7.6

    def test_counters_match_the_calls_made(self, monkeypatch):
        points = counted_jacobians(monkeypatch)
        calls = []

        def f(z):
            calls.append(1)
            return -np.sin(z)

        traj = integrate_autonomous(
            f, np.array([3.0]), 10.0, IntegratorConfig(dt=0.5),
            state_labels=("x",), kind="generic", dim_base=1,
            meta={"label": "pendulum"})
        assert traj.meta["label"] == "pendulum"
        assert traj.meta["jacobians"] == len(points) > 1
        assert traj.meta["rhs_evals"] == len(calls)
        # Each step evaluates one residual more than it updates, and the
        # first step's guess and every two-sided Jacobian column evaluate
        # f too.
        residuals = len(calls) - 1 - 2 * len(points)
        assert traj.meta["newton_updates"] == residuals - (len(traj) - 1)

    def test_rk4_runs_carry_no_solver_counters(self):
        traj = integrate_autonomous(
            lambda z: [-x for x in z], np.array([1.0]), 1.0, RK4_FINE,
            state_labels=("x",), kind="generic", dim_base=1)
        assert traj.meta == {}


class TestTrajectory:
    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(times=np.array([0.0, 0.0]), values=np.zeros((2, 1)),
                       state_labels=("x",), kind="generic", dim_base=1)

    def test_rejects_label_width_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            Trajectory(times=np.array([0.0]), values=np.zeros((1, 2)),
                       state_labels=("x",), kind="generic", dim_base=1)

    def test_full_state_view_round_trips(self):
        system = phi_independent_system()
        start = PhaseStateFull(q=np.array([0.4]), p=np.array([0.2]),
                               phi=0.3, gamma=0.7)
        traj = integrate_full(system, start, 1.0, MIDPOINT)
        view = traj.state(0)
        assert isinstance(view, PhaseStateFull)
        assert np.array_equal(view.q, start.q)
        assert view.phi == pytest.approx(0.3)

    @pytest.mark.parametrize("kind, chart", [
        ("reduced_canonical", "canonical"), ("reduced_magnetic", "magnetic"),
    ])
    def test_reduced_state_view_takes_its_chart_from_the_kind(self, kind,
                                                               chart):
        traj = Trajectory(times=np.array([0.0]), values=np.array([[0.4, 0.2]]),
                          state_labels=("Q1", "P1"), kind=kind, dim_base=1)
        view = traj.state(0)
        assert isinstance(view, PhaseStateReduced)
        assert view.chart == chart
        assert np.array_equal(view.P, [0.2])


def float_full_rhs(system):
    """The full field as a closure on lists of floats, the body of
    integrators._full_rhs before the field was compiled per dim_base,
    kept as the oracle of the compiled field: the slots turned into
    floats through _floats, rows and dots as loops over range(l)."""
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


def list_jet_system_3d():
    """A 3-d system whose jets fill every slot in the jet format, floats
    and lists of floats, with dense matrix slots: a = 0.3 sin(W q)
    + 0.2 eps cos(W q + phi), h = 2 + |q|^2 + (eps/2) cos(phi) |q|^2 and
    U = (1/2) |q|^2 + (eps/2) sin(phi) |q|^2. Every gradient of h and U
    is a multiple of q, so at q = -0.0 it is -0.0 as often as +0.0."""
    w = [[0.4, -1.1, 0.3], [0.9, 0.2, -0.7], [-0.5, 0.6, 1.3]]
    comp = range(3)

    def slow(q):
        wq, xx = [_dot(row, q) for row in w], _dot(q, q)
        return ([0.3 * math.sin(u) for u in wq], 2.0 + xx, 0.5 * xx,
                [[0.3 * (w[j][i] * math.cos(wq[j])) for j in comp]
                 for i in comp],
                [2.0 * x for x in q], list(q))

    def fast(q, phi):
        xx = _dot(q, q)
        s = [math.sin(_dot(row, q) + phi) for row in w]
        c = [math.cos(_dot(row, q) + phi) for row in w]
        sp, cp = math.sin(phi), math.cos(phi)
        return ([0.2 * x for x in c], 0.5 * cp * xx, 0.5 * sp * xx,
                [[-0.2 * (w[j][i] * s[j]) for j in comp] for i in comp],
                [cp * x for x in q], [sp * x for x in q],
                [-0.2 * x for x in s], -0.5 * sp * xx, 0.5 * cp * xx)

    return FastSlowSystem(dim_base=3, slow=slow, fast=fast, epsilon=0.05,
                          mu=1.1)


def as_arrays(jet):
    """jet with each list slot returned as a numpy array and each float
    slot as a numpy float: the same values, outside the jet format."""
    def wrapped(*args):
        return tuple(np.array(x) if type(x) is list else np.float64(x)
                     for x in jet(*args))
    return wrapped


def signed_zero_states(rng, l, n):
    """n random full states of dim_base l. In about half of the rows q,
    and in about half p, is made of zeros of random signs, and gamma is
    +0.0 in a third of the rows and -0.0 in a third, so that some
    components are sums of signed zeros only."""
    states = rng.uniform(-3.0, 3.0, (n, 2 * l + 2))
    zeros = np.copysign(0.0, rng.uniform(-1.0, 1.0, (n, 2 * l)))
    for cols in (slice(0, l), slice(l, 2 * l)):
        rows = rng.random(n) < 0.5
        states[rows, cols] = zeros[rows, cols]
    states[:, 2 * l + 1] = np.choose(rng.integers(3, size=n),
                                     [0.0, -0.0, states[:, 2 * l + 1]])
    return states


def numpy_full_rhs(system):
    """The full field as it was assembled in numpy arrays, on the slots
    of the system's jets, kept as the reference for the float assembly
    of integrators._full_rhs."""
    l = system.dim_base
    eps = system.epsilon

    def rhs(z: np.ndarray) -> np.ndarray:
        q = z[:l].tolist()
        p = z[l:2 * l]
        phi = float(z[2 * l])
        gam = float(z[2 * l + 1])
        half_gam2 = 0.5 * gam * gam
        a0, h0, _, ga0, gh0, gU0 = system.slow(q)
        a1, h1, _, ga1, gh1, gU1, da1, dh1, dU1 = system.fast(q, phi)
        a = np.asarray(a0, dtype=float) + eps * np.asarray(a1, dtype=float)
        h = float(h0) + eps * float(h1)
        jac_a = (np.asarray(ga0, dtype=float)
                 + eps * np.asarray(ga1, dtype=float))
        grad_h = (np.asarray(gh0, dtype=float)
                  + eps * np.asarray(gh1, dtype=float))
        grad_U = (np.asarray(gU0, dtype=float)
                  + eps * np.asarray(gU1, dtype=float))
        out = np.empty(2 * l + 2)
        out[:l] = eps * (p + gam * a)
        out[l:2 * l] = -eps * (gam * (jac_a @ p) + half_gam2 * grad_h
                               + grad_U)
        out[2 * l] = float(a @ p) + h * gam
        out[2 * l + 1] = -eps * (gam * float(np.asarray(da1) @ p)
                                 + half_gam2 * float(dh1) + float(dU1))
        return out

    return rhs


SHIPPED_FULL_SYSTEMS = {
    "pendulum": lambda: pendulum_systems(PendulumParams(epsilon=5e-3))[0],
    "particle_1d": lambda: particle_systems(particle_potential_1d(),
                                            epsilon=1e-2, mu=1.0)[0],
    "particle_2d": lambda: particle_systems(particle_potential_2d(),
                                            epsilon=1e-2, mu=1.3)[0],
}


class TestFullSystem:
    @pytest.mark.parametrize("name", [*sorted(SHIPPED_FULL_SYSTEMS),
                                      "list_jets_3d"])
    def test_compiled_field_is_the_float_oracle_bit_for_bit(self, name):
        system = SHIPPED_FULL_SYSTEMS.get(name, list_jet_system_3d)()
        l = system.dim_base
        got, want = integrators._full_rhs(system), float_full_rhs(system)
        for z in signed_zero_states(np.random.default_rng(11), l, 2000):
            z = z.tolist()
            out = got(z)
            assert all(type(x) is float for x in out)
            # tobytes tells -0.0 from +0.0, which == would not.
            assert np.array(out).tobytes() == np.array(want(z)).tobytes(), z

    @pytest.mark.parametrize("config", [MIDPOINT, RK4_FINE],
                             ids=["midpoint", "rk4"])
    def test_array_jets_integrate_as_their_list_twins(self, config):
        # numpy float64 rounds +, -, * and / as Python floats do, so jets
        # that return arrays need no conversion to give the same bytes.
        lists = list_jet_system_3d()
        arrays = dataclasses.replace(lists, slow=as_arrays(lists.slow),
                                     fast=as_arrays(lists.fast))
        start = PhaseStateFull(q=[0.4, -0.3, 0.8], p=[0.2, 0.5, -0.1],
                               phi=0.5, gamma=lists.mu)
        reduced_start = PhaseStateReduced(Q=start.q, P=start.p)
        runs = [(integrate_full(system, start, 1.0, config),
                 integrate_reduced_canonical(
                     AveragedSystem(dim_base=3, slow=system.slow,
                                    mu=system.mu),
                     reduced_start, 0.5, config))
                for system in (lists, arrays)]
        z = start.as_array().tolist()
        assert type(integrators._full_rhs(arrays)(z)[0]) is np.float64
        for want, got in zip(*runs):
            assert got.meta == want.meta
            assert got.times.tobytes() == want.times.tobytes()
            assert got.values.tobytes() == want.values.tobytes()
            assert (got.derivs is None) == (want.derivs is None)
            if want.derivs is not None:
                assert got.derivs.tobytes() == want.derivs.tobytes()
            assert got.invariant_log.keys() == want.invariant_log.keys()
            for name, log in want.invariant_log.items():
                assert got.invariant_log[name].tobytes() == log.tobytes(), \
                    name

    def test_one_compiled_field_per_source(self):
        # Systems of one dim_base share the source, and so the code of
        # their fields; the jets and epsilon are bound, not written in.
        fields = [integrators._full_rhs(SHIPPED_FULL_SYSTEMS[name]())
                  for name in ("particle_2d", "particle_1d", "pendulum")]
        assert fields[1].__code__ is fields[2].__code__
        assert fields[0].__code__ is not fields[1].__code__

    @pytest.mark.parametrize("name", sorted(SHIPPED_FULL_SYSTEMS))
    def test_float_field_is_the_numpy_field_bit_for_bit(self, name):
        system = SHIPPED_FULL_SYSTEMS[name]()
        l = system.dim_base
        got, want = integrators._full_rhs(system), numpy_full_rhs(system)
        rng = np.random.default_rng(7)
        states = rng.uniform(-3.0, 3.0, (2000, 2 * l + 2))
        states[::4, l:2 * l] = 0.0
        for z in states:
            # tobytes tells -0.0 from +0.0, which == would not.
            assert np.array(got(z.tolist())).tobytes() == \
                want(z).tobytes(), z

    def test_one_call_of_each_jet_per_evaluation(self):
        system = SHIPPED_FULL_SYSTEMS["pendulum"]()
        calls = []

        def counted(name, jet):
            def wrapped(*args):
                calls.append(name)
                return jet(*args)
            return wrapped

        f = integrators._full_rhs(dataclasses.replace(
            system, slow=counted("slow", system.slow),
            fast=counted("fast", system.fast)))
        f([0.4, 0.2, 1.0, system.mu])
        assert sorted(calls) == ["fast", "slow"]

    def test_float_field_rounds_as_the_numpy_field_in_two_dimensions(self):
        # Every coefficient and dot product is live here. A BLAS dot may
        # fuse multiply-adds where the float sums round each product, so
        # the two fields agree to a few roundings of terms below 100.
        slow, fast = difference_jets(
            lambda q: (np.array([0.3 * np.sin(q[1]), 0.2 * q[0]]),
                       2.0 + q[0] ** 2, 0.5 * float(q @ q)),
            lambda q, phi: (np.array([np.cos(phi) * q[0],
                                      np.sin(phi) * q[1]]),
                            np.cos(phi) * q[1], np.sin(phi) * q[0] * q[1]))
        system = FastSlowSystem(dim_base=2, slow=slow, fast=fast,
                                epsilon=0.1, mu=1.3)
        got, want = integrators._full_rhs(system), numpy_full_rhs(system)
        rng = np.random.default_rng(8)
        for z in rng.uniform(-3.0, 3.0, (500, 6)):
            assert np.max(np.abs(np.array(got(z.tolist())) - want(z))) \
                <= 1e-13, z

    @pytest.mark.parametrize("name", ["pendulum", "particle_2d"])
    def test_energy_log_is_the_hamiltonian_at_every_node(self, name):
        # As in the phi_dot test below, a run from phi = 0.5 this short
        # never wraps the stored phi column.
        system = SHIPPED_FULL_SYSTEMS[name]()
        l = system.dim_base
        start = PhaseStateFull(q=np.full(l, 0.7), p=np.full(l, 0.2),
                               phi=0.5, gamma=system.mu)
        forward = integrate_full(system, start, 1.5, MIDPOINT)
        back = integrate_full(system, forward.state(len(forward) - 1), 1.5,
                              MIDPOINT, backward=True)
        for traj in (forward, back):
            assert np.all(traj.values[:, 2] < 2.0 * np.pi)
            want = np.array([system.hamiltonian(z[:l], z[l:2 * l], z[2 * l],
                                                z[2 * l + 1])
                             for z in traj.values])
            assert traj.invariant_log["energy"].tobytes() == want.tobytes()

    def test_horizon_bound_enforced(self):
        system = phi_independent_system(epsilon=1e-2)
        start = PhaseStateFull(q=np.zeros(1), p=np.zeros(1),
                               phi=0.0, gamma=0.7)
        with pytest.raises(ValueError, match="horizon"):
            integrate_full(system, start, 1001.0, MIDPOINT)

    def test_times_reported_in_slow_clock(self):
        system = phi_independent_system(epsilon=1e-2)
        start = PhaseStateFull(q=np.zeros(1), p=np.zeros(1),
                               phi=0.0, gamma=0.7)
        traj = integrate_full(system, start, 2.0, MIDPOINT)
        assert traj.times[-1] == pytest.approx(0.02)
        assert traj.meta["clock"].startswith("slow")

    def test_full_energy_wobble_bounded(self):
        # Midpoint energy error stays a bounded O(dt^2) oscillation.
        params = PendulumParams(epsilon=1e-2)
        system, _ = pendulum_systems(params)
        start = PhaseStateFull(q=np.array([2.0]), p=np.array([0.0]),
                               phi=0.0, gamma=params.mu)
        traj = integrate_full(system, start, 30.0,
                              IntegratorConfig(dt=5e-3))
        energy = traj.invariant_log["energy"]
        drift = np.abs(energy - energy[0]) / abs(energy[0])
        assert np.max(drift) < 1e-6
        # No secular growth: the first half already attains the level.
        half = len(drift) // 2
        assert np.max(drift[:half]) > 0.4 * np.max(drift)

    def test_full_energy_wobble_bounded_particle(self):
        from fastslow import particle_potential_1d, particle_systems
        pot = particle_potential_1d(trap=1.0, alpha=0.7, beta=0.4)
        system, _ = particle_systems(pot, epsilon=1e-2, mu=1.0)
        start = PhaseStateFull(q=np.array([0.8]), p=np.array([0.3]),
                               phi=0.0, gamma=1.0)
        traj = integrate_full(system, start, 30.0, MIDPOINT)
        energy = traj.invariant_log["energy"]
        assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) < 1e-6

    def test_gamma_conserved_when_coefficients_phi_independent(self):
        system = phi_independent_system(epsilon=2e-2, mu=0.7)
        start = PhaseStateFull(q=np.array([0.4]), p=np.array([0.2]),
                               phi=0.0, gamma=0.7)
        traj = integrate_full(system, start, 50.0, MIDPOINT)
        gamma = traj.values[:, traj.state_labels.index("gamma")]
        assert np.max(np.abs(gamma - 0.7)) < 1e-9

    def test_time_reversal_round_trip(self):
        params = PendulumParams(epsilon=5e-3)
        system, _ = pendulum_systems(params)
        start = PhaseStateFull(q=np.array([2.0]), p=np.array([0.0]),
                               phi=0.0, gamma=params.mu)
        forward = integrate_full(system, start, 5.0, MIDPOINT)
        back = integrate_full(system, forward.state(len(forward) - 1), 5.0,
                              MIDPOINT, backward=True)
        end = back.state(len(back) - 1)
        assert np.max(np.abs(end.q - start.q)) < 1e-9
        assert np.max(np.abs(end.p - start.p)) < 1e-9
        assert abs(end.gamma - start.gamma) < 1e-9
        assert wrapped_distance(end.phi, start.phi) < 1e-9

    def test_logged_invariants_present(self):
        system = phi_independent_system()
        start = PhaseStateFull(q=np.zeros(1), p=np.zeros(1),
                               phi=0.0, gamma=0.7)
        traj = integrate_full(system, start, 1.0, MIDPOINT)
        # gamma is a state column, so no log repeats it.
        assert sorted(traj.invariant_log) == ["energy", "phi_dot"]
        for key in ("energy", "phi_dot"):
            assert traj.invariant_log[key].shape == traj.times.shape

    def test_phi_dot_log_is_the_phi_component_of_the_field(self):
        # Started at phi = 0.5, the fiber turns about 4.5 rad either way,
        # so the stored phi column is never wrapped and the field can be
        # evaluated at the very nodes the log was taken at.
        params = PendulumParams(epsilon=5e-3)
        system, _ = pendulum_systems(params)
        f = integrators._full_rhs(system)
        start = PhaseStateFull(q=np.array([2.0]), p=np.array([0.0]),
                               phi=0.5, gamma=params.mu)
        forward = integrate_full(system, start, 1.5, MIDPOINT)
        back = integrate_full(system, forward.state(len(forward) - 1), 1.5,
                              MIDPOINT, backward=True)
        for traj, sign in ((forward, 1.0), (back, -1.0)):
            assert traj.derivs is None
            assert np.all(sign * np.diff(traj.values[:, 2]) > 0.0)
            want = np.array([sign * f(z)[2] for z in traj.values.tolist()])
            assert np.array_equal(traj.invariant_log["phi_dot"], want)

    def test_full_velocities_match_momentum_slots(self):
        system = phi_independent_system()
        state = PhaseStateFull(q=np.array([0.4]), p=np.array([0.2]),
                               phi=0.0, gamma=0.7)
        u, xi = full_velocities(system, state)
        q = state.q.tolist()
        a0, h0 = system.slow(q)[:2]
        a1, h1 = system.fast(q, state.phi)[:2]
        a = np.asarray(a0) + system.epsilon * np.asarray(a1)
        h = h0 + system.epsilon * h1
        assert np.max(np.abs(u - (state.p + state.gamma * a))) < 1e-15
        assert abs(xi - (float(a @ state.p) + h * 0.7)) < 1e-15


class TestReducedSystems:
    def test_momentum_log_is_exactly_mu(self):
        _, avg = pendulum_systems(PendulumParams())
        start = PhaseStateReduced(Q=np.array([2.0]), P=np.array([0.0]))
        for traj in (integrate_reduced_canonical(avg, start, 1.0, MIDPOINT),
                     integrate_reduced_magnetic(avg, start, 1.0, MIDPOINT)):
            assert np.all(traj.invariant_log["momentum"] == avg.mu)

    def test_canonical_derivs_are_the_field_at_the_nodes(self):
        _, avg = pendulum_systems(PendulumParams())
        counted, calls = counted_slow(avg)
        start = PhaseStateReduced(Q=np.array([2.0]), P=np.array([0.3]))
        traj = integrate_reduced_canonical(counted, start, 1.0, MIDPOINT)
        mu = avg.mu

        def field(Q, P):
            a0, _, _, ga0, gh0, gU0 = map(np.asarray, avg.slow(Q.tolist()))
            return np.concatenate(
                [P + mu * a0, -(mu * (ga0 @ P) + 0.5 * mu * mu * gh0 + gU0)])

        want = np.array([field(z[:1], z[1:]) for z in traj.values])
        assert np.array_equal(traj.derivs, want)
        # One jet call per evaluation of the field and per energy log node.
        assert len(calls) - len(traj) == traj.meta["rhs_evals"] > 2 * len(traj)

    @pytest.mark.parametrize("chart", ["canonical", "magnetic"])
    def test_each_reader_calls_the_slow_jet_once(self, chart):
        # RK4 evaluates the field 4 times a step; the energy log reads the
        # jet once a node, and the canonical derivs once more a node.
        avg, calls = counted_slow(uniform_field_averaged(0.8, 1.0))
        Q, P = np.array([1.0, 0.0]), np.array([0.0, 0.5])
        integrate = {"canonical": integrate_reduced_canonical,
                     "magnetic": integrate_reduced_magnetic}[chart]
        traj = integrate(avg, PhaseStateReduced(Q=Q, P=P, chart=chart), 1.0,
                         IntegratorConfig(method="rk4", dt=0.1))
        n = len(traj)
        assert n == 11
        assert len(calls) == 4 * (n - 1) + n * (2 if chart == "canonical"
                                                else 1)
        for reader in (lambda: averaged_hamiltonian(avg, Q, P),
                       lambda: effective_potential(avg, Q),
                       lambda: magnetic_form(avg, Q)):
            calls.clear()
            reader()
            assert len(calls) == 1

    @pytest.mark.parametrize("name", ["pendulum", "uniform-field"])
    def test_magnetic_run_is_the_numpy_formulas(self, name):
        # The float field and energies against the numpy expressions they
        # replaced. Each dot of the field has one nonzero product on
        # these systems, so no BLAS kernel rounds the reference apart;
        # the energies are compared in one dimension, where |P1|^2 and
        # a0 . a0 have one term too.
        if name == "pendulum":
            avg = pendulum_systems(PendulumParams())[1]
            start = PhaseStateReduced(Q=np.array([2.0]), P=np.array([0.3]))
        else:
            avg = uniform_field_averaged(0.8, 1.3)
            start = PhaseStateReduced(Q=np.array([1.0, 0.2]),
                                      P=np.array([-0.1, 0.5]))
        mu, l = avg.mu, avg.dim_base

        def slots(Q):
            return [np.asarray(x, dtype=float) for x in avg.slow(Q.tolist())]

        def numpy_field(z):
            z = np.asarray(z)
            a0, _, _, ga0, gh0, gU0 = slots(z[:l])
            g = 0.5 * mu * mu * (gh0 - 2.0 * (ga0 @ a0)) + gU0
            return np.concatenate([z[l:],
                                   -g + (mu * (ga0 - ga0.T)).T @ z[l:]])

        traj = integrate_reduced_magnetic(avg, start, 1.0, RK4_FINE)
        ref = integrate_autonomous(numpy_field, traj.values[0], 1.0,
                                   RK4_FINE, state_labels=traj.state_labels,
                                   kind="reduced_magnetic", dim_base=l)
        assert traj.values.tobytes() == ref.values.tobytes()
        if l == 1:
            energy = []
            for z in traj.values:
                a0, h0, U0 = slots(z[:1])[:3]
                Ubar = float(0.5 * mu ** 2 * (float(h0) - float(a0 @ a0))
                             + float(U0))
                energy.append(float(0.5 * (z[1:] @ z[1:]) + Ubar))
                P = z[1:] - mu * a0
                assert effective_potential(avg, z[:1]) == Ubar
                assert averaged_hamiltonian(avg, z[:1], P) == float(
                    0.5 * (P @ P) + mu * (a0 @ P)
                    + 0.5 * mu ** 2 * float(h0) + float(U0))
            assert bits(traj.invariant_log["energy"]) == bits(energy)

    def test_reduced_energy_over_hundred_thousand_steps(self):
        _, avg = pendulum_systems(PendulumParams())
        start = PhaseStateReduced(Q=np.array([2.0]), P=np.array([0.0]))
        traj = integrate_reduced_canonical(avg, start, 10.0,
                                           IntegratorConfig(dt=1e-4))
        assert len(traj) == 100001
        energy = traj.invariant_log["energy"]
        assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) < 1e-8

    def test_full_and_reduced_agree_without_oscillation(self):
        # Identical slow flows reached through the two clocks.
        system = phi_independent_system(epsilon=1e-2, mu=0.7)
        avg = average_coefficients(system)
        s_full = PhaseStateFull(q=np.array([0.4]), p=np.array([0.2]),
                                phi=0.0, gamma=0.7)
        s_red = PhaseStateReduced(Q=np.array([0.4]), P=np.array([0.2]))
        full = integrate_full(system, s_full, 100.0,
                              IntegratorConfig(method="rk4", dt=1e-2))
        red = integrate_reduced_canonical(avg, s_red, 1.0, RK4_FINE)
        report = closeness_report(full, red)
        assert report.sup_error_total < 1e-9

    def test_uniform_field_orbit_radius(self):
        # Lorentz flow in a uniform field: a circle of radius |P1| / b.
        b = 0.8
        avg = uniform_field_averaged(strength=b, mu=1.0)
        Q0 = np.array([0.2, -0.1])
        P1_0 = np.array([0.5, 0.0])
        start = PhaseStateReduced(Q=Q0, P=P1_0, chart="magnetic")
        traj = integrate_reduced_magnetic(avg, start, 2.0 * np.pi / b,
                                          RK4_FINE)
        omega = b * np.array([[0.0, -1.0], [1.0, 0.0]])
        center = Q0 + (omega @ P1_0) / b ** 2
        radii = np.hypot(traj.values[:, 0] - center[0],
                         traj.values[:, 1] - center[1])
        assert np.max(np.abs(radii - 0.625)) < 1e-6
        assert np.max(np.abs(traj.values[-1, :2] - Q0)) < 1e-6

    def test_magnetic_chart_matches_canonical_when_field_vanishes(self):
        # Constant a0 has B = 0; the charts differ by a constant shift.
        a_const = np.array([0.4, -0.3])
        avg = AveragedSystem(
            dim_base=2,
            slow=lambda Q: (a_const, 1.0, 0.5 * float(np.dot(Q, Q)),
                            np.zeros((2, 2)), np.zeros(2), np.array(Q)),
            mu=1.2)
        start = PhaseStateReduced(Q=np.array([0.3, -0.2]),
                                  P=np.array([0.1, 0.4]))
        canonical = integrate_reduced_canonical(avg, start, 5.0, RK4_FINE)
        magnetic = integrate_reduced_magnetic(avg, start, 5.0, RK4_FINE)
        shift = 1.2 * a_const
        assert np.max(np.abs(magnetic.values[:, :2]
                             - canonical.values[:, :2])) < 1e-10
        assert np.max(np.abs(magnetic.values[:, 2:] - shift
                             - canonical.values[:, 2:])) < 1e-10


def counted_slow(avg):
    """avg with a slow jet that records each call, and the record."""
    calls = []

    def slow(q):
        calls.append(q)
        return avg.slow(q)

    return dataclasses.replace(avg, slow=slow), calls


def value_only(avg):
    """avg with each derivative slot of its jet a central difference of
    its values (slow_difference_jet)."""
    return dataclasses.replace(avg, slow=slow_difference_jet(
        lambda q: avg.slow(q.tolist())[:3]))


class TestDerivativeFallbacks:
    def test_given_callables_are_kept_as_they_are(self):
        system, avg = pendulum_systems(PendulumParams())
        moved = dataclasses.replace(system, epsilon=1e-3)
        assert moved.slow is system.slow and moved.fast is system.fast
        assert avg.slow is system.slow
        assert dataclasses.replace(avg, mu=1.0).slow is avg.slow

    def test_full_rhs_fallbacks_match_analytic(self):
        system, _ = pendulum_systems(PendulumParams(epsilon=1e-2))
        analytic = integrators._full_rhs(system)
        slow, fast = difference_jets(
            lambda q: system.slow(q.tolist())[:3],
            lambda q, phi: system.fast(q.tolist(), phi)[:3])
        fallback = integrators._full_rhs(
            dataclasses.replace(system, slow=slow, fast=fast))
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = [rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0),
                 rng.uniform(0.0, 2.0 * np.pi), rng.uniform(2.0, 4.0)]
            want = np.array(analytic(z))
            assert (np.max(np.abs(np.array(fallback(z)) - want))
                    <= 1e-9 * np.max(np.abs(want)))

    @pytest.mark.parametrize("avg, q0, p0", [
        (pendulum_systems(PendulumParams(mu=3.0, epsilon=5e-3))[1],
         np.array([2.0]), np.array([0.0])),
        (oscillating_particle_averaged(particle_potential_2d(), 0.05, 1.3),
         np.array([0.4, -0.3]), np.array([0.2, 0.1])),
        (uniform_field_averaged(0.8, 1.0),
         np.array([1.0, 0.0]), np.array([0.0, 0.5])),
    ], ids=["pendulum", "oscillating-2d", "uniform-field"])
    def test_reduced_flows_without_gradients_match_analytic(self, avg, q0,
                                                            p0):
        bare = value_only(avg)
        config = IntegratorConfig(method="rk4", dt=2e-3)
        start = PhaseStateReduced(Q=q0, P=p0)
        a0 = np.asarray(avg.slow(q0.tolist())[0])
        start_mag = PhaseStateReduced(Q=q0, P=p0 + avg.mu * a0,
                                      chart="magnetic")
        for integrate, state in ((integrate_reduced_canonical, start),
                                 (integrate_reduced_magnetic, start_mag)):
            want = integrate(avg, state, 10.0, config).values
            got = integrate(bare, state, 10.0, config).values
            assert np.max(np.abs(got - want)) < 1e-8


class TestHermite:
    def test_exact_on_cubic_polynomials(self):
        nodes = np.linspace(0.0, 2.0, 5)
        poly = lambda t: t ** 3 - 2.0 * t ** 2 + 3.0 * t - 1.0
        dpoly = lambda t: 3.0 * t ** 2 - 4.0 * t + 3.0
        values = poly(nodes)[:, None]
        derivs = dpoly(nodes)[:, None]
        query = np.linspace(0.0, 2.0, 101)
        got = hermite_interpolate(nodes, values, derivs, query)
        assert np.max(np.abs(got[:, 0] - poly(query))) < 1e-12


class TestCloseness:
    def test_initial_condition_mismatch_raises(self):
        system = phi_independent_system()
        avg = average_coefficients(system)
        full = integrate_full(
            system,
            PhaseStateFull(q=np.array([0.4]), p=np.array([0.2]),
                           phi=0.0, gamma=0.7),
            1.0, MIDPOINT)
        red = integrate_reduced_canonical(
            avg, PhaseStateReduced(Q=np.array([0.5]), P=np.array([0.2])),
            1.0, MIDPOINT)
        with pytest.raises(ValueError, match="initial conditions"):
            closeness_report(full, red)

    def test_rejects_wrong_trajectory_kinds(self):
        system = phi_independent_system()
        traj = integrate_autonomous(
            lambda z: np.zeros(1), np.zeros(1), 1.0, MIDPOINT,
            state_labels=("x",), kind="generic", dim_base=1)
        with pytest.raises(ValueError, match="full"):
            closeness_report(traj, traj)

    def test_rejects_magnetic_chart_reduced_trajectory(self):
        system = phi_independent_system()
        avg = average_coefficients(system)
        full = integrate_full(
            system,
            PhaseStateFull(q=np.array([0.4]), p=np.array([0.2]),
                           phi=0.0, gamma=0.7),
            1.0, MIDPOINT)
        red = integrate_reduced_magnetic(
            avg, PhaseStateReduced(Q=np.array([0.4]), P=np.array([0.2])),
            1.0, MIDPOINT)
        with pytest.raises(ValueError, match="reduced_magnetic"):
            closeness_report(full, red)

    def test_rejects_reduced_trajectory_without_derivs(self):
        system = phi_independent_system()
        full = integrate_full(
            system,
            PhaseStateFull(q=np.array([0.4]), p=np.array([0.2]),
                           phi=0.0, gamma=0.7),
            1.0, MIDPOINT)
        red = integrate_autonomous(
            lambda z: np.array([z[1], -z[0]]), np.array([0.4, 0.2]), 0.01,
            MIDPOINT, state_labels=("Q1", "P1"), kind="reduced_canonical",
            dim_base=1)
        with pytest.raises(ValueError, match="derivative column"):
            closeness_report(full, red)


def reference_full_logs(system, values, sign=1.0):
    """The energy and phi_dot logs as integrate_full computed them in one
    pass over the unwrapped nodes, before the row blocks."""
    l = system.dim_base
    energy, phi_dot = np.empty((2, len(values)))
    for i, z in enumerate(values.tolist()):
        energy[i], phi_dot[i] = system.energy_and_fiber_speed(
            z[:l], z[l:2 * l], z[2 * l], z[2 * l + 1])
    phi_dot *= sign
    return energy, phi_dot


def reference_sups(full, reduced, system):
    """closeness_report's four sups as it computed them on whole
    trajectories, before the row blocks."""
    l = system.dim_base
    mu = system.mu
    red_values = reduced.values
    s_cap = min(full.times[-1], reduced.times[-1], 1.0)
    mask = full.times <= s_cap * (1.0 + 1e-12) + 1e-300
    t_cmp = full.times[mask]
    interp = hermite_interpolate(reduced.times, red_values, reduced.derivs,
                                 t_cmp)
    fq = full.values[mask, :l]
    fp = full.values[mask, l:2 * l]
    fg = full.values[mask, 2 * l + 1]
    err_q = np.sqrt(np.sum((fq - interp[:, :l]) ** 2, axis=1))
    err_p = np.sqrt(np.sum((fp - interp[:, l:]) ** 2, axis=1))
    err_g = np.abs(fg - mu)
    return [float(np.max(err_q)), float(np.max(err_p)),
            float(np.max(err_g)), float(np.max(err_q + err_p + err_g))]


def report_sups(report):
    return [report.sup_error_q, report.sup_error_p, report.sup_error_gamma,
            report.sup_error_total]


def bits(xs):
    return [float(x).hex() for x in xs]


class TestRowBlocks:
    """The passes over a whole trajectory, taken in row blocks, against
    the one-pass formulas they replaced."""

    def test_blocks_cover_the_rows_in_order(self):
        b = integrators._BLOCK_ROWS
        for n in (0, 1, b - 1, b, b + 1, 2 * b + 3):
            rows = list(integrators._row_blocks(n))
            assert all(0 < r.stop - r.start <= b for r in rows)
            assert [i for r in rows for i in range(n)[r]] == list(range(n))

    @pytest.mark.parametrize("backward", [False, True])
    def test_pendulum_logs_and_report_are_bit_equal(self, backward):
        params = PendulumParams(epsilon=1e-2)
        system, avg = pendulum_systems(params)
        q0, p0 = np.array([2.0]), np.array([0.0])
        start = PhaseStateFull(q=q0, p=p0, phi=0.0, gamma=params.mu)
        full = integrate_full(system, start, 100.0, MIDPOINT,
                              backward=backward)
        assert len(full) > 2 * integrators._BLOCK_ROWS
        f = integrators._full_rhs(system)
        raw = integrate_autonomous(
            negated(f) if backward else f, start.as_array(), 100.0,
            MIDPOINT, state_labels=full.state_labels, kind="full",
            dim_base=1)
        energy, phi_dot = reference_full_logs(system, raw.values,
                                              -1.0 if backward else 1.0)
        assert bits(full.invariant_log["energy"]) == bits(energy)
        assert bits(full.invariant_log["phi_dot"]) == bits(phi_dot)
        assert bits(full.values[:, 2]) == bits(
            np.mod(raw.values[:, 2], 2.0 * np.pi))
        if not backward:
            red = integrate_reduced_canonical(
                avg, PhaseStateReduced(Q=q0, P=p0), 1.0,
                IntegratorConfig(dt=1e-3))
            assert bits(report_sups(closeness_report(full, red))) \
                == bits(reference_sups(full, red, system))

    @pytest.mark.parametrize("chart", ["canonical", "magnetic"])
    def test_reduced_energy_logs_are_the_per_node_calls(self, chart):
        # Runs longer than one block, logged one block at a time after
        # the run: each energy must be its formula called at that node.
        _, avg = pendulum_systems(PendulumParams(epsilon=1e-2))
        start = PhaseStateReduced(Q=np.array([2.0]), P=np.array([0.3]))
        if chart == "canonical":
            traj = integrate_reduced_canonical(avg, start, 5.0, RK4_FINE)
            want = [averaged_hamiltonian(avg, z[:1], z[1:])
                    for z in traj.values]
        else:
            traj = integrate_reduced_magnetic(avg, start, 5.0, RK4_FINE)
            want = [0.5 * float(z[1:] @ z[1:])
                    + effective_potential(avg, z[:1]) for z in traj.values]
        assert len(traj) > integrators._BLOCK_ROWS
        assert bits(traj.invariant_log["energy"]) == bits(want)
        assert bits(traj.invariant_log["momentum"]) == bits(
            [avg.mu] * len(traj))

    def test_two_dimensional_report_with_a_nan_is_bit_equal(self):
        # Hand-made trajectories of dim_base 2, more than two blocks
        # long, with a NaN in the third block: the max of the block
        # maxima propagates it as the one-pass max did.
        system = particle_systems(particle_potential_2d(), 1e-2, 1.3)[0]
        n = 2 * integrators._BLOCK_ROWS + 3
        rng = np.random.default_rng(5)
        times = np.linspace(0.0, 1.0, n)
        values = rng.standard_normal((n, 6))
        values[0, 5] = system.mu
        red_times = np.linspace(0.0, 1.0, 501)
        red_values = rng.standard_normal((501, 4))
        red_values[0] = values[0, :4]
        full = Trajectory(times=times, values=values,
                          state_labels=("q1", "q2", "p1", "p2", "phi",
                                        "gamma"), kind="full", dim_base=2,
                          meta={"epsilon": 1e-2, "mu": system.mu})
        red = Trajectory(times=red_times, values=red_values,
                         state_labels=("Q1", "Q2", "P1", "P2"),
                         kind="reduced_canonical", dim_base=2,
                         derivs=rng.standard_normal((501, 4)))
        assert bits(report_sups(closeness_report(full, red))) \
            == bits(reference_sups(full, red, system))
        full.values[n - 2, 1] = np.nan
        got = report_sups(closeness_report(full, red))
        assert bits(got) == bits(reference_sups(full, red, system))
        assert math.isnan(got[0]) and math.isnan(got[3])
