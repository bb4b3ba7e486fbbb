"""End-to-end acceptance checks, one per headline claim of the package.

Each test prints one pass/fail line with the observed margin and the
elapsed wall time, then asserts both the accuracy and the runtime
budget. Ground truths are closed forms (the Kapitza effective
potential, two-harmonic oscillation means, Gaussian curvatures),
structural identities (chart changes, momentum shifts, Jacobi), and
the halving-ratio law of the averaging theorem.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fastslow import (BUILTIN_ALGEBRAS, EulerSystem,
                      FastSlowSystem, IntegratorConfig, PendulumParams,
                      PhaseStateFull, PhaseStateReduced, average_coefficients,
                      averaged_hamiltonian, closeness_report,
                      coadjoint_action, curvature_identity_residual,
                      effective_potential, euler_vector_field,
                      exponential_surface, extended_bracket,
                      extended_hamiltonian_field, full_velocities,
                      integrate_autonomous, integrate_euler, integrate_full,
                      integrate_reduced_canonical, integrate_reduced_magnetic,
                      invariant_metric_from_averaged, mean_grad_antiderivative_sq,
                      mean_hess_cross_term, momentum_map,
                      oscillating_particle_averaged, particle_potential_1d,
                      particle_potential_2d, particle_systems,
                      pendulum_systems, plane_surface, shift_cocycle,
                      simulate_physical_pendulum, so3, sphere_surface,
                      uniform_field_averaged)
from fastslow import experiments
from fastslow.cli import parse_config, shipped_config_text
from fastslow.experiments import TABLE, _averaged_run, _full_run

MIDPOINT = IntegratorConfig(method="implicit_midpoint", dt=1e-2)


def report(index: int, label: str, passed: bool, detail: str,
           elapsed: float, budget: float) -> None:
    tag = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"[{tag}] check {index}/9 {label}: {detail} "
          f"[{elapsed:.1f} s, budget {budget:g} s]")
    assert passed, f"{label}: {detail}"
    assert elapsed < budget, f"{label}: took {elapsed:.1f} s"


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


def test_1_pendulum_effective_potential():
    # The averaged potential of the vertically driven pendulum must
    # equal (1/4) mu^2 a^2 sin^2(theta) - g l cos(theta) exactly.
    start = time.perf_counter()
    worst = 0.0
    for length, gravity, amplitude, mu in ((1.0, 1.0, 0.5, 3.0),
                                           (2.0, 1.5, 0.7, 2.2)):
        params = PendulumParams(length=length, gravity=gravity,
                                amplitude=amplitude, mu=mu, epsilon=5e-3)
        _, avg = pendulum_systems(params)
        for theta in np.linspace(-np.pi, np.pi, 1000):
            got = effective_potential(avg, np.array([length * theta]))
            want = (0.25 * mu ** 2 * amplitude ** 2 * np.sin(theta) ** 2
                    - gravity * length * np.cos(theta))
            worst = max(worst, abs(got - want))
    report(1, "pendulum effective potential", worst < 1e-10,
           f"max deviation {worst:.3e} over 1000 angles (tol 1e-10)",
           time.perf_counter() - start, 1.0)


def test_2_epsilon_closeness_ratios():
    # Full and averaged trajectories must stay O(eps)-close up to the
    # slow horizon: halving eps should roughly halve the sup error. The
    # sweeps are those `fastslow verify` runs on the shipped pendulum and
    # particle configs.
    details = []
    ok = True
    for label in ("pendulum", "particle"):
        start = time.perf_counter()
        config = parse_config(shipped_config_text(label))
        _, records = TABLE[label].run(config, Path.cwd())
        ratios = [r.observed for r in records
                  if r.name.startswith("closeness_ratio_")
                  and r.name.endswith("_lower")]
        elapsed = time.perf_counter() - start
        ok = (ok and len(ratios) == len(config.epsilon_sweep) - 1
              and all(1.5 <= r <= 3.0 for r in ratios) and elapsed < 120.0)
        details.append(f"{label} ratios "
                       + "/".join(f"{r:.3f}" for r in ratios)
                       + f" in {elapsed:.1f} s")
    report(2, "epsilon-closeness halving ratios", ok,
           "; ".join(details) + " (window [1.5, 3], budget 120 s each)",
           0.0, 1.0)


def test_3_inverted_pendulum_stabilization():
    # Above the drive threshold mu^2 a^2 = 2 g l the inverted state is
    # dynamically stable; below it the pendulum falls away.
    start = time.perf_counter()
    epsilon = 5e-3
    stable = PendulumParams(length=1.0, gravity=1.0, amplitude=0.5, mu=3.0,
                            epsilon=epsilon)
    staying = simulate_physical_pendulum(
        stable, np.pi + 0.05, 0.0, horizon=1.0 / epsilon, store_every=50)
    stay_dev = float(np.max(np.abs(staying.values[:, 0] - np.pi)))

    weak = PendulumParams(length=1.0, gravity=1.0, amplitude=0.5, mu=2.0,
                          epsilon=epsilon)
    falling = simulate_physical_pendulum(
        weak, np.pi + 0.05, 0.0, horizon=1.0 / epsilon, store_every=50,
        stop_when=lambda t, theta, p: abs(theta - np.pi) >= 0.3)
    departed = falling.meta["stopped_at"] is not None
    fall_dev = float(np.max(np.abs(falling.values[:, 0] - np.pi)))

    passed = stay_dev < 0.3 and departed and fall_dev >= 0.3 - 1e-6
    report(3, "inverted pendulum stabilization", passed,
           f"mu=3 stays within {stay_dev:.3f} < 0.3 for t <= 1/eps; "
           f"mu=2 departs at t = {falling.meta['stopped_at']:.2f}",
           time.perf_counter() - start, 60.0)


def test_4_curvature_identity_on_grids():
    # d(A . dq) = sqrt(a11 a22) K dq1 ^ dq2 on surfaces of curvature
    # +1/R^2, 0, and -1, sampled on 50 x 50 chart grids.
    start = time.perf_counter()
    cases = (
        (sphere_surface(1.0), np.linspace(0.1, np.pi - 0.1, 50),
         np.linspace(0.0, 2.0 * np.pi, 50)),
        (plane_surface(), np.linspace(-1.0, 1.0, 50),
         np.linspace(-1.0, 1.0, 50)),
        (exponential_surface(), np.linspace(-1.0, 1.0, 50),
         np.linspace(-1.0, 1.0, 50)),
    )
    worst = 0.0
    for surface, grid1, grid2 in cases:
        for v1 in grid1:
            for v2 in grid2:
                residual = abs(curvature_identity_residual(
                    surface, np.array([v1, v2])))
                worst = max(worst, residual)
    report(4, "curvature identity on three surfaces", worst < 1e-7,
           f"max residual {worst:.3e} on 50x50 grids (tol 1e-7)",
           time.perf_counter() - start, 5.0)


def test_5_spinning_disk_two_path_agreement():
    # Second-order equations of a disk spinning over the sphere versus
    # the magnetic-chart first-order reduction of the same system, as
    # run by the shipped disk config.
    start = time.perf_counter()
    config = parse_config(shipped_config_text("disk"))
    _, records = TABLE["disk"].run(config, Path.cwd())
    sup = next(r.observed for r in records
               if r.name == "magnetic_chart_two_path_sup")
    report(5, "spinning disk two-path equivalence", sup < 1e-6,
           f"sup position/velocity gap {sup:.3e} over t=10 (tol 1e-6)",
           time.perf_counter() - start, 30.0)


def test_6_chart_equivalence_all_examples():
    # Canonical and magnetic charts describe one system; integrating
    # in either and mapping P1 = P + mu a0(Q) must agree.
    start = time.perf_counter()
    pend_params = PendulumParams(length=1.0, gravity=1.0, amplitude=0.5,
                                 mu=3.0, epsilon=5e-3)
    cases = (
        ("pendulum", pendulum_systems(pend_params)[1],
         np.array([2.0]), np.array([0.0])),
        ("particle", particle_systems(particle_potential_1d(), 1e-2, 1.0)[1],
         np.array([0.8]), np.array([0.3])),
        ("oscillating-1d",
         oscillating_particle_averaged(particle_potential_1d(), 0.05, 1.3),
         np.array([0.8]), np.array([0.3])),
        ("oscillating-2d",
         oscillating_particle_averaged(particle_potential_2d(), 0.05, 1.3),
         np.array([0.4, -0.3]), np.array([0.2, 0.1])),
        ("uniform-field", uniform_field_averaged(0.8, 1.0),
         np.array([1.0, 0.0]), np.array([0.0, 0.5])),
    )
    config = IntegratorConfig(method="rk4", dt=2e-3)
    details = []
    worst = 0.0
    for label, avg, q0, p0 in cases:
        canonical = integrate_reduced_canonical(
            avg, PhaseStateReduced(Q=q0, P=p0), 10.0, config)
        p1_0 = p0 + avg.mu * np.asarray(avg.slow(q0.tolist())[0])
        magnetic = integrate_reduced_magnetic(
            avg, PhaseStateReduced(Q=q0, P=p1_0, chart="magnetic"), 10.0,
            config)
        dim = q0.size
        gap = 0.0
        for i in range(len(canonical)):
            q_mag = magnetic.values[i, :dim]
            p_back = (magnetic.values[i, dim:]
                      - avg.mu * np.asarray(avg.slow(q_mag.tolist())[0]))
            gap = max(gap, float(np.max(np.abs(
                canonical.values[i, :dim] - q_mag))),
                float(np.max(np.abs(canonical.values[i, dim:] - p_back))))
        worst = max(worst, gap)
        details.append(f"{label} {gap:.2e}")
    report(6, "chart equivalence on shipped examples", worst < 1e-7,
           "sup gaps " + ", ".join(details) + " (tol 1e-7)",
           time.perf_counter() - start, 30.0)


def test_7_oscillation_means_and_hamiltonian():
    # Two-harmonic forcing f cos(tau) + g sin(tau): the averaging means
    # have hand-computable closed forms, and the averaged Hamiltonian
    # assembles from them term by term.
    start = time.perf_counter()
    trap, alpha, beta = 1.0, 0.7, 0.4
    w1 = np.array([1.0, 0.3])
    w2 = np.array([0.7, -1.0])
    pot = particle_potential_2d(trap=trap, alpha=alpha, beta=beta)

    def closed_forms(x):
        grad_f = alpha * np.cos(w1 @ x) * w1
        grad_g = -beta * np.sin(w2 @ x) * w2
        hess_f = -alpha * np.sin(w1 @ x) * np.outer(w1, w1)
        hess_g = -beta * np.cos(w2 @ x) * np.outer(w2, w2)
        mean_vv = 0.5 * (grad_f @ grad_f + grad_g @ grad_g)
        mean_cross = 0.5 * (hess_f @ grad_g - hess_g @ grad_f)
        return mean_vv, mean_cross

    points = (np.array([0.4, -0.3]), np.array([0.8, 0.1]),
              np.array([-0.5, 0.7]), np.array([0.0, 0.0]),
              np.array([1.1, -0.9]), np.array([-1.2, 0.4]))
    worst_means = 0.0
    for x in points:
        mean_vv, mean_cross = closed_forms(x)
        worst_means = max(
            worst_means,
            abs(mean_grad_antiderivative_sq(pot, x) - mean_vv),
            float(np.max(np.abs(mean_hess_cross_term(pot, x) - mean_cross))))

    epsilon, mu = 0.05, 1.3
    avg = oscillating_particle_averaged(pot, epsilon, mu)
    worst_terms = 0.0
    momenta = (np.array([0.2, 0.1]), np.array([-0.4, 0.6]))
    for x in points:
        mean_vv, mean_cross = closed_forms(x)
        u0_closed = (0.5 * trap * float(x @ x)
                     + 0.5 * epsilon ** 2 * mu ** 2 * mean_vv)
        a0_closed = -epsilon ** 3 * mean_cross
        a0, h0, U0 = avg.slow(x.tolist())[:3]
        worst_terms = max(
            worst_terms,
            abs(U0 - u0_closed),
            float(np.max(np.abs(a0 - a0_closed))),
            abs(h0))
        for p in momenta:
            assembled = (0.5 * float(p @ p) + mu * float(a0_closed @ p)
                         + u0_closed)
            worst_terms = max(
                worst_terms, abs(averaged_hamiltonian(avg, x, p) - assembled))
    passed = worst_means < 1e-10 and worst_terms < 1e-10
    report(7, "oscillation means and averaged Hamiltonian", passed,
           f"means deviation {worst_means:.3e}, Hamiltonian terms "
           f"{worst_terms:.3e} (tol 1e-10)",
           time.perf_counter() - start, 5.0)


def test_8_lie_poisson_suite():
    # Extended-bracket Jacobi identity, rigid-body conservation over a
    # long horizon, and the momentum-shift/cocycle equivalence.
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_jacobi = 0.0
    for factory in BUILTIN_ALGEBRAS.values():
        alg = factory()
        coc = shift_cocycle(alg, rng.standard_normal(alg.dim))
        for _ in range(20):
            a, b, c, nu = rng.standard_normal((4, alg.dim))
            total = sum(
                extended_bracket(alg, coc, u, -alg.bracket(v, w), nu)
                for u, v, w in ((a, b, c), (b, c, a), (c, a, b)))
            worst_jacobi = max(worst_jacobi, abs(total))

    rigid = EulerSystem(algebra=so3(), inertia=np.diag([1.0, 2.0, 3.0]))
    traj = integrate_euler(rigid, np.array([0.1, 1.0, 0.1]), 100.0, MIDPOINT)
    energy = traj.invariant_log["energy"]
    casimir = traj.invariant_log["momentum"]
    energy_drift = float(np.max(np.abs(energy - energy[0])))
    casimir_drift = float(np.max(np.abs(casimir - casimir[0])))

    alg = so3()
    inertia = np.diag([1.0, 2.0, 3.0])
    shift = np.array([0.2, -0.4, 0.5])
    shifted = EulerSystem(algebra=alg, inertia=inertia, shift=shift)
    xi0 = np.array([0.9, 0.3, -0.2])
    traj_xi = integrate_euler(shifted, xi0, 10.0, MIDPOINT)

    def eta_field(eta):
        return -coadjoint_action(alg, np.linalg.solve(inertia, eta + shift),
                                 eta)

    traj_eta = integrate_autonomous(
        eta_field, xi0 - shift, 10.0, MIDPOINT,
        state_labels=("eta1", "eta2", "eta3"), kind="euler", dim_base=3)
    coc = shift_cocycle(alg, shift)
    traj_ext = integrate_autonomous(
        extended_hamiltonian_field(alg, coc, inertia), xi0, 10.0, MIDPOINT,
        state_labels=("xi1", "xi2", "xi3"), kind="euler", dim_base=3)
    two_path = max(
        float(np.max(np.abs(traj_xi.values - shift - traj_eta.values))),
        float(np.max(np.abs(traj_xi.values - traj_ext.values))))

    passed = (worst_jacobi < 1e-12 and energy_drift < 1e-8
              and casimir_drift < 1e-8 and two_path < 1e-10)
    report(8, "Lie-Poisson bracket and Euler flows", passed,
           f"Jacobiator {worst_jacobi:.2e} (tol 1e-12); rigid-body drifts "
           f"energy {energy_drift:.2e} / Casimir {casimir_drift:.2e} over "
           f"t=100 (tol 1e-8); shift two-path {two_path:.2e} (tol 1e-10)",
           time.perf_counter() - start, 60.0)


def test_9_conservation_suite():
    # Momentum-map constancy on angle-independent systems, exact mu
    # conservation in the reduced charts, and midpoint time reversal.
    start = time.perf_counter()
    system = phi_independent_system(epsilon=1e-2, mu=0.7)
    avg = average_coefficients(system)
    metric = invariant_metric_from_averaged(avg)
    state0 = PhaseStateFull(q=np.array([0.8]), p=np.array([0.3]), phi=0.0,
                            gamma=system.mu)
    traj = integrate_full(system, state0, 100.0, MIDPOINT)
    j_values = np.empty(len(traj))
    for i in range(len(traj)):
        state = PhaseStateFull(
            q=traj.values[i, :1], p=traj.values[i, 1:2],
            phi=traj.values[i, 2], gamma=traj.values[i, 3])
        u, xi = full_velocities(system, state)
        j_values[i] = momentum_map(metric, state.q, u, xi)
    j_drift = float(np.max(np.abs(j_values - j_values[0])))

    field = uniform_field_averaged(0.8, 1.0)
    q0, p0 = np.array([1.0, 0.0]), np.array([0.0, 0.5])
    canonical = integrate_reduced_canonical(
        field, PhaseStateReduced(Q=q0, P=p0), 10.0, MIDPOINT)
    magnetic = integrate_reduced_magnetic(
        field, PhaseStateReduced(
            Q=q0, P=p0 + field.mu * np.array(field.slow(q0.tolist())[0]),
            chart="magnetic"), 10.0, MIDPOINT)
    mu_exact = (np.all(canonical.invariant_log["momentum"] == field.mu)
                and np.all(magnetic.invariant_log["momentum"] == field.mu))

    pend_params = PendulumParams(length=1.0, gravity=1.0, amplitude=0.5,
                                 mu=3.0, epsilon=1e-2)
    pend, _ = pendulum_systems(pend_params)
    pend0 = PhaseStateFull(q=np.array([2.0]), p=np.array([0.0]), phi=0.0,
                           gamma=3.0)
    forward = integrate_full(pend, pend0, 5.0, MIDPOINT)
    end = forward.values[-1]
    back = integrate_full(
        pend, PhaseStateFull(q=end[:1], p=end[1:2], phi=end[2],
                             gamma=end[3]),
        5.0, MIDPOINT, backward=True)
    returned = back.values[-1]
    started = forward.values[0]
    phi_gap = np.mod(returned[2] - started[2], 2.0 * np.pi)
    phi_gap = min(phi_gap, 2.0 * np.pi - phi_gap)
    reversal = max(float(np.max(np.abs(returned[[0, 1, 3]]
                                       - started[[0, 1, 3]]))),
                   float(phi_gap))

    passed = j_drift < 1e-9 and bool(mu_exact) and reversal < 1e-9
    report(9, "momentum conservation and reversibility", passed,
           f"momentum-map drift {j_drift:.2e} (tol 1e-9); reduced mu "
           f"conserved exactly: {bool(mu_exact)}; time-reversal gap "
           f"{reversal:.2e} (tol 1e-9)",
           time.perf_counter() - start, 60.0)


# The full step of the shipped sweeps. The step is converged when, at
# every epsilon of the sweep, the run at dt_full / 2 moves each of the
# four sup errors by less than STEP_TOLERANCE of its value there, and
# the largest gap over shared nodes of |q - q'| + |p - p'| + |gamma -
# gamma'| is less than STEP_TOLERANCE of sup_error_total. By the
# triangle inequality the gap bounds what the step adds to the checked
# error, also where a sup over an oscillation hides a phase error. The
# shipped dt_full is the largest candidate that is converged.
STEP_TOLERANCE = 0.01
STEP_CANDIDATES = (0.02, 0.04, 0.08)


def step_halving_changes(config):
    """Per epsilon of config's sweep: (eps, largest relative change of
    sup_error_q, _p, _gamma and _total, largest node gap over
    sup_error_total) between the runs at dt_full and at dt_full / 2."""
    half = replace(config, dt_full=config.dt_full / 2)
    reduced = _averaged_run(config)
    rows = []
    for eps in config.epsilon_sweep:
        full = _full_run(config, eps)
        fine_full = _full_run(half, eps)
        coarse = closeness_report(full, reduced)
        fine = closeness_report(fine_full, reduced)
        moved = max(abs(getattr(coarse, name) / getattr(fine, name) - 1.0)
                    for name in ("sup_error_q", "sup_error_p",
                                 "sup_error_gamma", "sup_error_total"))
        shared = fine_full.values[::2]
        assert np.array_equal(fine_full.times[::2], full.times)
        l = full.dim_base
        gap = (np.linalg.norm(full.values[:, :l] - shared[:, :l], axis=1)
               + np.linalg.norm(full.values[:, l:2 * l]
                                - shared[:, l:2 * l], axis=1)
               + np.abs(full.values[:, -1] - shared[:, -1]))
        rows.append((eps, moved, float(gap.max()) / coarse.sup_error_total))
    return rows


def step_is_converged(rows) -> bool:
    return all(moved < STEP_TOLERANCE and gap < STEP_TOLERANCE
               for _, moved, gap in rows)


@pytest.mark.parametrize("label", ["pendulum", "particle"])
def test_shipped_full_step_is_converged(label):
    config = parse_config(shipped_config_text(label))
    rows = step_halving_changes(config)
    print(f"{label} dt_full {config.dt_full!r}: " + "; ".join(
        f"eps {eps!r} moves {moved:.3%}, gap {gap:.3%}"
        for eps, moved, gap in rows))
    assert step_is_converged(rows), rows
    assert config.dt_full in STEP_CANDIDATES
    coarser = [dt for dt in STEP_CANDIDATES if dt > config.dt_full]
    if coarser:
        assert not step_is_converged(step_halving_changes(
            replace(config, dt_full=coarser[0])))


@pytest.mark.parametrize("label", [name for name, experiment in TABLE.items()
                                   if experiment.build is not None])
def test_sweep_averaged_run_does_not_depend_on_epsilon(label):
    # A sweep makes one averaged run, from the build at its first
    # epsilon, and compares every full run with it; the run built at
    # any other epsilon of the sweep must be the same bit for bit.
    config = parse_config(shipped_config_text(label))
    reduced = _averaged_run(config)
    for eps in config.epsilon_sweep:
        other = _averaged_run(replace(config, epsilon_sweep=(eps,)))
        assert np.array_equal(other.values, reduced.values), eps
        assert np.array_equal(other.derivs, reduced.derivs), eps
        assert other.invariant_log.keys() == reduced.invariant_log.keys()
        for name, log in reduced.invariant_log.items():
            assert np.array_equal(other.invariant_log[name], log), (eps, name)


def test_step_halving_guard_rejects_the_pendulum_at_0_16():
    # Halving 0.16 moves the pendulum's sup errors by about 2%, so the
    # 1% bound must fail there.
    config = replace(parse_config(shipped_config_text("pendulum")),
                     dt_full=0.16)
    assert not step_is_converged(step_halving_changes(config))


# The reduced step of the disk. Its check, magnetic_chart_two_path_sup,
# resolves a gap between the two paths down to its threshold tol. The
# step is converged when the two-path sup at dt_reduced is below
# STEP_TOLERANCE * tol, so the check keeps 100 times headroom, and when,
# for each trajectory, the run at dt_reduced / 2 moves no shared node
# by more than STEP_TOLERANCE * tol in the max norm. The shipped
# dt_reduced is the largest candidate that is converged.
DISK_STEP_CANDIDATES = (0.002, 0.004, 0.008)


def disk_step_halving(config):
    """(two-path sup over tol, {trajectory: largest node gap over tol})
    between the disk runs at dt_reduced and at dt_reduced / 2."""
    coarse, records = TABLE["disk"].run(config, Path.cwd())
    fine, _ = TABLE["disk"].run(
        replace(config, dt_reduced=config.dt_reduced / 2), Path.cwd())
    check = next(r for r in records
                 if r.name == "magnetic_chart_two_path_sup")
    gaps = {}
    for name, (traj, _) in coarse.items():
        shared = fine[name][0]
        assert np.array_equal(shared.times[::2], traj.times)
        gaps[name] = float(np.max(np.abs(
            traj.values - shared.values[::2]))) / check.threshold
    return check.observed / check.threshold, gaps


def disk_step_is_converged(sup, gaps) -> bool:
    return sup < STEP_TOLERANCE and max(gaps.values()) < STEP_TOLERANCE


# The exponential chart runs with dt_reduced = 0.002 in the disk config
# CI generates from the shipped one (.github/workflows/tests.yml, "The
# disk on the plane and on the exponential chart"): there 0.008 leaves
# a two-path sup of about 22% of tol. The plane's gap is 0 at every
# step, so it keeps the shipped step.
@pytest.mark.parametrize("surface, dt_reduced", [
    ("sphere", None), ("exponential", 0.002)], ids=["sphere", "exponential"])
def test_shipped_disk_step_is_converged(surface, dt_reduced):
    config = parse_config(shipped_config_text("disk").replace(
        "surface = sphere", f"surface = {surface}"))
    if dt_reduced is not None:
        config = replace(config, dt_reduced=dt_reduced)
    sup, gaps = disk_step_halving(config)
    print(f"{surface} disk at dt_reduced {config.dt_reduced!r}: "
          f"two-path sup {sup:.3%} of tol; node gaps " + ", ".join(
              f"{name} {gap:.3%}" for name, gap in gaps.items()))
    assert disk_step_is_converged(sup, gaps), (sup, gaps)
    assert config.dt_reduced in DISK_STEP_CANDIDATES
    coarser = [dt for dt in DISK_STEP_CANDIDATES if dt > config.dt_reduced]
    if coarser:
        assert not disk_step_is_converged(*disk_step_halving(
            replace(config, dt_reduced=coarser[0])))


def test_step_halving_guard_rejects_the_disk_at_0_016():
    # Halving 0.016 moves the disk's nodes by about 13% of tol, and its
    # two-path sup is about 3.6% of tol, so the guard must fail there.
    config = replace(parse_config(shipped_config_text("disk")),
                     dt_reduced=0.016)
    assert not disk_step_is_converged(*disk_step_halving(config))


@pytest.mark.parametrize("factor", [1.0 + 1e-7, -1.0],
                         ids=["spin-off-by-1e-7", "spin-flipped"])
def test_disk_two_path_check_catches_a_wrong_spin(monkeypatch, factor):
    # At the shipped step the two-path check must still resolve a
    # magnetic-chart field built with a spin off by a relative 1e-7
    # (a gap of about 1.17e-6), and one with the spin's sign flipped.
    config = parse_config(shipped_config_text("disk"))
    genuine = experiments.disk_magnetic_rhs
    monkeypatch.setattr(
        experiments, "disk_magnetic_rhs", lambda params, surface: genuine(
            replace(params, omega_axial=params.omega_axial * factor),
            surface))
    _, records = TABLE["disk"].run(config, Path.cwd())
    check = next(r for r in records
                 if r.name == "magnetic_chart_two_path_sup")
    print(f"spin times {factor!r}: two-path sup {check.observed:.3e} "
          f"(tol {check.threshold:g})")
    assert not check.passed
