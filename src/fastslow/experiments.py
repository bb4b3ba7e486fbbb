"""Experiment definitions shared by the command line and the acceptance tests.

TABLE maps each experiment name to its parameter schema and its run
function. run(config, base_dir) integrates and checks but writes no
files (fastslow.cli does). It returns the trajectories, as {file stem:
(trajectory, metadata for its JSON file)}, and the CheckRecords in
report order; base_dir anchors relative paths.

pendulum and particle check that halving eps roughly halves the sup
error between the full and the averaged system; their epsilons run in
parallel processes, at most FASTSLOW_THREADS (default: all cores). disk
checks the curvature drift of the reduction two ways. euler and custom
check the Euler equation on a central extension.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from operator import mul
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from .bundle_geometry import PhaseStateFull, PhaseStateReduced
from .integrators import (IntegratorConfig, _integration, closeness_case,
                          integrate_autonomous)
from .lie_poisson import (BUILTIN_ALGEBRAS, EulerSystem, _extended_field,
                          integrate_euler, load_algebra, shift_cocycle)
from .systems import (DiskParams, PendulumParams,
                      curvature_identity_residual, disk_magnetic_rhs,
                      disk_mass_matrix, disk_momentum, disk_velocity,
                      exponential_surface, particle_potential_1d,
                      particle_systems, pendulum_systems, plane_surface,
                      sphere_surface, spinning_disk_rhs)

if TYPE_CHECKING:
    from .cli import ExperimentConfig

RATIO_WINDOW = (1.5, 3.0)


@dataclass(frozen=True)
class CheckRecord:
    """One named check: observed value against a threshold."""

    name: str
    observed: float
    threshold: float
    relation: str
    passed: bool


def _check(name: str, observed: float, threshold: float,
           relation: str) -> CheckRecord:
    ok = observed <= threshold if relation == "<=" else observed >= threshold
    return CheckRecord(name=name, observed=float(observed),
                       threshold=float(threshold), relation=relation,
                       passed=bool(ok))


def parse_value(raw: str):
    """A config value: a float, a tuple of floats (comma list) or a string."""
    raw = raw.strip()
    try:
        if "," in raw:
            return tuple(float(p) for p in raw.split(",") if p.strip())
        return float(raw)
    except ValueError:
        return raw


def _params(config: ExperimentConfig) -> dict:
    """The config's parameters over the schema defaults."""
    return {**PARAMETER_DEFAULTS[config.experiment], **config.parameters}


def integrator_configs(config: ExperimentConfig
                       ) -> tuple[IntegratorConfig, IntegratorConfig]:
    """Settings for full (fast-time) runs and for slow-time runs."""
    full = IntegratorConfig(method=config.method, dt=config.dt_full,
                            newton_tol=config.newton_tol,
                            newton_max_iter=config.newton_max_iter)
    return full, replace(full, dt=config.dt_reduced)


# ---------------------------------------------------------------------------
# Closeness sweeps: pendulum and particle


def _pendulum_build(p: dict, eps: float) -> tuple:
    params = PendulumParams(length=p["length"], gravity=p["gravity"],
                            amplitude=p["amplitude"], mu=p["mu"],
                            epsilon=eps)
    system, avg = pendulum_systems(params, fiber_floor=p["fiber_floor"])
    return system, avg, params.length * p["theta0"]


def _particle_build(p: dict, eps: float) -> tuple:
    pot = particle_potential_1d(trap=p["trap"], alpha=p["alpha"],
                                beta=p["beta"])
    system, avg = particle_systems(pot, eps, p["mu"])
    return system, avg, p["x0"]


def _closeness_case(config: ExperimentConfig, eps: float) -> tuple:
    """closeness_case at eps for a config whose experiment has a build."""
    p = _params(config)
    system, avg, q0 = TABLE[config.experiment].build(p, eps)
    q0 = np.array([q0])
    p0 = np.array([p["p0"]])
    return closeness_case(
        system, avg, PhaseStateFull(q=q0, p=p0, phi=0.0, gamma=p["mu"]),
        PhaseStateReduced(Q=q0, P=p0), config.horizon_factor,
        *integrator_configs(config))


def _worker_count(n_cases: int) -> int:
    try:
        cap = max(1, int(os.environ["FASTSLOW_THREADS"]))
    except (KeyError, ValueError):
        cap = os.cpu_count() or 1
    return max(1, min(n_cases, cap))


def _run_sweep(config: ExperimentConfig, base_dir: Path) -> tuple:
    cases = config.epsilon_sweep
    if len(cases) < 2:
        # Each check compares two epsilons; fewer would pass unchecked.
        raise ValueError(f"epsilon_sweep needs at least two epsilons, got "
                         f"{len(cases)}")
    workers = _worker_count(len(cases))
    if workers == 1:
        results = [_closeness_case(config, eps) for eps in cases]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                functools.partial(_closeness_case, config), cases))
    trajectories = {f"{kind}_eps{eps!r}": (traj, {"epsilon": eps})
                    for eps, result in zip(cases, results)
                    for kind, traj in zip(("full", "reduced"), result)}
    errors = [rep.sup_error_total for _, _, rep in results]
    records = []
    for i in range(1, len(cases)):
        if errors[i] == 0.0:
            raise ValueError(f"sup error 0 at epsilon {cases[i]!r}: its ratio "
                             f"to epsilon {cases[i - 1]!r} is undefined")
        name = f"closeness_ratio_{cases[i - 1]!r}_to_{cases[i]!r}"
        ratio = errors[i - 1] / errors[i]
        records.append(_check(f"{name}_lower", ratio, RATIO_WINDOW[0], ">="))
        records.append(_check(f"{name}_upper", ratio, RATIO_WINDOW[1], "<="))
    return trajectories, tuple(records)


# ---------------------------------------------------------------------------
# Spinning disk: two paths and the curvature identity


def _curvature_grid(surface) -> tuple[np.ndarray, np.ndarray]:
    (lo1, hi1), (lo2, hi2) = surface.domain
    span1 = ((max(lo1, 0.1), min(hi1, math.pi - 0.1)) if np.isfinite(lo1)
             else (-1.0, 1.0))
    span2 = (lo2, hi2) if np.isfinite(lo2) else (0.0, 2.0 * math.pi)
    return np.linspace(*span1, 50), np.linspace(*span2, 50)


def _run_disk(config: ExperimentConfig, base_dir: Path) -> tuple:
    p = _params(config)
    surfaces = {"sphere": lambda: sphere_surface(p["radius"]),
                "plane": plane_surface, "exponential": exponential_surface}
    if p["surface"] not in surfaces:
        raise ValueError(f"unknown surface {p['surface']!r}")
    surface = surfaces[p["surface"]]()
    params = DiskParams(mass=p["mass"], inertia_axial=p["inertia_axial"],
                        omega_axial=p["omega_axial"])
    _, cfg = integrator_configs(config)
    horizon = p["horizon"]
    q0 = np.array([p["q1_0"], p["q2_0"]])
    u0 = np.array([p["u1_0"], p["u2_0"]])

    rhs = spinning_disk_rhs(params, surface)

    # The energy logs group as 0.5 * u @ M @ u and 0.5 * P1 @ v, with
    # each dot a sum from +0 in index order, so no BLAS kernel rounds them.
    def energy(z):
        u = z[2:].tolist()
        half = [0.5 * x for x in u]
        mass = disk_mass_matrix(params, surface, z[:2]).tolist()
        return sum(map(mul, [sum(map(mul, half, col)) for col in zip(*mass)],
                       u))

    with _integration("Lagrangian integration"):
        lagrangian = integrate_autonomous(
            rhs, np.concatenate([q0, u0]), horizon, cfg,
            state_labels=("q1", "q2", "u1", "u2"), kind="disk_lagrangian",
            dim_base=2,
            logs={"energy": energy, "momentum": lambda z: params.mu},
            meta={"surface": surface.name})

    p1 = disk_momentum(params, surface, q0, u0)

    def hamiltonian(z):
        v = disk_velocity(params, surface, z[:2], z[2:]).tolist()
        return sum(map(mul, [0.5 * x for x in z[2:].tolist()], v))

    with _integration("magnetic-chart integration"):
        magnetic = integrate_autonomous(
            disk_magnetic_rhs(params, surface), np.concatenate([q0, p1]),
            horizon, cfg, state_labels=("Q1", "Q2", "P1_1", "P1_2"),
            kind="reduced_magnetic", dim_base=2,
            logs={"energy": hamiltonian, "momentum": lambda z: params.mu},
            meta={"mu": params.mu, "clock": "slow"})

    # Two-path deviation: positions, and velocities u = M(q)^{-1} P1.
    u_mag = [disk_velocity(params, surface, z[:2], z[2:])
             for z in magnetic.values]
    dev = float(np.max(np.abs(lagrangian.values - np.hstack(
        [magnetic.values[:, :2], u_mag]))))

    grid1, grid2 = _curvature_grid(surface)
    worst = max(abs(curvature_identity_residual(surface, np.array([v1, v2])))
                for v1 in grid1 for v2 in grid2)

    meta = {"surface": surface.name}
    return (
        {"disk_lagrangian": (lagrangian, meta),
         "disk_magnetic": (magnetic, meta)},
        (_check("curvature_identity_max_residual", worst, 1e-7, "<="),
         _check("magnetic_chart_two_path_sup", dev, 1e-6, "<=")))


# ---------------------------------------------------------------------------
# Euler equations: conservation and shift equivalence


def _run_euler(config: ExperimentConfig, base_dir: Path) -> tuple:
    p = _params(config)
    if config.experiment == "custom":
        path = Path(p["algebra_file"])
        if not path.is_absolute():
            path = base_dir / path
        algebra = load_algebra(path.read_text(), name=path.stem)
    else:
        name = p["algebra"]
        if name not in BUILTIN_ALGEBRAS:
            raise ValueError(f"unknown algebra {name!r}; expected one of "
                             + ", ".join(sorted(BUILTIN_ALGEBRAS)))
        algebra = BUILTIN_ALGEBRAS[name]()

    def vector(val):  # a list parameter may be a single float
        return np.atleast_1d(np.asarray(val, dtype=float))

    inertia_diag = vector(p["inertia"])
    # Not the schema's text: the default shift has the algebra's dimension.
    shift = vector(config.parameters.get("shift", np.zeros(algebra.dim)))
    xi0 = vector(p["xi0"])
    horizon = p["horizon"]
    _, cfg = integrator_configs(config)

    system = EulerSystem(algebra=algebra, inertia=np.diag(inertia_diag),
                         shift=shift)
    traj = integrate_euler(system, xi0, horizon, cfg)

    energy = traj.invariant_log["energy"]
    energy_drift = float(np.max(np.abs(energy - energy[0])))
    casimir = traj.invariant_log["casimir_shifted"]
    casimir_drift = float(np.max(np.abs(casimir - casimir[0])))

    # Shift equivalence: the extended-bracket flow of the kinetic
    # Hamiltonian must match the shifted Euler flow, node by node, on
    # the run's nodes up to t = min(10, horizon), and at least its first
    # step. Integrating to a node's own time retakes the steps before it.
    cocycle = shift_cocycle(algebra, shift)
    steps = max(1, int(np.floor(min(10.0, horizon) / cfg.dt + 1e-9)))
    traj_ext = integrate_autonomous(
        _extended_field(algebra, cocycle, system.inertia),
        xi0, traj.times[min(steps, len(traj) - 1)], cfg,
        state_labels=traj.state_labels, kind="euler", dim_base=algebra.dim)
    equiv = float(np.max(np.abs(traj.values[:len(traj_ext)]
                                - traj_ext.values)))

    return (
        {"euler": (traj, {"algebra": algebra.name})},
        (_check("jacobiator_max", algebra.jacobiator(), 1e-12, "<="),
         _check("energy_drift", energy_drift, 1e-8, "<="),
         _check("casimir_drift", casimir_drift, 1e-8, "<="),
         _check("shift_equivalence_sup", equiv, 1e-10, "<=")))


# ---------------------------------------------------------------------------
# The table


@dataclass(frozen=True)
class Experiment:
    """An experiment's summary, schema and run function.

    parameters rows are (key, default text, doc); the type of the
    default (float, comma list of floats, or string) is the type the
    key accepts, and an empty default marks a key a config must set.
    An epsilon sweep (run = _run_sweep) also has a build(parameters,
    eps) -> (system, averaged, initial position), from which
    _closeness_case makes the integrators.closeness_case of one epsilon.
    _run_sweep is the package's one epsilon sweep: `fastslow verify` and
    the acceptance tests check the halving ratios it records.
    """

    summary: str
    parameters: tuple[tuple[str, str, str], ...]
    run: Callable[[ExperimentConfig, Path], tuple]
    build: Callable[[dict, float], tuple] | None = None


_EULER_PARAMETERS = (
    ("inertia", "1.0, 2.0, 3.0", "diagonal of the inertia tensor"),
    ("shift", "0.0, 0.0, 0.0", "momentum shift L"),
    ("xi0", "0.1, 1.0, 0.1", "initial momentum"),
    ("horizon", "100.0", "integration time"),
)

TABLE: dict[str, Experiment] = {
    "pendulum": Experiment(
        "vertically driven pendulum via the suspension trick",
        (("length", "1.0", "pendulum length"),
         ("gravity", "1.0", "gravitational acceleration"),
         ("amplitude", "0.5", "suspension stroke per unit mu"),
         ("mu", "3.0", "conserved fast momentum (drive = mu/epsilon)"),
         ("fiber_floor", "1.0", "constant part of the fiber inertia"),
         ("theta0", "2.0", "initial angle"),
         ("p0", "0.0", "initial angular momentum")),
        _run_sweep, _pendulum_build),
    "disk": Experiment(
        "disk spinning about the normal of a curved surface",
        (("surface", "sphere", "sphere | plane | exponential"),
         ("radius", "1.0", "sphere radius (sphere only)"),
         ("mass", "1.0", "disk mass"),
         ("inertia_axial", "1.0", "moment about the spin axis"),
         ("omega_axial", "2.0", "spin rate (mu = inertia_axial * rate)"),
         ("q1_0", "1.0471975511965976", "initial q1"),
         ("q2_0", "0.0", "initial q2"),
         ("u1_0", "0.1", "initial q1 velocity"),
         ("u2_0", "0.5", "initial q2 velocity"),
         ("horizon", "10.0", "integration time")),
        _run_disk),
    "particle": Experiment(
        "particle in a rapidly oscillating potential",
        (("trap", "1.0", "harmonic trap stiffness"),
         ("alpha", "0.7", "cos(tau) harmonic amplitude"),
         ("beta", "0.4", "sin(tau) harmonic amplitude"),
         ("mu", "1.0", "conserved fast momentum"),
         ("x0", "0.8", "initial position"),
         ("p0", "0.3", "initial momentum")),
        _run_sweep, _particle_build),
    "euler": Experiment(
        "Euler equation on a built-in algebra",
        (("algebra", "so3",
          "one of: " + ", ".join(sorted(BUILTIN_ALGEBRAS))),
         *_EULER_PARAMETERS),
        _run_euler),
    "custom": Experiment(
        "Euler equation on an algebra loaded from a file",
        (("algebra_file", "", "path to a `dim N` / `i j k value` file"),
         *_EULER_PARAMETERS),
        _run_euler),
}

# Each experiment's schema defaults, parsed as config values are.
PARAMETER_DEFAULTS: dict[str, dict] = {
    name: {key: parse_value(text) for key, text, _ in experiment.parameters}
    for name, experiment in TABLE.items()}
