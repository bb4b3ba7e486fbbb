"""Command-line front end: config-driven experiment runs.

`fastslow run <config>` executes one experiment described by a plain
`key = value` config file with `[section]` headers, writes trajectories
(CSV and/or JSON) plus a machine-readable report.json into the
configured output directory, prints one line per verification check,
and exits 0 exactly when every check passes. `fastslow verify
<experiment>` does the same for the shipped config of that experiment,
and `fastslow list` prints the experiment registry with parameter
schemas.

Runs are deterministic: the same config produces byte-identical output
files (no wall-clock content, fixed float formatting with 17 significant
digits). Epsilon sweeps run in parallel across processes; the
FASTSLOW_THREADS environment variable caps the worker count (default:
all cores), and results are assembled in sweep order regardless of
completion order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .averaging import AveragedSystem
from .bundle_geometry import PhaseStateFull, PhaseStateReduced
from .integrators import (ClosenessReport, IntegrationError,
                          IntegratorConfig, Trajectory,
                          closeness_report, integrate_autonomous,
                          integrate_full, integrate_reduced_canonical,
                          integrate_reduced_magnetic)
from .lie_poisson import (BUILTIN_ALGEBRAS, EulerSystem,
                          extended_hamiltonian_field, integrate_euler,
                          load_algebra, shift_cocycle)
from .systems import (REGISTRY, DiskParams, PendulumParams, disk_mass_matrix,
                      disk_momentum, disk_reduced_system,
                      curvature_identity_residual, exponential_surface,
                      particle_potential_1d, particle_systems,
                      pendulum_systems, plane_surface, sphere_surface,
                      spinning_disk_rhs)

RATIO_WINDOW = (1.5, 3.0)
EXPERIMENTS = ("pendulum", "disk", "particle", "euler", "custom")
SECTIONS = ("parameters", "sweep", "integrator", "output")

EXTRA_SCHEMAS = {
    "euler": (
        ("algebra", "so3", "one of: " + ", ".join(sorted(BUILTIN_ALGEBRAS))),
        ("inertia", "1.0, 2.0, 3.0", "diagonal of the inertia tensor"),
        ("shift", "0.0, 0.0, 0.0", "momentum shift L"),
        ("xi0", "0.1, 1.0, 0.1", "initial momentum"),
        ("horizon", "100.0", "integration time"),
    ),
    "custom": (
        ("algebra_file", "", "path to a `dim N` / `i j k value` file"),
        ("inertia", "1.0, 2.0, 3.0", "diagonal of the inertia tensor"),
        ("shift", "0.0, 0.0, 0.0", "momentum shift L"),
        ("xi0", "0.1, 1.0, 0.1", "initial momentum"),
        ("horizon", "100.0", "integration time"),
    ),
}


class ConfigError(ValueError):
    """Config rejection carrying every violation with its line number."""

    def __init__(self, errors: list[tuple[int, str]]) -> None:
        self.errors = sorted(errors)
        lines = [f"line {n}: {msg}" if n else msg for n, msg in self.errors]
        super().__init__("invalid config:\n" + "\n".join(lines))


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description.

    parameters maps schema keys to floats, tuples of floats, or strings;
    epsilon_sweep is strictly decreasing. dt_full applies to full
    (fast-time) integrations, dt_reduced to reduced and other slow-time
    integrations.
    """

    experiment: str
    parameters: dict = field(default_factory=dict)
    epsilon_sweep: tuple[float, ...] = (1e-2, 5e-3, 2.5e-3)
    horizon_factor: float = 1.0
    method: str = "implicit_midpoint"
    dt_full: float = 1e-2
    dt_reduced: float = 1e-3
    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    output_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")


def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        try:
            return tuple(float(p) for p in parts)
        except ValueError:
            return raw
    try:
        return float(raw)
    except ValueError:
        return raw


def _schema_keys(experiment: str) -> set[str]:
    if experiment in REGISTRY:
        return {k for k, _, _ in REGISTRY[experiment].parameters}
    if experiment in EXTRA_SCHEMAS:
        return {k for k, _, _ in EXTRA_SCHEMAS[experiment]}
    return set()


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text, reporting every violation with line numbers."""
    errors: list[tuple[int, str]] = []
    section = None
    seen: dict[tuple[str | None, str], int] = {}
    values: dict[tuple[str | None, str], object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SECTIONS:
                errors.append((lineno, f"unknown section [{name}]"))
                section = name
            else:
                section = name
            continue
        if "=" not in line:
            errors.append((lineno, f"expected `key = value`, got {raw!r}"))
            continue
        key, _, raw_val = line.partition("=")
        key = key.strip()
        if not key:
            errors.append((lineno, "empty key"))
            continue
        if (section, key) in seen:
            errors.append((lineno, f"duplicate key {key!r} (first set on "
                           f"line {seen[(section, key)]})"))
            continue
        seen[(section, key)] = lineno
        values[(section, key)] = _parse_value(raw_val)

    def take(sec, key, default=None):
        return values.pop((sec, key), default)

    def lineof(sec, key):
        return seen.get((sec, key), 0)

    experiment = take(None, "experiment")
    if experiment is None:
        errors.append((0, "missing top-level `experiment = ...`"))
        experiment = ""
    elif experiment not in EXPERIMENTS:
        errors.append((lineof(None, "experiment"),
                       f"unknown experiment {experiment!r}; expected one of "
                       + ", ".join(EXPERIMENTS)))

    parameters = {}
    for (sec, key) in list(values):
        if sec == "parameters":
            parameters[key] = values.pop((sec, key))
    allowed = _schema_keys(str(experiment))
    for key in parameters:
        if allowed and key not in allowed:
            errors.append((lineof("parameters", key),
                           f"unknown parameter {key!r} for experiment "
                           f"{experiment!r}"))

    sweep = take("sweep", "epsilon_sweep", (1e-2, 5e-3, 2.5e-3))
    if isinstance(sweep, float):
        sweep = (sweep,)
    if not isinstance(sweep, tuple) or not all(
            isinstance(v, float) for v in sweep):
        errors.append((lineof("sweep", "epsilon_sweep"),
                       "epsilon_sweep must be a comma list of floats"))
        sweep = (1e-2,)
    else:
        if any(not v > 0.0 for v in sweep):
            errors.append((lineof("sweep", "epsilon_sweep"),
                           "epsilon values must be positive"))
        if any(sweep[i] <= sweep[i + 1] for i in range(len(sweep) - 1)):
            errors.append((lineof("sweep", "epsilon_sweep"),
                           "epsilon_sweep must be strictly decreasing"))

    horizon_factor = take("sweep", "horizon_factor", 1.0)
    if not isinstance(horizon_factor, float) or not \
            (0.0 < horizon_factor <= 10.0):
        errors.append((lineof("sweep", "horizon_factor"),
                       "horizon_factor must be a float in (0, 10]"))
        horizon_factor = 1.0

    method = take("integrator", "method", "implicit_midpoint")
    if method not in ("implicit_midpoint", "rk4"):
        errors.append((lineof("integrator", "method"),
                       f"unknown method {method!r}"))
        method = "implicit_midpoint"
    dt_full = take("integrator", "dt_full", 1e-2)
    dt_reduced = take("integrator", "dt_reduced", 1e-3)
    for name, val in (("dt_full", dt_full), ("dt_reduced", dt_reduced)):
        if not isinstance(val, float) or not val > 0.0:
            errors.append((lineof("integrator", name),
                           f"{name} must be a positive float"))
    newton_tol = take("integrator", "newton_tol", 1e-12)
    if not isinstance(newton_tol, float) or not (0.0 < newton_tol <= 1e-6):
        errors.append((lineof("integrator", "newton_tol"),
                       "newton_tol must lie in (0, 1e-6]"))
        newton_tol = 1e-12
    newton_max_iter = take("integrator", "newton_max_iter", 50.0)
    if not isinstance(newton_max_iter, float) or \
            newton_max_iter != int(newton_max_iter) or newton_max_iter < 1:
        errors.append((lineof("integrator", "newton_max_iter"),
                       "newton_max_iter must be a positive integer"))
        newton_max_iter = 50.0

    output_dir = take("output", "output_dir", "out")
    if isinstance(output_dir, float):
        output_dir = str(output_dir)
    formats = take("output", "formats", ("csv", "json"))
    if isinstance(formats, str):
        formats = tuple(p.strip() for p in formats.split(",") if p.strip())
    if isinstance(formats, float):
        formats = ()
    formats = tuple(formats)
    if not formats or any(f not in ("csv", "json") for f in formats):
        errors.append((lineof("output", "formats"),
                       "formats must be a nonempty subset of {csv, json}"))
        formats = ("csv",)

    for (sec, key) in values:
        if sec is None:
            errors.append((lineof(sec, key),
                           f"unexpected top-level key {key!r}"))
        else:
            errors.append((lineof(sec, key),
                           f"unknown key {key!r} in section [{sec}]"))

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        experiment=str(experiment), parameters=parameters,
        epsilon_sweep=tuple(sweep), horizon_factor=float(horizon_factor),
        method=str(method), dt_full=float(dt_full),
        dt_reduced=float(dt_reduced), newton_tol=float(newton_tol),
        newton_max_iter=int(newton_max_iter), output_dir=str(output_dir),
        formats=formats)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical config text; parse_config round-trips it."""
    lines = [f"experiment = {config.experiment}", "", "[parameters]"]
    for key in sorted(config.parameters):
        lines.append(f"{key} = {_format_value(config.parameters[key])}")
    lines += [
        "",
        "[sweep]",
        f"epsilon_sweep = {_format_value(config.epsilon_sweep)}",
        f"horizon_factor = {_format_value(config.horizon_factor)}",
        "",
        "[integrator]",
        f"method = {config.method}",
        f"dt_full = {_format_value(config.dt_full)}",
        f"dt_reduced = {_format_value(config.dt_reduced)}",
        f"newton_tol = {_format_value(config.newton_tol)}",
        f"newton_max_iter = {config.newton_max_iter}",
        "",
        "[output]",
        f"output_dir = {config.output_dir}",
        f"formats = {', '.join(config.formats)}",
        "",
    ]
    return "\n".join(lines)


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


# ---------------------------------------------------------------------------
# Output files


def emit_csv(trajectory: Trajectory, path: str | Path) -> None:
    """Write `t,<state columns>,energy,momentum` with 17 digit floats.

    The format round-trips float64 exactly and the bytes depend only on
    the trajectory, so identical runs give identical files. An empty
    trajectory produces just the header line.
    """
    n = len(trajectory)
    energy = trajectory.invariant_log.get("energy", np.zeros(n))
    momentum = trajectory.invariant_log.get("momentum", np.zeros(n))
    cols = ["t", *trajectory.state_labels, "energy", "momentum"]
    out = [",".join(cols)]
    for i in range(n):
        row = [trajectory.times[i], *trajectory.values[i], energy[i],
               momentum[i]]
        out.append(",".join(format(float(v), ".17g") for v in row))
    Path(path).write_text("\n".join(out) + "\n")


def read_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read an emit_csv file back into named columns."""
    lines = Path(path).read_text().strip().split("\n")
    names = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    data = np.array(rows) if rows else np.empty((0, len(names)))
    return {name: data[:, i] for i, name in enumerate(names)}


def emit_json(trajectory: Trajectory, path: str | Path,
              metadata: dict | None = None) -> None:
    """JSON mirror of emit_csv plus run metadata."""
    n = len(trajectory)
    energy = trajectory.invariant_log.get("energy", np.zeros(n))
    momentum = trajectory.invariant_log.get("momentum", np.zeros(n))
    columns = {"t": trajectory.times.tolist()}
    for j, label in enumerate(trajectory.state_labels):
        columns[label] = trajectory.values[:, j].tolist()
    columns["energy"] = np.asarray(energy, dtype=float).tolist()
    columns["momentum"] = np.asarray(momentum, dtype=float).tolist()
    doc = {
        "column_order": ["t", *trajectory.state_labels, "energy", "momentum"],
        "columns": columns,
        "kind": trajectory.kind,
        "metadata": metadata or {},
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True))


# ---------------------------------------------------------------------------
# Verification reports


@dataclass(frozen=True)
class CheckRecord:
    """One named check: observed value against a threshold."""

    name: str
    observed: float
    threshold: float
    relation: str
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an experiment run; overall passes iff every record does."""

    experiment: str
    records: tuple[CheckRecord, ...]

    @property
    def overall(self) -> bool:
        return all(r.passed for r in self.records)

    def lines(self) -> list[str]:
        out = []
        for r in self.records:
            tag = "PASS" if r.passed else "FAIL"
            out.append(f"[{tag}] {r.name}: observed {r.observed:.6e} "
                       f"(required {r.relation} {r.threshold:g})")
        out.append(f"overall: {'PASS' if self.overall else 'FAIL'}")
        return out

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "overall": self.overall,
            "records": [
                {"name": r.name, "observed": r.observed,
                 "threshold": r.threshold, "relation": r.relation,
                 "pass": r.passed} for r in self.records],
        }


def _check(name: str, observed: float, threshold: float,
           relation: str) -> CheckRecord:
    if relation == "<=":
        ok = observed <= threshold
    elif relation == ">=":
        ok = observed >= threshold
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return CheckRecord(name=name, observed=float(observed),
                       threshold=float(threshold), relation=relation,
                       passed=bool(ok))


# ---------------------------------------------------------------------------
# Experiment runners


def _param(config: ExperimentConfig, key: str, default):
    return config.parameters.get(key, default)


def _integrator_configs(config: ExperimentConfig
                        ) -> tuple[IntegratorConfig, IntegratorConfig]:
    full = IntegratorConfig(method=config.method, dt=config.dt_full,
                            newton_tol=config.newton_tol,
                            newton_max_iter=config.newton_max_iter)
    reduced = IntegratorConfig(method=config.method, dt=config.dt_reduced,
                               newton_tol=config.newton_tol,
                               newton_max_iter=config.newton_max_iter)
    return full, reduced


def _closeness_case(config: ExperimentConfig,
                    eps: float) -> tuple[Trajectory, Trajectory,
                                         ClosenessReport]:
    cfg_full, cfg_red = _integrator_configs(config)
    if config.experiment == "pendulum":
        params = PendulumParams(
            length=_param(config, "length", 1.0),
            gravity=_param(config, "gravity", 1.0),
            amplitude=_param(config, "amplitude", 0.5),
            mu=_param(config, "mu", 3.0), epsilon=eps)
        system, avg = pendulum_systems(
            params, fiber_floor=_param(config, "fiber_floor", 1.0))
        q0 = np.array([params.length * _param(config, "theta0", 2.0)])
        p0 = np.array([_param(config, "p0", 0.0)])
        mu = params.mu
    elif config.experiment == "particle":
        pot = particle_potential_1d(
            trap=_param(config, "trap", 1.0),
            alpha=_param(config, "alpha", 0.7),
            beta=_param(config, "beta", 0.4))
        mu = _param(config, "mu", 1.0)
        system, avg = particle_systems(pot, eps, mu)
        q0 = np.array([_param(config, "x0", 0.8)])
        p0 = np.array([_param(config, "p0", 0.3)])
    else:
        raise ValueError(f"no closeness sweep for {config.experiment!r}")
    full0 = PhaseStateFull(q=q0, p=p0, phi=0.0, gamma=mu)
    red0 = PhaseStateReduced(Q=q0, P=p0)
    full = integrate_full(system, full0, config.horizon_factor / eps,
                          cfg_full)
    reduced = integrate_reduced_canonical(avg, red0, config.horizon_factor,
                                          cfg_red)
    return full, reduced, closeness_report(full, reduced, system)


def _closeness_worker(args: tuple) -> tuple:
    config_text, eps = args
    config = parse_config(config_text)
    return _closeness_case(config, eps)


def _worker_count(n_cases: int) -> int:
    env = os.environ.get("FASTSLOW_THREADS", "")
    cap = os.cpu_count() or 1
    if env.strip():
        try:
            cap = max(1, int(env))
        except ValueError:
            cap = os.cpu_count() or 1
    return max(1, min(n_cases, cap))


def _run_sweep_experiment(config: ExperimentConfig,
                          out_dir: Path) -> VerificationReport:
    cases = list(config.epsilon_sweep)
    workers = _worker_count(len(cases))
    if workers == 1:
        results = [_closeness_case(config, eps) for eps in cases]
    else:
        text = serialize_config(config)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_closeness_worker,
                                    [(text, eps) for eps in cases]))
    sups = [rep.sup_error_total for _, _, rep in results]
    records = []
    for i, eps in enumerate(cases):
        full, reduced, rep = results[i]
        meta = {"epsilon": eps, "experiment": config.experiment,
                "config": serialize_config(config),
                "versions": {"fastslow": __version__,
                             "numpy": np.__version__}}
        _write_trajectory(full, out_dir / f"full_eps{eps!r}", config, meta)
        _write_trajectory(reduced, out_dir / f"reduced_eps{eps!r}", config,
                          meta)
        if i > 0:
            ratio = sups[i - 1] / sups[i]
            records.append(_check(
                f"closeness_ratio_{cases[i - 1]!r}_to_{eps!r}_lower",
                ratio, RATIO_WINDOW[0], ">="))
            records.append(_check(
                f"closeness_ratio_{cases[i - 1]!r}_to_{eps!r}_upper",
                ratio, RATIO_WINDOW[1], "<="))
    return VerificationReport(experiment=config.experiment,
                              records=tuple(records))


def _surface_from_config(config: ExperimentConfig):
    name = str(_param(config, "surface", "sphere"))
    if name == "sphere":
        return sphere_surface(_param(config, "radius", 1.0))
    if name == "plane":
        return plane_surface()
    if name == "exponential":
        return exponential_surface()
    raise ValueError(f"unknown surface {name!r}")


def _curvature_grid(surface) -> tuple[np.ndarray, np.ndarray]:
    (lo1, hi1), (lo2, hi2) = surface.domain
    lo1 = max(lo1, 0.1) if np.isfinite(lo1) else -1.0
    hi1 = min(hi1, math.pi - 0.1) if np.isfinite(hi1) else 1.0
    if not np.isfinite(surface.domain[0][0]):
        lo1, hi1 = -1.0, 1.0
    lo2, hi2 = (0.0, 2.0 * math.pi) if not np.isfinite(lo2) else (lo2, hi2)
    return np.linspace(lo1, hi1, 50), np.linspace(lo2, hi2, 50)


def _run_disk_experiment(config: ExperimentConfig,
                         out_dir: Path) -> VerificationReport:
    surface = _surface_from_config(config)
    params = DiskParams(
        mass=_param(config, "mass", 1.0),
        inertia_axial=_param(config, "inertia_axial", 1.0),
        inertia_diametral=_param(config, "inertia_diametral", 0.5),
        omega_axial=_param(config, "omega_axial", 2.0))
    _, cfg = _integrator_configs(config)
    horizon = _param(config, "horizon", 10.0)
    q0 = np.array([_param(config, "q1_0", math.pi / 3.0),
                   _param(config, "q2_0", 0.0)])
    u0 = np.array([_param(config, "u1_0", 0.1),
                   _param(config, "u2_0", 0.5)])

    rhs = spinning_disk_rhs(params, surface)

    def energy(z):
        mass = disk_mass_matrix(params, surface, z[:2])
        return float(0.5 * z[2:] @ mass @ z[2:])

    lagrangian = integrate_autonomous(
        rhs, np.concatenate([q0, u0]), horizon, cfg,
        state_labels=("q1", "q2", "u1", "u2"), kind="disk_lagrangian",
        dim_base=2, energy=energy,
        logs={"momentum": lambda z: params.mu},
        meta={"surface": surface.name})

    shell, overrides = disk_reduced_system(params, surface)
    p1 = disk_momentum(params, surface, q0, u0)
    magnetic = integrate_reduced_magnetic(
        shell, PhaseStateReduced(Q=q0, P=p1, chart="magnetic"), horizon, cfg,
        **overrides)

    # Two-path deviation: positions and velocities.
    dev = 0.0
    for i in range(len(lagrangian)):
        qdev = np.max(np.abs(lagrangian.values[i, :2] - magnetic.values[i, :2]))
        mass = disk_mass_matrix(params, surface, magnetic.values[i, :2])
        u_mag = np.linalg.solve(mass, magnetic.values[i, 2:])
        udev = np.max(np.abs(lagrangian.values[i, 2:] - u_mag))
        dev = max(dev, float(qdev), float(udev))

    grid1, grid2 = _curvature_grid(surface)
    worst = 0.0
    for v1 in grid1:
        for v2 in grid2:
            worst = max(worst, abs(curvature_identity_residual(
                surface, np.array([v1, v2]))))

    meta = {"experiment": "disk", "surface": surface.name,
            "config": serialize_config(config),
            "versions": {"fastslow": __version__, "numpy": np.__version__}}
    _write_trajectory(lagrangian, out_dir / "disk_lagrangian", config, meta)
    _write_trajectory(magnetic, out_dir / "disk_magnetic", config, meta)
    records = (
        _check("curvature_identity_max_residual", worst, 1e-7, "<="),
        _check("magnetic_chart_two_path_sup", dev, 1e-6, "<="),
    )
    return VerificationReport(experiment="disk", records=records)


def _run_euler_experiment(config: ExperimentConfig, out_dir: Path,
                          base_dir: Path) -> VerificationReport:
    if config.experiment == "custom":
        raw = _param(config, "algebra_file", "")
        path = Path(str(raw))
        if not path.is_absolute():
            path = base_dir / path
        algebra = load_algebra(path.read_text(), name=path.stem)
    else:
        name = str(_param(config, "algebra", "so3"))
        if name not in BUILTIN_ALGEBRAS:
            raise ValueError(f"unknown algebra {name!r}; expected one of "
                             + ", ".join(sorted(BUILTIN_ALGEBRAS)))
        algebra = BUILTIN_ALGEBRAS[name]()

    def vector(key, default):
        val = _param(config, key, default)
        if isinstance(val, float):
            val = (val,)
        return np.asarray(val, dtype=float)

    inertia_diag = vector("inertia", (1.0, 2.0, 3.0))
    shift = vector("shift", tuple(0.0 for _ in range(algebra.dim)))
    xi0 = vector("xi0", (0.1, 1.0, 0.1))
    horizon = _param(config, "horizon", 100.0)
    _, cfg = _integrator_configs(config)

    system = EulerSystem(algebra=algebra, inertia=np.diag(inertia_diag),
                         shift=shift)
    traj = integrate_euler(system, xi0, horizon, cfg)

    energy = traj.invariant_log["energy"]
    energy_drift = float(np.max(np.abs(energy - energy[0])))
    casimir = traj.invariant_log["casimir_shifted"]
    casimir_drift = float(np.max(np.abs(casimir - casimir[0])))

    # Shift equivalence: the extended-bracket flow of the kinetic
    # Hamiltonian must match the shifted Euler flow.
    cocycle = shift_cocycle(algebra, shift)
    eq_horizon = min(10.0, horizon)
    traj_shift = integrate_euler(system, xi0, eq_horizon, cfg)
    traj_ext = integrate_autonomous(
        lambda xi: extended_hamiltonian_field(algebra, cocycle,
                                              system.inertia, xi),
        xi0, eq_horizon, cfg,
        state_labels=traj.state_labels, kind="euler", dim_base=algebra.dim)
    equiv = float(np.max(np.abs(traj_shift.values - traj_ext.values)))

    meta = {"experiment": config.experiment, "algebra": algebra.name,
            "config": serialize_config(config),
            "versions": {"fastslow": __version__, "numpy": np.__version__}}
    _write_trajectory(traj, out_dir / "euler", config, meta)
    records = (
        _check("jacobiator_max", algebra.jacobiator(), 1e-12, "<="),
        _check("energy_drift", energy_drift, 1e-8, "<="),
        _check("casimir_drift", casimir_drift, 1e-8, "<="),
        _check("shift_equivalence_sup", equiv, 1e-10, "<="),
    )
    return VerificationReport(experiment=config.experiment, records=records)


def _write_trajectory(trajectory: Trajectory, stem: Path,
                      config: ExperimentConfig, metadata: dict) -> None:
    # Not Path.with_suffix: stems like "full_eps0.01" would lose ".01".
    if "csv" in config.formats:
        emit_csv(trajectory, stem.parent / (stem.name + ".csv"))
    if "json" in config.formats:
        emit_json(trajectory, stem.parent / (stem.name + ".json"), metadata)


def run_experiment(config: ExperimentConfig,
                   base_dir: str | Path = ".") -> VerificationReport:
    """Run one experiment: integrate, write outputs, verify.

    base_dir anchors relative paths (the output directory and any
    algebra_file parameter). The verification report is also written to
    report.json in the output directory.
    """
    base = Path(base_dir)
    out_dir = Path(config.output_dir)
    if not out_dir.is_absolute():
        out_dir = base / out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    if config.experiment in ("pendulum", "particle"):
        report = _run_sweep_experiment(config, out_dir)
    elif config.experiment == "disk":
        report = _run_disk_experiment(config, out_dir)
    elif config.experiment in ("euler", "custom"):
        report = _run_euler_experiment(config, out_dir, base)
    else:
        raise ValueError(f"unknown experiment {config.experiment!r}")
    doc = report.to_dict()
    doc["config"] = serialize_config(config)
    doc["versions"] = {"fastslow": __version__, "numpy": np.__version__}
    (out_dir / "report.json").write_text(json.dumps(doc, sort_keys=True))
    return report


# ---------------------------------------------------------------------------
# Entry points


def shipped_config_text(experiment: str) -> str:
    """Text of the shipped config for a named experiment."""
    ref = resources.files("fastslow").joinpath("configs",
                                               f"{experiment}.cfg")
    if not ref.is_file():
        raise FileNotFoundError(
            f"no shipped config for {experiment!r}; choose from pendulum, "
            "disk, particle, euler")
    return ref.read_text()


def _run_and_print(config: ExperimentConfig, base_dir: Path) -> int:
    """Run an experiment and print its report; return the exit status."""
    try:
        report = run_experiment(config, base_dir=base_dir)
    except (IntegrationError, OSError) as err:
        print(f"experiment {config.experiment} failed: {err}",
              file=sys.stderr)
        return 2
    for line in report.lines():
        print(line)
    return 0 if report.overall else 1


def _cmd_run(path: str) -> int:
    return _run_and_print(load_config(path), Path(path).resolve().parent)


def _cmd_verify(experiment: str) -> int:
    return _run_and_print(parse_config(shipped_config_text(experiment)),
                          Path.cwd())


def _cmd_list() -> int:
    print("available experiments:")
    for name, info in REGISTRY.items():
        print(f"\n{name}: {info.summary}")
        for key, default, doc in info.parameters:
            print(f"  {key:<18} (default {default}): {doc}")
    for name, schema in EXTRA_SCHEMAS.items():
        title = ("Euler equation on a built-in algebra" if name == "euler"
                 else "Euler equation on an algebra loaded from a file")
        print(f"\n{name}: {title}")
        for key, default, doc in schema:
            print(f"  {key:<18} (default {default}): {doc}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fastslow",
        description="averaging toolkit for fast-oscillating Hamiltonian "
                    "systems")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a config file")
    p_verify = sub.add_parser("verify",
                              help="run the shipped config of an experiment")
    p_verify.add_argument("experiment",
                          help="pendulum | disk | particle | euler")
    sub.add_parser("list", help="list experiments and parameter schemas")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args.config)
        if args.command == "verify":
            return _cmd_verify(args.experiment)
        return _cmd_list()
    except (ConfigError, FileNotFoundError, ValueError) as err:
        print(str(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
