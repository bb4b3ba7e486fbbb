"""Command-line front end: config-driven experiment runs.

`fastslow run <config>` executes one experiment described by a plain
`key = value` config file with `[section]` headers, writes trajectories
(CSV and/or JSON) plus a machine-readable report.json into the
configured output directory, prints one line per verification check,
and exits 0 exactly when every check passes. `fastslow verify
<experiment>` does the same for the shipped config of that experiment,
and `fastslow list` prints the experiments with their parameter
schemas. What each experiment computes and checks is defined in
fastslow.experiments.

Runs are deterministic: the same config produces byte-identical output
files (no wall-clock content, fixed float formatting with 17 significant
digits), whether an epsilon sweep runs serially or across processes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (PARAMETER_DEFAULTS, TABLE, CheckRecord,
                          parse_value)
# integrate_autonomous is not called here; perfbench's self-test checks
# that its tracer also rewraps this imported binding.
from .integrators import IntegrationError, Trajectory, integrate_autonomous

SECTIONS = ("parameters", "sweep", "integrator", "output")


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


# Section keys are named after the fields they set; a key left out of a
# config takes the field's default.
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)
             if f.default is not MISSING}


# Accepted value types and their wording, by the type of the schema
# default; a list key also takes a single float, and a string key any
# text (_typed keeps its raw text).
_VALUE_KINDS = {float: (float, "a float"),
                tuple: ((tuple, float), "a float or a comma list of floats"),
                str: (str, "a string")}


def _typed(raw: str, default):
    """A config value read as the type of its default: a key whose
    default is a string (a name or a path) keeps its text even when it
    reads as a number."""
    return raw if isinstance(default, str) else parse_value(raw)


def _parameter_errors(experiment: str,
                      parameters: dict) -> list[tuple[str, str]]:
    """(key, message) for unknown keys, values of another type than the
    schema default, and keys with an empty default (required) unset."""
    defaults = PARAMETER_DEFAULTS[experiment]
    errors = [(key, f"unknown parameter {key!r} for experiment "
               f"{experiment!r}") for key in parameters.keys() - defaults]
    for key, default in defaults.items():
        value = parameters.get(key)
        accepted, kind = _VALUE_KINDS[type(default)]
        if default == "" and value in (None, ""):
            errors.append((key, f"missing parameter {key!r} for experiment "
                           f"{experiment!r}"))
        elif value is not None and not isinstance(value, accepted):
            errors.append((key, f"parameter {key!r} must be {kind}, "
                           f"got {value!r}"))
    return errors


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
            section = line[1:-1].strip()
            if section not in SECTIONS:
                errors.append((lineno, f"unknown section [{section}]"))
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
        values[(section, key)] = raw_val.strip()

    def take(sec, key):
        default = _DEFAULTS[key]
        raw = values.pop((sec, key), None)
        return default if raw is None else _typed(raw, default)

    def lineof(sec, key):
        return seen.get((sec, key), 0)

    experiment = values.pop((None, "experiment"), None)
    if experiment is None:
        errors.append((0, "missing top-level `experiment = ...`"))
        experiment = ""
    elif experiment not in TABLE:
        errors.append((lineof(None, "experiment"),
                       f"unknown experiment {experiment!r}; expected one of "
                       + ", ".join(TABLE)))

    schema = PARAMETER_DEFAULTS.get(experiment, {})
    parameters = {}
    for (sec, key) in list(values):
        if sec == "parameters":
            parameters[key] = _typed(values.pop((sec, key)), schema.get(key))
    if experiment in TABLE:
        errors += [(lineof("parameters", key), message) for key, message
                   in _parameter_errors(experiment, parameters)]

    sweep = take("sweep", "epsilon_sweep")
    if isinstance(sweep, float):
        sweep = (sweep,)
    if not isinstance(sweep, tuple) or not all(
            isinstance(v, float) for v in sweep):
        errors.append((lineof("sweep", "epsilon_sweep"),
                       "epsilon_sweep must be a comma list of floats"))
    else:
        if any(not v > 0.0 for v in sweep):
            errors.append((lineof("sweep", "epsilon_sweep"),
                           "epsilon values must be positive"))
        if any(sweep[i] <= sweep[i + 1] for i in range(len(sweep) - 1)):
            errors.append((lineof("sweep", "epsilon_sweep"),
                           "epsilon_sweep must be strictly decreasing"))

    horizon_factor = take("sweep", "horizon_factor")
    if not isinstance(horizon_factor, float) or not \
            (0.0 < horizon_factor <= 10.0):
        errors.append((lineof("sweep", "horizon_factor"),
                       "horizon_factor must be a float in (0, 10]"))

    method = take("integrator", "method")
    if method not in ("implicit_midpoint", "rk4"):
        errors.append((lineof("integrator", "method"),
                       f"unknown method {method!r}"))
    dt_full = take("integrator", "dt_full")
    dt_reduced = take("integrator", "dt_reduced")
    for name, val in (("dt_full", dt_full), ("dt_reduced", dt_reduced)):
        if not (isinstance(val, float) and val > 0.0 and np.isfinite(val)):
            errors.append((lineof("integrator", name),
                           f"{name} must be a positive finite float"))
    newton_tol = take("integrator", "newton_tol")
    if not isinstance(newton_tol, float) or not (0.0 < newton_tol <= 1e-6):
        errors.append((lineof("integrator", "newton_tol"),
                       "newton_tol must lie in (0, 1e-6]"))
    newton_max_iter = take("integrator", "newton_max_iter")
    if not (isinstance(newton_max_iter, (int, float))
            and float(newton_max_iter).is_integer() and newton_max_iter >= 1):
        errors.append((lineof("integrator", "newton_max_iter"),
                       "newton_max_iter must be a positive integer"))

    output_dir = take("output", "output_dir")
    formats = take("output", "formats")
    if isinstance(formats, str):
        formats = tuple(p.strip() for p in formats.split(",") if p.strip())
    if isinstance(formats, float):
        formats = ()
    formats = tuple(formats)
    if not formats or any(f not in ("csv", "json") for f in formats):
        errors.append((lineof("output", "formats"),
                       "formats must be a nonempty subset of {csv, json}"))

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
    table = np.column_stack([trajectory.times, trajectory.values, energy,
                             momentum])
    row = ",".join(["%.17g"] * len(cols))
    out = [",".join(cols)]
    out.extend(row % tuple(table[i].tolist()) for i in range(n))
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
    if config.experiment not in TABLE:
        raise ValueError(f"unknown experiment {config.experiment!r}")
    base = Path(base_dir)
    out_dir = Path(config.output_dir)
    if not out_dir.is_absolute():
        out_dir = base / out_dir
    trajectories, records = TABLE[config.experiment].run(config, base)
    # Made only now, so that a run that fails leaves no directory behind.
    out_dir.mkdir(parents=True, exist_ok=True)
    run_meta = {"experiment": config.experiment,
                "config": serialize_config(config),
                "versions": {"fastslow": __version__,
                             "numpy": np.__version__}}
    for stem, (trajectory, meta) in trajectories.items():
        _write_trajectory(trajectory, out_dir / stem, config,
                          {**meta, **run_meta})
    report = VerificationReport(experiment=config.experiment, records=records)
    doc = {**report.to_dict(), "config": run_meta["config"],
           "versions": run_meta["versions"]}
    (out_dir / "report.json").write_text(json.dumps(doc, sort_keys=True))
    return report


# ---------------------------------------------------------------------------
# Entry points


def _shipped_config(experiment: str):
    return resources.files("fastslow").joinpath("configs",
                                                f"{experiment}.cfg")


def _shipped_experiments() -> list[str]:
    return [name for name in TABLE if _shipped_config(name).is_file()]


def shipped_config_text(experiment: str) -> str:
    """Text of the shipped config for a named experiment."""
    ref = _shipped_config(experiment)
    if not ref.is_file():
        raise FileNotFoundError(
            f"no shipped config for {experiment!r}; choose from "
            + ", ".join(_shipped_experiments()))
    return ref.read_text()


def _run_and_print(config: ExperimentConfig, base_dir: Path) -> int:
    """Run an experiment and print its report; return the exit status."""
    try:
        report = run_experiment(config, base_dir=base_dir)
    except (IntegrationError, OSError, ValueError) as err:
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
    for name, experiment in TABLE.items():
        print(f"\n{name}: {experiment.summary}")
        for key, default, doc in experiment.parameters:
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
                          help=" | ".join(_shipped_experiments()))
    sub.add_parser("list", help="list experiments and parameter schemas")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            status = _cmd_run(args.config)
        elif args.command == "verify":
            status = _cmd_verify(args.experiment)
        else:
            status = _cmd_list()
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull so that the flush
        # at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (OSError, ValueError) as err:
        print(str(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
