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
from array import array
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (PARAMETER_DEFAULTS, TABLE, CheckRecord,
                          parse_value)
# integrate_autonomous is not called here; perfbench's self-test checks
# that its tracer also rewraps this imported binding.
from .integrators import (HORIZON_FACTOR_MAX, IntegrationError,
                          IntegratorConfig, Trajectory, _row_blocks,
                          integrate_autonomous)

# The keys of each section, in file order. A section key sets the
# ExperimentConfig field of its name and is read as the type of the
# field's default, which a key left out of a config takes; the keys of
# [parameters] are the experiment's schema.
SECTIONS = {
    "parameters": (),
    "sweep": ("epsilon_sweep", "horizon_factor"),
    "integrator": ("method", "dt_full", "dt_reduced", "newton_tol",
                   "newton_max_iter"),
    "output": ("output_dir", "formats"),
}

# The keys only an epsilon sweep reads. An experiment without one (its
# TABLE row has no build) never reads them, so its config may not set
# them. Likewise the keys only the implicit midpoint solve reads, which
# method rk4 never makes.
_SWEEP_KEYS = (*SECTIONS["sweep"], "dt_full")
_NEWTON_KEYS = ("newton_tol", "newton_max_iter")


def _unread_keys(experiment: str, method: str) -> dict[str, str]:
    """The keys a run of this experiment and method never reads, each
    with the reason."""
    row = TABLE.get(experiment)
    unread = {}
    if row is not None and row.build is None:
        unread.update(dict.fromkeys(
            _SWEEP_KEYS, f"is read only by an epsilon sweep, and experiment "
            f"{experiment!r} runs none"))
    if method == "rk4":
        unread.update(dict.fromkeys(
            _NEWTON_KEYS, f"is read only by the implicit midpoint solve, "
            f"and method {method!r} makes none"))
    return unread


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
    method: str = IntegratorConfig.method
    dt_full: float = 1e-2
    dt_reduced: float = 1e-3
    newton_tol: float = IntegratorConfig.newton_tol
    newton_max_iter: int = IntegratorConfig.newton_max_iter
    output_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")


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


def _setting(key: str, value) -> tuple[object, list[str]]:
    """A section key's value as its ExperimentConfig field holds it, and
    the rules the value breaks. An [integrator] key is checked by an
    IntegratorConfig built from it alone, dt_full and dt_reduced as dt."""
    if key in SECTIONS["integrator"]:
        name = "dt" if key.startswith("dt_") else key
        try:
            return getattr(IntegratorConfig(**{name: value}), name), []
        except ValueError as err:
            return value, [str(err).replace(name, key, 1)]
    if key == "epsilon_sweep":
        sweep = (value,) if isinstance(value, float) else value
        if not isinstance(sweep, tuple) or not all(
                isinstance(v, float) for v in sweep):
            return value, ["epsilon_sweep must be a comma list of floats"]
        errors = []
        if any(not v > 0.0 for v in sweep):
            errors.append("epsilon values must be positive")
        if any(sweep[i] <= sweep[i + 1] for i in range(len(sweep) - 1)):
            errors.append("epsilon_sweep must be strictly decreasing")
        return sweep, errors
    if key == "horizon_factor" and not (
            isinstance(value, float) and 0.0 < value <= HORIZON_FACTOR_MAX):
        return value, [f"horizon_factor must be a float in "
                       f"(0, {HORIZON_FACTOR_MAX:g}]"]
    if key == "formats":
        # Format names stay text; a value that parsed as floats names none.
        value = (tuple(p.strip() for p in value.split(",") if p.strip())
                 if isinstance(value, str) else ())
        if not value or not set(value) <= {"csv", "json"}:
            return value, ["formats must be a nonempty subset of {csv, json}"]
    return value, []


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
    parameters = {key: _typed(values.pop((sec, key)), schema.get(key))
                  for sec, key in list(values) if sec == "parameters"}
    if experiment in TABLE:
        errors += [(lineof("parameters", key), message) for key, message
                   in _parameter_errors(experiment, parameters)]

    unread = _unread_keys(experiment, values.get(("integrator", "method")))
    settings = {}
    for sec, keys in SECTIONS.items():
        for key in keys:
            if (sec, key) not in values:
                continue
            raw = values.pop((sec, key))
            if key in unread:
                errors.append((lineof(sec, key), f"{key} {unread[key]}"))
                continue
            settings[key], messages = _setting(
                key, _typed(raw, getattr(ExperimentConfig, key)))
            errors += [(lineof(sec, key), m) for m in messages]

    for (sec, key) in values:
        if sec is None:
            errors.append((lineof(sec, key),
                           f"unexpected top-level key {key!r}"))
        else:
            errors.append((lineof(sec, key),
                           f"unknown key {key!r} in section [{sec}]"))

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(experiment=experiment, parameters=parameters,
                            **settings)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(map(_format_value, value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical config text; parse_config round-trips it. A section
    with no key to write, and a key the run never reads (by its
    experiment or its method), are left out."""
    unread = _unread_keys(config.experiment, config.method)
    lines = [f"experiment = {config.experiment}"]
    for section, keys in SECTIONS.items():
        pairs = (sorted(config.parameters.items()) if section == "parameters"
                 else [(key, getattr(config, key)) for key in keys
                       if key not in unread])
        if pairs:
            lines += ["", f"[{section}]", *(f"{key} = {_format_value(value)}"
                                            for key, value in pairs)]
    return "\n".join(lines + [""])


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


# ---------------------------------------------------------------------------
# Output files


def _columns(trajectory: Trajectory) -> list[tuple[str, np.ndarray]]:
    """The output columns in file order, as (name, view) pairs: t, the
    state columns, energy and momentum, a missing log read as zeros. A
    column without one value per node raises ValueError."""
    n = len(trajectory)
    zeros = np.broadcast_to(0.0, (n,))
    log = trajectory.invariant_log
    columns = [("t", trajectory.times),
               *zip(trajectory.state_labels, trajectory.values.T),
               *((name, np.asarray(log.get(name, zeros), dtype=float))
                 for name in ("energy", "momentum"))]
    for name, column in columns:
        if np.shape(column) != (n,):
            raise ValueError(f"column {name!r} has shape {np.shape(column)}, "
                             f"not one value per node ({n})")
    return columns


def emit_csv(trajectory: Trajectory, path: str | Path) -> None:
    """Write `t,<state columns>,energy,momentum` with 17 digit floats.

    The format round-trips float64 exactly and the bytes depend only on
    the trajectory, so identical runs give identical files. An empty
    trajectory produces just the header line. The rows are formatted and
    written one block at a time (integrators._row_blocks), so the writer
    holds one block beyond the trajectory itself. A log without one value
    per node raises ValueError before the file is opened.
    """
    columns = _columns(trajectory)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(name for name, _ in columns) + "\n")
        for rows in _row_blocks(len(trajectory)):
            fh.writelines(row % values for values in zip(
                *(column[rows].tolist() for _, column in columns)))


def read_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read an emit_csv file back into named columns.

    The rows are parsed one line at a time into one flat array of
    floats, so the reader holds the floats and one line. A row with
    another number of fields than the header raises ValueError naming
    its line; a header-only file gives empty columns.
    """
    with open(path) as fh:
        names = fh.readline().rstrip("\n").split(",")
        data = array("d")
        for number, line in enumerate(fh, start=2):
            fields = line.split(",")
            if len(fields) != len(names):
                raise ValueError(
                    f"{path}: line {number} has {len(fields)} fields, "
                    f"the header {len(names)}")
            data.extend(map(float, fields))
    values = np.frombuffer(data, dtype=float).reshape(-1, len(names))
    return {name: values[:, i] for i, name in enumerate(names)}


def emit_json(trajectory: Trajectory, path: str | Path,
              metadata: dict | None = None) -> None:
    """JSON mirror of emit_csv plus run metadata.

    The bytes are json.dumps(doc, sort_keys=True) of the doc with keys
    column_order, columns, kind and metadata; columns maps each name of
    emit_csv's header to its list of floats, and a name that repeats
    keeps its later column. The file is written piece by piece, each
    column one block of rows at a time (integrators._row_blocks), so the
    writer holds one block beyond the trajectory itself. The metadata is
    serialized first: metadata json cannot encode raises (TypeError,
    ValueError) and leaves no file, as does a log without one value per
    node (ValueError).
    """
    meta = json.dumps(metadata or {}, sort_keys=True)
    pairs = _columns(trajectory)
    columns = dict(pairs)
    with open(path, "w") as fh:
        fh.write(f'{{"column_order": {json.dumps([n for n, _ in pairs])}, '
                 '"columns": {')
        for k, name in enumerate(sorted(columns)):
            fh.write(f'{", " if k else ""}{json.dumps(name)}: [')
            column = columns[name]
            for j, rows in enumerate(_row_blocks(len(column))):
                # Each block's list without its brackets, joined by ", ".
                text = json.dumps(column[rows].tolist())[1:-1]
                fh.write(f", {text}" if j else text)
            fh.write("]")
        fh.write(f'}}, "kind": {json.dumps(trajectory.kind)}, '
                 f'"metadata": {meta}}}')


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
