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
files (no wall-clock content; every float is written as its repr, the
shortest text that reads back as the same float). The writer alone
decides a trajectory file's columns: t, the state, then the energy and
momentum logs the trajectory has, each once. A trajectory's CSV and its
JSON twin, or its JSON alone, are written in one block pass (_emit) that
formats each float once, so their numbers are the same text.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .averaging import _check_finite
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
    IntegratorConfig built from it alone, dt_full and dt_reduced as dt,
    and each epsilon_sweep value by _check_finite, as every epsilon is."""
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
        for v in sweep:
            try:
                _check_finite("epsilon", v, positive=True)
            except ValueError as err:
                errors.append(str(err))
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
    state columns, then whichever of the energy and momentum logs the
    trajectory has. A column without one value per node raises
    ValueError."""
    n = len(trajectory)
    log = trajectory.invariant_log
    columns = [("t", trajectory.times),
               *zip(trajectory.state_labels, trajectory.values.T),
               *((name, np.asarray(log[name], dtype=float))
                 for name in ("energy", "momentum") if name in log)]
    for name, column in columns:
        if np.shape(column) != (n,):
            raise ValueError(f"column {name!r} has shape {np.shape(column)}, "
                             f"not one value per node ({n})")
    return columns


# json.dumps's names for the floats whose repr is nan, inf and -inf.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _texts(column: np.ndarray) -> list[str]:
    """repr of each float: the shortest text that reads back as it."""
    return list(map(repr, column.tolist()))


def _json_body(texts: list[str]) -> str:
    """Float texts as json.dumps writes their list, without brackets."""
    body = ", ".join(texts)
    if "n" in body:  # nan, inf or -inf: no finite repr has an n
        body = ", ".join([_JSON_NONFINITE.get(text, text) for text in texts])
    return body


def _emit(trajectory: Trajectory, path: str | Path | None,
          twin: str | Path | None, metadata: dict | None) -> None:
    """Write the CSV at path and the JSON at twin, either one None for no
    file, in one pass over the rows that formats each float once.

    The rows are formatted one block at a time (integrators._row_blocks),
    so the writer holds one block beyond the trajectory itself. The
    JSON's column-major text is spooled block by block to a temporary
    file in its directory, which no outcome leaves behind, and copied
    out column by column. A log without one value per node (ValueError)
    and metadata json cannot encode (TypeError, ValueError) raise before
    either file is opened.
    """
    columns = _columns(trajectory)
    meta = None if twin is None else json.dumps(metadata or {},
                                                sort_keys=True)
    with (nullcontext() if twin is None else tempfile.TemporaryFile(
            dir=Path(twin).parent)) as spool:
        # (offset, length) in the spool of each column of each block.
        index = []
        with (nullcontext() if path is None else open(path, "w")) as fh:
            if fh is not None:
                fh.write(",".join(name for name, _ in columns) + "\n")
            for rows in _row_blocks(len(trajectory)):
                texts = [_texts(column[rows]) for _, column in columns]
                if fh is not None:
                    fh.write("\n".join(map(",".join, zip(*texts))))
                    fh.write("\n")
                if spool is not None:
                    # A comprehension, so that no name outlives the loop
                    # holding a column's texts or body.
                    index += [(spool.tell(),
                               spool.write(_json_body(column).encode()))
                              for column in texts]
                # Freed now, or the next block's texts are made while
                # these live.
                del texts
        if spool is None:
            return
        # A name that repeats keeps its later column, as in a dict of them.
        order = {name: i for i, (name, _) in enumerate(columns)}
        with open(twin, "w") as fh:
            fh.write(f'{{"column_order": '
                     f'{json.dumps([n for n, _ in columns])}, "columns": {{')
            for k, name in enumerate(sorted(order)):
                fh.write(f'{", " if k else ""}{json.dumps(name)}: [')
                for j, (start, length) in enumerate(
                        index[order[name]::len(columns)]):
                    spool.seek(start)
                    body = spool.read(length).decode()
                    fh.write(f", {body}" if j else body)
                fh.write("]")
            fh.write(f'}}, "kind": {json.dumps(trajectory.kind)}, '
                     f'"metadata": {meta}}}')


def emit_csv(trajectory: Trajectory, path: str | Path,
             twin: str | Path | None = None,
             metadata: dict | None = None) -> None:
    """Write `t,<state columns>` and then whichever of the energy and
    momentum logs the trajectory has, and with twin its JSON twin
    (emit_json's bytes, with metadata), in _emit's one block pass.

    Every float is written as its repr, the shortest text that reads
    back as the same float64, so the file round-trips exactly and its
    bytes depend only on the trajectory. An empty trajectory produces
    just the header line.
    """
    _emit(trajectory, path, twin, metadata)


def read_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read an emit_csv file back into named columns.

    The rows are parsed one line at a time into one flat array of
    floats, so the reader holds the floats and one line. A row with
    another number of fields than the header raises ValueError naming
    its line; a header-only file gives empty columns, and a file without
    a header line (an empty one) raises ValueError naming the path.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if not header:
            raise ValueError(f"{path}: no header line")
        names = header.split(",")
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
    """JSON mirror of emit_csv plus run metadata, for a run that writes
    no CSV.

    The bytes are json.dumps(doc, sort_keys=True) of the doc with keys
    column_order, columns, kind and metadata; columns maps each name of
    emit_csv's header to its list of floats, and a name that repeats
    keeps its later column. Each float is emit_csv's repr text, and nan,
    inf and -inf are NaN, Infinity and -Infinity, as json.dumps writes
    them. The file is written by _emit's one block pass, as emit_csv's
    twin is.
    """
    _emit(trajectory, None, path, metadata)


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
    twin = stem.parent / (stem.name + ".json")
    if "csv" not in config.formats:
        emit_json(trajectory, twin, metadata)
    else:
        emit_csv(trajectory, stem.parent / (stem.name + ".csv"),
                 twin if "json" in config.formats else None, metadata)


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
