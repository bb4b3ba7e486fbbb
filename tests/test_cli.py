"""Tests for the config front end, file formats, and experiment runner.

Oracles: the config grammar is small enough to enumerate violations by
hand with their line numbers; CSV output, each float its repr, must
round-trip float64 bit-exactly; and runs are deterministic, so byte
comparison across repeated runs is the ground truth for the output
contract. The block writers must give the bytes of the one-shot writers
they replaced, kept here verbatim but for the CSV float format (repr
where it was %.17g) and for the logs (a log the trajectory lacks is left
out, where it was written as zeros), and hold one block of rows beyond
the trajectory whatever its length. A CSV and its JSON twin written in
one call share their number text: each CSV field is the JSON number
token, json.dumps's NaN, Infinity and -Infinity standing for nan, inf
and -inf.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fastslow
from fastslow import (DomainError, IntegrationError, IntegratorConfig,
                      PhaseStateFull, PhaseStateReduced, Trajectory,
                      particle_potential_1d, particle_systems)
from fastslow import experiments, integrators, lie_poisson
from fastslow.cli import (ConfigError, ExperimentConfig, emit_csv, emit_json,
                          load_config, main, parse_config, read_csv,
                          run_experiment, serialize_config,
                          shipped_config_text)
from fastslow.lie_poisson import Cocycle, EulerSystem, integrate_euler, so3

SO3_FILE_TEXT = "dim 3\n0 1 2 1.0\n1 2 0 1.0\n2 0 1 1.0\n"

EULER_FAST_CONFIG = """\
experiment = euler

[parameters]
algebra = so3
inertia = 1.0, 2.0, 3.0
xi0 = 0.1, 1.0, 0.1
horizon = 5.0

[output]
output_dir = out
"""

PARTICLE_SWEEP_TEMPLATE = """\
experiment = particle

[sweep]
epsilon_sweep = {sweep}

[output]
output_dir = out
"""


def reference_emit_csv(trajectory: Trajectory, path) -> None:
    """The one-shot emit_csv that the block writer replaced, verbatim but
    for its float format, moved from %.17g to repr (%r), and for its
    logs: each of energy and momentum is written only if the trajectory
    has it, where the one-shot writer wrote zeros."""
    logs = [name for name in ("energy", "momentum")
            if name in trajectory.invariant_log]
    cols = ["t", *trajectory.state_labels, *logs]
    table = np.column_stack([trajectory.times, trajectory.values,
                             *(trajectory.invariant_log[name]
                               for name in logs)])
    row = ",".join(["%r"] * len(cols)) + "\n"
    # One tolist of the columns, rows zipped from them and written one by
    # one: no row list is made, and the rows' text is never held at once.
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        fh.writelines(row % values for values in zip(*table.T.tolist()))


def reference_emit_json(trajectory: Trajectory, path,
                        metadata: dict | None = None) -> None:
    """The one-shot emit_json that the block writer replaced, verbatim but
    for its logs, each written only if the trajectory has it."""
    logs = [name for name in ("energy", "momentum")
            if name in trajectory.invariant_log]
    columns = {"t": trajectory.times.tolist()}
    for j, label in enumerate(trajectory.state_labels):
        columns[label] = trajectory.values[:, j].tolist()
    for name in logs:
        columns[name] = np.asarray(trajectory.invariant_log[name],
                                   dtype=float).tolist()
    doc = {
        "column_order": ["t", *trajectory.state_labels, *logs],
        "columns": columns,
        "kind": trajectory.kind,
        "metadata": metadata or {},
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True))


BLOCK = integrators._BLOCK_ROWS
# Each kind's state labels and logs as its integrator writes them; the
# generic kind has no energy or momentum log, "collision" has state
# labels that repeat names of the output columns, and "full" no momentum
# log (gamma is its state column).
KINDS = {
    "full": (("q1", "p1", "phi", "gamma"), ("energy", "phi_dot")),
    "reduced_canonical": (("Q1", "P1"), ("energy", "momentum")),
    "euler": (("xi1", "xi2", "xi3"),
              ("energy", "momentum", "casimir_shifted")),
    "generic": (("a", "b"), ()),
    "collision": (("t", "energy", "x"), ("energy",)),
}
SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 5e-324,
                  1.7976931348623157e308)
NESTED_METADATA = {"experiment": "pendulum", "config": "mu = 3.0\n",
                   "nested": {"b": [1.0, -0.0, math.inf],
                              "a": {"temperature": "Grüße, 温度 °C"}}}


def reference_read_csv(path) -> dict[str, np.ndarray]:
    """The whole-file read_csv that the line reader replaced, verbatim."""
    lines = Path(path).read_text().strip().split("\n")
    names = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    data = np.array(rows) if rows else np.empty((0, len(names)))
    return {name: data[:, i] for i, name in enumerate(names)}


def oracle_trajectory(kind: str, n: int) -> Trajectory:
    """n rows of the kind's columns: floats over many magnitudes with
    the special values spread through every column, times from -0.0."""
    labels, logs = KINDS[kind]
    rng = np.random.default_rng(n)
    width = len(labels) + len(logs)
    data = (rng.standard_normal((n, width))
            * 10.0 ** rng.integers(-300, 300, (n, width)))
    data.flat[::7] = np.resize(SPECIAL_FLOATS, data.flat[::7].size)
    times = np.arange(n) * 0.01
    if n:
        times[0] = -0.0
    return Trajectory(
        times=times, values=data[:, :len(labels)], state_labels=labels,
        kind="generic" if kind == "collision" else kind, dim_base=1,
        invariant_log={name: data[:, len(labels) + j]
                       for j, name in enumerate(logs)})


def oracle_columns(trajectory: Trajectory) -> dict[str, np.ndarray]:
    """The output columns by name, a repeated name keeping its later
    column, a missing log left out."""
    log = trajectory.invariant_log
    return dict([("t", trajectory.times),
                 *zip(trajectory.state_labels, trajectory.values.T),
                 *((name, log[name]) for name in ("energy", "momentum")
                   if name in log)])


def small_trajectory():
    times = np.array([0.0, 0.5])
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    return Trajectory(
        times=times, values=values, state_labels=("a", "b"), kind="generic",
        dim_base=1,
        invariant_log={"energy": np.array([0.25, 0.125]),
                       "momentum": np.array([1.0, 1.0])})


class TestConfigParsing:
    def test_minimal_config_gets_defaults(self):
        config = parse_config("experiment = pendulum\n")
        assert config.experiment == "pendulum"
        assert config.epsilon_sweep == (1e-2, 5e-3, 2.5e-3)
        assert config.method == "implicit_midpoint"
        assert config.formats == ("csv", "json")
        assert config.newton_max_iter == 50

    def test_defaults_are_the_dataclass_defaults(self):
        assert parse_config("experiment = pendulum\n") == \
            ExperimentConfig(experiment="pendulum")

    def test_comments_and_blanks_ignored(self):
        text = ("# leading comment\n\nexperiment = particle  # inline\n"
                "[sweep]\nepsilon_sweep = 2e-2, 1e-2\n")
        config = parse_config(text)
        assert config.epsilon_sweep == (2e-2, 1e-2)

    def test_increasing_sweep_rejected(self):
        with pytest.raises(ConfigError,
                           match="epsilon_sweep must be strictly decreasing"):
            parse_config("experiment = pendulum\n[sweep]\n"
                         "epsilon_sweep = 1e-2, 2e-2\n")

    @pytest.mark.parametrize("sweep, value", [
        ("inf, 0.01", math.inf), ("nan, 0.01", math.nan),
        ("0.02, 0.0", 0.0), ("0.02, -0.01", -0.01),
    ], ids=["inf", "nan", "zero", "negative"])
    def test_sweep_value_not_positive_and_finite_rejected(self, sweep,
                                                          value):
        # Unchecked, an infinite epsilon reached the particle's averaging
        # check as a total fiber inertia of nan.
        with pytest.raises(ConfigError) as excinfo:
            parse_config("experiment = particle\n[sweep]\n"
                         f"epsilon_sweep = {sweep}\n")
        assert str(excinfo.value) == (
            "invalid config:\nline 3: epsilon must be positive and finite, "
            f"got {value!r}")

    def test_every_violation_reported_with_line_numbers(self):
        text = ("experiment = particle\n"
                "pi = 3\n"
                "[warp]\n"
                "x = 1\n"
                "[parameters]\n"
                "bogus = 1.0\n"
                "trap = 2.0\n"
                "trap = 3.0\n"
                "[sweep]\n"
                "epsilon_sweep = 1e-2, 2e-2\n"
                "horizon_factor = 99.0\n"
                "[integrator]\n"
                "method = leapfrog\n"
                "newton_tol = 0.5\n"
                "broken line\n")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        err = excinfo.value
        assert len(err.errors) == 10
        message = str(err)
        assert message.startswith("invalid config:")
        for fragment in (
                "line 2: unexpected top-level key 'pi'",
                "line 3: unknown section [warp]",
                "line 4: unknown key 'x' in section [warp]",
                "line 6: unknown parameter 'bogus'",
                "line 8: duplicate key 'trap' (first set on line 7)",
                "line 10: epsilon_sweep must be strictly decreasing",
                "line 11: horizon_factor must be a float in (0, 10]",
                "line 13: unknown method 'leapfrog'",
                "line 14: newton_tol must lie in (0, 1e-6]",
                "line 15: expected `key = value`"):
            assert fragment in message

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment 'warp'"):
            parse_config("experiment = warp\n")

    def test_missing_experiment_rejected(self):
        with pytest.raises(ConfigError, match="missing top-level"):
            parse_config("[sweep]\nepsilon_sweep = 1e-2\n")

    def test_bad_formats_rejected(self):
        with pytest.raises(ConfigError, match="nonempty subset"):
            parse_config("experiment = pendulum\n[output]\nformats = yaml\n")

    def test_full_config_round_trips(self):
        config = ExperimentConfig(
            experiment="particle",
            parameters={"trap": 1.5, "alpha": 0.6, "beta": 0.3, "mu": 1.2,
                        "x0": 0.5, "p0": 0.1},
            epsilon_sweep=(2e-2, 1e-2, 5e-3), horizon_factor=2.0,
            method="implicit_midpoint", dt_full=5e-3, dt_reduced=2e-3,
            newton_tol=1e-10, newton_max_iter=40, output_dir="results",
            formats=("json",))
        text = serialize_config(config)
        assert parse_config(text) == config
        assert serialize_config(parse_config(text)) == text

    def test_rk4_config_leaves_the_newton_keys_out(self):
        # rk4 never reads newton_tol or newton_max_iter, so they are not
        # written, and the text round-trips with their defaults.
        config = ExperimentConfig(experiment="disk", method="rk4",
                                  newton_tol=1e-10, newton_max_iter=40)
        text = serialize_config(config)
        assert "newton" not in text
        assert parse_config(text) == replace(
            config, newton_tol=IntegratorConfig.newton_tol,
            newton_max_iter=IntegratorConfig.newton_max_iter)

    def test_shipped_configs_parse(self):
        for name in ("pendulum", "disk", "particle", "euler"):
            config = parse_config(shipped_config_text(name))
            assert config.experiment == name
            assert parse_config(serialize_config(config)) == config

    def test_unknown_shipped_config(self):
        with pytest.raises(FileNotFoundError, match="no shipped config"):
            shipped_config_text("warp")

    @pytest.mark.parametrize("text, fragment", [
        ("experiment = euler\n[parameters]\nhorizon = abc\n",
         "line 3: parameter 'horizon' must be a float, got 'abc'"),
        ("experiment = disk\n[parameters]\nmass = heavy\n",
         "line 3: parameter 'mass' must be a float, got 'heavy'"),
        ("experiment = euler\n[parameters]\nxi0 = fast\n",
         "line 3: parameter 'xi0' must be a float or a comma list of floats"),
        ("experiment = custom\n[parameters]\nhorizon = 5.0\n",
         "missing parameter 'algebra_file' for experiment 'custom'"),
        ("experiment = custom\n[parameters]\nalgebra_file =\n",
         "line 3: missing parameter 'algebra_file'"),
    ], ids=["float", "float_disk", "list", "required_unset",
            "required_empty"])
    def test_parameter_checked_against_schema(self, text, fragment):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert fragment in str(excinfo.value)

    def test_list_parameter_accepts_single_float(self):
        config = parse_config(
            "experiment = custom\n[parameters]\nalgebra_file = a.alg\n"
            "inertia = 2.0\nxi0 = 0.5, 1.5\n")
        assert config.parameters["inertia"] == 2.0
        assert config.parameters["xi0"] == (0.5, 1.5)

    @pytest.mark.parametrize("raw", ["2024", "1,2", "out/run 1"])
    def test_output_dir_keeps_its_text(self, raw):
        config = parse_config(
            f"experiment = euler\n[output]\noutput_dir = {raw}\n")
        assert config.output_dir == raw
        assert parse_config(serialize_config(config)) == config

    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(EULER_FAST_CONFIG)
        assert load_config(path).experiment == "euler"


class TestOutputFiles:
    def test_empty_trajectory_writes_header_only(self, tmp_path):
        empty = Trajectory(times=np.zeros(0), values=np.zeros((0, 2)),
                           state_labels=("a", "b"), kind="generic",
                           dim_base=1)
        path = tmp_path / "empty.csv"
        emit_csv(empty, path)
        assert path.read_text() == "t,a,b\n"

    @pytest.mark.parametrize("logs, header", [
        ((), "t,a,b"),
        (("energy",), "t,a,b,energy"),
        (("momentum",), "t,a,b,momentum"),
        (("phi_dot", "momentum", "energy"), "t,a,b,energy,momentum"),
    ], ids=["none", "energy", "momentum", "all"])
    def test_header_names_the_logs_the_trajectory_has(self, tmp_path, logs,
                                                      header):
        # No log is filled in: each column is a quantity the run logged,
        # energy before momentum, and a log of another name is not
        # written.
        traj = replace(small_trajectory(), invariant_log={
            name: np.array([0.25, 0.125]) for name in logs})
        emit_csv(traj, tmp_path / "traj.csv", twin=tmp_path / "traj.json")
        assert (tmp_path / "traj.csv").read_text().split("\n")[0] == header
        doc = json.loads((tmp_path / "traj.json").read_text())
        assert doc["column_order"] == header.split(",")

    def test_sweep_files_write_gamma_once(self, tmp_path):
        # gamma is each full run's last state column; it is not written
        # again as a momentum log. The averaged run logs mu as momentum.
        run_experiment(parse_config(
            PARTICLE_SWEEP_TEMPLATE.format(sweep="0.02, 0.01")),
            base_dir=tmp_path)
        headers = {path.name: path.read_text().split("\n")[0]
                   for path in (tmp_path / "out").glob("*.csv")}
        assert headers == {"full_eps0.02.csv": "t,q1,p1,phi,gamma,energy",
                           "full_eps0.01.csv": "t,q1,p1,phi,gamma,energy",
                           "reduced.csv": "t,Q1,P1,energy,momentum"}

    def test_two_step_trajectory_layout(self, tmp_path):
        path = tmp_path / "small.csv"
        emit_csv(small_trajectory(), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "t,a,b,energy,momentum"
        assert lines[2] == ",".join(
            map(repr, (0.5, 3.0, 4.0, 0.125, 1.0)))

    def test_csv_round_trip_is_bit_exact(self, tmp_path):
        system = EulerSystem(algebra=so3(), inertia=np.diag([1.0, 2.0, 3.0]))
        traj = integrate_euler(
            system, np.array([0.1, 1.0, 0.1]), 2.0,
            IntegratorConfig(method="implicit_midpoint", dt=1e-2))
        path = tmp_path / "euler.csv"
        emit_csv(traj, path)
        cols = read_csv(path)
        assert np.array_equal(cols["t"], traj.times)
        for j, label in enumerate(traj.state_labels):
            assert np.array_equal(cols[label], traj.values[:, j])
        assert np.array_equal(cols["energy"], traj.invariant_log["energy"])
        assert np.array_equal(cols["momentum"],
                              traj.invariant_log["momentum"])

    def test_json_mirror(self, tmp_path):
        path = tmp_path / "small.json"
        emit_json(small_trajectory(), path, metadata={"note": "check"})
        doc = json.loads(path.read_text())
        assert doc["column_order"] == ["t", "a", "b", "energy", "momentum"]
        assert doc["columns"]["b"] == [2.0, 4.0]
        assert doc["kind"] == "generic"
        assert doc["metadata"] == {"note": "check"}


class TestBlockedEmission:
    """The block writers against the one-shot writers they replaced."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_bytes_equal_the_one_shot_writers(self, tmp_path, kind, n):
        traj = oracle_trajectory(kind, n)
        emit_csv(traj, tmp_path / "block.csv")
        reference_emit_csv(traj, tmp_path / "ref.csv")
        assert ((tmp_path / "block.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())
        emit_json(traj, tmp_path / "block.json", NESTED_METADATA)
        reference_emit_json(traj, tmp_path / "ref.json", NESTED_METADATA)
        assert ((tmp_path / "block.json").read_bytes()
                == (tmp_path / "ref.json").read_bytes())

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_one_call_writes_both_files_from_one_text(self, tmp_path, kind,
                                                      n):
        traj = oracle_trajectory(kind, n)
        csv, twin = tmp_path / "traj.csv", tmp_path / "traj.json"
        emit_csv(traj, csv, twin=twin, metadata=NESTED_METADATA)
        reference_emit_csv(traj, tmp_path / "ref.csv")
        reference_emit_json(traj, tmp_path / "ref.json", NESTED_METADATA)
        assert csv.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert twin.read_bytes() == (tmp_path / "ref.json").read_bytes()
        # Each CSV field is the JSON number token of the same value.
        header, *lines = csv.read_text().splitlines()
        rows = [line.split(",") for line in lines]
        fields = {name: [row[i] for row in rows]
                  for i, name in enumerate(header.split(","))}
        with open(twin) as fh:
            doc = json.load(fh, parse_float=str, parse_constant=str)
        json_name = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
        assert list(doc["columns"]) == sorted(fields)
        for name, texts in fields.items():
            assert doc["columns"][name] == [json_name.get(text, text)
                                            for text in texts], name
        # Both files read back bit for bit.
        want = oracle_columns(traj)
        got_csv = read_csv(csv)
        with open(twin) as fh:
            got_json = json.load(fh)["columns"]
        assert list(got_csv) == list(want) and sorted(got_json) == sorted(
            want)
        for name, column in want.items():
            assert got_csv[name].tobytes() == column.tobytes(), name
            assert (np.array(got_json[name], dtype=float).tobytes()
                    == column.tobytes()), name
        assert sorted(os.listdir(tmp_path)) == [
            "ref.csv", "ref.json", "traj.csv", "traj.json"]

    def test_json_without_metadata(self, tmp_path):
        traj = oracle_trajectory("full", BLOCK + 1)
        emit_json(traj, tmp_path / "block.json")
        reference_emit_json(traj, tmp_path / "ref.json")
        assert ((tmp_path / "block.json").read_bytes()
                == (tmp_path / "ref.json").read_bytes())

    def test_log_of_another_length(self, tmp_path):
        # Every writer rejects a shorter or a longer log before a file is
        # opened; the call that writes both files leaves neither, and no
        # spool.
        traj = oracle_trajectory("full", BLOCK + 1)
        energy = traj.invariant_log["energy"]
        for log in (energy[:-1], np.append(energy, 0.0)):
            traj.invariant_log["energy"] = log
            for writer in (emit_csv, reference_emit_csv):
                with pytest.raises(ValueError):
                    writer(traj, tmp_path / "traj.csv")
                assert not (tmp_path / "traj.csv").exists()
            with pytest.raises(ValueError, match="'energy'"):
                emit_json(traj, tmp_path / "traj.json")
            assert not (tmp_path / "traj.json").exists()
            with pytest.raises(ValueError, match="'energy'"):
                emit_csv(traj, tmp_path / "traj.csv",
                         twin=tmp_path / "traj.json",
                         metadata=NESTED_METADATA)
            assert os.listdir(tmp_path) == []

    def test_unserializable_metadata_leaves_no_file(self, tmp_path):
        # json.dumps cannot encode an object (TypeError) or a dict that
        # holds itself (ValueError).
        circular = {}
        circular["self"] = circular
        path, csv = tmp_path / "traj.json", tmp_path / "traj.csv"
        for metadata, error in (({"x": object()}, TypeError),
                                (circular, ValueError)):
            with pytest.raises(error):
                emit_json(small_trajectory(), path, metadata=metadata)
            assert not path.exists()
            with pytest.raises(error):
                emit_csv(small_trajectory(), csv, twin=path,
                         metadata=metadata)
            assert os.listdir(tmp_path) == []

    def test_a_failed_twin_leaves_no_spool(self, tmp_path):
        # The twin's path is a directory, so its open fails after the
        # CSV is written: the CSV stays, and nothing else is left.
        (tmp_path / "traj.json").mkdir()
        with pytest.raises(IsADirectoryError):
            emit_csv(oracle_trajectory("full", BLOCK + 1),
                     tmp_path / "traj.csv", twin=tmp_path / "traj.json")
        assert sorted(os.listdir(tmp_path)) == ["traj.csv", "traj.json"]
        assert os.listdir(tmp_path / "traj.json") == []

    def test_a_failed_json_leaves_no_spool(self, tmp_path):
        # emit_json spools too: its path is a directory, so its open
        # fails after the spool is made, and nothing is left.
        (tmp_path / "traj.json").mkdir()
        with pytest.raises(IsADirectoryError):
            emit_json(oracle_trajectory("full", BLOCK + 1),
                      tmp_path / "traj.json", NESTED_METADATA)
        assert os.listdir(tmp_path) == ["traj.json"]
        assert os.listdir(tmp_path / "traj.json") == []

    def test_emission_memory_beyond_the_trajectory_is_one_block(
            self, tmp_path):
        def emission_peak(traj: Trajectory) -> int:
            tracemalloc.start()
            try:
                emit_csv(traj, os.devnull)
                peaks = [tracemalloc.get_traced_memory()[1]]
                tracemalloc.reset_peak()
                emit_json(traj, os.devnull, NESTED_METADATA)
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                emit_csv(traj, tmp_path / "traj.csv",
                         twin=tmp_path / "traj.json",
                         metadata=NESTED_METADATA)
                return max(*peaks, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        def block_text(traj: Trajectory) -> int:
            """The most memory one block's repr texts take, a list of
            them per output column, over the blocks of traj."""
            columns = oracle_columns(traj).values()
            sizes = []
            tracemalloc.start()
            try:
                for rows in integrators._row_blocks(len(traj)):
                    base = tracemalloc.get_traced_memory()[0]
                    texts = [list(map(repr, column[rows].tolist()))
                             for column in columns]
                    sizes.append(tracemalloc.get_traced_memory()[0] - base)
                    del texts
            finally:
                tracemalloc.stop()
            return max(sizes)

        def oracle(n: int) -> Trajectory:
            return oracle_trajectory("generic", n)

        emission_peak(oracle(BLOCK))  # first-call allocations
        small, large = emission_peak(oracle(20_000)), emission_peak(
            oracle(200_000))
        assert large - small < 2 ** 20, (small, large)
        # The growth above cannot see a constant number of extra blocks,
        # so the peak is also bounded by the texts of two blocks, T each.
        # A block of k columns and B rows holds B k texts of c characters
        # at about 57 + c bytes each (object and list slot): T = B k
        # (57 + c). Writing its CSV joins B row strings, 57 + k (c + 1)
        # bytes each, into the block's text, B k (c + 1), which is then
        # encoded, as much again: at most B (57 + 2 k (c + 1)) beside T.
        # For the six output columns of the full kind, k = 6 and c about
        # 20, that is 0.65 T, and the JSON spool's index and the file
        # buffers add a few KiB: about 1.7 T in all. A writer that holds
        # one block's texts while it makes the next holds 2 T.
        traj = oracle_trajectory("full", 20_000)
        peak, block = emission_peak(traj), block_text(traj)
        assert peak < 2 * block, (peak, block)

    def test_readme_quotes_the_shipped_pendulum_config(self):
        readme = (Path(__file__).resolve().parents[1]
                  / "README.md").read_text()
        head = "`src/fastslow/configs/pendulum.cfg`:\n\n```ini\n"
        start = readme.index(head) + len(head)
        assert (readme[start:readme.index("```", start)]
                == shipped_config_text("pendulum"))


class TestLineRead:
    """read_csv against the whole-file reader it replaced."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [0, 1, BLOCK + 1])
    def test_floats_equal_the_whole_file_reader(self, tmp_path, kind, n):
        path = tmp_path / "traj.csv"
        emit_csv(oracle_trajectory(kind, n), path)
        got, want = read_csv(path), reference_read_csv(path)
        assert list(got) == list(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("row", ["4,5", "4,5,6,7"],
                             ids=["short", "long"])
    def test_ragged_row_names_its_line(self, tmp_path, row):
        path = tmp_path / "ragged.csv"
        path.write_text(f"t,a,b\n1,2,3\n{row}\n7,8,9\n")
        with pytest.raises(ValueError, match="line 3 has"):
            read_csv(path)

    @pytest.mark.parametrize("text", ["", "\n"], ids=["empty", "blank"])
    def test_a_file_without_a_header_names_its_path(self, tmp_path, text):
        # A truncated output reads as no columns, not as a column "".
        path = tmp_path / "truncated.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="truncated.csv: no header"):
            read_csv(path)

    def test_read_memory_beyond_the_floats_is_bounded(self, tmp_path):
        def read_peak(n: int) -> tuple[int, int]:
            path = tmp_path / f"{n}.csv"
            emit_csv(oracle_trajectory("generic", n), path)
            tracemalloc.start()
            try:
                width = len(read_csv(path))
                return tracemalloc.get_traced_memory()[1], width
            finally:
                tracemalloc.stop()

        read_peak(BLOCK)  # first-call allocations
        (small, width), (large, _) = read_peak(20_000), read_peak(200_000)
        # The floats read take 8 bytes each; what the reader holds beside
        # them may grow by less than 1 MiB. The whole-file reader's peak
        # grows by 11 times the floats.
        floats = 8 * width * (200_000 - 20_000)
        assert large - small < floats + 2 ** 20, (small, large, floats)


class TestRunExperiment:
    def test_shipped_euler_config_passes(self, tmp_path):
        config = parse_config(shipped_config_text("euler"))
        report = run_experiment(config, base_dir=tmp_path)
        assert report.overall
        assert {r.name for r in report.records} == {
            "jacobiator_max", "energy_drift", "casimir_drift",
            "shift_equivalence_sup"}
        out = tmp_path / config.output_dir
        assert (out / "euler.csv").exists()
        assert (out / "euler.json").exists()
        doc = json.loads((out / "report.json").read_text())
        assert doc["overall"] is True
        assert len(doc["records"]) == 4

    def test_runs_are_byte_deterministic(self, tmp_path):
        config = parse_config(EULER_FAST_CONFIG)
        outputs = []
        for sub in ("first", "second"):
            base = tmp_path / sub
            base.mkdir()
            run_experiment(config, base_dir=base)
            outputs.append((
                (base / "out" / "euler.csv").read_bytes(),
                (base / "out" / "report.json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_one_format_alone_writes_the_bytes_of_both(self, tmp_path):
        # A config of one format writes only that file, with the bytes
        # the default (both formats, one call) gives it.
        config = parse_config(EULER_FAST_CONFIG)
        files = {}
        for formats in (("csv", "json"), ("csv",), ("json",)):
            base = tmp_path / "_".join(formats)
            base.mkdir()
            run_experiment(replace(config, formats=formats), base_dir=base)
            files[formats] = {path.name: path.read_bytes()
                              for path in (base / "out").iterdir()}
        both = files[("csv", "json")]
        assert sorted(both) == ["euler.csv", "euler.json", "report.json"]
        assert sorted(files[("csv",)]) == ["euler.csv", "report.json"]
        assert files[("csv",)]["euler.csv"] == both["euler.csv"]
        # The JSON's metadata holds the config, whose formats differ.
        assert sorted(files[("json",)]) == ["euler.json", "report.json"]
        assert files[("json",)]["euler.json"].replace(
            b"formats = json", b"formats = csv, json") == both["euler.json"]

    def test_custom_algebra_file(self, tmp_path):
        (tmp_path / "my_algebra.alg").write_text(SO3_FILE_TEXT)
        config = parse_config(
            "experiment = custom\n"
            "[parameters]\n"
            "algebra_file = my_algebra.alg\n"
            "inertia = 1.0, 2.0, 3.0\n"
            "xi0 = 0.1, 1.0, 0.1\n"
            "horizon = 5.0\n")
        report = run_experiment(config, base_dir=tmp_path)
        assert report.overall
        doc = json.loads((tmp_path / "out" / "euler.json").read_text())
        assert doc["metadata"]["algebra"] == "my_algebra"

    def test_shift_equivalence_compares_the_runs_whole_steps(
            self, tmp_path, monkeypatch):
        # t = 10 is off the grid of dt = 0.003: the window is the run's
        # first 3333 steps, which the extension flow takes at the same
        # times, and the shifted Euler flow is integrated once.
        runs = {"integrate_euler": [], "integrate_autonomous": []}

        def spy(name):
            original = getattr(experiments, name)

            def run(*args, **kwargs):
                runs[name].append(original(*args, **kwargs))
                return runs[name][-1]
            monkeypatch.setattr(experiments, name, run)

        spy("integrate_euler")
        spy("integrate_autonomous")
        config = parse_config(EULER_FAST_CONFIG.replace(
            "horizon = 5.0",
            "horizon = 20.0\nshift = 0.3, -0.2, 0.5") + (
            "\n[integrator]\ndt_reduced = 0.003\n"))
        _, records = experiments.TABLE["euler"].run(config, tmp_path)
        [euler], [extension] = runs["integrate_euler"], runs[
            "integrate_autonomous"]
        assert len(euler) == 6668
        assert len(extension) == 3334
        assert np.array_equal(extension.times, euler.times[:3334])
        check = next(r for r in records if r.name == "shift_equivalence_sup")
        assert check.passed

    def test_shift_equivalence_catches_a_sign_flipped_cocycle(
            self, tmp_path, monkeypatch):
        # With a nonzero shift the extension flow sees a nonzero cocycle,
        # so a cocycle of the wrong sign must fail the two-path check.
        config = parse_config(EULER_FAST_CONFIG.replace(
            "horizon = 5.0", "horizon = 5.0\nshift = 0.2, -0.4, 0.5"))
        run = experiments.TABLE["euler"].run

        def equivalence(records):
            return next(r for r in records
                        if r.name == "shift_equivalence_sup")

        assert equivalence(run(config, tmp_path)[1]).passed
        genuine = experiments.shift_cocycle
        monkeypatch.setattr(experiments, "shift_cocycle", lambda alg, L: (
            Cocycle(sigma=-genuine(alg, L).sigma)))
        flipped = equivalence(run(config, tmp_path)[1])
        assert not flipped.passed
        assert flipped.observed > 1e-3

    def test_sweep_ratio_is_the_independent_runs_error_ratio(self, tmp_path):
        config = parse_config(
            PARTICLE_SWEEP_TEMPLATE.format(sweep="0.02, 0.01"))
        # The halving ratio is the first epsilon's sup error over the
        # second's, each full run compared with the one averaged run,
        # bit for bit.
        cfg_full, cfg_reduced = experiments.integrator_configs(config)
        reduced = integrators.integrate_reduced_canonical(
            particle_systems(particle_potential_1d(), 0.02, 1.0)[1],
            PhaseStateReduced(Q=np.array([0.8]), P=np.array([0.3])),
            config.horizon_factor, cfg_reduced)
        errors = [integrators.closeness_report(integrators.integrate_full(
            particle_systems(particle_potential_1d(), eps, 1.0)[0],
            PhaseStateFull(q=np.array([0.8]), p=np.array([0.3]), phi=0.0,
                           gamma=1.0),
            config.horizon_factor / eps, cfg_full), reduced).sup_error_total
            for eps in (0.02, 0.01)]
        report = run_experiment(config, base_dir=tmp_path)
        assert report.overall
        assert report.records[0].name == "closeness_ratio_0.02_to_0.01_lower"
        assert report.records[0].observed == errors[0] / errors[1]

    def test_sweep_runs_each_full_run_in_this_process(self, monkeypatch):
        # FASTSLOW_THREADS is not read: whatever it says, each full run is
        # a call in this process, in sweep order.
        monkeypatch.setenv("FASTSLOW_THREADS", "2")
        calls = []
        original = experiments.integrate_full

        def recorded(system, *args, **kwargs):
            calls.append((os.getpid(), system.epsilon))
            return original(system, *args, **kwargs)

        monkeypatch.setattr(experiments, "integrate_full", recorded)
        config = parse_config(
            PARTICLE_SWEEP_TEMPLATE.format(sweep="0.04, 0.02, 0.01"))
        experiments.TABLE["particle"].run(config, Path.cwd())
        assert calls == [(os.getpid(), eps) for eps in (0.04, 0.02, 0.01)]


class TestCommandLine:
    def test_run_exit_zero_on_pass(self, tmp_path, capsys):
        path = tmp_path / "euler.cfg"
        path.write_text(EULER_FAST_CONFIG)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert out.strip().endswith("overall: PASS")

    def test_run_exit_one_on_failed_check(self, tmp_path, capsys):
        # A near-flat sweep cannot show the halving ratio: the error
        # shrinks by about 0.04/0.036, far below the 1.5 window floor.
        path = tmp_path / "flat.cfg"
        path.write_text(
            PARTICLE_SWEEP_TEMPLATE.format(sweep="0.04, 0.036"))
        assert main(["run", str(path)]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert out.strip().endswith("overall: FAIL")

    def test_run_exit_two_on_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("experiment = warp\n")
        assert main(["run", str(path)]) == 2
        assert "invalid config" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "1e400", "nan"])
    def test_run_exit_two_on_non_finite_newton_max_iter(self, tmp_path,
                                                        capsys, value):
        path = tmp_path / "bad.cfg"
        path.write_text("experiment = euler\n[integrator]\n"
                        f"newton_max_iter = {value}\n")
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == (
            "invalid config:\n"
            "line 3: newton_max_iter must be a positive integer\n")

    @pytest.mark.parametrize("key", ["dt_full", "dt_reduced"])
    @pytest.mark.parametrize("value", ["inf", "1e400", "nan"])
    def test_run_exit_two_on_non_finite_step(self, tmp_path, capsys, key,
                                             value):
        # An infinite step would take no step at all and pass every check.
        # Only a sweep reads dt_full.
        experiment = "pendulum" if key == "dt_full" else "euler"
        path = tmp_path / "bad.cfg"
        path.write_text(f"experiment = {experiment}\n[integrator]\n"
                        f"{key} = {value}\n")
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == (
            "invalid config:\n"
            f"line 3: {key} must be a positive finite float\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment", ["disk", "euler", "custom"])
    @pytest.mark.parametrize("section, line", [
        ("integrator", "dt_full = 7.0"), ("sweep", "epsilon_sweep = 0.5"),
        ("sweep", "horizon_factor = 3.0"),
    ], ids=["dt_full", "epsilon_sweep", "horizon_factor"])
    def test_run_exit_two_on_a_sweep_key_without_a_sweep(
            self, tmp_path, capsys, experiment, section, line):
        # Only pendulum and particle sweep; another experiment would
        # never read the value and pass every check.
        text = f"experiment = {experiment}\n"
        if experiment == "custom":
            text += "[parameters]\nalgebra_file = so3.alg\n"
        text += f"[{section}]\n{line}\n"
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        key = line.split(" = ")[0]
        assert capsys.readouterr().err == (
            f"invalid config:\nline {len(text.splitlines())}: {key} is read "
            f"only by an epsilon sweep, and experiment {experiment!r} runs "
            "none\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment", ["pendulum", "disk", "euler"])
    @pytest.mark.parametrize("line", ["newton_tol = 1e-7",
                                      "newton_max_iter = 1"],
                             ids=["newton_tol", "newton_max_iter"])
    def test_run_exit_two_on_a_newton_key_under_rk4(
            self, tmp_path, capsys, experiment, line):
        # rk4 makes no implicit midpoint solve; a run would never read
        # the value and pass every check.
        text = (f"experiment = {experiment}\n[integrator]\n{line}\n"
                "method = rk4\n")
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        key = line.split(" = ")[0]
        assert capsys.readouterr().err == (
            f"invalid config:\nline 3: {key} is read only by the implicit "
            "midpoint solve, and method 'rk4' makes none\n")
        assert not (tmp_path / "out").exists()

    def test_newton_keys_are_read_under_the_midpoint_rule(self):
        config = parse_config("experiment = euler\n[integrator]\n"
                              "method = implicit_midpoint\n"
                              "newton_tol = 1e-7\nnewton_max_iter = 3\n")
        assert (config.newton_tol, config.newton_max_iter) == (1e-7, 3)

    @pytest.mark.parametrize("experiment, line", [
        ("euler", "horizon = 100.0"), ("disk", "horizon = 10.0"),
    ], ids=["euler", "disk"])
    @pytest.mark.parametrize("value", ["inf", "1e400"])
    def test_run_exit_two_on_non_finite_horizon(self, tmp_path, capsys,
                                                experiment, line, value):
        text = shipped_config_text(experiment)
        assert line in text
        path = tmp_path / "run.cfg"
        path.write_text(text.replace(line, f"horizon = {value}"))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"experiment {experiment} failed: "
                                   "horizon must be positive and finite")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("line, bad, message", [
        ("inertia = 1.0, 2.0, 3.0", "inertia = inf, 2.0, 3.0",
         "inertia must be finite"),
        ("inertia = 1.0, 2.0, 3.0", "inertia = nan, 2.0, 3.0",
         "inertia must be finite"),
        ("shift = 0.0, 0.0, 0.0", "shift = 0.2, inf, 0.5",
         "shift must be finite"),
        ("xi0 = 0.1, 1.0, 0.1", "xi0 = 0.1, nan, 0.1",
         "xi0 must be finite (in the Euler integration)"),
        ("inertia = 1.0, 2.0, 3.0", "inertia = 1e-310, 2.0, 3.0",
         "inertia is too near singular: its inverse is not finite"),
    ], ids=["inertia_inf", "inertia_nan", "shift_inf", "xi0_nan",
            "inertia_near_singular"])
    def test_run_exit_two_on_non_finite_euler_data(self, tmp_path, capsys,
                                                   line, bad, message):
        # Unchecked, an infinite moment of inertia would pass every check,
        # and a NaN one, or one whose inverse overflows, fail only at the
        # first step's residual.
        text = shipped_config_text("euler")
        assert line in text
        path = tmp_path / "run.cfg"
        path.write_text(text.replace(line, bad))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"experiment euler failed: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, line", [
        ("euler", "horizon = 100.0"), ("disk", "horizon = 10.0"),
    ], ids=["euler", "disk"])
    def test_run_exit_two_on_horizon_too_long_to_store(self, tmp_path,
                                                       capsys, experiment,
                                                       line):
        # 1e300 / dt steps need more than 2**63 bytes of nodes, so numpy
        # refuses them before anything is allocated or integrated.
        text = shipped_config_text(experiment)
        assert line in text
        path = tmp_path / "run.cfg"
        path.write_text(text.replace(line, "horizon = 1e300"))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"experiment {experiment} failed: "
                                   "horizon 1e+300 at dt ")
        assert "steps, too many to store" in lines[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, line, value, suffix", [
        ("euler", "horizon = 100.0", "1e-13", " (in the Euler integration)"),
        ("disk", "horizon = 10.0", "5e-13",
         " (in the Lagrangian integration)"),
    ], ids=["euler", "disk"])
    def test_run_exit_two_on_horizon_shorter_than_a_step(
            self, tmp_path, capsys, experiment, line, value, suffix):
        # The run would take no step, and every check would pass on its
        # one-node trajectories.
        text = shipped_config_text(experiment)
        assert line in text
        path = tmp_path / "run.cfg"
        path.write_text(text.replace(line, f"horizon = {value}"))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"experiment {experiment} failed: "
                                   f"horizon {value} at dt ")
        assert lines[0].endswith(f" takes no step{suffix}")
        assert not (tmp_path / "out").exists()

    def test_run_exit_two_on_a_zero_sup_error(self, tmp_path, capsys):
        # A particle at rest in an unforced trap stays at rest in both
        # flows, so every sup error is 0 and no ratio is defined.
        text = shipped_config_text("particle")
        for old, new in (("alpha = 0.7", "alpha = 0.0"),
                         ("beta = 0.4", "beta = 0.0"),
                         ("x0 = 0.8", "x0 = 0.0"), ("p0 = 0.3", "p0 = 0.0"),
                         ("epsilon_sweep = 0.01, 0.005, 0.0025",
                          "epsilon_sweep = 0.04, 0.02")):
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines == ["experiment particle failed: sup error 0 at epsilon "
                         "0.02: its ratio to epsilon 0.04 is undefined"]
        assert not (tmp_path / "out").exists()

    def test_sweep_error_names_the_epsilon_and_the_integration(
            self, tmp_path, capsys):
        # The full run at eps 0.01 gets the fast-time horizon
        # 1e-15 / 0.01, too short for a step of dt_full.
        text = shipped_config_text("particle")
        assert "horizon_factor = 1.0" in text
        dt_full = parse_config(text).dt_full
        path = tmp_path / "run.cfg"
        path.write_text(text.replace("horizon_factor = 1.0",
                                     "horizon_factor = 1e-15"))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"experiment particle failed: horizon 1e-13 at dt {dt_full:.6g} "
            "takes no step (in the full integration at eps=0.01)"]
        assert not (tmp_path / "out").exists()

    def test_sweep_error_keeps_its_type_and_step(self, monkeypatch):
        def fail(*args):
            raise IntegrationError("step 3 (t=0.003): injected", step=3)

        monkeypatch.setattr(experiments, "integrate_reduced_canonical", fail)
        config = parse_config(
            PARTICLE_SWEEP_TEMPLATE.format(sweep="0.02, 0.01"))
        with pytest.raises(IntegrationError) as excinfo:
            experiments._averaged_run(config)
        assert excinfo.value.step == 3
        assert str(excinfo.value) == (
            "step 3 (t=0.003): injected (in the averaged integration)")

    def test_run_exit_two_on_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 2
        assert capsys.readouterr().err

    def test_run_exit_two_on_directory(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert str(tmp_path) in lines[0]

    @pytest.mark.parametrize("experiment, line, message", [
        ("disk", "q1_0 = 5.0", "outside the declared chart domain"),
        ("euler", "inertia = 1.0, -2.0, 3.0",
         "inertia is not positive definite"),
        ("disk", "surface = torus", "unknown surface 'torus'"),
        ("euler", "algebra = so4", "unknown algebra 'so4'"),
        # A name that reads as a number is still a name.
        ("disk", "surface = 3", "unknown surface '3'"),
        ("euler", "algebra = 3", "unknown algebra '3'"),
    ], ids=["disk-domain", "euler-inertia", "disk-surface", "euler-algebra",
            "disk-surface-number", "euler-algebra-number"])
    def test_run_error_names_the_experiment(self, tmp_path, capsys,
                                            experiment, line, message):
        path = tmp_path / "run.cfg"
        path.write_text(f"experiment = {experiment}\n[parameters]\n{line}\n")
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"experiment {experiment} failed: ")
        assert message in lines[0]
        assert not (tmp_path / "out").exists()

    def test_run_error_in_a_field_names_the_step(self, tmp_path, capsys):
        # The shipped disk config started near the pole and heading for it:
        # the Lagrangian run leaves the sphere's chart at step 20.
        text = shipped_config_text("disk")
        dt = parse_config(text).dt_reduced
        for old, new in (("q1_0 = 1.0471975511965976", "q1_0 = 0.1"),
                         ("u1_0 = 0.1", "u1_0 = -0.5")):
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            f"experiment disk failed: step 20 (t={20 * dt:.6g}): point [")
        assert "outside the declared chart domain" in lines[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path, error, step, message", [
        ("Lagrangian", None, 20, "point ["),
        ("magnetic-chart", DomainError, 3, "injected"),
        ("magnetic-chart", IntegrationError, 3, "injected"),
    ], ids=["lagrangian", "magnetic-value-error", "magnetic-integration"])
    def test_run_error_in_a_disk_field_names_the_path(
            self, tmp_path, capsys, monkeypatch, path, error, step, message):
        # The Lagrangian run of the config above leaves the chart; the
        # magnetic-chart field is made to fail at the first RK4 stage of
        # step 3, its 13th call, after a Lagrangian run that passes.
        text = shipped_config_text("disk").replace("horizon = 10.0",
                                                   "horizon = 0.5")
        dt = parse_config(text).dt_reduced
        if error is None:
            text = text.replace("q1_0 = 1.0471975511965976", "q1_0 = 0.1") \
                .replace("u1_0 = 0.1", "u1_0 = -0.5")
        else:
            disk_magnetic_rhs = experiments.disk_magnetic_rhs

            def failing_rhs(params, surface):
                field = disk_magnetic_rhs(params, surface)
                calls = []

                def rhs(z):
                    calls.append(z)
                    if len(calls) == 13:
                        raise error("injected")
                    return field(z)

                return rhs

            monkeypatch.setattr(experiments, "disk_magnetic_rhs",
                                failing_rhs)
        config = tmp_path / "run.cfg"
        config.write_text(text)
        assert main(["run", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"experiment disk failed: step {step} "
                                   f"(t={step * dt:.6g}): {message}")
        assert lines[0].endswith(f" (in the {path} integration)")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, sweep", [
        ("particle", "0.01"), ("pendulum", "0.01"), ("particle", ","),
    ], ids=["particle-one", "pendulum-one", "particle-empty"])
    def test_run_exit_two_on_sweep_without_a_ratio(self, tmp_path, capsys,
                                                   experiment, sweep):
        # One epsilon gives no halving ratio to check; it must not pass.
        path = tmp_path / "run.cfg"
        path.write_text(f"experiment = {experiment}\n[sweep]\n"
                        f"epsilon_sweep = {sweep}\n")
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"experiment {experiment} failed: ")
        assert "epsilon_sweep" in lines[0]
        assert not list(tmp_path.rglob("*.csv"))
        assert not (tmp_path / "out").exists()

    def test_run_custom_algebra_file_named_like_a_number(self, tmp_path,
                                                         capsys):
        (tmp_path / "2024").write_text(SO3_FILE_TEXT)
        path = tmp_path / "run.cfg"
        path.write_text("experiment = custom\n[parameters]\n"
                        "algebra_file = 2024\nhorizon = 5.0\n")
        assert main(["run", str(path)]) == 0
        assert capsys.readouterr().out.endswith("overall: PASS\n")
        doc = json.loads((tmp_path / "out" / "euler.json").read_text())
        assert doc["metadata"]["algebra"] == "2024"

    @pytest.mark.parametrize("dim", [100000, 10000000])
    def test_run_exit_two_on_unallocatable_algebra_dim(self, tmp_path, capsys,
                                                       monkeypatch, dim):
        # numpy refuses 10^21 structure constants before it allocates
        # anything; 10^15 of them fail for want of memory, which is faked
        # here, so that nothing is allocated for real.
        real_zeros = np.zeros

        def zeros(shape, *args, **kwargs):
            if shape == (100000,) * 3:
                raise MemoryError("Unable to allocate 7.11 PiB")
            return real_zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", zeros)
        (tmp_path / "big.alg").write_text(f"dim {dim}\n0 1 2 1.0\n")
        path = tmp_path / "run.cfg"
        path.write_text("experiment = custom\n[parameters]\n"
                        "algebra_file = big.alg\nhorizon = 5.0\n")
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"experiment custom failed: invalid algebra file:\nline 1: "
                f"dimension {dim} is too large: its {dim}^3 structure "
                f"constants cannot be allocated\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment", ["euler", "custom"])
    def test_run_exit_two_on_an_unallocatable_jacobi_check(
            self, tmp_path, capsys, monkeypatch, experiment):
        # The residual holds a few arrays of dim^3 floats at a time, 8 MB
        # each at dim 100. Its failure is faked here, so that nothing is
        # allocated for real; it must not escape as a MemoryError.
        def out_of_memory(c, t):
            raise MemoryError("Unable to allocate 11.9 GiB")

        (tmp_path / "so3.alg").write_text(SO3_FILE_TEXT)
        monkeypatch.setattr(lie_poisson, "_cyclic_residual", out_of_memory)
        path = tmp_path / "run.cfg"
        path.write_text(
            EULER_FAST_CONFIG if experiment == "euler" else
            "experiment = custom\n[parameters]\nalgebra_file = so3.alg\n"
            "horizon = 5.0\n")
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"experiment {experiment} failed: invalid algebra file: "
                "dimension 3 is too large: the Jacobi check of its "
                "structure constants cannot be allocated\n")
        assert not (tmp_path / "out").exists()

    def test_an_euler_run_computes_the_jacobi_residual_once(
            self, tmp_path, capsys, monkeypatch):
        # The check record reads the residual the algebra's construction
        # stored. The shift's cocycle check (t = sigma, 2-d) is not
        # counted.
        calls = []
        real = lie_poisson._cyclic_residual

        def counted(c, t):
            calls.append(t.ndim)
            return real(c, t)

        monkeypatch.setattr(lie_poisson, "_cyclic_residual", counted)
        path = tmp_path / "run.cfg"
        path.write_text(EULER_FAST_CONFIG.replace(
            "horizon = 5.0", "shift = 0.2, -0.4, 0.5\nhorizon = 5.0"))
        assert main(["run", str(path)]) == 0
        assert "jacobiator_max" in capsys.readouterr().out
        assert calls.count(3) == 1

    @pytest.mark.parametrize("experiment, line, bad, message", [
        ("disk", "radius = 1.0", "radius = -1.0",
         "sphere radius must be positive and finite, got -1.0"),
        ("disk", "radius = 1.0", "radius = 0.0",
         "sphere radius must be positive and finite, got 0.0"),
        ("disk", "radius = 1.0", "radius = nan",
         "sphere radius must be positive and finite, got nan"),
        ("pendulum", "fiber_floor = 1.0", "fiber_floor = nan",
         "fiber_floor must be finite, got nan"),
        ("pendulum", "theta0 = 2.0", "theta0 = nan",
         "theta0 must be finite, got nan"),
        ("pendulum", "p0 = 0.0", "p0 = inf", "p0 must be finite, got inf"),
        ("particle", "trap = 1.0", "trap = inf",
         "trap must be finite, got inf"),
        ("particle", "alpha = 0.7", "alpha = nan",
         "alpha must be finite, got nan"),
        ("particle", "beta = 0.4", "beta = -inf",
         "beta must be finite, got -inf"),
        ("particle", "x0 = 0.8", "x0 = nan", "x0 must be finite, got nan"),
        ("particle", "p0 = 0.3", "p0 = -inf", "p0 must be finite, got -inf"),
        ("disk", "q1_0 = 1.0471975511965976", "q1_0 = nan",
         "q1_0 must be finite, got nan"),
        ("disk", "q2_0 = 0.0", "q2_0 = inf", "q2_0 must be finite, got inf"),
        ("disk", "u1_0 = 0.1", "u1_0 = inf", "u1_0 must be finite, got inf"),
        ("disk", "u2_0 = 0.5", "u2_0 = nan", "u2_0 must be finite, got nan"),
    ], ids=["radius_negative", "radius_zero", "radius_nan",
            "fiber_floor_nan", "theta0_nan", "pendulum_p0_inf", "trap_inf",
            "alpha_nan", "beta_inf", "x0_nan", "particle_p0_inf", "q1_0_nan",
            "q2_0_inf", "u1_0_inf", "u2_0_nan"])
    def test_run_exit_two_on_a_bad_system_parameter(self, tmp_path, capsys,
                                                    experiment, line, bad,
                                                    message):
        # Unchecked, radius -1 ran as a surface of curvature -1 and failed
        # a check (exit 1); radius 0 or nan failed only at the first step.
        # A non-finite fiber_floor, trap or alpha failed the averaging
        # checks under a message that named a coefficient, u1_0 = inf as a
        # point outside the chart, and a NaN initial coordinate as
        # non-finite entries in the phase state.
        text = shipped_config_text(experiment)
        assert line in text
        path = tmp_path / "run.cfg"
        path.write_text(text.replace(line, bad))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"experiment {experiment} failed: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("module, name, fails_for, text, fragments", [
        (experiments, "integrate_euler", lambda system: True,
         EULER_FAST_CONFIG,
         ("euler", "step 7 (t=0.07)", "(in the Euler integration)")),
        # integrate_euler calls lie_poisson's own binding, so only the
        # shift-equivalence run takes this one.
        (experiments, "integrate_autonomous", lambda field: True,
         EULER_FAST_CONFIG,
         ("euler", "step 7 (t=0.07)", "(in the extension-flow integration)")),
        (experiments, "integrate_full", lambda system: system.epsilon == 0.005,
         PARTICLE_SWEEP_TEMPLATE.format(sweep="0.02, 0.005"),
         ("particle", "eps=0.005", "step 7 (t=0.07)")),
    ], ids=["euler", "euler-extension-flow", "particle"])
    def test_run_exit_two_on_integration_error(self, tmp_path, capsys,
                                               monkeypatch, module, name,
                                               fails_for, text, fragments):
        original = getattr(module, name)

        def fail(system, *args, **kwargs):
            if fails_for(system):
                raise IntegrationError("step 7 (t=0.07): Newton iterate "
                                       "became non-finite", step=7)
            return original(system, *args, **kwargs)

        monkeypatch.setattr(module, name, fail)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        for fragment in fragments:
            assert fragment in lines[0]

    @pytest.mark.parametrize("experiment, line, message", [
        ("euler", "horizon = abc",
         "line 3: parameter 'horizon' must be a float, got 'abc'"),
        ("disk", "mass = heavy",
         "line 3: parameter 'mass' must be a float, got 'heavy'"),
        ("custom", "horizon = 5.0",
         "missing parameter 'algebra_file' for experiment 'custom'"),
        # The disk has no second fundamental form, which this key fed.
        ("disk", "inertia_diametral = 0.5",
         "line 3: unknown parameter 'inertia_diametral' for experiment "
         "'disk'"),
    ], ids=["euler", "disk", "custom", "disk-inertia_diametral"])
    def test_run_exit_two_on_bad_parameter(self, tmp_path, capsys,
                                           experiment, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"experiment = {experiment}\n[parameters]\n{line}\n")
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"invalid config:\n{message}\n"
        assert not (tmp_path / "out").exists()

    def test_run_exit_two_on_unwritable_output(self, tmp_path, capsys):
        (tmp_path / "blocker").write_text("a regular file\n")
        path = tmp_path / "euler.cfg"
        path.write_text(EULER_FAST_CONFIG.replace(
            "output_dir = out", "output_dir = blocker/out"))
        assert main(["run", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "euler" in lines[0]
        assert "blocker" in lines[0]

    def test_verify_shipped_euler(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "euler"]) == 0
        assert "overall: PASS" in capsys.readouterr().out
        assert (tmp_path / "out" / "euler" / "report.json").exists()

    def test_verify_unknown_experiment(self, capsys):
        assert main(["verify", "warp"]) == 2
        assert "no shipped config" in capsys.readouterr().err

    def test_list_prints_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("pendulum", "disk", "particle", "euler", "custom"):
            assert name in out
        assert "algebra_file" in out
        assert "available experiments:" in out

    def test_closed_stdout_exits_two_without_traceback(self):
        # A pipe whose read end is closed before the child starts, so
        # the child's first write fails with EPIPE.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = Path(fastslow.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")])}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fastslow.cli", "list"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        assert b"BrokenPipeError" not in proc.stderr

