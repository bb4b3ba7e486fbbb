"""fastslow benchmark: serial verify runs, end to end and traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload pendulum_sweep --seed 0 \
        --seconds 20 --trace 0

Each measured call is one fresh interpreter (child.py) that imports
fastslow from ./src, parses the workload's config text and calls
``run_experiment`` serially (FASTSLOW_THREADS=1, BLAS pinned to one
thread), writing its outputs under .perfbench-work/. With --trace 0 the
calls run untraced, one after another in a closed loop, until --seconds
have passed (at least one call) and the end-to-end metrics are printed;
with --trace 1 one untraced and one traced call give the per-layer
metrics. Every call is gated: see ``call_problems``. Times are reported
at the reference speed of child.SpeedGauge (raw seconds are in the
record). The last line of standard output is the result as JSON;
everything above it is the run's record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, config_text

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"

SETUP_REPEATS = 8        # set-up-only interpreters per run
RUN_DEADLINE_S = 170.0   # every child is stopped by then
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles
    gives them; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update({"FASTSLOW_THREADS": "1", "PYTHONHASHSEED": "0"})
    env.update({name: "1" for name in BLAS_VARS})
    return env


def run_child(text: str, cwd: Path, timeout: float,
              extra: list[str]) -> dict:
    """Run child.py once in ``cwd`` and return its JSON result.

    ``setup_s`` is added: the raw time from spawning the interpreter to its
    ``ready`` line, i.e. import fastslow plus parse the config.
    """
    (cwd / "config.cfg").write_text(text)
    with open(cwd / "stderr.txt", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(SRC), "config.cfg", *extra],
            cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=err, text=True)
        watchdog = threading.Timer(max(1.0, timeout), proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest, _ = proc.communicate()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    lines = (first + rest).strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    key = "setup_scale" if "--setup-only" in extra else "wall_s"
    if proc.returncode != 0 or first != "ready\n" or key not in result:
        detail = (result.get("error") or (cwd / "stderr.txt").read_text()
                  or "no output; killed at the run's deadline?")
        return {"error": f"exit code {proc.returncode}: {detail[-2000:]}"}
    result["setup_s"] = setup
    return result


def call_problems(workload: Workload, result: dict,
                  reference: dict) -> list[str]:
    """Reasons a call failed; an empty list means it passed.

    A call passes when it ran, report.overall is true, its check names and
    verdicts equal those `fastslow verify` prints for the shipped config
    (all PASS), and its output files (and, if traced, its counters) equal
    those of the first passing call of the same seed and the same code in
    this checkout.
    """
    if "error" in result:
        return [result["error"]]
    report = result["report"]
    problems = []
    if not report["overall"]:
        problems.append("report.overall is false")
    verdicts = [(r["name"], r["pass"]) for r in report["records"]]
    if verdicts != [(name, True) for name in workload.checks]:
        problems.append(f"verdicts {verdicts} differ from fastslow verify")
    if "files" in reference and result["files"] != reference["files"]:
        problems.append("output files differ from the first run of this seed")
    if ("counters" in result and "counters" in reference
            and result["counters"] != reference["counters"]):
        problems.append(f"counters {result['counters']} differ from "
                        f"{reference['counters']} of the first traced run")
    return problems


def layer_metrics(result: dict,
                  untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced call, as {name: (value, unit)}.

    Times are scaled like the call's wall time; ``untraced_wall`` is the
    scaled wall time of the untraced call of the same run. Every time is
    one that all workloads reach, so none reads 0; the time of each wrapped
    function is in the span summary of the record. Counts are exact and
    read 0 where a workload does not reach the function.
    """
    spans, counts = result["trace"]["spans"], result["trace"]["counts"]
    scale = result["scale"]

    def self_s(prefix):
        return scale * sum(r["self_s"] for name, r in spans.items()
                           if name.startswith(prefix))

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    steps = counts.get("integrators.steps", 0)
    integrate = scale * spans.get("integrators.integrate_autonomous",
                                  {}).get("s", 0.0)
    # Each converged step evaluates one more residual than it updates.
    updates = (counts.get("integrators.midpoint_residuals", 0)
               - calls("integrators.midpoint_step"))
    wall = scale * result["wall_s"]
    m = {
        "integrators.integrate_autonomous.s": (integrate, "s"),
        "integrators.us_per_step": (1e6 * integrate / steps if steps
                                    else 0.0, "us"),
        "integrators.self_s": (self_s("integrators."), "s"),
        "integrators.steps": (steps, "count"),
        "integrators.rhs_calls": (counts.get("integrators.rhs_calls", 0),
                                  "count"),
        "integrators.newton_updates_per_step": (
            updates / steps if steps else 0.0, "ratio"),
        "systems.coefficient_calls": (counts.get("systems.coefficient", 0),
                                      "count"),
    }
    for name in ("_derivatives.jacobian", "systems.disk_mass_matrix",
                 "systems.curvature_identity_residual",
                 "averaging.hamiltonian",
                 "lie_poisson.extended_hamiltonian_field"):
        m[f"{name}.calls"] = (calls(name), "count")
    m.update({
        "cli.emit_csv.s": (self_s("cli.emit_csv"), "s"),
        "cli.emit_json.s": (self_s("cli.emit_json"), "s"),
        "cli.run_experiment.self_s": (self_s("cli.run_experiment"), "s"),
        "cli.output_bytes": (sum(size for size, _ in result["files"].values()),
                             "count"),
        "trace.wall_ratio": (wall / untraced_wall if untraced_wall else 0.0,
                             "ratio"),
        # Share of the traced call's wall time spent in a layer span below
        # run_experiment, whose own self time is the rest.
        "trace.coverage": ((wall - self_s("cli.run_experiment")) / wall,
                           "ratio"),
    })
    return m


def code_digest(*roots: Path) -> str:
    """SHA-256 over the path and bytes of every file under ``roots``, byte
    code left out: the code a call's outputs and counts come from."""
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*")):
            rel = path.relative_to(root.parent)
            if (path.is_file() and "__pycache__" not in rel.parts
                    and path.suffix != ".pyc"):
                digest.update(rel.as_posix().encode() + b"\0")
                digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def reference_path(work: Path, workload: str, seed: int,
                   digest: str) -> Path:
    """Where the first passing call's output hashes and counts are kept:
    one file per workload, seed and version of the code."""
    return work / "reference" / f"{workload}-seed{seed}-{digest[:16]}.json"


def environment() -> dict:
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "child_env": {k: v for k, v in child_env().items()
                      if k in (*BLAS_VARS, "FASTSLOW_THREADS",
                               "PYTHONHASHSEED")},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "fastslow" / "cli.py").is_file():
        print(f"no fastslow sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    text = config_text(workload, SRC, args.seed)
    ref_path = reference_path(WORK, args.workload, args.seed,
                              code_digest(SRC / "fastslow", BENCH))
    ref_path.parent.mkdir(parents=True, exist_ok=True)
    reference = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
    env = environment()
    # One CPU for the harness and every child: no migrations, and off
    # CPU 0, which takes most of the interrupt load.
    env["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    env["loadavg_before"] = os.getloadavg()

    def child(extra: list[str]) -> dict:
        call_dir = Path(tempfile.mkdtemp(prefix="call-", dir=WORK))
        try:
            return run_child(text, call_dir, deadline - time.perf_counter(),
                             extra)
        finally:
            shutil.rmtree(call_dir, ignore_errors=True)

    # (raw seconds, scale) of every set-up that reached ``ready``.
    setups = []
    for _ in range(SETUP_REPEATS):
        result = child(["--setup-only"])
        if "error" not in result:
            setups.append((result["setup_s"], result["setup_scale"]))

    calls: list[dict] = []
    modes = [[], ["--trace"]] if args.trace else None
    loop_start, durations = time.perf_counter(), []
    while True:
        t0 = time.perf_counter()
        result = child(modes[len(calls)] if modes else [])
        durations.append(time.perf_counter() - t0)
        if "error" not in result:
            setups.append((result["setup_s"], result["setup_scale"]))
            result["ref_wall_s"] = result["wall_s"] * result["scale"]
            if "trace" in result:
                result["layers"] = layer_metrics(
                    result, calls[0].get("ref_wall_s", 0.0))
                result["counters"] = {k: v for k, (v, unit) in
                                      result["layers"].items()
                                      if unit == "count"}
        result["problems"] = call_problems(workload, result, reference)
        if not result["problems"]:
            reference.setdefault("files", result["files"])
            if "counters" in result:
                reference.setdefault("counters", result["counters"])
        calls.append(result)
        now = time.perf_counter()
        if modes:
            if len(calls) == len(modes):
                break
        elif (now - loop_start >= args.seconds
              or now + statistics.median(durations) > deadline):
            break

    tmp = ref_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(reference, sort_keys=True))
    os.replace(tmp, ref_path)
    env["loadavg_after"] = os.getloadavg()
    env["numpy"] = next((c["numpy"] for c in calls if "numpy" in c), None)

    failed = sum(1 for c in calls if c["problems"])
    walls = [c["ref_wall_s"] for c in calls if "ref_wall_s" in c]
    ref_setups = [raw * scale for raw, scale in setups]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env,
        "setup": {"raw_s": [raw for raw, _ in setups],
                  "scale": [scale for _, scale in setups],
                  "ref_s": ref_setups},
        "calls": [{k: c.get(k) for k in
                   ("wall_s", "scale", "ref_wall_s", "cpu_s",
                    "peak_rss_mb", "problems", "counters")}
                  | {"checks": [(r["name"], r["observed"], r["pass"])
                                for r in c.get("report", {}).get("records",
                                                                 [])]}
                  for c in calls],
        "ref_wall_s_quartiles": quartiles(walls) if walls else None,
        "run_s": time.perf_counter() - start,
    }
    metrics: dict[str, tuple[float, str]] = {}
    traced = [c for c in calls if "layers" in c]
    if args.trace:
        if traced:
            metrics = traced[0]["layers"]
            record["spans"] = traced[0]["trace"]["spans"]
    elif walls and setups:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(ref_setups), "s"),
            "peak_rss_mb": (statistics.median(
                c["peak_rss_mb"] for c in calls if "peak_rss_mb" in c), "MB"),
        }
    print(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
