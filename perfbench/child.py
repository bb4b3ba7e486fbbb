"""One fresh-interpreter run of a fastslow experiment, driven by run.py.

Usage: python3 child.py SRC_DIR CONFIG [--setup-only | --trace]

Reads the config text from the file CONFIG, imports ``fastslow.cli`` from
SRC_DIR, parses the config and prints ``ready``; the parent takes the time
from spawning this process to that line as set-up time. Unless
--setup-only is given it then calls ``run_experiment`` with outputs under
the working directory. The last line printed is JSON: the speed scale of
the set-up phase (see SpeedGauge) and, for a call, wall and CPU seconds of
the call, its scale, the process's peak resident set size, the verification
report, the size and SHA-256 of every output file and, with --trace, the
span summary and counters.
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

GAUGE_PERIOD_S = 0.025
GAUGE_LOOP = 60
# Seconds GAUGE_LOOP takes at the speed the benchmark reports times in.
GAUGE_REF_S = 3.0e-4


class SpeedGauge:
    """Times a fixed loop of small numpy operations every GAUGE_PERIOD_S.

    A shared machine can change speed by 1.8x within minutes with other
    tenants' load. Timing the loop during a measurement, from a timer
    signal in the measured process, gives that measurement's speed. It
    costs about 1% of the process's time. The loop mixes interpreter work
    and tiny-array calls as fastslow's integrators do.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        a = np.ones(3)
        for _ in range(GAUGE_LOOP):
            a = np.sqrt(a @ a + a * 2.0) / 2.0
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self.sample()  # the first numpy calls of a process are slow
        self.samples.clear()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)
        self.sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def take(self) -> float:
        """Scale factor from raw seconds since the last take to seconds at
        reference speed.

        Samples are evenly spaced in wall time, so the mean of their speeds
        (1 / loop time) is the mean speed over the interval.
        """
        self.sample()
        scale = GAUGE_REF_S * statistics.fmean(1.0 / t for t in self.samples)
        self.samples.clear()
        return scale


def _output_files(out_dir: Path) -> dict[str, list]:
    files = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            files[path.relative_to(out_dir).as_posix()] = [
                len(data), hashlib.sha256(data).hexdigest()]
    return files


def main(argv: list[str]) -> int:
    gauge = SpeedGauge()
    gauge.start()
    try:
        return measure(argv, gauge)
    finally:
        gauge.stop()


def measure(argv: list[str], gauge: SpeedGauge) -> int:
    src = Path(argv[0]).resolve()
    setup_only = "--setup-only" in argv
    text = Path(argv[1]).read_text()
    sys.path.insert(0, str(src))
    import fastslow.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported fastslow from {cli.__file__}, "
                           f"not from {src}")
    config = cli.parse_config(text)
    print("ready", flush=True)
    result = {"setup_scale": gauge.take()}
    if setup_only:
        print(json.dumps(result), flush=True)
        return 0

    tracer = None
    if "--trace" in argv:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)

    base = Path.cwd()
    gauge.take()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    report = cli.run_experiment(config, base_dir=base)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    result["scale"] = gauge.take()
    gauge.stop()

    result.update({
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "report": report.to_dict(),
        "files": _output_files(base / config.output_dir),
        "numpy": np.__version__,
    })
    if tracer is not None:
        result["trace"] = {"spans": tracer.summary(),
                           "counts": dict(tracer.counts)}
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:  # report any failure of the program to the parent
        print(json.dumps({"error": traceback.format_exc()}), flush=True)
        sys.exit(1)
