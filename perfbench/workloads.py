"""The benchmark's workloads and the seeded config text each one runs.

Seed 0 is the shipped config byte for byte. Any other seed moves only the
initial data, each value by a uniform offset of at most the workload's
half-width for that key; the program receives only the generated text.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    experiment: str
    # Check names that `fastslow verify <experiment>` prints, in order;
    # on the shipped config every one passes.
    checks: tuple[str, ...]
    # Initial-data keys of [parameters] and the half-width of their box.
    jitter: tuple[tuple[str, float], ...]


WORKLOADS = {
    "pendulum_sweep": Workload(
        "pendulum",
        ("closeness_ratio_0.01_to_0.005_lower",
         "closeness_ratio_0.01_to_0.005_upper",
         "closeness_ratio_0.005_to_0.0025_lower",
         "closeness_ratio_0.005_to_0.0025_upper"),
        (("theta0", 0.05), ("p0", 0.05))),
    "disk_two_path": Workload(
        "disk",
        ("curvature_identity_max_residual", "magnetic_chart_two_path_sup"),
        (("u1_0", 0.02), ("u2_0", 0.05))),
    "euler_shifted": Workload(
        "euler",
        ("jacobiator_max", "energy_drift", "casimir_drift",
         "shift_equivalence_sup"),
        (("xi0", 0.02),)),
}


def shipped_text(src: Path, experiment: str) -> str:
    """The shipped config, read where fastslow.cli.shipped_config_text
    reads it, so that the benchmark's own process never imports the
    program."""
    return (src / "fastslow" / "configs" / f"{experiment}.cfg").read_text()


def config_text(workload: Workload, src: Path, seed: int) -> str:
    """Config text for ``seed``: the shipped text, initial data jittered."""
    text = shipped_text(src, workload.experiment)
    if seed == 0:
        return text
    rng = random.Random(seed)
    for key, width in workload.jitter:
        pattern = re.compile(rf"^{re.escape(key)}\s*=\s*(.+)$", re.MULTILINE)
        match = pattern.search(text)
        if match is None:
            raise ValueError(f"shipped {workload.experiment} config has no "
                             f"{key!r} line")
        values = [float(v) + rng.uniform(-width, width)
                  for v in match.group(1).split(",")]
        line = f"{key} = " + ", ".join(repr(v) for v in values)
        text = text[:match.start()] + line + text[match.end():]
    return text
