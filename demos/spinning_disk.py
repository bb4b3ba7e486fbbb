"""A rapidly spinning disk carried over a curved surface.

Runs the shipped disk experiment, the one `fastslow verify disk` runs:
it integrates the second-order equations of a disk whose axis stays
normal to a sphere, then the reduced magnetic-chart system obtained by
averaging over the spin angle, and compares the two. The fast spin
enters the slow dynamics only through a magnetic-like force
proportional to the Gaussian curvature of the surface.
"""

from pathlib import Path

import numpy as np

from fastslow import curvature_identity_residual, sphere_surface
from fastslow.cli import parse_config, shipped_config_text
from fastslow.experiments import TABLE


def main():
    config = parse_config(shipped_config_text("disk"))
    p = config.parameters
    q0 = np.array([p["q1_0"], p["q2_0"]])
    residual = abs(curvature_identity_residual(sphere_surface(p["radius"]),
                                               q0))
    print(f"sphere of radius {p['radius']}: curvature identity residual "
          f"{residual:.2e} at the starting point")

    trajectories, records = TABLE["disk"].run(config, Path.cwd())
    lagrangian, _ = trajectories["disk_lagrangian"]
    magnetic, _ = trajectories["disk_magnetic"]

    print()
    print(f"{'t':>5}  {'q1 (full)':>11}  {'q2 (full)':>11}  "
          f"{'q1 (reduced)':>13}  {'q2 (reduced)':>13}")
    stride = len(lagrangian) // 5
    for i in range(0, len(lagrangian), stride):
        t = lagrangian.times[i]
        print(f"{t:5.1f}  {lagrangian.values[i, 0]:11.6f}  "
              f"{lagrangian.values[i, 1]:11.6f}  "
              f"{magnetic.values[i, 0]:13.6f}  "
              f"{magnetic.values[i, 1]:13.6f}")

    # The run's two-path check: the sup over every node of the position
    # gap and of the velocity gap, u against M(q)^{-1} P1.
    sup = next(record.observed for record in records
               if record.name == "magnetic_chart_two_path_sup")
    print()
    print(f"sup gap between the two descriptions over "
          f"t = {p['horizon']:.0f}: {sup:.2e}")


if __name__ == "__main__":
    main()
