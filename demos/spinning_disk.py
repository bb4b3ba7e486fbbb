"""A rapidly spinning disk carried over a curved surface.

Integrates the second-order equations of a disk whose axis stays
normal to a sphere, then integrates the reduced magnetic-chart system
obtained by averaging over the spin angle, and compares the two. The
fast spin enters the slow dynamics only through a magnetic-like force
proportional to the Gaussian curvature of the surface.
"""

import numpy as np

from fastslow import (DiskParams, IntegratorConfig,
                      curvature_identity_residual, disk_magnetic_rhs,
                      disk_momentum, disk_velocity, integrate_autonomous,
                      sphere_surface, spinning_disk_rhs)

RADIUS = 1.0
PARAMS = DiskParams(mass=1.0, inertia_axial=1.0, inertia_diametral=0.5,
                    omega_axial=2.0)
Q0 = np.array([np.pi / 3.0, 0.0])
U0 = np.array([0.1, 0.5])
HORIZON = 10.0
CONFIG = IntegratorConfig(method="rk4", dt=1e-3)


def main():
    surface = sphere_surface(RADIUS)
    residual = abs(curvature_identity_residual(surface, Q0))
    print(f"sphere of radius {RADIUS}: curvature identity residual "
          f"{residual:.2e} at the starting point")

    rhs = spinning_disk_rhs(PARAMS, surface)
    lagrangian = integrate_autonomous(
        rhs, np.concatenate([Q0, U0]), HORIZON, CONFIG,
        state_labels=("q1", "q2", "u1", "u2"), kind="disk_lagrangian",
        dim_base=2)

    p1 = disk_momentum(PARAMS, surface, Q0, U0)
    magnetic = integrate_autonomous(
        disk_magnetic_rhs(PARAMS, surface), np.concatenate([Q0, p1]),
        HORIZON, CONFIG, state_labels=("Q1", "Q2", "P1_1", "P1_2"),
        kind="reduced_magnetic", dim_base=2, chart="magnetic")

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

    sup = 0.0
    for i in range(len(lagrangian)):
        u_mag = disk_velocity(PARAMS, surface, magnetic.values[i, :2],
                              magnetic.values[i, 2:])
        sup = max(sup,
                  float(np.max(np.abs(lagrangian.values[i, :2]
                                      - magnetic.values[i, :2]))),
                  float(np.max(np.abs(lagrangian.values[i, 2:] - u_mag))))
    print()
    print(f"sup gap between the two descriptions over t = {HORIZON:.0f}: "
          f"{sup:.2e}")


if __name__ == "__main__":
    main()
