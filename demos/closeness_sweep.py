"""First-order closeness of full and averaged dynamics.

Integrates the fast-oscillating system and its averaged counterpart
side by side over the slow horizon t = 1/eps, then halves eps and
repeats. The sup distance between the two trajectories should drop by
a factor close to 2 per halving, the signature of an O(eps) estimate.

Each epsilon is one integrators.closeness_case, the unit that the
epsilon sweep of `fastslow verify pendulum` and `fastslow verify
particle` runs; the ratio is the previous row's sup error over this
row's, as that sweep forms it.
"""

import numpy as np

from fastslow import (IntegratorConfig, PendulumParams, PhaseStateFull,
                      PhaseStateReduced, particle_potential_1d,
                      particle_systems, pendulum_systems)
from fastslow.integrators import closeness_case

EPSILONS = (2e-2, 1e-2, 5e-3)
CONFIG_FULL = IntegratorConfig(method="implicit_midpoint", dt=1e-2)
CONFIG_REDUCED = IntegratorConfig(method="implicit_midpoint", dt=1e-3)


def build_pendulum(eps):
    params = PendulumParams(length=1.0, gravity=1.0, amplitude=0.5, mu=3.0,
                            epsilon=eps)
    system, avg = pendulum_systems(params)
    q0, p0 = np.array([2.0]), np.array([0.0])
    return (system, avg, PhaseStateFull(q=q0, p=p0, phi=0.0, gamma=3.0),
            PhaseStateReduced(Q=q0, P=p0))


def build_particle(eps):
    system, avg = particle_systems(particle_potential_1d(), eps, 1.0)
    q0, p0 = np.array([0.8]), np.array([0.3])
    return (system, avg, PhaseStateFull(q=q0, p=p0, phi=0.0, gamma=1.0),
            PhaseStateReduced(Q=q0, P=p0))


def main():
    for label, build in (("driven pendulum", build_pendulum),
                         ("particle in an oscillating trap",
                          build_particle)):
        print(f"{label}:")
        print(f"{'epsilon':>10}  {'sup error':>12}  {'ratio':>7}")
        previous = None
        for eps in EPSILONS:
            error = closeness_case(*build(eps), 1.0, CONFIG_FULL,
                                   CONFIG_REDUCED)[2].sup_error_total
            ratio = "" if previous is None else f"{previous / error:7.3f}"
            print(f"{eps:10.1e}  {error:12.4e}  {ratio:>7}")
            previous = error
        print()


if __name__ == "__main__":
    main()
