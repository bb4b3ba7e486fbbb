"""Rigid-body flow with a momentum shift as a central extension.

Shifting the rigid-body momentum xi -> xi - L turns Euler's equations
into a Lie-Poisson flow for a centrally extended bracket whose cocycle
is sigma(X, Y) = -<L, [X, Y]>. The demo integrates the shifted flow
three ways (directly, through the eta = xi - L change of variables,
and through the extended Hamiltonian field) and reports the conserved
quantities.
"""

import numpy as np

from fastslow import (EulerSystem, IntegratorConfig, coadjoint_action,
                      extended_hamiltonian_field, integrate_autonomous,
                      integrate_euler, shift_cocycle, so3)

INERTIA = np.diag([1.0, 2.0, 3.0])
SHIFT = np.array([0.2, -0.4, 0.5])
XI0 = np.array([0.9, 0.3, -0.2])
HORIZON = 50.0
CONFIG = IntegratorConfig(method="implicit_midpoint", dt=1e-2)


def main():
    algebra = so3()
    cocycle = shift_cocycle(algebra, SHIFT)
    print(f"shift L = {SHIFT}")
    print("cocycle matrix sigma(e_i, e_j) = -<L, [e_i, e_j]>:")
    print(cocycle.sigma)
    print()

    system = EulerSystem(algebra=algebra, inertia=INERTIA, shift=SHIFT)
    direct = integrate_euler(system, XI0, HORIZON, CONFIG)

    def eta_field(eta):
        return -coadjoint_action(algebra,
                                 np.linalg.solve(INERTIA, eta + SHIFT), eta)

    via_eta = integrate_autonomous(
        eta_field, XI0 - SHIFT, HORIZON, CONFIG,
        state_labels=("eta1", "eta2", "eta3"), kind="euler", dim_base=3)
    via_bracket = integrate_autonomous(
        extended_hamiltonian_field(algebra, cocycle, INERTIA), XI0, HORIZON,
        CONFIG, state_labels=("xi1", "xi2", "xi3"), kind="euler", dim_base=3)

    gap_eta = float(np.max(np.abs(direct.values - SHIFT - via_eta.values)))
    gap_bracket = float(np.max(np.abs(direct.values - via_bracket.values)))
    print(f"three integrations of one flow over t = {HORIZON:.0f}:")
    print(f"  shifted Euler vs eta-dynamics:      {gap_eta:.2e}")
    print(f"  shifted Euler vs extended bracket:  {gap_bracket:.2e}")
    print()

    energy = direct.invariant_log["energy"]
    casimir = direct.invariant_log["casimir_shifted"]
    print("conserved along the flow:")
    print(f"  energy drift          {np.max(np.abs(energy - energy[0])):.2e}")
    print(f"  |xi - L|^2 drift      "
          f"{np.max(np.abs(casimir - casimir[0])):.2e}")


if __name__ == "__main__":
    main()
