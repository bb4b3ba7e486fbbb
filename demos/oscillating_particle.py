"""Averaged dynamics of a particle in a rapidly oscillating potential.

Builds the averaged system for a planar trap with two-harmonic forcing
f(x) cos(tau) + g(x) sin(tau) and checks the averaged coefficients
against their closed forms: the oscillation stiffens the potential by
(eps^2 mu^2 / 2) <V'.V'> and induces the magnetic-like coefficient
a0 = -eps^3 <S'' V'>. A full trajectory of the weakly forced
suspension is then compared with its averaged counterpart over the
slow horizon.
"""

import numpy as np

from fastslow import (IntegratorConfig, PhaseStateFull, PhaseStateReduced,
                      averaged_hamiltonian, integrate_full,
                      integrate_reduced_canonical,
                      oscillating_particle_averaged, particle_potential_2d,
                      particle_systems)

TRAP, ALPHA, BETA = 1.0, 0.7, 0.4
W1 = np.array([1.0, 0.3])
W2 = np.array([0.7, -1.0])
EPSILON = 0.05
MU = 1.3
X = np.array([0.4, -0.3])
P = np.array([0.2, 0.1])


def closed_forms(x):
    grad_f = ALPHA * np.cos(W1 @ x) * W1
    grad_g = -BETA * np.sin(W2 @ x) * W2
    hess_f = -ALPHA * np.sin(W1 @ x) * np.outer(W1, W1)
    hess_g = -BETA * np.cos(W2 @ x) * np.outer(W2, W2)
    mean_vv = 0.5 * (grad_f @ grad_f + grad_g @ grad_g)
    mean_cross = 0.5 * (hess_f @ grad_g - hess_g @ grad_f)
    return mean_vv, mean_cross


def main():
    pot = particle_potential_2d(trap=TRAP, alpha=ALPHA, beta=BETA)
    avg = oscillating_particle_averaged(pot, EPSILON, MU)

    mean_vv, mean_cross = closed_forms(X)
    u0_closed = (0.5 * TRAP * float(X @ X)
                 + 0.5 * EPSILON ** 2 * MU ** 2 * mean_vv)
    a0_closed = -EPSILON ** 3 * mean_cross
    a0, _, U0 = avg.slow(X.tolist())[:3]
    print(f"strongly oscillating regime, averaged coefficients at x = {X}:")
    print(f"  U0 computed {U0:.12f}, closed form {u0_closed:.12f}")
    print(f"  a0 computed {np.asarray(a0)}, closed form {a0_closed}")
    print(f"  H computed {averaged_hamiltonian(avg, X, P):.12f}")
    print()

    # Weakly forced suspension: the oscillation enters at order eps, so
    # the averaged system keeps only the fiber mean of the potential.
    # Halving eps should roughly halve the trajectory gap.
    config_full = IntegratorConfig(method="implicit_midpoint", dt=1e-2)
    config_reduced = IntegratorConfig(method="implicit_midpoint", dt=1e-3)
    print("weakly forced suspension, full versus averaged over slow "
          "horizon 1:")
    previous = None
    for eps in (EPSILON, EPSILON / 2.0, EPSILON / 4.0):
        system, weak_avg = particle_systems(pot, eps, MU)
        full = integrate_full(
            system, PhaseStateFull(q=X, p=P, phi=0.0, gamma=MU), 1.0 / eps,
            config_full)
        reduced = integrate_reduced_canonical(
            weak_avg, PhaseStateReduced(Q=X, P=P), 1.0, config_reduced)
        # Both time columns are the slow time t = eps * tau. The
        # closeness estimate bounds |q - Q| + |p - P| + |gamma - mu|,
        # compared only at the full nodes that are also reduced nodes: a
        # full step is eps * 0.01 in slow time, so at eps = 0.05 every
        # other full node lies halfway between two reduced ones.
        sup = 0.0
        for i in range(len(full)):
            j = int(round(full.times[i] / config_reduced.dt))
            if abs(j * config_reduced.dt - full.times[i]) > 1e-12:
                continue
            if j >= len(reduced):
                break
            gap = (np.max(np.abs(full.values[i, :2] - reduced.values[j, :2]))
                   + np.max(np.abs(full.values[i, 2:4]
                                   - reduced.values[j, 2:4]))
                   + abs(full.values[i, 5] - MU))
            sup = max(sup, float(gap))
        ratio = "" if previous is None else f"  ratio {previous / sup:.3f}"
        print(f"  eps = {eps:7.4f}: sup distance = {sup:.4e}{ratio}")
        previous = sup


if __name__ == "__main__":
    main()
