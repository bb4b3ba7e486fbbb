"""Averaging toolkit for one-frequency fast-oscillating Hamiltonian systems.

The package covers the full pipeline: phase-space geometry of trivial
circle bundles with invariant metrics (bundle_geometry), fiber averaging
of oscillatory coefficients into an autonomous reduced system
(averaging), structure-preserving integration of the full and reduced
dynamics with closeness diagnostics (integrators), worked physical
systems such as the Kapitza pendulum, a spinning disk on a curved
surface, and a particle in a rapidly oscillating potential (systems),
and Euler equations on Lie-Poisson spaces with cocycle extensions
(lie_poisson). The `fastslow` command line drives config-described
experiment runs on top of these pieces.
"""

__version__ = "0.1.0"

from .averaging import (AveragedSystem, AveragingError, FastSlowSystem,
                        average_coefficients, averaged_hamiltonian,
                        effective_potential, magnetic_form)
from .bundle_geometry import (PhaseStateFull, PhaseStateReduced,
                              TrivialBundleMetric, convert_chart,
                              fiber_inertia, gram_matrix,
                              invariant_metric_from_averaged,
                              mechanical_connection, metric_eval,
                              momentum_map)
from .integrators import (ClosenessReport, IntegrationError,
                          IntegratorConfig, Trajectory, closeness_report,
                          full_velocities, hermite_interpolate,
                          integrate_autonomous, integrate_full,
                          integrate_reduced_canonical,
                          integrate_reduced_magnetic)
from .lie_poisson import (BUILTIN_ALGEBRAS, Cocycle, EulerSystem,
                          LieAlgebraData, abelian, coadjoint_action,
                          cocycle_identity_residual, euler_vector_field,
                          extended_bracket, extended_hamiltonian_field,
                          heisenberg3, integrate_euler, load_algebra,
                          make_cocycle, oscillator4, shift_cocycle, so3)
from .systems import (DiskParams, DomainError, HarmonicMode,
                      OscillatingPotential, PendulumParams, SurfaceMetric,
                      curvature_identity_residual, disk_connection,
                      disk_magnetic_rhs, disk_mass_matrix, disk_momentum,
                      disk_velocity, exponential_surface, gaussian_curvature,
                      mean_grad_antiderivative_sq,
                      mean_hess_cross_term, oscillating_particle_averaged,
                      particle_invariant_metric, particle_potential_1d,
                      particle_potential_2d, particle_systems,
                      pendulum_systems, plane_surface,
                      simulate_physical_pendulum, sphere_surface,
                      spinning_disk_rhs, uniform_field_averaged)

__all__ = [
    "AveragedSystem", "AveragingError", "BUILTIN_ALGEBRAS",
    "ClosenessReport", "Cocycle", "DiskParams", "DomainError",
    "EulerSystem", "FastSlowSystem",
    "HarmonicMode", "IntegrationError", "IntegratorConfig",
    "LieAlgebraData", "OscillatingPotential", "PendulumParams",
    "PhaseStateFull", "PhaseStateReduced",
    "SurfaceMetric", "Trajectory", "TrivialBundleMetric",
    "abelian", "average_coefficients", "averaged_hamiltonian",
    "closeness_report", "coadjoint_action",
    "cocycle_identity_residual", "convert_chart",
    "curvature_identity_residual", "disk_connection",
    "disk_magnetic_rhs",
    "disk_mass_matrix", "disk_momentum", "disk_velocity",
    "effective_potential",
    "euler_vector_field", "exponential_surface", "extended_bracket",
    "extended_hamiltonian_field", "fiber_inertia", "full_velocities",
    "gaussian_curvature", "gram_matrix", "heisenberg3",
    "hermite_interpolate", "integrate_autonomous", "integrate_euler",
    "integrate_full", "integrate_reduced_canonical",
    "integrate_reduced_magnetic", "invariant_metric_from_averaged",
    "load_algebra", "magnetic_form", "make_cocycle",
    "mean_grad_antiderivative_sq", "mean_hess_cross_term",
    "mechanical_connection", "metric_eval", "momentum_map",
    "oscillating_particle_averaged",
    "oscillator4", "particle_invariant_metric", "particle_potential_1d",
    "particle_potential_2d", "particle_systems",
    "pendulum_systems", "plane_surface",
    "simulate_physical_pendulum", "so3",
    "sphere_surface", "spinning_disk_rhs", "uniform_field_averaged",
]
