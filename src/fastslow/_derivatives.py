"""Central finite-difference fallbacks shared across modules.

Stencils in x use the step 1e-6 * max(1, |x|_inf), and in the fiber
angle phi the fixed step 1e-6. Analytic derivative callables, when
supplied on the data types, always take precedence over these fallbacks.
"""

from __future__ import annotations

import numpy as np

FIRST_ORDER_STEP = 1e-6


def step_size(x) -> float:
    """Step for central differences around ``x`` (scalar or array)."""
    mag = float(np.max(np.abs(x))) if np.size(x) else 0.0
    return FIRST_ORDER_STEP * max(1.0, mag)


def gradient(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    h = step_size(x)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def jacobian(f, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian; entry [i, j] is d f_j / d x_i."""
    x = np.asarray(x, dtype=float)
    h = step_size(x)
    cols = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        cols.append((np.asarray(f(x + e), dtype=float)
                     - np.asarray(f(x - e), dtype=float)) / (2.0 * h))
    return np.array(cols)


def phi_derivative(f, q: np.ndarray, phi: float) -> np.ndarray:
    """Central difference of f(q, phi) in the fiber angle phi."""
    h = FIRST_ORDER_STEP
    hi = np.asarray(f(q, phi + h), dtype=float)
    lo = np.asarray(f(q, phi - h), dtype=float)
    return (hi - lo) / (2.0 * h)

