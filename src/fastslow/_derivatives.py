"""Central finite-difference Jacobian of the implicit midpoint solve.

Its one caller is the chord iteration matrix of the implicit midpoint
loop (integrators._midpoint_source); every shipped system gives its
other derivatives in closed form. The stencil in x uses the step
1e-6 * max(1, |x|_inf).
"""

from __future__ import annotations

import numpy as np

FIRST_ORDER_STEP = 1e-6


def step_size(x) -> float:
    """Step for central differences around ``x`` (scalar or array)."""
    mag = float(np.max(np.abs(x))) if np.size(x) else 0.0
    return FIRST_ORDER_STEP * max(1.0, mag)


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
