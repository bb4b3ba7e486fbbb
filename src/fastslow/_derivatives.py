"""Central finite-difference fallbacks shared across modules.

First-derivative stencils in x use the step 1e-6 * max(1, |x|_inf), and
in the fiber angle phi the fixed step 1e-6; second derivatives widen the
step to 5e-4 * max(1, |x|_inf) so that round-off does not dominate.
Analytic derivative callables, when supplied on the data types, always
take precedence over these fallbacks.
"""

from __future__ import annotations

import numpy as np

FIRST_ORDER_STEP = 1e-6
SECOND_ORDER_STEP = 5e-4


def step_size(x, scale: float = FIRST_ORDER_STEP) -> float:
    """Step for central differences around ``x`` (scalar or array)."""
    mag = float(np.max(np.abs(x))) if np.size(x) else 0.0
    return scale * max(1.0, mag)


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


def hessian(f, x: np.ndarray) -> np.ndarray:
    """Central-difference Hessian (wide step); entry [i, j] is d2f/dx_i dx_j.

    f may be array-valued; the shape of its values trails the two indices.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    h = step_size(x, SECOND_ORDER_STEP)

    def fx(y):
        return np.asarray(f(y), dtype=float)

    f0 = fx(x)
    out = np.empty((n, n) + f0.shape)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (fx(x + ei) - 2.0 * f0 + fx(x - ei)) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            mixed = (fx(x + ei + ej) - fx(x + ei - ej)
                     - fx(x - ei + ej) + fx(x - ei - ej))
            out[i, j] = out[j, i] = mixed / (4.0 * h * h)
    return out
