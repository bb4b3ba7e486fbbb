"""Fixtures shared by several test modules."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from fastslow import HarmonicMode, OscillatingPotential
from fastslow import _derivatives as fd
from fastslow.averaging import FIBER_GRID, FIBER_NODES


@pytest.fixture
def pendulum_drive():
    """Build the driven pendulum's drive as an OscillatingPotential.

    pendulum_drive(params) is the zero-mean potential
    -amp l cos(x / l) cos(tau) of the vibrating suspension at frozen
    angle, one harmonic with its gradient declared. Its induced potential
    (eps omega)^2 / 2 <V' . V'> is the Kapitza term
    (1/4) mu^2 amp^2 sin^2(x / l).
    """
    def drive(params):
        l = params.length
        amp = params.amplitude
        mode = HarmonicMode(
            k=1, c=lambda x: -amp * l * math.cos(x[0] / l),
            s=lambda x: 0.0,
            dc=lambda x: np.array([amp * math.sin(x[0] / l)]),
            ds=lambda x: np.zeros(1))
        return OscillatingPotential(
            dim_base=1, fourier_modes=(mode,), mean_part=lambda x: 0.0)
    return drive


def _antiderivative_samples(U, x, order):
    """Zero-mean order-th tau-antiderivative of U(x, .) on FIBER_GRID.

    The rFFT of the samples is divided by (i k)^order and its mean
    dropped, which removes the fiber mean of U as well.
    """
    spec = np.fft.rfft([U(x, tau) for tau in FIBER_GRID])
    k = np.arange(1, spec.size)
    spec[0] = 0.0
    spec[1:] /= (1j * k) ** order
    return np.fft.irfft(spec, n=FIBER_NODES)


@pytest.fixture
def spectral_reference():
    """Fiber means of a closed-form U(x, tau) by sampling, not by modes.

    spectral_reference(U, x) samples U(x, tau) on FIBER_GRID and returns
    its grid mean, the samples V and S of the zero-mean first and second
    tau-antiderivatives of U - Ubar, <V' . V'> and <S'' V'>. The spatial
    derivatives are the central differences of fastslow._derivatives
    applied to the rFFT antiderivatives: a second route to what
    OscillatingPotential's declared harmonics give in closed form.
    """
    def reference(U, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        vp = fd.jacobian(lambda pt: _antiderivative_samples(U, pt, 1), x)
        spp = fd.hessian(lambda pt: _antiderivative_samples(U, pt, 2), x)
        return SimpleNamespace(
            mean=float(np.mean([U(x, tau) for tau in FIBER_GRID])),
            V=_antiderivative_samples(U, x, 1),
            S=_antiderivative_samples(U, x, 2),
            mean_vv=float(np.mean(np.sum(vp * vp, axis=0))),
            mean_cross=np.mean(np.einsum("ikn,kn->ni", spp, vp), axis=0))
    return reference
