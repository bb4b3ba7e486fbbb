"""Fixtures shared by several test modules."""

import math

import numpy as np
import pytest

from fastslow import HarmonicMode, OscillatingPotential


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
            dim_base=1, U=lambda x, tau: mode.c(x) * math.cos(tau),
            fourier_modes=(mode,), mean_part=lambda x: 0.0)
    return drive
