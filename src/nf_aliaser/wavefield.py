"""Spherical-wave factor and the spatial chirp.

All functions broadcast over leading dimensions of their position arguments
(trailing dimension = spatial components) and are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularityError
from .geometry import WaveParams, same_dimension

# Exclusion radius around point sources, as a fraction of the wavelength.
# The 1/r factor diverges at r -> 0; evaluation inside is refused.
EXCLUSION_FACTOR = 0.1


def exclusion_radius(wave: WaveParams, epsilon=None) -> float:
    return EXCLUSION_FACTOR * wave.wavelength if epsilon is None else float(epsilon)


def _checked_distance(a, b, eps: float, what: str) -> tuple:
    """(|a - b|, a - b) over the trailing coordinate axis: the package's one
    check of a pair of positions. Raises GridError when a and b have different
    coordinate counts, SingularityError when a distance is within eps."""
    a, b = same_dimension(a, b, what)
    diff = a - b
    r = np.sqrt(np.sum(diff * diff, axis=-1))
    if np.any(r <= eps):
        raise SingularityError(
            f"{what}: separation {float(np.min(r)):.6g} is within the exclusion radius {eps:.6g}"
        )
    return r, diff


def green(source, probe, wave: WaveParams, epsilon=None):
    """Spherical-wave factor exp(-j k r) / r between source and probe."""
    eps = exclusion_radius(wave, epsilon)
    r, _ = _checked_distance(source, probe, eps, "green")
    return np.exp(-1j * wave.wavenumber * r) / r


def chirp_phase(probe, tentative, scatterer, wave: WaveParams, epsilon=None):
    """Unwrapped chirp phase k * (|probe - tentative| - |probe - scatterer|).

    Kept as the true distance difference (not reduced mod 2*pi) so it can be
    differentiated numerically.
    """
    eps = exclusion_radius(wave, epsilon)
    d_t, _ = _checked_distance(probe, tentative, eps, "chirp_phase")
    d_s, _ = _checked_distance(probe, scatterer, eps, "chirp_phase")
    return wave.wavenumber * (d_t - d_s)


def chirp_value(probe, tentative, scatterer, wave: WaveParams, epsilon=None):
    """Spatial chirp conj(green(tentative, probe)) * green(scatterer, probe).

    Magnitude is 1 / (|probe - tentative| * |probe - scatterer|), phase is
    chirp_phase.
    """
    eps = exclusion_radius(wave, epsilon)
    d_t, _ = _checked_distance(probe, tentative, eps, "chirp_value")
    d_s, _ = _checked_distance(probe, scatterer, eps, "chirp_value")
    return np.exp(1j * wave.wavenumber * (d_t - d_s)) / (d_t * d_s)
