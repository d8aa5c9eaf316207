"""Independent spectral verification of the chirp-based aliasing analysis.

Estimates the chirp's actual spatial spectrum by discrete Fourier analysis of
oversampled aperture data, and compares coarse-vs-dense matched-filter values
to decide whether a tentative point is aliased.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .geometry import ArrayGeometry, Scene, WaveParams, whole_numbers
from .imaging import partial_image_at
from .wavefield import chirp_value

# Reference lattice spacing for the aliasing oracle, as a fraction of the
# wavelength; lambda/4 is comfortably inside the half-wavelength guarantee.
REFERENCE_SPACING_FACTOR = 0.25

# Discrepancies are measured against max(coarse, dense, floor * matched
# response): swings below that scale are discretization noise, not the
# high-magnitude spurious responses aliasing produces.
ORACLE_FLOOR_FRACTION = 0.05

WINDOWS = ("hann", "rect")


@dataclass
class SpectralSupport:
    """Windowed DFT magnitude along one lattice axis and its support edge."""

    axis: int
    frequencies: np.ndarray
    magnitude: np.ndarray
    support_max: float
    zero_bin: complex


def sample_chirp_along_axis(array: ArrayGeometry, tentative, scatterer,
                            wave: WaveParams, axis_index: int, oversample: int,
                            epsilon=None) -> np.ndarray:
    """Chirp values on a lattice refined by `oversample` along one axis.

    Sampling covers the same aperture as the element lattice with spacing
    spacing/oversample; the other lattice indices are held at their middle
    element. oversample=1 reproduces the per-element chirp values. Raises
    GeometryError unless axis_index names a lattice axis of two or more
    elements.
    """
    axis_index = array.lattice_axis(axis_index)
    (oversample,) = whole_numbers(oversample, GeometryError, "oversample")
    if oversample < 1:
        raise GeometryError(f"oversample must be >= 1, got {oversample}")
    if array.counts[axis_index] < 2:
        raise GeometryError(f"lattice axis {axis_index} has < 2 elements; nothing to sample")
    base = array.origin.copy()
    for j in range(array.n_axes):
        if j != axis_index:
            mid = (array.counts[j] - 1) // 2
            base = base + mid * array.spacings[j] * array.axes[j]
    n = (array.counts[axis_index] - 1) * oversample + 1
    step = array.spacings[axis_index] / oversample
    offsets = np.arange(n)[:, None] * step * array.axes[axis_index][None, :]
    positions = base[None, :] + offsets
    return chirp_value(positions, tentative, scatterer, wave, epsilon)


def spectral_support(samples, spacing: float, threshold_db: float,
                     window: str = "hann", axis_index: int = 0) -> SpectralSupport:
    """Windowed DFT magnitude of a sample sequence and its spectral support.

    support_max is the largest |wavenumber bin| whose magnitude reaches
    peak * 10^(threshold_db/20). With the rectangular window the zero bin
    equals the plain sum of the samples. Raises GeometryError for fewer than
    8 samples, a NaN or infinite sample, a bad spacing, threshold or window.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.ndim != 1 or len(samples) < 8:
        raise GeometryError(f"need at least 8 samples, got {samples.shape}")
    bad = np.flatnonzero(~np.isfinite(samples))
    if len(bad):
        raise GeometryError(f"{len(bad)} of {len(samples)} samples are not finite, "
                            f"the first at indices {bad[:8].tolist()}")
    if not (np.isfinite(spacing) and spacing > 0):
        raise GeometryError(f"spacing must be positive and finite, got {spacing}")
    if not (np.isfinite(threshold_db) and threshold_db < 0):
        raise GeometryError(f"threshold_db must be negative and finite, got {threshold_db}")
    if window not in WINDOWS:
        raise GeometryError(f"window must be one of {WINDOWS}, got {window!r}")

    n = len(samples)
    w = np.hanning(n) if window == "hann" else np.ones(n)
    spectrum = np.fft.fft(samples * w)
    zero_bin = complex(spectrum[0])
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=spacing)

    order = np.argsort(freqs, kind="stable")
    freqs = freqs[order]
    magnitude = np.abs(spectrum)[order]
    peak = magnitude.max()
    keep = magnitude >= peak * 10.0 ** (threshold_db / 20.0)
    support_max = float(np.max(np.abs(freqs[keep])))
    return SpectralSupport(axis=axis_index, frequencies=freqs, magnitude=magnitude,
                           support_max=support_max, zero_bin=zero_bin)


def _reference_array(array: ArrayGeometry, wave: WaveParams) -> ArrayGeometry:
    """Same aperture as `array`, densified to at most lambda/4 spacing per axis."""
    ref_spacing = REFERENCE_SPACING_FACTOR * wave.wavelength
    counts = []
    spacings = []
    for j in range(array.n_axes):
        aperture = (array.counts[j] - 1) * array.spacings[j]
        if array.counts[j] < 2:
            counts.append(1)
            spacings.append(array.spacings[j])
            continue
        n = max(int(np.ceil(aperture / ref_spacing)) + 1, array.counts[j])
        counts.append(n)
        spacings.append(aperture / (n - 1))
    return ArrayGeometry(origin=array.origin, axes=array.axes, counts=tuple(counts),
                         spacings=np.asarray(spacings), role_tag=array.role_tag)


def aliasing_oracle_many(array: ArrayGeometry, points, scatterer, wave: WaveParams,
                         ratio: float = 0.5, epsilon=None) -> np.ndarray:
    """Vectorized aliasing oracle over many tentative points (True = aliased).

    Compares the element-count-normalized partial image value at the actual
    spacing against a dense lambda/4 reference over the same aperture; a point
    is aliased when the magnitudes differ by more than `ratio` of the local
    scale (at least ORACLE_FLOOR_FRACTION of the reference's matched response).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    scene = Scene(scatterer=scatterer)
    reference = _reference_array(array, wave)
    coarse = np.abs(partial_image_at(array, pts, scene, wave, epsilon)) / array.num_elements
    dense = np.abs(partial_image_at(reference, pts, scene, wave, epsilon)) / reference.num_elements
    matched = np.abs(partial_image_at(reference, scene.scatterer[None, :], scene, wave,
                                      epsilon))[0] / reference.num_elements
    scale = np.maximum(np.maximum(coarse, dense), ORACLE_FLOOR_FRACTION * matched)
    return np.abs(coarse - dense) > ratio * scale
