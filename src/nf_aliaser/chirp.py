"""Chirp-based aliasing analysis: local wavenumbers, per-axis maximum spatial
frequencies, and the aliasing-free predicate/masks.

A tentative location is aliasing-free for an array when, along every lattice
axis that samples space (>= 2 elements), the maximum spatial frequency of the
chirp over the element set stays within 2*pi / spacing. Boundary equality
counts as aliasing-free, with exact floating-point <=.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .geometry import ArrayGeometry, EvalGrid, Scene, WaveParams
from .imaging import _block_columns, _distance, _run_blocks, _scatterer_distances
from .wavefield import _checked_distance, exclusion_radius

AliasingVerdict = namedtuple("AliasingVerdict", ["per_axis", "ok"])


def local_wavenumber(probe, tentative, scatterer, wave: WaveParams, epsilon=None) -> np.ndarray:
    """Gradient of the chirp phase with respect to the probe position.

    k * ((probe - tentative)/|probe - tentative|
         - (probe - scatterer)/|probe - scatterer|); broadcasts over leading
    dimensions, trailing dimension = spatial components.
    """
    eps = exclusion_radius(wave, epsilon)
    d_t, dt_vec = _checked_distance(probe, tentative, eps, "local_wavenumber")
    d_s, ds_vec = _checked_distance(probe, scatterer, eps, "local_wavenumber")
    return wave.wavenumber * (dt_vec / d_t[..., None] - ds_vec / d_s[..., None])


def max_spatial_frequency(array: ArrayGeometry, tentative, scatterer, wave: WaveParams,
                          axis_index: int, epsilon=None) -> float:
    """Largest |local wavenumber| projection on a lattice axis over all elements."""
    kvec = local_wavenumber(array.element_positions(), tentative, scatterer, wave, epsilon)
    return float(np.max(np.abs(kvec @ array.axes[axis_index])))


def aliasing_free(array: ArrayGeometry, tentative, scatterer, wave: WaveParams,
                  epsilon=None) -> AliasingVerdict:
    """Per-lattice-axis aliasing-free booleans and their conjunction.

    Axes with a single element perform no spatial sampling and are vacuously
    aliasing-free.
    """
    sampled = array.sampled_axes()
    # Every axis is evaluated, so that a one-element array's inputs are checked.
    per_axis = tuple(bool(max_spatial_frequency(array, tentative, scatterer, wave, j, epsilon)
                          <= 2.0 * np.pi / array.spacings[j]) or j not in sampled
                     for j in range(array.n_axes))
    return AliasingVerdict(per_axis=per_axis, ok=all(per_axis))


@dataclass
class MaskLayer:
    """Aliasing-free predicate of one array along one lattice axis."""

    array_label: str
    axis_index: int
    free: np.ndarray


@dataclass
class AliasingMask:
    """Per-array-per-axis aliasing-free layers and their conjunction."""

    grid: EvalGrid
    layers: tuple
    excluded: np.ndarray
    combined: np.ndarray = field(init=False)

    def __post_init__(self):
        combined = np.ones(self.grid.resolution, dtype=bool)
        for layer in self.layers:
            combined &= layer.free
        combined &= ~self.excluded
        self.combined = combined


def _element_terms(array: ArrayGeometry, scatterer: np.ndarray, eps: float):
    """Inputs both mask kernels share: elements, sampled axes, their unit
    vectors and per-element scatterer projections pu[ja]."""
    elements, d_s, ds_vec = _scatterer_distances(array, scatterer, eps)
    axes_idx = array.sampled_axes()
    units = [array.axes[j] for j in axes_idx]
    pu = [(ds_vec @ u) / d_s for u in units]
    return elements, axes_idx, units, pu


def _fold_axis(best: np.ndarray, e_u, c_u: np.ndarray, dt: np.ndarray, pu_e,
               tmp: np.ndarray) -> None:
    """best = max(best, |k_axis| / k) for one element (or one element per cell).

    e_u and c_u are the element and cell coordinates on the axis, pu_e the
    element's scatterer term, tmp a scratch buffer of n floats; both kernels
    fold through this one expression so an element yields the same bits
    whichever kernel evaluates it.
    """
    k_axis = np.subtract(e_u, c_u, out=tmp)
    k_axis /= dt
    k_axis -= pu_e
    np.maximum(best, np.abs(k_axis, out=k_axis), out=best)


def _kmax_layers(array: ArrayGeometry, scatterer: np.ndarray, eps: float):
    """Sampled lattice axes and a kernel(cells) -> max |k_axis| / k per sampled
    axis.

    Exhaustive reference kernel for _kmax_lines: loops over elements
    (vectorized over cells) so each element's distance field is shared by all
    axis projections.
    """
    elements, axes_idx, units, pu = _element_terms(array, scatterer, eps)

    def kernel(cells: np.ndarray) -> tuple:
        cols, dt, tmp = _block_columns(cells)
        c_u = [cells @ u for u in units]
        best = [np.zeros(len(cells)) for _ in units]
        with np.errstate(divide="ignore", invalid="ignore"):
            for ie, e in enumerate(elements):
                _distance(e, cols, dt, tmp)
                for ja, u in enumerate(units):
                    _fold_axis(best[ja], float(e @ u), c_u[ja], dt, pu[ja][ie], tmp)
        return tuple(best)

    return axes_idx, kernel


def _complement(u: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the directions perpendicular to unit u.

    Distances from a line are taken from these components, without
    cancellation and exactly 0 for points on an axis-aligned line. Built by
    hand: an SVD would add about 1 MB of LAPACK workspace to the peak RSS.
    """
    if len(u) == 1:
        return np.empty((0, 1))
    if len(u) == 2:
        return np.array([[-u[1], u[0]]])
    v = np.cross(u, np.eye(3)[np.argmin(np.abs(u))])
    v /= np.sqrt(v @ v)
    return np.array([v, np.cross(u, v)])


def _line_roots(u_t: np.ndarray, w: np.ndarray, u_s: float, b: float, rs2: float):
    """Line coordinates x where h_t^(4/3) r_s^2 = h_s^(4/3) r_t^2, per cell.

    u_t and w are the cells' coordinate along the line and offset across it,
    b = h_s^(4/3) > 0 and rs2 = u_s^2 + h_s^2 describe the scatterer. Solves
    A x^2 + B x + C = 0 in the cancellation-free form
    q = -(B + sign(B) sqrt(B^2 - 4AC))/2, roots q/A and C/q; a root that does
    not exist comes out nan or +-inf. Kept apart from the caller so that its
    temporaries are freed before the candidates are evaluated.
    """
    h2 = np.einsum("ij,ij->i", w, w)
    a = np.cbrt(h2 * h2)
    qc = a * rs2 - b * (u_t * u_t + h2)
    qb = -2.0 * (a * u_s - b * u_t)
    a -= b
    q = np.sqrt(np.maximum(qb * qb - 4.0 * a * qc, 0.0))
    q = -0.5 * (qb + np.copysign(q, qb))
    return q / a, qc / q


def _kmax_lines(array: ArrayGeometry, scatterer: np.ndarray, eps: float):
    """Same result as _kmax_layers from a few candidate elements per lattice line.

    On a line through element 0 at o with unit u, an element at line
    coordinate x gives f(x) = (x - u_t)/r_t - (x - u_s)/r_s, where u_t, u_s
    are the line coordinates of cell and scatterer and h_t, h_s their
    distances from the line. f' = h_t^2/r_t^3 - h_s^2/r_s^3 vanishes where
    h_t^(4/3) r_s^2 = h_s^(4/3) r_t^2, a quadratic in x, so f is monotone
    between its at most two roots and the line ends. The discrete max of |f|
    therefore sits at element 0, element N_j-1, or beside a root. A cell on
    the line (h_t = 0) turns the quadratic into a double root at u_t, where f
    jumps, so it needs no extra candidate.
    """
    elements, axes_idx, units, pu = _element_terms(array, scatterer, eps)
    # Element by element, as _kmax_layers computes it, so the bits match.
    eu = [np.array([float(e @ u) for e in elements]) for u in units]
    index = np.arange(array.num_elements).reshape(array.counts)

    axis_lines = []
    for ja, (j, u) in enumerate(zip(axes_idx, units)):
        perp = _complement(u)
        stride = int(np.prod(array.counts[j + 1:], dtype=np.int64))
        lines = []
        for first in np.take(index, 0, axis=j).ravel():
            o = elements[first]
            ws = scatterer - o
            hs2 = float(np.sum((perp @ ws) ** 2))
            u_s = float(ws @ u)
            lines.append((int(first), float(o @ u), perp @ o, u_s, np.cbrt(hs2 * hs2),
                          u_s * u_s + hs2))
        axis_lines.append((ja, u, perp, stride, array.counts[j], float(array.spacings[j]),
                           lines))

    x = np.ascontiguousarray(elements.T)

    def kernel(c: np.ndarray) -> tuple:
        cols, dt, tmp = _block_columns(c)
        n = len(c)

        def distance(g):
            # Element g (an index, or one index per cell), gathered per axis.
            return _distance([x_i[g] for x_i in x], cols, dt, tmp)

        bests = []
        with np.errstate(divide="ignore", invalid="ignore"):
            for ja, u, perp, stride, count, d, lines in axis_lines:
                c_u = c @ u
                c_v = c @ perp.T
                best = np.zeros(n)
                for first, o_u, o_v, u_s, b, rs2 in lines:
                    u_t = c_u - o_u
                    # With the scatterer on the line (b = 0), f' = h_t^2/r_t^3
                    # >= 0 apart from the jump at u_s. For cells on the line
                    # too, f = sign(x - u_t) - sign(x - u_s) is 2 in magnitude
                    # exactly when an element lies between u_t and u_s, and
                    # then the neighbour of u_s toward u_t does.
                    roots = _line_roots(u_t, c_v - o_v, u_s, b, rs2) if b > 0.0 else (u_s,)
                    for m in (0, count - 1):
                        g = first + stride * m
                        _fold_axis(best, eu[ja][g], c_u, distance(g), pu[ja][g], tmp)
                    for root in roots:
                        # fmax/fmin map nan to -1 and clamp +-inf: a root that
                        # does not exist lands on an end element.
                        m0 = np.floor(np.fmin(np.fmax(root / d, -1.0), count)).astype(np.intp)
                        for m in (m0, m0 + 1):
                            g = first + stride * np.clip(m, 0, count - 1)
                            _fold_axis(best, eu[ja][g], c_u, distance(g), pu[ja][g], tmp)
                bests.append(best)
        return tuple(bests)

    return axes_idx, kernel


def aliasing_mask(tx: ArrayGeometry, rx: ArrayGeometry, scene: Scene, wave: WaveParams,
                  grid: EvalGrid, epsilon=None, threads: int = 1) -> AliasingMask:
    """Aliasing-free mask over a grid for both arrays.

    One boolean layer per (array, sampled lattice axis); the combined layer is
    their conjunction. Cells within the exclusion radius of any element of
    either array are marked excluded and false.
    """
    eps = exclusion_radius(wave, epsilon)
    k = wave.wavenumber
    tx_axes, tx_kmax = _kmax_lines(tx, scene.scatterer, eps)
    rx_axes, rx_kmax = _kmax_lines(rx, scene.scatterer, eps)
    excluded, *kmaxes = _run_blocks(lambda cells: (*tx_kmax(cells), *rx_kmax(cells)),
                                    (tx, rx), grid, eps, threads)
    layers = []
    sampled = [("tx", tx, j) for j in tx_axes] + [("rx", rx, j) for j in rx_axes]
    for (label, array, j), km in zip(sampled, kmaxes):
        free = (k * km <= 2.0 * np.pi / array.spacings[j]) & ~excluded
        layers.append(MaskLayer(array_label=label, axis_index=j, free=free))
    return AliasingMask(grid=grid, layers=tuple(layers), excluded=excluded)
