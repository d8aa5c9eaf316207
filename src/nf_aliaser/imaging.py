"""Matched-filter imaging: monostatic partial images and the bistatic product.

Per-cell sums run in fixed lattice-element order (sequential accumulation), so
results are bit-identical no matter how the cell loop is chunked or threaded.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import GridError, SingularityError
from .geometry import ArrayGeometry, EvalGrid, Scene, WaveParams
from .wavefield import _checked_distance, exclusion_radius

# Cells per work block of _run_blocks, which runs every per-cell kernel; fixed
# so the decomposition (and the output bits) do not depend on the thread count.
CELL_BLOCK = 8192


def default_threads() -> int:
    """The CPUs this process may run on: the default thread count of run,
    sweep and the command line."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


@dataclass
class ComplexField:
    """Complex value per grid cell plus an explicit exclusion flag.

    scatterer lets bistatic_image refuse partial images of two scenes.
    """

    grid: EvalGrid
    values: np.ndarray
    excluded: np.ndarray
    scatterer: tuple | None = None


def _run_blocks(kernel, grid: EvalGrid, threads: int) -> tuple:
    """Apply kernel(cells) -> tuple of per-cell arrays to the whole grid.

    The grid is cut into row-major blocks of CELL_BLOCK cells whose centers
    are generated when the block runs, so memory for centers does not grow
    with the grid. Blocks run on min(threads, number of blocks) threads.
    Returns one whole-grid array per kernel output, in row-major order.
    """
    n = grid.num_cells
    outputs = []
    lock = threading.Lock()

    # The thread that computes a block also writes it out: handing block
    # results to the calling thread instead raised peak RSS by 1-3 MB at
    # 2 threads (planar_sweep benchmark).
    def block(start: int) -> None:
        stop = min(start + CELL_BLOCK, n)
        part = kernel(grid.cell_centers(start, stop))
        with lock:
            if not outputs:
                outputs.extend(np.empty(n, dtype=p.dtype) for p in part)
        for out, p in zip(outputs, part):
            out[start:stop] = p

    starts = range(0, n, CELL_BLOCK)
    workers = min(threads, len(starts))
    if workers <= 1:
        for start in starts:
            block(start)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(block, starts))
    return tuple(outputs)


def _distance(e, cols: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """|e - c| per cell, written into out and returned.

    cols holds the cells as coordinate rows (d, n); e is one element (d,) or
    one element per cell as d 1-D arrays. The squares are summed in axis
    order, ((dx^2 + dy^2) + dz^2); tmp is a scratch buffer of n floats.
    """
    np.subtract(e[0], cols[0], out=out)
    np.multiply(out, out, out=out)
    for e_i, c_i in zip(e[1:], cols[1:]):
        np.subtract(e_i, c_i, out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        out += tmp
    return np.sqrt(out, out=out)


def _block_columns(cells: np.ndarray) -> tuple:
    """A block's (n, d) cells as the (d, n) coordinate rows _distance takes,
    plus its two scratch buffers of n floats (out, tmp)."""
    n = len(cells)
    return np.ascontiguousarray(cells.T), np.empty(n), np.empty(n)


def _scatterer_distances(array: ArrayGeometry, scatterer: np.ndarray, eps: float, ndim: int):
    """Element positions, their distances to the scatterer and the offsets
    elements - scatterer, for points of ndim coordinates.

    Raises GridError unless points, array and scatterer share one
    dimensionality, and SingularityError when the scatterer lies within eps
    of an element.
    """
    if ndim != array.ndim:
        raise GridError(f"{ndim}D points and a {array.ndim}D {array.role_tag} array must "
                        "share one dimensionality")
    elements = array.element_positions()
    d_s, ds_vec = _checked_distance(elements, scatterer, eps,
                                    f"scatterer and {array.role_tag} elements")
    return elements, d_s, ds_vec


def _chirp_sum(elements: np.ndarray, d_s: np.ndarray, k: float, points: np.ndarray):
    """Partial-image chirp sum at each point and the nearest-element distance.

    Accumulates sequentially in lattice-element order, so a point gets the
    same bits whichever block of points it is evaluated in.
    """
    cols, dt, tmp = _block_columns(points)
    n = len(points)
    acc = np.zeros(n, dtype=np.complex128)
    near = np.full(n, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for e, ds in zip(elements, d_s):
            _distance(e, cols, dt, tmp)
            np.minimum(near, dt, out=near)
            acc += np.exp(1j * k * (dt - ds)) / (dt * ds)
    return acc, near


def _field(grid: EvalGrid, values: np.ndarray, dmin: np.ndarray, eps: float,
           scatterer: np.ndarray) -> ComplexField:
    """Zero and flag the cells within eps of an element, shaped as the grid."""
    excluded = dmin <= eps
    if excluded.all():
        raise GridError("every grid cell lies within the exclusion radius of an element")
    values[excluded] = 0.0
    shape = grid.resolution
    return ComplexField(grid=grid, values=values.reshape(shape),
                        excluded=excluded.reshape(shape), scatterer=tuple(scatterer))


def partial_image_at(array: ArrayGeometry, points, scene: Scene, wave: WaveParams,
                     epsilon=None) -> np.ndarray:
    """Monostatic partial image evaluated at arbitrary tentative points.

    Each value is the sum over array elements of the spatial chirp
    conj(z(tentative, element)) * z(scatterer, element). Raises
    SingularityError if any point or the scatterer is within the exclusion
    radius of an element.
    """
    eps = exclusion_radius(wave, epsilon)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    elements, d_s, _ = _scatterer_distances(array, scene.scatterer, eps, pts.shape[-1])
    acc, near = _chirp_sum(elements, d_s, wave.wavenumber, pts)
    if np.any(near <= eps):
        raise SingularityError(
            "tentative point within the exclusion radius of an array element"
        )
    return acc


def partial_image(array: ArrayGeometry, scene: Scene, wave: WaveParams, grid: EvalGrid,
                  epsilon=None, threads: int = 1) -> ComplexField:
    """Monostatic partial image over a grid of tentative locations.

    Cells within the exclusion radius of any element are flagged excluded and
    carry the value 0.
    """
    eps = exclusion_radius(wave, epsilon)
    elements, d_s, _ = _scatterer_distances(array, scene.scatterer, eps, grid.ndim)
    values, dmin = _run_blocks(lambda cells: _chirp_sum(elements, d_s, wave.wavenumber, cells),
                               grid, threads)
    return _field(grid, values, dmin, eps, scene.scatterer)


def bistatic_image(tx_field: ComplexField, rx_field: ComplexField,
                   reflectivity: complex) -> ComplexField:
    """Bistatic image as the cell-wise product reflectivity * S_t * S_r."""
    gt, gr = tx_field.grid, rx_field.grid
    if (gt.resolution != gr.resolution
            or not np.array_equal(gt.corner_min, gr.corner_min)
            or not np.array_equal(gt.corner_max, gr.corner_max)):
        raise GridError("partial images must share one evaluation grid")
    scat_t, scat_r = tx_field.scatterer, rx_field.scatterer
    if scat_t is not None and scat_r is not None and scat_t != scat_r:
        raise GridError("partial images were computed for different scenes")

    values = complex(reflectivity) * tx_field.values * rx_field.values
    excluded = tx_field.excluded | rx_field.excluded
    values = np.where(excluded, 0.0, values)
    return ComplexField(grid=gt, values=values, excluded=excluded, scatterer=scat_t)


def direct_image(tx: ArrayGeometry, rx: ArrayGeometry, scene: Scene, wave: WaveParams,
                 grid: EvalGrid, epsilon=None, threads: int = 1) -> ComplexField:
    """Bistatic image as the literal double sum over (tx, rx) element pairs.

    Serves as the separability oracle for bistatic_image(partial, partial);
    accumulation is sequential in (tx-element, rx-element) lattice order.
    """
    eps = exclusion_radius(wave, epsilon)
    et, dst, _ = _scatterer_distances(tx, scene.scatterer, eps, grid.ndim)
    er, dsr, _ = _scatterer_distances(rx, scene.scatterer, eps, grid.ndim)

    k = wave.wavenumber
    zeta = scene.reflectivity
    z_t = np.exp(-1j * k * dst) / dst
    z_r = np.exp(-1j * k * dsr) / dsr

    def kernel(cells: np.ndarray) -> tuple:
        cols, dist, tmp = _block_columns(cells)
        n = len(cells)
        czt = np.empty((len(et), n), dtype=np.complex128)
        near = np.full(n, np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            for it, e in enumerate(et):
                dt = _distance(e, cols, dist, tmp)
                np.minimum(near, dt, out=near)
                czt[it] = np.exp(1j * k * dt) / dt
            acc = np.zeros(n, dtype=np.complex128)
            for it in range(len(et)):
                for ir, e in enumerate(er):
                    dr = _distance(e, cols, dist, tmp)
                    np.minimum(near, dr, out=near)
                    u = zeta * z_r[ir] * z_t[it]
                    acc += u * (np.exp(1j * k * dr) / dr) * czt[it]
        return acc, near

    values, dmin = _run_blocks(kernel, grid, threads)
    return _field(grid, values, dmin, eps, scene.scatterer)


def magnitude_db(field_: ComplexField, floor_db: float) -> np.ndarray:
    """Peak-normalized magnitude in dB, clamped below at floor_db.

    Excluded cells are emitted at floor_db. Raises GridError when the field
    has no usable signal (all cells excluded or zero).
    """
    if not (np.isfinite(floor_db) and floor_db < 0):
        raise GridError(f"floor_db must be negative and finite, got {floor_db}")
    usable = ~field_.excluded
    if not usable.any():
        raise GridError("field has no non-excluded cells")
    mag = np.abs(field_.values)
    peak = mag[usable].max()
    if peak == 0.0:
        raise GridError("field is identically zero on non-excluded cells")
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag / peak)
    db = np.maximum(db, floor_db)
    db[field_.excluded] = floor_db
    return db
