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

from .geometry import ArrayGeometry, EvalGrid, Scene, WaveParams, _complement
from .imaging import CELL_BLOCK, _block_columns, _distance, _run_blocks, _scatterer_distances
from .wavefield import _checked_distance, exclusion_radius

AliasingVerdict = namedtuple("AliasingVerdict", ["per_axis", "ok"])

# Lattice lines per batch of the line kernel (see imaging.ELEMENT_BATCH). Each
# thread holds eight (nine in 3D) (batch, block) buffers; on a 32 x 32 plane,
# 4 lines ran the mask about 18% faster than 3.
LINE_BATCH = 4


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
    """Largest |local wavenumber| projection on a lattice axis over all elements.

    Raises GeometryError unless axis_index names a lattice axis.
    """
    axis = array.axes[array.lattice_axis(axis_index)]
    kvec = local_wavenumber(array.element_positions(), tentative, scatterer, wave, epsilon)
    return float(np.max(np.abs(kvec @ axis)))


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


def _within_bound(k: float, kmax, spacing: float):
    """k * kmax <= 2 pi / spacing: the aliasing-free test of one lattice axis,
    for the mask layers and for the line kernel's early decision alike.
    Equality counts as free."""
    return k * kmax <= 2.0 * np.pi / spacing


def _kmax_layers(array: ArrayGeometry, scatterer: np.ndarray, eps: float, wavenumber=None):
    """Sampled lattice axes and a kernel(cells) -> max |k_axis| / k per sampled
    axis.

    Exhaustive reference kernel for _kmax_lines: loops over elements
    (vectorized over cells) so each element's distance field is shared by all
    axis projections. wavenumber is accepted and ignored, so that this can
    stand in for _kmax_lines: every cell gets its exact maximum.
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


def _line_roots(u_t: np.ndarray, w: np.ndarray, u_s, b, rs2, h2: np.ndarray, a: np.ndarray,
                qc: np.ndarray, qb: np.ndarray) -> tuple:
    """Line coordinates x where h_t^(4/3) r_s^2 = h_s^(4/3) r_t^2, per line and cell.

    u_t (rows, n) and w (rows, n, k) are the cells' coordinate along each line
    and offset across it; b = h_s^(4/3) and rs2 = u_s^2 + h_s^2 describe the
    scatterer, one row per line (a line with b = 0 gets no meaningful roots;
    the caller replaces them). Solves A x^2 + B x + C = 0 in the
    cancellation-free form q = -(B + sign(B) sqrt(B^2 - 4AC))/2, roots q/A
    and C/q; a root that does not exist comes out nan or +-inf. Works in u_t,
    which it overwrites, and the (rows, n) buffers h2, a, qc and qb; returns
    the roots in a and qc.
    """
    np.einsum("...j,...j->...", w, w, out=h2)
    np.cbrt(np.square(h2, out=a), out=a)
    # qc = a rs2 - b (u_t^2 + h2)
    np.multiply(a, rs2, out=qc)
    np.square(u_t, out=qb)
    qb += h2
    qb *= b
    qc -= qb
    # qb = -2 (a u_s - b u_t)
    np.multiply(a, u_s, out=qb)
    u_t *= b
    qb -= u_t
    qb *= -2.0
    a -= b
    # q = -(qb + sign(qb) sqrt(max(qb^2 - 4 a qc, 0))) / 2, in h2
    np.square(qb, out=h2)
    np.multiply(a, 4.0, out=u_t)
    u_t *= qc
    h2 -= u_t
    np.sqrt(np.maximum(h2, 0.0, out=h2), out=h2)
    np.copysign(h2, qb, out=h2)
    h2 += qb
    h2 *= -0.5
    np.divide(h2, a, out=a)
    np.divide(qc, h2, out=qc)
    return a, qc


def _kmax_lines(array: ArrayGeometry, scatterer: np.ndarray, eps: float, wavenumber=None):
    """max |k_axis| / k per sampled axis from a few candidate elements per lattice line.

    On a line through element 0 at o with unit u, an element at line
    coordinate x gives f(x) = (x - u_t)/r_t - (x - u_s)/r_s, where u_t, u_s
    are the line coordinates of cell and scatterer and h_t, h_s their
    distances from the line. f' = h_t^2/r_t^3 - h_s^2/r_s^3 vanishes where
    h_t^(4/3) r_s^2 = h_s^(4/3) r_t^2, a quadratic in x, so f is monotone
    between its at most two roots and the line ends. The discrete max of |f|
    therefore sits at element 0, element N_j-1, or beside a root. A cell on
    the line (h_t = 0) turns the quadratic into a double root at u_t, where f
    jumps, so it needs no extra candidate.

    Each axis runs in two phases. The end elements of every line come first.
    A cell whose running maximum m then fails _within_bound(wavenumber, m, d)
    is aliased on the axis whatever the other candidates give, so the roots
    and their neighbours are evaluated only for the cells still within the
    bound, gathered. Those cells get the same maximum as _kmax_layers; the
    others keep m. Without a wavenumber every cell is refined.

    The kernel, kernel(cells, batch=LINE_BATCH), evaluates the lines of one
    axis `batch` at a time as (batch, n) arrays in preallocated buffers, and folds
    each line's candidates into its own row of a (batch, n) running maximum;
    np.maximum is exact and order-free, so no bit depends on the batch width
    or on the phase a candidate is folded in.
    """
    elements, axes_idx, units, pu = _element_terms(array, scatterer, eps)
    # Element by element, as _kmax_layers computes it, so the bits match.
    eu = [np.array([float(e @ u) for e in elements]) for u in units]
    index = np.arange(array.num_elements).reshape(array.counts)

    axis_lines = []
    most_lines = 1
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
        # Each line scalar as a column, one row per line, to broadcast over cells.
        first, o_u, o_v, u_s, b, rs2 = (np.array(column) for column in zip(*lines))
        axis_lines.append((ja, u, perp, stride, array.counts[j], float(array.spacings[j]),
                           first[:, None], o_u[:, None], o_v[:, None, :], u_s[:, None],
                           b[:, None], rs2[:, None]))
        most_lines = max(most_lines, len(lines))

    x = np.ascontiguousarray(elements.T)

    def kernel(c: np.ndarray, batch: int = LINE_BATCH) -> tuple:
        n = len(c)
        cols = np.ascontiguousarray(c.T)
        rows = min(batch, most_lines)
        best_buf = np.empty((rows, n))
        g_buf = np.empty((rows, n), dtype=np.intp)
        # Two roots, the distance, its scratch, and room for an element's
        # coordinates or for its e_u and pu terms.
        scratch = np.empty((4 + max(len(x), 2), rows, n))
        bests = []
        with np.errstate(divide="ignore", invalid="ignore"):
            for (ja, u, perp, stride, count, d,
                 first, o_u, o_v, u_s, b, rs2) in axis_lines:
                c_u = c @ u
                batches = [slice(lo, lo + rows) for lo in range(0, len(first), rows)]
                used = min(rows, len(first))
                best_buf.fill(0.0)
                for line in batches:
                    m = len(first[line])
                    dt, tmp = scratch[2:4, :m]
                    for end in (0, count - 1):
                        end_g = first[line] + stride * end
                        dist = _distance([x_i[end_g] for x_i in x], cols, dt, tmp)
                        _fold_axis(best_buf[:m], eu[ja][end_g], c_u, dist, pu[ja][end_g], tmp)
                kmax = np.maximum.reduce(best_buf[:used], axis=0)
                bests.append(kmax)
                pending = (np.ones(n, dtype=bool) if wavenumber is None
                           else _within_bound(wavenumber, kmax, d))
                cells = np.flatnonzero(pending)
                size = len(cells)
                if not size:
                    continue
                # The subset's buffers are the first `size` cells' worth of
                # the block's, read as (..., size) arrays.
                sub_best, sub_g, sub_scratch = (
                    buf.reshape(-1)[:buf[..., 0].size * size].reshape(*buf.shape[:-1], size)
                    for buf in (best_buf, g_buf, scratch))
                sub_cols, sub_u, sub_v = cols[:, cells], c_u[cells], (c @ perp.T)[cells]
                sub_best.fill(0.0)
                for line in batches:
                    m = len(first[line])
                    best, g = sub_best[:m], sub_g[:m]
                    r0, r1, dt, tmp, *free = sub_scratch[:, :m]
                    u_t = np.subtract(sub_u, o_u[line], out=free[0])
                    # w (m, size, k) shares the root buffers' memory:
                    # _line_roots reads w only before it writes a root.
                    w = sub_scratch[:2].reshape(-1)[:u_t.size * len(perp)]
                    w = np.subtract(sub_v, o_v[line], out=w.reshape(*u_t.shape, len(perp)))
                    roots = _line_roots(u_t, w, u_s[line], b[line], rs2[line],
                                        free[1], r0, r1, dt)
                    # With the scatterer on the line (b = 0), f' = h_t^2/r_t^3
                    # >= 0 apart from the jump at u_s. For cells on the line
                    # too, f = sign(x - u_t) - sign(x - u_s) is 2 in magnitude
                    # exactly when an element lies between u_t and u_s, and
                    # then the neighbour of u_s toward u_t does. Such a line
                    # takes u_s as both roots: a repeated candidate leaves the
                    # max as it is.
                    on_line = ~(b[line] > 0.0)
                    for root in roots:
                        np.copyto(root, u_s[line], where=on_line)
                    for root in roots:
                        # fmax/fmin map nan to -1 and clamp +-inf: a root that
                        # does not exist lands on an end element. root keeps
                        # the element index m0 = floor(root / d), as a float.
                        root /= d
                        np.fmax(root, -1.0, out=root)
                        np.floor(np.fmin(root, count, out=root), out=root)
                        for step in (0.0, 1.0):
                            np.clip(np.add(root, step, out=tmp), 0, count - 1, out=tmp)
                            np.copyto(g, tmp, casting="unsafe")
                            g *= stride
                            g += first[line]
                            coords = [x_i.take(g, out=f, mode="clip") for x_i, f in zip(x, free)]
                            _distance(coords, sub_cols, dt, tmp)
                            _fold_axis(best, eu[ja].take(g, out=free[0], mode="clip"), sub_u,
                                       dt, pu[ja].take(g, out=free[1], mode="clip"), tmp)
                kmax[cells] = np.maximum(kmax[cells], np.maximum.reduce(sub_best[:used], axis=0))
        return tuple(bests)

    return axes_idx, kernel


def _upper_envelope(b: np.ndarray, m: np.ndarray, t0: float, t1: float) -> tuple:
    """Knots (t, y) of max_i (b_i + m_i t) over [t0, t1], for np.interp. Sorted
    by slope, a line no higher than its neighbours' crossing lies under their
    maximum; each pass drops every such line at once, which keeps it."""
    order = np.lexsort((b, m))  # of equal slopes, the last has the largest intercept
    last = np.append(m[order][1:] != m[order][:-1], True)
    b, m = b[order][last], m[order][last]
    drop = True
    while len(b) > 2 and np.any(drop):
        drop = (b[1:-1] - b[:-2]) * (m[2:] - m[:-2]) <= (m[1:-1] - m[:-2]) * (b[2:] - b[:-2])
        keep = np.concatenate(([True], ~drop, [True]))
        b, m = b[keep], m[keep]
    cross = (b[:-1] - b[1:]) / (m[1:] - m[:-1])
    knots = np.concatenate(([t0], cross[(cross > t0) & (cross < t1)], [t1]))
    line = np.searchsorted(cross, knots)
    return knots, b[line] + m[line] * knots


def _wedge_layer(array: ArrayGeometry, scatterer: np.ndarray, eps: float, k: float,
                 grid: EvalGrid):
    """(sampled axis, grid-shaped free layer) of a linear array in a 2D scene
    from the envelopes of its elements' wedges, or None unless every cell
    center lies strictly on one side of the array line and the band tau is
    under r/10; cells within tau of an envelope get _kmax_lines' verdict. The
    README derives the wedges and tau, and the evaluation on the grid axes."""
    sampled = array.sampled_axes()
    if array.ndim != 2 or grid.ndim != 2 or len(sampled) != 1:
        return None
    (j,) = sampled
    u, o, d = array.axes[j], array.origin, float(array.spacings[j])
    (v,) = _complement(u)
    outer = np.stack(np.meshgrid(grid.axis_centers(0)[[0, -1]],
                                 grid.axis_centers(1)[[0, -1]]), axis=-1).reshape(-1, 2) - o
    s = outer @ v
    h, t1 = np.min(np.abs(s)), np.max(np.abs(s))
    r = np.sqrt(np.max(np.square(outer @ u - [[0.0], [(array.counts[j] - 1) * d]]) + s * s))
    tau = 1e-10 * r ** 3 / h ** 2 + 1e-9 * r if s.min() * s.max() > 0.0 else np.inf
    if not 10.0 * tau < r:
        return None
    elements, _, _, (pu,) = _element_terms(array, scatterer, eps)
    x = (elements - o) @ u
    beta = 2.0 * np.pi / (k * d)
    bounds = []  # slack = min over (sign, knots) of sign * a - max(sign * (x_e - T t))
    for sign, big_u in ((1.0, pu + beta), (-1.0, pu - beta)):
        live = np.abs(big_u) < 1.0
        if live.any():
            slope = -sign * big_u[live] / np.sqrt((1.0 - big_u[live]) * (1.0 + big_u[live]))
            bounds.append((sign, _upper_envelope(sign * x[live], slope, h, t1)))

    rel = [grid.axis_centers(0)[:, None] - o[0], grid.axis_centers(1) - o[1]]

    def project(w, rows):  # w . (c - o) on the rows, less any term whose w_i is 0
        terms = [p * w_i for p, w_i in zip((rel[0][rows], rel[1]), w) if w_i != 0.0]
        return sum(terms[1:], terms[0])

    free, band = (np.empty(grid.resolution, dtype=bool) for _ in range(2))
    step = max(1, CELL_BLOCK // grid.resolution[1])
    for lo in range(0, grid.resolution[0], step):
        rows = slice(lo, lo + step)
        a, t = project(u, rows), np.abs(project(v, rows))
        slack = np.inf
        for sign, knots in bounds:
            slack = np.minimum(slack, sign * a - np.interp(t, *knots))
        np.greater_equal(slack, 0.0, out=free[rows])
        np.less_equal(np.abs(slack), tau, out=band[rows])
    if band.any():
        near = np.nonzero(band)
        cells = np.stack([grid.axis_centers(i)[n] for i, n in enumerate(near)], axis=-1)
        free[near] = _within_bound(k, _kmax_lines(array, scatterer, eps, k)[1](cells)[0], d)
    return j, free


def aliasing_mask(tx: ArrayGeometry, rx: ArrayGeometry, scene: Scene, wave: WaveParams,
                  grid: EvalGrid, epsilon=None, threads: int = 1) -> AliasingMask:
    """Aliasing-free mask over a grid for both arrays.

    One boolean layer per (array, sampled lattice axis); the combined layer is
    their conjunction. Cells within the exclusion radius of any element of
    either array are marked excluded and false.
    """
    eps = exclusion_radius(wave, epsilon)
    k = wave.wavenumber
    wedges = [_wedge_layer(array, scene.scatterer, eps, k, grid) for array in (tx, rx)]
    # The line kernels of the arrays the wedge path does not take, run per block.
    lined = [(array, *_kmax_lines(array, scene.scatterer, eps, k))
             for array, wedge in zip((tx, rx), wedges) if wedge is None]

    def kernel(cells: np.ndarray) -> tuple:
        return tuple(_within_bound(k, km, array.spacings[j])
                     for array, axes, kmax in lined for j, km in zip(axes, kmax(cells)))

    # Line batches widen the numpy calls only on an axis with more than one
    # lattice line; with none, a second thread only contends for the
    # interpreter lock.
    if not any(a.num_elements > a.counts[j] for a in (tx, rx) for j in a.sampled_axes()):
        threads = 1
    excluded, *frees = _run_blocks(kernel if lined else None, (tx, rx), grid, eps, threads)
    frees, usable = iter(frees), ~excluded
    layers = []
    for label, array, wedge in zip(("tx", "rx"), (tx, rx), wedges):
        for j, free in [wedge] if wedge else ((j, next(frees)) for j in array.sampled_axes()):
            free &= usable
            layers.append(MaskLayer(array_label=label, axis_index=j, free=free))
    return AliasingMask(grid=grid, layers=tuple(layers), excluded=excluded)
