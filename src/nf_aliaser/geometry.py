"""Regular antenna lattices, scenes, and rectangular evaluation grids.

Arrays are exact lattices: element n = origin + sum_j n_j * spacing_j * axis_j,
with orthonormal lattice axes. All values are immutable after construction and
safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, GridError

ORTHO_TOL = 1e-12
ROLE_TAGS = ("transmit", "receive")


def same_dimension(a, b, what: str) -> tuple:
    """a and b as float arrays; GridError when their trailing axes, the
    coordinate counts of the positions they hold, differ."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1:] != b.shape[-1:]:
        raise GridError(f"{what}: positions of shapes {a.shape} and {b.shape} differ in dimension")
    return a, b


def as_number(value, kind: type = float):
    """kind(value) for a number; a boolean or a string raises TypeError, so
    that True and "1.5" are refused instead of becoming 1.0 and 1.5."""
    if isinstance(value, (bool, np.bool_, str)):
        raise TypeError(f"not a number: {value!r}")
    return kind(value)


def _readonly(value, error: type, what: str) -> np.ndarray:
    """value as a read-only float array of at least one dimension.

    Raises error unless every element, as given, passes as_number: the float
    conversion alone would accept True and "0.5" as 1.0 and 0.5.
    """
    try:
        for v in np.asarray(value, dtype=object).flat:
            as_number(v)
    except (TypeError, ValueError) as exc:
        raise error(f"{what} must hold numbers, got {value!r}") from exc
    a = np.atleast_1d(np.array(value, dtype=float))
    a.setflags(write=False)
    return a


def whole_numbers(values, error: type, what: str) -> tuple:
    """A number or a list of numbers as a tuple of ints.

    Integers and whole floats such as 8.0 pass; booleans, fractions and
    non-numbers raise error, so that 64.7 and true are refused instead of
    silently becoming 64 and 1.
    """
    items = tuple(values) if isinstance(values, (list, tuple, np.ndarray)) else (values,)
    for v in items:
        if isinstance(v, (bool, np.bool_)) or not (
                isinstance(v, (int, np.integer))
                or isinstance(v, (float, np.floating)) and v.is_integer()):
            raise error(f"{what}: expected an integer, got {v!r}")
    return tuple(int(v) for v in items)


@dataclass(frozen=True)
class WaveParams:
    """Narrowband wave; every length in the package shares its unit."""

    wavelength: float

    def __post_init__(self):
        try:
            w = as_number(self.wavelength)
        except (TypeError, ValueError) as exc:
            raise GeometryError(f"wavelength must be a number, got {self.wavelength!r}") from exc
        if not np.isfinite(w) or w <= 0.0:
            raise GeometryError(f"wavelength must be positive and finite, got {self.wavelength}")
        object.__setattr__(self, "wavelength", w)

    @property
    def wavenumber(self) -> float:
        """2*pi / wavelength in rad per length unit (derived, never stored)."""
        return 2.0 * np.pi / self.wavelength


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform 1D/2D/3D antenna lattice.

    Parameters
    ----------
    origin : (d,) array_like
        Position of lattice index (0, ..., 0).
    axes : (n_axes, d) array_like
        Orthonormal lattice directions, 1 <= n_axes <= 3.
    counts : tuple of int
        Elements per lattice axis (each >= 1).
    spacings : (n_axes,) array_like
        Inter-element spacing per lattice axis (each > 0).
    role_tag : str
        "transmit" or "receive".
    """

    origin: np.ndarray
    axes: np.ndarray
    counts: tuple
    spacings: np.ndarray
    role_tag: str

    def __post_init__(self):
        origin = _readonly(self.origin, GeometryError, "origin")
        axes = np.atleast_2d(_readonly(self.axes, GeometryError, "axes"))
        spacings = _readonly(self.spacings, GeometryError, "spacings")
        counts = whole_numbers(self.counts, GeometryError, "counts")

        d = origin.shape[0]
        if origin.ndim != 1 or d < 1 or d > 3:
            raise GeometryError(f"origin must be a 1-3 component vector, got shape {origin.shape}")
        if not np.all(np.isfinite(origin)):
            raise GeometryError(f"origin must be finite, got {origin}")
        if axes.shape[1] != d:
            raise GeometryError(f"axes must have {d} components to match origin, got {axes.shape}")
        n_axes = axes.shape[0]
        if not 1 <= n_axes <= 3 or n_axes > d:
            raise GeometryError(f"need 1..min(3, {d}) lattice axes, got {n_axes}")
        gram = axes @ axes.T
        if not np.allclose(gram, np.eye(n_axes), atol=ORTHO_TOL):
            raise GeometryError("lattice axes must be pairwise orthogonal unit vectors")
        if len(counts) != n_axes or any(c < 1 for c in counts):
            raise GeometryError(f"counts must give >= 1 element per lattice axis, got {counts}")
        if spacings.shape != (n_axes,) or np.any(spacings <= 0) or not np.all(np.isfinite(spacings)):
            raise GeometryError(f"spacings must be positive per lattice axis, got {self.spacings}")
        if self.role_tag not in ROLE_TAGS:
            raise GeometryError(f"role_tag must be one of {ROLE_TAGS}, got {self.role_tag!r}")

        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "spacings", spacings)

    @property
    def ndim(self) -> int:
        return self.origin.shape[0]

    @property
    def n_axes(self) -> int:
        return self.axes.shape[0]

    @property
    def num_elements(self) -> int:
        n = 1
        for c in self.counts:
            n *= c
        return n

    @property
    def center(self) -> np.ndarray:
        offs = [(c - 1) / 2.0 * s for c, s in zip(self.counts, self.spacings)]
        return self.origin + np.asarray(offs) @ self.axes

    def lattice_axis(self, axis_index) -> int:
        """axis_index as an int: the one check of an argument that names a
        lattice axis. GeometryError unless it is an integer in 0..n_axes-1;
        a negative index would silently name an axis from the end."""
        if (isinstance(axis_index, (bool, np.bool_))
                or not isinstance(axis_index, (int, np.integer))
                or not 0 <= axis_index < self.n_axes):
            raise GeometryError(f"axis_index must be an integer in 0..{self.n_axes - 1}, "
                                f"got {axis_index!r}")
        return int(axis_index)

    def sampled_axes(self) -> tuple:
        """Indices of lattice axes that actually sample space (>= 2 elements)."""
        return tuple(j for j, c in enumerate(self.counts) if c >= 2)

    def element_positions(self) -> np.ndarray:
        """All element positions, (num_elements, d), in lattice index order.

        The first lattice axis varies slowest (row-major enumeration).
        """
        grids = np.meshgrid(*[np.arange(c, dtype=float) for c in self.counts], indexing="ij")
        idx = np.stack([g.ravel() for g in grids], axis=-1)
        steps = self.spacings[:, None] * self.axes
        return self.origin[None, :] + idx @ steps


def _complement(axes) -> np.ndarray:
    """Orthonormal rows spanning the directions perpendicular to the
    orthonormal rows of axes: [-u_y, u_x] for one row u in 2D; otherwise each
    coordinate axis in index order, less its projections on the rows so far,
    kept normalised if at least half its length remains (the squared residuals
    sum to d - k >= 1 for k rows in d dimensions, so enough do). Distances
    from a line along these rows have no cancellation, and are exactly 0 on an
    axis-aligned line. An SVD would add 1 MB of LAPACK workspace to the peak.
    """
    axes = np.atleast_2d(axes)
    if axes.shape == (1, 2):
        return np.array([[-axes[0, 1], axes[0, 0]]])
    rows = list(axes)
    for e in np.eye(axes.shape[1]):
        for r in rows:
            e -= (e @ r) * r
        if e @ e >= 0.25:
            rows.append(e / np.sqrt(e @ e))
    return np.array(rows[len(axes):]).reshape(-1, axes.shape[1])


def build_uniform_array(origin, axes, counts, spacings, role_tag) -> ArrayGeometry:
    """Construct a validated uniform lattice array.

    The array center is origin + sum_j (counts_j - 1)/2 * spacing_j * axis_j.
    Raises GeometryError for non-orthonormal axes, non-positive spacings or
    counts, or an unknown role tag.
    """
    return ArrayGeometry(origin=origin, axes=axes, counts=counts,
                         spacings=spacings, role_tag=role_tag)


def min_element_distance(geometry: ArrayGeometry, point) -> float:
    """Smallest Euclidean distance from `point` to any array element."""
    elements, p = same_dimension(geometry.element_positions(), point, "min_element_distance")
    return float(np.min(np.linalg.norm(elements - p, axis=-1)))


@dataclass(frozen=True)
class Scene:
    """A single point scatterer with complex reflectivity."""

    scatterer: np.ndarray
    reflectivity: complex = 1.0 + 0.0j

    def __post_init__(self):
        pos = _readonly(self.scatterer, GeometryError, "scatterer")
        if pos.ndim != 1 or not 1 <= pos.shape[0] <= 3 or not np.all(np.isfinite(pos)):
            raise GeometryError(f"scatterer must be a finite 1-3 component vector, got {self.scatterer}")
        try:
            refl = as_number(self.reflectivity, complex)
        except (TypeError, ValueError) as exc:
            raise GeometryError(f"reflectivity must be a number, got {self.reflectivity!r}") from exc
        if not np.isfinite(refl):
            raise GeometryError(f"reflectivity must be finite, got {self.reflectivity}")
        object.__setattr__(self, "scatterer", pos)
        object.__setattr__(self, "reflectivity", refl)


@dataclass(frozen=True)
class EvalGrid:
    """Rectangular grid of tentative scatterer locations (cell centers)."""

    corner_min: np.ndarray
    corner_max: np.ndarray
    resolution: tuple

    def __post_init__(self):
        lo = _readonly(self.corner_min, GridError, "corner_min")
        hi = _readonly(self.corner_max, GridError, "corner_max")
        res = whole_numbers(self.resolution, GridError, "resolution")
        d = lo.shape[0]
        if hi.shape != (d,) or len(res) != d:
            raise GridError("corner_min, corner_max and resolution must share one dimensionality")
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.isfinite(hi - lo)):
                raise GridError(f"grid corners and extent must be finite, got {lo} and {hi}")
        if not np.all(lo < hi):
            raise GridError(f"corner_min must be < corner_max component-wise, got {lo} vs {hi}")
        if any(r < 2 for r in res):
            raise GridError(f"resolution must be >= 2 per axis, got {res}")
        object.__setattr__(self, "corner_min", lo)
        object.__setattr__(self, "corner_max", hi)
        object.__setattr__(self, "resolution", res)

    @property
    def ndim(self) -> int:
        return self.corner_min.shape[0]

    @property
    def num_cells(self) -> int:
        n = 1
        for r in self.resolution:
            n *= r
        return n

    @property
    def cell_sizes(self) -> np.ndarray:
        return (self.corner_max - self.corner_min) / np.asarray(self.resolution)

    def axis_centers(self, j: int) -> np.ndarray:
        size = self.cell_sizes[j]
        return self.corner_min[j] + (np.arange(self.resolution[j]) + 0.5) * size

    def cell_centers(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Centers of cells start..stop-1 in row-major order (first axis
        slowest), (stop - start, d); all cells by default."""
        flat = np.arange(start, self.num_cells if stop is None else stop)
        index = np.unravel_index(flat, self.resolution)
        return np.stack([self.axis_centers(j)[i] for j, i in enumerate(index)], axis=-1)

    def cell_index(self, point) -> tuple:
        """Multi-index of the cell containing a finite `point` (clipped to the grid)."""
        p, _ = same_dimension(point, self.corner_min, "cell_index")
        if not np.all(np.isfinite(p)):
            raise GridError(f"cell_index: point must be finite, got {p}")
        # Clipped as floats: a far point would overflow the integer cast.
        idx = np.floor((p - self.corner_min) / self.cell_sizes)
        idx = np.clip(idx, 0, np.asarray(self.resolution) - 1).astype(int)
        return tuple(int(i) for i in idx)
