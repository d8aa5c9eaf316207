import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nf_aliaser import (
    EvalGrid,
    GeometryError,
    GridError,
    Scene,
    WaveParams,
    build_uniform_array,
)
from nf_aliaser.geometry import _complement, min_element_distance


def test_wavenumber_is_derived():
    wave = WaveParams(0.75)
    assert wave.wavenumber * wave.wavelength == pytest.approx(2 * np.pi, rel=1e-15)
    assert WaveParams(3.0).wavenumber == pytest.approx(2 * np.pi / 3.0, rel=1e-15)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_wavelength_must_be_positive(bad):
    with pytest.raises(GeometryError):
        WaveParams(bad)


def test_two_element_lattice():
    arr = build_uniform_array([0, 0], [[1, 0]], [2], [0.5], "transmit")
    np.testing.assert_allclose(arr.element_positions(), [[0, 0], [0.5, 0]])


def test_single_element_array():
    arr = build_uniform_array([3.0, -2.0], [[0, 1]], [1], [1.0], "receive")
    np.testing.assert_allclose(arr.element_positions(), [[3.0, -2.0]])
    assert arr.sampled_axes() == ()


def test_fig1_style_linear_array():
    # 64 antennas over 500 wavelengths (spacing 500/64), centered at (500, 0)
    spacing = 500.0 / 64
    origin = [500.0 - 63 / 2 * spacing, 0.0]
    arr = build_uniform_array(origin, [[1, 0]], [64], [spacing], "transmit")
    assert arr.num_elements == 64
    np.testing.assert_allclose(arr.center, [500.0, 0.0], atol=1e-12)
    pos = arr.element_positions()
    assert pos.shape == (64, 2)
    np.testing.assert_allclose(pos[:, 1], 0.0)
    np.testing.assert_allclose(pos[-1, 0] - pos[0, 0], 63 * spacing, rtol=1e-14)


def test_receive_array_along_y_has_constant_x():
    spacing = 500.0 / 64
    arr = build_uniform_array([0.0, 250.0], [[0, 1]], [64], [spacing], "receive")
    pos = arr.element_positions()
    assert np.all(pos[:, 0] == 0.0)
    assert len(pos) == 64


def test_planar_array_matches_double_loop():
    spacing = 0.7
    arr = build_uniform_array([1.0, 2.0], [[1, 0], [0, 1]], [64, 64],
                              [spacing, spacing], "transmit")
    pos = arr.element_positions()
    assert pos.shape == (64 * 64, 2)
    expected = np.array([[1.0 + i * spacing, 2.0 + j * spacing]
                         for i in range(64) for j in range(64)])
    np.testing.assert_allclose(pos, expected, atol=1e-12)


def test_random_rotated_lattice_matches_triple_loop():
    rng = np.random.default_rng(42)
    theta = rng.uniform(0, 2 * np.pi)
    ax1 = np.array([np.cos(theta), np.sin(theta), 0.0])
    ax2 = np.array([-np.sin(theta), np.cos(theta), 0.0])
    ax3 = np.array([0.0, 0.0, 1.0])
    origin = rng.uniform(-5, 5, 3)
    counts = (3, 4, 2)
    spacings = rng.uniform(0.2, 2.0, 3)
    arr = build_uniform_array(origin, [ax1, ax2, ax3], counts, spacings, "transmit")
    pos = arr.element_positions()
    brute = []
    for i in range(counts[0]):
        for j in range(counts[1]):
            for k in range(counts[2]):
                brute.append(origin + i * spacings[0] * ax1 + j * spacings[1] * ax2
                             + k * spacings[2] * ax3)
    np.testing.assert_allclose(pos, np.array(brute), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    counts=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    spacing0=st.floats(0.1, 10.0),
    spacing1=st.floats(0.1, 10.0),
    theta=st.floats(0.0, 6.2),
)
def test_lattice_exactness_and_count(counts, spacing0, spacing1, theta):
    ax1 = np.array([np.cos(theta), np.sin(theta)])
    ax2 = np.array([-np.sin(theta), np.cos(theta)])
    arr = build_uniform_array([0.3, -0.7], [ax1, ax2], counts,
                              [spacing0, spacing1], "receive")
    pos = arr.element_positions().reshape(counts + (2,))
    assert pos.shape[0] * pos.shape[1] == arr.num_elements
    if counts[0] >= 2:
        steps = pos[1:, :, :] - pos[:-1, :, :]
        np.testing.assert_allclose(steps, np.broadcast_to(spacing0 * ax1, steps.shape),
                                   atol=1e-12 * spacing0 + 1e-12)
    if counts[1] >= 2:
        steps = pos[:, 1:, :] - pos[:, :-1, :]
        np.testing.assert_allclose(steps, np.broadcast_to(spacing1 * ax2, steps.shape),
                                   atol=1e-12 * spacing1 + 1e-12)


def test_element_positions_deterministic():
    arr = build_uniform_array([0.1, 0.2], [[1, 0], [0, 1]], [5, 7], [0.31, 0.57],
                              "transmit")
    a = arr.element_positions()
    b = arr.element_positions()
    assert np.array_equal(a, b)


@pytest.mark.parametrize("axes", [
    [[1, 0], [1, 0]],            # parallel
    [[1, 0], [0.6, 0.8001]],     # not orthogonal
    [[2, 0]],                    # not unit norm
])
def test_bad_axes_rejected(axes):
    counts = [2] * len(axes)
    spacings = [1.0] * len(axes)
    with pytest.raises(GeometryError):
        build_uniform_array([0, 0], axes, counts, spacings, "transmit")


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


TILTS = [1e-3, 1e-6, 1e-9, 1e-12, -1e-12]
E3 = np.eye(3)
# Orthonormal inputs: near-axis lines and planes (the second row is exactly
# orthogonal to the first before normalising), then seeded random rotations.
COMPLEMENT_CASES = (
    [[[1.0]], [[-1.0]], [[1.0, 0.0], [0.0, 1.0]]]
    + [[_unit([np.cos(a), np.sin(a)])] for a in np.random.default_rng(1).uniform(-4, 4, 8)]
    + [[_unit(E3[i] + t * E3[j])] for t in TILTS for i in range(3) for j in range(3) if i != j]
    + [[_unit(E3[0] + t * (E3[1] + E3[2]))] for t in TILTS]
    + [[_unit(E3[i] + t * E3[j]), _unit(E3[j] - t * E3[i])]
       for t in TILTS for i, j in ((0, 1), (1, 2), (2, 0))]
    + [list(np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))[0][:k])
       for seed in range(6) for k in (1, 2)]
)


@pytest.mark.parametrize("axes", COMPLEMENT_CASES)
def test_complement_is_orthonormal_and_perpendicular(axes):
    axes = np.array(axes, dtype=float)
    k, d = axes.shape
    rows = _complement(axes)
    assert rows.shape == (d - k, d)
    full = np.vstack([axes, rows])
    np.testing.assert_allclose(full @ full.T, np.eye(d), rtol=0, atol=1e-14)
    if (k, d) == (1, 2):
        np.testing.assert_array_equal(rows, [[-axes[0, 1], axes[0, 0]]])


@pytest.mark.parametrize("axes, added", [
    ([[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ([[0.0, -1.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    ([[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]]),
])
def test_complement_of_coordinate_axes_is_exact(axes, added):
    np.testing.assert_array_equal(_complement(np.array(axes)), added)


def test_bad_counts_and_spacings_rejected():
    with pytest.raises(GeometryError):
        build_uniform_array([0, 0], [[1, 0]], [0], [1.0], "transmit")
    with pytest.raises(GeometryError):
        build_uniform_array([0, 0], [[1, 0]], [4], [0.0], "transmit")
    with pytest.raises(GeometryError):
        build_uniform_array([0, 0], [[1, 0]], [4], [-2.0], "transmit")
    with pytest.raises(GeometryError):
        build_uniform_array([0, 0], [[1, 0]], [4], [1.0], "emitter")


@pytest.mark.parametrize("counts", [[64.7], [True], 8.5, np.array([4.5])])
def test_fractional_and_boolean_counts_rejected(counts):
    with pytest.raises(GeometryError, match="counts: expected an integer"):
        build_uniform_array([0, 0], [[1, 0]], counts, [1.0], "transmit")


def test_whole_float_counts_accepted():
    arr = build_uniform_array([0, 0], [[1, 0], [0, 1]], [8.0, np.int64(3)], [1.0, 1.0],
                              "transmit")
    assert arr.counts == (8, 3)


@pytest.mark.parametrize("origin", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0]])
def test_non_finite_origin_rejected(origin):
    with pytest.raises(GeometryError, match="finite"):
        build_uniform_array(origin, [[1, 0]], [4], [1.0], "transmit")


def test_geometry_immutable():
    arr = build_uniform_array([0, 0], [[1, 0]], [4], [1.0], "transmit")
    with pytest.raises(ValueError):
        arr.origin[0] = 5.0


def test_min_element_distance():
    arr = build_uniform_array([0, 0], [[1, 0]], [3], [1.0], "transmit")
    assert min_element_distance(arr, [2.0, 3.0]) == pytest.approx(3.0)


@pytest.mark.parametrize("point", [[15.0], [15.0, 1.0, 2.0]])
def test_min_element_distance_dimension_mismatch(point):
    arr = build_uniform_array([0, 0], [[1, 0]], [4], [1.0], "transmit")
    with pytest.raises(GridError, match="min_element_distance"):
        min_element_distance(arr, point)


def test_scene_validation():
    s = Scene([1.0, 2.0], 2j)
    assert s.reflectivity == 2j
    with pytest.raises(GeometryError):
        Scene([np.nan, 0.0])


@pytest.mark.parametrize("make, what", [
    (lambda: WaveParams(True), "wavelength"),
    (lambda: WaveParams(np.True_), "wavelength"),
    (lambda: WaveParams("1.5"), "wavelength"),
    (lambda: Scene([1.0, 2.0], reflectivity="1+2j"), "reflectivity"),
    (lambda: Scene([1.0, 2.0], reflectivity=True), "reflectivity"),
    (lambda: Scene([1.0, 2.0], reflectivity=np.str_("2")), "reflectivity"),
])
def test_boolean_and_string_numbers_rejected(make, what):
    with pytest.raises(GeometryError, match=f"{what} must be a number"):
        make()


# np.array(..., dtype=float) alone would accept each of these as numbers.
@pytest.mark.parametrize("make, error, what", [
    (lambda: Scene(["1", "2"]), GeometryError, "scatterer"),
    (lambda: Scene([True, 5.0]), GeometryError, "scatterer"),
    (lambda: EvalGrid(["0", "0"], [1, 1], (2, 2)), GridError, "corner_min"),
    (lambda: build_uniform_array(["0", "0"], [[1, 0]], [4], ["0.5"], "transmit"),
     GeometryError, "origin"),
])
def test_positions_refuse_booleans_and_strings(make, error, what):
    with pytest.raises(error, match=f"{what} must hold numbers"):
        make()


@pytest.mark.parametrize("reflectivity", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                          -np.inf])
def test_non_finite_reflectivity_rejected(reflectivity):
    with pytest.raises(GeometryError, match="reflectivity must be finite"):
        Scene([1.0, 2.0], reflectivity)


class TestEvalGrid:
    def test_cell_centers_row_major(self):
        grid = EvalGrid([0.0, 0.0], [4.0, 2.0], (2, 2))
        np.testing.assert_allclose(
            grid.cell_centers(),
            [[1.0, 0.5], [1.0, 1.5], [3.0, 0.5], [3.0, 1.5]],
        )

    def test_cell_center_ranges_join_to_all_cells(self):
        grid = EvalGrid([-1.0, 0.0, 2.0], [3.0, 5.0, 2.5], (3, 4, 5))
        ranges = [(0, 7), (7, 8), (8, 33), (33, 60)]
        joined = np.vstack([grid.cell_centers(a, b) for a, b in ranges])
        np.testing.assert_array_equal(joined, grid.cell_centers())
        assert grid.cell_centers(5, 5).shape == (0, 3)

    def test_cell_index(self):
        grid = EvalGrid([0.0, 0.0], [10.0, 10.0], (5, 5))
        assert grid.cell_index([0.1, 9.9]) == (0, 4)
        assert grid.cell_index([5.0, 5.0]) == (2, 2)
        # exactly on the outer corner clips into the last cell
        assert grid.cell_index([10.0, 10.0]) == (4, 4)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("point, index", [([1e300, 5.0], (4, 2)),
                                              ([5.0, -1e300], (2, 0)),
                                              ([-1.7e308, 1.7e308], (0, 4))])
    def test_cell_index_far_point_clips_to_its_edge(self, point, index):
        grid = EvalGrid([0.0, 0.0], [10.0, 10.0], (5, 5))
        assert grid.cell_index(point) == index

    @pytest.mark.parametrize("point", [[15.0], [15.0, 15.0, 15.0], 15.0])
    def test_cell_index_dimension_mismatch(self, point):
        grid = EvalGrid([10.0, 10.0], [20.0, 20.0], (4, 4))
        with pytest.raises(GridError, match="cell_index"):
            grid.cell_index(point)

    @pytest.mark.parametrize("point", [[np.nan, 15.0], [np.inf, 15.0], [15.0, -np.inf]])
    def test_cell_index_non_finite_rejected(self, point):
        grid = EvalGrid([10.0, 10.0], [20.0, 20.0], (4, 4))
        with pytest.raises(GridError, match="finite"):
            grid.cell_index(point)

    def test_validation(self):
        with pytest.raises(GridError):
            EvalGrid([0.0, 0.0], [1.0, -1.0], (4, 4))
        with pytest.raises(GridError):
            EvalGrid([0.0, 0.0], [1.0, 1.0], (1, 4))
        with pytest.raises(GridError):
            EvalGrid([0.0], [1.0, 1.0], (4, 4))

    @pytest.mark.parametrize("lo, hi", [
        ([0.0, 0.0], [np.inf, 1.0]),
        ([-np.inf, 0.0], [1.0, 1.0]),
        ([np.nan, 0.0], [1.0, 1.0]),
        ([-1e308, 0.0], [1e308, 1.0]),  # finite corners, but the extent overflows
    ])
    def test_non_finite_corners_rejected(self, lo, hi):
        with pytest.raises(GridError, match="finite"):
            EvalGrid(lo, hi, (4, 4))

    @pytest.mark.parametrize("resolution", [(16.9, 3), (16, True), np.array([4.5, 4.0])])
    def test_fractional_and_boolean_resolution_rejected(self, resolution):
        with pytest.raises(GridError, match="resolution: expected an integer"):
            EvalGrid([0.0, 0.0], [1.0, 1.0], resolution)

    def test_whole_float_resolution_accepted(self):
        assert EvalGrid([0.0, 0.0], [1.0, 1.0], (16.0, 3)).resolution == (16, 3)

    def test_num_cells_and_sizes(self):
        grid = EvalGrid([0.0, 0.0], [1.0, 2.0], (4, 8))
        assert grid.num_cells == 32
        np.testing.assert_allclose(grid.cell_sizes, [0.25, 0.25])
