import numpy as np
import pytest

from nf_aliaser import (
    ComplexField,
    EvalGrid,
    GridError,
    Scene,
    SingularityError,
    WaveParams,
    aliasing_free,
    aliasing_mask,
    bistatic_image,
    build_uniform_array,
    chirp_phase,
    chirp_value,
    direct_image,
    green,
    local_wavenumber,
    magnitude_db,
    max_spatial_frequency,
    partial_image,
    partial_image_at,
    sample_chirp_along_axis,
)
from nf_aliaser import chirp, imaging
from nf_aliaser.geometry import min_element_distance
from nf_aliaser.chirp import LINE_BATCH
from nf_aliaser.imaging import (
    CELL_BLOCK,
    ELEMENT_BATCH,
    _chirp_sum,
    _distance,
    _nearest_distance,
    _run_blocks,
    _scatterer_distances,
)

WAVE = WaveParams(1.0)

# fig1 transmit array: 64 antennas, spacing 500/64, centered at (500, 0)
FIG1_SPACING = 500.0 / 64
FIG1_TX = build_uniform_array([500.0 - 63 / 2 * FIG1_SPACING, 0.0], [[1, 0]], [64],
                              [FIG1_SPACING], "transmit")
FIG1_SCENE = Scene([1000.0, 1000.0])
FIG1_GRID = EvalGrid([150.0, 150.0], [1850.0, 1850.0], (255, 255))

# Frozen from a 50-digit mpmath evaluation of the 64-term chirp sum at fixed
# fig1 grid cells (cell index -> expected complex value).
FIG1_TX_PARTIAL_CASES = [
    ((20, 40), complex(-1.0948619017223366e-06, -2.1226059406008876e-05)),
    ((50, 200), complex(7.166005853704886e-08, 6.314178722100449e-07)),
    ((100, 100), complex(-6.390739103527593e-06, 5.583149080190567e-06)),
    ((127, 127), complex(5.10109288681924e-05, 0.0)),
    ((180, 60), complex(-5.484476577571508e-06, 8.590023598779096e-07)),
    ((200, 220), complex(-2.1195505833465974e-06, 1.213132138342438e-06)),
    ((33, 77), complex(1.6529609662658417e-06, 1.0382518715491465e-05)),
    ((66, 150), complex(3.7550349007651808e-06, -8.320047254314701e-07)),
    ((240, 10), complex(5.024310971373302e-06, -3.1291151862484823e-06)),
    ((5, 5), complex(2.566962953067683e-06, 1.6368701712941503e-05)),
]


def random_lattice(rng, role, max_count=4):
    theta = rng.uniform(0, 2 * np.pi)
    ax1 = np.array([np.cos(theta), np.sin(theta)])
    n_axes = rng.integers(1, 3)
    axes = [ax1] if n_axes == 1 else [ax1, np.array([-ax1[1], ax1[0]])]
    counts = tuple(int(rng.integers(1, max_count + 1)) for _ in range(n_axes))
    spacings = rng.uniform(0.3, 3.0, n_axes)
    origin = rng.uniform(-20, 20, 2)
    return build_uniform_array(origin, axes, counts, spacings, role)


class TestPartialImage:
    def test_single_element_equals_chirp_value(self):
        arr = build_uniform_array([0.0, 0.0], [[1, 0]], [1], [1.0], "transmit")
        scene = Scene([10.0, 0.0])
        grid = EvalGrid([4.0, 1.0], [8.0, 5.0], (2, 2))
        field = partial_image(arr, scene, WAVE, grid)
        for cell, value in zip(grid.cell_centers(), field.values.ravel()):
            expected = chirp_value([0.0, 0.0], cell, [10.0, 0.0], WAVE)
            assert value == pytest.approx(expected, rel=1e-13)
            d_t = np.linalg.norm(cell)
            assert abs(value) == pytest.approx(1.0 / (d_t * 10.0), rel=1e-13)

    def test_matched_cell_real_positive_sum_inverse_square(self):
        arr = build_uniform_array([0.0, 0.0], [[1, 0]], [5], [0.7], "transmit")
        scene = Scene([3.75, 8.75])  # center of cell (1, 1) below
        grid = EvalGrid([0.0, 5.0], [5.0, 10.0], (2, 2))
        field = partial_image(arr, scene, WAVE, grid)
        value = field.values[1, 1]
        dists = np.linalg.norm(arr.element_positions() - scene.scatterer, axis=-1)
        assert value.imag == 0.0
        assert value.real == pytest.approx(np.sum(1.0 / dists**2), rel=1e-13)

    def test_fig1_against_extended_precision(self):
        field = partial_image(FIG1_TX, FIG1_SCENE, WAVE, FIG1_GRID)
        for (i, j), expected in FIG1_TX_PARTIAL_CASES:
            assert field.values[i, j] == pytest.approx(expected, rel=1e-10)

    def test_point_evaluator_matches_grid(self):
        field = partial_image(FIG1_TX, FIG1_SCENE, WAVE, FIG1_GRID)
        pts = FIG1_GRID.cell_centers()[[17, 4021, 60002]]
        vals = partial_image_at(FIG1_TX, pts, FIG1_SCENE, WAVE)
        np.testing.assert_array_equal(vals, field.values.ravel()[[17, 4021, 60002]])

    def test_point_evaluator_matches_planar_grid_in_3d(self):
        arr = build_uniform_array([-2.0, -1.5, 0.0], [[1, 0, 0], [0, 0.6, 0.8]], [5, 4],
                                  [1.1, 0.9], "receive")
        scene = Scene([3.0, 4.0, 12.0])
        grid = EvalGrid([-6.0, -6.0, -3.0], [6.0, 6.0, 9.0], (5, 6, 7))
        field = partial_image(arr, scene, WAVE, grid, threads=2)
        usable = ~field.excluded.ravel()
        vals = partial_image_at(arr, grid.cell_centers()[usable], scene, WAVE)
        np.testing.assert_array_equal(vals, field.values.ravel()[usable])

    def test_cells_near_elements_are_excluded(self):
        arr = build_uniform_array([0.5, 0.5], [[1, 0]], [2], [1.0], "transmit")
        scene = Scene([50.0, 50.0])
        grid = EvalGrid([0.0, 0.0], [4.0, 4.0], (4, 4))  # cell (0,0) center (0.5,0.5)
        field = partial_image(arr, scene, WAVE, grid)
        assert field.excluded[0, 0]
        assert field.values[0, 0] == 0.0
        assert np.isfinite(field.values[~field.excluded]).all()

    def test_scatterer_too_close_to_array(self):
        arr = build_uniform_array([0.0, 0.0], [[1, 0]], [4], [1.0], "transmit")
        with pytest.raises(SingularityError):
            partial_image(arr, Scene([2.0, 0.05]), WAVE,
                          EvalGrid([10.0, 10.0], [20.0, 20.0], (2, 2)))

    def test_point_evaluator_refuses_a_point_near_an_element_before_summing(self,
                                                                            monkeypatch):
        arr = build_uniform_array([0.0, 0.0], [[1, 0]], [4], [1.0], "transmit")

        def no_sum(*args):
            raise AssertionError("the chirp sum ran")

        monkeypatch.setattr(imaging, "_chirp_sum", no_sum)
        with pytest.raises(SingularityError):
            partial_image_at(arr, [[10.0, 10.0], [2.05, 0.0]], Scene([50.0, 50.0]), WAVE)

    @pytest.mark.parametrize("point", [[np.nan, 5.0], [np.inf, 5.0], [3.0, -np.inf]])
    def test_point_evaluator_refuses_non_finite_points(self, monkeypatch, point):
        arr = build_uniform_array([0.0, 0.0], [[1, 0]], [4], [1.0], "transmit")

        def no_cells(*args):
            raise AssertionError("a cell was evaluated")

        monkeypatch.setattr(imaging, "_distance", no_cells)
        with pytest.raises(GridError, match="finite"):
            partial_image_at(arr, [[10.0, 10.0], point], Scene([50.0, 50.0]), WAVE)

    def test_fully_excluded_grid_rejected(self):
        arr = build_uniform_array([0.05, 0.05], [[1, 0]], [1], [1.0], "transmit")
        grid = EvalGrid([0.0, 0.0], [0.1, 0.1], (2, 2))  # all centers within 0.1
        with pytest.raises(GridError):
            partial_image(arr, Scene([50.0, 50.0]), WAVE, grid)

    def test_hermitian_swap(self):
        rng = np.random.default_rng(3)
        arr = random_lattice(rng, "transmit")
        a = rng.uniform(30, 60, 2)
        b = rng.uniform(-60, -30, 2)
        fwd = partial_image_at(arr, a[None, :], Scene(b), WAVE)[0]
        rev = partial_image_at(arr, b[None, :], Scene(a), WAVE)[0]
        assert fwd == pytest.approx(np.conj(rev), rel=1e-13)

    def test_threaded_matches_serial_bitwise(self):
        serial = partial_image(FIG1_TX, FIG1_SCENE, WAVE,
                               EvalGrid([150.0, 150.0], [1850.0, 1850.0], (64, 64)))
        threaded = partial_image(FIG1_TX, FIG1_SCENE, WAVE,
                                 EvalGrid([150.0, 150.0], [1850.0, 1850.0], (64, 64)),
                                 threads=4)
        assert np.array_equal(serial.values, threaded.values)


class TestBistaticImage:
    def test_identity_factor(self):
        st = partial_image(FIG1_TX, FIG1_SCENE, WAVE,
                           EvalGrid([150.0, 150.0], [1850.0, 1850.0], (8, 8)))
        ones = type(st)(grid=st.grid, values=np.ones_like(st.values),
                        excluded=np.zeros_like(st.excluded),
                        scatterer=st.scatterer)
        image = bistatic_image(st, ones, 1.0)
        np.testing.assert_array_equal(image.values, st.values)

    def test_zero_reflectivity(self):
        st = partial_image(FIG1_TX, FIG1_SCENE, WAVE,
                           EvalGrid([150.0, 150.0], [1850.0, 1850.0], (8, 8)))
        image = bistatic_image(st, st, 0.0)
        assert np.all(image.values == 0.0)

    def test_grid_mismatch_rejected(self):
        g1 = EvalGrid([0.0, 0.0], [10.0, 10.0], (4, 4))
        g2 = EvalGrid([0.0, 0.0], [10.0, 10.0], (8, 8))
        scene = Scene([50.0, 50.0])
        arr = build_uniform_array([0.0, 0.0], [[1, 0]], [2], [1.0], "transmit")
        f1 = partial_image(arr, scene, WAVE, g1)
        f2 = partial_image(arr, scene, WAVE, g2)
        with pytest.raises(GridError):
            bistatic_image(f1, f2, 1.0)

    def test_scene_mismatch_rejected(self):
        grid = EvalGrid([0.0, 0.0], [10.0, 10.0], (4, 4))
        arr = build_uniform_array([0.0, 0.0], [[1, 0]], [2], [1.0], "transmit")
        f1 = partial_image(arr, Scene([50.0, 50.0]), WAVE, grid)
        f2 = partial_image(arr, Scene([60.0, 50.0]), WAVE, grid)
        with pytest.raises(GridError, match="different scenes"):
            bistatic_image(f1, f2, 1.0)

    def test_reflectivity_linearity(self):
        rng = np.random.default_rng(11)
        tx = random_lattice(rng, "transmit")
        rx = random_lattice(rng, "receive")
        grid = EvalGrid([30.0, 30.0], [60.0, 60.0], (6, 6))
        scene1 = Scene([45.0, 45.0], 1.0)
        scene2 = Scene([45.0, 45.0], 0.5 - 2.0j)
        st1 = partial_image(tx, scene1, WAVE, grid)
        sr1 = partial_image(rx, scene1, WAVE, grid)
        i1 = bistatic_image(st1, sr1, scene1.reflectivity)
        i2 = bistatic_image(st1, sr1, scene2.reflectivity)
        np.testing.assert_allclose(i2.values, (0.5 - 2.0j) * i1.values, rtol=1e-13)
        assert (np.argmax(np.abs(i2.values)) == np.argmax(np.abs(i1.values)))


def naive_quadruple_loop(tx, rx, scene, wave, grid):
    """Literal double sum over element pairs, cell by cell, t-outer/r-inner.

    Arithmetic goes through 1-element numpy arrays: numpy's scalar kernels
    may round differently from its (chunk-invariant) array kernels, and the
    comparison below is exact.
    """
    k = wave.wavenumber
    et = tx.element_positions()
    er = rx.element_positions()
    dst = np.linalg.norm(et - scene.scatterer, axis=-1)
    dsr = np.linalg.norm(er - scene.scatterer, axis=-1)
    z_t = np.exp(-1j * k * dst) / dst
    z_r = np.exp(-1j * k * dsr) / dsr
    zeta = scene.reflectivity
    out = np.zeros(grid.num_cells, dtype=np.complex128)
    for ci, c in enumerate(grid.cell_centers()):
        cell = c[None, :]
        acc = np.zeros(1, dtype=np.complex128)
        czt = []
        for e in et:
            diff = cell - e[None, :]
            dt = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            czt.append(np.exp(1j * k * dt) / dt)
        for it in range(len(et)):
            for ir in range(len(er)):
                diff = cell - er[ir][None, :]
                dr = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                u = zeta * z_r[ir] * z_t[it]
                acc += u * (np.exp(1j * k * dr) / dr) * czt[it]
        out[ci] = acc[0]
    return out.reshape(grid.resolution)


class TestDirectImage:
    def test_one_by_one_arrays(self):
        tx = build_uniform_array([0.0, 0.0], [[1, 0]], [1], [1.0], "transmit")
        rx = build_uniform_array([10.0, 0.0], [[1, 0]], [1], [1.0], "receive")
        scene = Scene([5.0, 5.0], 2.0j)
        grid = EvalGrid([2.0, 2.0], [8.0, 8.0], (2, 2))
        field = direct_image(tx, rx, scene, WAVE, grid)
        for cell, value in zip(grid.cell_centers(), field.values.ravel()):
            expected = (2.0j * chirp_value([0.0, 0.0], cell, [5.0, 5.0], WAVE)
                        * chirp_value([10.0, 0.0], cell, [5.0, 5.0], WAVE))
            assert value == pytest.approx(expected, rel=1e-12)

    def test_matches_naive_quadruple_loop_bitwise(self):
        rng = np.random.default_rng(17)
        tx = build_uniform_array([-3.0, 1.0], [[1, 0], [0, 1]], [4, 4], [0.8, 1.1],
                                 "transmit")
        rx = build_uniform_array([12.0, -2.0], [[0, 1], [1, 0]], [4, 4], [0.9, 0.7],
                                 "receive")
        scene = Scene(rng.uniform(25, 40, 2), 1.5 - 0.25j)
        grid = EvalGrid([20.0, 20.0], [45.0, 45.0], (8, 8))
        field = direct_image(tx, rx, scene, WAVE, grid)
        oracle = naive_quadruple_loop(tx, rx, scene, WAVE, grid)
        assert np.array_equal(field.values, oracle)

    def test_separability_against_product_route(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            tx = random_lattice(rng, "transmit")
            rx = random_lattice(rng, "receive")
            zeta = complex(rng.normal(), rng.normal())
            scene = Scene(rng.uniform(40, 80, 2), zeta)
            grid = EvalGrid([30.0, 30.0], [90.0, 90.0], (8, 8))
            direct = direct_image(tx, rx, scene, WAVE, grid)
            product = bistatic_image(
                partial_image(tx, scene, WAVE, grid),
                partial_image(rx, scene, WAVE, grid),
                zeta,
            )
            denom = np.maximum(np.abs(direct.values), np.abs(product.values))
            denom[denom == 0] = 1.0
            rel = np.abs(direct.values - product.values) / denom
            assert rel.max() <= 1e-10


# Positions of mixed dimensionality. numpy would broadcast a 1-coordinate
# scatterer against 2D elements, and a 2D and a 3D position fail to broadcast
# or lose a coordinate, so each entry point must refuse them itself.
TX2 = build_uniform_array([0.0, 0.0], [[1, 0]], [4], [1.0], "transmit")
RX2 = build_uniform_array([0.0, 0.0], [[0, 1]], [4], [1.0], "receive")
TX3 = build_uniform_array([0.0, 0.0, 0.0], [[1, 0, 0]], [4], [1.0], "transmit")
RX3 = build_uniform_array([0.0, 0.0, 0.0], [[0, 1, 0]], [4], [1.0], "receive")
ONE2 = build_uniform_array([0.0, 0.0], [[1, 0]], [1], [1.0], "transmit")
GRID2 = EvalGrid([10.0, 10.0], [20.0, 20.0], (4, 4))
POINT2 = [15.0, 12.0]
SCENE1, SCENE2, SCENE3 = Scene([15.0]), Scene([15.0, 15.0]), Scene([15.0, 15.0, 0.0])
PROBES2 = TX2.element_positions()
MISMATCHES = {
    "1d_scatterer-partial_image": lambda: partial_image(TX2, SCENE1, WAVE, GRID2),
    "1d_scatterer-partial_image_at": lambda: partial_image_at(TX2, [POINT2], SCENE1, WAVE),
    "1d_scatterer-direct_image": lambda: direct_image(TX2, RX2, SCENE1, WAVE, GRID2),
    "1d_scatterer-aliasing_mask": lambda: aliasing_mask(TX2, RX2, SCENE1, WAVE, GRID2),
    "1d_scatterer-aliasing_free": lambda: aliasing_free(TX2, POINT2, [15.0], WAVE),
    "1d_scatterer-aliasing_free_one_element":
        lambda: aliasing_free(ONE2, POINT2, [15.0], WAVE),
    "1d_scatterer-max_spatial_frequency":
        lambda: max_spatial_frequency(TX2, POINT2, [15.0], WAVE, 0),
    "1d_scatterer-local_wavenumber": lambda: local_wavenumber(PROBES2, POINT2, [15.0], WAVE),
    "1d_scatterer-chirp_value": lambda: chirp_value(PROBES2, POINT2, [15.0], WAVE),
    "1d_scatterer-chirp_phase": lambda: chirp_phase(PROBES2, POINT2, [15.0], WAVE),
    "1d_scatterer-green": lambda: green([15.0], PROBES2, WAVE),
    "1d_scatterer-sample_chirp_along_axis":
        lambda: sample_chirp_along_axis(TX2, POINT2, [15.0], WAVE, 0, 2),
    "3d_arrays-partial_image": lambda: partial_image(TX3, SCENE2, WAVE, GRID2),
    "3d_arrays-direct_image": lambda: direct_image(TX3, RX3, SCENE2, WAVE, GRID2),
    "3d_arrays-partial_image_at": lambda: partial_image_at(TX3, [POINT2], SCENE2, WAVE),
    "3d_arrays_3d_scene-partial_image": lambda: partial_image(TX3, SCENE3, WAVE, GRID2),
    "3d_arrays_3d_scene-direct_image": lambda: direct_image(TX3, RX3, SCENE3, WAVE, GRID2),
    "3d_arrays_3d_scene-aliasing_mask": lambda: aliasing_mask(TX3, RX3, SCENE3, WAVE, GRID2),
    "3d_array_2d_points-partial_image_at":
        lambda: partial_image_at(TX3, [POINT2], SCENE3, WAVE),
    "3d_points-partial_image_at":
        lambda: partial_image_at(TX2, [[15.0, 12.0, 3.0]], SCENE2, WAVE),
}


@pytest.mark.parametrize("call", list(MISMATCHES.values()), ids=list(MISMATCHES))
def test_dimension_mismatch_rejected_before_any_cell(monkeypatch, call):
    def no_cells(*args):
        raise AssertionError("a cell was evaluated")

    monkeypatch.setattr(imaging, "_distance", no_cells)
    monkeypatch.setattr(chirp, "_distance", no_cells)
    with pytest.raises(GridError):
        call()


# 37 x 443 = 2 * CELL_BLOCK + 7 cells: two full blocks and a 7-cell tail.
BLOCK_GRID = EvalGrid([-60.0, -40.0], [60.0, 80.0], (37, 443))
BLOCK_TX = build_uniform_array([-10.0, 0.0], [[1, 0]], [12], [1.7], "transmit")
BLOCK_RX = build_uniform_array([0.0, -10.0], [[0.6, 0.8], [-0.8, 0.6]], [3, 4], [1.3, 0.9],
                               "receive")
BLOCK_PLANAR = build_uniform_array([-10.0, 0.0], [[1, 0], [0, 1]], [6, 5], [1.7, 1.1],
                                   "transmit")
BLOCK_SCENE = Scene([25.0, 30.0], 0.5 + 2.0j)
BLOCK_KERNELS = {
    "partial_image": lambda threads: partial_image(BLOCK_TX, BLOCK_SCENE, WAVE, BLOCK_GRID,
                                                   threads=threads),
    "direct_image": lambda threads: direct_image(BLOCK_TX, BLOCK_RX, BLOCK_SCENE, WAVE,
                                                 BLOCK_GRID, threads=threads),
    "aliasing_mask": lambda threads: aliasing_mask(BLOCK_TX, BLOCK_RX, BLOCK_SCENE, WAVE,
                                                   BLOCK_GRID, threads=threads),
}


def _record_pools(monkeypatch) -> list:
    """Record the max_workers of every thread pool _run_blocks starts."""
    pools = []
    executor = imaging.ThreadPoolExecutor

    def recording(max_workers):
        pools.append(max_workers)
        return executor(max_workers=max_workers)

    monkeypatch.setattr(imaging, "ThreadPoolExecutor", recording)
    return pools


class TestBlocks:
    def test_grid_ends_in_a_partial_block(self):
        assert BLOCK_GRID.num_cells == 2 * CELL_BLOCK + 7

    @pytest.mark.parametrize("name", sorted(BLOCK_KERNELS))
    def test_threads_bit_identical_across_blocks(self, name):
        serial, threaded = BLOCK_KERNELS[name](1), BLOCK_KERNELS[name](3)
        np.testing.assert_array_equal(serial.excluded, threaded.excluded)
        if name == "aliasing_mask":
            assert 0 < serial.combined.sum() < serial.combined.size
            for a, b in zip(serial.layers, threaded.layers):
                np.testing.assert_array_equal(a.free, b.free)
        else:
            np.testing.assert_array_equal(serial.values, threaded.values)

    @pytest.mark.parametrize("threads, workers", [(1, None), (2, 2), (8, 3)])
    def test_no_more_workers_than_blocks(self, monkeypatch, threads, workers):
        pools = _record_pools(monkeypatch)
        _, ones = _run_blocks(lambda cells: (np.ones(len(cells)),), (BLOCK_TX,), BLOCK_GRID,
                              0.1, threads)
        assert pools == ([] if workers is None else [workers])
        assert ones.shape == BLOCK_GRID.resolution and ones.all()

    @pytest.mark.parametrize("tx, pools", [
        (BLOCK_TX, []),
        # A second axis of one element samples nothing and adds no line.
        (build_uniform_array([-10.0, 0.0], [[1, 0], [0, 1]], [12, 1], [1.7, 1.1], "transmit"),
         []),
        (BLOCK_PLANAR, [2]),
    ])
    def test_mask_runs_one_worker_unless_an_axis_has_lines_to_batch(self, monkeypatch, tx,
                                                                    pools):
        started = _record_pools(monkeypatch)
        rx = build_uniform_array([0.0, -10.0], [[0.6, 0.8]], [9], [1.3], "receive")
        mask = aliasing_mask(tx, rx, BLOCK_SCENE, WAVE, BLOCK_GRID, threads=2)
        assert started == pools
        assert 0 < mask.combined.sum() < mask.combined.size

    @pytest.mark.parametrize("name, rows", [("partial_image", ELEMENT_BATCH),
                                            ("aliasing_mask", LINE_BATCH)])
    def test_one_thread_fills_batches(self, monkeypatch, name, rows):
        # The kernels batch at every thread count: one thread fills the same
        # (batch, block) buffers as several.
        shapes = set()

        def recording(e, cols, out, tmp):
            shapes.add(out.shape)
            return _distance(e, cols, out, tmp)

        monkeypatch.setattr(imaging, "_distance", recording)
        monkeypatch.setattr(chirp, "_distance", recording)
        if name == "partial_image":
            partial_image(BLOCK_PLANAR, BLOCK_SCENE, WAVE, BLOCK_GRID, threads=1)
        else:
            aliasing_mask(BLOCK_PLANAR, BLOCK_RX, BLOCK_SCENE, WAVE, BLOCK_GRID, threads=1)
        assert (rows, CELL_BLOCK) in shapes
        assert max(shape[0] for shape in shapes if len(shape) == 2) == rows

    @pytest.mark.parametrize("name", ["partial_image", "aliasing_mask"])
    def test_planar_array_threads_bit_identical(self, name):
        # A planar array has several lattice lines per axis, so that the mask's
        # line batches engage on 2 threads; its 30 elements end the chirp sum
        # in a partial batch.
        if name == "partial_image":
            one, two = (partial_image(BLOCK_PLANAR, BLOCK_SCENE, WAVE, BLOCK_GRID,
                                      threads=threads) for threads in (1, 2))
            assert one.values.tobytes() == two.values.tobytes()
        else:
            one, two = (aliasing_mask(BLOCK_PLANAR, BLOCK_RX, BLOCK_SCENE, WAVE, BLOCK_GRID,
                                      threads=threads) for threads in (1, 2))
            assert ([(layer.array_label, layer.axis_index) for layer in one.layers]
                    == [(layer.array_label, layer.axis_index) for layer in two.layers]
                    == [("tx", 0), ("tx", 1), ("rx", 0), ("rx", 1)])
            for a, b in zip(one.layers, two.layers):
                np.testing.assert_array_equal(a.free, b.free)
                assert 0 < a.free.sum() < a.free.size
        np.testing.assert_array_equal(one.excluded, two.excluded)
        assert one.excluded.any()

    def test_partial_image_matches_point_evaluator_bitwise(self):
        field = partial_image(BLOCK_TX, BLOCK_SCENE, WAVE, BLOCK_GRID, threads=2)
        usable = ~field.excluded.ravel()
        assert usable.sum() > 2 * CELL_BLOCK
        vals = partial_image_at(BLOCK_TX, BLOCK_GRID.cell_centers()[usable], BLOCK_SCENE, WAVE)
        np.testing.assert_array_equal(vals, field.values.ravel()[usable])

    @pytest.mark.parametrize("name", sorted(BLOCK_KERNELS))
    def test_cell_centers_asked_one_block_at_a_time(self, name, monkeypatch):
        sizes = []
        cell_centers = EvalGrid.cell_centers

        def recording(self, *args):
            centers = cell_centers(self, *args)
            sizes.append(len(centers))
            return centers

        monkeypatch.setattr(EvalGrid, "cell_centers", recording)
        BLOCK_KERNELS[name](2)
        assert sizes and max(sizes) <= CELL_BLOCK
        # One pass over the grid: the mask's two arrays share every block.
        assert sum(sizes) == BLOCK_GRID.num_cells


def _random_nearest_case(rng):
    """A random 1-3D lattice with oblique axes (single-element axes too) and
    cells around it: random, on every element, at neighbour midpoints and
    about eps from an element; returns (array, cells, eps, number of elements).
    The cells on elements follow the first 100."""
    dim = int(rng.integers(1, 4))
    n_axes = int(rng.integers(1, dim + 1))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    counts = [int(rng.integers(1, 7)) for _ in range(n_axes)]
    spacings = rng.uniform(0.2, 3.0, n_axes)
    arr = build_uniform_array(rng.uniform(-20, 20, dim), q.T[:n_axes], counts, spacings,
                              "transmit")
    elements = arr.element_positions()
    eps = 0.4 * float(spacings.min())
    size = float(np.max((np.asarray(counts) - 1) * spacings)) + 5.0
    steps = spacings[:, None] * arr.axes
    pick = elements[rng.integers(0, len(elements), 60)]
    direction = rng.normal(size=(60, dim))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    cells = np.vstack([
        arr.center + rng.uniform(-1, 1, (100, dim)) * size,
        elements,
        pick + 0.5 * steps[rng.integers(0, n_axes, 60)],
        pick + direction * eps * rng.uniform(0.9, 1.1, (60, 1)),
    ])
    return arr, cells, eps, len(elements)


class TestNearestDistance:
    def test_matches_exhaustive_minimum(self):
        rng = np.random.default_rng(53)
        near_eps = 0
        for _ in range(200):
            arr, cells, eps, n_on = _random_nearest_case(rng)
            near = _nearest_distance((arr,))(cells)
            exhaustive = np.array([min_element_distance(arr, c) for c in cells])
            np.testing.assert_allclose(near, exhaustive, rtol=1e-12, atol=0.0)
            assert np.all(near[100:100 + n_on] == 0.0)
            tie = np.abs(exhaustive - eps) <= 1e-12 * eps
            np.testing.assert_array_equal((near <= eps)[~tie], (exhaustive <= eps)[~tie])
            near_eps += int(np.sum(exhaustive <= eps)) - n_on
        assert near_eps > 0

    def test_minimum_over_arrays(self):
        rng = np.random.default_rng(59)
        pairs = 0
        while pairs < 30:
            (a, cells_a, _, _), (b, cells_b, _, _) = (_random_nearest_case(rng)
                                                      for _ in range(2))
            if a.ndim != b.ndim:
                continue
            pairs += 1
            cells = np.vstack([cells_a, cells_b])
            np.testing.assert_array_equal(
                _nearest_distance((a, b))(cells),
                np.minimum(_nearest_distance((a,))(cells), _nearest_distance((b,))(cells)))

    def test_single_element_array(self):
        arr = build_uniform_array([3.0, -2.0], [[1, 0]], [1], [1.0], "transmit")
        cells = np.array([[3.0, -2.0], [3.0, -1.5], [6.0, 2.0]])
        np.testing.assert_array_equal(_nearest_distance((arr,))(cells), [0.0, 0.5, 5.0])


# Eight elements along x at y = 0 (x = 0..7) and a second array far away.
CLEAR_TX = build_uniform_array([0.0, 0.0], [[1, 0]], [8], [1.0], "transmit")
CLEAR_RX = build_uniform_array([-40.0, -40.0], [[0, 1]], [5], [1.0], "receive")
CLEAR_EPS = 0.1


def _clearance_grid(gap: float, diagonal: bool) -> EvalGrid:
    """A 12 x 9 grid of unit cells whose nearest cell center lies `gap` from
    an element of CLEAR_TX: straight above element 3, or diagonally past the
    end element at x = 7."""
    if diagonal:
        first = np.array([7.0, 0.0]) + gap / np.sqrt(2.0)
    else:
        first = np.array([0.0, gap])
    return EvalGrid(first - 0.5, first + [11.5, 8.5], (12, 9))


def _spy_nearest(monkeypatch) -> list:
    """Record the arrays of every _nearest_distance built."""
    built = []
    nearest = imaging._nearest_distance

    def spy(arrays):
        built.append(arrays)
        return nearest(arrays)

    monkeypatch.setattr(imaging, "_nearest_distance", spy)
    return built


class TestClearance:
    @pytest.mark.parametrize("diagonal", [False, True], ids=["across", "past_the_end"])
    @pytest.mark.parametrize("factor", [1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.5])
    def test_flags_match_the_nearest_distance(self, monkeypatch, factor, diagonal):
        grid = _clearance_grid(CLEAR_EPS * factor, diagonal)
        cells = grid.cell_centers()
        arrays = (CLEAR_TX, CLEAR_RX)
        near = _nearest_distance(arrays)(cells)
        assert np.min(near) == pytest.approx(CLEAR_EPS * factor, rel=1e-14)
        built = _spy_nearest(monkeypatch)
        for kernel in (None, lambda c: (np.ones(len(c)),)):
            excluded, *outputs = _run_blocks(kernel, arrays, grid, CLEAR_EPS, 2)
            np.testing.assert_array_equal(excluded.ravel(), near <= CLEAR_EPS)
            assert len(outputs) == (kernel is not None)
        # Only a grid clear of the 1e-9 margin skips the nearest-element walk.
        assert len(built) == (0 if factor == 1.5 else 2)
        if factor != 1.0:  # at eps itself, rounding decides
            assert excluded.any() == (factor < 1.0)

    def test_clear_grid_with_no_kernel_builds_no_cells(self, monkeypatch):
        built = _spy_nearest(monkeypatch)
        monkeypatch.setattr(EvalGrid, "cell_centers", None)
        grid = _clearance_grid(1.5 * CLEAR_EPS, True)
        (excluded,) = _run_blocks(None, (CLEAR_TX, CLEAR_RX), grid, CLEAR_EPS, 1)
        assert excluded.shape == grid.resolution and not excluded.any()
        assert built == []


def _random_cells(rng, dim):
    n = int(rng.integers(1, 3000))
    scale = 10.0 ** rng.uniform(-3, 4)
    return rng.normal(size=dim) * scale, rng.normal(size=(n, dim)) * scale


def _column_distance(e, cells):
    n = len(cells)
    return _distance(e, np.ascontiguousarray(cells.T), np.empty(n), np.empty(n))


class TestDistance:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_bit_identical_to_einsum_in_1d_and_2d(self, dim):
        rng = np.random.default_rng(41 + dim)
        for _ in range(25):
            e, cells = _random_cells(rng, dim)
            diff = e - cells
            expected = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            np.testing.assert_array_equal(_column_distance(e, cells), expected)

    def test_3d_sums_squares_in_axis_order(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            e, cells = _random_cells(rng, 3)
            dx, dy, dz = (e - cells).T
            expected = np.sqrt((dx * dx + dy * dy) + dz * dz)
            np.testing.assert_array_equal(_column_distance(e, cells), expected)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_one_element_per_cell_matches_single_element_rows(self, dim):
        rng = np.random.default_rng(47 + dim)
        elements = rng.normal(size=(6, dim)) * 50.0
        _, cells = _random_cells(rng, dim)
        pick = rng.integers(0, len(elements), size=len(cells))
        per_cell = [elements[pick, i] for i in range(dim)]
        got = _column_distance(per_cell, cells)
        for ie, e in enumerate(elements):
            rows = pick == ie
            np.testing.assert_array_equal(got[rows], _column_distance(e, cells)[rows])



def _long_double_chirp_sum(elements, d_s, wavelength, points):
    """The chirp sum of the same float64 distances, with the phase, cos, sin
    and the sum in long double."""
    two_pi = 8 * np.arctan(np.longdouble(1))
    acc = np.zeros((2, len(points)), dtype=np.longdouble)
    for e, ds in zip(elements, d_s):
        dt = _column_distance(e, points).astype(np.longdouble)
        phase = two_pi * (dt - np.longdouble(ds)) / np.longdouble(wavelength)
        acc += np.array([np.cos(phase), np.sin(phase)]) / (dt * np.longdouble(ds))
    return acc[0].astype(float) + 1j * acc[1].astype(float)


def _term_by_term_chirp_sum(elements, d_s, wavelength, points, batch=ELEMENT_BATCH):
    """The chirp sum transcribed pass for pass in its plain form: squares as
    multiply(t, t), the imaginary terms as 2t q, and each batch's rows added
    into the real and imaginary halves of one complex array."""
    n = len(points)
    cols = np.ascontiguousarray(points.T)
    x = elements.T
    dt_buf, t_buf, q_buf = np.empty((3, min(batch, len(elements)), n))
    acc = np.zeros(n, dtype=np.complex128)
    re, im = acc.real, acc.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, len(elements), len(dt_buf)):
            hi = min(lo + len(dt_buf), len(elements))
            dt, t, q = dt_buf[:hi - lo], t_buf[:hi - lo], q_buf[:hi - lo]
            ds = d_s[lo:hi, None]
            np.subtract(x[0][lo:hi, None], cols[0], out=dt)
            np.multiply(dt, dt, out=dt)
            for x_i, c_i in zip(x[1:], cols[1:]):
                np.subtract(x_i[lo:hi, None], c_i, out=t)
                np.multiply(t, t, out=t)
                dt += t
            np.sqrt(dt, out=dt)
            w = np.subtract(dt, ds, out=t)
            w /= wavelength
            w -= np.rint(w, out=q)
            np.tan(np.multiply(w, np.pi, out=t), out=t)
            dt *= ds
            np.multiply(t, t, out=q)
            q += 1.0
            q *= dt
            np.divide(1.0, q, out=q)
            np.multiply(t, t, out=dt)
            np.subtract(1.0, dt, out=dt)
            dt *= q
            t *= 2.0
            t *= q
            for row in dt:
                re += row
            for row in t:
                im += row
    return acc


# Lattices of 1, 2 and 3 axes whose element counts (11, 20, 60) leave a
# partial last batch at widths 3 and 8; 1D, 2D and 3D space.
BATCH_LATTICES = {
    "linear_1d": (build_uniform_array([-3.0], [[1]], [11], [0.7], "transmit"), [40.0]),
    "planar_2d": (build_uniform_array([-10.0, 0.0], [[0.6, 0.8], [-0.8, 0.6]], [5, 4],
                                      [1.3, 0.9], "transmit"), [25.0, 30.0]),
    "volume_3d": (build_uniform_array([-20.0, -15.0, 0.0], [[1, 0, 0], [0, 0.6, 0.8],
                                                            [0, -0.8, 0.6]],
                                      [5, 4, 3], [3.1, 2.7, 1.9], "receive"),
                  [40.0, 200.0, 150.0]),
}


def _batch_case_points(array, scatterer, count, seed):
    """`count` random points around the array and the scatterer, then the
    first three elements (non-finite terms) and the scatterer itself."""
    rng = np.random.default_rng(seed)
    elements = array.element_positions()
    lo = np.minimum(elements.min(axis=0), scatterer) - 30.0
    hi = np.maximum(elements.max(axis=0), scatterer) + 30.0
    return np.vstack([rng.uniform(lo, hi, (count, array.ndim)), elements[:3], [scatterer]])


class TestChirpSum:
    @pytest.mark.parametrize("case", sorted(BATCH_LATTICES))
    def test_batch_width_keeps_every_bit(self, case):
        arr, scatterer = BATCH_LATTICES[case]
        elements, d_s, _ = _scatterer_distances(arr, np.asarray(scatterer), 0.1)
        # 1001 points put each row's last values in the tail of the
        # elementwise loops, and the next row's first values beside them.
        points = _batch_case_points(arr, np.asarray(scatterer), 997, 53)
        one = _chirp_sum(elements, d_s, WAVE.wavelength, points, 1)
        assert not np.all(np.isfinite(one)) and np.isfinite(one[:997]).all()
        for batch in (3, 8, len(elements) + 5):
            got = _chirp_sum(elements, d_s, WAVE.wavelength, points, batch)
            assert got.tobytes() == one.tobytes(), batch

    @pytest.mark.parametrize("case", [*sorted(BATCH_LATTICES), "fig1_peak_block"])
    def test_bits_match_the_term_by_term_transcription(self, case):
        if case == "fig1_peak_block":
            # The block holding the scatterer cell (127, 127), so the peak.
            arr, scatterer = FIG1_TX, FIG1_SCENE.scatterer
            points = FIG1_GRID.cell_centers(3 * CELL_BLOCK, 4 * CELL_BLOCK)
        else:
            arr, scatterer = BATCH_LATTICES[case]
            scatterer = np.asarray(scatterer)
            points = _batch_case_points(arr, scatterer, 997, 61)
        elements, d_s, _ = _scatterer_distances(arr, scatterer, 0.1)
        got = _chirp_sum(elements, d_s, WAVE.wavelength, points)
        want = _term_by_term_chirp_sum(elements, d_s, WAVE.wavelength, points)
        if case != "fig1_peak_block":
            assert not np.all(np.isfinite(want))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["fig1_block", "planar_3d"])
    def test_against_long_double_reference(self, case):
        if case == "fig1_block":
            # The block holding the scatterer cell (127, 127), so the peak.
            arr, scatterer, wave = FIG1_TX, FIG1_SCENE.scatterer, WAVE
            points = FIG1_GRID.cell_centers(3 * CELL_BLOCK, 4 * CELL_BLOCK)
        else:
            arr = build_uniform_array([-20.0, -15.0, 0.0], [[1, 0, 0], [0, 0.6, 0.8]],
                                      [16, 12], [3.1, 2.7], "receive")
            scatterer, wave = np.array([40.0, 200.0, 150.0]), WaveParams(0.7)
            points = EvalGrid([-50.0, 100.0, 80.0], [250.0, 300.0, 220.0],
                              (11, 10, 9)).cell_centers()
        elements, d_s, _ = _scatterer_distances(arr, scatterer, 0.1)
        got = _chirp_sum(elements, d_s, wave.wavelength, points)
        ref = _long_double_chirp_sum(elements, d_s, wave.wavelength, points)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_half_integer_turns_give_minus_one_over_distances(self):
        # An element at the origin, ds = |(3, 4)| = 5 and dt = y at (0, y), all
        # exact: dt - ds is -0.5, 0.5, 1.5 and 2.5 wavelengths, so w = +-1/2
        # and t = tan(pi w) is about +-1.6e16.
        assert abs(np.tan(np.pi * 0.5)) > 1e16
        points = np.array([[0.0, 4.5], [0.0, 5.5], [0.0, 6.5], [0.0, 7.5]])
        vals = _chirp_sum(np.zeros((1, 2)), np.array([5.0]), 1.0, points)
        assert np.all(np.isfinite(vals))
        np.testing.assert_allclose(vals, -1.0 / (points[:, 1] * 5.0), rtol=1e-15, atol=0)

    def test_point_evaluator_matches_grid_at_every_offset_and_length(self):
        # Every length 1..100 at 40 offsets puts each point both in the vector
        # body and in the tail of the elementwise loops.
        arr = build_uniform_array([100.0, 0.0], [[1, 0]], [4], [FIG1_SPACING], "transmit")
        values = partial_image(arr, FIG1_SCENE, WAVE, FIG1_GRID).values.ravel()
        points = FIG1_GRID.cell_centers()
        rng = np.random.default_rng(59)
        for start in rng.integers(0, FIG1_GRID.num_cells - 100, 40):
            for n in range(1, 101):
                got = partial_image_at(arr, points[start:start + n], FIG1_SCENE, WAVE)
                np.testing.assert_array_equal(got, values[start:start + n])


# Literal transcriptions of the whole-array expressions that bistatic_image and
# magnitude_db work in place; the bits must not move.
def _bistatic_values(tx_field, rx_field, reflectivity):
    values = complex(reflectivity) * tx_field.values * rx_field.values
    excluded = tx_field.excluded | rx_field.excluded
    return np.where(excluded, 0.0, values)


def _magnitude_db(field_, floor_db):
    mag = np.abs(field_.values)
    peak = mag[~field_.excluded].max()
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag / peak)
    db = np.maximum(db, floor_db)
    db[field_.excluded] = floor_db
    return db


def _pin_case(name):
    """(tx, rx) partial images: the fig1 ones, or random fields on a 9 x 7
    grid whose excluded cells hold NaN and inf, or with a zero usable cell."""
    if name == "fig1":
        rx = build_uniform_array([0.0, 500.0 - 63 / 2 * FIG1_SPACING], [[0, 1]], [64],
                                 [FIG1_SPACING], "receive")
        return tuple(partial_image(a, FIG1_SCENE, WAVE, FIG1_GRID) for a in (FIG1_TX, rx))
    grid = EvalGrid([0.0, 0.0], [9.0, 7.0], (9, 7))
    rng = np.random.default_rng(41)
    fields = []
    for bad in (np.nan, np.inf):
        values = rng.normal(size=(9, 7, 2)) @ np.array([1.0, 1j])
        values *= np.exp(rng.uniform(-12.0, 0.0, (9, 7)))
        excluded = rng.random((9, 7)) < 0.2
        if name == "non_finite_excluded":
            values[excluded] = complex(bad, -bad)
        else:
            values[4, 3] = 0.0
            excluded[4, 3] = False
        fields.append(ComplexField(grid=grid, values=values, excluded=excluded))
    return tuple(fields)


@pytest.mark.parametrize("case", ["fig1", "non_finite_excluded", "zero_usable_cell"])
class TestInPlaceBits:
    @pytest.mark.parametrize("reflectivity", [1.0, 0.5 - 2.0j])
    def test_bistatic_image(self, case, reflectivity):
        tx, rx = _pin_case(case)
        with np.errstate(invalid="ignore"):
            expected = _bistatic_values(tx, rx, reflectivity)
            image = bistatic_image(tx, rx, reflectivity)
        assert image.values.tobytes() == expected.tobytes()
        assert image.values.dtype == np.complex128

    def test_magnitude_db(self, case):
        for field in _pin_case(case):
            got = magnitude_db(field, -60.0)
            assert got.tobytes() == _magnitude_db(field, -60.0).tobytes()
            assert np.all(np.isfinite(got))


class TestMagnitudeDb:
    def _field(self, values, excluded=None):
        grid = EvalGrid([0.0, 0.0], [2.0, 2.0], (2, 2))
        values = np.asarray(values, dtype=np.complex128).reshape(2, 2)
        if excluded is None:
            excluded = np.zeros((2, 2), dtype=bool)
        from nf_aliaser import ComplexField
        return ComplexField(grid=grid, values=values, excluded=excluded)

    def test_peak_is_zero_db(self):
        db = magnitude_db(self._field([1.0, 0.5, 0.25, 0.1]), -40.0)
        assert db.ravel()[0] == 0.0

    def test_half_magnitude(self):
        db = magnitude_db(self._field([1.0, 0.5, 0.25, 0.1]), -40.0)
        assert db.ravel()[1] == pytest.approx(-6.020599913279624, rel=1e-12)

    def test_floor_clamps_and_excluded(self):
        excluded = np.array([[False, False], [False, True]])
        db = magnitude_db(self._field([1.0, 1e-9, 0.5, 0.7], excluded), -40.0)
        assert db[0, 1] == -40.0
        assert db[1, 1] == -40.0
        assert db.min() >= -40.0 and db.max() <= 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(GridError):
            magnitude_db(self._field([0.0, 0.0, 0.0, 0.0]), -40.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf),
                                     complex(np.nan, 1.0)])
    def test_non_finite_usable_cell_rejected(self, bad):
        with pytest.raises(GridError, match="non-finite"):
            magnitude_db(self._field([1.0, 0.5, bad, 0.1]), -40.0)

    def test_non_finite_excluded_cell_ignored(self):
        excluded = np.array([[False, False], [True, False]])
        db = magnitude_db(self._field([1.0, 0.5, np.nan, 0.1], excluded), -40.0)
        assert db[1, 0] == -40.0 and np.all(np.isfinite(db))

    @pytest.mark.parametrize("floor_db", [0.0, np.nan, -np.inf])
    def test_floor_must_be_negative_and_finite(self, floor_db):
        with pytest.raises(GridError, match="floor_db must be negative and finite"):
            magnitude_db(self._field([1.0, 0.5, 0.25, 0.0]), floor_db)

    def test_fig1_range(self):
        field = partial_image(FIG1_TX, FIG1_SCENE, WAVE,
                              EvalGrid([150.0, 150.0], [1850.0, 1850.0], (32, 32)))
        db = magnitude_db(field, -40.0)
        assert db.min() >= -40.0 and db.max() == 0.0
