import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nf_aliaser import (
    GeometryError,
    Scene,
    SingularityError,
    WaveParams,
    aliasing_free,
    aliasing_mask,
    build_uniform_array,
    chirp_phase,
    local_wavenumber,
    max_spatial_frequency,
)
from nf_aliaser import chirp
from nf_aliaser.geometry import EvalGrid, min_element_distance

WAVE = WaveParams(1.0)
K = WAVE.wavenumber

FIG1_SPACING = 500.0 / 64
FIG1_TX = build_uniform_array([500.0 - 63 / 2 * FIG1_SPACING, 0.0], [[1, 0]], [64],
                              [FIG1_SPACING], "transmit")
FIG1_RX = build_uniform_array([0.0, 500.0 - 63 / 2 * FIG1_SPACING], [[0, 1]], [64],
                              [FIG1_SPACING], "receive")
FIG1_SCENE = Scene([1000.0, 1000.0])

# Frozen exhaustive-scan result (50-digit mpmath over all 64 elements) for the
# fig1 transmit array, tentative (1400, 800), scatterer (1000, 1000).
FIG1_TX_KMAX_AT_1400_800 = 2.430146054644973


class TestLocalWavenumber:
    def test_zero_at_match(self):
        kvec = local_wavenumber([0.0, 0.0], [7.0, 3.0], [7.0, 3.0], WAVE)
        np.testing.assert_array_equal(kvec, [0.0, 0.0])

    def test_perpendicular_bisector_symmetry(self):
        # probe on the bisector of tentative/scatterer: component along the
        # bisector direction (y here) vanishes
        kvec = local_wavenumber([0.0, 8.0], [-2.0, 0.0], [2.0, 0.0], WAVE)
        assert kvec[1] == pytest.approx(0.0, abs=1e-14)
        assert abs(kvec[0]) > 0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(101)
        n = 200
        probes = rng.uniform(-20, 20, (n, 3))
        tentatives = probes + rng.uniform(2, 30, (n, 3)) * rng.choice([-1, 1], (n, 3))
        scatterers = probes + rng.uniform(2, 30, (n, 3)) * rng.choice([-1, 1], (n, 3))
        kvec = local_wavenumber(probes, tentatives, scatterers, WAVE)
        h = 1e-4 * WAVE.wavelength
        fd = np.empty_like(kvec)
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = h
            fd[:, axis] = (chirp_phase(probes + step, tentatives, scatterers, WAVE)
                           - chirp_phase(probes - step, tentatives, scatterers, WAVE)) / (2 * h)
        rel = np.linalg.norm(kvec - fd, axis=1) / np.linalg.norm(kvec, axis=1)
        assert rel.max() <= 1e-5

    def test_singularity(self):
        with pytest.raises(SingularityError):
            local_wavenumber([0.0, 0.0], [0.01, 0.0], [5.0, 0.0], WAVE)


@settings(max_examples=100, deadline=None)
@given(
    probe=st.tuples(st.floats(-40, 40), st.floats(-40, 40)),
    tentative=st.tuples(st.floats(-40, 40), st.floats(-40, 40)),
    scatterer=st.tuples(st.floats(-40, 40), st.floats(-40, 40)),
)
def test_local_wavenumber_bounded_by_2k(probe, tentative, scatterer):
    p = np.asarray(probe)
    if (np.linalg.norm(p - np.asarray(tentative)) <= 0.2
            or np.linalg.norm(p - np.asarray(scatterer)) <= 0.2):
        return
    kvec = local_wavenumber(probe, tentative, scatterer, WAVE)
    assert np.linalg.norm(kvec) <= 2 * K * (1 + 1e-12)


class TestMaxSpatialFrequency:
    def test_zero_at_match(self):
        val = max_spatial_frequency(FIG1_TX, [1000.0, 1000.0], [1000.0, 1000.0],
                                    WAVE, 0)
        assert val <= 1e-12 * K

    def test_bounded_by_2k(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pt = rng.uniform(-2000, 2000, 2)
            if np.linalg.norm(pt - [500, 0]) < 300:
                continue
            val = max_spatial_frequency(FIG1_TX, pt, [1000.0, 1000.0], WAVE, 0)
            assert 0.0 <= val <= 2 * K * (1 + 1e-12)

    def test_exhaustive_scan_frozen(self):
        val = max_spatial_frequency(FIG1_TX, [1400.0, 800.0], [1000.0, 1000.0],
                                    WAVE, 0)
        assert val == pytest.approx(FIG1_TX_KMAX_AT_1400_800, rel=1e-13)

    def test_superset_monotonicity(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n_big = int(rng.integers(4, 17))
            n_small = int(rng.integers(2, n_big))
            spacing = rng.uniform(0.5, 4.0)
            origin = rng.uniform(-10, 10, 2)
            big = build_uniform_array(origin, [[1, 0]], [n_big], [spacing], "transmit")
            small = build_uniform_array(origin, [[1, 0]], [n_small], [spacing], "transmit")
            pt = rng.uniform(50, 200, 2)
            xs = rng.uniform(-200, -50, 2)
            k_small = max_spatial_frequency(small, pt, xs, WAVE, 0)
            k_big = max_spatial_frequency(big, pt, xs, WAVE, 0)
            assert k_small <= k_big

    @pytest.mark.parametrize("axis_index", [-1, 2, True])
    def test_axis_index_outside_lattice_rejected(self, axis_index):
        # -1 used to project on the last axis.
        arr = build_uniform_array([0.0, 0.0], [[1, 0], [0, 1]], [4, 5], [1.0, 1.0],
                                  "transmit")
        with pytest.raises(GeometryError, match="axis_index"):
            max_spatial_frequency(arr, [60.0, 40.0], [50.0, -20.0], WAVE, axis_index)


class TestAliasingFree:
    def test_half_wavelength_always_free(self):
        arr = build_uniform_array([0.0, 0.0], [[1, 0]], [32], [0.5], "transmit")
        rng = np.random.default_rng(5)
        for _ in range(50):
            pt = rng.uniform(-300, 300, 2)
            xs = rng.uniform(-300, 300, 2)
            if min(np.linalg.norm(pt - [8, 0]), np.linalg.norm(xs - [8, 0])) < 20:
                continue
            verdict = aliasing_free(arr, pt, xs, WAVE)
            assert verdict.ok

    def test_matched_point_free(self):
        verdict = aliasing_free(FIG1_TX, [777.0, 777.0], [777.0, 777.0], WAVE)
        assert verdict.ok and verdict.per_axis == (True,)

    def test_fig1_scatterer_free_both_arrays(self):
        assert aliasing_free(FIG1_TX, [1000.0, 1000.0], FIG1_SCENE.scatterer, WAVE).ok
        assert aliasing_free(FIG1_RX, [1000.0, 1000.0], FIG1_SCENE.scatterer, WAVE).ok

    def test_fig1_mirrored_point_aliased(self):
        # same range from the array centers, far across: fails for both arrays
        assert not aliasing_free(FIG1_TX, [0.0, 1000.0], FIG1_SCENE.scatterer, WAVE).ok
        assert not aliasing_free(FIG1_RX, [0.0, 1000.0], FIG1_SCENE.scatterer, WAVE).ok

    def test_single_element_axis_vacuous(self):
        arr = build_uniform_array([0.0, 0.0], [[1, 0], [0, 1]], [8, 1], [5.0, 5.0],
                                  "transmit")
        verdict = aliasing_free(arr, [100.0, 40.0], [120.0, -30.0], WAVE)
        assert verdict.per_axis[1] is True


class TestAliasingMask:
    def test_single_element_arrays_all_true(self):
        tx = build_uniform_array([0.0, 0.0], [[1, 0]], [1], [1.0], "transmit")
        rx = build_uniform_array([5.0, 0.0], [[1, 0]], [1], [1.0], "receive")
        grid = EvalGrid([20.0, 20.0], [40.0, 40.0], (16, 16))
        mask = aliasing_mask(tx, rx, Scene([30.0, 30.0]), WAVE, grid)
        assert mask.layers == ()
        assert mask.combined.all()

    def test_fig1_mask_contains_scatterer_and_is_partial(self):
        grid = EvalGrid([150.0, 150.0], [1850.0, 1850.0], (64, 64))
        mask = aliasing_mask(FIG1_TX, FIG1_RX, FIG1_SCENE, WAVE, grid)
        idx = grid.cell_index(FIG1_SCENE.scatterer)
        assert mask.combined[idx]
        assert 0 < mask.combined.sum() < mask.combined.size
        # combined equals the AND of every layer on non-excluded cells
        conj = np.ones_like(mask.combined)
        for layer in mask.layers:
            conj &= layer.free
        np.testing.assert_array_equal(mask.combined, conj & ~mask.excluded)

    def test_spacing_sweep_shrinks_mask(self):
        grid = EvalGrid([0.0, 0.0], [1000.0, 1000.0], (64, 64))
        scene = Scene([500.0, 500.0])

        def arrays(n):
            spacing = 500.0 / n
            tx = build_uniform_array([500.0 - (n - 1) / 2 * spacing, 0.0], [[1, 0]],
                                     [n], [spacing], "transmit")
            rx = build_uniform_array([0.0, 500.0 - (n - 1) / 2 * spacing], [[0, 1]],
                                     [n], [spacing], "receive")
            return tx, rx

        area16 = aliasing_mask(*arrays(16), scene, WAVE, grid).combined.sum()
        area64 = aliasing_mask(*arrays(64), scene, WAVE, grid).combined.sum()
        assert area16 < area64

    def test_lattice_refinement_never_flips_true_to_false(self):
        rng = np.random.default_rng(29)
        grid = EvalGrid([50.0, 50.0], [150.0, 150.0], (8, 8))
        for _ in range(5):
            n = int(rng.integers(3, 9))
            spacing = rng.uniform(1.0, 4.0)
            origin = rng.uniform(-5, 5, 2)
            scene = Scene(rng.uniform(60, 140, 2))
            coarse_tx = build_uniform_array(origin, [[1, 0]], [n], [spacing], "transmit")
            fine_tx = build_uniform_array(origin, [[1, 0]], [2 * (n - 1) + 1],
                                          [spacing / 2], "transmit")
            rx = build_uniform_array([0.0, -30.0], [[0, 1]], [4], [0.5], "receive")
            coarse = aliasing_mask(coarse_tx, rx, scene, WAVE, grid).combined
            fine = aliasing_mask(fine_tx, rx, scene, WAVE, grid).combined
            assert not np.any(coarse & ~fine)

    def test_threaded_matches_serial(self):
        grid = EvalGrid([150.0, 150.0], [1850.0, 1850.0], (32, 32))
        serial = aliasing_mask(FIG1_TX, FIG1_RX, FIG1_SCENE, WAVE, grid)
        threaded = aliasing_mask(FIG1_TX, FIG1_RX, FIG1_SCENE, WAVE, grid, threads=4)
        np.testing.assert_array_equal(serial.combined, threaded.combined)


def _rotation(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q.T


def _assert_kernels_agree(array, scatterer, cells):
    """Line kernel vs the exhaustive reference on explicit cells, outside the
    exclusion radius as the exhaustive min_element_distance finds it."""
    eps = 0.1
    axes_lines, lines = chirp._kmax_lines(array, np.asarray(scatterer, float), eps)
    axes_ref, exhaustive = chirp._kmax_layers(array, np.asarray(scatterer, float), eps)
    kmax_lines, kmax_ref = lines(cells), exhaustive(cells)
    assert axes_lines == axes_ref == array.sampled_axes()
    assert len(kmax_lines) == len(kmax_ref) == len(array.sampled_axes())
    excluded = np.array([min_element_distance(array, c) <= eps for c in cells])
    for j, k_lines, k_ref in zip(axes_ref, kmax_lines, kmax_ref):
        k_lines, k_ref = K * k_lines[~excluded], K * k_ref[~excluded]
        assert np.max(np.abs(k_lines - k_ref), initial=0.0) <= 1e-11 * K
        bound = 2.0 * np.pi / array.spacings[j]
        tie = np.abs(k_ref - bound) <= 1e-11 * K
        np.testing.assert_array_equal((k_lines <= bound)[~tie], (k_ref <= bound)[~tie])
    return int((~excluded).sum())


def _planar_sweep_2d():
    """The 2d geometry of the planar_sweep benchmark: 32 x 32 planes over 500
    wavelengths centered at (500, 0) and (0, 500), scatterer (500, 500), on a
    64 x 64 grid over [0, 1000]^2 (the benchmark has 255 x 255). A quarter of
    these cells lie on elements and are excluded."""
    s = 500.0 / 32
    tx = build_uniform_array([500.0 - 15.5 * s, -15.5 * s], [[1, 0], [0, 1]], [32, 32], [s, s],
                             "transmit")
    rx = build_uniform_array([15.5 * s, 500.0 - 15.5 * s], [[0, 1], [-1, 0]], [32, 32], [s, s],
                             "receive")
    return tx, rx, Scene([500.0, 500.0]), EvalGrid([0.0, 0.0], [1000.0, 1000.0], (64, 64))


def _spy_line_roots(monkeypatch) -> list:
    """Record u_t.size, the line-cell pairs, of every _line_roots call."""
    cells = []
    line_roots = chirp._line_roots

    def spy(u_t, *args):
        cells.append(u_t.size)
        return line_roots(u_t, *args)

    monkeypatch.setattr(chirp, "_line_roots", spy)
    return cells


class TestLineKernel:
    def test_random_linear_arrays(self):
        rng = np.random.default_rng(41)
        for trial in range(24):
            n = int(rng.integers(2, 401))
            spacing = rng.uniform(0.3, 6.0)
            # Every third array is axis-aligned, so cells and scatterer can sit
            # exactly on its line; the others are oblique.
            axis = np.array([1.0, 0.0]) if trial % 3 == 0 else _rotation(rng, 2)[0]
            origin = rng.uniform(-50, 50, 2)
            arr = build_uniform_array(origin, [axis], [n], [spacing], "transmit")
            length = (n - 1) * spacing
            kind = trial % 4
            if kind == 0:  # on the line's extension
                scatterer = origin - rng.uniform(1.0, 100.0) * axis
            elif kind == 1:  # on the line, between two elements
                scatterer = origin + (int(rng.integers(0, n - 1)) + 0.5) * spacing * axis
            else:
                scatterer = origin + rng.uniform(-2, 2, 2) * (length + 20)
            t = rng.uniform(-0.5 * length - 10, 1.5 * length + 10, 200)
            cells = np.vstack([
                origin + rng.uniform(-2, 2, (400, 2)) * (length + 20),
                origin + t[:, None] * axis,
                origin + (np.round(2 * t / spacing) / 2 * spacing)[:, None] * axis,
            ])
            assert _assert_kernels_agree(arr, scatterer, cells) > 0

    def test_random_planar_lattices(self):
        rng = np.random.default_rng(43)
        for trial in range(8):
            dim = 2 if trial < 5 else 3
            axes = _rotation(rng, dim)[:2]
            counts = [int(rng.integers(2, 31)), int(rng.integers(2, 31))]
            spacings = rng.uniform(0.3, 6.0, 2)
            origin = rng.uniform(-20, 20, dim)
            arr = build_uniform_array(origin, axes, counts, spacings, "receive")
            size = float(np.max((np.asarray(counts) - 1) * spacings)) + 20
            row = origin + int(rng.integers(0, counts[1])) * spacings[1] * axes[1]
            scatterer = (row - rng.uniform(1.0, 50.0) * axes[0] if trial % 2
                         else origin + rng.uniform(-2, 2, dim) * size)
            t = rng.uniform(-size, 2 * size, 200)
            cells = np.vstack([origin + rng.uniform(-2, 2, (400, dim)) * size,
                               row + t[:, None] * axes[0]])
            assert _assert_kernels_agree(arr, scatterer, cells) > 0

    def test_single_element_array(self):
        # No sampled axis: no kmax column.
        arr = build_uniform_array([3.0, -2.0], [[1, 0]], [1], [1.0], "transmit")
        rng = np.random.default_rng(47)
        cells = np.vstack([rng.uniform(-10, 10, (300, 2)), [[3.0, -2.0], [3.05, -2.0]]])
        _assert_kernels_agree(arr, [20.0, 5.0], cells)

    @pytest.mark.parametrize("case", ["linear_1d", "linear", "planar", "volume", "planar_3d",
                                      "on_a_line"])
    def test_batch_width_keeps_every_bit(self, case):
        scatterer = [30.0, 25.0, 20.0]
        if case == "linear_1d":
            arr = build_uniform_array([-3.0], [[1]], [11], [0.7], "transmit")
        elif case == "linear":
            arr = build_uniform_array([-10.0, 0.0], [[0.6, 0.8]], [9], [1.3], "transmit")
        elif case == "planar":
            arr = build_uniform_array([-10.0, 0.0], [[0.6, 0.8], [-0.8, 0.6]], [7, 10],
                                      [1.3, 0.9], "transmit")
        elif case == "volume":
            arr = build_uniform_array([-20.0, -15.0, 0.0],
                                      [[1, 0, 0], [0, 0.6, 0.8], [0, -0.8, 0.6]],
                                      [5, 4, 3], [3.1, 2.7, 1.9], "receive")
        elif case == "planar_3d":
            arr = build_uniform_array([-20.0, -15.0, 0.0], [[1, 0, 0], [0, 0.6, 0.8]],
                                      [7, 10], [3.1, 2.7], "receive")
        else:
            # The scatterer lies on the lattice line of row 2 (b = 0), between
            # its elements 2 and 3, so the batches of widths 3 and 8 mix that
            # line with lines where b > 0.
            arr = build_uniform_array([0.0, 0.0], [[1, 0], [0, 1]], [6, 5], [1.5, 2.0],
                                      "transmit")
            scatterer = [3.75, 4.0]
            assert (arr.element_positions()[:, 1] == 4.0).sum() == 6
            assert _assert_kernels_agree(arr, scatterer, self._cells(arr, scatterer)) > 0
        scatterer = np.asarray(scatterer[:arr.ndim])
        _, kernel = chirp._kmax_lines(arr, scatterer, 0.1)
        cells = self._cells(arr, scatterer)
        one = kernel(cells, 1)
        assert len(one) == arr.n_axes
        lines = arr.num_elements // min(arr.counts)
        for batch in (3, 8, lines + 5):
            got = kernel(cells, batch)
            assert [k.tobytes() for k in got] == [k.tobytes() for k in one], batch

    @staticmethod
    def _cells(arr, scatterer):
        """Random cells around the array, cells on its element lines, and on
        its first three elements (0/0 terms)."""
        rng = np.random.default_rng(59)
        elements = arr.element_positions()
        lo = np.minimum(elements.min(axis=0), scatterer) - 30.0
        hi = np.maximum(elements.max(axis=0), scatterer) + 30.0
        t = rng.uniform(-40.0, 40.0, (300, 1))
        on_lines = elements[rng.integers(0, len(elements), 300)] + t * arr.axes[
            rng.integers(0, arr.n_axes, 300)]
        return np.vstack([rng.uniform(lo, hi, (700, arr.ndim)), on_lines, elements[:3]])

    @pytest.mark.parametrize("case", ["fig1", "long_array", "short_arrays", "planar"])
    def test_mask_bit_identical_to_exhaustive(self, case, monkeypatch):
        if case == "planar":
            tx, rx, scene, grid = _planar_sweep_2d()
        elif case == "fig1":
            tx, rx, scene = FIG1_TX, FIG1_RX, FIG1_SCENE
            grid = EvalGrid([150.0, 150.0], [1850.0, 1850.0], (255, 255))
        elif case == "long_array":
            # 1024 elements at 2 wavelengths, the mask-only bench geometry.
            tx = build_uniform_array([1000.0 - 1023.0, 0.0], [[1, 0]], [1024], [2.0],
                                     "transmit")
            rx = build_uniform_array([0.0, 1000.0 - 1023.0], [[0, 1]], [1024], [2.0],
                                     "receive")
            scene = Scene([1000.0, 1000.0])
            grid = EvalGrid([100.0, 100.0], [1900.0, 1900.0], (128, 128))
        else:
            # A short linear tx and a single-element rx with no sampled axis.
            tx = build_uniform_array([10.0, 0.0], [[1, 0]], [8], [3.0], "transmit")
            rx = build_uniform_array([0.0, 10.0], [[0, 1]], [1], [3.0], "receive")
            scene = Scene([60.0, 70.0])
            grid = EvalGrid([0.0, 0.0], [150.0, 150.0], (96, 96))
        mask = aliasing_mask(tx, rx, scene, WAVE, grid)
        monkeypatch.setattr(chirp, "_kmax_lines", chirp._kmax_layers)
        reference = aliasing_mask(tx, rx, scene, WAVE, grid)
        np.testing.assert_array_equal(mask.excluded, reference.excluded)
        for layer, ref in zip(mask.layers, reference.layers):
            np.testing.assert_array_equal(layer.free, ref.free)
        np.testing.assert_array_equal(mask.combined, reference.combined)
        assert 0 < mask.combined.sum() < mask.combined.size

    def test_early_decision_spares_the_roots(self, monkeypatch):
        # On a plane the two end elements of the lines already put almost
        # every aliased cell past the bound; only the others reach the roots.
        tx, rx, scene, grid = _planar_sweep_2d()
        cells = _spy_line_roots(monkeypatch)
        aliasing_mask(tx, rx, scene, WAVE, grid)
        line_cells = (32 + 32) * 2 * grid.num_cells  # every line, every cell
        assert 0 < sum(cells) < 0.02 * line_cells

    def test_tie_at_the_bound_is_refined(self, monkeypatch):
        # A cell whose maximum over the line ends m meets the bound exactly,
        # k m == 2 pi / d, while an interior element gives more. Equality is
        # free, so the cell stays undecided and refinement finds it aliased.
        d = 1.5
        tx = build_uniform_array([0.0, 0.0], [[1, 0]], [40], [d], "transmit")
        rx = build_uniform_array([-30.0, -30.0], [[0, 1]], [1], [1.0], "receive")
        scene = Scene([30.0, 25.0])
        grid = EvalGrid([-20.0, 5.0], [80.0, 60.0], (24, 20))
        cells = grid.cell_centers()
        # An infinite wavenumber decides every cell after the ends.
        (ends,) = chirp._kmax_lines(tx, scene.scatterer, 0.1, np.inf)[1](cells)
        (exact,) = chirp._kmax_layers(tx, scene.scatterer, 0.1)[1](cells)
        interior = np.flatnonzero(exact > ends)
        tie = interior[np.argsort(ends[interior], kind="stable")[len(interior) // 4]]
        bound = 2.0 * np.pi / d
        wavelength = ends[tie] * d
        for _ in range(64):
            k = WaveParams(wavelength).wavenumber
            if k * ends[tie] == bound:
                break
            wavelength = np.nextafter(wavelength, np.inf if k * ends[tie] > bound else 0.0)
        assert k * ends[tie] == bound

        roots = _spy_line_roots(monkeypatch)
        (kmax,) = chirp._kmax_lines(tx, scene.scatterer, 0.1, k)[1](cells)
        undecided = k * ends <= bound
        assert undecided[tie] and 0 < undecided.sum() < len(cells) / 2
        # One line, so one gather of the undecided cells reaches the roots.
        assert roots == [undecided.sum()]
        assert kmax[undecided].tobytes() == exact[undecided].tobytes()
        assert kmax[~undecided].tobytes() == ends[~undecided].tobytes()
        assert k * kmax[tie] > bound

        wave = WaveParams(wavelength)
        mask = aliasing_mask(tx, rx, scene, wave, grid, epsilon=0.1)
        monkeypatch.setattr(chirp, "_kmax_lines", chirp._kmax_layers)
        reference = aliasing_mask(tx, rx, scene, wave, grid, epsilon=0.1)
        (layer,), (ref,) = mask.layers, reference.layers
        np.testing.assert_array_equal(layer.free, ref.free)
        assert not layer.free.flat[tie] and layer.free.any()
