import numpy as np
import pytest

from nf_aliaser import (
    GeometryError,
    WaveParams,
    aliasing_free,
    build_uniform_array,
    chirp_value,
    max_spatial_frequency,
    sample_chirp_along_axis,
    spectral_support,
)
from nf_aliaser.spectral import aliasing_oracle_many

WAVE = WaveParams(1.0)

FIG1_SPACING = 500.0 / 64
FIG1_TX = build_uniform_array([500.0 - 63 / 2 * FIG1_SPACING, 0.0], [[1, 0]], [64],
                              [FIG1_SPACING], "transmit")
FIG1_XS = np.array([1000.0, 1000.0])


class TestSampleChirp:
    def test_oversample_one_is_per_element_values(self):
        samples = sample_chirp_along_axis(FIG1_TX, [1400.0, 800.0], FIG1_XS, WAVE, 0, 1)
        expected = chirp_value(FIG1_TX.element_positions(), [1400.0, 800.0], FIG1_XS, WAVE)
        np.testing.assert_array_equal(samples, expected)

    def test_fig1_oversample_eight_sample_count(self):
        samples = sample_chirp_along_axis(FIG1_TX, [1400.0, 800.0], FIG1_XS, WAVE, 0, 8)
        assert len(samples) == 63 * 8 + 1 == 505

    def test_spot_check_against_chirp_value(self):
        samples = sample_chirp_along_axis(FIG1_TX, [1400.0, 800.0], FIG1_XS, WAVE, 0, 8)
        step = FIG1_SPACING / 8
        # sample 17 sits at origin + 17 * step along x
        pos = FIG1_TX.origin + np.array([17 * step, 0.0])
        assert samples[17] == pytest.approx(
            chirp_value(pos, [1400.0, 800.0], FIG1_XS, WAVE), rel=1e-13)

    def test_matched_samples_real_positive(self):
        samples = sample_chirp_along_axis(FIG1_TX, FIG1_XS, FIG1_XS, WAVE, 0, 4)
        assert np.all(samples.imag == 0.0)
        assert np.all(samples.real > 0.0)

    def test_planar_array_holds_other_axis_at_middle_element(self):
        arr = build_uniform_array([0.0, 0.0], [[1, 0], [0, 1]], [4, 5], [1.0, 1.0],
                                  "transmit")
        samples = sample_chirp_along_axis(arr, [60.0, 40.0], [50.0, -20.0], WAVE, 0, 1)
        # middle element of axis 1: index (5-1)//2 = 2 -> offset (0, 2.0)
        row = arr.element_positions().reshape(4, 5, 2)[:, 2, :]
        expected = chirp_value(row, [60.0, 40.0], [50.0, -20.0], WAVE)
        np.testing.assert_array_equal(samples, expected)

    def test_degenerate_axis_rejected(self):
        arr = build_uniform_array([0.0, 0.0], [[1, 0], [0, 1]], [4, 1], [1.0, 1.0],
                                  "transmit")
        with pytest.raises(GeometryError):
            sample_chirp_along_axis(arr, [60.0, 40.0], [50.0, -20.0], WAVE, 1, 4)

    @pytest.mark.parametrize("axis_index", [-1, 2, True])
    def test_axis_index_outside_lattice_rejected(self, axis_index):
        # -1 used to sample a line shifted to the middle of the last axis, and
        # 2 raised IndexError.
        arr = build_uniform_array([0.0, 0.0], [[1, 0], [0, 1]], [4, 5], [1.0, 1.0],
                                  "transmit")
        with pytest.raises(GeometryError, match="axis_index"):
            sample_chirp_along_axis(arr, [60.0, 40.0], [50.0, -20.0], WAVE, axis_index, 1)

    def test_bad_oversample_rejected(self):
        for oversample in (0, 2.5):
            with pytest.raises(GeometryError):
                sample_chirp_along_axis(FIG1_TX, [1400.0, 800.0], FIG1_XS, WAVE, 0, oversample)


class TestSpectralSupport:
    def test_pure_tone_support(self):
        spacing = 0.25
        n = 256
        x = np.arange(n) * spacing
        k0 = 1.7
        support = spectral_support(np.exp(1j * k0 * x), spacing, -20.0)
        bin_width = 2 * np.pi / (n * spacing)
        assert abs(support.support_max - k0) <= bin_width

    def test_matched_taper_support_near_zero(self):
        samples = sample_chirp_along_axis(FIG1_TX, FIG1_XS, FIG1_XS, WAVE, 0, 8)
        spacing = FIG1_SPACING / 8
        support = spectral_support(samples, spacing, -20.0)
        bin_width = 2 * np.pi / (len(samples) * spacing)
        assert support.support_max <= 4 * bin_width

    def test_rect_zero_bin_is_plain_sum(self):
        rng = np.random.default_rng(31)
        samples = rng.normal(size=32) + 1j * rng.normal(size=32)
        support = spectral_support(samples, 0.5, -20.0, window="rect")
        assert support.zero_bin == pytest.approx(samples.sum(), rel=1e-14)

    def test_validation(self):
        samples = np.ones(16, dtype=complex)
        with pytest.raises(GeometryError):
            spectral_support(samples[:4], 0.5, -20.0)
        with pytest.raises(GeometryError):
            spectral_support(samples, 0.5, 3.0)
        with pytest.raises(GeometryError):
            spectral_support(samples, 0.5, np.nan)
        for spacing in (0.0, np.nan, np.inf, -0.5):
            with pytest.raises(GeometryError):
                spectral_support(samples, spacing, -20.0)
        with pytest.raises(GeometryError):
            spectral_support(samples, 0.5, -20.0, window="hamming")

    @pytest.mark.parametrize("bad, named", [
        (np.full(8, np.nan), "8 of 8 samples are not finite, "
                             "the first at indices [0, 1, 2, 3, 4, 5, 6, 7]"),
        (np.r_[np.ones(3), np.inf, np.ones(4)], "1 of 8 samples are not finite, "
                                                "the first at indices [3]"),
        (np.r_[np.ones(15), complex(0.0, -np.inf)], "1 of 16 samples are not finite, "
                                                     "the first at indices [15]"),
    ])
    @pytest.mark.parametrize("window", ["hann", "rect"])
    def test_non_finite_samples_rejected(self, bad, named, window):
        with pytest.raises(GeometryError) as info:
            spectral_support(bad, 0.5, -20.0, window=window)
        assert named in str(info.value)

    def test_magnitude_nonnegative_and_support_below_nyquist(self):
        samples = sample_chirp_along_axis(FIG1_TX, [1200.0, 400.0], FIG1_XS, WAVE, 0, 8)
        spacing = FIG1_SPACING / 8
        support = spectral_support(samples, spacing, -20.0)
        assert np.all(support.magnitude >= 0)
        assert support.support_max <= np.pi / spacing

    @pytest.mark.parametrize("point", [(1400.0, 800.0), (1200.0, 400.0)])
    def test_support_agrees_with_chirp_bound(self, point):
        # DFT route vs the closed-form per-element maximum: within 15%
        oversample = 8
        samples = sample_chirp_along_axis(FIG1_TX, point, FIG1_XS, WAVE, 0, oversample)
        support = spectral_support(samples, FIG1_SPACING / oversample, -20.0)
        k_max = max_spatial_frequency(FIG1_TX, point, FIG1_XS, WAVE, 0)
        assert abs(support.support_max - k_max) / k_max <= 0.15

    def test_refinement_consistency(self):
        point = (1400.0, 800.0)
        s8 = sample_chirp_along_axis(FIG1_TX, point, FIG1_XS, WAVE, 0, 8)
        s16 = sample_chirp_along_axis(FIG1_TX, point, FIG1_XS, WAVE, 0, 16)
        sup8 = spectral_support(s8, FIG1_SPACING / 8, -20.0)
        sup16 = spectral_support(s16, FIG1_SPACING / 16, -20.0)
        bin8 = 2 * np.pi / (len(s8) * FIG1_SPACING / 8)
        assert sup16.support_max >= sup8.support_max - bin8


class TestAliasingOracle:
    def test_half_wavelength_not_aliased(self):
        arr = build_uniform_array([100.0 - 63 / 2 * 0.5, -40.0], [[1, 0]], [64], [0.5],
                                  "transmit")
        xs = np.array([100.0, 100.0])
        rng = np.random.default_rng(13)
        pts = rng.uniform(10, 190, (50, 2))
        verdicts = aliasing_oracle_many(arr, pts, xs, WAVE)
        assert not verdicts.any()

    def test_matched_point_not_aliased(self):
        assert not aliasing_oracle_many(FIG1_TX, [1000.0, 1000.0], FIG1_XS, WAVE)[0]

    def test_known_aliased_point(self):
        # far across the array: the chirp condition fails and the coarse sum
        # carries a spurious response the dense reference does not
        point = [0.0, 1000.0]
        assert not aliasing_free(FIG1_TX, point, FIG1_XS, WAVE).ok
        assert aliasing_oracle_many(FIG1_TX, point, FIG1_XS, WAVE)[0]

    def test_oracle_agrees_with_combined_mask_on_fig1_sample(self):
        # the bistatic mask is the intersection of the per-array conditions,
        # so the oracle verdict is the OR of the per-array verdicts
        rx = build_uniform_array([0.0, 500.0 - 63 / 2 * FIG1_SPACING], [[0, 1]], [64],
                                 [FIG1_SPACING], "receive")
        rng = np.random.default_rng(37)
        pts = rng.uniform(200, 1800, (128, 2))
        free_chirp = np.array([
            aliasing_free(FIG1_TX, p, FIG1_XS, WAVE).ok
            and aliasing_free(rx, p, FIG1_XS, WAVE).ok
            for p in pts
        ])
        aliased = (aliasing_oracle_many(FIG1_TX, pts, FIG1_XS, WAVE)
                   | aliasing_oracle_many(rx, pts, FIG1_XS, WAVE))
        agreement = np.mean(free_chirp == ~aliased)
        assert agreement >= 0.9
