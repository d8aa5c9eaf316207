import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nf_aliaser import (
    SingularityError,
    WaveParams,
    chirp_phase,
    chirp_value,
    green,
)

WAVE = WaveParams(1.0)

# exp(-j*2*pi/lambda*r)/r frozen from a 50-digit mpmath evaluation
GREEN_CASES = [
    ((1.234567, -2.345678, 0.5), (4.5, 1.25, -0.75), 0.75,
     complex(-0.07661526260690124, 0.18407741359384405)),
    ((12.0, 3.5), (-4.25, 9.125), 1.0,
     complex(0.01934734809644874, -0.05484022489874816)),
    ((0.0, 0.0, 0.0), (10.125, -7.25, 3.0), 2.5,
     complex(0.055645014703516044, -0.05475664334396062)),
]


def wrap(phase):
    return np.angle(np.exp(1j * phase))


class TestGreen:
    def test_one_wavelength_separation(self):
        for lam in (1.0, 0.5, 3.25):
            wave = WaveParams(lam)
            val = green([0.0, 0.0], [lam, 0.0], wave)
            assert abs(val) == pytest.approx(1.0 / lam, rel=1e-14)
            assert wrap(np.angle(val)) == pytest.approx(0.0, abs=1e-12)

    def test_half_wavelength_separation(self):
        wave = WaveParams(2.0)
        val = green([0.0, 0.0], [0.0, 1.0], wave)
        assert abs(val) == pytest.approx(1.0, rel=1e-14)
        assert abs(wrap(np.angle(val))) == pytest.approx(np.pi, abs=1e-12)

    @pytest.mark.parametrize("source,probe,lam,expected", GREEN_CASES)
    def test_against_extended_precision(self, source, probe, lam, expected):
        val = green(source, probe, WaveParams(lam))
        assert val == pytest.approx(expected, rel=1e-12)

    def test_singularity(self):
        with pytest.raises(SingularityError):
            green([0.0, 0.0], [0.05, 0.0], WAVE)
        with pytest.raises(SingularityError):
            green([1.0, 1.0], [1.0, 1.0], WAVE)

    def test_broadcasts(self):
        probes = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
        vals = green([0.0, 0.0], probes, WAVE)
        assert vals.shape == (3,)
        np.testing.assert_allclose(np.abs(vals), [1.0, 0.5, 1.0 / 3.0], rtol=1e-14)


class TestChirp:
    def test_matched_case_real_positive(self):
        val = chirp_value([0.0, 0.0], [3.0, 4.0], [3.0, 4.0], WAVE)
        assert val.imag == 0.0
        assert val.real == pytest.approx(1.0 / 25.0, rel=1e-14)

    def test_swap_conjugates(self):
        probe, a, b = [0.5, -1.0], [4.0, 2.0], [-3.0, 6.0]
        v1 = chirp_value(probe, a, b, WAVE)
        v2 = chirp_value(probe, b, a, WAVE)
        assert v1 == pytest.approx(np.conj(v2), rel=1e-14)

    def test_composes_from_green(self):
        probe, tentative, scatterer = [1.0, 2.0], [8.0, -3.0], [-5.0, 7.0]
        expected = green(scatterer, probe, WAVE) * np.conj(green(tentative, probe, WAVE))
        assert chirp_value(probe, tentative, scatterer, WAVE) == pytest.approx(
            expected, rel=1e-12)

    def test_phase_zero_at_match(self):
        assert chirp_phase([0.0, 0.0], [5.0, 5.0], [5.0, 5.0], WAVE) == 0.0

    def test_phase_zero_on_bisector(self):
        # probe equidistant from tentative and scatterer
        phase = chirp_phase([0.0, 10.0], [-3.0, 0.0], [3.0, 0.0], WAVE)
        assert phase == pytest.approx(0.0, abs=1e-12)

    def test_phase_collinear_one_wavelength_beyond(self):
        # tentative one wavelength farther than the scatterer along the line:
        # k * (|x - xt| - |x - xs|) = k * lambda = +2*pi
        phase = chirp_phase([0.0, 0.0], [11.0, 0.0], [10.0, 0.0], WAVE)
        assert phase == pytest.approx(2 * np.pi, rel=1e-12)

    def test_phase_unwrapped(self):
        # distance difference of 5 wavelengths: phase is 10*pi, not its residue
        phase = chirp_phase([0.0, 0.0], [15.0, 0.0], [10.0, 0.0], WAVE)
        assert phase == pytest.approx(10 * np.pi, rel=1e-12)

    def test_singularity_propagates(self):
        with pytest.raises(SingularityError):
            chirp_value([0.0, 0.0], [0.01, 0.0], [5.0, 0.0], WAVE)
        with pytest.raises(SingularityError):
            chirp_phase([0.0, 0.0], [5.0, 0.0], [0.01, 0.0], WAVE)


coords = st.floats(-50.0, 50.0)
points = st.tuples(coords, coords)


def _valid_triple(probe, tentative, scatterer):
    p, t, s = map(np.asarray, (probe, tentative, scatterer))
    return min(np.linalg.norm(p - t), np.linalg.norm(p - s)) > 0.2


@settings(max_examples=100, deadline=None)
@given(probe=points, tentative=points, scatterer=points)
def test_reciprocity(probe, tentative, scatterer):
    if not _valid_triple(probe, tentative, scatterer):
        return
    v1 = chirp_value(probe, tentative, scatterer, WAVE)
    v2 = chirp_value(probe, scatterer, tentative, WAVE)
    assert v1 == pytest.approx(np.conj(v2), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(probe=points, tentative=points, scatterer=points)
def test_phase_consistency_mod_2pi(probe, tentative, scatterer):
    if not _valid_triple(probe, tentative, scatterer):
        return
    val = chirp_value(probe, tentative, scatterer, WAVE)
    phase = chirp_phase(probe, tentative, scatterer, WAVE)
    assert wrap(np.angle(val) - phase) == pytest.approx(0.0, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(probe=points, tentative=points, scatterer=points)
def test_magnitude_law(probe, tentative, scatterer):
    if not _valid_triple(probe, tentative, scatterer):
        return
    p, t, s = map(np.asarray, (probe, tentative, scatterer))
    val = chirp_value(probe, tentative, scatterer, WAVE)
    product = abs(val) * np.linalg.norm(p - t) * np.linalg.norm(p - s)
    assert product == pytest.approx(1.0, rel=1e-12)
