"""Unit and property tests for feature extraction (features.py)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.features import (
    measurement_offsets,
    normalize_measurement,
    psd_feature,
    psd_frequencies,
    rms_feature,
)
from tests.conftest import make_sine_block

finite_blocks = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(4, 64), st.just(3)),
    elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)


class TestNormalization:
    def test_normalized_block_is_zero_mean_per_axis(self):
        block = make_sine_block(offset=(0.3, -0.2, 1.0))
        normalized = normalize_measurement(block)
        assert np.allclose(normalized.mean(axis=0), 0.0, atol=1e-12)

    def test_normalization_removes_gravity_offset(self):
        with_gravity = make_sine_block(offset=(0.0, 0.0, 1.0))
        without_gravity = make_sine_block(offset=(0.0, 0.0, 0.0))
        assert np.allclose(
            normalize_measurement(with_gravity), normalize_measurement(without_gravity)
        )

    def test_offsets_recover_the_injected_bias(self):
        block = make_sine_block(offset=(0.1, -0.4, 0.9), num_samples=4096)
        offsets = measurement_offsets(block)
        # The sinusoid's own mean over a non-integer number of periods is
        # small but nonzero, hence the loose tolerance.
        assert np.allclose(offsets, [0.1, -0.4, 0.9], atol=5e-3)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            normalize_measurement(np.zeros((8, 2)))

    def test_rejects_non_finite(self):
        block = np.zeros((8, 3))
        block[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            normalize_measurement(block)

    def test_rejects_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            normalize_measurement(np.zeros((1, 3)))

    @given(finite_blocks)
    @settings(max_examples=50, deadline=None)
    def test_normalization_is_idempotent(self, block):
        once = normalize_measurement(block)
        twice = normalize_measurement(once)
        assert np.allclose(once, twice, atol=1e-9)


class TestRMS:
    def test_rms_of_constant_block_is_zero(self):
        block = np.ones((64, 3)) * 2.5
        assert rms_feature(block) == pytest.approx(0.0, abs=1e-12)

    def test_rms_combines_axes_quadratically(self):
        block = make_sine_block(amplitude=1.0, num_samples=4000)
        per_axis = block.std(axis=0)
        assert rms_feature(block) == pytest.approx(float(np.sqrt((per_axis**2).sum())))

    def test_rms_scales_linearly_with_amplitude(self):
        small = rms_feature(make_sine_block(amplitude=0.1))
        large = rms_feature(make_sine_block(amplitude=0.4))
        assert large == pytest.approx(4.0 * small, rel=1e-9)

    @given(finite_blocks)
    @settings(max_examples=50, deadline=None)
    def test_rms_is_offset_invariant(self, block):
        shifted = block + np.asarray([1.0, -2.0, 3.0])[None, :]
        assert rms_feature(block) == pytest.approx(rms_feature(shifted), abs=1e-8)


class TestPSD:
    def test_parseval_identity_per_axis(self):
        """The key invariant: sum of PSD bins equals rms² per axis."""
        gen = np.random.default_rng(7)
        block = gen.normal(0.0, 0.5, size=(1024, 3))
        psd = psd_feature(block, per_axis=True)
        per_axis_rms_sq = block.std(axis=0) ** 2
        assert np.allclose(psd.sum(axis=0), per_axis_rms_sq, rtol=1e-10)

    def test_combined_psd_sums_axes(self):
        block = make_sine_block()
        combined = psd_feature(block)
        per_axis = psd_feature(block, per_axis=True)
        assert np.allclose(combined, per_axis.sum(axis=1))

    def test_pure_tone_concentrates_at_its_bin(self):
        fs, k, f0 = 4000.0, 1024, 500.0
        block = make_sine_block(freq_hz=f0, num_samples=k, sampling_rate_hz=fs)
        psd = psd_feature(block)
        freqs = psd_frequencies(k, fs)
        dominant = freqs[int(np.argmax(psd))]
        assert abs(dominant - f0) < fs / (2 * k) * 3

    def test_dc_bin_is_zero_after_normalization(self):
        block = make_sine_block(offset=(0.5, 0.5, 0.5))
        psd = psd_feature(block)
        assert psd[0] == pytest.approx(0.0, abs=1e-18)

    def test_psd_is_non_negative(self):
        gen = np.random.default_rng(3)
        block = gen.normal(size=(256, 3))
        assert (psd_feature(block) >= 0).all()

    @given(finite_blocks)
    @settings(max_examples=40, deadline=None)
    def test_parseval_property(self, block):
        psd = psd_feature(block)
        assert psd.sum() == pytest.approx(rms_feature(block) ** 2, rel=1e-8, abs=1e-10)


class TestFrequencies:
    def test_frequency_grid_spans_dc_to_nyquist(self):
        freqs = psd_frequencies(1024, 4000.0)
        assert freqs[0] == 0.0
        assert freqs[-1] == pytest.approx(4000.0 / 2 * (1023 / 1024))

    def test_monotone_increasing(self):
        freqs = psd_frequencies(64, 22000.0)
        assert (np.diff(freqs) > 0).all()

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            psd_frequencies(1, 4000.0)
        with pytest.raises(ValueError):
            psd_frequencies(64, 0.0)


class TestWelchPSD:
    def test_parseval_like_normalization(self):
        """Sum over Welch bins approximates the signal variance, matching
        the DCT feature's convention."""
        from repro.core.features import welch_psd

        gen = np.random.default_rng(11)
        block = gen.normal(0.0, 0.5, size=(2048, 3))
        _, psd = welch_psd(block, 4000.0, nperseg=512)
        assert psd.sum() == pytest.approx(rms_feature(block) ** 2, rel=0.1)

    def test_tone_located_correctly(self):
        from repro.core.features import welch_psd

        block = make_sine_block(freq_hz=500.0, amplitude=1.0, num_samples=2048)
        freqs, psd = welch_psd(block, 4000.0, nperseg=512)
        assert abs(freqs[int(np.argmax(psd))] - 500.0) < 10.0

    def test_lower_variance_than_single_block_dct(self):
        """Welch's whole point: per-bin fluctuation across repeated noise
        measurements is smaller than the full-block estimator's."""
        from repro.core.features import welch_psd

        gen = np.random.default_rng(12)

        def spreads():
            dct_vals, welch_vals = [], []
            for _ in range(20):
                block = gen.normal(0.0, 1.0, size=(1024, 3))
                dct_vals.append(psd_feature(block)[100])
                welch_vals.append(welch_psd(block, 4000.0, nperseg=256)[1][25])
            return np.std(dct_vals) / np.mean(dct_vals), np.std(welch_vals) / np.mean(
                welch_vals
            )

        dct_cv, welch_cv = spreads()
        assert welch_cv < dct_cv

    def test_nperseg_clamped_to_block(self):
        from repro.core.features import welch_psd

        block = make_sine_block(num_samples=128)
        freqs, psd = welch_psd(block, 4000.0, nperseg=4096)
        assert freqs.size == 128 // 2 + 1

    def test_rejects_bad_nperseg(self):
        from repro.core.features import welch_psd

        with pytest.raises(ValueError):
            welch_psd(make_sine_block(), 4000.0, nperseg=1)
