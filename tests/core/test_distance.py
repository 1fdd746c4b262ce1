"""Tests for the peak harmonic distance and baseline metrics (distance.py)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import MahalanobisMetric, peak_harmonic_distance
from repro.core.peaks import HarmonicPeaks


def peaks_of(pairs):
    pairs = sorted(pairs)
    freqs = np.asarray([p[0] for p in pairs], dtype=float)
    vals = np.asarray([p[1] for p in pairs], dtype=float)
    return HarmonicPeaks(freqs, vals)


peak_features = st.lists(
    st.tuples(st.floats(1.0, 2000.0), st.floats(0.01, 10.0)),
    min_size=1,
    max_size=20,
    unique_by=lambda p: round(p[0], 3),
).map(peaks_of)


class TestPeakHarmonicDistance:
    def test_identity_is_zero(self):
        peaks = peaks_of([(100, 1.0), (300, 0.5), (900, 0.2)])
        assert peak_harmonic_distance(peaks, peaks) == pytest.approx(0.0, abs=1e-12)

    def test_both_empty_is_zero(self):
        empty = HarmonicPeaks(np.empty(0), np.empty(0))
        assert peak_harmonic_distance(empty, empty) == 0.0

    def test_extra_peak_increases_distance(self):
        base = peaks_of([(100, 1.0), (300, 0.5)])
        extra = peaks_of([(100, 1.0), (300, 0.5), (1500, 0.8)])
        assert peak_harmonic_distance(extra, base) > 0.0

    def test_matched_amplitude_shift_smaller_than_unmatched_peak(self):
        base = peaks_of([(100, 1.0), (300, 0.5)])
        shifted = peaks_of([(100, 1.1), (300, 0.5)])  # small amplitude change
        disjoint = peaks_of([(900, 1.0), (1500, 0.5)])  # nothing matches
        assert peak_harmonic_distance(shifted, base) < peak_harmonic_distance(
            disjoint, base
        )

    def test_high_frequency_disagreement_penalized_more(self):
        """The paper's deliberate property: disagreement at high frequency
        costs more, because f is normalized by f_max before the norm."""
        base = peaks_of([(100, 1.0), (2000, 1.0)])
        low_extra = peaks_of([(100, 1.0), (2000, 1.0), (200, 0.5)])
        high_extra = peaks_of([(100, 1.0), (2000, 1.0), (1900, 0.5)])
        d_low = peak_harmonic_distance(low_extra, base)
        d_high = peak_harmonic_distance(high_extra, base)
        assert d_high > d_low

    def test_scale_invariance_in_amplitude(self):
        """Normalization by p_max makes the metric amplitude-scale free."""
        a = peaks_of([(100, 1.0), (500, 0.4)])
        b = peaks_of([(120, 0.8), (700, 0.6)])
        a10 = peaks_of([(100, 10.0), (500, 4.0)])
        b10 = peaks_of([(120, 8.0), (700, 6.0)])
        assert peak_harmonic_distance(a, b) == pytest.approx(
            peak_harmonic_distance(a10, b10), rel=1e-9
        )

    def test_match_tolerance_controls_pairing(self):
        base = peaks_of([(100, 1.0)])
        near = peaks_of([(110, 1.0)])
        # Tolerant matching pairs them -> small distance (frequency gap only).
        tolerant = peak_harmonic_distance(near, base, match_tolerance_hz=24)
        # Strict matching leaves both unmatched -> both magnitudes charged.
        strict = peak_harmonic_distance(near, base, match_tolerance_hz=5)
        assert tolerant < strict

    def test_rejects_bad_tolerance(self):
        peaks = peaks_of([(100, 1.0)])
        with pytest.raises(ValueError):
            peak_harmonic_distance(peaks, peaks, match_tolerance_hz=0)

    def test_one_empty_side_charges_other_side(self):
        empty = HarmonicPeaks(np.empty(0), np.empty(0))
        peaks = peaks_of([(100, 1.0), (200, 0.5)])
        assert peak_harmonic_distance(peaks, empty) > 0
        assert peak_harmonic_distance(empty, peaks) > 0

    @given(peak_features, peak_features)
    @settings(max_examples=60, deadline=None)
    def test_non_negative(self, a, b):
        assert peak_harmonic_distance(a, b) >= 0.0

    @given(peak_features)
    @settings(max_examples=40, deadline=None)
    def test_self_distance_zero(self, a):
        assert peak_harmonic_distance(a, a) == pytest.approx(0.0, abs=1e-9)

    @given(peak_features, peak_features)
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_normalized_magnitudes(self, a, b):
        """Each per-peak contribution is at most sqrt(2) after
        normalization, so the mean is bounded too."""
        assert peak_harmonic_distance(a, b) <= np.sqrt(2.0) + 1e-9


class TestMahalanobis:
    def test_zero_at_reference_mean(self):
        gen = np.random.default_rng(0)
        ref = gen.normal(size=(50, 4))
        metric = MahalanobisMetric(ref)
        assert metric.distance(ref.mean(axis=0)) == pytest.approx(0.0, abs=1e-9)
        vecs = gen.normal(size=(5, 4))
        assert metric.distance_many(vecs) == pytest.approx(
            [metric.distance(v) for v in vecs], rel=1e-12
        )

    def test_whitens_anisotropic_data(self):
        gen = np.random.default_rng(1)
        ref = gen.normal(size=(500, 2)) * np.asarray([10.0, 0.1])
        metric = MahalanobisMetric(ref, shrinkage=0.0)
        mean = ref.mean(axis=0)
        # One sigma along each axis should be comparable after whitening.
        d_wide = metric.distance(mean + np.asarray([10.0, 0.0]))
        d_narrow = metric.distance(mean + np.asarray([0.0, 0.1]))
        assert d_wide == pytest.approx(d_narrow, rel=0.3)

    def test_singular_covariance_survives_via_regularization(self):
        ref = np.ones((3, 10))  # rank-0 covariance
        metric = MahalanobisMetric(ref, shrinkage=0.5)
        assert np.isfinite(metric.distance(np.zeros(10)))

    def test_single_reference_sample(self):
        metric = MahalanobisMetric(np.ones((1, 4)))
        assert metric.distance(np.ones(4)) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_bad_shrinkage(self):
        with pytest.raises(ValueError):
            MahalanobisMetric(np.ones((5, 2)), shrinkage=1.5)

    def test_shape_mismatch(self):
        metric = MahalanobisMetric(np.ones((5, 3)))
        with pytest.raises(ValueError):
            metric.distance(np.ones(4))
