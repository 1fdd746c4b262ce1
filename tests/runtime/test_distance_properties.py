"""Property-based tests for the peak harmonic distance (Algorithm 1).

Hypothesis generates random harmonic peak features and checks the metric
axioms the analysis layer relies on:

* non-negativity over arbitrary feature pairs;
* exact identity ``D(x, x) == 0.0`` (not merely close to zero);
* symmetry whenever the matching is complete (same peak count, shared
  frequency grid) — the docstring's caveat made precise;
* invariance of extracted peaks — and hence of the distance — under
  zero-padding of the PSD tail.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import (
    pack_peaks,
    packed_harmonic_distances,
    peak_harmonic_distance,
)
from repro.core.peaks import HarmonicPeaks, extract_harmonic_peaks


def peaks_strategy(min_peaks: int = 0, max_peaks: int = 24):
    """Strategy producing valid HarmonicPeaks features."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=min_peaks, max_value=max_peaks))
        freqs = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=2000.0,
                          allow_nan=False, allow_infinity=False),
                min_size=n, max_size=n, unique=True,
            )
        )
        values = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False),
                min_size=n, max_size=n,
            )
        )
        order = np.argsort(freqs)
        return HarmonicPeaks(
            frequencies=np.asarray(freqs, dtype=np.float64)[order],
            values=np.asarray(values, dtype=np.float64)[order],
        )

    return build()


tolerances = st.floats(min_value=1e-3, max_value=500.0,
                       allow_nan=False, allow_infinity=False)


class TestMetricAxioms:
    @settings(max_examples=100, deadline=None)
    @given(a=peaks_strategy(), b=peaks_strategy(), tol=tolerances)
    def test_non_negative(self, a, b, tol):
        assert peak_harmonic_distance(a, b, match_tolerance_hz=tol) >= 0.0

    @settings(max_examples=100, deadline=None)
    @given(a=peaks_strategy(), tol=tolerances)
    def test_identity_is_exact_zero(self, a, tol):
        assert peak_harmonic_distance(a, a, match_tolerance_hz=tol) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_symmetric_under_complete_matching(self, data):
        """Equal peak counts on a shared frequency grid match completely,
        and then ``D`` is exactly symmetric."""
        a = data.draw(peaks_strategy(min_peaks=1))
        other_values = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False),
                min_size=len(a), max_size=len(a),
            )
        )
        b = HarmonicPeaks(
            frequencies=a.frequencies.copy(),
            values=np.asarray(other_values, dtype=np.float64),
        )
        forward = peak_harmonic_distance(a, b)
        backward = peak_harmonic_distance(b, a)
        assert forward == backward

    @settings(max_examples=50, deadline=None)
    @given(a=peaks_strategy(), b=peaks_strategy(), tol=tolerances)
    def test_batch_wrapper_matches_scalar(self, a, b, tol):
        batched = packed_harmonic_distances(
            pack_peaks([a, b]), b, match_tolerance_hz=tol
        )
        assert batched[0] == peak_harmonic_distance(a, b, match_tolerance_hz=tol)
        assert batched[1] == 0.0


class TestPackedKernelParity:
    """The vectorized Algorithm 1 kernel is bit-identical to the scalar
    loop for *any* batch: ragged peak counts (including empty features
    and empty batches), any reference, any tolerance."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_packed_kernel_equals_scalar_loop(self, data):
        n_rows = data.draw(st.integers(min_value=0, max_value=8))
        rows = [data.draw(peaks_strategy()) for _ in range(n_rows)]
        reference = data.draw(peaks_strategy())
        tol = data.draw(tolerances)

        batched = packed_harmonic_distances(
            pack_peaks(rows), reference, match_tolerance_hz=tol
        )
        scalar = np.asarray(
            [
                peak_harmonic_distance(row, reference, match_tolerance_hz=tol)
                for row in rows
            ]
        )
        assert batched.shape == (n_rows,)
        assert np.array_equal(batched, scalar)


class TestZeroPaddingInvariance:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_peaks_and_distance_invariant_to_zero_padded_tail(self, data):
        """Appending zero PSD bins (with their frequency grid extended)
        changes neither the extracted peaks nor the distance."""
        n_bins = data.draw(st.integers(min_value=128, max_value=256))
        seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
        pad = data.draw(st.integers(min_value=1, max_value=64))
        window = 16

        rng = np.random.default_rng(seed)
        psd = rng.uniform(0.0, 1.0, n_bins)
        # Quiet tail: the last full smoothing window is already zero, so
        # the Hann convolution sees the same neighbourhood before and
        # after padding.
        psd[-window:] = 0.0
        spacing = 4000.0 / (2 * n_bins)
        freqs = np.arange(n_bins) * spacing

        padded_psd = np.concatenate([psd, np.zeros(pad)])
        padded_freqs = np.arange(n_bins + pad) * spacing

        base = extract_harmonic_peaks(psd, freqs, window_size=window)
        padded = extract_harmonic_peaks(padded_psd, padded_freqs, window_size=window)
        assert np.array_equal(base.frequencies, padded.frequencies)
        assert np.array_equal(base.values, padded.values)

        reference = extract_harmonic_peaks(
            rng.uniform(0.0, 1.0, n_bins), freqs, window_size=window
        )
        assert peak_harmonic_distance(base, reference) == peak_harmonic_distance(
            padded, reference
        )
