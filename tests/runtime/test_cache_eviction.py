"""Eviction and collision-adjacent tests for the runtime caches.

The caches are content-addressed: digest equality is the only identity.
These tests pin the two properties that keep that safe — FIFO eviction
under a bounded budget, and *no aliasing* between arrays that share a
shape (or byte length) but differ in content.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.peaks import HarmonicPeaks, extract_harmonic_peaks_batch
from repro.runtime.cache import (
    PeakFeatureCache,
    TransformCache,
    array_digest,
    default_peak_cache,
)


class TestArrayDigest:
    def test_same_content_same_digest(self):
        a = np.arange(12, dtype=np.float64).reshape(4, 3)
        b = np.arange(12, dtype=np.float64).reshape(4, 3)
        assert array_digest(a) == array_digest(b)

    def test_same_shape_different_bytes_differ(self):
        """The collision-adjacent case: equal shape, equal dtype, one
        element different — the digests must never alias."""
        a = np.zeros((8, 3))
        b = np.zeros((8, 3))
        b[7, 2] = np.nextafter(0.0, 1.0)  # smallest possible difference
        assert array_digest(a) != array_digest(b)

    def test_same_bytes_different_shape_differ(self):
        """Shape participates in the digest: a (6,) and a (2, 3) view of
        the same buffer are different work."""
        flat = np.arange(6, dtype=np.float64)
        assert array_digest(flat) != array_digest(flat.reshape(2, 3))
        assert array_digest(flat.reshape(3, 2)) != array_digest(flat.reshape(2, 3))

    def test_non_contiguous_input_matches_contiguous_copy(self):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        strided = base[:, ::2]
        assert array_digest(strided) == array_digest(np.ascontiguousarray(strided))

    def test_integer_input_promotes_to_float64(self):
        ints = np.array([1, 2, 3])
        floats = np.array([1.0, 2.0, 3.0])
        assert array_digest(ints) == array_digest(floats)


FREQS = np.linspace(0, 2000, 64)
PARAMS = PeakFeatureCache.peak_params_key(3, 5, 2, 0.0)


def make_peaks(seed: int) -> HarmonicPeaks:
    gen = np.random.default_rng(seed)
    return HarmonicPeaks(
        frequencies=np.sort(gen.uniform(10, 2000, size=5)),
        values=gen.uniform(0.1, 1.0, size=5),
    )


def spike_row(*bins: int) -> np.ndarray:
    """A ``(1, 64)`` PSD row with unit spikes at ``bins``."""
    row = np.zeros((1, 64))
    row[0, list(bins)] = 1.0
    return row


def scores(cache, rows, reference, tol, calls):
    """:meth:`PeakFeatureCache.scores_for_rows`, logging each extraction."""

    def compute_batch(miss_rows):
        calls.append(miss_rows.shape[0])
        return extract_harmonic_peaks_batch(
            miss_rows, FREQS, num_peaks=3, window_size=5, min_significance=0.0
        )

    return cache.scores_for_rows(rows, FREQS, PARAMS, reference, tol, compute_batch)


class TestPeakFeatureCacheEviction:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            PeakFeatureCache(max_entries=0)

    def test_evicts_oldest_beyond_budget(self):
        cache = PeakFeatureCache(max_entries=3)
        for i in range(5):
            cache._put(("peaks", i), f"value-{i}")
        assert len(cache) == 3
        # FIFO: 0 and 1 evicted, 2..4 retained.
        assert cache._get(("peaks", 0)) is None
        assert cache._get(("peaks", 1)) is None
        assert cache._get(("peaks", 4)) == "value-4"

    def test_eviction_is_insertion_ordered_not_access_ordered(self):
        cache = PeakFeatureCache(max_entries=2)
        cache._put(("peaks", "a"), 1)
        cache._put(("peaks", "b"), 2)
        assert cache._get(("peaks", "a")) == 1  # touch the oldest
        cache._put(("peaks", "c"), 3)
        # Plain FIFO evicts "a" despite the recent hit.
        assert cache._get(("peaks", "a")) is None
        assert cache._get(("peaks", "b")) == 2

    def test_distance_namespace_shares_the_budget(self):
        cache = PeakFeatureCache(max_entries=2)
        calls: list[int] = []
        # One cold row fills one peaks and one distance entry.
        scores(cache, spike_row(10), make_peaks(2), 5.0, calls)
        assert len(cache) == 2
        cache._put(("peaks", "x"), 1)
        cache._put(("peaks", "y"), 2)
        # Both of the row's entries were first in, so both were evicted.
        assert len(cache) == 2
        before = cache.misses
        scores(cache, spike_row(10), make_peaks(2), 5.0, calls)
        assert cache.misses == before + 2
        assert calls == [1, 1]

    def test_no_aliasing_between_same_shape_rows(self):
        """Two PSD rows with identical shape but different bytes must be
        computed independently — a shape-only key would alias them."""
        cache = PeakFeatureCache(max_entries=100)
        row_a, row_b = spike_row(10), spike_row(20)
        (peaks_a,) = extract_harmonic_peaks_batch(
            row_a, FREQS, num_peaks=3, window_size=5, min_significance=0.0
        )
        calls: list[int] = []
        (out_a,) = scores(cache, row_a, peaks_a, 5.0, calls)
        (out_b,) = scores(cache, row_b, peaks_a, 5.0, calls)
        assert calls == [1, 1]
        assert out_a == 0.0 and out_b > 0.0
        # And both are now warm, byte-addressed.
        (again_a,) = scores(cache, row_a, peaks_a, 5.0, calls)
        assert again_a == out_a
        assert calls == [1, 1]
        assert cache.hits == 1

    def test_distance_tolerance_is_part_of_the_key(self):
        cache = PeakFeatureCache(max_entries=100)
        calls: list[int] = []
        scores(cache, spike_row(10, 30), make_peaks(4), 5.0, calls)
        misses_before = cache.misses
        scores(cache, spike_row(10, 30), make_peaks(4), 10.0, calls)
        assert cache.misses == misses_before + 1
        # Only the distance entry misses: the peaks entry is reused.
        assert calls == [1]

    def test_clear_resets_contents_and_counters(self):
        cache = PeakFeatureCache(max_entries=10)
        cache._put(("peaks", 1), "v")
        cache._get(("peaks", 1))
        cache._get(("peaks", 2))
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0
        assert cache.misses == 0


class TestTransformCacheEviction:
    def entry(self, seed: int):
        """A frozen ``(offsets, rms, psd)`` triple, as ``put_owned`` takes."""
        gen = np.random.default_rng(seed)
        arrays = gen.random(4), gen.random(4), gen.random((4, 8))
        for arr in arrays:
            arr.setflags(write=False)
        return arrays

    def test_bounded_fifo(self):
        cache = TransformCache(max_entries=2)
        for i in range(4):
            cache.put_owned(bytes([i]), *self.entry(i))
        assert len(cache) == 2
        assert cache.get(bytes([0])) is None
        assert cache.get(bytes([1])) is None
        assert cache.get(bytes([3])) is not None

    def test_hits_return_copies_not_views(self):
        """Mutating a hit must never corrupt the stored entry."""
        cache = TransformCache(max_entries=2)
        offsets, rms, psd = self.entry(5)
        cache.put_owned(b"k", offsets, rms, psd)
        got_offsets, got_rms, got_psd = cache.get(b"k")
        got_offsets[:] = -1
        got_psd[:] = -1
        clean_offsets, _, clean_psd = cache.get(b"k")
        np.testing.assert_array_equal(clean_offsets, offsets)
        np.testing.assert_array_equal(clean_psd, psd)

    def test_same_length_different_bytes_do_not_alias(self):
        cache = TransformCache(max_entries=4)
        block_a = np.zeros((16, 3))
        block_b = np.zeros((16, 3))
        block_b[0, 0] = 1e-300  # same shape and byte length, one bit of difference
        key_a, key_b = array_digest(block_a), array_digest(block_b)
        assert key_a != key_b
        cache.put_owned(key_a, *self.entry(7))
        assert cache.get(key_b) is None

    def test_counters(self):
        cache = TransformCache(max_entries=2)
        cache.get(b"missing")
        cache.put_owned(b"k", *self.entry(8))
        cache.get(b"k")
        assert cache.misses == 1
        assert cache.hits == 1


def test_default_peak_cache_is_process_wide_singleton():
    assert default_peak_cache() is default_peak_cache()
