"""Unit tests for the runtime primitives: executor, caches, profiler."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.features import psd_frequencies
from repro.core.peaks import HarmonicPeaks, extract_harmonic_peaks_batch
from repro.runtime import (
    FleetExecutor,
    PeakFeatureCache,
    RuntimeProfile,
    TransformCache,
)
from repro.runtime.cache import array_digest
from repro.runtime.fleet import resolve_workers


class TestFleetExecutor:
    def test_resolve_workers(self):
        assert resolve_workers(0) == 0
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_map_ordered_serial_and_threaded_agree(self):
        items = list(range(37))
        serial = FleetExecutor(max_workers=1).map_ordered(lambda x: x * x, items)
        threaded = FleetExecutor(max_workers=4).map_ordered(lambda x: x * x, items)
        assert serial == threaded == [x * x for x in items]

    def test_map_ordered_empty(self):
        assert FleetExecutor(max_workers=4).map_ordered(lambda x: x, []) == []

    def test_map_ordered_propagates_exceptions(self):
        def boom(x):
            if x == 5:
                raise RuntimeError("pump 5 exploded")
            return x

        with pytest.raises(RuntimeError, match="pump 5"):
            FleetExecutor(max_workers=3, chunk_size=2).map_ordered(boom, range(10))

    def test_chunking_covers_all_items_exactly_once(self):
        executor = FleetExecutor(max_workers=3, chunk_size=4)
        chunks = executor._chunks(11)
        flattened = [i for chunk in chunks for i in chunk]
        assert flattened == list(range(11))

    def test_map_pumps_preserves_insertion_order(self):
        items = [(pump, pump * 10) for pump in (7, 3, 9, 1)]
        result = FleetExecutor(max_workers=4).map_pumps(lambda x: x + 1, items)
        assert list(result.keys()) == [7, 3, 9, 1]
        assert result[9] == 91

    def test_threaded_execution_actually_uses_multiple_threads(self):
        seen: set[str] = set()
        barrier = threading.Barrier(2, timeout=5)

        def record(_):
            seen.add(threading.current_thread().name)
            barrier.wait()
            return None

        FleetExecutor(max_workers=2, chunk_size=1).map_ordered(record, range(2))
        assert len(seen) == 2


class TestPeakFeatureCache:
    """:meth:`PeakFeatureCache.scores_for_rows`, the cache's one row-score
    path: each cold row fills one ``peaks`` and one ``distance`` entry."""

    FREQS = psd_frequencies(128, 4000.0)
    PARAMS = PeakFeatureCache.peak_params_key(8, 24, 2, 0.02)

    def make_peaks(self, seed: int) -> HarmonicPeaks:
        rng = np.random.default_rng(seed)
        freqs = np.sort(rng.uniform(0, 2000, 8))
        return HarmonicPeaks(frequencies=freqs, values=rng.uniform(0, 5, 8))

    def make_rows(self, seed: int, n: int = 1) -> np.ndarray:
        rng = np.random.default_rng(seed)
        rows = rng.exponential(0.05, (n, self.FREQS.size))
        rows[:, rng.integers(4, 120, 3)] = 2.0
        return rows

    def score(self, cache, rows, reference, tol=24.0, calls=None):
        def compute_batch(miss_rows):
            if calls is not None:
                calls.append(miss_rows.shape[0])
            return extract_harmonic_peaks_batch(miss_rows, self.FREQS, num_peaks=8)

        return cache.scores_for_rows(
            rows, self.FREQS, self.PARAMS, reference, tol, compute_batch
        )

    def test_distance_memoized(self):
        cache = PeakFeatureCache()
        rows, ref = self.make_rows(1), self.make_peaks(2)
        calls: list[int] = []
        first = self.score(cache, rows, ref, calls=calls)
        second = self.score(cache, rows, ref, calls=calls)
        assert np.array_equal(first, second)
        assert calls == [1]
        # Cold: distance and peaks miss; warm: the distance entry hits.
        assert cache.hits == 1 and cache.misses == 2

    def test_tolerance_is_part_of_the_key(self):
        cache = PeakFeatureCache()
        rows, ref = self.make_rows(1), self.make_peaks(2)
        self.score(cache, rows, ref, tol=24.0)
        self.score(cache, rows, ref, tol=48.0)
        # The second call misses its distance entry and hits the peaks.
        assert cache.misses == 3 and cache.hits == 1

    def test_changed_reference_exemplar_misses(self):
        cache = PeakFeatureCache()
        rows = self.make_rows(1)
        calls: list[int] = []
        first = self.score(cache, rows, self.make_peaks(2), calls=calls)
        misses = cache.misses
        second = self.score(cache, rows, self.make_peaks(3), calls=calls)
        assert cache.misses == misses + 1
        assert calls == [1]  # the row's peaks are reused
        assert not np.array_equal(first, second)

    def test_duplicate_rows_in_one_call_are_extracted_once(self):
        cache = PeakFeatureCache()
        a, b = self.make_rows(1), self.make_rows(2)
        rows = np.vstack([a, b, a, a])
        calls: list[int] = []
        out = self.score(cache, rows, self.make_peaks(3), calls=calls)
        assert calls == [2]
        assert out[0] == out[2] == out[3]
        assert len(cache) == 4  # two peaks and two distance entries

    def test_eviction_bound(self):
        cache = PeakFeatureCache(max_entries=3)
        for seed in range(6):
            self.score(cache, self.make_rows(seed), self.make_peaks(seed + 100))
        assert len(cache) == 3

    def test_clear_resets_counters(self):
        cache = PeakFeatureCache()
        self.score(cache, self.make_rows(1), self.make_peaks(2))
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            PeakFeatureCache(max_entries=0)


class TestTransformCache:
    def triple(self, seed: int):
        """A frozen ``(offsets, rms, psd)`` triple, as ``put_owned`` takes."""
        rng = np.random.default_rng(seed)
        arrays = rng.normal(size=(4, 3)), rng.normal(size=4), rng.normal(size=(4, 16))
        for arr in arrays:
            arr.setflags(write=False)
        return arrays

    def test_roundtrip_and_counters(self):
        cache = TransformCache()
        offsets, rms, psd = self.triple(0)
        key = array_digest(psd)
        assert cache.get(key) is None
        cache.put_owned(key, offsets, rms, psd)
        got = cache.get(key)
        assert got is not None
        for stored, original in zip(got, (offsets, rms, psd)):
            assert np.array_equal(stored, original)
        assert cache.hits == 1 and cache.misses == 1

    def test_hits_return_private_copies(self):
        cache = TransformCache()
        offsets, rms, psd = self.triple(0)
        cache.put_owned(b"k", offsets, rms, psd)
        first = cache.get(b"k")
        first[2][:] = -1.0  # corrupting the returned arrays ...
        again = cache.get(b"k")
        assert np.array_equal(again[2], psd)  # ... never touches the store

    def test_store_is_isolated_from_caller_buffers(self):
        cache = TransformCache()
        offsets, rms, psd = self.triple(0)
        cache.put_owned(b"k", offsets, rms, psd)
        with pytest.raises(ValueError):
            psd[:] = 99.0  # the handed-over buffer is frozen
        assert np.array_equal(cache.get(b"k")[2], self.triple(0)[2])

    def test_put_owned_rejects_writable_arrays(self):
        cache = TransformCache()
        offsets, rms, psd = self.triple(0)
        with pytest.raises(ValueError, match="frozen"):
            cache.put_owned(b"k", offsets, rms, psd.copy())
        base = np.zeros((8, 16))
        view = base[:4]
        view.setflags(write=False)  # read-only view of a writable buffer
        with pytest.raises(ValueError, match="frozen"):
            cache.put_owned(b"k", offsets, rms, view)
        assert len(cache) == 0

    def test_fifo_eviction(self):
        cache = TransformCache(max_entries=2)
        for i in range(3):
            cache.put_owned(bytes([i]), *self.triple(i))
        assert len(cache) == 2
        assert cache.get(bytes([0])) is None  # oldest evicted
        assert cache.get(bytes([2])) is not None


class TestArrayDigest:
    def test_content_addressing(self):
        a = np.arange(12, dtype=np.float64)
        assert array_digest(a) == array_digest(a.copy())
        assert array_digest(a) != array_digest(a + 1)

    def test_shape_is_part_of_the_digest(self):
        a = np.zeros(12)
        assert array_digest(a) != array_digest(a.reshape(3, 4))

    def test_non_contiguous_input(self):
        a = np.arange(24, dtype=np.float64).reshape(4, 6)
        strided = a[:, ::2]
        assert array_digest(strided) == array_digest(strided.copy())

    def test_float32_is_hashed_as_float32_with_its_dtype_in_the_key(self):
        a = np.linspace(-1.0, 1.0, 24, dtype=np.float32).reshape(8, 3)
        assert array_digest(a) == array_digest(a.copy())
        assert array_digest(a) != array_digest(a.astype(np.float64))


class TestRuntimeProfile:
    def test_stage_accumulation(self):
        profile = RuntimeProfile()
        with profile.stage("transform", items=10):
            pass
        with profile.stage("transform", items=5):
            pass
        stats = profile.stages["transform"]
        assert stats.calls == 2 and stats.items == 15
        assert stats.seconds >= 0.0

    def test_counters_and_dict_snapshot(self):
        profile = RuntimeProfile()
        profile.count("cache_hits", 3)
        profile.count("cache_hits")
        profile.add("score", 0.5, items=100)
        snapshot = profile.as_dict()
        assert snapshot["counters"]["cache_hits"] == 4
        assert snapshot["stages"]["score"]["items"] == 100

    def test_report_renders_stages_and_counters(self):
        profile = RuntimeProfile()
        profile.add("transform", 0.25, items=100)
        profile.count("fleet_workers", 4)
        text = profile.report()
        assert "transform" in text
        assert "fleet_workers=4" in text
        assert "total" in text

    def test_ms_per_item(self):
        profile = RuntimeProfile()
        profile.add("score", 1.0, items=500)
        assert profile.stages["score"].ms_per_item == 2.0
        profile.add("no_items", 1.0)
        assert profile.stages["no_items"].ms_per_item == 0.0

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError):
            RuntimeProfile().add("x", -0.1)

    def test_thread_safety_of_add(self):
        profile = RuntimeProfile()

        def hammer():
            for _ in range(500):
                profile.add("stage", 0.0, items=1)
                profile.count("n")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert profile.stages["stage"].calls == 2000
        assert profile.counters["n"] == 2000
