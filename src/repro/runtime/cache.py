"""Memoization for harmonic-peak features and peak distances.

The analysis workflow extracts the same harmonic peak features several
times per run: classifier training scores the labelled rows, full-fleet
scoring then rescores every valid row (labelled ones included), and a
dashboard or scheduler invocation repeats the whole thing on identical
data.  Peak extraction and the exemplar build are pure functions of
``(PSD bytes, frequency bytes, peak parameters)``, so a digest-keyed
cache makes the repeats free without any risk of staleness.

Keys are SHA-1 digests of the raw float bytes plus the parameter
tuple — content-addressed, so two configs that hash equal *are* equal
work.  The cache is bounded FIFO: entries beyond ``max_entries`` evict
the oldest, which matches the streaming access pattern (old measurement
rows age out of the analysis period and never return).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from repro.core.distance import pack_peaks, packed_harmonic_distances
from repro.core.peaks import HarmonicPeaks


def as_float_array(arr) -> np.ndarray:
    """``arr`` as an ndarray, keeping float32 and float64 as they are.

    Every other dtype is cast to float64.  Sensor matrices stay float32,
    as stored; feature arrays are float64.
    """
    data = np.asarray(arr)
    if data.dtype != np.float32:
        data = data.astype(np.float64, copy=False)
    return data


def array_digest(arr: np.ndarray) -> bytes:
    """Content digest of an array's float bytes (dtype and shape included).

    float32 data is hashed as float32 bytes; every other dtype as
    float64 bytes.  The dtype is part of the key, so a float32 array and
    its float64 upcast never share one.
    """
    data = np.ascontiguousarray(as_float_array(arr))
    digest = hashlib.sha1(repr((data.dtype.str, data.shape)).encode())
    # memoryview feeds the hash without materializing a bytes copy.
    digest.update(data.data)
    return digest.digest()


class PeakFeatureCache:
    """Bounded, thread-safe memo for peak features and row ``D_a`` values.

    Three content-addressed namespaces share one eviction budget:

    * ``peaks``: per-row harmonic peak features keyed by
      ``(psd digest, freqs digest, peak params)``;
    * ``exemplar``: Zone A baseline features keyed the same way (the
      exemplar is just the peak feature of the mean reference PSD);
    * ``distance``: scalar ``D_a`` values keyed by the PSD row digest,
      the freqs digest, the peak params, the exemplar's peak-feature
      digest and the match tolerance.

    :meth:`scores_for_rows` is the one lookup path for row scores.
    """

    def __init__(self, max_entries: int = 200_000):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._store: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0

    def _get(self, key: tuple):
        with self._lock:
            if key in self._store:
                self.hits += 1
                return self._store[key]
            self.misses += 1
            return None

    def _put(self, key: tuple, value) -> None:
        with self._lock:
            self._store[key] = value
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)

    def _get_many(self, keys: list[tuple]) -> list:
        """Batch :meth:`_get` under one lock acquisition.

        Fleet-scale calls probe tens of thousands of keys per stage; a
        single critical section replaces as many lock round-trips while
        keeping the same hit/miss accounting.
        """
        with self._lock:
            store = self._store
            out = [store.get(key) for key in keys]
            found = sum(value is not None for value in out)
            self.hits += found
            self.misses += len(keys) - found
        return out

    def _put_many(self, pairs: list[tuple[tuple, object]]) -> None:
        """Batch :meth:`_put` under one lock acquisition."""
        with self._lock:
            self._store.update(pairs)
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)

    # ------------------------------------------------------------------
    # Peak features.
    # ------------------------------------------------------------------
    @staticmethod
    def peak_params_key(
        num_peaks: int,
        window_size: int,
        skip_dc_bins: int,
        min_significance: float,
    ) -> tuple:
        return (int(num_peaks), int(window_size), int(skip_dc_bins), float(min_significance))

    def exemplar(
        self,
        reference_mean_psd: np.ndarray,
        frequencies: np.ndarray,
        params_key: tuple,
        compute,
    ) -> HarmonicPeaks:
        """Memoized Zone A exemplar feature for a mean reference PSD."""
        key = (
            "exemplar",
            array_digest(reference_mean_psd),
            array_digest(frequencies),
            params_key,
        )
        cached = self._get(key)
        if cached is None:
            cached = compute()
            self._put(key, cached)
        return cached

    # ------------------------------------------------------------------
    # Fused per-row scoring.
    # ------------------------------------------------------------------
    def scores_for_rows(
        self,
        psds: np.ndarray,
        frequencies: np.ndarray,
        params_key: tuple,
        reference: HarmonicPeaks,
        match_tolerance_hz: float,
        compute_peaks_batch,
    ) -> np.ndarray:
        """``D_a`` per PSD row with a single digest pass over the rows.

        Each PSD row is digested once and that digest keys *both*
        namespaces: a warm row resolves its distance directly
        (``("distance", row, freqs, params, ref, tol)``) without ever
        materializing the peak feature, and a cold row fills the
        ``peaks`` entry and the row-keyed distance entry from one
        batched extraction + one batched Algorithm 1 call.

        Args:
            psds: ``(n, K)`` PSD matrix.
            frequencies: ``(K,)`` bin frequencies.
            params_key: :meth:`peak_params_key` of the extraction config.
            reference: the shared exemplar feature.
            match_tolerance_hz: maximum physical frequency gap for a match.
            compute_peaks_batch: callable ``(rows) -> list[HarmonicPeaks]``
                invoked once over the stacked peak-miss rows.

        Returns:
            ``(n,)`` float64 distances, bit-identical to
            :func:`~repro.core.distance.peak_harmonic_distance` per row.
        """
        rows = np.atleast_2d(np.asarray(psds, dtype=np.float64))
        freq_digest = array_digest(frequencies)
        ref_digest = self._peaks_digest(reference)
        tol = float(match_tolerance_hz)
        row_digests = [array_digest(row) for row in rows]
        dist_keys = [
            ("distance", digest, freq_digest, params_key, ref_digest, tol)
            for digest in row_digests
        ]
        out = np.empty(rows.shape[0])
        cached_dists = self._get_many(dist_keys)
        miss_idx: list[int] = []
        first_for_key: dict[tuple, int] = {}
        for i, cached in enumerate(cached_dists):
            if cached is not None:
                out[i] = cached
            else:
                # Duplicate rows within one call compute once below.
                first_for_key.setdefault(dist_keys[i], i)
                miss_idx.append(i)
        if first_for_key:
            unique_idx = list(first_for_key.values())
            peak_keys = [
                ("peaks", row_digests[i], freq_digest, params_key) for i in unique_idx
            ]
            cached_peaks = self._get_many(peak_keys)
            peaks_by_row: dict[int, HarmonicPeaks] = {
                i: peaks
                for i, peaks in zip(unique_idx, cached_peaks)
                if peaks is not None
            }
            peaks_miss = [i for i, p in zip(unique_idx, cached_peaks) if p is None]
            if peaks_miss:
                computed = compute_peaks_batch(rows[peaks_miss])
                self._put_many(
                    [
                        (("peaks", row_digests[i], freq_digest, params_key), peaks)
                        for i, peaks in zip(peaks_miss, computed)
                    ]
                )
                peaks_by_row.update(zip(peaks_miss, computed))
            distances = packed_harmonic_distances(
                pack_peaks([peaks_by_row[i] for i in unique_idx]),
                reference,
                match_tolerance_hz=tol,
            )
            values: dict[tuple, float] = {
                dist_keys[i]: float(value) for i, value in zip(unique_idx, distances)
            }
            self._put_many(list(values.items()))
            for i in miss_idx:
                out[i] = values[dist_keys[i]]
        return out

    @staticmethod
    def _peaks_digest(peaks: HarmonicPeaks) -> bytes:
        freqs = np.ascontiguousarray(peaks.frequencies, dtype=np.float64)
        vals = np.ascontiguousarray(peaks.values, dtype=np.float64)
        digest = hashlib.sha1(repr(freqs.shape).encode())
        digest.update(freqs.data)
        digest.update(vals.data)
        return digest.digest()


class TransformCache:
    """Small content-addressed memo for transform-layer outputs.

    Measurement blocks are immutable sensor data, so the transform layer
    is a pure function of the raw byte content — and the operational loop
    (``analyze`` → ``schedule`` → ``dashboard``, periodic re-analysis of
    a mostly-unchanged window) recomputes it on identical inputs.  One
    SHA-1 pass over the raw chunk (~5× cheaper than the batched DCT
    pipeline itself) retrieves the ``(offsets, rms, psd)`` triple.

    Entries hold full PSD matrices, so the store is kept *small* (a few
    chunks, FIFO-evicted) rather than sharing the peak cache's large
    entry budget.  Cached arrays are treated as immutable; hits return
    copies so callers can never corrupt the store.
    """

    def __init__(self, max_entries: int = 4):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._store: OrderedDict[bytes, tuple[np.ndarray, np.ndarray, np.ndarray]] = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0

    def invalidate(self, key: bytes) -> None:
        """Drop one entry (no-op when absent).

        The batch pipeline calls this when a checkpoint manifest marks a
        chunk digest as superseded — a stale warm entry must never
        resurrect a chunk that a later run overwrote.
        """
        with self._lock:
            self._store.pop(key, None)

    def get(self, key: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Cached ``(offsets, rms, psd)`` for a raw-chunk digest, or None."""
        with self._lock:
            entry = self._store.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            offsets, rms, psd = entry
        return offsets.copy(), rms.copy(), psd.copy()

    def put_owned(
        self,
        key: bytes,
        offsets: np.ndarray,
        rms: np.ndarray,
        psd: np.ndarray,
    ) -> None:
        """Store arrays the caller hands over, without defensive copies.

        Contract: the caller transfers ownership and must have frozen
        every base buffer (``setflags(write=False)``) so no alias can
        mutate the stored entry afterwards.  The batch pipeline uses
        this on the cold path, where copying fleet-scale PSD chunks
        would cost more than the transform cache saves.

        Raises:
            ValueError: if any array (or its base buffer) is writable.
        """
        for arr in (offsets, rms, psd):
            base = arr.base if arr.base is not None else arr
            if arr.flags.writeable or getattr(base, "flags", base).writeable:
                raise ValueError("put_owned requires frozen (read-only) arrays")
        entry = (offsets, rms, psd)
        with self._lock:
            self._store[key] = entry
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)


class ModelFitCache:
    """Bounded, thread-safe memo for lifetime-model fits.

    A recursive-RANSAC fit is a pure function of ``(engine config +
    initial RNG state, fit data)`` — :meth:`RecursiveRANSAC.config_key
    <repro.core.ransac.RecursiveRANSAC.config_key>` captures the former
    and a content digest of the ``(x, z)`` arrays the latter.  The
    walk-forward backtest exploits this: consecutive refresh days whose
    prefix windows contain the same valid points (no new measurements
    landed in between) hash equal and reuse the fitted models outright.

    Values are lists of frozen :class:`~repro.core.ransac.LineModel`
    instances; callers must treat them (and their index arrays) as
    immutable.  Eviction is FIFO like the other runtime caches.
    """

    def __init__(self, max_entries: int = 512):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._store: OrderedDict[tuple, list] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0

    @staticmethod
    def fit_key(config_key: tuple, x: np.ndarray, z: np.ndarray) -> tuple:
        """Content-addressed key for a fit: engine config + data digests."""
        return ("model-fit", config_key, array_digest(x), array_digest(z))

    def models(self, key: tuple, compute) -> list:
        """Cached model list for ``key``; ``compute()`` fills a miss."""
        with self._lock:
            if key in self._store:
                self.hits += 1
                return self._store[key]
            self.misses += 1
        models = compute()
        with self._lock:
            self._store[key] = models
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)
        return models


_DEFAULT_CACHE = PeakFeatureCache()

_DEFAULT_MODEL_FIT_CACHE = ModelFitCache()


def default_peak_cache() -> PeakFeatureCache:
    """The process-wide cache shared by batch pipelines by default."""
    return _DEFAULT_CACHE


def default_model_fit_cache() -> ModelFitCache:
    """The process-wide lifetime-model fit memo (backtests share it)."""
    return _DEFAULT_MODEL_FIT_CACHE
