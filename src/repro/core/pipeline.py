"""The layered analytical workflow of Fig. 7, as one batched pipeline.

The pipeline mirrors the paper's layer stack:

* **data transformation** — raw acceleration blocks to physical features
  (per-measurement offsets, RMS, DCT-based PSD), computed over the whole
  measurement matrix in row tiles with one batched DCT per tile;
* **data preprocessing** — mean-shift outlier detection on acceleration
  averages per sensor, moving-average denoising of the degradation-feature
  time series, and construction of the dense matrices used downstream;
* **feature matrix extraction** — harmonic peak features and the peak
  harmonic distance ``D_a`` from a Zone A exemplar, batch-extracted and
  memoized in a content-addressed cache;
* **RUL model layer** — zone classification thresholds, recursive-RANSAC
  lifetime models and per-pump RUL predictions fanned across a
  :class:`~repro.runtime.fleet.FleetExecutor`.

Each stage has one implementation.  The scalar per-measurement versions
they replaced live on as test oracles in ``tests/reference/``; the parity
suites hold this pipeline bit-identical to them.

Inputs are plain arrays so the pipeline is independent of the storage
layer; ``repro.analysis.engine`` binds it to the database-backed retrieval
API.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dct

from repro.core.classify import PeakHarmonicFeature, ZoneClassifier
from repro.core.features import psd_frequencies
from repro.core.outliers import OutlierConfig, detect_invalid_measurements
from repro.core.peaks import (
    DEFAULT_MIN_SIGNIFICANCE,
    DEFAULT_NUM_PEAKS,
    DEFAULT_WINDOW_SIZE,
    extract_harmonic_peaks,
    extract_harmonic_peaks_batch,
)
from repro.core.ransac import LineModel, RecursiveRANSAC
from repro.core.rul import RULEstimator, RULPrediction, learn_zone_d_threshold
from repro.core.window import moving_average
from repro.runtime.cache import (
    PeakFeatureCache,
    TransformCache,
    array_digest,
    as_float_array,
    default_peak_cache,
)
from repro.runtime.fleet import FleetExecutor
from repro.runtime.profile import RuntimeProfile

#: Rows per transform chunk.  8192 blocks of (1024, 3) float64 is ~192 MiB
#: of input per chunk — enough to amortize the DCT call, small enough to
#: keep peak memory bounded on fleet-scale matrices.
DEFAULT_CHUNK_ROWS = 8192

#: Rows per compute tile of the two row-local stages: the transform
#: (within a chunk) and the ``D_a`` peak extraction.  The chunk is the
#: content-addressed cache unit; the tile is the unit of actual compute
#: and of the thread fan-out.  Small tiles keep the working set
#: (normalized block, transposed DCT scratch, peak-selection
#: temporaries) inside a few MiB that each thread's buffers recycle,
#: instead of faulting in hundreds of MiB of fresh temporaries per
#: chunk — measured ~4x faster on the 8,640-row fleet matrix with
#: bit-identical output (the DCT, the peak selection and every reduction
#: are row-local, so tile boundaries cannot change a single float).
TRANSFORM_TILE_ROWS = 256


@dataclass(frozen=True)
class PipelineConfig:
    """Tunable parameters of the analytical workflow.

    Attributes:
        sampling_rate_hz: sensor sampling rate for PSD bin frequencies.
        num_peaks: ``n_p`` of the harmonic peak extraction.
        peak_window_size: ``n_h`` Hann smoothing window.
        moving_average_window: trailing window (in measurements) applied
            to each pump's ``D_a`` series; at least 1, and 1 disables
            smoothing.  The paper defaults to one day of measurements.
        outlier: invalid-measurement detection configuration.
        ransac_min_inliers: minimum support for a lifetime model.
        ransac_residual_threshold: inlier band for lifetime models; None
            derives it from the data.
        ransac_seed: RNG seed for reproducible model discovery.
    """

    sampling_rate_hz: float = 4000.0
    num_peaks: int = DEFAULT_NUM_PEAKS
    peak_window_size: int = DEFAULT_WINDOW_SIZE
    moving_average_window: int = 1
    outlier: OutlierConfig = field(default_factory=OutlierConfig)
    ransac_min_inliers: int = 30
    ransac_residual_threshold: float | None = None
    ransac_seed: int = 0

    def __post_init__(self) -> None:
        if self.moving_average_window < 1:
            raise ValueError("moving_average_window must be positive")


@dataclass
class PipelineResult:
    """All artifacts produced by one pipeline run.

    Attributes:
        valid_mask: per-measurement validity after outlier detection.
        offsets: ``(n, 3)`` acceleration averages.
        rms: ``(n,)`` RMS features.
        psd: ``(n, K)`` PSD feature matrix.
        da: ``(n,)`` peak harmonic distance from the Zone A exemplar
            (NaN for invalid measurements).
        zones: predicted zone label per measurement (``""`` for invalid).
        zone_thresholds: learned ``D_a`` boundaries between ordered zones.
        zone_d_threshold: hazard boundary used by the RUL layer.
        lifetime_models: population models discovered by recursive RANSAC.
        rul: per-pump RUL predictions.
    """

    valid_mask: np.ndarray
    offsets: np.ndarray
    rms: np.ndarray
    psd: np.ndarray
    da: np.ndarray
    zones: np.ndarray
    zone_thresholds: np.ndarray
    zone_d_threshold: float
    lifetime_models: list[LineModel]
    rul: dict[object, RULPrediction]


def map_row_tiles(fn, lo: int, hi: int, workers: int, scratch=lambda: None) -> list:
    """``fn(tlo, thi, buffers)`` over the row tiles of ``[lo, hi)``, in tile order.

    Tiles of :data:`TRANSFORM_TILE_ROWS` rows run on up to ``workers``
    threads (serially for ``workers <= 1`` or a single tile).  Each
    thread calls ``scratch()`` once for its own ``buffers``.  Results
    come back in tile order and a failing tile re-raises, earliest tile
    first, so the outcome does not depend on the thread count as long as
    ``fn`` writes only its own rows.
    """
    tile = TRANSFORM_TILE_ROWS
    tiles = [(tlo, min(tlo + tile, hi)) for tlo in range(lo, hi, tile)]
    workers = min(workers, len(tiles))
    if workers <= 1:
        buffers = scratch()
        return [fn(tlo, thi, buffers) for tlo, thi in tiles]
    local = threading.local()

    def run(bounds: tuple[int, int]):
        if not hasattr(local, "buffers"):
            local.buffers = scratch()
        return fn(*bounds, local.buffers)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, tiles))


def _transform_tiled(
    blocks: np.ndarray,
    lo: int,
    hi: int,
    offsets: np.ndarray,
    rms: np.ndarray,
    psd: np.ndarray,
    workers: int = 1,
) -> None:
    """Compute transform outputs for rows ``[lo, hi)`` tile by tile.

    Writes the mean offsets, RMS and PSD rows in place, tiles fanned
    over up to ``workers`` threads.  Every transform chunk runs through
    this exact function, so outputs are bit-identical regardless of the
    chunking or how many threads executed a row.  float32 blocks are
    upcast tile by tile into a float64 scratch buffer, exactly, before
    the unchanged op sequence, so they transform bit-identically to
    their float64 upcast.

    Raises:
        ValueError: if any sample in ``[lo, hi)`` is non-finite.
    """
    k = blocks.shape[1]
    rows = min(TRANSFORM_TILE_ROWS, max(hi - lo, 1))

    def scratch() -> tuple[np.ndarray, np.ndarray]:
        return np.empty((rows, k, 3)), np.empty((rows, 3, k))

    def transform_tile(tlo: int, thi: int, buffers) -> None:
        norm, work = buffers
        m = thi - tlo
        chunk = blocks[tlo:thi]
        if not np.all(np.isfinite(chunk)):
            raise ValueError("measurement contains non-finite samples")
        normalized = norm[:m]
        if chunk.dtype != np.float64:
            normalized[...] = chunk
            chunk = normalized
        means = chunk.mean(axis=1)
        np.subtract(chunk, means[:, None, :], out=normalized)
        per_axis_sq = np.square(normalized).sum(axis=1)
        per_axis_sq /= k
        # The DCT and the PSD reduction both run along the K samples, so
        # the (m, 3, K) contiguous scratch keeps every hot inner loop on
        # unit stride; the DCT output is bit-identical across layouts
        # and may destroy the scratch in place.
        transposed = work[:m]
        transposed[...] = normalized.transpose(0, 2, 1)
        coeffs = dct(transposed, type=2, norm="ortho", axis=2, overwrite_x=True)
        offsets[tlo:thi] = means
        rms[tlo:thi] = np.sqrt(per_axis_sq.sum(axis=1))
        # Square and scale in place (coeffs is ours), then reduce the
        # axis dimension; elementwise identical to (coeffs**2 / k).
        np.square(coeffs, out=coeffs)
        coeffs /= k
        psd[tlo:thi] = coeffs.sum(axis=1)

    map_row_tiles(transform_tile, lo, hi, workers, scratch)


class BatchPeakHarmonicFeature(PeakHarmonicFeature):
    """Cache-backed, batch-extracting ``D_a`` feature of the pipeline.

    Produces bit-identical scores to the per-row
    :class:`~repro.core.classify.PeakHarmonicFeature`: smoothing runs
    through the flattened single-convolution kernel and peak selection
    shares the per-row selection code, so only the *batching* differs.
    Cache misses are extracted in :data:`TRANSFORM_TILE_ROWS`-row tiles
    on up to ``workers`` threads, which also bounds the extraction's
    temporaries to one tile per thread.
    """

    def __init__(
        self,
        num_peaks: int = DEFAULT_NUM_PEAKS,
        window_size: int = DEFAULT_WINDOW_SIZE,
        cache: PeakFeatureCache | None = None,
        workers: int = 1,
    ):
        super().__init__(num_peaks=num_peaks, window_size=window_size)
        self.cache = cache if cache is not None else default_peak_cache()
        self.workers = workers

    def _params_key(self) -> tuple:
        # extract_harmonic_peaks defaults, spelled out so the cache key
        # pins every parameter that shapes the output.
        return PeakFeatureCache.peak_params_key(
            self.num_peaks, self.window_size, 2, DEFAULT_MIN_SIGNIFICANCE
        )

    def fit(
        self, reference_psds: np.ndarray, frequencies: np.ndarray
    ) -> "BatchPeakHarmonicFeature":
        """Build (or recall) the Zone A exemplar from reference PSD rows."""
        ref = np.atleast_2d(np.asarray(reference_psds, dtype=np.float64))
        if ref.shape[0] == 0:
            raise ValueError("at least one reference PSD is required")
        mean_psd = ref.mean(axis=0)
        freqs = np.asarray(frequencies, dtype=np.float64)
        self.baseline_ = self.cache.exemplar(
            mean_psd,
            freqs,
            self._params_key(),
            lambda: extract_harmonic_peaks(
                mean_psd,
                freqs,
                num_peaks=self.num_peaks,
                window_size=self.window_size,
            ),
        )
        return self

    def score_many(self, psds: np.ndarray, frequencies: np.ndarray) -> np.ndarray:
        """``D_a`` per PSD row, batch-extracting only the cache misses.

        Runs through the cache's fused :meth:`~PeakFeatureCache.scores_for_rows`
        so each PSD row is digested exactly once: a warm row resolves its
        distance directly, a cold row fills the peaks entry and the
        row-keyed distance entry from one tiled extraction plus one
        batched Algorithm 1 call.
        """
        if self.baseline_ is None:
            raise RuntimeError("feature is not fitted")
        rows = np.atleast_2d(np.asarray(psds, dtype=np.float64))
        freqs = np.asarray(frequencies, dtype=np.float64)

        def extract(miss_rows: np.ndarray) -> list:
            tiles = map_row_tiles(
                lambda lo, hi, _: extract_harmonic_peaks_batch(
                    miss_rows[lo:hi],
                    freqs,
                    num_peaks=self.num_peaks,
                    window_size=self.window_size,
                ),
                0,
                miss_rows.shape[0],
                self.workers,
            )
            return [peaks for tile in tiles for peaks in tile]

        return self.cache.scores_for_rows(
            rows,
            freqs,
            self._params_key(),
            self.baseline_,
            float(DEFAULT_WINDOW_SIZE),
            extract,
        )


def _unprofiled(name: str, items: int = 0):
    """Stage timer of an unprofiled run: times nothing."""
    return nullcontext()


def _validate_inputs(
    ids: np.ndarray,
    days: np.ndarray,
    blocks: np.ndarray,
    train_labels: dict[int, str],
) -> None:
    n = ids.shape[0]
    if days.shape[0] != n or blocks.shape[0] != n:
        raise ValueError("pump_ids, service_days and samples must align")
    if not train_labels:
        raise ValueError("train_labels must not be empty")
    bad_idx = [i for i in train_labels if not 0 <= i < n]
    if bad_idx:
        raise ValueError(f"train_labels reference invalid indices: {bad_idx}")


class AnalysisPipeline:
    """Fig. 7 workflow over in-memory measurement arrays.

    One instance owns the runtime state that makes repeated analyses
    cheap: the content-addressed transform and peak-feature caches, the
    fleet executor for the per-pump fan-out, and an optional checkpoint
    journal.  :meth:`run` accepts a
    :class:`~repro.runtime.profile.RuntimeProfile` to collect per-stage
    wall-clock timings and cache/executor counters.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        executor: FleetExecutor | None = None,
        cache: PeakFeatureCache | None = None,
        transform_cache: TransformCache | None = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        checkpoint=None,
    ):
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")
        self.config = config or PipelineConfig()
        self.executor = executor if executor is not None else FleetExecutor()
        self.cache = cache if cache is not None else default_peak_cache()
        self.transform_cache = (
            transform_cache if transform_cache is not None else TransformCache()
        )
        self.chunk_rows = chunk_rows
        #: Optional :class:`~repro.runtime.checkpoint.CheckpointManager`;
        #: when armed, every completed transform chunk is journaled and
        #: recalled on resume, and warm transform-cache hits are
        #: revalidated against the manifest's superseded set.
        self.checkpoint = checkpoint
        self.classifier_: ZoneClassifier | None = None
        self.estimator_: RULEstimator | None = None

    # ------------------------------------------------------------------
    # Individual layers, usable on their own.
    # ------------------------------------------------------------------
    def transform(self, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Data transformation layer: ``(offsets, rms, psd)`` per block.

        One batched orthonormal DCT-II per row tile; offsets and RMS come
        from broadcast reductions over the same tile.  Chunks of
        ``chunk_rows`` rows are memoized by content digest (and journaled
        when a checkpoint is armed); a missed chunk's tiles are fanned
        over up to ``executor.max_workers`` threads.

        Args:
            samples: measurement blocks, shape ``(n, K, 3)``.  float32
                (the stored sensor format) and float64 are used as given,
                other dtypes are cast to float64; float32 blocks give the
                bit-identical outputs of their float64 upcast.
        """
        blocks = as_float_array(samples)
        if blocks.ndim != 3 or blocks.shape[2] != 3:
            raise ValueError(f"samples must have shape (n, K, 3), got {blocks.shape}")
        n, k = blocks.shape[0], blocks.shape[1]
        if n and k < 2:
            raise ValueError("measurement must contain at least 2 samples")
        offsets = np.empty((n, 3))
        rms = np.empty(n)
        psd = np.empty((n, k))
        ckpt = self.checkpoint
        missed: list[tuple[int, int, int, bytes]] = []
        resumed: list[tuple[int, int, int, bytes]] = []
        for index, lo in enumerate(range(0, n, self.chunk_rows)):
            hi = min(lo + self.chunk_rows, n)
            # Content-addressed transform memo: measurement blocks are
            # immutable, so one digest pass (~5x cheaper than the DCT
            # pipeline) recalls the whole chunk on re-analysis.
            chunk_key = array_digest(blocks[lo:hi])
            cached = self.transform_cache.get(chunk_key)
            if cached is not None and ckpt is not None and not ckpt.is_current(
                chunk_key
            ):
                # A later run overwrote this chunk slot: the warm entry
                # must not resurrect superseded output.  Recompute.
                self.transform_cache.invalidate(chunk_key)
                cached = None
            if cached is not None:
                offsets[lo:hi], rms[lo:hi], psd[lo:hi] = cached
                continue
            if ckpt is not None:
                journaled = ckpt.load_chunk(index, chunk_key)
                if journaled is not None:
                    offsets[lo:hi], rms[lo:hi], psd[lo:hi] = journaled
                    resumed.append((index, lo, hi, chunk_key))
                    continue
            missed.append((index, lo, hi, chunk_key))
        for index, lo, hi, chunk_key in missed:
            _transform_tiled(
                blocks, lo, hi, offsets, rms, psd, self.executor.max_workers
            )
            # Journal each chunk the moment it completes, so a crash
            # mid-run resumes from here rather than from scratch.
            if ckpt is not None:
                ckpt.record_chunk(
                    index, lo, hi, chunk_key,
                    offsets[lo:hi], rms[lo:hi], psd[lo:hi],
                )
        if missed or resumed:
            # Ownership transfer: freeze the result buffers and store the
            # missed chunks as views instead of copies — copying
            # fleet-scale PSD chunks costs more than the cache recall
            # saves.  Cold-path callers therefore receive read-only
            # arrays; every downstream stage treats them as immutable.
            offsets.setflags(write=False)
            rms.setflags(write=False)
            psd.setflags(write=False)
            for _, lo, hi, chunk_key in missed + resumed:
                self.transform_cache.put_owned(
                    chunk_key, offsets[lo:hi], rms[lo:hi], psd[lo:hi]
                )
        return offsets, rms, psd

    def preprocess(
        self,
        pump_ids: np.ndarray,
        offsets: np.ndarray,
        service_days: np.ndarray | None = None,
    ) -> np.ndarray:
        """Preprocessing layer: per-sensor invalid-measurement mask.

        Outlier detection runs per sensor *epoch*: a pump replacement
        installs a fresh sensor with a new mounting orientation, so each
        stretch of monotonically increasing service time is clustered on
        its own (a legitimate offset change at replacement must not
        poison the new sensor's regime).

        Returns a boolean mask where True marks a *valid* measurement.
        """
        ids = np.asarray(pump_ids)
        valid = np.ones(ids.shape[0], dtype=bool)
        for pump in np.unique(ids):
            member_idx = np.nonzero(ids == pump)[0]
            if service_days is None:
                epochs = [member_idx]
            else:
                days = np.asarray(service_days, dtype=np.float64)[member_idx]
                resets = np.nonzero(np.diff(days) < 0)[0] + 1
                epochs = np.split(member_idx, resets)
            for epoch in epochs:
                if epoch.size == 0:
                    continue
                invalid = detect_invalid_measurements(
                    offsets[epoch], self.config.outlier
                )
                valid[epoch[invalid]] = False
        return valid

    def frequencies(self, num_bins: int) -> np.ndarray:
        """PSD bin frequencies for the configured sampling rate."""
        return psd_frequencies(num_bins, self.config.sampling_rate_hz)

    # ------------------------------------------------------------------
    # End-to-end run.
    # ------------------------------------------------------------------
    @contextmanager
    def profiled(self, profile: RuntimeProfile | None):
        """Arm ``profile`` for one run.

        Yields the stage timer — ``stage(name, items)`` returns a context
        manager — and, when the run completes, adds the run's cache,
        checkpoint, executor and supervision counters to the profile.
        """
        if profile is None:
            yield _unprofiled
            return
        hits0, misses0 = self.cache.hits, self.cache.misses
        t_hits0, t_misses0 = self.transform_cache.hits, self.transform_cache.misses
        ckpt = self.checkpoint
        c_hits0, c_misses0 = (ckpt.hits, ckpt.misses) if ckpt is not None else (0, 0)
        sup = self.executor.supervision_report
        sup0 = sup.as_dict() if sup is not None else None
        yield profile.stage
        profile.count("peak_cache_hits", self.cache.hits - hits0)
        profile.count("peak_cache_misses", self.cache.misses - misses0)
        profile.count("transform_cache_hits", self.transform_cache.hits - t_hits0)
        profile.count("transform_cache_misses", self.transform_cache.misses - t_misses0)
        profile.count("fleet_workers", self.executor.max_workers)
        if ckpt is not None:
            profile.count("checkpoint_hits", ckpt.hits - c_hits0)
            profile.count("checkpoint_misses", ckpt.misses - c_misses0)
        if sup0 is not None:
            now = self.executor.supervision_report.as_dict()
            profile.add_supervision({key: now[key] - sup0[key] for key in now})

    def run(
        self,
        pump_ids: np.ndarray,
        service_days: np.ndarray,
        samples: np.ndarray,
        train_labels: dict[int, str],
        profile: RuntimeProfile | None = None,
    ) -> PipelineResult:
        """Execute the full workflow.

        Args:
            pump_ids: pump identifier per measurement, shape ``(n,)``.
            service_days: pump service time (days) per measurement.
            samples: raw blocks ``(n, K, 3)`` in g, float32 as stored or
                float64 (other dtypes are cast to float64).
            train_labels: mapping from measurement index to expert zone
                label; must contain at least one measurement of each zone
                (A, BC and D).
            profile: optional per-stage wall-clock collector; stage
                timings and cache/executor counters accumulate into it.

        Returns:
            PipelineResult with every layer's artifacts.
        """
        ids = np.asarray(pump_ids)
        days = np.asarray(service_days, dtype=np.float64)
        blocks = as_float_array(samples)
        _validate_inputs(ids, days, blocks, train_labels)

        with self.profiled(profile) as stage:
            with stage("transform", ids.shape[0]):
                offsets, rms, psd = self.transform(blocks)
            return self.run_from_features(
                ids, days, offsets, rms, psd, train_labels, stage
            )

    def run_from_features(
        self,
        pump_ids: np.ndarray,
        service_days: np.ndarray,
        offsets: np.ndarray,
        rms: np.ndarray,
        psd: np.ndarray,
        train_labels: dict[int, str],
        stage=_unprofiled,
    ) -> PipelineResult:
        """Execute the workflow from precomputed transform outputs.

        Everything downstream of the data transformation layer —
        preprocessing, classifier training, ``D_a`` scoring, zone
        classification and the RUL layer.  :meth:`run` delegates here
        after transforming raw blocks; incremental callers that cache the
        per-measurement transform triple across rolling-window advances
        enter here directly with the merged features.

        Args:
            pump_ids: pump identifier per measurement, shape ``(n,)``.
            service_days: pump service time (days) per measurement.
            offsets: ``(n, 3)`` acceleration averages.
            rms: ``(n,)`` RMS features.
            psd: ``(n, K)`` PSD feature matrix.
            train_labels: mapping from measurement index to expert label.
            stage: stage timer yielded by :meth:`profiled`.

        Returns:
            PipelineResult with every layer's artifacts.
        """
        ids = np.asarray(pump_ids)
        days = np.asarray(service_days, dtype=np.float64)
        _validate_inputs(ids, days, psd, train_labels)
        n = ids.shape[0]
        config = self.config

        with stage("preprocess", n):
            valid = self.preprocess(ids, offsets, days)
        freqs = self.frequencies(psd.shape[1])

        with stage("fit_classifier", len(train_labels)):
            train_idx = np.asarray(
                [i for i in sorted(train_labels) if valid[i]], dtype=np.intp
            )
            if train_idx.size == 0:
                raise ValueError("all labelled measurements were flagged invalid")
            labels = np.asarray([train_labels[int(i)] for i in train_idx], dtype=object)
            classifier = ZoneClassifier(
                feature=BatchPeakHarmonicFeature(
                    num_peaks=config.num_peaks,
                    window_size=config.peak_window_size,
                    cache=self.cache,
                    workers=self.executor.max_workers,
                )
            )
            classifier.fit(psd[train_idx], labels, freqs)
            self.classifier_ = classifier
        valid_idx = np.nonzero(valid)[0]
        with stage("score_da", int(valid_idx.size)):
            da = np.full(n, np.nan)
            da[valid_idx] = classifier.decision_scores(psd[valid_idx], freqs)
            if config.moving_average_window > 1:
                for pump in np.unique(ids):
                    member = np.nonzero((ids == pump) & valid)[0]
                    member = member[np.argsort(days[member], kind="stable")]
                    if member.size:
                        da[member] = moving_average(
                            da[member], config.moving_average_window
                        )

        with stage("classify_zones", int(valid_idx.size)):
            zones = np.full(n, "", dtype=object)
            zones[valid_idx] = classifier.classifier.predict(da[valid_idx])

        # The RUL model layer is two distinct costs worth separating in a
        # profile: the exact KDE threshold scan over the labelled records
        # and the batched recursive-RANSAC fit over the whole fleet.
        with stage("learn_threshold", int(len(labels))):
            zone_d_threshold = learn_zone_d_threshold(da[train_idx], labels)
        with stage("fit_lifetime_models", int(valid_idx.size)):
            estimator = RULEstimator(
                zone_d_threshold,
                RecursiveRANSAC(
                    residual_threshold=config.ransac_residual_threshold,
                    min_inliers=config.ransac_min_inliers,
                    seed=config.ransac_seed,
                ),
            )
            estimator.fit(days[valid_idx], da[valid_idx])
            self.estimator_ = estimator
        with stage("predict_rul", int(np.unique(ids).size)):
            rul: dict[object, RULPrediction] = {}
            if estimator.n_models:
                # Work items in np.unique(ids) order; map_pumps preserves
                # submission order, so the dict iterates pumps sorted.
                items = []
                for pump in np.unique(ids):
                    member = np.nonzero((ids == pump) & valid)[0]
                    if member.size:
                        items.append((pump, days[member], da[member]))
                rul = self.executor.map_pumps(estimator.predict, items)

        thresholds = classifier.thresholds_
        return PipelineResult(
            valid_mask=valid,
            offsets=offsets,
            rms=rms,
            psd=psd,
            da=da,
            zones=zones,
            zone_thresholds=thresholds if thresholds is not None else np.empty(0),
            zone_d_threshold=zone_d_threshold,
            lifetime_models=estimator.models_,
            rul=rul,
        )
