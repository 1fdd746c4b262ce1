"""Pipeline ↔ scalar oracle parity.

The pipeline's batched kernels are built so that every float sees the
same operations in the same order as the per-measurement oracle in
``tests/reference/pipeline.py``, so these tests assert *bit* equality
(``np.array_equal``) rather than a tolerance.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.analysis.engine import EngineConfig, VibrationAnalysisEngine
from repro.core import pipeline as pipeline_module
from repro.core.classify import PeakHarmonicFeature
from repro.core.features import psd_frequencies
from repro.core.peaks import extract_harmonic_peaks_batch
from repro.core.pipeline import (
    TRANSFORM_TILE_ROWS,
    AnalysisPipeline,
    BatchPeakHarmonicFeature,
    PipelineConfig,
    map_row_tiles,
)
from repro.runtime import FleetExecutor, PeakFeatureCache, TransformCache
from repro.runtime.batch import BatchPipeline
from repro.storage.api import AnalysisPeriod, DataRetrievalAPI
from repro.storage.database import VibrationDatabase
from repro.storage.records import Measurement
from tests.reference import pipeline as oracle
from tests.reference.pipeline import ReferencePipeline

from .conftest import make_workload


def fresh_batch(config: PipelineConfig | None = None, **kwargs) -> AnalysisPipeline:
    """A pipeline with private caches (no cross-test pollution)."""
    kwargs.setdefault("cache", PeakFeatureCache())
    kwargs.setdefault("transform_cache", TransformCache())
    return AnalysisPipeline(config, **kwargs)


def test_batch_pipeline_is_the_analysis_pipeline():
    assert BatchPipeline is AnalysisPipeline


def assert_results_identical(scalar, batch) -> None:
    for name in ("offsets", "rms", "psd", "da"):
        a, b = getattr(scalar, name), getattr(batch, name)
        assert np.array_equal(a, b, equal_nan=True), f"{name} diverged"
    assert np.array_equal(scalar.valid_mask, batch.valid_mask)
    assert np.array_equal(scalar.zones, batch.zones)
    assert np.array_equal(scalar.zone_thresholds, batch.zone_thresholds)
    assert scalar.zone_d_threshold == batch.zone_d_threshold
    assert list(scalar.rul.keys()) == list(batch.rul.keys())
    for pump in scalar.rul:
        assert scalar.rul[pump] == batch.rul[pump]


class TestTransformParity:
    def test_transform_bit_identical(self, workload):
        _, _, blocks, _ = workload
        s_off, s_rms, s_psd = oracle.transform(blocks)
        b_off, b_rms, b_psd = fresh_batch().transform(blocks)
        assert np.array_equal(s_off, b_off)
        assert np.array_equal(s_rms, b_rms)
        assert np.array_equal(s_psd, b_psd)

    def test_transform_parity_across_chunk_boundaries(self, workload):
        _, _, blocks, _ = workload
        reference = oracle.transform(blocks)
        # Chunk sizes that divide, straddle, and exceed the row count.
        for chunk_rows in (1, 7, blocks.shape[0], blocks.shape[0] + 5):
            chunked = fresh_batch(chunk_rows=chunk_rows).transform(blocks)
            for ref, got in zip(reference, chunked):
                assert np.array_equal(ref, got), f"chunk_rows={chunk_rows}"

    def test_transform_empty_matrix(self):
        # The scalar oracle cannot represent an empty result (np.stack
        # needs at least one row); the pipeline degrades gracefully.
        b_off, b_rms, b_psd = fresh_batch().transform(np.empty((0, 128, 3)))
        assert b_off.shape == (0, 3)
        assert b_rms.shape == (0,)
        assert b_psd.shape == (0, 128)

    def test_nan_bearing_measurement_raises_in_both_paths(self, workload):
        _, _, blocks, _ = workload
        poisoned = blocks.copy()
        poisoned[5, 100, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            oracle.transform(poisoned)
        with pytest.raises(ValueError, match="non-finite"):
            fresh_batch().transform(poisoned)

    def test_inf_bearing_measurement_raises_in_both_paths(self, workload):
        _, _, blocks, _ = workload
        poisoned = blocks.copy()
        poisoned[0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            oracle.transform(poisoned)
        with pytest.raises(ValueError, match="non-finite"):
            fresh_batch().transform(poisoned)

    def test_bad_shape_raises_in_both_paths(self):
        bad = np.zeros((4, 64, 2))
        with pytest.raises(ValueError):
            oracle.transform(bad)
        with pytest.raises(ValueError):
            fresh_batch().transform(bad)

    def test_too_short_measurement_raises_in_both_paths(self):
        short = np.zeros((2, 1, 3))
        with pytest.raises(ValueError, match="at least 2 samples"):
            oracle.transform(short)
        with pytest.raises(ValueError, match="at least 2 samples"):
            fresh_batch().transform(short)


class TestFeatureParity:
    def test_score_many_bit_identical(self, workload):
        _, _, blocks, _ = workload
        _, _, psd = oracle.transform(blocks)
        freqs = psd_frequencies(psd.shape[1], 4000.0)
        reference_rows = psd[:10]

        scalar = PeakHarmonicFeature().fit(reference_rows, freqs)
        batch = BatchPeakHarmonicFeature(cache=PeakFeatureCache()).fit(
            reference_rows, freqs
        )
        assert np.array_equal(
            scalar.score_many(psd, freqs), batch.score_many(psd, freqs)
        )

    def test_cached_rescore_bit_identical(self, workload):
        _, _, blocks, _ = workload
        _, _, psd = oracle.transform(blocks)
        freqs = psd_frequencies(psd.shape[1], 4000.0)
        batch = BatchPeakHarmonicFeature(cache=PeakFeatureCache()).fit(
            psd[:10], freqs
        )
        first = batch.score_many(psd, freqs)
        second = batch.score_many(psd, freqs)  # now fully cache-served
        assert batch.cache.hits > 0
        assert np.array_equal(first, second)


class TestFullRunParity:
    def test_run_bit_identical_including_outlier_and_unstable_sensor(
        self, workload
    ):
        ids, days, blocks, labels = workload
        scalar = ReferencePipeline().run(ids, days, blocks, labels)
        batch = fresh_batch().run(ids, days, blocks, labels)
        # The workload really exercised the interesting paths:
        assert not scalar.valid_mask.all()  # the outlier was flagged
        assert np.isnan(scalar.da[~scalar.valid_mask]).all()
        assert_results_identical(scalar, batch)

    def test_run_parity_with_threaded_executor(self, workload):
        ids, days, blocks, labels = workload
        scalar = ReferencePipeline().run(ids, days, blocks, labels)
        threaded = fresh_batch(executor=FleetExecutor(max_workers=3)).run(
            ids, days, blocks, labels
        )
        assert_results_identical(scalar, threaded)

    def test_run_parity_with_moving_average(self, workload):
        ids, days, blocks, labels = workload
        config = PipelineConfig(moving_average_window=4)
        scalar = ReferencePipeline(config).run(ids, days, blocks, labels)
        batch = fresh_batch(config).run(ids, days, blocks, labels)
        assert_results_identical(scalar, batch)

    def test_warm_rerun_bit_identical(self, workload):
        ids, days, blocks, labels = workload
        scalar = ReferencePipeline().run(ids, days, blocks, labels)
        batch = fresh_batch()
        batch.run(ids, days, blocks, labels)
        warm = batch.run(ids, days, blocks, labels)
        assert batch.transform_cache.hits > 0
        assert batch.cache.hits > 0
        assert_results_identical(scalar, warm)

    def test_validation_error_parity(self, workload):
        ids, days, blocks, labels = workload
        for bad_labels, match in (
            ({}, "must not be empty"),
            ({10**6: "A"}, "invalid indices"),
        ):
            with pytest.raises(ValueError, match=match):
                ReferencePipeline().run(ids, days, blocks, bad_labels)
            with pytest.raises(ValueError, match=match):
                fresh_batch().run(ids, days, blocks, bad_labels)

    def test_parity_on_alternate_seed(self):
        ids, days, blocks, labels = make_workload(
            n_pumps=4, per_pump=32, num_samples=256, seed=99
        )
        scalar = ReferencePipeline().run(ids, days, blocks, labels)
        batch = fresh_batch().run(ids, days, blocks, labels)
        assert_results_identical(scalar, batch)


def float32_blocks(n: int, k: int = 64, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(0.1, 1.0, (n, k, 3)).astype(np.float32)


class TestTiledFanOut:
    """Row tiles fanned over threads change no float of either stage."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 3 * 256 + 5])
    def test_float32_transform_matches_float64_upcast(self, n, workers):
        blocks = float32_blocks(n)
        expected = fresh_batch(executor=FleetExecutor(max_workers=1)).transform(
            blocks.astype(np.float64)
        )
        got = fresh_batch(executor=FleetExecutor(max_workers=workers)).transform(
            blocks
        )
        for name, want, have in zip(("offsets", "rms", "psd"), expected, got):
            assert have.dtype == np.float64, name
            assert np.array_equal(want, have), f"{name} diverged (n={n})"

    def test_threaded_tiles_under_stress(self):
        """More threads than cores and a tiny switch interval: a shared
        scratch buffer or an overlapping write would corrupt rows."""
        blocks = float32_blocks(12 * TRANSFORM_TILE_ROWS + 1, k=32)
        expected = fresh_batch(executor=FleetExecutor(max_workers=1)).transform(blocks)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(
                target=lambda: results.append(
                    fresh_batch(executor=FleetExecutor(max_workers=8)).transform(blocks)
                )
            )
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive() and len(results) == 1
        for want, have in zip(expected, results[0]):
            assert np.array_equal(want, have)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nan_in_last_tile_raises(self, workers):
        blocks = float32_blocks(3 * 256 + 5)
        blocks[-1, 7, 2] = np.nan
        pipeline = fresh_batch(executor=FleetExecutor(max_workers=workers))
        with pytest.raises(ValueError, match="non-finite"):
            pipeline.transform(blocks)

    def test_earliest_failing_tile_raises_first(self):
        def fn(lo, hi, _):
            if lo >= TRANSFORM_TILE_ROWS:
                raise ValueError(f"tile at {lo}")
            return lo

        for workers in (1, 2, 4):
            with pytest.raises(ValueError, match=f"tile at {TRANSFORM_TILE_ROWS}$"):
                map_row_tiles(fn, 0, 4 * TRANSFORM_TILE_ROWS, workers)

    def test_tiles_come_back_in_order_with_per_thread_scratch(self):
        n = 5 * TRANSFORM_TILE_ROWS + 3
        tiles = map_row_tiles(lambda lo, hi, buf: (lo, hi, buf), 0, n, 3, list)
        assert [(lo, hi) for lo, hi, _ in tiles] == [
            (lo, min(lo + TRANSFORM_TILE_ROWS, n))
            for lo in range(0, n, TRANSFORM_TILE_ROWS)
        ]
        assert len({id(buf) for _, _, buf in tiles}) <= 3

    def test_tiled_threaded_da_equals_one_untiled_extraction(self, monkeypatch):
        n, k = 3 * TRANSFORM_TILE_ROWS + 5, 256
        rng = np.random.default_rng(8)
        psd = rng.exponential(0.05, (n, k))
        psd[::7, 60:64] = 4.0  # plateau-topped peaks
        psd[1::7, 90] = psd[1::7, 150] = 3.0  # tied peak heights
        psd[2::7] = 1.0  # flat rows: no peaks at all
        freqs = psd_frequencies(k, 4000.0)

        calls: list[int] = []
        tiled_by_row: dict[bytes, object] = {}

        def recording(rows, *args, **kwargs):
            calls.append(rows.shape[0])
            peaks = extract_harmonic_peaks_batch(rows, *args, **kwargs)
            tiled_by_row.update(zip((row.tobytes() for row in rows), peaks))
            return peaks

        monkeypatch.setattr(pipeline_module, "extract_harmonic_peaks_batch", recording)
        feature = BatchPeakHarmonicFeature(cache=PeakFeatureCache(), workers=2)
        tiled = feature.fit(psd[:20], freqs).score_many(psd, freqs)
        assert len(calls) >= 3 and max(calls) <= TRANSFORM_TILE_ROWS

        untiled_peaks = extract_harmonic_peaks_batch(psd, freqs)
        tiled_peaks = [tiled_by_row[row.tobytes()] for row in psd]
        for want, have in zip(untiled_peaks, tiled_peaks):
            assert np.array_equal(want.frequencies, have.frequencies)
            assert np.array_equal(want.values, have.values)
        untiled = PeakHarmonicFeature().fit(psd[:20], freqs).score_many(psd, freqs)
        assert np.array_equal(untiled, tiled, equal_nan=True)


class TestFloat32EngineQuarantine:
    def test_nan_row_of_float32_matrix_is_quarantined(self, small_fleet):
        def engine_over(poison: bool):
            db = VibrationDatabase()
            small_fleet.to_database(db)
            records, _ = small_fleet.expert_labels({"A": 30, "BC": 30, "D": 20})
            db.labels.add_many(records)
            if poison:
                first = db.measurements.query()[0]
                samples = np.array(first.samples)
                samples[3, 1] = np.nan
                db.measurements.add_many(
                    [
                        Measurement(
                            pump_id=first.pump_id,
                            measurement_id=10**6,
                            timestamp_day=first.timestamp_day,
                            service_day=first.service_day,
                            samples=samples,
                        )
                    ]
                )
            api = DataRetrievalAPI(
                db, AnalysisPeriod(0.0, small_fleet.config.duration_days + 1)
            )
            assert api.measurement_matrices()[3].dtype == np.float32
            config = EngineConfig(
                pipeline=PipelineConfig(ransac_min_inliers=25), rotation_hz=29.0
            )
            return VibrationAnalysisEngine(api, config).run(), db

        clean, clean_db = engine_over(poison=False)
        poisoned, poisoned_db = engine_over(poison=True)
        health = poisoned.data_health
        pump = int(clean_db.measurements.query()[0].pump_id)
        assert health.quarantined_nonfinite == {pump: 1}
        assert health.analyzed == health.total_retrieved - 1
        assert health.analyzed == clean.data_health.analyzed
        assert np.array_equal(clean.pipeline.da, poisoned.pipeline.da, equal_nan=True)
        clean_db.close()
        poisoned_db.close()
