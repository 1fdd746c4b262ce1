"""Tests for the Fig. 7 layered pipeline (pipeline.py)."""

import numpy as np
import pytest

from repro.core.pipeline import AnalysisPipeline, PipelineConfig
from tests.reference import pipeline as oracle
from tests.reference.pipeline import ReferencePipeline


@pytest.fixture(scope="module")
def fleet_inputs(small_fleet):
    pumps, service, samples = small_fleet.measurement_arrays()
    _, labels = small_fleet.expert_labels({"A": 30, "BC": 30, "D": 20})
    return small_fleet, pumps, service, samples, labels


class TestLayers:
    def test_transform_shapes(self, fleet_inputs):
        _, pumps, service, samples, _ = fleet_inputs
        pipeline = AnalysisPipeline()
        offsets, rms, psd = pipeline.transform(samples)
        n, k = samples.shape[0], samples.shape[1]
        assert offsets.shape == (n, 3)
        assert rms.shape == (n,)
        assert psd.shape == (n, k)

    def test_transform_matches_scalar_oracle(self, fleet_inputs):
        _, _, _, samples, _ = fleet_inputs
        for got, expected in zip(
            AnalysisPipeline().transform(samples), oracle.transform(samples)
        ):
            assert np.array_equal(got, expected)

    def test_transform_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            AnalysisPipeline().transform(np.zeros((4, 16, 2)))

    def test_preprocess_keeps_stable_sensors(self, fleet_inputs):
        _, pumps, service, samples, _ = fleet_inputs
        pipeline = AnalysisPipeline()
        offsets, _, _ = pipeline.transform(samples)
        valid = pipeline.preprocess(pumps, offsets, service)
        # This fleet has only stable sensors: nearly everything is valid.
        assert valid.mean() > 0.95

    def test_frequencies_respect_config(self):
        pipeline = AnalysisPipeline(PipelineConfig(sampling_rate_hz=8000.0))
        freqs = pipeline.frequencies(512)
        assert freqs[-1] == pytest.approx(8000.0 / 2 * 511 / 512)


class TestRun:
    def test_full_run_produces_consistent_artifacts(self, fleet_inputs):
        _, pumps, service, samples, labels = fleet_inputs
        pipeline = AnalysisPipeline(PipelineConfig(ransac_min_inliers=25))
        result = pipeline.run(pumps, service, samples, labels)
        n = pumps.shape[0]
        assert result.valid_mask.shape == (n,)
        assert result.da.shape == (n,)
        assert result.zones.shape == (n,)
        assert np.isfinite(result.da[result.valid_mask]).all()
        assert np.isnan(result.da[~result.valid_mask]).all()
        assert len(result.zone_thresholds) == 2
        assert result.zone_thresholds[0] < result.zone_thresholds[1]

    def test_predicted_zones_correlate_with_truth(self, fleet_inputs):
        dataset, pumps, service, samples, labels = fleet_inputs
        pipeline = AnalysisPipeline(PipelineConfig(ransac_min_inliers=25))
        result = pipeline.run(pumps, service, samples, labels)
        valid = result.valid_mask
        accuracy = (result.zones[valid] == dataset.true_zone[valid]).mean()
        assert accuracy > 0.6

    def test_rul_predictions_cover_pumps(self, fleet_inputs):
        _, pumps, service, samples, labels = fleet_inputs
        pipeline = AnalysisPipeline(PipelineConfig(ransac_min_inliers=25))
        result = pipeline.run(pumps, service, samples, labels)
        if result.lifetime_models:
            assert set(result.rul) <= set(int(p) for p in pumps)
            for prediction in result.rul.values():
                assert np.isfinite(prediction.rul_days) or prediction.rul_days == np.inf

    def test_moving_average_smooths_da(self, fleet_inputs):
        _, pumps, service, samples, labels = fleet_inputs
        raw = AnalysisPipeline(PipelineConfig(ransac_min_inliers=25)).run(
            pumps, service, samples, labels
        )
        smoothed = AnalysisPipeline(
            PipelineConfig(moving_average_window=5, ransac_min_inliers=25)
        ).run(pumps, service, samples, labels)
        # Per-pump variance of first differences must not grow.
        pump = pumps[0]
        member = np.nonzero((pumps == pump) & raw.valid_mask)[0]
        order = member[np.argsort(service[member])]
        raw_rough = np.diff(raw.da[order]).std()
        smooth_rough = np.diff(smoothed.da[order]).std()
        assert smooth_rough <= raw_rough + 1e-12

    @pytest.mark.parametrize("window", [0, -3])
    def test_config_rejects_window_below_one(self, window):
        # A window below 1 would silently turn smoothing off.
        with pytest.raises(ValueError, match="moving_average_window"):
            PipelineConfig(moving_average_window=window)

    def test_full_run_matches_scalar_oracle(self, fleet_inputs):
        _, pumps, service, samples, labels = fleet_inputs
        config = PipelineConfig(moving_average_window=5, ransac_min_inliers=25)
        result = AnalysisPipeline(config).run(pumps, service, samples, labels)
        expected = ReferencePipeline(config).run(pumps, service, samples, labels)
        for name in ("offsets", "rms", "psd", "da"):
            assert np.array_equal(
                getattr(result, name), getattr(expected, name), equal_nan=True
            ), name
        assert np.array_equal(result.zones, expected.zones)
        assert result.zone_d_threshold == expected.zone_d_threshold
        assert list(result.rul.items()) == list(expected.rul.items())

    def test_rejects_empty_labels(self, fleet_inputs):
        _, pumps, service, samples, _ = fleet_inputs
        with pytest.raises(ValueError, match="train_labels"):
            AnalysisPipeline().run(pumps, service, samples, {})

    def test_rejects_out_of_range_label_indices(self, fleet_inputs):
        _, pumps, service, samples, _ = fleet_inputs
        with pytest.raises(ValueError, match="invalid indices"):
            AnalysisPipeline().run(
                pumps, service, samples, {10**9: "A"}
            )

    def test_rejects_misaligned_arrays(self, fleet_inputs):
        _, pumps, service, samples, labels = fleet_inputs
        with pytest.raises(ValueError, match="align"):
            AnalysisPipeline().run(pumps[:-1], service, samples, labels)


class TestEpochSplitting:
    def test_service_reset_isolates_sensor_epochs(self):
        """A pump replacement (service-time reset) must not poison the
        new sensor's offset regime."""
        gen = np.random.default_rng(0)

        def blocks_with_offset(n, offset):
            out = []
            for _ in range(n):
                block = gen.normal(0, 0.05, size=(128, 3))
                block += np.asarray(offset)[None, :]
                out.append(block)
            return np.stack(out)

        # Epoch 1: offset A; epoch 2 (after replacement): offset B.
        samples = np.concatenate(
            [
                blocks_with_offset(30, (0.1, -0.2, 1.0)),
                blocks_with_offset(30, (0.9, 0.4, 0.3)),
            ]
        )
        pumps = np.zeros(60, dtype=int)
        service = np.concatenate([np.arange(30.0), np.arange(30.0)])

        pipeline = AnalysisPipeline()
        offsets, _, _ = pipeline.transform(samples)

        with_epochs = pipeline.preprocess(pumps, offsets, service)
        assert with_epochs.all(), "both epochs are individually stable"

        without_epochs = pipeline.preprocess(pumps, offsets, None)
        # Without epoch awareness, one regime gets flagged wholesale.
        assert without_epochs.sum() <= 30
