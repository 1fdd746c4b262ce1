"""Determinism guarantees of the runtime layer.

The fleet executor's contract is that parallel execution is invisible:
for the same seeded database, the engine (threaded fan-out included)
must render the *byte-identical* operator report that the same engine
renders through the scalar oracle pipeline of ``tests/reference``, and
repeated runs of the same engine must agree with themselves.  The CLI's
smoke fleet is held to the same byte identity end to end.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.analysis.engine import EngineConfig, VibrationAnalysisEngine
from repro.analysis.reporting import render_report
from repro.cli import main
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import TRANSFORM_TILE_ROWS, PipelineConfig
from repro.runtime import RuntimeProfile, default_peak_cache
from repro.storage.api import AnalysisPeriod, DataRetrievalAPI
from repro.storage.database import VibrationDatabase
from tests.reference.pipeline import make_reference_pipeline


@pytest.fixture(scope="module")
def seeded_api(small_fleet):
    db = VibrationDatabase()
    small_fleet.to_database(db)
    records, _ = small_fleet.expert_labels({"A": 30, "BC": 30, "D": 20})
    db.labels.add_many(records)
    yield DataRetrievalAPI(
        db, AnalysisPeriod(0.0, small_fleet.config.duration_days + 1)
    )
    db.close()


def engine_for(api, *, workers: int | None = None):
    return VibrationAnalysisEngine(
        api,
        EngineConfig(
            pipeline=PipelineConfig(ransac_min_inliers=25),
            rotation_hz=29.0,
            max_workers=workers,
        ),
    )


def use_oracle_pipeline(monkeypatch):
    """Make engines built from now on run the scalar oracle pipeline."""
    monkeypatch.setattr(
        VibrationAnalysisEngine, "_make_pipeline", make_reference_pipeline
    )


def oracle_engine_for(api, monkeypatch):
    use_oracle_pipeline(monkeypatch)
    return engine_for(api)


class TestReportDeterminism:
    def test_batch_and_scalar_reports_byte_identical(self, seeded_api, monkeypatch):
        batch_text = render_report(engine_for(seeded_api).run())
        scalar_text = render_report(oracle_engine_for(seeded_api, monkeypatch).run())
        assert batch_text == scalar_text

    def test_threaded_fanout_report_byte_identical(self, seeded_api):
        serial_text = render_report(
            engine_for(seeded_api, workers=1).run()
        )
        threaded_text = render_report(
            engine_for(seeded_api, workers=4).run()
        )
        assert threaded_text == serial_text

    def test_threaded_row_tiles_report_byte_identical(self, seeded_api, monkeypatch):
        """Serial vs threaded row tiles of the transform and ``D_a`` stages.

        16-row tiles give both stages many tiles to fan out; the shared
        peak cache is emptied before each run so every run extracts.
        """
        assert len(seeded_api.get_measurements()) > TRANSFORM_TILE_ROWS
        monkeypatch.setattr(pipeline_module, "TRANSFORM_TILE_ROWS", 16)
        texts = []
        for workers in (1, 2, 4):
            default_peak_cache().clear()
            texts.append(render_report(engine_for(seeded_api, workers=workers).run()))
        assert texts[1] == texts[0]
        assert texts[2] == texts[0]

    def test_same_engine_twice_is_identical(self, seeded_api):
        engine = engine_for(seeded_api, workers=4)
        first, second = engine.run(), engine.run()
        assert render_report(first) == render_report(second)
        assert np.array_equal(first.pipeline.da, second.pipeline.da, equal_nan=True)
        assert np.array_equal(first.pipeline.zones, second.pipeline.zones)

    def test_rul_and_diagnosis_key_order_stable(self, seeded_api, monkeypatch):
        threaded = engine_for(seeded_api, workers=4).run()
        scalar = oracle_engine_for(seeded_api, monkeypatch).run()
        assert list(scalar.rul.keys()) == list(threaded.rul.keys())
        assert list(scalar.diagnoses.keys()) == list(threaded.diagnoses.keys())
        for pump, diagnosis in scalar.diagnoses.items():
            assert threaded.diagnoses[pump] == diagnosis


class TestProfiledRunDeterminism:
    def test_profiling_does_not_change_the_report(self, seeded_api):
        profile = RuntimeProfile()
        profiled = render_report(engine_for(seeded_api).run(profile))
        plain = render_report(engine_for(seeded_api).run())
        assert profiled == plain
        # Retrieval first, then every pipeline stage, then diagnosis.
        stages = list(profile.stages)
        assert stages[0] == "retrieve"
        retrieved = len(seeded_api.get_measurements())
        assert profile.stages["retrieve"].items == retrieved
        for stage in ("transform", "preprocess", "score_da", "predict_rul"):
            assert stage in stages
        assert stages[-1] == "diagnose"
        assert profile.total_seconds > 0


class TestSmokeFleetOracle:
    """The CLI smoke fleet's ``repro analyze`` report, rendered through the
    production pipeline and through the scalar oracle, byte for byte."""

    def test_smoke_fleet_report_matches_oracle(self, tmp_path, monkeypatch):
        db = str(tmp_path / "smoke.db")
        simulate = ["simulate", "--db", db, "--pumps", "6", "--days", "40",
                    "--interval", "0.25", "--labels", "20,20,15", "--seed", "7"]
        assert main(simulate, out=io.StringIO()) == 0

        production = io.StringIO()
        assert main(["analyze", "--db", db], out=production) == 0
        use_oracle_pipeline(monkeypatch)
        oracle = io.StringIO()
        assert main(["analyze", "--db", db], out=oracle) == 0
        assert "PER-PUMP STATUS" in production.getvalue()
        assert oracle.getvalue() == production.getvalue()
