"""Interrupted incremental windows resume bit-identically.

A rolling-window refresh that dies mid-transform (crash, SIGTERM, OOM
kill) must be able to resume from the checkpoint journal and produce the
exact bytes an uninterrupted run would have produced — same feature
matrix, same report-facing arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.pipeline as pipeline_mod
from repro.core.pipeline import AnalysisPipeline, PipelineConfig
from repro.runtime.cache import PeakFeatureCache, TransformCache
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.incremental import IncrementalPipelineSession

from tests.runtime.conftest import make_workload

CHUNK_ROWS = 64


def make_pipeline(ckpt_dir=None) -> AnalysisPipeline:
    checkpoint = CheckpointManager(ckpt_dir) if ckpt_dir else None
    return AnalysisPipeline(
        PipelineConfig(),
        cache=PeakFeatureCache(),
        transform_cache=TransformCache(),
        chunk_rows=CHUNK_ROWS,
        checkpoint=checkpoint,
    )


@pytest.fixture(scope="module")
def window():
    return make_workload(n_pumps=4, per_pump=30, num_samples=256, seed=3)


def test_killed_batch_window_resumes_bit_identical(tmp_path, window, monkeypatch):
    ids, days, blocks, labels = window
    reference = make_pipeline().run(ids, days, blocks, labels)

    real_tiled = pipeline_mod._transform_tiled
    calls = {"n": 0}

    def dying_tiled(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 1:
            raise KeyboardInterrupt("simulated mid-window kill")
        return real_tiled(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "_transform_tiled", dying_tiled)
    with pytest.raises(KeyboardInterrupt):
        make_pipeline(tmp_path).run(ids, days, blocks, labels)
    monkeypatch.setattr(pipeline_mod, "_transform_tiled", real_tiled)

    resumed_pipeline = make_pipeline(tmp_path)
    resumed = resumed_pipeline.run(ids, days, blocks, labels)
    assert resumed_pipeline.checkpoint.hits == 1
    assert resumed_pipeline.checkpoint.misses >= 1
    np.testing.assert_array_equal(resumed.da, reference.da)
    np.testing.assert_array_equal(resumed.psd, reference.psd)
    np.testing.assert_array_equal(resumed.zones, reference.zones)


def test_killed_incremental_window_resumes_bit_identical(
    tmp_path, window, monkeypatch
):
    """Kill an incremental session mid-window, then resume with a cold
    session over the same checkpoint directory: the merged feature
    matrix — offsets, RMS, PSD — and everything downstream must be
    bit-identical to an uninterrupted incremental run."""
    ids, days, blocks, labels = window
    reference_session = IncrementalPipelineSession(make_pipeline())
    reference = reference_session.run(ids, days, blocks, labels)

    real_tiled = pipeline_mod._transform_tiled
    calls = {"n": 0}

    def dying_tiled(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 1:
            raise KeyboardInterrupt("simulated mid-window kill")
        return real_tiled(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "_transform_tiled", dying_tiled)
    session = IncrementalPipelineSession(make_pipeline(tmp_path))
    with pytest.raises(KeyboardInterrupt):
        session.run(ids, days, blocks, labels)
    monkeypatch.setattr(pipeline_mod, "_transform_tiled", real_tiled)

    resumed_session = IncrementalPipelineSession(make_pipeline(tmp_path))
    resumed = resumed_session.run(ids, days, blocks, labels)
    assert resumed_session.pipeline.checkpoint.hits >= 1
    np.testing.assert_array_equal(resumed.offsets, reference.offsets)
    np.testing.assert_array_equal(resumed.rms, reference.rms)
    np.testing.assert_array_equal(resumed.psd, reference.psd)
    np.testing.assert_array_equal(resumed.da, reference.da)

    # The resumed session keeps rolling: growing the window transforms
    # only the tail and stays bit-identical to a cold run of the grown
    # window.
    rng = np.random.default_rng(99)
    extra = rng.normal(size=(8, blocks.shape[1], 3)) + 0.1
    grown_blocks = np.concatenate([blocks, extra])
    grown_ids = np.concatenate([ids, np.zeros(8, dtype=ids.dtype)])
    grown_days = np.concatenate([days, np.full(8, days.max() + 1.0)])
    grown = resumed_session.run(grown_ids, grown_days, grown_blocks, labels)
    cold = make_pipeline().run(grown_ids, grown_days, grown_blocks, labels)
    assert resumed_session.row_misses == blocks.shape[0] + 8
    assert resumed_session.row_hits == blocks.shape[0]
    np.testing.assert_array_equal(grown.da, cold.da)
    np.testing.assert_array_equal(grown.psd, cold.psd)
