"""Checkpoint journal: crash-safe, bit-identical transform resume.

The manifest is content-addressed (chunks keyed by input digest, payload
verified by output digest on load), so resume can never serve stale or
torn data — worst case it recomputes.  These tests drive the journal
through :class:`AnalysisPipeline` exactly as the engine does.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.pipeline import AnalysisPipeline, PipelineConfig
from repro.runtime.cache import PeakFeatureCache, TransformCache, array_digest
from repro.runtime.checkpoint import MANIFEST_NAME, CheckpointManager

N, K = 40, 64
CHUNK_ROWS = 16  # 3 chunks over N rows


@pytest.fixture()
def blocks():
    rng = np.random.default_rng(42)
    return rng.normal(size=(N, K, 3))


def make_pipeline(ckpt_dir=None, run_key="test-v1") -> AnalysisPipeline:
    checkpoint = CheckpointManager(ckpt_dir, run_key=run_key) if ckpt_dir else None
    return AnalysisPipeline(
        PipelineConfig(),
        cache=PeakFeatureCache(),
        transform_cache=TransformCache(),
        chunk_rows=CHUNK_ROWS,
        checkpoint=checkpoint,
    )


class TestJournalAndResume:
    def test_resume_is_bit_identical_and_all_hits(self, tmp_path, blocks):
        reference = make_pipeline().transform(blocks)
        first = make_pipeline(tmp_path).transform(blocks)
        for ref, got in zip(reference, first):
            assert np.array_equal(ref, got)

        resumed_pipeline = make_pipeline(tmp_path)
        resumed = resumed_pipeline.transform(blocks)
        assert resumed_pipeline.checkpoint.hits == 3
        assert resumed_pipeline.checkpoint.misses == 0
        for ref, got in zip(reference, resumed):
            assert np.array_equal(ref, got)

    def test_manifest_format_is_versioned_and_content_addressed(
        self, tmp_path, blocks
    ):
        make_pipeline(tmp_path).transform(blocks)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["version"] == 1
        assert manifest["run_key"] == "test-v1"
        assert sorted(manifest["chunks"]) == ["0", "1", "2"]
        entry = manifest["chunks"]["0"]
        assert entry["lo"] == 0 and entry["hi"] == CHUNK_ROWS
        assert entry["input_digest"] == array_digest(blocks[:CHUNK_ROWS]).hex()
        assert (tmp_path / entry["payload"]).exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_interrupted_run_resumes_from_completed_chunks(
        self, tmp_path, blocks, monkeypatch
    ):
        """Crash after two chunks: the resumed run recalls them from the
        journal, recomputes the rest, and matches an uninterrupted run."""
        import repro.core.pipeline as pipeline_mod

        reference = make_pipeline().transform(blocks)
        real_tiled = pipeline_mod._transform_tiled
        calls = {"n": 0}

        def dying_tiled(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:
                raise KeyboardInterrupt("simulated crash mid-run")
            return real_tiled(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "_transform_tiled", dying_tiled)
        with pytest.raises(KeyboardInterrupt):
            make_pipeline(tmp_path).transform(blocks)
        monkeypatch.setattr(pipeline_mod, "_transform_tiled", real_tiled)

        resumed_pipeline = make_pipeline(tmp_path)
        resumed = resumed_pipeline.transform(blocks)
        assert resumed_pipeline.checkpoint.hits == 2
        assert resumed_pipeline.checkpoint.misses == 1
        for ref, got in zip(reference, resumed):
            assert np.array_equal(ref, got)

    def test_torn_payload_self_heals(self, tmp_path, blocks):
        reference = make_pipeline().transform(blocks)
        make_pipeline(tmp_path).transform(blocks)
        (tmp_path / "chunk-00001.npz").write_bytes(b"torn mid-write")

        resumed_pipeline = make_pipeline(tmp_path)
        resumed = resumed_pipeline.transform(blocks)
        assert resumed_pipeline.checkpoint.hits == 2
        assert resumed_pipeline.checkpoint.misses == 1
        for ref, got in zip(reference, resumed):
            assert np.array_equal(ref, got)

    def test_changed_input_bytes_are_not_served(self, tmp_path, blocks):
        make_pipeline(tmp_path).transform(blocks)
        changed = blocks.copy()
        changed[3, 0, 0] += 1.0
        resumed_pipeline = make_pipeline(tmp_path)
        resumed = resumed_pipeline.transform(changed)
        # Chunk 0 holds the changed row: recomputed, chunks 1-2 recalled.
        assert resumed_pipeline.checkpoint.hits == 2
        assert resumed_pipeline.checkpoint.misses == 1
        reference = make_pipeline().transform(changed)
        for ref, got in zip(reference, resumed):
            assert np.array_equal(ref, got)

    def test_run_key_mismatch_starts_fresh(self, tmp_path, blocks):
        make_pipeline(tmp_path, run_key="test-v1").transform(blocks)
        other = make_pipeline(tmp_path, run_key="other-config")
        other.transform(blocks)
        assert other.checkpoint.hits == 0
        assert other.checkpoint.misses == 3


class TestStaleCacheRevalidation:
    def test_warm_hit_cannot_resurrect_superseded_chunk(self, tmp_path, blocks):
        """Satellite contract: a warm :class:`TransformCache` entry whose
        digest the manifest marks superseded is invalidated and
        recomputed, never served."""
        pipeline = make_pipeline(tmp_path)
        pipeline.transform(blocks)

        # A second run over different bytes re-records every chunk slot,
        # superseding the original digests in the shared manifest...
        changed = blocks + 1.0
        other = AnalysisPipeline(
            PipelineConfig(),
            cache=PeakFeatureCache(),
            transform_cache=TransformCache(),
            chunk_rows=CHUNK_ROWS,
            checkpoint=pipeline.checkpoint,
        )
        other.transform(changed)
        chunk_key = array_digest(blocks[:CHUNK_ROWS])
        assert not pipeline.checkpoint.is_current(chunk_key)

        # ...so the first pipeline's warm entries must recompute, not
        # serve from memory.  Poison the warm entry to prove it: if the
        # revalidation ever served it, the output would be zeros.
        reference = make_pipeline().transform(blocks)
        poison = tuple(np.zeros_like(ref[:CHUNK_ROWS]) for ref in reference)
        for arr in poison:
            arr.setflags(write=False)
        pipeline.transform_cache.put_owned(chunk_key, *poison)
        result = pipeline.transform(blocks)
        for ref, got in zip(reference, result):
            assert np.array_equal(ref, got)
        # Re-recording un-supersedes: the digests are current again.
        assert pipeline.checkpoint.is_current(chunk_key)

    def test_is_current_without_history(self, tmp_path):
        ckpt = CheckpointManager(tmp_path)
        assert ckpt.is_current(b"\x01" * 20)


class TestAtomicity:
    def test_partial_manifest_is_ignored(self, tmp_path, blocks):
        make_pipeline(tmp_path).transform(blocks)
        manifest_path = tmp_path / MANIFEST_NAME
        text = manifest_path.read_text()
        manifest_path.write_text(text[: len(text) // 2])
        resumed_pipeline = make_pipeline(tmp_path)
        resumed_pipeline.transform(blocks)
        # Unreadable manifest -> fresh start, re-journaled cleanly.
        assert resumed_pipeline.checkpoint.misses == 3
        assert json.loads(manifest_path.read_text())["version"] == 1

    def test_describe_mentions_directory_and_chunks(self, tmp_path, blocks):
        pipeline = make_pipeline(tmp_path)
        pipeline.transform(blocks)
        text = pipeline.checkpoint.describe()
        assert str(tmp_path) in text
        assert "3 chunk(s)" in text
