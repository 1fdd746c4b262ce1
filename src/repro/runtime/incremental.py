"""Incremental rolling-window analysis: recompute only the delta.

The paper's engine re-analyzes a growing window every refresh interval
(``Te_j = Te_{j-1} + delta``): each new run sees every measurement it
already transformed last time, plus a small tail of new arrivals.  The
chunk-level :class:`~repro.runtime.cache.TransformCache` only helps when
chunk boundaries line up between runs — appending rows shifts every
chunk, so a grown window misses the whole cache.

:class:`IncrementalPipelineSession` memoizes the transform triple
``(offsets, rms, psd)`` *per measurement row*, keyed by the row's
content digest.  Advancing the window then transforms only the rows it
has never seen; the overlap is recalled and merged, and everything
downstream runs through the shared
:meth:`~repro.core.pipeline.AnalysisPipeline.run_from_features`
orchestration.  Per-row transform outputs are pure functions of the row
bytes and every transform op is row-independent, so the merged features
— and therefore the whole report — are bit-identical to a cold run.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

import numpy as np

from repro.runtime.cache import array_digest, as_float_array
from repro.runtime.profile import RuntimeProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import AnalysisPipeline, PipelineResult

#: Default bound on memoized rows.  A row entry holds ``K + 4`` float64s
#: (~8 KiB at K=1024), so 100k rows caps the session near 800 MiB —
#: comfortably above paper-scale windows, bounded against unbounded ones.
DEFAULT_MAX_ROWS = 100_000


class IncrementalPipelineSession:
    """Rolling-window wrapper over an :class:`AnalysisPipeline`.

    Not thread-safe: one session per engine, invoked serially per
    refresh, matching the paper's periodic re-analysis loop.
    """

    def __init__(self, pipeline: AnalysisPipeline, max_rows: int = DEFAULT_MAX_ROWS):
        if max_rows < 1:
            raise ValueError("max_rows must be positive")
        self.pipeline = pipeline
        self.max_rows = max_rows
        self._rows: OrderedDict[bytes, tuple[np.ndarray, float, np.ndarray]] = (
            OrderedDict()
        )
        self.row_hits = 0
        self.row_misses = 0

    def __len__(self) -> int:
        return len(self._rows)

    def clear(self) -> None:
        self._rows.clear()
        self.row_hits = 0
        self.row_misses = 0

    def run(
        self,
        pump_ids: np.ndarray,
        service_days: np.ndarray,
        samples: np.ndarray,
        train_labels: dict[int, str],
        profile: RuntimeProfile | None = None,
    ) -> PipelineResult:
        """Analyze a window, transforming only rows not seen before.

        Same signature and bit-identical output as
        :meth:`AnalysisPipeline.run`; the difference is purely which rows
        pay for the transform stage.
        """
        blocks = as_float_array(samples)
        if blocks.ndim != 3 or blocks.shape[2] != 3:
            raise ValueError(f"samples must have shape (n, K, 3), got {blocks.shape}")
        n, k = blocks.shape[0], blocks.shape[1]
        if n and k < 2:
            raise ValueError("measurement must contain at least 2 samples")

        digests = [array_digest(blocks[i]) for i in range(n)]
        miss_idx = [i for i, d in enumerate(digests) if d not in self._rows]
        hits = n - len(miss_idx)
        self.row_hits += hits
        self.row_misses += len(miss_idx)

        with self.pipeline.profiled(profile) as stage:
            with stage("transform", len(miss_idx)):
                offsets = np.empty((n, 3))
                rms = np.empty(n)
                psd = np.empty((n, k))
                # Recall hits first: remembering the misses below may
                # evict old entries once the store is full.
                miss_set = set(miss_idx)
                for i, digest in enumerate(digests):
                    if i in miss_set:
                        continue
                    row_off, row_rms, row_psd = self._rows[digest]
                    offsets[i] = row_off
                    rms[i] = row_rms
                    psd[i] = row_psd
                if miss_idx:
                    m_off, m_rms, m_psd = self.pipeline.transform(blocks[miss_idx])
                    offsets[miss_idx] = m_off
                    rms[miss_idx] = m_rms
                    psd[miss_idx] = m_psd
                    for j, i in enumerate(miss_idx):
                        self._remember(
                            digests[i], m_off[j].copy(), float(m_rms[j]), m_psd[j].copy()
                        )
            result = self.pipeline.run_from_features(
                np.asarray(pump_ids),
                np.asarray(service_days, dtype=np.float64),
                offsets,
                rms,
                psd,
                train_labels,
                stage,
            )
        if profile is not None:
            profile.count("incremental_row_hits", hits)
            profile.count("incremental_row_misses", len(miss_idx))
        return result

    def _remember(
        self, digest: bytes, offsets: np.ndarray, rms: float, psd: np.ndarray
    ) -> None:
        self._rows[digest] = (offsets, rms, psd)
        while len(self._rows) > self.max_rows:
            self._rows.popitem(last=False)
