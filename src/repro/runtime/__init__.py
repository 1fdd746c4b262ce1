"""Execution layer under the analysis pipeline: caches, fan-out, profiling.

The one Fig. 7 pipeline (:class:`~repro.core.pipeline.AnalysisPipeline`)
runs the whole measurement matrix through vectorized kernels and builds
on the primitives of this package:

* :class:`~repro.runtime.fleet.FleetExecutor` — per-pump RUL and
  diagnosis chains fanned across a worker thread pool (or run serially
  for 0/1 workers) with chunked scheduling and deterministic result
  ordering; its worker count also sizes the row-tile threads of the
  pipeline's transform and ``D_a`` extraction;
* :class:`~repro.runtime.incremental.IncrementalPipelineSession` —
  rolling-window analysis that transforms only never-seen measurement
  rows, recalling the overlap from a content-addressed per-row store;
* :class:`~repro.runtime.cache.PeakFeatureCache` — memoized exemplar
  peaks / per-row peak features / peak distances keyed by config hash
  and data digest, so repeated scoring of the same rows (classifier
  training + full-fleet scoring, repeated engine runs) is paid once;
* :class:`~repro.runtime.profile.RuntimeProfile` — per-stage wall-clock
  timers and counters behind the ``repro analyze --profile`` flag, the
  measurement surface for future benchmark entries.

``repro.runtime.batch.BatchPipeline`` remains as a second name for the
pipeline class.  The scalar per-measurement references the pipeline is
tested against live in ``tests/reference/``.
"""

from repro.runtime.cache import (
    ModelFitCache,
    PeakFeatureCache,
    TransformCache,
    default_model_fit_cache,
    default_peak_cache,
)
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.fleet import (
    ABANDONED,
    FleetExecutor,
    SupervisionExhaustedError,
    SupervisionPolicy,
    SupervisionReport,
    WorkerKilledError,
)
from repro.runtime.incremental import IncrementalPipelineSession
from repro.runtime.profile import RuntimeProfile, StageStats

__all__ = [
    "ABANDONED",
    "CheckpointManager",
    "FleetExecutor",
    "IncrementalPipelineSession",
    "ModelFitCache",
    "PeakFeatureCache",
    "RuntimeProfile",
    "StageStats",
    "SupervisionExhaustedError",
    "SupervisionPolicy",
    "SupervisionReport",
    "TransformCache",
    "WorkerKilledError",
    "default_model_fit_cache",
    "default_peak_cache",
]
