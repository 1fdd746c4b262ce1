"""Whole-matrix helpers of the runtime, and the ``BatchPipeline`` name.

:func:`finite_block_mask` is the engine's pre-transform quarantine of
non-finite measurement blocks.

``BatchPipeline`` is a second name for
:class:`~repro.core.pipeline.AnalysisPipeline`: the batched runtime and
the analysis pipeline are one class, and existing callers of the older
name keep working.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import AnalysisPipeline
from repro.runtime.cache import as_float_array

#: Backward-compatible name: the batched runtime was folded into the one
#: analysis pipeline.
BatchPipeline = AnalysisPipeline


def finite_block_mask(blocks: np.ndarray) -> np.ndarray:
    """Boolean mask of measurement blocks that are entirely finite.

    The transform stage refuses non-finite input (a NaN row would poison
    the vectorized DCT), so the engine quarantines offending rows up
    front using this mask instead of failing the whole fleet run.

    Args:
        blocks: stacked measurement matrix, shape ``(N, K, 3)`` (or any
            ``(N, ...)`` array — all trailing axes are reduced).  float32
            and float64 are checked as given (a float32 sample is finite
            exactly when its float64 upcast is); other dtypes are cast
            to float64.

    Returns:
        Shape ``(N,)`` boolean array; ``True`` where every sample of the
        block is finite.
    """
    arr = as_float_array(blocks)
    if arr.ndim < 2:
        return np.isfinite(arr)
    axes = tuple(range(1, arr.ndim))
    return np.isfinite(arr).all(axis=axes)
