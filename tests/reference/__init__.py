"""Scalar reference implementations: the test oracles of the pipeline.

Each stage of :class:`~repro.core.pipeline.AnalysisPipeline` and of the
model layer has one production implementation in ``src/``.  The
straightforward per-measurement, per-trial and per-day versions they
replaced live here, where the parity suites, the Fig. 15 replay and the
perf benchmarks use them as the implementation of record:

* :mod:`tests.reference.pipeline` — per-row transform, the plain
  :class:`~repro.core.classify.PeakHarmonicFeature` scoring path and the
  serial per-pump RUL loop, assembled into :class:`ReferencePipeline`;
* :mod:`tests.reference.ransac` — the per-trial RANSAC loop and a
  recursive engine built on it;
* :mod:`tests.reference.backtest` — the per-day rescan backtest.
"""
