"""Benchmark child process: one program process per setup or session.

Modes (the first argument):

``probe``
    Import the analysis stack and open the fleet DB, then exit: the
    set-up a fresh ``repro analyze`` pays before it can analyze.
``cli``
    Run ``repro.cli.main`` on the remaining arguments under the tracer
    (the traced form of one ``cold-analyze`` operation).
``rolling``
    Build an incremental engine over the day-``start`` DB, run the first
    full analysis (set-up), then refresh closed-loop ``--ops`` times:
    ingest the next slice with ``MeasurementStore.add_many``, advance the
    retrieval API, run the engine and render the report.
``backtest``
    Run the engine over the whole fleet to get ``D_a`` (set-up), then
    call ``backtest_rul`` closed-loop with a fresh ``ModelFitCache`` per
    call.
``env``
    Print library versions, BLAS details, fleet workers and whether the
    native kernel is available.

Session modes print one JSON line ``{"event": "ready"}`` when set-up is
done (the parent times set-up from spawn to that line) and one final
JSON line with every operation.  With ``--trace 1`` the tracer is armed
before ``repro`` is imported, every other operation runs traced and the
spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _peak_cache_counts() -> tuple[int, int]:
    try:
        from repro.runtime.cache import default_peak_cache
    except ImportError:
        return 0, 0
    cache = default_peak_cache()
    return cache.hits, cache.misses


def pumps_covered(text: str, pumps: list[int]) -> bool:
    """True when the report's per-pump table has a row for every pump."""
    rows = set()
    in_table = False
    for line in text.splitlines():
        if line.startswith("PER-PUMP STATUS"):
            in_table = True
            continue
        if in_table:
            fields = line.split()
            if not fields:
                break
            if fields[0].isdigit():
                rows.add(int(fields[0]))
    return rows == set(pumps)


class _Ops:
    """Closed-loop operation loop shared by the session modes."""

    def __init__(self, args, tracer):
        self.args = args
        self.tracer = tracer
        self.records: list[dict] = []

    def run(self, prepare, step) -> None:
        """Run ``step(prepare())`` until ``--ops`` operations are done
        (when given) or the time budget is spent.

        Only ``step`` is timed: ``prepare`` builds the operation's input
        (harness work).  ``step`` returns ``(record, done)``; the record
        gains the operation's latency and whether it was traced.
        """
        deadline = perf_counter() + self.args.seconds
        index = 0
        while True:
            given = prepare()
            traced = self.tracer is not None and index % 2 == 0
            root = None
            if self.tracer is not None:
                self.tracer.op = f"{self.args.session}-{index}"
                self.tracer.enabled = traced
                root = self.tracer.begin("op")
                hits, misses = _peak_cache_counts()
            start = perf_counter()
            try:
                record, done = step(given)
            except Exception as exc:  # one failed operation, reported
                record, done = {"ok": False, "error": repr(exc)}, True
            latency = perf_counter() - start
            if root is not None:
                self.tracer.end(root)
                hits2, misses2 = _peak_cache_counts()
                self.tracer.count("peak_cache_hits", hits2 - hits)
                self.tracer.count("peak_cache_misses", misses2 - misses)
            record.update(latency_s=latency, traced=traced)
            self.records.append(record)
            index += 1
            if done or index == self.args.ops or perf_counter() >= deadline:
                break
        if self.tracer is not None:
            self.tracer.enabled = False


def _analyze_pipeline_config():
    """The pipeline configuration ``repro analyze`` uses by default."""
    from repro.cli import build_parser
    from repro.core.pipeline import PipelineConfig

    defaults = build_parser().parse_args(["analyze", "--db", ""])
    return PipelineConfig(moving_average_window=defaults.moving_average)


def _open_tracer(args):
    if not args.trace:
        return None
    import tracer as tracing

    tracer = tracing.install()
    tracer.op = f"{args.session}-setup"
    return tracer


def _mode_probe(args) -> int:
    import repro.cli  # noqa: F401
    import repro.analysis.engine  # noqa: F401
    import repro.analysis.reporting  # noqa: F401
    import repro.storage.api  # noqa: F401
    from repro.storage.database import VibrationDatabase

    VibrationDatabase(args.db).close()
    _emit({"event": "ready"})
    return 0


def _mode_cli(args, argv: list[str]) -> int:
    tracer = _open_tracer(args)
    if tracer is not None:
        tracer.op = args.session
    import repro.cli

    try:
        code = repro.cli.main(argv)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.enabled = True
            hits, misses = _peak_cache_counts()
            tracer.count("peak_cache_hits", hits)
            tracer.count("peak_cache_misses", misses)
            tracer.dump(args.spans)
    return code


def _mode_rolling(args) -> int:
    tracer = _open_tracer(args)
    import numpy as np

    from repro.analysis.engine import EngineConfig, VibrationAnalysisEngine
    from repro.analysis.reporting import render_report
    from repro.storage.api import AnalysisPeriod, DataRetrievalAPI
    from repro.storage.database import VibrationDatabase
    from repro.storage.records import Measurement

    pumps = [int(p) for p in args.pumps.split(",")]
    db = VibrationDatabase(args.db)
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, args.start))
    engine = VibrationAnalysisEngine(
        api, EngineConfig(pipeline=_analyze_pipeline_config(), incremental=True)
    )
    text = render_report(engine.run())
    _emit({"event": "ready", "ok": pumps_covered(text, pumps)})

    with np.load(args.tail) as archive:
        tail = dict(archive)
    stamps = tail["timestamp_day"]
    state = {"end": args.start, "text": text}

    def prepare():
        lo = state["end"]
        idx = np.nonzero((stamps >= lo) & (stamps < lo + args.delta))[0]
        return [
            Measurement(
                pump_id=int(tail["pump_id"][i]),
                measurement_id=int(tail["measurement_id"][i]),
                timestamp_day=float(stamps[i]),
                service_day=float(tail["service_day"][i]),
                samples=tail["samples"][i],
                sampling_rate_hz=float(tail["sampling_rate_hz"][i]),
            )
            for i in idx
        ]

    def step(batch):
        start = perf_counter()
        db.measurements.add_many(batch)
        ingest = perf_counter() - start
        api.advance(args.delta)
        state["end"] += args.delta
        text = render_report(engine.run())
        state["text"] = text
        record = {"ok": pumps_covered(text, pumps), "ingest_s": ingest, "rows": len(batch)}
        return record, not (stamps >= state["end"]).any()

    ops = _Ops(args, tracer)
    ops.run(prepare, step)
    db.close()
    with open(args.report_out, "w") as fh:
        fh.write(state["text"] + "\n")
    if tracer is not None:
        tracer.dump(args.spans)
    _emit({"event": "done", "ops": ops.records, "end_day": state["end"]})
    return 0


def _mode_backtest(args) -> int:
    tracer = _open_tracer(args)
    import numpy as np

    from repro.analysis.backtest import backtest_rul
    from repro.analysis.engine import EngineConfig, VibrationAnalysisEngine
    from repro.runtime.cache import ModelFitCache
    from repro.storage.api import AnalysisPeriod, DataRetrievalAPI
    from repro.storage.database import VibrationDatabase

    with np.load(args.truth) as archive:
        truth = dict(archive)
    with VibrationDatabase(args.db) as db:
        report = VibrationAnalysisEngine(
            DataRetrievalAPI(db, AnalysisPeriod(0.0, 1e9)),
            EngineConfig(pipeline=_analyze_pipeline_config()),
        ).run()
    stamp_of = {
        (int(p), int(m)): float(t)
        for p, m, t in zip(truth["pump_id"], truth["measurement_id"], truth["timestamp_day"])
    }
    stamps = np.asarray(
        [stamp_of[(int(p), int(m))] for p, m in zip(report.pump_ids, report.measurement_ids)]
    )
    lives = {int(p): float(d) for p, d in zip(truth["life_pump"], truth["life_days"])}
    _emit({"event": "ready", "ok": True})

    def step(cache):
        result = backtest_rul(
            report.pump_ids,
            stamps,
            report.service_days,
            report.pipeline.da,
            lives,
            report.pipeline.zone_d_threshold,
            refresh_every_days=args.step,
            fit_cache=cache,
        )
        if tracer is not None:
            tracer.count("model_fit_cache_hits", cache.hits)
            tracer.count("model_fit_cache_misses", cache.misses)
        points = len(result.points)
        return {"ok": points > 0, "points": points, "mae": result.mae()}, False

    ops = _Ops(args, tracer)
    ops.run(ModelFitCache, step)
    if tracer is not None:
        tracer.dump(args.spans)
    _emit({"event": "done", "ops": ops.records})
    return 0


def _mode_env() -> int:
    import os
    import platform

    import numpy as np
    import scipy

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = {key: info.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, AttributeError):
        pass
    try:
        from repro.runtime.fleet import FleetExecutor

        workers = FleetExecutor().max_workers
    except (ImportError, AttributeError):
        workers = None
    try:
        from repro.core import _native

        native = bool(_native.available())
    except ImportError:
        native = False
    _emit(
        {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas,
            "fleet_workers": workers,
            "native_kernel": native,
            "cpu_count": os.cpu_count(),
        }
    )
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "cli", "rolling", "backtest", "env"))
    parser.add_argument("--db")
    parser.add_argument("--tail")
    parser.add_argument("--truth")
    parser.add_argument("--pumps", default="")
    parser.add_argument("--start", type=float, default=0.0)
    parser.add_argument("--delta", type=float, default=0.25)
    parser.add_argument("--step", type=float, default=1.0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--ops", type=int, default=0, help="stop after this many (0: no limit)")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans")
    parser.add_argument("--session", default="s0")
    parser.add_argument("--report-out")
    rest: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, rest = argv[:cut], argv[cut + 1 :]
    args = parser.parse_args(argv)
    if args.mode == "probe":
        return _mode_probe(args)
    if args.mode == "cli":
        return _mode_cli(args, rest)
    if args.mode == "rolling":
        return _mode_rolling(args)
    if args.mode == "backtest":
        return _mode_backtest(args)
    return _mode_env()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
