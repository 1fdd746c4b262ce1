"""End-to-end benchmark of the Fig. 7 engine, with a per-layer trace.

    python3 perfbench/run.py --workload cold-analyze --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (one client, closed loop: the next operation starts when the
previous one has finished):

``cold-analyze``
    Each operation is a fresh ``python -m repro analyze --db <fleet>``
    process, timed from spawn to exit.  Every cache is cold.
``rolling-refresh``
    A long-lived process holds an incremental engine
    (``EngineConfig(incremental=True)``) over a copy of the fleet DB cut
    at day 90.  Each operation ingests the next report slice with
    ``MeasurementStore.add_many``, advances the retrieval window, runs
    the engine and renders the report.
``backtest``
    ``backtest_rul`` walks the fleet's ``D_a`` history at a 1-day step;
    each call gets a fresh ``ModelFitCache``.

Inputs are four simulated fleets (see ``fixture.py``), the same in every
run and built once per checkout, so that run-to-run spread measures the
program and the host rather than which fleets were drawn.  ``--seed``
orders the four program sessions (and cold-analyze's cycle) over them.
The program only ever sees the generated DBs.  The run measures for
about ``--seconds`` seconds, checks every output and prints one JSON
object as its last line.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it arms the tracer (``tracer.py``)
in the program processes and reports per-layer metrics instead.  The
full record, with the environment, goes to
``.perfbench_work/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracer import self_times
from worker import pumps_covered

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PY = sys.executable

#: Fleets by size.  ``full`` is the measured one; ``smoke`` keeps the
#: benchmark's own tests fast.  ``sims`` lists the simulation seeds of
#: the fleets every run uses, one per session (the smoke fleets keep to
#: seeds whose small fleets can satisfy the label mix).  ``start`` is
#: where rolling-refresh cuts the DB; ``delta`` is its refresh step and
#: ``step`` the backtest's.
FLEETS = {
    "full": {"pumps": 12, "days": 120.0, "interval": 0.25, "labels": "100,200,100",
             "start": 90.0, "delta": 0.25, "step": 1.0, "sims": [0, 1, 2, 3]},
    "smoke": {"pumps": 6, "days": 40.0, "interval": 0.25, "labels": "20,20,15",
              "start": 30.0, "delta": 0.25, "step": 1.0, "sims": [3, 4, 7, 9]},
}
#: The fleet settings ``fixture.py`` generates from.
FIXTURE_KEYS = ("pumps", "days", "interval", "labels", "start")
WORKLOADS = ("cold-analyze", "rolling-refresh", "backtest")
#: Program processes per run, each on its own fleet (the median of their
#: set-up times is setup_s).
SESSIONS = 4
#: Rolling-refresh runs a fixed number of slices per session, so that
#: every commit measures the same sequence of windows (each refresh
#: reads the whole window, which grows by ``delta`` per slice).  The
#: count is ``--seconds`` of work at this nominal refresh time; the time
#: only bounds the session.
NOMINAL_REFRESH_S = 0.4
CHILD_TIMEOUT_S = 150.0
FIXTURE_TIMEOUT_S = 600.0

END_TO_END = {
    "op_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Per-layer metric -> unit.  ``_s`` values are self time per traced
#: operation (median over operations); see ``per_layer_metrics``.
PER_LAYER = {
    "cli.import_s": "s",
    "storage.open_s": "s",
    "storage.query_arrays_s": "s",
    "storage.query_arrays_rows": "count",
    "storage.query_arrays_mb": "MB",
    "storage.add_many_s": "s",
    "storage.add_many_rows": "count",
    "runtime.transform_s": "s",
    "runtime.transform_rows": "count",
    "runtime.digest_s": "s",
    "runtime.digest_calls": "count",
    "runtime.transform_cache_hit_ratio": "ratio",
    "runtime.incremental_row_hit_ratio": "ratio",
    "runtime.peak_cache_hit_ratio": "ratio",
    "core.preprocess_s": "s",
    "core.score_da_s": "s",
    "core.score_da_rows_extracted": "count",
    "core.fit_classifier_s": "s",
    "core.learn_threshold_s": "s",
    "core.ransac_fit_s": "s",
    "core.ransac_fit_calls": "count",
    "runtime.model_fit_cache_hit_ratio": "ratio",
    "core.rul_predict_s": "s",
    "runtime.fleet_map_s": "s",
    "analysis.engine_run_s": "s",
    "analysis.render_s": "s",
    "analysis.backtest_s": "s",
    "trace.unaccounted_share": "ratio",
    "trace.overhead_share": "ratio",
}
#: Workload -> the workload-specific name of its op_p50_s.
OP_ALIASES = {
    "cold-analyze": "analyze_wall_s",
    "rolling-refresh": "refresh_p50_s",
    "backtest": "backtest_wall_s",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (no program, broken fixture)."""


# ----------------------------------------------------------------------
# Child processes.
# ----------------------------------------------------------------------
def child_env(work: Path) -> dict:
    """Environment for program processes.

    ``src`` goes on the path; caches and temporaries stay inside the
    checkout.  BLAS thread variables are passed through as found.
    """
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["XDG_CACHE_HOME"] = str(work / "cache")
    env["TMPDIR"] = str(work / "tmp")
    return env


@dataclass
class Child:
    """One finished child process (times from ``perf_counter``)."""

    code: int
    out: bytes
    err: str
    rss_mb: float
    spawned: float
    exited: float
    events: list[dict]

    @property
    def wall(self) -> float:
        return self.exited - self.spawned

    def event(self, name: str) -> dict | None:
        for event in self.events:
            if event.get("event") == name:
                return event
        return None


def run_child(argv: list[str], env: dict, cwd: Path, events: bool = False,
              timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run a child to exit; time it from spawn and read its peak RSS.

    With ``events`` the child's stdout is read as JSON lines and each
    event is stamped with its arrival time (``at``, seconds from spawn).
    """
    with tempfile.TemporaryFile(dir=cwd) as err:
        spawned = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env,
                                cwd=cwd)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            got: list[dict] = []
            if events:
                out = b""
                for line in proc.stdout:
                    at = perf_counter() - spawned
                    out += line
                    try:
                        event = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(event, dict):
                        event["at"] = at
                        got.append(event)
            else:
                out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            exited = perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        err_text = err.read().decode(errors="replace")
    return Child(proc.returncode, out, err_text, usage.ru_maxrss / 1024.0, spawned, exited,
                 got)


def worker(mode: str, *args: str) -> list[str]:
    return [PY, str(BENCH / "worker.py"), mode, *args]


# ----------------------------------------------------------------------
# Build and inputs.
# ----------------------------------------------------------------------
def build(env: dict) -> dict:
    """Byte-compile ``src`` and record the environment, once per tree.

    Also loads the optional native kernel once, so its compile (cached
    under ``XDG_CACHE_HOME`` inside the checkout) is not timed.
    """
    digest = hashlib.sha1(PY.encode())
    for path in sorted(SRC.rglob("*.py")):
        stat = path.stat()
        digest.update(f"{path.relative_to(SRC)}:{stat.st_size}:{stat.st_mtime_ns}".encode())
    key = digest.hexdigest()
    stamp = WORK / "build.json"
    if stamp.exists():
        saved = json.loads(stamp.read_text())
        if saved.get("key") == key:
            return saved["environment"]
    subprocess.run([PY, "-m", "compileall", "-q", str(SRC)], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=FIXTURE_TIMEOUT_S)
    child = run_child(worker("env"), env, WORK / "tmp", timeout=FIXTURE_TIMEOUT_S)
    if child.code != 0:
        raise BenchError(f"environment probe failed:\n{child.err}")
    environment = json.loads(child.out.decode().strip().splitlines()[-1])
    stamp.write_text(json.dumps({"key": key, "environment": environment}))
    return environment


def fixture(fleet: str, seed: int, env: dict) -> Path:
    """Directory of one simulated fleet, generated on first use."""
    spec = {key: FLEETS[fleet][key] for key in FIXTURE_KEYS}
    base = WORK / "fixtures"
    base.mkdir(parents=True, exist_ok=True)
    name = hashlib.sha1(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:10]
    target = base / f"{fleet}-{name}-seed{seed}"
    if not (target / "fleet.json").exists():
        tmp = base / f".tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        argv = [PY, str(BENCH / "fixture.py"), "--out", str(tmp), "--seed", str(seed)]
        for key in FIXTURE_KEYS:
            argv += [f"--{key}", str(spec[key])]
        child = run_child(argv, env, tmp, timeout=FIXTURE_TIMEOUT_S)
        if child.code != 0:
            shutil.rmtree(tmp, ignore_errors=True)
            raise BenchError(f"fixture generation failed for seed {seed}:\n{child.err}")
        shutil.rmtree(target, ignore_errors=True)
        tmp.rename(target)
    return target


def session_fleets(fleet: str, seed: int, env: dict) -> list[Path]:
    """The run's inputs: the fleet of each session, in ``seed``'s order."""
    inputs = [fixture(fleet, sim, env) for sim in FLEETS[fleet]["sims"]]
    random.Random(seed).shuffle(inputs)
    return inputs


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------
class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 fleet: str, env: dict, inputs: list[Path]):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.spec = FLEETS[fleet]
        self.env = env
        #: One fleet directory per session.
        self.inputs = inputs
        self.metas = [json.loads((path / "fleet.json").read_text()) for path in inputs]
        self.dir = WORK / "runs" / f"{fleet}-{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.ops: list[dict] = []
        self.setups: list[float] = []
        self.rss: list[float] = []
        self.checks: list[str] = []
        #: Span files to aggregate, one per traced program process.
        self.span_files: list[tuple[Path, dict | None]] = []

    def fail(self, why: str) -> None:
        self.checks.append(why)

    def copy_db(self, session: int, name: str) -> Path:
        """A private copy of one of a session fleet's DBs."""
        path = self.dir / f"s{session}-{name}"
        shutil.copyfile(self.inputs[session] / name, path)
        return path


def cold_analyze(run: Run) -> None:
    dbs = [run.copy_db(s, "fleet.db") for s in range(SESSIONS)]
    if not run.trace:
        for db in dbs:
            child = run_child(worker("probe", "--db", str(db)), run.env, run.dir,
                              events=True)
            ready = child.event("ready")
            if child.code != 0 or ready is None:
                run.fail(f"set-up probe: exit {child.code}: {child.err[-2000:]}")
                continue
            run.setups.append(ready["at"])
    # Operations cycle over the fleets and stop at the end of a cycle, so
    # every fleet is analyzed equally often.  A traced run alternates
    # traced and untraced cycles.
    expected: dict[int, bytes] = {}
    deadline = None
    index = 0
    while True:
        session = index % SESSIONS
        traced = run.trace and (index // SESSIONS) % 2 == 0
        argv = [PY, "-m", "repro", "analyze", "--db", str(dbs[session])]
        spans = run.dir / f"spans-op{index}.json"
        if traced:
            argv = worker("cli", "--trace", "1", "--spans", str(spans),
                          "--session", f"op{index}", "--", *argv[3:])
        child = run_child(argv, run.env, run.dir)
        if deadline is None:
            deadline = child.spawned + run.seconds
        pumps = run.metas[session]["pumps"]
        ok = child.code == 0 and pumps_covered(child.out.decode(), pumps)
        if child.out != expected.setdefault(session, child.out):
            ok = False
            run.fail(f"op {index}: report bytes differ from fleet {session}'s first report")
        if child.code != 0:
            run.fail(f"op {index}: exit {child.code}: {child.err[-2000:]}")
        run.ops.append({"ok": ok, "latency_s": child.wall, "traced": traced,
                        "session": session})
        run.rss.append(child.rss_mb)
        if traced and spans.exists():
            root = {"op": f"op{index}", "start": child.spawned, "end": child.exited}
            run.span_files.append((spans, root))
        index += 1
        enough = index % SESSIONS == 0 and (not run.trace or index >= 2 * SESSIONS)
        if enough and perf_counter() >= deadline:
            break


def _sessions(run: Run, mode: str, extra, seconds: float) -> list[tuple[int, Child]]:
    """Run one program process per fleet, each for ``seconds`` at most.

    ``extra(session)`` gives the mode's arguments.  Returns the
    ``(session, child)`` pairs that completed.
    """
    children = []
    for session in range(SESSIONS):
        spans = run.dir / f"spans-s{session}.json"
        argv = worker(mode, "--seconds", repr(seconds),
                      "--trace", str(int(run.trace)), "--spans", str(spans),
                      "--session", f"s{session}", *extra(session))
        child = run_child(argv, run.env, run.dir, events=True)
        ready, done = child.event("ready"), child.event("done")
        if child.code != 0 or ready is None or done is None:
            run.fail(f"s{session}: exit {child.code}: {child.err[-2000:]}")
            run.ops.append({"ok": False, "latency_s": child.wall, "traced": False,
                            "session": session})
            continue
        if not ready.get("ok", False):
            run.fail(f"s{session}: set-up report does not cover every pump")
        run.setups.append(ready["at"])
        run.rss.append(child.rss_mb)
        run.ops.extend(dict(op, session=session) for op in done["ops"])
        if run.trace and spans.exists():
            run.span_files.append((spans, None))
        children.append((session, child))
    return children


def rolling_refresh(run: Run) -> None:
    slices = max(1, round(run.seconds / SESSIONS / NOMINAL_REFRESH_S))

    def extra(session: int) -> list[str]:
        pumps = ",".join(str(p) for p in run.metas[session]["pumps"])
        return ["--db", str(run.copy_db(session, "start.db")),
                "--tail", str(run.inputs[session] / "tail.npz"), "--pumps", pumps,
                "--start", repr(run.spec["start"]), "--delta", repr(run.spec["delta"]),
                "--ops", str(slices),
                "--report-out", str(run.dir / f"s{session}-report.txt")]

    # The time only bounds a session; a session that runs out of it
    # before its last slice fails, so no commit is timed on fewer windows.
    children = _sessions(run, "rolling", extra, 3.0 * slices * NOMINAL_REFRESH_S)
    for session, child in children:
        count = sum(op["session"] == session for op in run.ops)
        if count != slices:
            run.fail(f"s{session}: {count} of {slices} slices before the time ran out")

    # Every session's final report must equal a cold analysis of the same
    # window on the same DB.  These run two at a time, after all timing.
    def cold_check(item: tuple[int, Child]) -> str | None:
        session, child = item
        end_day = child.event("done")["end_day"]
        cold = run_child([PY, "-m", "repro", "analyze", "--db",
                          str(run.dir / f"s{session}-start.db"), "--end", repr(end_day)],
                         run.env, run.dir)
        incremental = (run.dir / f"s{session}-report.txt").read_bytes()
        if cold.code == 0 and cold.out == incremental:
            return None
        return (f"s{session}: final incremental report differs from a cold analysis"
                f" of [0, {end_day})")

    with ThreadPoolExecutor(2) as pool:
        verdicts = list(pool.map(cold_check, children))
    for (session, _child), why in zip(children, verdicts):
        if why:
            run.fail(why)
            [op for op in run.ops if op["session"] == session][-1]["ok"] = False


def backtest(run: Run) -> None:
    def extra(session: int) -> list[str]:
        return ["--db", str(run.copy_db(session, "fleet.db")),
                "--truth", str(run.inputs[session] / "truth.npz"),
                "--step", repr(run.spec["step"])]

    _sessions(run, "backtest", extra, run.seconds / SESSIONS)
    for session in range(SESSIONS):
        ops = [op for op in run.ops if op["session"] == session]
        answers = {(op.get("points"), op.get("mae")) for op in ops if op.get("ok")}
        if len(answers) > 1:
            run.fail(f"s{session}: backtest point count / MAE differ across calls:"
                     f" {sorted(answers)}")
            for op in ops:
                op["ok"] = False


RUNNERS = {"cold-analyze": cold_analyze, "rolling-refresh": rolling_refresh,
           "backtest": backtest}


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------
def tail_percentile(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def end_to_end_metrics(run: Run) -> tuple[dict, dict]:
    # Failed operations are counted, not timed (unless nothing succeeded).
    latencies = [op["latency_s"] for op in run.ops if op.get("ok")] or [
        op["latency_s"] for op in run.ops
    ]

    def median(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    metrics = {
        "op_p50_s": median(latencies),
        "setup_s": median(run.setups),
        "peak_rss_mb": median(run.rss),
    }
    extras: dict = {
        OP_ALIASES[run.workload]: metrics["op_p50_s"],
        "op_tail": tail_percentile(latencies),
        "ops": len(run.ops),
        "failed_frac": sum(not op.get("ok") for op in run.ops) / max(1, len(run.ops)),
    }
    ingest = [op["ingest_s"] for op in run.ops if "ingest_s" in op]
    if ingest:
        extras["ingest_p50_s"] = statistics.median(ingest)
    return metrics, extras


def load_spans(run: Run) -> tuple[list[list], dict, list[str], list[list[int]]]:
    """Concatenate span files; cold-analyze files get their root span.

    Returns ``(spans, counters, missing, processes)`` where
    ``processes`` lists the span indices of each program process.
    """
    spans: list[list] = []
    counters: dict = defaultdict(lambda: defaultdict(float))
    missing: set[str] = set()
    processes: list[list[int]] = []
    for path, root in run.span_files:
        data = json.loads(path.read_text())
        offset = len(spans)
        if root is not None:
            spans.append(["op", root["start"], root["end"], -1, root["op"], None])
            offset += 1
        first = len(spans)
        for name, start, end, parent, op, attrs in data["spans"]:
            if parent >= 0:
                parent += offset
            elif root is not None:
                parent = first - 1
            spans.append([name, start, end, parent, op, attrs])
        processes.append(list(range(first - (root is not None), len(spans))))
        for op, values in data["counters"].items():
            for key, value in values.items():
                counters[op][key] += value
        missing.update(data["missing"])
    return spans, counters, sorted(missing), processes


def per_layer_metrics(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics from the traced operations' spans.

    ``_s`` metrics are a layer's self time summed over one operation,
    median over traced operations; counts likewise.  ``cli.import_s``
    and ``storage.open_s`` are per program process instead (the
    process that serves cold-analyze operations, the session set-up
    elsewhere), since they are paid once per start.  Ratios pool the
    counts of every traced operation.
    """
    spans, counters, missing, processes = load_spans(run)
    selfs = self_times(spans)
    per_op: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for (name, start, end, _parent, op, attrs), own in zip(spans, selfs):
        values = per_op[op]
        values[f"{name}:self"] += own
        values[f"{name}:calls"] += 1
        if name == "op":
            values["op:wall"] += end - start
        for key, value in (attrs or {}).items():
            values[f"{name}:{key}"] += value
    ops = [op for op, values in per_op.items() if values.get("op:calls")]

    def median_of(key: str) -> float:
        return statistics.median(per_op[op].get(key, 0.0) for op in ops) if ops else 0.0

    def per_process(name: str) -> float:
        totals = [sum(selfs[i] for i in members if spans[i][0] == name)
                  for members in processes]
        return statistics.median(totals) if totals else 0.0

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    def pooled(key: str) -> float:
        return sum(per_op[op].get(key, 0.0) for op in ops)

    def pooled_counter(key: str) -> float:
        return sum(counters.get(op, {}).get(key, 0.0) for op in ops)

    traced = [op["latency_s"] for op in run.ops if op.get("traced")]
    untraced = [op["latency_s"] for op in run.ops if not op.get("traced")]
    overhead = (statistics.median(traced) / statistics.median(untraced) - 1.0
                if traced and untraced else 0.0)
    unaccounted = (statistics.median(per_op[op]["op:self"] / per_op[op]["op:wall"]
                                     for op in ops) if ops else 0.0)
    metrics = {
        "cli.import_s": per_process("cli.import"),
        "storage.open_s": per_process("storage.open"),
        "storage.query_arrays_s": median_of("storage.query_arrays:self"),
        "storage.query_arrays_rows": median_of("storage.query_arrays:rows"),
        "storage.query_arrays_mb": median_of("storage.query_arrays:mb"),
        "storage.add_many_s": median_of("storage.add_many:self"),
        "storage.add_many_rows": median_of("storage.add_many:rows"),
        "runtime.transform_s": median_of("runtime.transform:self"),
        "runtime.transform_rows": median_of("runtime.transform:rows"),
        "runtime.digest_s": median_of("runtime.digest:self"),
        "runtime.digest_calls": median_of("runtime.digest:calls"),
        "runtime.transform_cache_hit_ratio": ratio(
            pooled("runtime.transform:cache_hits"), pooled("runtime.transform:cache_misses")),
        "runtime.incremental_row_hit_ratio": ratio(
            pooled_counter("incremental_row_hits"), pooled_counter("incremental_row_misses")),
        "runtime.peak_cache_hit_ratio": ratio(
            pooled_counter("peak_cache_hits"), pooled_counter("peak_cache_misses")),
        "core.preprocess_s": median_of("core.preprocess:self"),
        "core.score_da_s": median_of("core.score_da:self"),
        "core.score_da_rows_extracted": median_of("core.score_da:rows_extracted"),
        "core.fit_classifier_s": median_of("core.fit_classifier:self"),
        "core.learn_threshold_s": median_of("core.learn_threshold:self"),
        "core.ransac_fit_s": median_of("core.ransac_fit:self"),
        "core.ransac_fit_calls": median_of("core.ransac_fit:calls"),
        "runtime.model_fit_cache_hit_ratio": ratio(
            pooled_counter("model_fit_cache_hits"), pooled_counter("model_fit_cache_misses")),
        "core.rul_predict_s": median_of("core.rul_predict:self"),
        "runtime.fleet_map_s": median_of("runtime.fleet_map:self"),
        "analysis.engine_run_s": median_of("analysis.engine_run:self"),
        "analysis.render_s": median_of("analysis.render:self"),
        "analysis.backtest_s": median_of("analysis.backtest:self"),
        "trace.unaccounted_share": unaccounted,
        "trace.overhead_share": overhead,
    }
    extras = {"traced_ops": len(ops), "spans": len(spans), "missing_targets": missing}
    return metrics, extras


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool, fleet: str) -> dict:
    for sub in ("tmp", "cache", "records"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    env = child_env(WORK)
    environment = build(env)
    environment.update(
        nproc=len(os.sched_getaffinity(0)),
        OPENBLAS_NUM_THREADS=os.environ.get("OPENBLAS_NUM_THREADS"),
        OMP_NUM_THREADS=os.environ.get("OMP_NUM_THREADS"),
    )
    run = Run(workload, seed, seconds, trace, fleet, env, session_fleets(fleet, seed, env))
    RUNNERS[workload](run)
    if trace:
        values, extras = per_layer_metrics(run)
        units = PER_LAYER
    else:
        values, extras = end_to_end_metrics(run)
        units = END_TO_END
    failed = sum(not op.get("ok") for op in run.ops)
    result = {
        "correct": not run.checks and failed == 0 and bool(run.ops),
        "attempted": max(1, len(run.ops)),
        "failed": failed if run.ops else 1,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "fleet": {"name": fleet, **FLEETS[fleet],
                  "sessions": [path.name for path in run.inputs], "session_meta": run.metas},
        "environment": environment, "result": result, "extras": extras,
        "setups_s": run.setups, "peak_rss_mb": run.rss, "checks": run.checks,
        "ops": run.ops, "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = WORK / "records" / f"{fleet}-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    for db in run.dir.glob("*.db*"):
        db.unlink()
    return record


def describe(record: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    lines = [f"[{record['workload']}] seed={record['seed']} trace={int(record['trace'])}"]
    for name, metric in record["result"]["metrics"].items():
        lines.append(f"  {name:<36} {metric['value']:.6g} {metric['unit']}")
    extras = record["extras"]
    alias = OP_ALIASES[record["workload"]]
    if alias in extras:
        lines.append(f"  {alias:<36} {extras[alias]:.6g} s")
    tail = extras.get("op_tail")
    if tail:
        name = "refresh_tail_s" if record["workload"] == "rolling-refresh" else "op_tail_s"
        lines.append(f"  {name:<36} {tail['value']:.6g} s"
                     f" (p{tail['percentile']:.1f} of {tail['samples']} samples)")
    elif "op_tail" in extras:
        lines.append(f"  {'op_tail_s':<36} n/a (fewer than 11 samples)")
    if "ingest_p50_s" in extras:
        lines.append(f"  {'ingest_p50_s':<36} {extras['ingest_p50_s']:.6g} s")
    if "failed_frac" in extras:
        lines.append(f"  {'failed_frac':<36} {extras['failed_frac']:.6g} ratio")
    for check in record["checks"]:
        lines.append(f"  CHECK FAILED: {check}")
    env = record["environment"]
    lines.append(
        f"  env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']}"
        f" scipy={env['scipy']} blas={env['blas']} workers={env['fleet_workers']}"
        f" native={env['native_kernel']} OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}"
        f" OMP_NUM_THREADS={env['OMP_NUM_THREADS']}"
    )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fleet", choices=tuple(FLEETS), default="full",
                        help="'smoke' is a tiny fleet for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(name, args.seed, args.seconds, bool(args.trace), args.fleet)
                   for name in names]
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print("\n".join(describe(record)))
    if args.workload == "all":
        return 0 if all(r["result"]["correct"] for r in records) else 1
    print(json.dumps(records[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
