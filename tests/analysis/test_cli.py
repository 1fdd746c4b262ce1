"""Tests for the command-line interface (cli.py)."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.cli
from repro.cli import main

#: The CI smoke fleet: 6 pumps, 40 days, labels 20/20/15, seed 7.
SMOKE_FLEET = ["--pumps", "6", "--days", "40", "--interval", "0.25",
               "--labels", "20,20,15", "--seed", "7"]


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def smoke_db(tmp_path_factory):
    db_path = str(tmp_path_factory.mktemp("smoke") / "smoke.db")
    code, _ = run_cli(["simulate", "--db", db_path, *SMOKE_FLEET])
    assert code == 0
    return db_path


def spawn_python(args, **env_overrides):
    """Run ``python *args`` in a fresh process with this checkout's
    ``repro`` importable and no BLAS thread setting inherited."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_overrides)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def run_python(args, **env_overrides):
    """:func:`spawn_python` that must succeed; returns its stdout."""
    proc = spawn_python(args, **env_overrides)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def profile_counters(text):
    line = next(row for row in text.splitlines() if row.startswith("  counters:"))
    return dict(item.split("=") for item in line.split()[1:])


class TestSpecs:
    def test_prints_table1(self):
        code, text = run_cli(["specs"])
        assert code == 0
        assert "Piezo" in text and "MEMS" in text
        assert "4000" in text  # MEMS noise density


class TestPlan:
    def test_prints_requested_grid(self):
        code, text = run_cli(
            ["plan", "--sampling-hz", "150", "--target-years", "3"]
        )
        assert code == 0
        assert "10.2" in text  # the paper's 3-yr anchor
        assert "2,57" in text  # ~2,576 measurements

    def test_infeasible_target_reported(self):
        code, text = run_cli(
            ["plan", "--sampling-hz", "150", "--target-years", "50"]
        )
        assert code == 0
        assert "infeasible" in text


class TestSimulateAnalyze:
    def test_end_to_end_roundtrip(self, tmp_path):
        db_path = str(tmp_path / "fleet.db")
        code, text = run_cli(
            [
                "simulate",
                "--db", db_path,
                "--pumps", "4",
                "--days", "50",
                "--interval", "1.0",
                "--labels", "20,20,10",
                "--seed", "11",
            ]
        )
        assert code == 0
        assert "wrote 200 measurements" in text

        code, text = run_cli(["analyze", "--db", db_path, "--moving-average", "4"])
        assert code == 0
        assert "FLEET REPORT" in text
        assert "PER-PUMP STATUS" in text

    def test_simulate_rejects_bad_label_spec(self, tmp_path):
        code, text = run_cli(
            ["simulate", "--db", str(tmp_path / "x.db"), "--labels", "1,2"]
        )
        assert code == 2
        assert "three integers" in text

    def test_simulate_reports_unsatisfiable_label_mix(self, tmp_path):
        code, text = run_cli(
            [
                "simulate",
                "--db", str(tmp_path / "y.db"),
                "--pumps", "2",
                "--days", "5",
                "--interval", "1.0",
                "--labels", "5,5,5000",
                "--seed", "1",
            ]
        )
        assert code == 2
        assert "label mix" in text

    def test_analyze_empty_database_fails_cleanly(self, tmp_path):
        from repro.storage.database import VibrationDatabase

        db_path = str(tmp_path / "empty.db")
        VibrationDatabase(db_path).close()
        code, text = run_cli(["analyze", "--db", db_path])
        assert code == 1
        assert "error" in text

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--start", "30", "--end", "10"],
             "error: end_day must be greater than start_day"),
            (["--horizon", "-5"], "error: --horizon must be positive"),
        ],
        ids=["reversed-period", "negative-horizon"],
    )
    def test_analyze_rejects_bad_values_without_traceback(
        self, smoke_db, flags, message
    ):
        proc = spawn_python(["-m", "repro", "analyze", "--db", smoke_db, *flags])
        assert proc.returncode == 1
        assert message in proc.stdout
        assert "Traceback" not in proc.stdout + proc.stderr

    @pytest.mark.parametrize("command", ["analyze", "schedule", "dashboard"])
    def test_moving_average_below_one_is_an_error(self, smoke_db, command, tmp_path):
        argv = [command, "--db", smoke_db, "--moving-average", "0"]
        if command == "dashboard":
            argv += ["--out", str(tmp_path / "dash.html")]
        code, text = run_cli(argv)
        assert code == 1
        assert "error: moving_average_window must be positive" in text

    @pytest.mark.parametrize("threads", [None, 3])
    def test_profile_records_blas_threads_when_readable(
        self, smoke_db, monkeypatch, threads
    ):
        monkeypatch.setattr(repro.cli, "_pin_blas_threads", lambda: threads)
        code, text = run_cli(["analyze", "--db", smoke_db, "--profile"])
        assert code == 0
        counters = profile_counters(text)
        if threads is None:
            assert "blas_threads" not in counters
        else:
            assert counters["blas_threads"] == "3"


# Runs in a fresh process: which modules a cold ``repro analyze`` loads.
_IMPORT_GUARD = """
import io, json, sys
LAZY = ("scipy.signal", "scipy.stats",
        "multiprocessing.shared_memory", "concurrent.futures.process")
import repro.cli
loaded = {"import": [m for m in LAZY if m in sys.modules]}
assert repro.cli.main(["analyze", "--db", sys.argv[1]], out=io.StringIO()) == 0
loaded["analyze"] = [m for m in LAZY if m in sys.modules]
print(json.dumps(loaded))
"""


class TestColdStart:
    """A ``repro analyze`` process pays no import or BLAS thread cost it
    does not use, and neither changes the report."""

    def test_analyze_never_imports_scipy_signal_or_stats(self, smoke_db):
        loaded = json.loads(run_python(["-c", _IMPORT_GUARD, smoke_db]))
        assert loaded == {"import": [], "analyze": []}

    def test_report_identical_with_exported_blas_threads(self, smoke_db):
        argv = ["-m", "repro", "analyze", "--db", smoke_db, "--profile"]
        pinned = run_python(argv)
        exported = run_python(argv, OPENBLAS_NUM_THREADS="2")
        # Everything before the profile's timings is the report.
        report, _, _ = pinned.partition("RUNTIME PROFILE:")
        assert "PER-PUMP STATUS" in report
        assert exported.partition("RUNTIME PROFILE:")[0] == report
        pinned_threads = profile_counters(pinned).get("blas_threads")
        exported_threads = profile_counters(exported).get("blas_threads")
        if pinned_threads is None:
            pytest.skip("no OpenBLAS thread control in this environment")
        assert pinned_threads == "1"
        # OpenBLAS caps its count at the CPUs it may run on.
        if len(os.sched_getaffinity(0)) >= 2:
            assert exported_threads == "2"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCompactScheduleExport:
    @pytest.fixture()
    def populated_db(self, tmp_path):
        db_path = str(tmp_path / "fleet.db")
        code, _ = run_cli(
            [
                "simulate", "--db", db_path,
                "--pumps", "4", "--days", "50", "--interval", "1.0",
                "--labels", "20,20,10", "--seed", "11",
            ]
        )
        assert code == 0
        return db_path

    def test_compact_summarizes_and_deletes(self, populated_db):
        code, text = run_cli(
            ["compact", "--db", populated_db, "--keep-days", "10", "--now", "50"]
        )
        assert code == 0
        assert "summaries written" in text
        assert "raw measurements remain" in text
        # Second run is a no-op.
        code, text = run_cli(
            ["compact", "--db", populated_db, "--keep-days", "10", "--now", "50"]
        )
        assert code == 0
        assert "0 raw measurements deleted" in text

    def test_schedule_prints_plan_or_empty(self, populated_db):
        code, text = run_cli(
            ["schedule", "--db", populated_db, "--moving-average", "4",
             "--capacity", "2", "--horizon", "52"]
        )
        assert code == 0
        assert "period" in text or "no replacements due" in text

    def test_export_roundtrip(self, populated_db, tmp_path):
        out_path = str(tmp_path / "corpus.npz")
        code, text = run_cli(["export", "--db", populated_db, "--out", out_path])
        assert code == 0
        assert "exported 200 measurements" in text

        from repro.storage.traces import import_npz

        corpus = import_npz(out_path)
        assert len(corpus) == 200

    def test_export_empty_range_fails(self, populated_db, tmp_path):
        code, text = run_cli(
            ["export", "--db", populated_db, "--out", str(tmp_path / "x.npz"),
             "--start", "1000", "--end", "2000"]
        )
        assert code == 1
        assert "no measurements" in text


class TestDashboardCommand:
    def test_dashboard_written(self, tmp_path):
        db_path = str(tmp_path / "fleet.db")
        code, _ = run_cli(
            ["simulate", "--db", db_path, "--pumps", "4", "--days", "50",
             "--interval", "1.0", "--labels", "20,20,10", "--seed", "11"]
        )
        assert code == 0
        out_path = str(tmp_path / "dash.html")
        code, text = run_cli(
            ["dashboard", "--db", db_path, "--out", out_path,
             "--moving-average", "4", "--title", "Line 3 pumps"]
        )
        assert code == 0
        assert "dashboard written" in text
        content = open(out_path).read()
        assert "Line 3 pumps" in content
        assert "<svg" in content

    def test_dashboard_on_empty_db_fails(self, tmp_path):
        from repro.storage.database import VibrationDatabase

        db_path = str(tmp_path / "empty.db")
        VibrationDatabase(db_path).close()
        code, text = run_cli(
            ["dashboard", "--db", db_path, "--out", str(tmp_path / "x.html")]
        )
        assert code == 1
        assert "error" in text
