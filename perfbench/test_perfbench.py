"""Tests of the benchmark itself, on the tiny ``smoke`` fleet.

    python -m pytest perfbench -q

Each smoke run simulates a 6-pump fleet once (cached under
``.perfbench_work``) and drives every workload for about a second.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import self_times

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SMOKE_SEED = 1


def _bench(*args: str, cwd: Path = BENCH.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["op", 0.0, 10.0, -1, "a", None],
        ["map", 1.0, 5.0, 0, "a", None],
        # Two worker-thread children overlapping each other.
        ["predict", 1.5, 3.0, 1, "a", None],
        ["predict", 2.0, 4.0, 1, "a", None],
        ["render", 6.0, 7.0, 0, "a", None],
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.5, 1.5, 2.0, 1.0])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    tail = run.tail_percentile([float(i) for i in range(40)])
    assert tail == {"value": 29.0, "percentile": 75.0, "samples": 40}


def test_benchmark_json_matches_the_metrics_reported():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_metric_and_passes_its_checks(workload, trace):
    done = _bench("--workload", workload, "--seed", str(SMOKE_SEED), "--seconds", "1",
                  "--trace", str(trace), "--fleet", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        record = json.loads(
            (run.WORK / "records"
             / f"smoke-{workload}-seed{SMOKE_SEED}-trace1.json").read_text()
        )
        assert record["extras"]["missing_targets"] == []
        assert result["metrics"]["core.ransac_fit_calls"]["value"] >= 1


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "cold-analyze", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
