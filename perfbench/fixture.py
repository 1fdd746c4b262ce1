"""Seeded fleet inputs for the benchmark workloads.

Run as a child process (it imports ``repro``):

    python3 perfbench/fixture.py --out DIR --seed N --pumps 12 --days 120 \\
        --interval 0.25 --labels 100,200,100 --start 90

The fleet is simulated with the configuration ``repro simulate`` uses
for the same flags and written to ``DIR``:

``fleet.db``
    the whole fleet: what ``repro simulate`` would write;
``start.db``
    the same DB without the measurements taken on or after ``--start``
    (the rolling-refresh workload starts from a copy of it);
``tail.npz``
    the measurements taken on or after ``--start``, ingested slice by
    slice by the rolling-refresh workload;
``truth.npz``
    timestamps per ``(pump, measurement)`` and each pump's true life,
    the ground truth ``backtest_rul`` scores against;
``fleet.json``
    pump ids and measurement counts.

The workloads only ever hand the program these files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def generate(out: Path, seed: int, pumps: int, days: float, interval: float,
             labels: tuple[int, int, int], start: float) -> dict:
    import numpy as np

    from repro.simulation import FleetConfig, FleetSimulator
    from repro.storage.database import VibrationDatabase

    config = FleetConfig(
        num_pumps=pumps,
        duration_days=days,
        report_interval_days=interval,
        pm_interval_days=None,
        unstable_sensor_fraction=0.0,
        max_initial_age_fraction=0.9,
        seed=seed,
    )
    dataset = FleetSimulator(config).run()
    records, _ = dataset.expert_labels(dict(zip(("A", "BC", "D"), labels)))
    with VibrationDatabase(str(out / "fleet.db")) as db:
        dataset.to_database(db)
        db.labels.add_many(records)

    head = [m for m in dataset.measurements if m.timestamp_day < start]
    tail = [m for m in dataset.measurements if m.timestamp_day >= start]
    with VibrationDatabase(str(out / "start.db")) as db:
        for meta in dataset.sensors:
            db.sensors.add(meta)
        db.measurements.add_many(head)
        db.events.add_many(dataset.events)
        db.temperature.add_many(dataset.temperature)
        db.labels.add_many(records)

    np.savez(
        out / "tail.npz",
        pump_id=np.asarray([m.pump_id for m in tail], dtype=np.int64),
        measurement_id=np.asarray([m.measurement_id for m in tail], dtype=np.int64),
        timestamp_day=np.asarray([m.timestamp_day for m in tail], dtype=np.float64),
        service_day=np.asarray([m.service_day for m in tail], dtype=np.float64),
        sampling_rate_hz=np.asarray([m.sampling_rate_hz for m in tail], dtype=np.float64),
        # float32 is what the DB stores, so ingesting these rows writes
        # the same bytes as fleet.db holds.
        samples=np.stack([m.samples for m in tail]).astype("<f4"),
    )
    everything = dataset.measurements
    np.savez(
        out / "truth.npz",
        pump_id=np.asarray([m.pump_id for m in everything], dtype=np.int64),
        measurement_id=np.asarray([m.measurement_id for m in everything], dtype=np.int64),
        timestamp_day=np.asarray([m.timestamp_day for m in everything], dtype=np.float64),
        life_pump=np.asarray([p.pump_id for p in dataset.pumps], dtype=np.int64),
        life_days=np.asarray([p.life_days for p in dataset.pumps], dtype=np.float64),
    )
    meta = {
        "pumps": sorted({int(m.pump_id) for m in everything}),
        "measurements": len(everything),
        "start_measurements": len(head),
        "tail_measurements": len(tail),
    }
    (out / "fleet.json").write_text(json.dumps(meta))
    return meta


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="write the seeded benchmark fleet")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pumps", type=int, required=True)
    parser.add_argument("--days", type=float, required=True)
    parser.add_argument("--interval", type=float, required=True)
    parser.add_argument("--labels", required=True)
    parser.add_argument("--start", type=float, required=True)
    args = parser.parse_args(argv)
    labels = tuple(int(c) for c in args.labels.split(","))
    generate(Path(args.out), args.seed, args.pumps, args.days, args.interval, labels,
             args.start)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
