"""End-to-end chaos scenario runner: mote → Flush → gateway → storage → engine.

Drives the whole reproduction pipeline — fleet simulation, per-measurement
radio transport, gateway ingestion, database storage, analysis engine,
operator report — under a :class:`~repro.chaos.plan.FaultPlan`, with the
full robustness stack wired in: fault injector, retry policies on a
simulated clock, a per-mote circuit breaker and a dead-letter queue.

``plan=None`` runs the *same scenario with no chaos machinery at all*
(no injector, no retries, no breaker, no dead-letter queue) — the
reference the parity tests compare against: a zero-fault plan must
produce a byte-identical operator report, because instrumentation that
changes the answer is not instrumentation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.engine import EngineConfig, VibrationAnalysisEngine
from repro.analysis.reporting import render_report
from repro.chaos.inject import FaultInjector
from repro.chaos.plan import (
    FLEET_TASK,
    FLEET_WORKER_HANG,
    FLEET_WORKER_KILL,
    STORAGE_BLOB_CORRUPT,
    FaultPlan,
)
from repro.chaos.retry import (
    CircuitBreaker,
    RetryExhaustedError,
    RetryPolicy,
    SimulatedClock,
)
from repro.core.pipeline import PipelineConfig
from repro.runtime.fleet import FleetExecutor, SupervisionPolicy
from repro.sensornet.flush import flush_transfer
from repro.sensornet.gateway import GatewayBridge, SensorCalibration
from repro.sensornet.network import CollectionStats, DeliveredMeasurement
from repro.sensornet.packets import fragment_measurement, reassemble_measurement
from repro.sensornet.radio import LossyLink
from repro.simulation.fleet import FleetConfig, FleetDataset, FleetSimulator
from repro.storage.api import AnalysisPeriod, DataRetrievalAPI
from repro.storage.database import VibrationDatabase
from repro.storage.deadletter import DeadLetterQueue

SECONDS_PER_DAY = 86_400.0

#: int16 quantization range of the simulated MEMS ADC.
_COUNT_MIN, _COUNT_MAX = -32768, 32767


def _label_counts_default() -> dict[str, int]:
    return {"A": 10, "BC": 10, "D": 8}


@dataclass(frozen=True)
class ChaosScenario:
    """A small but complete fleet deployment for chaos experiments.

    Sized so one scenario (simulation → transport → analysis) runs in a
    couple of seconds: 8 pumps over 100 days at a 2-day report period is
    400 measurements of 128 samples each, enough for the RANSAC model
    discovery to converge and for every zone to hold enough labelable
    measurements, while every built-in plan still finishes fast.

    Attributes:
        num_pumps: fleet size.
        duration_days: simulated analysis window length.
        report_interval_days: measurement period per pump.
        samples_per_measurement: block length ``K``.
        label_counts: expert-label mix fed to the simulator.
        loss_probability: base radio loss rate (chaos faults stack on
            top of this honest channel loss).
        scale_g_per_count: ADC conversion factor for the simulated
            sensors.
        ransac_min_inliers: pipeline RANSAC support threshold, lowered
            to match the small fleet.
        max_workers: fleet-executor thread count (0 = serial, the
            deterministic reference).
        supervision: explicit fleet supervision policy; ``None`` lets
            the runner auto-arm a fast policy whenever the plan carries
            worker kill/hang faults (and run unsupervised otherwise).
        seed: fleet-simulation master seed (the fault plan carries its
            own, independent seed).
    """

    num_pumps: int = 8
    duration_days: float = 100.0
    report_interval_days: float = 2.0
    samples_per_measurement: int = 128
    label_counts: dict[str, int] = field(default_factory=_label_counts_default)
    loss_probability: float = 0.05
    scale_g_per_count: float = 1.0 / 1024.0
    ransac_min_inliers: int = 12
    max_workers: int = 0
    supervision: SupervisionPolicy | None = None
    seed: int = 11


@dataclass
class ChaosResult:
    """Everything one chaos run produced.

    Attributes:
        plan: the fault plan driving the run (None = no chaos machinery).
        report: the engine's analysis report; None when analysis could
            not run (graceful failure, see ``failure``).
        text: rendered operator report; None when ``report`` is None.
        transport: aggregate radio-transport statistics.
        stored: measurement records the gateway landed in the database.
        dead_letters: quarantine records accumulated across all stages.
        injector: the fault injector (None without a plan); its
            ``counts`` say which faults actually fired.
        supervision: the fleet executor's cumulative
            :class:`~repro.runtime.fleet.SupervisionReport` (None when
            the run was unsupervised).
        corrupted: ``(pump_id, measurement_id)`` pairs whose stored
            BLOBs were damaged at rest by ``storage.blob_corrupt``.
        failure: short description of why analysis was skipped (e.g. no
            data survived transport), or None on success.  A populated
            ``failure`` is a *handled* outcome, not a crash.
    """

    plan: FaultPlan | None
    report: object | None
    text: str | None
    transport: CollectionStats
    stored: int
    dead_letters: list
    injector: FaultInjector | None
    supervision: object | None = None
    corrupted: list = field(default_factory=list)
    failure: str | None = None


def _link_seed(seed: int, pump_id: int, measurement_id: int) -> int:
    """Independent per-measurement radio seed (stable across plans)."""
    digest = hashlib.sha256(f"{seed}:{pump_id}:{measurement_id}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _quantize(samples: np.ndarray, scale_g_per_count: float) -> np.ndarray:
    """The mote ADC: physical g readings → int16 counts."""
    counts = np.round(np.asarray(samples, dtype=np.float64) / scale_g_per_count)
    return np.clip(counts, _COUNT_MIN, _COUNT_MAX).astype(np.int16)


def simulate_fleet(scenario: ChaosScenario) -> FleetDataset:
    """Generate the scenario's ground-truth fleet dataset."""
    config = FleetConfig(
        num_pumps=scenario.num_pumps,
        duration_days=scenario.duration_days,
        report_interval_days=scenario.report_interval_days,
        samples_per_measurement=scenario.samples_per_measurement,
        seed=scenario.seed,
    )
    return FleetSimulator(config).run()


def run_chaos_scenario(
    plan: FaultPlan | None,
    scenario: ChaosScenario | None = None,
    dataset: FleetDataset | None = None,
) -> ChaosResult:
    """Run one scenario end to end under a fault plan.

    Args:
        plan: the chaos experiment; ``None`` disables the chaos
            machinery entirely (the parity reference).
        scenario: deployment parameters (defaults apply when None).
        dataset: pre-simulated fleet (pass one to amortize simulation
            across many plans — the chaos test suite does); must have
            been produced by :func:`simulate_fleet` on the same
            scenario.

    Returns:
        A :class:`ChaosResult`.  The function never lets a fault escape:
        injected failures end up retried, dead-lettered, or summarized
        in ``failure`` — an unhandled exception here is a robustness
        bug by definition.
    """
    scenario = scenario if scenario is not None else ChaosScenario()
    if dataset is None:
        dataset = simulate_fleet(scenario)

    chaos = plan is not None
    injector = FaultInjector(plan) if chaos else None
    dead = DeadLetterQueue() if chaos else None
    clock = SimulatedClock() if chaos else None
    transfer_policy = (
        RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05)
        if chaos
        else None
    )
    io_policy = (
        RetryPolicy(max_attempts=5, base_delay_s=0.01, max_delay_s=0.05)
        if chaos
        else None
    )
    breaker = (
        CircuitBreaker(failure_threshold=3, recovery_time_s=30.0, clock=clock)
        if chaos
        else None
    )

    database = VibrationDatabase()
    for meta in dataset.sensors:
        database.sensors.add(meta)

    # ------------------------------------------------------------------
    # Transport: every measurement rides mote → Flush → base station.
    # ------------------------------------------------------------------
    transport = CollectionStats()
    delivered: list[DeliveredMeasurement] = []
    for m in dataset.measurements:
        if breaker is not None and not breaker.allow(m.pump_id):
            transport.skipped_open_circuit += 1
            dead.add(
                stage="transport",
                pump_id=m.pump_id,
                measurement_id=m.measurement_id,
                reason="circuit-open",
                timestamp_day=m.timestamp_day,
            )
            continue
        counts = _quantize(m.samples, scenario.scale_g_per_count)
        packets = fragment_measurement(m.pump_id, m.measurement_id, counts)
        link = LossyLink(
            loss_probability=scenario.loss_probability,
            seed=_link_seed(scenario.seed, m.pump_id, m.measurement_id),
        )
        retry = (
            transfer_policy.session(seed=m.measurement_id, clock=clock)
            if chaos
            else None
        )
        stats, received = flush_transfer(
            packets, link, injector=injector, retry=retry
        )
        transport.attempted += 1
        transport.data_transmissions += stats.data_transmissions
        transport.nack_transmissions += stats.nack_transmissions
        transport.retransmissions += stats.retransmissions
        transport.duplicates += stats.duplicates
        if breaker is not None:
            if stats.success:
                breaker.record_success(m.pump_id)
            else:
                breaker.record_failure(m.pump_id)
        if not stats.success:
            transport.failed += 1
            if dead is not None:
                dead.add(
                    stage="transport",
                    pump_id=m.pump_id,
                    measurement_id=m.measurement_id,
                    reason="transfer-failed",
                    detail=f"{stats.delivered}/{len(packets)} fragments "
                    f"after {stats.attempts} attempts",
                    timestamp_day=m.timestamp_day,
                )
            continue
        try:
            recovered = reassemble_measurement(received)
        except ValueError as exc:
            transport.failed += 1
            if dead is None:
                raise
            dead.add(
                stage="transport",
                pump_id=m.pump_id,
                measurement_id=m.measurement_id,
                reason="reassembly-failed",
                detail=str(exc),
                timestamp_day=m.timestamp_day,
            )
            continue
        transport.delivered += 1
        delivered.append(
            DeliveredMeasurement(
                sensor_id=m.pump_id,
                measurement_id=m.measurement_id,
                wakeup_time_s=m.timestamp_day * SECONDS_PER_DAY,
                counts=recovered,
            )
        )

    # ------------------------------------------------------------------
    # Gateway: calibrate from the fleet's ground truth, ingest per pump.
    # ------------------------------------------------------------------
    calibrations: dict[int, SensorCalibration] = {}
    for m in dataset.measurements:
        if m.pump_id not in calibrations:
            calibrations[m.pump_id] = SensorCalibration(
                pump_id=m.pump_id,
                scale_g_per_count=scenario.scale_g_per_count,
                sampling_rate_hz=m.sampling_rate_hz,
                install_day=m.timestamp_day - m.service_day,
            )
    bridge = GatewayBridge(calibrations)
    stored = 0
    by_pump: dict[int, list[DeliveredMeasurement]] = {}
    for item in delivered:
        by_pump.setdefault(item.sensor_id, []).append(item)
    for pump_id in sorted(by_pump):
        batch = by_pump[pump_id]
        try:
            stored += bridge.ingest(
                batch,
                database,
                injector=injector,
                dead_letters=dead,
                retry=io_policy,
                retry_clock=clock,
            )
        except RetryExhaustedError as exc:
            for item in batch:
                dead.add(
                    stage="gateway",
                    pump_id=item.sensor_id,
                    measurement_id=item.measurement_id,
                    reason="write-failed",
                    detail=str(exc),
                    timestamp_day=item.wakeup_time_s / SECONDS_PER_DAY,
                )

    labels, _ = dataset.expert_labels(dict(scenario.label_counts))
    database.labels.add_many(labels)
    database.events.add_many(dataset.events)
    database.temperature.add_many(dataset.temperature)
    if dead is not None and len(dead):
        database.dead_letters.add_many(dead.records)

    # ------------------------------------------------------------------
    # Bit rot at rest: flip bytes inside stored BLOBs *after* ingest so
    # the only defense left is the store's checksum verification.
    # ------------------------------------------------------------------
    corrupted: list[tuple[int, int]] = []
    if injector is not None and plan.for_point(STORAGE_BLOB_CORRUPT):
        corrupted = database.measurements.fault_blobs(injector, STORAGE_BLOB_CORRUPT)

    # ------------------------------------------------------------------
    # Analysis: graceful degradation instead of raising.
    # ------------------------------------------------------------------
    period = AnalysisPeriod(0.0, scenario.duration_days + 1.0)
    api = DataRetrievalAPI(
        database, period, injector=injector, retry=io_policy, clock=clock
    )
    engine_config = EngineConfig(
        pipeline=PipelineConfig(
            ransac_min_inliers=scenario.ransac_min_inliers,
        ),
        max_workers=scenario.max_workers,
    )
    # A retry policy on the executor is only useful against per-task
    # faults, so it rides along only when the plan actually carries
    # ``fleet.task`` specs.  Worker kill/hang faults are the supervisor's
    # job: auto-arm a fast policy (tight backoff, generous restart
    # budget) unless the scenario pinned one.
    task_faults = bool(chaos and plan.for_point(FLEET_TASK))
    worker_faults = bool(
        chaos
        and (plan.for_point(FLEET_WORKER_KILL) or plan.for_point(FLEET_WORKER_HANG))
    )
    supervision = scenario.supervision
    if supervision is None and worker_faults:
        supervision = SupervisionPolicy(
            chunk_deadline_s=None if scenario.max_workers <= 1 else 5.0,
            max_restarts=10,
            backoff_base_s=0.001,
            backoff_max_s=0.01,
        )
    executor = FleetExecutor(
        max_workers=scenario.max_workers,
        injector=injector,
        task_retry=io_policy if task_faults else None,
        supervision=supervision,
    )
    engine = VibrationAnalysisEngine(api, engine_config, executor=executor)

    report = None
    text = None
    failure = None
    try:
        report = engine.run()
    except (ValueError, RetryExhaustedError) as exc:
        # InsufficientDataError (a ValueError) when too little survived;
        # RetryExhaustedError when storage reads stayed down.  Both are
        # degraded-but-handled outcomes the result records.
        failure = f"{type(exc).__name__}: {exc}"

    # Checksum mismatches are quarantined *inside* the store during the
    # engine's reads; merge its dead-letter rows with the transport- and
    # gateway-stage queue so one list accounts for every lost record.
    storage_dead = database.dead_letters.query(stage="storage") if chaos else []
    all_dead = (list(dead.records) if dead is not None else []) + storage_dead

    if report is not None:
        if report.data_health is not None and dead is not None:
            report.data_health.dead_letters = len(all_dead)
        text = render_report(report)

    return ChaosResult(
        plan=plan,
        report=report,
        text=text,
        transport=transport,
        stored=stored,
        dead_letters=all_dead,
        injector=injector,
        supervision=getattr(executor, "supervision_report", None),
        corrupted=corrupted,
        failure=failure,
    )
