"""Walk-forward backtesting of RUL predictions.

A single end-of-experiment comparison (Fig. 16) says how good the final
predictions were; a deployment also needs to know how prediction quality
evolves with *lead time* — how early can the system be trusted?  The
backtester replays history: at each refresh day it fits the lifetime
models on only the data available *then*, predicts every pump's RUL, and
scores the prediction against the eventual ground truth.

The feature series (``D_a``) is computed once up front — features depend
only on each measurement, not on the analysis date — so the walk-forward
loop re-fits only the RUL layer.  :func:`backtest_rul` makes that loop
incremental:

* valid measurements are sorted by timestamp once, so every as-of day is
  a *prefix* of one array (found by ``searchsorted``) instead of a fresh
  full-fleet boolean scan;
* per-pump member positions are grouped once, so a pump's history at any
  as-of day is a prefix of its group (again ``searchsorted``) instead of
  a per-day ``pumps == pump`` sweep;
* each day's model fit is memoized in a content-addressed
  :class:`~repro.runtime.cache.ModelFitCache` keyed by the engine's
  :meth:`~repro.core.ransac.RecursiveRANSAC.config_key` plus incremental
  SHA-1 digests of the prefix window — refresh days that saw no new data
  reuse the previous fit outright; and
* independent as-of days can be fanned across a
  :class:`~repro.runtime.fleet.FleetExecutor`'s threads, since
  every day clones its engine from pristine RNG state.

The straightforward per-day rescan loop over the same time-sorted data
is kept as a test oracle in ``tests/reference/backtest.py``; the parity
tests assert the fast path reproduces it bit for bit.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.ransac import RecursiveRANSAC
from repro.core.rul import RULEstimator
from repro.runtime.cache import ModelFitCache, default_model_fit_cache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.fleet import FleetExecutor
    from repro.runtime.profile import RuntimeProfile


@dataclass(frozen=True)
class BacktestPoint:
    """One (pump, as-of day) prediction scored against ground truth.

    Attributes:
        pump_id: equipment.
        asof_day: analysis day (absolute, deployment epoch).
        lead_time_days: ground-truth days from ``asof_day`` to failure.
        predicted_rul_days: prediction made with data up to ``asof_day``.
        true_rul_days: ground-truth remaining life at ``asof_day``.
    """

    pump_id: int
    asof_day: float
    lead_time_days: float
    predicted_rul_days: float
    true_rul_days: float

    @property
    def error_days(self) -> float:
        return self.predicted_rul_days - self.true_rul_days


@dataclass
class BacktestResult:
    """All walk-forward points plus aggregate error views."""

    points: list[BacktestPoint]

    def errors(self) -> np.ndarray:
        return np.asarray([p.error_days for p in self.points])

    def mae(self) -> float:
        """Mean absolute error across all points (NaN when empty)."""
        errs = self.errors()
        return float(np.abs(errs).mean()) if errs.size else float("nan")

    def mae_by_lead_time(self, edges: tuple[float, ...]) -> dict[str, float]:
        """MAE bucketed by lead time (``edges`` ascending, in days)."""
        if len(edges) < 2 or not all(a < b for a, b in zip(edges, edges[1:])):
            raise ValueError("edges must be at least 2 ascending values")
        out: dict[str, float] = {}
        leads = np.asarray([p.lead_time_days for p in self.points])
        errs = self.errors()
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (leads >= lo) & (leads < hi)
            key = f"{lo:.0f}-{hi:.0f}d"
            out[key] = float(np.abs(errs[mask]).mean()) if mask.any() else float("nan")
        return out


@dataclass(frozen=True)
class _BacktestPlan:
    """Shared precomputation of the walk loop (and of its test oracle).

    Valid measurements, time-sorted; every as-of day maps to a prefix
    length of these arrays.
    """

    service: np.ndarray  # valid measurements' service days, time order
    features: np.ndarray  # valid measurements' D_a, time order
    pumps: np.ndarray  # valid measurements' pump ids, time order
    unique_pumps: np.ndarray  # all pump ids in the input, sorted unique
    asof_days: list[float]
    prefix_counts: np.ndarray  # valid points available per as-of day


def _plan_backtest(
    pump_ids: np.ndarray,
    timestamp_days: np.ndarray,
    service_days: np.ndarray,
    da: np.ndarray,
    refresh_every_days: float,
) -> _BacktestPlan:
    pumps = np.asarray(pump_ids)
    times = np.asarray(timestamp_days, dtype=np.float64)
    service = np.asarray(service_days, dtype=np.float64)
    features = np.asarray(da, dtype=np.float64)
    if not (pumps.shape == times.shape == service.shape == features.shape):
        raise ValueError("all measurement arrays must align")
    if refresh_every_days <= 0:
        raise ValueError("refresh_every_days must be positive")

    valid_idx = np.nonzero(np.isfinite(features))[0]
    valid_times = times[valid_idx]
    # Stable sort: simultaneous measurements keep input order, so the
    # fit arrays are reproducible for any input permutation of ties.
    order = np.argsort(valid_times, kind="stable")
    valid_idx = valid_idx[order]
    valid_times = valid_times[order]

    first_refresh = float(valid_times.min()) + refresh_every_days
    last_day = float(valid_times.max())
    asof_days: list[float] = []
    asof = first_refresh
    while asof <= last_day + 1e-9:
        asof_days.append(float(asof))
        asof += refresh_every_days
    prefix_counts = np.searchsorted(valid_times, np.asarray(asof_days), side="right")

    return _BacktestPlan(
        service=service[valid_idx],
        features=features[valid_idx],
        pumps=pumps[valid_idx],
        unique_pumps=np.unique(pumps),
        asof_days=asof_days,
        prefix_counts=prefix_counts,
    )


def _day_engine(
    ransac: RecursiveRANSAC | None, window_points: int
) -> RecursiveRANSAC:
    """The model-discovery engine for one as-of day.

    A caller-supplied engine is *cloned* so each day fits from pristine
    RNG state — a shared engine with advancing state would make every
    day's fit depend on how many days ran before it.
    """
    if ransac is not None:
        return ransac.clone()
    return RecursiveRANSAC(
        residual_threshold=0.05,
        min_inliers=max(30, window_points // 20),
        seed=0,
    )


def _predict_day(
    plan: _BacktestPlan,
    estimator: RULEstimator,
    asof: float,
    prefix: int,
    member_positions,
    min_history_per_pump: int,
    true_life_days: dict[int, float],
) -> list[BacktestPoint]:
    """Score every sufficiently-observed pump at one as-of day.

    ``member_positions(pump, prefix)`` returns the pump's positions into
    the plan's valid-sorted arrays among the first ``prefix`` points;
    :func:`backtest_rul` resolves it from precomputed group indices.
    """
    points: list[BacktestPoint] = []
    for pump in plan.unique_pumps:
        member = member_positions(pump, prefix)
        if member.size < min_history_per_pump:
            continue
        life = true_life_days.get(int(pump))
        if life is None:
            continue
        xs = plan.service[member]
        zs = plan.features[member]
        order = np.argsort(xs)
        prediction = estimator.predict(xs[order], zs[order])
        true_rul = life - float(xs.max())
        points.append(
            BacktestPoint(
                pump_id=int(pump),
                asof_day=float(asof),
                lead_time_days=float(true_rul),
                predicted_rul_days=float(prediction.rul_days),
                true_rul_days=float(true_rul),
            )
        )
    return points


def backtest_rul(
    pump_ids: np.ndarray,
    timestamp_days: np.ndarray,
    service_days: np.ndarray,
    da: np.ndarray,
    true_life_days: dict[int, float],
    zone_d_threshold: float,
    refresh_every_days: float = 10.0,
    min_history_per_pump: int = 10,
    min_fleet_points: int = 100,
    ransac: RecursiveRANSAC | None = None,
    *,
    fit_cache: ModelFitCache | None = None,
    executor: "FleetExecutor | None" = None,
    profile: "RuntimeProfile | None" = None,
) -> BacktestResult:
    """Walk-forward RUL evaluation over a fleet's feature history.

    Args:
        pump_ids: pump per measurement.
        timestamp_days: absolute measurement times.
        service_days: pump service times, aligned.
        da: degradation feature per measurement (NaN = invalid, skipped).
        true_life_days: ground-truth total life per pump (simulation
            truth, or post-hoc diagnosis for real data).
        zone_d_threshold: hazard boundary used for the projection.
        refresh_every_days: walk-forward step.
        min_history_per_pump: a pump is predicted only once it has this
            many valid measurements before the as-of day.
        min_fleet_points: lifetime models are fitted only once the fleet
            has this many valid measurements before the as-of day.
        ransac: model-discovery engine; cloned (pristine RNG) per as-of
            day so every day's fit is independently reproducible.  A
            sensible per-day default is built when omitted.
        fit_cache: memo for per-day model fits, keyed by engine config +
            window content digest; the process-wide default when None.
        executor: optional :class:`~repro.runtime.fleet.FleetExecutor`
            to fan independent as-of days across worker threads;
            results are ordering-independent because each day's fit
            starts from pristine engine state.
        profile: optional :class:`~repro.runtime.profile.RuntimeProfile`
            receiving ``backtest.fit_models`` / ``backtest.predict``
            stages and fit-cache hit/miss counters.

    Returns:
        BacktestResult over every (refresh, pump) with enough history.
    """
    plan = _plan_backtest(
        pump_ids, timestamp_days, service_days, da, refresh_every_days
    )
    if fit_cache is None:
        fit_cache = default_model_fit_cache()

    # Per-pump positions into the valid-sorted arrays, ascending; a
    # pump's members below any prefix are a searchsorted cut of its
    # group (kills the per-day fleet-wide ``pumps == pump`` scan).
    group_order = np.argsort(plan.pumps, kind="stable")
    group_vals = plan.pumps[group_order]
    uniq_vals, group_starts = np.unique(group_vals, return_index=True)
    group_bounds = np.append(group_starts, group_vals.size)
    groups: dict[int, np.ndarray] = {
        int(p): group_order[s:e]
        for p, s, e in zip(uniq_vals, group_bounds[:-1], group_bounds[1:])
    }
    empty = np.empty(0, dtype=np.intp)

    def member_positions(pump, prefix: int) -> np.ndarray:
        positions = groups.get(int(pump))
        if positions is None:
            return empty
        return positions[: np.searchsorted(positions, prefix, side="left")]

    # Incremental content digests of every needed prefix window: one
    # rolling SHA-1 per array, snapshotted (hash .copy()) at each prefix
    # length, so digesting all windows costs one pass over the data.
    x_bytes = np.ascontiguousarray(plan.service).data
    z_bytes = np.ascontiguousarray(plan.features).data
    hasher_x = hashlib.sha1()
    hasher_z = hashlib.sha1()
    window_digests: dict[int, tuple[bytes, bytes]] = {}
    pos = 0
    for prefix in sorted(set(int(c) for c in plan.prefix_counts)):
        hasher_x.update(x_bytes[pos:prefix])
        hasher_z.update(z_bytes[pos:prefix])
        pos = prefix
        window_digests[prefix] = (
            hasher_x.copy().digest(),
            hasher_z.copy().digest(),
        )

    def _stage(name: str, items: int = 0):
        return profile.stage(name, items) if profile is not None else nullcontext()

    def run_day(spec: tuple[float, int]) -> list[BacktestPoint]:
        asof, prefix = spec
        if prefix < min_fleet_points:
            return []
        engine = _day_engine(ransac, prefix)
        digest_x, digest_z = window_digests[prefix]
        key = ("model-fit", engine.config_key(), prefix, digest_x, digest_z)
        with _stage("backtest.fit_models", items=prefix):
            models = fit_cache.models(
                key, lambda: engine.fit(plan.service[:prefix], plan.features[:prefix])
            )
        if not models:
            return []
        estimator = RULEstimator(zone_d_threshold)
        estimator.models_ = models
        with _stage("backtest.predict"):
            day_points = _predict_day(
                plan,
                estimator,
                asof,
                prefix,
                member_positions,
                min_history_per_pump,
                true_life_days,
            )
        return day_points

    hits0, misses0 = fit_cache.hits, fit_cache.misses
    day_specs = [
        (asof, int(prefix))
        for asof, prefix in zip(plan.asof_days, plan.prefix_counts)
    ]
    if executor is not None:
        per_day = executor.map_ordered(run_day, day_specs)
    else:
        per_day = [run_day(spec) for spec in day_specs]
    points = [point for day_points in per_day for point in day_points]
    if profile is not None:
        profile.count("backtest.days", len(day_specs))
        profile.count("backtest.predictions", len(points))
        profile.count("backtest.fit_cache_hits", fit_cache.hits - hits0)
        profile.count("backtest.fit_cache_misses", fit_cache.misses - misses0)
    return BacktestResult(points=points)
