"""Parity: the chaos machinery must not change fault-free behaviour.

The zero-fault plan runs the pipeline with every robustness hook wired
in (injector, retry policies, circuit breaker, dead-letter queue); the
reference run uses none of them.  Identical output — byte for byte —
is the guarantee that the instrumentation itself is invisible.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.chaos import ZERO_FAULTS, run_chaos_scenario
from repro.runtime import SupervisionPolicy

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def reference(scenario, fleet_dataset):
    return run_chaos_scenario(None, scenario, dataset=fleet_dataset)


@pytest.fixture(scope="module")
def zero_fault(scenario, fleet_dataset):
    return run_chaos_scenario(ZERO_FAULTS, scenario, dataset=fleet_dataset)


def test_zero_fault_report_is_byte_identical(reference, zero_fault):
    assert reference.failure is None
    assert zero_fault.failure is None
    assert zero_fault.text == reference.text


def test_zero_fault_transport_is_identical(reference, zero_fault):
    assert zero_fault.transport == reference.transport
    assert zero_fault.stored == reference.stored


def test_zero_fault_arrays_are_identical(reference, zero_fault):
    ref, zf = reference.report, zero_fault.report
    np.testing.assert_array_equal(zf.pump_ids, ref.pump_ids)
    np.testing.assert_array_equal(zf.measurement_ids, ref.measurement_ids)
    np.testing.assert_array_equal(zf.service_days, ref.service_days)
    np.testing.assert_array_equal(zf.pipeline.zones, ref.pipeline.zones)
    np.testing.assert_array_equal(zf.pipeline.da, ref.pipeline.da)
    np.testing.assert_array_equal(zf.pipeline.psd, ref.pipeline.psd)


def test_zero_fault_fires_nothing(zero_fault):
    assert zero_fault.injector is not None
    assert zero_fault.injector.total_fired == 0
    assert zero_fault.dead_letters == []


def test_clean_run_has_no_data_health_section(reference):
    """A healthy pipeline's report is unchanged from the seed renderer:
    the DATA HEALTH section appears only when something went wrong."""
    assert reference.report.data_health is not None
    assert not reference.report.data_health.has_issues
    assert "DATA HEALTH:" not in reference.text


def test_fault_free_transport_stores_everything(reference, fleet_dataset):
    """At the scenario's honest 5% radio loss, Flush recovers every
    measurement and the gateway stores the full fleet."""
    assert reference.stored == len(fleet_dataset.measurements)
    assert reference.transport.failed == 0


def test_supervised_zero_fault_is_byte_identical(reference, scenario, fleet_dataset):
    """Arming supervision must be invisible when nothing goes wrong:
    same chunk boundaries, same assembly order, byte-identical report."""
    supervised = replace(scenario, max_workers=2, supervision=SupervisionPolicy())
    result = run_chaos_scenario(ZERO_FAULTS, supervised, dataset=fleet_dataset)
    assert result.failure is None
    assert result.text == reference.text
    assert result.supervision is not None
    assert not result.supervision.has_activity
