"""In-memory dead-letter queue for quarantined measurements.

The transport, gateway and engine layers push
:class:`~repro.storage.records.DeadLetterRecord` entries here instead of
raising (or silently dropping); the chaos runner flushes the queue into
the database's ``dead_letters`` table and the operator report renders
their count in its data-health section.
"""

from __future__ import annotations

from repro.storage.records import DeadLetterRecord


class DeadLetterQueue:
    """Append-only quarantine for measurements the pipeline rejected."""

    def __init__(self) -> None:
        self.records: list[DeadLetterRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def add(
        self,
        stage: str,
        pump_id: int,
        measurement_id: int,
        reason: str,
        detail: str = "",
        timestamp_day: float = float("nan"),
    ) -> DeadLetterRecord:
        record = DeadLetterRecord(
            stage=stage,
            pump_id=int(pump_id),
            measurement_id=int(measurement_id),
            reason=reason,
            detail=detail,
            timestamp_day=timestamp_day,
        )
        self.records.append(record)
        return record

    def put(self, record: DeadLetterRecord) -> None:
        self.records.append(record)
