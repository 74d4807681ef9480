"""External counter-log readers (and the matching writer).

The front half of ``repro ingest``: parse a perf-style counter log into
an :class:`ExternalCounterLog` — time-ordered intervals of named event
counts — without interpreting the event names at all.  Translation onto
our :data:`~repro.stats.counters.COUNTER_FIELDS` is the mapping file's
job (:mod:`repro.ingest.mapping`); keeping the reader name-agnostic is
what lets one reader serve logs from any profiler.

Two formats:

* **JSON** — our own schema (``{"version": 1, "records": [...]}``,
  each record ``{"start_s", "end_s", "events": {name: value}}``).
  :func:`write_counter_log_json` emits it from a simulated
  :class:`~repro.stats.simlog.SimulationLog`, which is how the
  round-trip invariant (export → ingest with the identity mapping →
  bit-identical ledger) is exercised.
* **CSV** — ``perf stat -I ... -x,``-style interval rows
  (``time_s,value,event``): each distinct timestamp ends one interval,
  the first interval starts at 0.

Parse problems raise :class:`IngestError`, a
:class:`~repro.config.system.ConfigError`, so the CLI exits 2 exactly
as it does for an invalid system configuration.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import pathlib
from typing import TYPE_CHECKING, Iterable

from repro.config.system import ConfigError
from repro.stats.counters import COUNTER_FIELDS, counters_row

if TYPE_CHECKING:
    from repro.stats.simlog import SimulationLog

COUNTER_LOG_SCHEMA_VERSION = 1

CYCLES_EVENT = "cycles"
"""Event name :func:`write_counter_log_json` records cycle counts
under (matching perf's own ``cycles`` event, so identity-style
mappings work on both)."""


class IngestError(ConfigError):
    """An external counter log that cannot be parsed.

    Subclasses :class:`~repro.config.system.ConfigError` so the CLI's
    existing handler turns it into exit code 2; the ``field`` slot is
    pinned to ``"ingest"`` because the offender is a file, not a
    config knob.
    """

    def __init__(self, message: str) -> None:
        self.field = "ingest"
        ValueError.__init__(self, message)


@dataclasses.dataclass(frozen=True)
class ExternalRecord:
    """One measurement interval of an external counter log."""

    start_s: float
    end_s: float
    events: dict[str, float]
    """Raw event counts by external name, exactly as logged."""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start_s) and math.isfinite(self.end_s)):
            raise IngestError(
                f"interval bounds must be finite: [{self.start_s}, {self.end_s}]"
            )
        if self.end_s < self.start_s:
            raise IngestError(
                f"interval ends before it starts: "
                f"[{self.start_s}, {self.end_s}]"
            )

    @property
    def duration_s(self) -> float:
        """Wall-clock length of the interval."""
        return self.end_s - self.start_s


class ExternalCounterLog:
    """Time-ordered intervals of named event counts, names untranslated."""

    def __init__(
        self, records: Iterable[ExternalRecord], *, source: str = "<memory>"
    ) -> None:
        self.records: list[ExternalRecord] = list(records)
        self.source = source
        if not self.records:
            raise IngestError(f"counter log {source} has no records")
        previous = self.records[0]
        for record in self.records[1:]:
            if record.start_s < previous.end_s - 1e-9:
                raise IngestError(
                    f"counter log {source}: record starting at "
                    f"{record.start_s} overlaps the previous record "
                    f"ending at {previous.end_s}"
                )
            previous = record

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def duration_s(self) -> float:
        """Wall-clock span of the log."""
        return self.records[-1].end_s - self.records[0].start_s

    def event_names(self) -> tuple[str, ...]:
        """Every event name appearing anywhere in the log, in first-seen
        order.  A record may omit events other records carry (sparse
        logs read 0 for the gaps); the union is what mapping-file
        references are validated against."""
        seen: dict[str, None] = {}
        for record in self.records:
            for name in record.events:
                seen.setdefault(name)
        return tuple(seen)


def _event_value(raw, *, context: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise IngestError(f"{context}: event value {raw!r} is not a number")
    if not math.isfinite(raw):
        raise IngestError(f"{context}: event value {raw} is not finite")
    if raw < 0:
        raise IngestError(f"{context}: event value {raw} is negative")
    return raw


def read_counter_log_json(path: str | pathlib.Path) -> ExternalCounterLog:
    """Load a JSON counter log (our export schema)."""
    path = pathlib.Path(path)
    try:
        document = json.loads(path.read_text())
    except OSError as error:
        raise IngestError(f"cannot read counter log {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise IngestError(f"counter log {path} is not valid JSON: {error}") from error
    if not isinstance(document, dict):
        raise IngestError(f"counter log {path} is not a JSON object")
    version = document.get("version")
    if version != COUNTER_LOG_SCHEMA_VERSION:
        raise IngestError(
            f"counter log {path} has schema version {version!r}, "
            f"expected {COUNTER_LOG_SCHEMA_VERSION}"
        )
    payloads = document.get("records")
    if not isinstance(payloads, list):
        raise IngestError(f"counter log {path} has no 'records' list")
    records = []
    for index, payload in enumerate(payloads):
        context = f"counter log {path} record {index}"
        if not isinstance(payload, dict):
            raise IngestError(f"{context} is not an object")
        try:
            start_s = float(payload["start_s"])
            end_s = float(payload["end_s"])
            events = payload["events"]
        except (KeyError, TypeError, ValueError) as error:
            raise IngestError(
                f"{context} is missing start_s/end_s/events: {error}"
            ) from error
        if not isinstance(events, dict):
            raise IngestError(f"{context}: 'events' is not an object")
        records.append(
            ExternalRecord(
                start_s=start_s,
                end_s=end_s,
                events={
                    name: _event_value(value, context=context)
                    for name, value in events.items()
                },
            )
        )
    return ExternalCounterLog(records, source=str(path))


def read_counter_log_csv(path: str | pathlib.Path) -> ExternalCounterLog:
    """Load a perf-stat-style interval CSV (``time_s,value,event``).

    Each distinct ``time_s`` (in file order) closes one interval; the
    first interval starts at 0, every later one at the previous
    timestamp — matching ``perf stat -I`` output, where the timestamp
    is the end of the reporting window.
    """
    path = pathlib.Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise IngestError(f"cannot read counter log {path}: {error}") from error
    rows = list(csv.reader(text.splitlines()))
    rows = [row for row in rows if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise IngestError(f"counter log {path} is empty")
    header = [cell.strip() for cell in rows[0]]
    if header != ["time_s", "value", "event"]:
        raise IngestError(
            f"counter log {path} has header {header!r}; expected "
            f"['time_s', 'value', 'event']"
        )
    intervals: dict[float, dict[str, float]] = {}
    for number, row in enumerate(rows[1:], start=2):
        context = f"counter log {path} line {number}"
        if len(row) != 3:
            raise IngestError(f"{context}: expected 3 columns, got {len(row)}")
        try:
            time_s = float(row[0])
            value = float(row[1])
        except ValueError as error:
            raise IngestError(f"{context}: {error}") from error
        event = row[2].strip()
        if not event:
            raise IngestError(f"{context}: empty event name")
        events = intervals.setdefault(time_s, {})
        if event in events:
            raise IngestError(
                f"{context}: event {event!r} appears twice at time {time_s}"
            )
        events[event] = _event_value(value, context=context)
    records = []
    previous_end = 0.0
    for time_s in sorted(intervals):
        records.append(
            ExternalRecord(
                start_s=previous_end, end_s=time_s, events=intervals[time_s]
            )
        )
        previous_end = time_s
    return ExternalCounterLog(records, source=str(path))


READERS = {
    ".json": read_counter_log_json,
    ".csv": read_counter_log_csv,
}


def read_counter_log(path: str | pathlib.Path) -> ExternalCounterLog:
    """Load a counter log, dispatching on the file extension."""
    suffix = pathlib.Path(path).suffix.lower()
    reader = READERS.get(suffix)
    if reader is None:
        raise IngestError(
            f"counter log {path} has unsupported extension {suffix!r}; "
            f"supported: {', '.join(sorted(READERS))}"
        )
    return reader(path)


def write_counter_log_json(
    log: "SimulationLog", path: str | pathlib.Path
) -> None:
    """Export a simulated log in the external counter-log schema.

    Every counter is written — zeros included — plus a
    :data:`CYCLES_EVENT` entry per record, so ingesting the file back
    with the identity mapping reconstructs the run losslessly (the
    round-trip proof that external pricing shares the simulated
    arithmetic; explicit zeros also keep mapping validation honest for
    counters the run never touched).
    """
    document = {
        "version": COUNTER_LOG_SCHEMA_VERSION,
        "records": [
            {
                "start_s": record.start_s,
                "end_s": record.end_s,
                "events": {
                    CYCLES_EVENT: record.cycles,
                    **dict(zip(COUNTER_FIELDS, counters_row(record.counters))),
                },
            }
            for record in log
        ],
    }
    pathlib.Path(path).write_text(json.dumps(document) + "\n")
