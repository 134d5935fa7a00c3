"""Trace read side: load, validate, canonicalize and report telemetry.

The write side (:mod:`repro.telemetry`) appends ``repro/trace-v1``
JSONL streams under a trace directory — ``coordinator.jsonl`` plus one
``worker-<pid>.jsonl`` per process that executed chunks.  This module
is the matching reader, in the mold of :mod:`repro.analysis.sweep`:

* :func:`load_trace` parses every stream (header-checked against the
  pinned schema) into a :class:`Trace`;
* :func:`validate_trace` returns a *problem list* (empty = valid), the
  same contract as :func:`repro.analysis.sweep.validate_matrix`;
* :func:`canonical_events` / :func:`trace_bytes` strip the volatile
  ``wall`` payloads and sort, so two same-seed traced runs produce
  byte-identical canonical bytes (the ``matrix_bytes`` discipline);
* :func:`build_report` / :func:`render_report` turn a trace into the
  ``repro trace report`` output: acceptance curves, move-family win
  tables, time-in-phase, per-worker utilization, supervision counters.

Canonicalization rule: an event whose ``fields`` are empty carries
*only* volatile content (connection lifecycle, heartbeat metrics,
utilization timings) and is excluded from the canonical stream — its
very presence depends on scheduling, not on the trajectory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from ..telemetry import TRACE_SCHEMA

#: every ``kind`` a v1 stream may carry
EVENT_KINDS = ("header", "count", "gauge", "hist", "event", "span")

#: volatile keys every event's ``wall`` must carry (the writer stamps
#: them; extras like ``elapsed_s`` / ``queue_wait_s`` are free-form)
REQUIRED_WALL_FIELDS = ("t", "seq", "pid")

#: schema tag of the report document ``repro trace report --json`` emits
REPORT_SCHEMA = "repro/trace-report-v1"


@dataclass
class TraceStream:
    """One parsed ``*.jsonl`` stream file."""

    name: str
    path: str
    events: list[dict] = field(default_factory=list)


@dataclass
class Trace:
    """Every stream under one trace directory."""

    directory: str
    streams: list[TraceStream] = field(default_factory=list)

    def events(self) -> Iterator[dict]:
        """All events across streams, file order within each stream."""
        for stream in self.streams:
            yield from stream.events

    def named(self, name: str) -> list[dict]:
        """All events carrying the given probe name."""
        return [e for e in self.events() if e.get("name") == name]


def load_trace(directory: str | Path) -> Trace:
    """Parse every ``*.jsonl`` stream under ``directory``.

    Raises ``ValueError`` for structural failures the reader cannot
    work around: no streams, unparseable lines, or a stream whose first
    line is not a :data:`~repro.telemetry.TRACE_SCHEMA` header.  Softer
    shape problems are :func:`validate_trace`'s business.
    """
    root = Path(directory)
    if not root.is_dir():
        raise ValueError(f"trace directory not found: {root}")
    paths = sorted(root.glob("*.jsonl"))
    if not paths:
        raise ValueError(f"no trace streams (*.jsonl) under {root}")
    streams: list[TraceStream] = []
    for path in paths:
        events: list[dict] = []
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        ):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path.name}:{lineno}: not valid JSON ({exc.msg})"
                ) from None
            if not isinstance(event, dict):
                raise ValueError(
                    f"{path.name}:{lineno}: event must be a JSON object, "
                    f"got {type(event).__name__}"
                )
            events.append(event)
        if not events:
            raise ValueError(f"{path.name}: empty trace stream")
        header = events[0]
        schema = (header.get("fields") or {}).get("schema")
        if header.get("kind") != "header" or schema != TRACE_SCHEMA:
            raise ValueError(
                f"{path.name}: first line must be a {TRACE_SCHEMA!r} header "
                f"(got kind={header.get('kind')!r}, schema={schema!r})"
            )
        streams.append(
            TraceStream(
                name=str((header.get("fields") or {}).get("stream", path.stem)),
                path=str(path),
                events=events,
            )
        )
    return Trace(directory=str(root), streams=streams)


def validate_trace(trace: Trace) -> list[str]:
    """Shape-check every event; returns a problem list (empty = valid).

    The problem-list contract mirrors
    :func:`repro.analysis.sweep.validate_matrix`: callers gate on
    ``not problems`` and print the list verbatim on failure.
    """
    problems: list[str] = []
    for stream in trace.streams:
        for index, event in enumerate(stream.events):
            where = f"{Path(stream.path).name}[{index}]"
            kind = event.get("kind")
            if kind not in EVENT_KINDS:
                problems.append(f"{where}: unknown kind {kind!r}")
                continue
            if not isinstance(event.get("name"), str) or not event["name"]:
                problems.append(f"{where}: missing event name")
            fields = event.get("fields")
            if not isinstance(fields, dict):
                problems.append(f"{where}: fields must be an object")
            wall = event.get("wall")
            if not isinstance(wall, dict):
                problems.append(f"{where}: wall must be an object")
                continue
            for key in REQUIRED_WALL_FIELDS:
                if key not in wall:
                    problems.append(f"{where}: wall is missing {key!r}")
            if kind in ("count", "gauge", "hist") and isinstance(fields, dict):
                if "value" not in fields:
                    problems.append(f"{where}: {kind} event has no value")
            if (
                kind == "header"
                and isinstance(fields, dict)
                and fields.get("schema") != TRACE_SCHEMA
            ):
                problems.append(
                    f"{where}: header schema {fields.get('schema')!r} "
                    f"!= {TRACE_SCHEMA!r}"
                )
    return problems


def canonical_events(trace: Trace) -> list[dict]:
    """The deterministic view: headers and ``wall`` payloads dropped,
    wall-only events (empty ``fields``) excluded, sorted by content."""
    out: list[dict] = []
    for event in trace.events():
        if event.get("kind") == "header":
            continue
        fields = event.get("fields") or {}
        if not fields:
            continue
        out.append(
            {
                "kind": event.get("kind"),
                "name": event.get("name"),
                "fields": fields,
            }
        )
    out.sort(key=lambda e: json.dumps(e, sort_keys=True))
    return out


def trace_bytes(trace: Trace) -> bytes:
    """Canonical bytes of a trace: same seed + same config -> same
    bytes, no matter the worker count, scheduling or wall-clock (the
    :func:`repro.analysis.sweep.matrix_bytes` contract)."""
    return "".join(
        json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        for event in canonical_events(trace)
    ).encode("utf-8")


# -- report ---------------------------------------------------------------------


def acceptance_curves(trace: Trace) -> dict[int, list[dict]]:
    """Per-walk sampled annealing probes, ordered by step."""
    curves: dict[int, list[dict]] = {}
    for event in trace.named("anneal.sample"):
        fields = event.get("fields") or {}
        walk = fields.get("walk")
        if walk is None or "step" not in fields:
            continue
        curves.setdefault(int(walk), []).append(
            {
                key: fields[key]
                for key in ("step", "temperature", "cost", "best", "accepted")
                if key in fields
            }
        )
    for points in curves.values():
        points.sort(key=lambda p: p["step"])
    return curves


def family_tables(trace: Trace) -> dict[str, dict[str, dict]]:
    """Move-family win tables per engine, from ``anneal.chunk`` events."""
    tables: dict[str, dict[str, dict]] = {}
    for event in trace.named("anneal.chunk"):
        fields = event.get("fields") or {}
        engine = str(fields.get("engine", "?"))
        for kind, (proposed, accepted) in (fields.get("families") or {}).items():
            row = tables.setdefault(engine, {}).setdefault(
                kind, {"proposed": 0, "accepted": 0}
            )
            row["proposed"] += proposed
            row["accepted"] += accepted
    for rows in tables.values():
        for row in rows.values():
            row["accept_rate"] = (
                row["accepted"] / row["proposed"] if row["proposed"] else 0.0
            )
    return tables


def repack_histogram(trace: Trace) -> dict[str, int]:
    """Merged dirty-suffix repack-length histogram (power-of-two
    buckets keyed by their lower bound, as the annealer emits them)."""
    merged: dict[str, int] = {}
    for event in trace.named("anneal.chunk"):
        for bucket, count in ((event.get("fields") or {}).get(
            "repack_hist"
        ) or {}).items():
            merged[bucket] = merged.get(bucket, 0) + count
    return dict(sorted(merged.items(), key=lambda kv: int(kv[0])))


def phase_breakdown(trace: Trace) -> dict[str, dict]:
    """Time-in-phase from span events (elapsed lives in ``wall``)."""
    phases: dict[str, dict] = {}
    for event in trace.events():
        if event.get("kind") != "span":
            continue
        name = str(event.get("name"))
        row = phases.setdefault(name, {"count": 0, "total_s": 0.0, "ok": True})
        row["count"] += 1
        row["total_s"] = round(
            row["total_s"] + float((event.get("wall") or {}).get("elapsed_s", 0.0)),
            6,
        )
        row["ok"] = row["ok"] and bool(
            (event.get("fields") or {}).get("ok", True)
        )
    return phases


def worker_utilization(trace: Trace) -> dict[str, dict]:
    """Per-worker busy time, chunk counts and queue-wait statistics.

    Rebuilt from the per-chunk ``executor.chunk`` timings (wall-only);
    workers appear under the name they handshook with (``local-<slot>``
    for the local pool).
    """
    workers: dict[str, dict] = {}
    for event in trace.named("executor.chunk"):
        wall = event.get("wall") or {}
        name = str(wall.get("worker", "?"))
        row = workers.setdefault(
            name, {"busy_s": 0.0, "chunks": 0, "queue_wait_s": 0.0}
        )
        row["busy_s"] = round(row["busy_s"] + float(wall.get("exec_s", 0.0)), 6)
        row["chunks"] += 1
        row["queue_wait_s"] = round(
            row["queue_wait_s"] + float(wall.get("queue_wait_s", 0.0)), 6
        )
    return dict(sorted(workers.items()))


def counter_totals(trace: Trace) -> dict[str, int]:
    """Summed ``count`` events by probe name (retries, respawns,
    quarantines, lease churn...)."""
    totals: dict[str, int] = {}
    for event in trace.events():
        if event.get("kind") != "count":
            continue
        name = str(event.get("name"))
        totals[name] = totals.get(name, 0) + int(
            (event.get("fields") or {}).get("value", 1)
        )
    return dict(sorted(totals.items()))


def _first_fields(trace: Trace, name: str) -> dict | None:
    for event in trace.named(name):
        return dict(event.get("fields") or {})
    return None


def build_report(trace: Trace) -> dict:
    """The full ``repro trace report`` document (JSON-ready)."""
    result = _first_fields(trace, "portfolio.result")
    elapsed = None
    for event in trace.named("portfolio.result"):
        elapsed = (event.get("wall") or {}).get("elapsed_s")
    workers = worker_utilization(trace)
    if elapsed:
        for row in workers.values():
            row["utilization"] = round(row["busy_s"] / elapsed, 4)
    return {
        "schema": REPORT_SCHEMA,
        "directory": trace.directory,
        "streams": [s.name for s in trace.streams],
        "events": sum(len(s.events) for s in trace.streams),
        "config": _first_fields(trace, "portfolio.config"),
        "result": result,
        "elapsed_s": elapsed,
        "acceptance": {
            str(walk): points
            for walk, points in sorted(acceptance_curves(trace).items())
        },
        "families": family_tables(trace),
        "repack_hist": repack_histogram(trace),
        "phases": phase_breakdown(trace),
        "workers": workers,
        "counters": counter_totals(trace),
    }


def render_report(report: dict) -> str:
    """Human-readable rendering of :func:`build_report`'s document."""
    lines: list[str] = []
    config = report.get("config") or {}
    if config:
        lines.append(
            f"trace: {config.get('circuit', '?')} — "
            f"{config.get('walks', '?')} walks, policy "
            f"{config.get('policy', '?')}, budget {config.get('budget')}"
        )
    lines.append(
        f"streams: {', '.join(report.get('streams', []))} "
        f"({report.get('events', 0)} events)"
    )
    result = report.get("result") or {}
    if result:
        elapsed = report.get("elapsed_s")
        lines.append(
            f"result: cost {result.get('cost', float('nan')):.4f} "
            f"(walk {result.get('winner')}), "
            f"{result.get('total_steps', 0):,} steps"
            + (f" in {elapsed:.2f}s" if elapsed else "")
            + f", {result.get('retries', 0)} retries, "
            f"{result.get('respawns', 0)} respawns"
        )
    phases = report.get("phases") or {}
    if phases:
        lines.append("time in phase:")
        for name, row in sorted(
            phases.items(), key=lambda kv: -kv[1]["total_s"]
        ):
            flag = "" if row.get("ok", True) else "  [failed]"
            lines.append(
                f"  {name:<20} {row['total_s']:>9.3f}s x{row['count']}{flag}"
            )
    workers = report.get("workers") or {}
    if workers:
        lines.append("workers:")
        for name, row in workers.items():
            util = row.get("utilization")
            lines.append(
                f"  {name:<16} {row['chunks']:>4} chunks  "
                f"busy {row['busy_s']:>8.3f}s  "
                f"queue-wait {row['queue_wait_s']:>8.3f}s"
                + (f"  util {100 * util:.0f}%" if util is not None else "")
            )
    families = report.get("families") or {}
    if families:
        lines.append("move families (accepted/proposed):")
        for engine, rows in sorted(families.items()):
            for kind, row in sorted(rows.items()):
                lines.append(
                    f"  {engine:<10} {kind:<8} "
                    f"{row['accepted']:>7,}/{row['proposed']:<7,} "
                    f"({100 * row['accept_rate']:.1f}%)"
                )
    hist = report.get("repack_hist") or {}
    if hist:
        total = sum(hist.values())
        lines.append("repack suffix lengths:")
        for bucket, count in hist.items():
            lines.append(
                f"  >={bucket:<6} {count:>8,}  ({100 * count / total:.1f}%)"
            )
    acceptance = report.get("acceptance") or {}
    if acceptance:
        lines.append("acceptance curves (sampled):")
        for walk, points in acceptance.items():
            if not points:
                continue
            first, last = points[0], points[-1]
            lines.append(
                f"  walk {walk}: {len(points)} samples, "
                f"T {first.get('temperature', 0):.3g} -> "
                f"{last.get('temperature', 0):.3g}, "
                f"best {last.get('best', float('nan')):.4f}"
            )
    counters = report.get("counters") or {}
    if counters:
        lines.append(
            "counters: "
            + ", ".join(f"{k}={v}" for k, v in counters.items())
        )
    return "\n".join(lines)
