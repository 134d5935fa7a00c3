"""Structured tracing, metrics, and a flight recorder.

Public surface of the telemetry subsystem (see
``docs/observability.md`` for the probe catalog and trace schema):

* :class:`TraceRecorder` — JSONL flight recorder (``repro/trace-v1``)
  with counters, gauges, histograms, and span-based tracing.
* :class:`NullRecorder` / :data:`NULL_RECORDER` — the strict no-op
  default; disabled runs pay ~zero cost.
* :class:`TraceConfig` — plain-data settings safe to ship to worker
  processes (carried on ``ChunkTask``).
"""

from __future__ import annotations

from .recorder import (
    DEFAULT_SAMPLE_INTERVAL,
    NULL_RECORDER,
    NullRecorder,
    Span,
    TRACE_SCHEMA,
    TraceConfig,
    TraceRecorder,
)

__all__ = [
    "DEFAULT_SAMPLE_INTERVAL",
    "NULL_RECORDER",
    "NullRecorder",
    "Span",
    "TRACE_SCHEMA",
    "TraceConfig",
    "TraceRecorder",
]
