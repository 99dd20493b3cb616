"""Observability for the simulator and the enumerator (tracing + metrics).

Three pieces (see ``docs/observability.md``):

- :mod:`repro.obs.tracer` — :class:`Tracer` with hierarchical scopes and
  the near-zero-cost :data:`NULL_TRACER` default threaded through the
  timing simulator and the SC enumerator;
- :mod:`repro.obs.export` / :mod:`repro.obs.timeline` — JSONL and Chrome
  ``trace_event`` exporters (Perfetto-loadable) and a cycle-bucketed
  aggregator for utilization/occupancy series;
- :mod:`repro.obs.metrics` — the typed registry of the simulator's
  event counters.
"""

from repro.obs.export import (
    chrome_trace,
    read_jsonl,
    to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import REGISTRY, Metric, MetricSet, all_metrics, describe, lookup, metric
from repro.obs.timeline import Timeline
from repro.obs.tracer import NULL_TRACER, NullTracer, TraceEvent, Tracer

__all__ = [
    "NULL_TRACER",
    "Metric",
    "MetricSet",
    "NullTracer",
    "REGISTRY",
    "Timeline",
    "TraceEvent",
    "Tracer",
    "all_metrics",
    "chrome_trace",
    "describe",
    "lookup",
    "metric",
    "read_jsonl",
    "to_jsonl",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
