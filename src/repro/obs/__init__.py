"""repro.obs — observability: tracing, metrics, plan explain.

Three small, dependency-free layers that the rest of the engine hangs
diagnostics on:

* :mod:`repro.obs.trace` — lightweight spans with parent/child
  structure and pluggable sinks (ring buffer, JSONL file).  Disabled
  by default; the disabled path is a near-no-op (one module-global
  read and a branch per instrumentation point).
* :mod:`repro.obs.metrics` — a process-local metrics registry
  (counters, gauges, fixed-bucket histograms) with Prometheus-style
  text exposition.  The existing stats dataclasses publish into it.
* :mod:`repro.obs.explain` — a per-job explain collector: the
  snapshot binder records why each plan step was chosen; the service
  exposes the events via ``JobHandle.explain()``.
"""

from repro.obs.explain import (ExplainCollector, explain_active,
                               record_explain, render_explain)
from repro.obs.metrics import (Counter, Gauge, Histogram,
                               MetricsRegistry, publish_stats)
from repro.obs.trace import (JsonlFileSink, RingBufferSink, Span,
                             TraceSink, current_span, disable_tracing,
                             enable_tracing, render_trace, span,
                             span_from, tracing_enabled)

__all__ = [
    "Counter",
    "ExplainCollector",
    "Gauge",
    "Histogram",
    "JsonlFileSink",
    "MetricsRegistry",
    "RingBufferSink",
    "Span",
    "TraceSink",
    "current_span",
    "disable_tracing",
    "enable_tracing",
    "explain_active",
    "publish_stats",
    "record_explain",
    "render_explain",
    "render_trace",
    "span",
    "span_from",
    "tracing_enabled",
]
