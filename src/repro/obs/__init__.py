"""Observability: span tracing and metrics for the checking pipeline.

Two zero-dependency primitives (see docs/internals.md section 8):

* :class:`~repro.obs.trace.Tracer` — nested wall-clock spans
  (batch -> unit -> phase -> function) emitted to a JSON-lines file or a
  Chrome trace-event file. A tracer without a sink still measures (the
  engine derives its ``--profile`` table from span durations) but emits
  nothing; :data:`~repro.obs.trace.NULL_TRACER` does neither and is the
  default everywhere, so the disabled path costs one attribute check.
* :class:`~repro.obs.metrics.MetricsRegistry` — named counters and
  fixed-bucket latency histograms. :data:`GLOBAL_METRICS` is the shared
  process-lifetime registry: the daemon's ``metrics`` verb and the
  ``--metrics-out`` dump both read it.

The re-exported names load on first use (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__all__ = [
    "ChromeTraceSink",
    "GLOBAL_METRICS",
    "JsonLinesSink",
    "MemorySink",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Observability",
    "Tracer",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "ChromeTraceSink": ".export",
    "GLOBAL_METRICS": ".metrics",
    "JsonLinesSink": ".export",
    "MemorySink": ".export",
    "MetricsRegistry": ".metrics",
    "NULL_TRACER": ".trace",
    "NullTracer": ".trace",
    "Observability": ".context",
    "Tracer": ".trace",
})
