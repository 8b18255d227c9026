"""Unified observability: a metrics registry and request tracing.

Two cooperating layers, both process-local and dependency-free:

* :mod:`repro.obs.metrics` — counters, gauges, and fixed-log-bucket
  histograms behind a :class:`~repro.obs.metrics.MetricsRegistry`, with
  JSON snapshots that merge exactly across pool workers
  (:func:`~repro.obs.metrics.merge_snapshots`) and a Prometheus text
  renderer (:func:`~repro.obs.metrics.render_prometheus`) behind the
  service's ``OP_METRICS`` opcode / ``repro metrics`` CLI.
* :mod:`repro.obs.tracing` — sampled JSONL span events with a trace id
  minted at the service front and propagated through worker pipes into
  the micro-batcher, whose ``batch.kernel`` span times each kernel call;
  ``repro trace tail/summarize`` reads the sink.
"""

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS_US,
    WIDE_TIME_BUCKETS_US,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    bucket_percentile,
    default_registry,
    log_buckets,
    merge_snapshots,
    render_prometheus,
    reset_default_registry,
)
from repro.obs.tracing import (
    TRACE_FILE_ENV,
    TRACE_MAX_EVENTS_ENV,
    TRACE_SAMPLE_ENV,
    Tracer,
    configure_tracer,
    current_trace_id,
    get_tracer,
    read_events,
    reset_tracer,
    summarize_events,
    tail_events,
    trace_scope,
)

__all__ = [
    "DEFAULT_TIME_BUCKETS_US",
    "WIDE_TIME_BUCKETS_US",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "bucket_percentile",
    "default_registry",
    "log_buckets",
    "merge_snapshots",
    "render_prometheus",
    "reset_default_registry",
    "TRACE_FILE_ENV",
    "TRACE_MAX_EVENTS_ENV",
    "TRACE_SAMPLE_ENV",
    "Tracer",
    "configure_tracer",
    "current_trace_id",
    "get_tracer",
    "read_events",
    "reset_tracer",
    "summarize_events",
    "tail_events",
    "trace_scope",
]
