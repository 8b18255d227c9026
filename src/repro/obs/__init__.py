"""Unified observability: metric snapshots and request tracing.

Two cooperating layers, both process-local and dependency-free:

* :mod:`repro.obs.metrics` — the JSON snapshot format the service's
  counter rows render to, fixed log-bucket histogram layouts
  (:func:`~repro.obs.metrics.log_buckets`,
  :func:`~repro.obs.metrics.bucket_percentile`), an exact merge across
  pool workers (:func:`~repro.obs.metrics.merge_snapshots`) and a
  Prometheus text renderer (:func:`~repro.obs.metrics.render_prometheus`)
  behind the service's ``OP_METRICS`` opcode / ``repro metrics`` CLI.
* :mod:`repro.obs.tracing` — sampled JSONL span events with a trace id
  minted at the service front and propagated through worker pipes into
  the micro-batcher, whose ``batch.kernel`` span times each kernel call;
  ``repro trace tail/summarize`` reads the sink.
"""

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS_US,
    bucket_percentile,
    log_buckets,
    merge_snapshots,
    render_prometheus,
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
    "bucket_percentile",
    "log_buckets",
    "merge_snapshots",
    "render_prometheus",
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
