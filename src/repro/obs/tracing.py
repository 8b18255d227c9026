"""Sampled request tracing: JSONL span events with a propagated trace id.

A trace id is minted at the service front (one per *sampled* request),
travels to the owning pool worker inside an ``OP_W_TRACED`` wrapper
frame, and rides the micro-batcher's queue items so spans can be emitted
from timer-driven flushes long after the request's own task yielded.
Inside one process the ambient id lives in a :mod:`contextvars` variable
(:func:`trace_scope` / :func:`current_trace_id`), which is how the
micro-batcher and the stream lane pick up a request's trace without any
plumbing.

Each event is one JSON line::

    {"trace": "a1f3-7", "span": "batch.kernel", "ts": 12.345678,
     "dur_us": 81.2, "pid": 4242, "op": "decode", ...}

``ts`` is ``time.perf_counter()`` — CLOCK_MONOTONIC on Linux, shared by
every process on the machine, so spans from the front and from forked
workers are directly comparable and a request's spans are monotone.

Tracing is **off by default** and bounded when on: events are appended
(``O_APPEND`` — atomic for small lines, so workers share one file
safely) only while a sample budget and a hard per-process event cap
hold.  Configuration is environment-driven so pool workers inherit it
through the fork:

* ``REPRO_TRACE_FILE`` — JSONL sink path; unset means disabled.
* ``REPRO_TRACE_SAMPLE`` — fraction of requests to trace (default 1.0),
  applied deterministically (every ``1/f``-th request), no RNG.
* ``REPRO_TRACE_MAX_EVENTS`` — per-process event cap (default 100000).
"""

from __future__ import annotations

import json
import os
import time
from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, TextIO

from repro.obs.metrics import DEFAULT_TIME_BUCKETS_US, bucket_percentile

TRACE_FILE_ENV = "REPRO_TRACE_FILE"
TRACE_SAMPLE_ENV = "REPRO_TRACE_SAMPLE"
TRACE_MAX_EVENTS_ENV = "REPRO_TRACE_MAX_EVENTS"

DEFAULT_MAX_EVENTS = 100_000

_current_trace: ContextVar[Optional[str]] = ContextVar(
    "repro_trace_id", default=None
)


def current_trace_id() -> Optional[str]:
    """The ambient trace id, or ``None`` outside any traced request."""
    return _current_trace.get()


@contextmanager
def trace_scope(trace_id: Optional[str]) -> Iterator[None]:
    """Make ``trace_id`` ambient for the dynamic extent of the block.

    ``None`` is a no-op scope, so call sites need no conditional.
    """
    if trace_id is None:
        yield
        return
    token = _current_trace.set(trace_id)
    try:
        yield
    finally:
        _current_trace.reset(token)


class Tracer:
    """Appends sampled span events to a JSONL file (or does nothing).

    One tracer serves a process.  ``sample()`` is the admission point:
    it returns a fresh trace id for requests selected by the sampling
    accumulator, ``None`` otherwise — callers thread that id (or its
    absence) through, and ``emit`` on a ``None`` id is free.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        sample: float = 1.0,
        max_events: int = DEFAULT_MAX_EVENTS,
    ):
        self.path = path or None
        self.sample_rate = min(max(float(sample), 0.0), 1.0)
        self.max_events = int(max_events)
        self.events_emitted = 0
        self._accumulator = 0.0
        self._sequence = 0
        self._file: Optional[TextIO] = None

    @property
    def enabled(self) -> bool:
        """True while a sink is configured and the event cap is not hit."""
        return (
            self.path is not None
            and self.sample_rate > 0.0
            and self.events_emitted < self.max_events
        )

    def sample(self) -> Optional[str]:
        """Admit (and mint an id for) this request, or return ``None``.

        Deterministic fractional sampling: an accumulator gains
        ``sample_rate`` per request and a request is traced whenever it
        crosses 1 — every request at rate 1.0, every tenth at 0.1.
        """
        if not self.enabled:
            return None
        self._accumulator += self.sample_rate
        if self._accumulator < 1.0:
            return None
        self._accumulator -= 1.0
        self._sequence += 1
        return f"{os.getpid():x}-{self._sequence:x}"

    def emit(
        self,
        trace_id: Optional[str],
        span: str,
        ts: float,
        dur_us: Optional[float] = None,
        **fields,
    ) -> None:
        """Append one span event; no-op without a trace id or when capped."""
        if trace_id is None or not self.enabled:
            return
        event: Dict = {
            "trace": trace_id,
            "span": span,
            "ts": round(ts, 9),
            "pid": os.getpid(),
        }
        if dur_us is not None:
            event["dur_us"] = round(float(dur_us), 3)
        event.update(fields)
        line = json.dumps(event, sort_keys=True) + "\n"
        try:
            if self._file is None:
                # Line-buffered append: one write() per event, atomic for
                # lines far below PIPE_BUF, so pool workers share the file.
                self._file = open(self.path, "a", buffering=1, encoding="utf-8")
            self._file.write(line)
        except OSError:
            self.path = None  # sink is gone; disable instead of raising
            return
        self.events_emitted += 1

    def close(self) -> None:
        """Close the sink file (reopened lazily on the next emit)."""
        if self._file is not None:
            try:
                self._file.close()
            finally:
                self._file = None


def _tracer_from_env() -> Tracer:
    try:
        sample = float(os.environ.get(TRACE_SAMPLE_ENV, "1.0"))
    except ValueError:
        sample = 1.0
    try:
        max_events = int(os.environ.get(TRACE_MAX_EVENTS_ENV, DEFAULT_MAX_EVENTS))
    except ValueError:
        max_events = DEFAULT_MAX_EVENTS
    return Tracer(
        path=os.environ.get(TRACE_FILE_ENV) or None,
        sample=sample,
        max_events=max_events,
    )


_TRACER: Optional[Tracer] = None


def get_tracer() -> Tracer:
    """The process tracer, built from the environment on first use."""
    global _TRACER
    if _TRACER is None:
        _TRACER = _tracer_from_env()
    return _TRACER


def configure_tracer(
    path: Optional[str],
    sample: float = 1.0,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> Tracer:
    """Install an explicitly configured process tracer."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
    _TRACER = Tracer(path=path, sample=sample, max_events=max_events)
    return _TRACER


def reset_tracer() -> None:
    """Drop the process tracer; the next use re-reads the environment.

    Called at worker-process entry (the fork may have inherited a tracer
    built before the environment was set) and by test fixtures.
    """
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
    _TRACER = None


#: Convenience for perf_counter-domain timestamps.
now = time.perf_counter


# ---------------------------------------------------------------------
# Offline helpers (`repro trace tail` / `repro trace summarize`)
# ---------------------------------------------------------------------
def read_events(path: str) -> Iterator[Dict]:
    """Yield parsed events from a JSONL trace file, skipping torn lines."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail line of a live file
            if isinstance(event, dict) and "span" in event:
                yield event


def tail_events(path: str, count: int = 20) -> List[Dict]:
    """The last ``count`` events of a trace file."""
    window: List[Dict] = []
    for event in read_events(path):
        window.append(event)
        if len(window) > count:
            window.pop(0)
    return window


def summarize_events(events) -> Dict[str, Dict]:
    """Per-span duration summary: count, p50/p99 µs, max µs, traces.

    Percentiles come from the same log buckets the live latency
    histograms use, so offline summaries and scraped histograms agree.
    """
    spans: Dict[str, Dict] = {}
    for event in events:
        span = event.get("span", "?")
        entry = spans.get(span)
        if entry is None:
            entry = {
                "count": 0,
                "traces": set(),
                "max_us": 0.0,
                "buckets": [0] * (len(DEFAULT_TIME_BUCKETS_US) + 1),
            }
            spans[span] = entry
        entry["count"] += 1
        if "trace" in event:
            entry["traces"].add(event["trace"])
        dur = event.get("dur_us")
        if dur is not None:
            entry["buckets"][bisect_left(DEFAULT_TIME_BUCKETS_US, float(dur))] += 1
            entry["max_us"] = max(entry["max_us"], float(dur))
    summary = {}
    for span in sorted(spans):
        entry = spans[span]
        buckets = entry["buckets"]
        summary[span] = {
            "count": entry["count"],
            "traces": len(entry["traces"]),
            "p50_us": bucket_percentile(buckets, DEFAULT_TIME_BUCKETS_US, 50.0),
            "p99_us": bucket_percentile(buckets, DEFAULT_TIME_BUCKETS_US, 99.0),
            "max_us": round(entry["max_us"], 3),
        }
    return summary
