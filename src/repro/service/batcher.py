"""Micro-batching scheduler: coalesce concurrent requests into one kernel call.

The PR 1 bit-packed kernels amortise beautifully — a batch-4096 decode
costs ~0.06 µs/frame where a batch-1 call costs >100 µs — but an online
server receives requests one at a time.  The :class:`MicroBatcher`
bridges the two regimes: requests for the same (session, op) lane are
queued, and the lane flushes as one ``encode_batch`` /
``decode_batch_detailed`` call when either

* the lane holds :data:`MAX_BATCH` frames (**size flush**, run inline by
  the submit that reaches it), or
* :data:`MAX_DELAY_US` has elapsed since the first enqueue of a
  sub-``MAX_BATCH`` lane (**deadline flush** — the latency bound).

There is nothing to tune.  The inline size flush is the backpressure: a
lane never holds :data:`MAX_BATCH` frames across an await, and a request
over :data:`MAX_CHUNK_FRAMES` is fed through in chunks of that size, so
one kernel call sees at most ``MAX_BATCH - 1 + MAX_CHUNK_FRAMES`` rows.

Batches are concatenated in arrival order and results are sliced back
row-for-row, so decode outputs are bit-identical to calling the batch
kernel directly on each request (decoding is deterministic; batch
composition cannot change it).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

import numpy as np

from repro.coding.decoders.base import BatchDecodeResult
from repro.obs.tracing import current_trace_id, get_tracer
from repro.service.session import CodecSession

#: A lane flushes inline once it holds this many frames.
MAX_BATCH = 256

#: A lane holding fewer frames flushes this long after its first
#: enqueue.  The selector rounds its sleep up to whole milliseconds,
#: so on an otherwise idle loop the flush comes about 1 ms later.
MAX_DELAY_US = 200.0

#: Largest block one submit enqueues; bigger requests are split.
MAX_CHUNK_FRAMES = 8192

#: A lane kernel: (batch, width) block in, array or BatchDecodeResult out.
LaneKernel = Callable[[np.ndarray], object]


class _Lane:
    """One (session, op) queue with its deadline timer."""

    __slots__ = ("kernel", "telemetry", "op", "loop", "items", "pending_frames", "timer")

    def __init__(self, kernel, telemetry, op, loop):
        self.kernel: LaneKernel = kernel
        self.telemetry = telemetry
        self.op = op
        self.loop = loop
        self.items: Deque[Tuple[np.ndarray, asyncio.Future, float, Optional[str]]] = deque()
        self.pending_frames = 0
        self.timer: Optional[asyncio.TimerHandle] = None

    def enqueue(
        self,
        frames: np.ndarray,
        arrival: Optional[float] = None,
        trace: Optional[str] = None,
    ) -> asyncio.Future:
        future = self.loop.create_future()
        self.items.append(
            (frames, future, time.perf_counter() if arrival is None else arrival, trace)
        )
        self.pending_frames += len(frames)
        if self.pending_frames >= MAX_BATCH:
            self.flush("size")
        elif self.timer is None:
            self.timer = self.loop.call_later(MAX_DELAY_US * 1e-6, self.flush, "deadline")
        return future

    def flush(self, reason: str) -> None:
        """Run the kernel on everything queued and complete the futures."""
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        if not self.items:
            return
        items = self.items
        self.items = deque()
        self.pending_frames = 0

        traced = any(trace is not None for _, _, _, trace in items)
        flush_started = time.perf_counter()
        try:
            blocks = [frames for frames, _, _, _ in items]
            batch = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)
            kernel_started = time.perf_counter()
            result = self.kernel(batch)
        except Exception as exc:
            # Covers concatenation too: a malformed block must fail its
            # whole cohort's futures, never strand them (this runs from
            # timer callbacks, where an escaping exception would only
            # reach the event-loop exception handler).
            for _, future, _, _ in items:
                if not future.done():
                    future.set_exception(exc)
            return
        if self.telemetry is not None:
            self.telemetry.record_batch(self.op, len(batch), reason)
        completed = time.perf_counter()
        if traced:
            tracer = get_tracer()
            kernel_us = (completed - kernel_started) * 1e6
            assemble_us = (kernel_started - flush_started) * 1e6
            for frames, _, enqueued, trace in items:
                if trace is None:
                    continue
                tracer.emit(
                    trace, "batch.queue_wait", enqueued,
                    (flush_started - enqueued) * 1e6,
                    op=self.op, frames=len(frames),
                )
                tracer.emit(
                    trace, "batch.assemble", flush_started, assemble_us,
                    op=self.op, reason=reason, batch_frames=len(batch),
                    cohort=len(items),
                )
                tracer.emit(
                    trace, "batch.kernel", kernel_started, kernel_us,
                    op=self.op, reason=reason, batch_frames=len(batch),
                )
        offset = 0
        for frames, future, enqueued, _ in items:
            rows = slice(offset, offset + len(frames))
            offset += len(frames)
            if not future.done():
                future.set_result(_slice_result(result, rows))
            if self.telemetry is not None:
                self.telemetry.record_latency_us(
                    (completed - enqueued) * 1e6, self.op
                )


def _slice_result(result: object, rows: slice) -> object:
    """Row-slice a kernel result (plain array or BatchDecodeResult)."""
    if isinstance(result, BatchDecodeResult):
        return BatchDecodeResult(
            messages=result.messages[rows],
            codewords=result.codewords[rows],
            corrected_errors=result.corrected_errors[rows],
            detected_uncorrectable=result.detected_uncorrectable[rows],
        )
    return result[rows]


def _concat_results(parts: list) -> object:
    """Row-concatenate chunked kernel results (inverse of chunked submit)."""
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], BatchDecodeResult):
        return BatchDecodeResult(
            messages=np.concatenate([p.messages for p in parts]),
            codewords=np.concatenate([p.codewords for p in parts]),
            corrected_errors=np.concatenate([p.corrected_errors for p in parts]),
            detected_uncorrectable=np.concatenate(
                [p.detected_uncorrectable for p in parts]
            ),
        )
    return np.concatenate(parts, axis=0)


class MicroBatcher:
    """Route per-request frame blocks into coalesced kernel calls.

    One scheduler serves every session hosted by a server; lanes are
    created lazily per (session id, op) pair, so different codes and the
    encode/decode directions batch independently (they must — their
    frame widths differ).
    """

    def __init__(self):
        self._lanes: Dict[Tuple[int, str], _Lane] = {}

    #: Lane ops and the session kernel each dispatches to.
    _OP_KERNELS = {
        "encode": "encode_frames",
        "decode": "decode_frames",
        "decode_soft": "decode_soft_frames",
    }

    def _lane(self, session: CodecSession, op: str) -> _Lane:
        key = (session.session_id, op)
        lane = self._lanes.get(key)
        if lane is None:
            kernel = getattr(session, self._OP_KERNELS[op])
            lane = _Lane(kernel, session.telemetry, op, asyncio.get_running_loop())
            self._lanes[key] = lane
        return lane

    async def submit(
        self, session: CodecSession, op: str, frames: np.ndarray
    ) -> object:
        """Queue ``frames`` on the (session, op) lane and await the result.

        Awaits the flush that carries this request and returns the
        request's row-slice of the batch result: a ``(len(frames), n)``
        array for encode, a
        :class:`~repro.coding.decoders.base.BatchDecodeResult` for
        decode and decode_soft (whose frames are float confidence rows
        rather than packed bits).
        """
        if op not in self._OP_KERNELS:
            raise ValueError(f"unknown op {op!r}")
        lane = self._lane(session, op)
        session.telemetry.record_request(op, len(frames))
        if len(frames) == 0:
            # Nothing to queue; complete immediately with an empty slice.
            width = session.k if op == "encode" else session.n
            dtype = np.float64 if op == "decode_soft" else np.uint8
            return _slice_result(
                lane.kernel(np.zeros((0, width), dtype)), slice(0, 0)
            )
        # A request over MAX_CHUNK_FRAMES goes through in chunks of that
        # size (each flushes inline, a normal batch) and is reassembled
        # row-for-row, so no kernel call grows with the request.
        arrival = time.perf_counter()
        trace = current_trace_id()
        if len(frames) <= MAX_CHUNK_FRAMES:
            return await lane.enqueue(frames, arrival, trace)
        parts = []
        for start in range(0, len(frames), MAX_CHUNK_FRAMES):
            chunk = frames[start:start + MAX_CHUNK_FRAMES]
            parts.append(await lane.enqueue(chunk, arrival, trace))
        return _concat_results(parts)

    def close_session(self, session_id: int) -> int:
        """Drop every lane of ``session_id``, flushing queued items first.

        The session-lifecycle counterpart of lane creation: without it a
        front end serving session churn grows ``_lanes`` without bound
        (each closed session leaves up to one dead lane per op, timer
        and all).  Flushing before removal answers every queued frame —
        close never strands a future — and cancels the lane's deadline
        timer, so no stale ``call_later`` callback can fire against a
        recycled (session, op) key.  Returns the number of lanes
        removed.
        """
        keys = [key for key in self._lanes if key[0] == session_id]
        for key in keys:
            self._lanes.pop(key).flush("close")
        return len(keys)

    def flush_all(self) -> None:
        """Flush every lane immediately (server shutdown path).

        Iterates a snapshot of the lane map: a flush completes futures
        synchronously, and a completion callback may open a *new* lane
        (or close one) before the loop advances — mutating the dict
        mid-iteration would raise ``RuntimeError`` otherwise.
        """
        for lane in list(self._lanes.values()):
            lane.flush("drain")

    def pending_frames(self) -> int:
        return sum(lane.pending_frames for lane in self._lanes.values())
