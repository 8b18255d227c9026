"""Micro-batching scheduler: coalesce concurrent requests into one kernel call.

The batch kernels amortise a fixed per-call cost — a hamming84 decode
is a table gather of ~5 µs per call at one row and ~0.004 µs per frame
at 4096 rows (CPython 3.11, NumPy 2.4, one x86-64 core) — but an online
server receives requests one at a time.  The :class:`MicroBatcher`
bridges the two regimes: requests for the same (session, op) lane are
queued, and the lane flushes as one ``encode_batch`` /
``decode_batch_detailed`` call when either

* the lane holds :data:`MAX_BATCH` frames (**size flush**, run inline by
  the submit that reaches it), or
* the event loop takes its next turn after the first enqueue of a
  sub-``MAX_BATCH`` lane (**turn flush**, a ``call_soon`` callback).

A turn flush still coalesces: the request tasks one read pass of a
connection creates all run, and enqueue, before the callback queued
behind them, so they share one kernel call.  What it never does is
wait for traffic that has not arrived yet; a lone request is answered
one loop turn after it is queued, like a word leaving a clocked
encoder on the next pulse.

There is nothing to tune.  The inline size flush is the backpressure: a
lane never holds :data:`MAX_BATCH` frames across an await, and a request
over :data:`MAX_CHUNK_FRAMES` is fed through in chunks of that size, so
one kernel call sees at most ``MAX_BATCH - 1 + MAX_CHUNK_FRAMES`` rows.

Batches are concatenated in arrival order and results are sliced back
row-for-row, so each request's answer is bit-identical to calling the
lane kernel on that request alone (decoding is deterministic; batch
composition cannot change it).  The ``decode`` lane takes packed
received words and answers with DECODE reply rows
(:meth:`~repro.service.session.CodecSession.decode_frames`), so a reply
is written without unpacking anything.
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

#: Largest block one submit enqueues; bigger requests are split.
MAX_CHUNK_FRAMES = 8192

#: A lane kernel: a block of frame rows in, array or BatchDecodeResult out.
LaneKernel = Callable[[np.ndarray], object]


class _Lane:
    """One (session, op) queue with its pending turn flush.

    A lane outlives any one event loop (a server may be stopped and
    started again under a new one), so it takes the running loop
    whenever it creates a future or schedules a flush.
    """

    __slots__ = ("kernel", "telemetry", "op", "items", "pending_frames", "scheduled")

    def __init__(self, kernel, telemetry, op):
        self.kernel: LaneKernel = kernel
        self.telemetry = telemetry
        self.op = op
        self.items: Deque[Tuple[np.ndarray, asyncio.Future, float, Optional[str]]] = deque()
        self.pending_frames = 0
        self.scheduled: Optional[asyncio.Handle] = None

    def enqueue(
        self,
        frames: np.ndarray,
        arrival: Optional[float] = None,
        trace: Optional[str] = None,
    ) -> asyncio.Future:
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self.items.append(
            (frames, future, time.perf_counter() if arrival is None else arrival, trace)
        )
        self.pending_frames += len(frames)
        if self.pending_frames >= MAX_BATCH:
            self.flush("size")
        elif self.scheduled is None:
            self.scheduled = loop.call_soon(self.flush, "turn")
        return future

    def flush(self, reason: str) -> None:
        """Run the kernel on everything queued and complete the futures."""
        if self.scheduled is not None:
            self.scheduled.cancel()
            self.scheduled = None
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
            # loop callbacks, where an escaping exception would only
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
            lane = _Lane(kernel, session.telemetry, op)
            self._lanes[key] = lane
        return lane

    async def submit(
        self, session: CodecSession, op: str, frames: np.ndarray
    ) -> object:
        """Queue ``frames`` on the (session, op) lane and await the result.

        Awaits the flush that carries this request and returns the
        request's row-slice of the batch result: ``(len(frames), n)``
        codewords for encode (``frames`` holds k-bit messages), DECODE
        reply rows for decode (``frames`` holds packed received words,
        see :meth:`~repro.service.session.CodecSession.decode_frames`),
        and a :class:`~repro.coding.decoders.base.BatchDecodeResult`
        for decode_soft (``frames`` holds float confidence rows).
        """
        if op not in self._OP_KERNELS:
            raise ValueError(f"unknown op {op!r}")
        lane = self._lane(session, op)
        session.telemetry.record_request(op, len(frames))
        if len(frames) == 0:
            # Nothing to queue; complete immediately with an empty result.
            return lane.kernel(frames)
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
        (each closed session leaves up to one dead lane per op).
        Flushing before removal answers every queued frame — close
        never strands a future — and cancels the lane's pending turn
        flush, so no stale callback can run against a recycled
        (session, op) key.  Looks up one key per op, so a close costs
        the same whatever the number of other live sessions.  Returns
        the number of lanes removed.
        """
        removed = 0
        for op in self._OP_KERNELS:
            lane = self._lanes.pop((session_id, op), None)
            if lane is not None:
                lane.flush("close")
                removed += 1
        return removed

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
