"""The service's streaming decode lane: bounded-latency sliding windows.

One :class:`StreamLane` serves one streaming session.  It bypasses the
:class:`~repro.service.batcher.MicroBatcher` on purpose — stream state
is *order-dependent* (frame ``t`` scatters into the windows that frames
``t-1`` and earlier opened), so stream pushes cannot be coalesced and
reordered the way stateless batch decodes can.  The lane owns the
session's :class:`~repro.coding.stream.SlidingWindowDecoder`, a FIFO of
per-push result records, and a single deadline timer.

The latency contract: every pushed channel frame opens exactly one
codeword, and the push's response carries exactly one row per pushed
frame — resolved when that codeword's window closes (status
``STREAM_ROW_ON_TIME``, bit-identical to offline decode), when the
session's deadline expires first (``STREAM_ROW_FORCED``, best-effort
erasure decode, counted in ``repro_stream_deadline_miss_total``), or
when a final-flagged push or session close drains the stream
(``STREAM_ROW_FLUSHED``).  The lane therefore never stalls a client
longer than the deadline and never drops a frame: degradation is a
worse *decision*, never a missing one.

Ordering is explicit on the wire: each push names its first
channel-frame index, and a discontinuity (a retry racing a crash, an
out-of-order client) is refused as a
:class:`~repro.errors.ServiceError` rather than silently corrupting
every window it straddles.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Deque, Optional, Tuple

import numpy as np

from repro.coding.stream import SlidingWindowDecoder, StreamDecisions
from repro.errors import ServiceError
from repro.obs.tracing import get_tracer
from repro.service import protocol
from repro.service.session import CodecSession

__all__ = ["StreamLane"]

_RESULT_LABELS = {
    protocol.STREAM_ROW_ON_TIME: "ontime",
    protocol.STREAM_ROW_FORCED: "forced",
    protocol.STREAM_ROW_FLUSHED: "flushed",
}


class _PushRecord:
    """One push's result buffers and completion future."""

    __slots__ = (
        "first_index", "count", "messages", "corrected", "detected",
        "status", "remaining", "future", "arrival", "trace",
    )

    def __init__(self, first_index, count, k, loop, arrival, trace):
        self.first_index = first_index
        self.count = count
        self.messages = np.zeros((count, k), dtype=np.uint8)
        self.corrected = np.zeros(count, dtype=np.int64)
        self.detected = np.zeros(count, dtype=bool)
        self.status = np.zeros(count, dtype=np.uint8)
        self.remaining = count
        self.future: asyncio.Future = loop.create_future()
        self.arrival = arrival
        self.trace = trace


class StreamLane:
    """Sliding-window decode state and deadline policy of one session.

    A lane outlives any one event loop (a server may be stopped and
    started again under a new one), so each push and each deadline
    timer takes the running loop.

    Parameters
    ----------
    session:
        The owning codec session (supplies decoder, telemetry, k).
    depth, shift:
        Cross-frame layout of the session's stream (see
        :class:`~repro.coding.stream.SlidingWindowDecoder`).
    deadline_us:
        Bound on how long a pushed frame's codeword may stay open before
        it is forced; ``None`` disables the timer (windows close only by
        arrival, final push, or session close).
    """

    def __init__(
        self,
        session: CodecSession,
        depth: int,
        shift: int = 1,
        deadline_us: Optional[float] = None,
    ):
        self.session = session
        self.decoder = SlidingWindowDecoder(session.decoder, depth, shift)
        self.deadline_us = deadline_us
        self.records: Deque[_PushRecord] = deque()
        self.timer: Optional[asyncio.TimerHandle] = None
        self.closed = False

    @property
    def next_index(self) -> int:
        """Channel-frame index the next push must start at."""
        return self.decoder.next_frame_index

    @property
    def pending(self) -> int:
        """Codewords open in the window (== unresolved response rows)."""
        return self.decoder.pending

    async def push(
        self,
        first_index: int,
        frames: np.ndarray,
        final: bool = False,
        trace: Optional[str] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Absorb one push; await and return its response rows.

        Mutates the stream synchronously (before any await), so
        concurrent pushes admitted in index order cannot interleave
        mid-update.  Returns ``(messages, corrected, detected, status)``
        with one row per pushed frame.
        """
        if self.closed:
            raise ServiceError(
                f"session {self.session.session_id} stream is closed"
            )
        if first_index != self.next_index:
            raise ServiceError(
                f"stream discontinuity on session {self.session.session_id}: "
                f"expected frame index {self.next_index}, got {first_index} "
                "(pushes must be contiguous and in order)"
            )
        arrival = time.perf_counter()
        record = _PushRecord(
            first_index, len(frames), self.session.k, asyncio.get_running_loop(),
            arrival, trace,
        )
        self.records.append(record)
        decisions = self.decoder.push(frames)
        self._apply(decisions, protocol.STREAM_ROW_ON_TIME)
        if trace is not None:
            get_tracer().emit(
                trace, "stream.push", arrival,
                (time.perf_counter() - arrival) * 1e6,
                frames=len(frames), committed=len(decisions),
                pending=self.pending,
            )
        if final:
            self._drain(protocol.STREAM_ROW_FLUSHED)
        self.session.telemetry.update_stream_window(self.pending)
        self._arm()
        if record.count == 0 and not record.future.done():
            # An empty push (e.g. a bare final marker) has no rows to wait
            # for; resolve it once the drain above has run.
            record.future.set_result(None)
            self.records.remove(record)
        await record.future
        return record.messages, record.corrected, record.detected, record.status

    def close(self) -> None:
        """Drain every open window (status FLUSHED) and refuse new pushes."""
        if self.closed:
            return
        self.closed = True
        self._drain(protocol.STREAM_ROW_FLUSHED)
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        self.session.telemetry.update_stream_window(0)

    # -- internals ------------------------------------------------------
    def _drain(self, status_code: int) -> None:
        self._apply(self.decoder.flush(), status_code)

    def _apply(self, decisions: StreamDecisions, status_code: int) -> None:
        """Fill response rows for a contiguous run of committed codewords.

        Decisions always start at the oldest unresolved row (commits are
        in stream order), so they map onto the record deque front-first.
        """
        count = len(decisions)
        if count == 0:
            return
        telemetry = self.session.telemetry
        telemetry.record_stream_decisions(_RESULT_LABELS[status_code], count)
        telemetry.record_decode_outcome(
            decisions.corrected_errors, decisions.detected_uncorrectable
        )
        completed = time.perf_counter()
        taken = 0
        while taken < count:
            record = self.records[0]
            offset = decisions.first_index + taken - record.first_index
            take = min(count - taken, record.count - offset)
            rows = slice(offset, offset + take)
            src = slice(taken, taken + take)
            record.messages[rows] = decisions.messages[src]
            record.corrected[rows] = decisions.corrected_errors[src]
            record.detected[rows] = decisions.detected_uncorrectable[src]
            record.status[rows] = status_code
            record.remaining -= take
            taken += take
            if record.remaining == 0:
                self.records.popleft()
                if not record.future.done():
                    record.future.set_result(None)
                telemetry.record_latency_us(
                    (completed - record.arrival) * 1e6, "decode_stream"
                )

    def _arm(self) -> None:
        """(Re)schedule the deadline timer for the oldest pending push."""
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        if self.deadline_us is None or not self.records:
            return
        due = self.records[0].arrival + self.deadline_us * 1e-6
        delay = max(0.0, due - time.perf_counter())
        self.timer = asyncio.get_running_loop().call_later(delay, self._on_deadline)

    def _on_deadline(self) -> None:
        """Force every codeword whose push is older than the deadline."""
        self.timer = None
        if self.closed:
            return
        now = time.perf_counter()
        horizon = now - self.deadline_us * 1e-6
        expired = 0
        oldest = self.records[0] if self.records else None
        for record in self.records:
            # A tiny slack absorbs timer-granularity jitter: the record
            # the timer fired for is always considered expired.
            if record.arrival <= horizon + 1e-4:
                expired += record.remaining
            else:
                break
        if expired:
            started = time.perf_counter()
            decisions = self.decoder.force(expired)
            self._apply(decisions, protocol.STREAM_ROW_FORCED)
            trace = oldest.trace if oldest is not None else None
            if trace is not None:
                get_tracer().emit(
                    trace, "stream.force", started,
                    (time.perf_counter() - started) * 1e6,
                    forced=len(decisions), pending=self.pending,
                )
            self.session.telemetry.update_stream_window(self.pending)
        self._arm()
