"""Asyncio client for the streaming codec service.

A :class:`CodecClient` keeps one TCP connection, pipelines requests
(request ids match responses, so many calls may be in flight at once)
and exposes the service as plain coroutines over numpy arrays.  The
typical loop::

    client = await CodecClient.connect(port=port)
    session = await client.open_session("hamming84")
    words = await session.encode(messages)      # server-side encode (+injection)
    decoded = await session.decode(words)       # micro-batched decode
    stats = await client.stats()
    await client.close()
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import DimensionError
from repro.service import protocol


@dataclass(frozen=True)
class DecodedBlock:
    """Client-side view of a DECODE response, row-aligned with the request."""

    messages: np.ndarray            #: (batch, k) message estimates
    corrected_errors: np.ndarray    #: (batch,) bits corrected per frame
    detected_uncorrectable: np.ndarray  #: (batch,) error flags

    def __len__(self) -> int:
        return len(self.messages)


@dataclass(frozen=True)
class MemoryWriteBlock:
    """Per-line outcomes of a memory write (RMW read-phase flags).

    Whole-line writes never decode, so both arrays are all zero; RMW
    partial writes report what the read phase found under the merge.
    """

    corrected_errors: np.ndarray    #: (batch,) bits corrected per line
    detected_uncorrectable: np.ndarray  #: (batch,) error flags

    def __len__(self) -> int:
        return len(self.corrected_errors)


@dataclass(frozen=True)
class StreamBlock:
    """One stream push's decisions: a row per pushed channel frame.

    Row ``i`` decides the codeword opened by channel frame
    ``first_index + i`` of the push; ``status`` records how each row
    resolved (:data:`~repro.service.protocol.STREAM_ROW_ON_TIME` /
    ``STREAM_ROW_FORCED`` / ``STREAM_ROW_FLUSHED``).
    """

    messages: np.ndarray            #: (batch, k) message estimates
    corrected_errors: np.ndarray    #: (batch,) bits corrected per codeword
    detected_uncorrectable: np.ndarray  #: (batch,) error flags
    status: np.ndarray              #: (batch,) per-row resolution status

    def __len__(self) -> int:
        return len(self.messages)


class SessionHandle:
    """A served session bound to the client connection that opened it."""

    def __init__(self, client: "CodecClient", info: Dict):
        self._client = client
        self.info = info
        self.session_id = int(info["session_id"])
        self.n = int(info["n"])
        self.k = int(info["k"])

    def _check_width(self, frames: np.ndarray, width: int, what: str) -> np.ndarray:
        # The wire packs rows to bytes, so a width that shares the same
        # packed length would be silently truncated server-side; reject
        # mismatches before they leave the client.
        arr = np.asarray(frames, dtype=np.uint8)
        if arr.ndim != 2 or arr.shape[1] != width:
            raise DimensionError(
                f"expected (batch, {width}) {what} for session "
                f"{self.session_id}, got {arr.shape}"
            )
        return arr

    async def encode(self, messages: np.ndarray) -> np.ndarray:
        """Encode ``(batch, k)`` messages; returns ``(batch, n)`` words.

        With error injection configured on the session, the returned
        words are the post-channel (corrupted) words.
        """
        msgs = self._check_width(messages, self.k, "messages")
        body = protocol.build_batch_body(self.session_id, msgs)
        response = await self._client.request(protocol.OP_ENCODE, body)
        return protocol.parse_encode_response_body(response.body, self.n)

    async def decode(self, received: np.ndarray) -> DecodedBlock:
        """Decode ``(batch, n)`` received words on the server."""
        words = self._check_width(received, self.n, "received words")
        body = protocol.build_batch_body(self.session_id, words)
        response = await self._client.request(protocol.OP_DECODE, body)
        messages, corrected, detected = protocol.parse_decode_response_body(
            response.body, self.k
        )
        return DecodedBlock(messages, corrected, detected)

    async def decode_soft(self, confidences: np.ndarray) -> DecodedBlock:
        """Soft-decode ``(batch, n)`` per-bit confidences on the server.

        Confidences follow the BPSK convention (positive = looks like
        0, magnitude = reliability) and travel as float32 frames; the
        response layout matches :meth:`decode`.
        """
        values = np.asarray(confidences, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != self.n:
            raise DimensionError(
                f"expected (batch, {self.n}) confidences for session "
                f"{self.session_id}, got {values.shape}"
            )
        body = protocol.build_soft_batch_body(self.session_id, values)
        response = await self._client.request(protocol.OP_DECODE_SOFT, body)
        messages, corrected, detected = protocol.parse_decode_response_body(
            response.body, self.k
        )
        return DecodedBlock(messages, corrected, detected)

    def _check_stream_frames(self, confidences: np.ndarray) -> np.ndarray:
        values = np.asarray(confidences, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != self.n:
            raise DimensionError(
                f"expected (frames, {self.n}) confidences for session "
                f"{self.session_id}, got {values.shape}"
            )
        return values

    async def push_stream(self, confidences, first_index: int, final: bool = False):
        """Send one stream push; returns an awaitable for its decisions.

        This completes once the push is *on the wire* — awaiting it in
        submission order guarantees the frame-index contiguity the
        server enforces — and returns a coroutine that resolves to the
        push's :class:`StreamBlock` when the server decides its rows
        (window closure, deadline, or drain).  A caller must NOT await
        the decisions before sending the next push unless the stream is
        final: a row only resolves once ``stream_span`` later frames
        arrive (or the deadline fires).
        """
        values = self._check_stream_frames(confidences)
        body = protocol.build_stream_push_body(
            self.session_id, first_index, values, final=final
        )
        future = await self._client.send_request(protocol.OP_DECODE_STREAM, body)

        async def _decisions() -> StreamBlock:
            response = (await future).raise_for_status()
            return StreamBlock(
                *protocol.parse_stream_response_body(response.body, self.k)
            )

        return _decisions()

    async def decode_stream(
        self, confidences, first_index: int, final: bool = False
    ) -> StreamBlock:
        """Push stream frames and await their decisions in one call.

        Convenience wrapper over :meth:`push_stream`; only safe when the
        push is final or the caller relies on the deadline to resolve
        the rows (otherwise it deadlocks awaiting frames it has not
        sent — pipeline with :meth:`push_stream` instead).
        """
        return await (await self.push_stream(confidences, first_index, final=final))

    def _check_addresses(self, addresses) -> np.ndarray:
        addrs = np.asarray(addresses, dtype=np.int64).reshape(-1)
        if addrs.size and addrs.min() < 0:
            raise DimensionError(
                f"memory addresses must be non-negative, got min {addrs.min()}"
            )
        return addrs

    async def mem_write(self, addresses, messages) -> MemoryWriteBlock:
        """Whole-line write: store ``(batch, k)`` messages at ``addresses``.

        The session must have been opened with ``memory_lines``.  The
        server encodes each message and stores the codeword — no decode,
        so the returned flags are all zero.
        """
        addrs = self._check_addresses(addresses)
        msgs = self._check_width(messages, self.k, "messages")
        body = protocol.build_mem_write_body(self.session_id, addrs, msgs)
        response = await self._client.request(protocol.OP_MEM_WRITE, body)
        return MemoryWriteBlock(*protocol.parse_mem_write_response_body(response.body))

    async def mem_write_partial(self, addresses, messages, masks) -> MemoryWriteBlock:
        """Partial write: replace only the message bits where ``masks`` is 1.

        Takes the server's read-modify-write path (the LiteDRAM
        limitation): each line is decoded, merged and re-encoded, and
        the returned block carries the read-phase SEC/DED outcomes.
        """
        addrs = self._check_addresses(addresses)
        msgs = self._check_width(messages, self.k, "messages")
        mask = self._check_width(masks, self.k, "masks")
        body = protocol.build_mem_write_body(self.session_id, addrs, msgs, mask)
        response = await self._client.request(protocol.OP_MEM_WRITE, body)
        return MemoryWriteBlock(*protocol.parse_mem_write_response_body(response.body))

    async def mem_read(self, addresses) -> DecodedBlock:
        """Read lines: decode the stored words at ``addresses``."""
        addrs = self._check_addresses(addresses)
        body = protocol.build_mem_read_body(self.session_id, addrs)
        response = await self._client.request(protocol.OP_MEM_READ, body)
        return DecodedBlock(
            *protocol.parse_decode_response_body(response.body, self.k)
        )

    async def mem_scrub(self, count: int = 0) -> Dict:
        """Run one scrub step of ``count`` lines (0 = server default).

        With ``memory_rot`` configured, the server first rots the swept
        window from the session's seeded stream.  Returns the JSON
        payload: the step ``report``, the ``rot_bits`` injected, the
        cumulative ``counters`` ledger and the new scrub ``position``.
        """
        body = protocol.build_mem_scrub_body(self.session_id, int(count))
        response = await self._client.request(protocol.OP_MEM_SCRUB, body)
        return protocol.parse_json_body(response.body)

    async def close(self) -> Dict:
        """Close this session server-side (see :meth:`CodecClient.close_session`)."""
        return await self._client.close_session(self.session_id)


class CodecClient:
    """One pipelined connection to a :class:`~repro.service.server.CodecServer`."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._request_ids = itertools.count(1)
        self._inflight: Dict[int, asyncio.Future] = {}
        self._closed = False
        self._conn_error: Optional[BaseException] = None
        # Serialises write+drain: concurrent drain() calls on one
        # transport are not allowed by asyncio's flow control.
        self._write_lock = asyncio.Lock()
        # Set once the reader loop ends for any reason (EOF, reset,
        # close()); tests wait on it instead of sleeping.
        self._disconnected = asyncio.Event()
        self._reader_task = asyncio.ensure_future(self._read_responses())

    @classmethod
    async def connect(
        cls, host: str = "127.0.0.1", port: int = 0, timeout: float = 10.0
    ) -> "CodecClient":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
        return cls(reader, writer)

    async def _read_responses(self) -> None:
        error: Optional[BaseException] = None
        try:
            while True:
                payload = await protocol.read_frame(self._reader)
                if payload is None:
                    break
                response = protocol.parse_response(payload)
                future = self._inflight.pop(response.request_id, None)
                if future is not None and not future.done():
                    future.set_result(response)
        except asyncio.CancelledError:
            error = ConnectionResetError("client closed")
        except Exception as exc:
            error = exc
        fail = error or ConnectionResetError("server closed the connection")
        # Remember why the connection died so *later* requests fail fast
        # instead of awaiting a response that can never arrive.
        self._conn_error = fail
        for future in self._inflight.values():
            if not future.done():
                future.set_exception(fail)
        self._inflight.clear()
        self._disconnected.set()

    async def send_request(self, opcode: int, body: bytes = b"") -> asyncio.Future:
        """Put one request on the wire; return the future for its response.

        Completes when the request has been written (so two awaited
        ``send_request`` calls are ordered on the wire) but before any
        response arrives.  Stream pushes need this split: a push's
        response only resolves after later pushes are sent, so awaiting
        :meth:`request` between pushes would deadlock.  The returned
        future resolves to the raw :class:`~repro.service.protocol.Response`
        (not status-checked).
        """
        if self._closed:
            raise ConnectionResetError("client is closed")
        if self._conn_error is not None:
            raise ConnectionResetError(
                f"connection is dead: {self._conn_error}"
            ) from self._conn_error
        request_id = next(self._request_ids)
        future = asyncio.get_running_loop().create_future()
        self._inflight[request_id] = future
        wire = protocol.frame_bytes(protocol.build_request(opcode, request_id, body))
        try:
            async with self._write_lock:
                self._writer.write(wire)
                await self._writer.drain()
        except BaseException:
            # Nobody will await this future now; deregister it so the
            # reader's teardown doesn't set an exception no one retrieves.
            # A teardown that ran first (a drain fails after the read does)
            # has set one already: retrieve it, or it is logged when the
            # future is collected.
            self._inflight.pop(request_id, None)
            if future.done() and not future.cancelled():
                future.exception()
            raise
        return future

    def discard(self, future: asyncio.Future) -> None:
        """Give up on a :meth:`send_request` future: cancel it and drop it
        from the in-flight map, so a caller that stops waiting (say, on a
        timeout) leaves nothing behind and a late reply is ignored."""
        future.cancel()
        self._inflight = {
            rid: pending
            for rid, pending in self._inflight.items()
            if pending is not future
        }

    async def request(self, opcode: int, body: bytes = b"") -> protocol.Response:
        """Send one request and await its (status-checked) response."""
        response = await (await self.send_request(opcode, body))
        return response.raise_for_status()

    async def open_session(
        self,
        code: str,
        decoder: Optional[str] = None,
        p01: float = 0.0,
        p10: float = 0.0,
        seed: Optional[int] = None,
        stream_depth: Optional[int] = None,
        stream_shift: int = 1,
        stream_deadline_us: Optional[float] = None,
        memory_lines: Optional[int] = None,
        memory_rot: float = 0.0,
    ) -> SessionHandle:
        """Open a session, live until its close or this connection's end.

        Passing ``stream_depth`` declares a streaming session: its
        frames are convolutionally interleaved at ``depth``/``shift``
        and decoded through :meth:`SessionHandle.push_stream`.
        ``stream_deadline_us`` bounds per-frame decision latency
        (overriding any server-wide default).  Passing ``memory_lines``
        declares a memory session: an ECC-protected line store driven
        through :meth:`SessionHandle.mem_write` /
        :meth:`SessionHandle.mem_read` / :meth:`SessionHandle.mem_scrub`,
        with ``memory_rot`` retention rot injected per scrub step from
        the session's seeded stream.
        """
        payload = {"code": code, "decoder": decoder, "p01": p01, "p10": p10,
                   "seed": seed}
        if stream_depth is not None:
            payload["stream_depth"] = int(stream_depth)
            payload["stream_shift"] = int(stream_shift)
            payload["stream_deadline_us"] = stream_deadline_us
        if memory_lines is not None:
            payload["memory_lines"] = int(memory_lines)
            payload["memory_rot"] = float(memory_rot)
        body = protocol.build_json_body(payload)
        response = await self.request(protocol.OP_OPEN, body)
        return SessionHandle(self, protocol.parse_json_body(response.body))

    async def close_session(self, session_id: int) -> Dict:
        """Close a session server-side, releasing its lanes, stream and store.

        Flushes the session's micro-batch lanes, drains any open stream
        windows (their rows resolve with status ``STREAM_ROW_FLUSHED``)
        and drops its memory store, so long-running servers don't
        accumulate state for sessions nobody will use again.  Returns
        the server's JSON report.
        """
        body = protocol.build_json_body({"session_id": int(session_id)})
        response = await self.request(protocol.OP_CLOSE, body)
        return protocol.parse_json_body(response.body)

    async def stats(self) -> Dict:
        """Scrape the server's JSON telemetry snapshot."""
        response = await self.request(protocol.OP_STATS)
        return protocol.parse_json_body(response.body)

    async def metrics(self) -> str:
        """Scrape the server's metrics in Prometheus text format.

        Against a pooled server the text is the exact merge of the
        front end's and every worker's registries, with a ``worker``
        label distinguishing the sources.
        """
        response = await self.request(protocol.OP_METRICS)
        return response.body.decode("utf-8")

    async def admin(self, action: str, worker: Optional[int] = None) -> Dict:
        """Run a worker-pool admin action: ``status``/``restart``/``kill``.

        ``status`` works against any server; ``restart`` (graceful
        drain + respawn) and ``kill`` (SIGKILL, exercising crash
        recovery) additionally need a worker pool and a ``worker``
        index.  Returns the server's JSON report of what it did.
        """
        payload: Dict = {"action": action}
        if worker is not None:
            payload["worker"] = int(worker)
        response = await self.request(
            protocol.OP_ADMIN, protocol.build_json_body(payload)
        )
        return protocol.parse_json_body(response.body)

    async def wait_disconnected(self, timeout: Optional[float] = None) -> None:
        """Await the connection's death (EOF, reset, or :meth:`close`).

        The event-driven alternative to sleeping and probing: the event
        fires exactly when the reader loop has torn down, i.e. when
        later :meth:`request` calls are guaranteed to fail fast.
        """
        if timeout is None:
            await self._disconnected.wait()
        else:
            await asyncio.wait_for(self._disconnected.wait(), timeout)

    async def codes(self) -> Dict:
        """The server's code/decoder discovery catalog."""
        response = await self.request(protocol.OP_CODES)
        return protocol.parse_json_body(response.body)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Half-close first: the peer sees EOF even where a forked
        # process still holds a copy of this socket.
        with contextlib.suppress(OSError):
            self._writer.write_eof()
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "CodecClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
