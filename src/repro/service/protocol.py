"""Length-prefixed binary wire protocol of the streaming codec service.

Every frame on the wire is a 4-byte big-endian payload length followed
by the payload.  Requests open with a ``!BBI`` header (magic, opcode,
request id); responses echo the header plus a status byte.  Frame
payloads carry bit matrices packed 8 bits/byte row-wise
(:func:`pack_bits` / :func:`unpack_bits`), so a Hamming(8,4) codeword
costs one byte on the wire.

The request id is chosen by the client and echoed verbatim, which lets
clients pipeline many requests over one connection and match responses
out of order — the server's micro-batching scheduler completes them in
batch order, not arrival order.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.errors import ReproError, SessionError

#: First payload byte of every well-formed frame.
MAGIC = 0xEC

#: Hard cap on a single frame's payload, requests beyond it are refused
#: before any allocation happens (1 MiB fits ~1M packed Hamming(8,4) words).
MAX_FRAME_BYTES = 1 << 20

# Opcodes -------------------------------------------------------------
OP_OPEN = 0x01    #: open a codec session (JSON config body)
OP_ENCODE = 0x02  #: encode k-bit messages -> n-bit (possibly corrupted) words
OP_DECODE = 0x03  #: decode n-bit received words -> k-bit messages + flags
OP_STATS = 0x04   #: JSON telemetry snapshot
OP_CODES = 0x05   #: JSON listing of registered codes/decoders
OP_DECODE_SOFT = 0x06  #: decode n float32 confidences/frame -> messages + flags
OP_ADMIN = 0x07   #: worker-pool admin plane (JSON action body)
OP_METRICS = 0x08  #: Prometheus text exposition of the metrics registry
OP_DECODE_STREAM = 0x09  #: push channel frames into a sliding-window decode
OP_CLOSE = 0x0A   #: close a codec session (JSON body naming session_id)
OP_MEM_WRITE = 0x0B  #: memory-lane line write (whole-line or RMW partial)
OP_MEM_READ = 0x0C   #: memory-lane line read (decode response layout)
OP_MEM_SCRUB = 0x0D  #: memory-lane scrub step (JSON ScrubReport + counters)

#: The data-plane opcodes and their op names.  A pooled front forwards
#: exactly these to a worker as the bytes it received; a trace samples
#: only these.
DATA_OPS = {
    OP_ENCODE: "encode",
    OP_DECODE: "decode",
    OP_DECODE_SOFT: "decode_soft",
    OP_DECODE_STREAM: "decode_stream",
    OP_MEM_WRITE: "mem_write",
    OP_MEM_READ: "mem_read",
    OP_MEM_SCRUB: "mem_scrub",
}

# Worker-plane opcodes (front end <-> decode worker pipes; never sent by
# clients).  They reuse the same framing so a worker pipe is just another
# protocol stream, but live in a disjoint range so a worker opcode leaking
# to the client plane is an immediate "unknown opcode" error.
OP_W_OPEN = 0x10   #: open a session under a *front-assigned* id (JSON body)
OP_W_DRAIN = 0x12  #: finish in-flight work, flush, reply, then exit
OP_W_METRICS = 0x13  #: per-worker metrics-registry snapshot (JSON response)
OP_W_TRACED = 0x14   #: trace-id wrapper around a forwarded data-plane body

# Response status bytes ----------------------------------------------
ST_OK = 0x00
ST_ERROR = 0x01

_REQ_HEADER = struct.Struct("!BBI")     # magic, opcode, request_id
_RESP_HEADER = struct.Struct("!BBIB")   # magic, opcode, request_id, status
_BATCH_HEADER = struct.Struct("!HI")    # session_id, n_frames
# Stream push: session_id, n_frames (same prefix as _BATCH_HEADER, so the
# pooled front end's header peek routes both), first_index, flags.
_STREAM_HEADER = struct.Struct("!HIQB")
# Memory write: session_id, n_lines (the shared !HI routing prefix), flags.
_MEM_WRITE_HEADER = struct.Struct("!HIB")
_LEN_PREFIX = struct.Struct("!I")

#: Memory write flag: partial write — mask rows follow the message rows
#: and the store takes the read-modify-write path.
MEM_WRITE_FLAG_PARTIAL = 0x01

#: Stream push flag: this push ends the stream — drain every open window.
STREAM_FLAG_FINAL = 0x01

# Per-row status bytes of a stream response ------------------------------
STREAM_ROW_ON_TIME = 0   #: window closed normally; bit-identical to offline
STREAM_ROW_FORCED = 1    #: deadline expired; best-effort erasure decode
STREAM_ROW_FLUSHED = 2   #: drained by a final push or session close


class ProtocolError(ReproError):
    """Malformed frame, unknown opcode, or oversized payload."""


def pack_bits(bits: np.ndarray) -> bytes:
    """Pack a ``(batch, width)`` 0/1 array row-wise, 8 bits per byte."""
    arr = np.ascontiguousarray(bits, dtype=np.uint8)
    if arr.ndim != 2:
        raise ProtocolError(f"expected a (batch, width) bit array, got {arr.shape}")
    return np.packbits(arr, axis=1).tobytes()


def _packed_rows(data: bytes, n_frames: int, width: int) -> np.ndarray:
    """``data`` viewed as ``(n_frames, row_bytes)`` packed rows, length checked."""
    row_bytes = (width + 7) // 8
    expected = n_frames * row_bytes
    if len(data) != expected:
        raise ProtocolError(
            f"expected {expected} packed bytes for {n_frames} x {width} bits, "
            f"got {len(data)}"
        )
    return np.frombuffer(data, dtype=np.uint8).reshape(n_frames, row_bytes)


def unpack_bits(data: bytes, n_frames: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: recover the ``(n_frames, width)`` rows."""
    return np.unpackbits(_packed_rows(data, n_frames, width), axis=1, count=width)


# ---------------------------------------------------------------------
# Request/response payload builders and parsers
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """A parsed request frame."""

    opcode: int
    request_id: int
    body: bytes


@dataclass(frozen=True)
class Response:
    """A parsed response frame."""

    opcode: int
    request_id: int
    status: int
    body: bytes

    def raise_for_status(self) -> "Response":
        if self.status != ST_OK:
            raise ProtocolError(
                f"server error for request {self.request_id}: "
                f"{self.body.decode('utf-8', 'replace')}"
            )
        return self


def build_request(opcode: int, request_id: int, body: bytes = b"") -> bytes:
    return _REQ_HEADER.pack(MAGIC, opcode, request_id & 0xFFFFFFFF) + body


def build_response(
    opcode: int, request_id: int, status: int, body: bytes = b""
) -> bytes:
    return _RESP_HEADER.pack(MAGIC, opcode, request_id & 0xFFFFFFFF, status) + body


def parse_request(payload: bytes) -> Request:
    if len(payload) < _REQ_HEADER.size:
        raise ProtocolError(f"request frame too short ({len(payload)} bytes)")
    magic, opcode, request_id = _REQ_HEADER.unpack_from(payload)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic byte 0x{magic:02x}")
    return Request(opcode, request_id, payload[_REQ_HEADER.size:])


def parse_response(payload: bytes) -> Response:
    if len(payload) < _RESP_HEADER.size:
        raise ProtocolError(f"response frame too short ({len(payload)} bytes)")
    magic, opcode, request_id, status = _RESP_HEADER.unpack_from(payload)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic byte 0x{magic:02x}")
    return Response(opcode, request_id, status, payload[_RESP_HEADER.size:])


def build_batch_body(session_id: int, bits: np.ndarray) -> bytes:
    """ENCODE/DECODE request body: session id + frame count + packed rows."""
    return _BATCH_HEADER.pack(session_id & 0xFFFF, bits.shape[0]) + pack_bits(bits)


def parse_batch_body(body: bytes, width_of_session) -> Tuple[int, np.ndarray]:
    """Parse an ENCODE/DECODE body given ``width_of_session(session_id)``.

    ``width_of_session`` maps the session id to the per-frame bit width
    (k for encode requests, n for decode requests) so the packed rows
    can be sliced without carrying the width on the wire.
    """
    if len(body) < _BATCH_HEADER.size:
        raise ProtocolError(f"batch body too short ({len(body)} bytes)")
    session_id, n_frames = _BATCH_HEADER.unpack_from(body)
    width = width_of_session(session_id)
    bits = unpack_bits(body[_BATCH_HEADER.size:], n_frames, width)
    return session_id, bits


def parse_packed_batch_body(body: bytes, width_of_session) -> Tuple[int, np.ndarray]:
    """:func:`parse_batch_body` without the unpack: the rows stay packed.

    Returns the session id and a read-only ``(n_frames, row_bytes)``
    ``uint8`` view of the body's packed rows, one byte per frame for a
    code with n <= 8.  The checks and their error texts are
    :func:`parse_batch_body`'s.
    """
    if len(body) < _BATCH_HEADER.size:
        raise ProtocolError(f"batch body too short ({len(body)} bytes)")
    session_id, n_frames = _BATCH_HEADER.unpack_from(body)
    width = width_of_session(session_id)
    return session_id, _packed_rows(body[_BATCH_HEADER.size:], n_frames, width)


def peek_batch_header(body: bytes) -> Tuple[int, int]:
    """Session id and frame count of a data-plane batch body.

    Covers ENCODE/DECODE/DECODE_SOFT bodies, DECODE_STREAM pushes and
    the MEM_WRITE/MEM_READ/MEM_SCRUB memory-lane bodies — every
    data-plane header deliberately opens with the same ``!HI`` prefix.

    The pooled front end routes on the session id without unpacking the
    frame payload — the body is forwarded to the owning worker as the
    same preserialized bytes it arrived in, so routing must not cost a
    parse.
    """
    if len(body) < _BATCH_HEADER.size:
        raise ProtocolError(f"batch body too short ({len(body)} bytes)")
    session_id, n_frames = _BATCH_HEADER.unpack_from(body)
    return session_id, n_frames


def check_reply_fits(opcode: int, n_frames: int, n: int, k: int) -> None:
    """Refuse a data-plane request whose reply would exceed the frame cap.

    Replies outgrow their requests (packed words widen on encode; decode
    adds two flag bytes per frame), so this runs before any kernel work.
    """
    if opcode == OP_ENCODE:
        per_frame = (n + 7) // 8
    elif opcode == OP_MEM_WRITE:
        per_frame = 2  # two flag bytes per line
    elif opcode == OP_MEM_SCRUB:
        per_frame = 0  # a small JSON report, whatever the line count
    else:
        # A decode row: packed message, corrected count, detected flag,
        # and on a stream push one status byte more.
        per_frame = (k + 7) // 8 + 2 + (opcode == OP_DECODE_STREAM)
    needed = 4 + n_frames * per_frame
    if needed > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"response of {needed} bytes for {n_frames} frames would exceed "
            f"the {MAX_FRAME_BYTES}-byte frame cap; send fewer "
            "frames per request"
        )


def build_soft_batch_body(session_id: int, confidences: np.ndarray) -> bytes:
    """DECODE_SOFT request body: session id + frame count + float32 rows.

    Confidences travel as big-endian float32 (4 bytes/bit) — the soft
    frames' wire format.  The kernels upcast to float64 server-side, so
    a round trip through the wire quantises reliabilities to float32
    but never changes their signs.
    """
    values = np.ascontiguousarray(confidences, dtype=">f4")
    if values.ndim != 2:
        raise ProtocolError(
            f"expected a (batch, width) confidence array, got {values.shape}"
        )
    return _BATCH_HEADER.pack(session_id & 0xFFFF, values.shape[0]) + values.tobytes()


def parse_soft_batch_body(body: bytes, width_of_session) -> Tuple[int, np.ndarray]:
    """Parse a DECODE_SOFT body given ``width_of_session(session_id)``."""
    if len(body) < _BATCH_HEADER.size:
        raise ProtocolError(f"soft batch body too short ({len(body)} bytes)")
    session_id, n_frames = _BATCH_HEADER.unpack_from(body)
    width = width_of_session(session_id)
    data = body[_BATCH_HEADER.size:]
    expected = n_frames * width * 4
    if len(data) != expected:
        raise ProtocolError(
            f"expected {expected} confidence bytes for {n_frames} x {width} "
            f"float32 values, got {len(data)}"
        )
    if n_frames == 0:
        return session_id, np.zeros((0, width), dtype=np.float64)
    values = np.frombuffer(data, dtype=">f4").reshape(n_frames, width)
    if not np.isfinite(values).all():
        # NaN/Inf confidences would decode to a fabricated message with
        # no error flag (NaN never ties); refuse them at the boundary.
        raise ProtocolError("confidences must be finite (got NaN or Inf)")
    return session_id, values.astype(np.float64)


def build_stream_push_body(
    session_id: int,
    first_index: int,
    confidences: np.ndarray,
    final: bool = False,
) -> bytes:
    """DECODE_STREAM request body: header + big-endian float32 rows.

    ``first_index`` is the channel-frame index of the first row —
    explicit on the wire so the server can verify stream contiguity
    instead of trusting task-scheduling order under pipelining.  The
    ``final`` flag marks the stream's last push: the server drains every
    still-open window after absorbing it.
    """
    values = np.ascontiguousarray(confidences, dtype=">f4")
    if values.ndim != 2:
        raise ProtocolError(
            f"expected a (frames, width) confidence array, got {values.shape}"
        )
    flags = STREAM_FLAG_FINAL if final else 0
    header = _STREAM_HEADER.pack(
        session_id & 0xFFFF, values.shape[0], first_index, flags
    )
    return header + values.tobytes()


def parse_stream_push_body(body: bytes, width_of_session):
    """Parse a DECODE_STREAM body: (session_id, first_index, final, values)."""
    if len(body) < _STREAM_HEADER.size:
        raise ProtocolError(f"stream push body too short ({len(body)} bytes)")
    session_id, n_frames, first_index, flags = _STREAM_HEADER.unpack_from(body)
    width = width_of_session(session_id)
    data = body[_STREAM_HEADER.size:]
    expected = n_frames * width * 4
    if len(data) != expected:
        raise ProtocolError(
            f"expected {expected} confidence bytes for {n_frames} x {width} "
            f"float32 values, got {len(data)}"
        )
    if n_frames == 0:
        values = np.zeros((0, width), dtype=np.float64)
    else:
        values = np.frombuffer(data, dtype=">f4").reshape(n_frames, width)
        if not np.isfinite(values).all():
            raise ProtocolError("confidences must be finite (got NaN or Inf)")
        values = values.astype(np.float64)
    return session_id, first_index, bool(flags & STREAM_FLAG_FINAL), values


def build_stream_response_body(
    messages: np.ndarray,
    corrected: np.ndarray,
    detected: np.ndarray,
    status: np.ndarray,
) -> bytes:
    """DECODE_STREAM response: the decode layout plus a status byte per row.

    Row ``i`` decides the codeword *opened* by channel frame
    ``first_index + i`` of the request; its status byte records whether
    the window closed on time (``STREAM_ROW_ON_TIME``), was forced at
    the deadline (``STREAM_ROW_FORCED``), or was drained by a final
    push / session close (``STREAM_ROW_FLUSHED``).
    """
    n = messages.shape[0]
    corrected8 = np.minimum(corrected, 255).astype(np.uint8)
    return (
        struct.pack("!I", n)
        + pack_bits(messages)
        + corrected8.tobytes()
        + np.asarray(detected).astype(np.uint8).tobytes()
        + np.asarray(status).astype(np.uint8).tobytes()
    )


def parse_stream_response_body(body: bytes, k: int):
    """Inverse of :func:`build_stream_response_body`.

    Returns ``(messages, corrected, detected, status)`` with one row per
    pushed channel frame.
    """
    if len(body) < 4:
        raise ProtocolError("stream response body too short")
    (n_frames,) = struct.unpack_from("!I", body)
    row_bytes = (k + 7) // 8
    offset = 4
    packed = body[offset:offset + n_frames * row_bytes]
    offset += n_frames * row_bytes
    corrected = np.frombuffer(body[offset:offset + n_frames], dtype=np.uint8)
    offset += n_frames
    detected = np.frombuffer(body[offset:offset + n_frames], dtype=np.uint8)
    offset += n_frames
    status = np.frombuffer(body[offset:offset + n_frames], dtype=np.uint8)
    if len(status) != n_frames:
        raise ProtocolError("stream response body truncated")
    messages = unpack_bits(packed, n_frames, k)
    return (
        messages,
        corrected.astype(np.int64),
        detected.astype(bool),
        status.copy(),
    )


def build_mem_write_body(
    session_id: int,
    addresses: np.ndarray,
    messages: np.ndarray,
    masks: Optional[np.ndarray] = None,
) -> bytes:
    """MEM_WRITE request body: header, addresses, packed rows.

    Layout: ``!HIB`` (session id, line count, flags) + one big-endian
    uint32 line address per row + the packed k-bit message rows.  With
    ``masks`` given the partial flag is set, packed k-bit mask rows
    follow the messages, and the server takes the read-modify-write
    path.  The header opens with the shared ``!HI`` prefix so
    :func:`peek_batch_header` routes it like any other data-plane body.
    """
    addrs = np.ascontiguousarray(addresses, dtype=">u4").reshape(-1)
    if addrs.shape[0] != np.asarray(messages).shape[0]:
        raise ProtocolError(
            f"{addrs.shape[0]} addresses for {np.asarray(messages).shape[0]} "
            "message rows"
        )
    flags = 0 if masks is None else MEM_WRITE_FLAG_PARTIAL
    body = (
        _MEM_WRITE_HEADER.pack(session_id & 0xFFFF, addrs.shape[0], flags)
        + addrs.tobytes()
        + pack_bits(messages)
    )
    if masks is not None:
        if np.asarray(masks).shape != np.asarray(messages).shape:
            raise ProtocolError(
                f"mask shape {np.asarray(masks).shape} does not match "
                f"message shape {np.asarray(messages).shape}"
            )
        body += pack_bits(masks)
    return body


def parse_mem_write_body(body: bytes, width_of_session):
    """Parse a MEM_WRITE body: ``(session_id, addresses, messages, masks)``.

    ``masks`` is ``None`` for a whole-line write.  ``width_of_session``
    maps the session id to the message width k, as in
    :func:`parse_batch_body`.
    """
    if len(body) < _MEM_WRITE_HEADER.size:
        raise ProtocolError(f"memory write body too short ({len(body)} bytes)")
    session_id, n_lines, flags = _MEM_WRITE_HEADER.unpack_from(body)
    width = width_of_session(session_id)
    row_bytes = (width + 7) // 8
    partial = bool(flags & MEM_WRITE_FLAG_PARTIAL)
    offset = _MEM_WRITE_HEADER.size
    expected = n_lines * (4 + row_bytes * (2 if partial else 1))
    if len(body) - offset != expected:
        raise ProtocolError(
            f"expected {expected} memory-write payload bytes for {n_lines} "
            f"lines of {width} bits, got {len(body) - offset}"
        )
    addresses = np.frombuffer(body, dtype=">u4", count=n_lines, offset=offset)
    offset += 4 * n_lines
    messages = unpack_bits(body[offset:offset + n_lines * row_bytes], n_lines, width)
    offset += n_lines * row_bytes
    masks = (
        unpack_bits(body[offset:offset + n_lines * row_bytes], n_lines, width)
        if partial
        else None
    )
    return session_id, addresses.astype(np.int64), messages, masks


def build_mem_write_response_body(
    corrected: np.ndarray, detected: np.ndarray
) -> bytes:
    """MEM_WRITE response: line count + per-line RMW read-phase flags.

    Whole-line writes report all-zero rows (no decode happened); partial
    writes report the read-phase correction counts and detected flags so
    a client can see when its merge was built on a poisoned line.
    """
    corrected8 = np.minimum(np.asarray(corrected), 255).astype(np.uint8)
    return (
        struct.pack("!I", corrected8.shape[0])
        + corrected8.tobytes()
        + np.asarray(detected).astype(np.uint8).tobytes()
    )


def parse_mem_write_response_body(body: bytes) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`build_mem_write_response_body`."""
    if len(body) < 4:
        raise ProtocolError("memory write response body too short")
    (n_lines,) = struct.unpack_from("!I", body)
    if len(body) != 4 + 2 * n_lines:
        raise ProtocolError("memory write response body truncated")
    corrected = np.frombuffer(body, dtype=np.uint8, count=n_lines, offset=4)
    detected = np.frombuffer(body, dtype=np.uint8, count=n_lines, offset=4 + n_lines)
    return corrected.astype(np.int64), detected.astype(bool)


def build_mem_read_body(session_id: int, addresses: np.ndarray) -> bytes:
    """MEM_READ request body: the ``!HI`` prefix + uint32 line addresses."""
    addrs = np.ascontiguousarray(addresses, dtype=">u4").reshape(-1)
    return _BATCH_HEADER.pack(session_id & 0xFFFF, addrs.shape[0]) + addrs.tobytes()


def parse_mem_read_body(body: bytes) -> Tuple[int, np.ndarray]:
    """Parse a MEM_READ body into ``(session_id, addresses)``."""
    if len(body) < _BATCH_HEADER.size:
        raise ProtocolError(f"memory read body too short ({len(body)} bytes)")
    session_id, n_lines = _BATCH_HEADER.unpack_from(body)
    data = body[_BATCH_HEADER.size:]
    if len(data) != 4 * n_lines:
        raise ProtocolError(
            f"expected {4 * n_lines} address bytes, got {len(data)}"
        )
    addresses = np.frombuffer(data, dtype=">u4")
    return session_id, addresses.astype(np.int64)


def build_mem_scrub_body(session_id: int, count: int) -> bytes:
    """MEM_SCRUB request body: the ``!HI`` prefix; ``count`` lines to sweep.

    The response is a JSON body carrying the step's
    :meth:`~repro.memory.scrub.ScrubReport.to_dict` under ``"report"``,
    the injected-rot bit count under ``"rot_bits"``, and the session's
    cumulative counter snapshot under ``"counters"``.
    """
    return _BATCH_HEADER.pack(session_id & 0xFFFF, int(count))


def parse_mem_scrub_body(body: bytes) -> Tuple[int, int]:
    """Parse a MEM_SCRUB body into ``(session_id, count)``."""
    if len(body) != _BATCH_HEADER.size:
        raise ProtocolError(f"memory scrub body must be {_BATCH_HEADER.size} bytes")
    session_id, count = _BATCH_HEADER.unpack_from(body)
    return session_id, count


def build_decode_response_body(
    messages: np.ndarray, corrected: np.ndarray, detected: np.ndarray
) -> bytes:
    """DECODE response: frame count, packed messages, per-frame flag bytes."""
    n = messages.shape[0]
    corrected8 = np.minimum(corrected, 255).astype(np.uint8)
    return (
        struct.pack("!I", n)
        + pack_bits(messages)
        + corrected8.tobytes()
        + detected.astype(np.uint8).tobytes()
    )


def decode_reply_rows(
    messages: np.ndarray, corrected: np.ndarray, detected: np.ndarray
) -> np.ndarray:
    """One ``uint8`` DECODE reply row per frame: ``(batch, row_bytes + 2)``.

    A row holds the frame's packed message bytes, its corrected count
    (clamped to 255) and its detected flag: the frame's share of
    :func:`build_decode_response_body`.  Rows slice and concatenate
    like the frames they answer; :func:`build_decode_reply_body`
    writes them to the wire.
    """
    return np.concatenate(
        [
            np.packbits(np.asarray(messages, dtype=np.uint8), axis=1),
            np.minimum(corrected, 255).astype(np.uint8)[:, None],
            np.asarray(detected).astype(np.uint8)[:, None],
        ],
        axis=1,
    )


def build_decode_reply_body(rows: np.ndarray) -> bytes:
    """DECODE response from :func:`decode_reply_rows` rows.

    Writes the frame count, every row's message bytes, then the
    corrected column and the detected column: the bytes
    :func:`build_decode_response_body` writes for the same frames.
    """
    row_bytes = rows.shape[1] - 2
    return (
        struct.pack("!I", rows.shape[0])
        + rows[:, :row_bytes].tobytes()
        + rows[:, row_bytes:].T.tobytes()
    )


def parse_decode_response_body(
    body: bytes, k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    if len(body) < 4:
        raise ProtocolError("decode response body too short")
    (n_frames,) = struct.unpack_from("!I", body)
    row_bytes = (k + 7) // 8
    offset = 4
    packed = body[offset:offset + n_frames * row_bytes]
    offset += n_frames * row_bytes
    corrected = np.frombuffer(body[offset:offset + n_frames], dtype=np.uint8)
    offset += n_frames
    detected = np.frombuffer(body[offset:offset + n_frames], dtype=np.uint8)
    if len(detected) != n_frames:
        raise ProtocolError("decode response body truncated")
    messages = unpack_bits(packed, n_frames, k)
    return messages, corrected.astype(np.int64), detected.astype(bool)


def build_encode_response_body(codewords: np.ndarray) -> bytes:
    """ENCODE response: frame count + packed (possibly corrupted) words."""
    return struct.pack("!I", codewords.shape[0]) + pack_bits(codewords)


def parse_encode_response_body(body: bytes, n: int) -> np.ndarray:
    if len(body) < 4:
        raise ProtocolError("encode response body too short")
    (n_frames,) = struct.unpack_from("!I", body)
    return unpack_bits(body[4:], n_frames, n)


def build_traced_body(trace_id: str, opcode: int, body: bytes) -> bytes:
    """OP_W_TRACED body: [id length][trace id][inner opcode][inner body].

    Sampled requests reach their pool worker in this wrapper so the
    trace id survives the pipe; *unsampled* requests are forwarded as
    the untouched original bytes — the tracing-off hot path stays
    byte-identical to the pre-tracing protocol.
    """
    encoded = trace_id.encode("ascii")
    if not 0 < len(encoded) < 256:
        raise ProtocolError(f"trace id {trace_id!r} does not fit one length byte")
    return bytes((len(encoded),)) + encoded + bytes((opcode,)) + body


def parse_traced_body(body: bytes) -> Tuple[str, int, bytes]:
    """Inverse of :func:`build_traced_body`: (trace_id, opcode, body)."""
    if len(body) < 3:
        raise ProtocolError(f"traced body too short ({len(body)} bytes)")
    id_len = body[0]
    if len(body) < 2 + id_len:
        raise ProtocolError("traced body truncated inside the trace id")
    trace_id = body[1 : 1 + id_len].decode("ascii", "replace")
    opcode = body[1 + id_len]
    return trace_id, opcode, body[2 + id_len :]


def build_json_body(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def parse_json_body(body: bytes) -> Dict[str, Any]:
    try:
        parsed = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON body: {exc}") from exc
    if not isinstance(parsed, dict):
        raise ProtocolError("JSON body must be an object")
    return parsed


def parse_close_body(body: bytes) -> int:
    """The session id a CLOSE body names; a missing id or one that is not
    a JSON integer is the client's mistake, a :class:`~repro.errors.SessionError`."""
    session_id = parse_json_body(body).get("session_id")
    if type(session_id) is not int:
        raise SessionError(
            f"close request must name an integer 'session_id', got {session_id!r}"
        )
    return session_id


# ---------------------------------------------------------------------
# Stream helpers
# ---------------------------------------------------------------------
async def read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one length-prefixed frame; ``None`` on clean EOF."""
    try:
        prefix = await reader.readexactly(_LEN_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise ProtocolError("connection closed mid-frame") from exc
        return None
    (length,) = _LEN_PREFIX.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc


def frame_bytes(payload: bytes) -> bytes:
    """Prefix ``payload`` with its length, ready for ``writer.write``."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return _LEN_PREFIX.pack(len(payload)) + payload
