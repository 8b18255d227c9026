"""Both fronts answer alike: a local server and a 2-worker pool.

One seeded stream of valid and malformed requests goes over TCP to a
``CodecServer(workers=0)`` and to a ``CodecServer(workers=2)``.  Every
reply must be byte-equal, except the OPEN reply's ``worker`` field,
which only a pool has; at the end STATS must count the same frames and
the same protocol errors.  The local server is the reference front, as
the scalar decoder is the reference for every batch kernel: the pool
places sessions, forwards bodies and merges telemetry its own way, and
no client may be able to tell.

Requests go one at a time, so both servers see one order, and no timer
decides anything: stream sessions have depth 1 or take final pushes
only, and no session has a stream deadline.  No admin action is sent.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.service import CodecClient, CodecServer, protocol

#: Session configs the stream opens.  The last one is the first in
#: another spelling: a stream field without ``stream_depth`` changes
#: nothing, and both fronts open a fresh session for it.
CONFIGS = [
    {"code": "hamming84", "seed": 1},
    {"code": "hamming74", "p01": 0.05, "p10": 0.05, "seed": 2},
    {"code": "rm13", "seed": 3},
    {"code": "hamming84", "seed": 4, "stream_depth": 1},
    {"code": "hamming74", "seed": 5, "stream_depth": 3, "stream_shift": 2},
    {"code": "hamming84", "seed": 6, "memory_lines": 16, "memory_rot": 0.02},
    {"code": "hamming84", "seed": 1, "stream_shift": 0},
]

#: OPEN bodies either front must refuse.
BAD_OPENS = [
    b"not json",
    b"[1, 2]",
    {"code": "golay"},
    {"decoder": "ml"},
    {"code": 7},
    {"code": "hamming84", "seed": 1.5},
    {"code": "hamming84", "seed": True},
    {"code": "hamming84", "p01": True},
    {"code": "hamming84", "stream_depth": "2"},
    {"code": "hamming84", "stream_depth": 0},
    {"code": "hamming84", "memory_rot": 0.5},
    {"code": "hamming84", "memory_lines": 0},
]

#: CLOSE bodies either front must refuse (the last names no session).
BAD_CLOSES = [
    b"{",
    {},
    {"session_id": "1"},
    {"session_id": 1.5},
    {"session_id": True},
    {"session_id": 999},
]

#: Scrub widths: the default (0), within the store, and far past it.
SCRUB_COUNTS = [0, 1, 5, 16, 40, 820_018_826]

MEMORY_OPS = [protocol.OP_MEM_WRITE, protocol.OP_MEM_READ, protocol.OP_MEM_SCRUB]
DATA_OPS = [protocol.OP_ENCODE, protocol.OP_DECODE, protocol.OP_DECODE_SOFT,
            protocol.OP_DECODE_STREAM, *MEMORY_OPS]

SEEDS = range(20)
REQUESTS = 160


def _json(payload) -> bytes:
    return payload if isinstance(payload, bytes) else protocol.build_json_body(payload)


class RequestStream:
    """A seeded stream of requests, steered by the replies it gets.

    It tracks the sessions that OPEN replies announce and CLOSE replies
    end, so most data requests name a live session with frames of the
    right width, stream pushes start at the next frame index, and memory
    addresses fall inside the store.  The rest are the malformed cases:
    unknown ids, bodies one byte short, discontinuous pushes and
    addresses past the store.
    """

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.sessions = {}  # session id -> its config, n, k and next frame index

    def _pick(self, options):
        return options[int(self.rng.integers(len(options)))]

    def _session(self):
        """A live session id and its record, or an id no one may hold."""
        if self.sessions and self.rng.random() < 0.85:
            session_id = self._pick(sorted(self.sessions))
            return session_id, self.sessions[session_id]
        return int(self.rng.integers(1, 13)), None

    def _bits(self, frames: int, width: int) -> np.ndarray:
        return self.rng.integers(0, 2, (frames, width)).astype(np.uint8)

    def _confidences(self, frames: int, width: int) -> np.ndarray:
        return self.rng.normal(0.0, 1.0, (frames, width))

    def next_request(self):
        """One (opcode, body) pair."""
        roll = self.rng.random()
        if roll < 0.10:
            return protocol.OP_OPEN, _json(self._pick(CONFIGS))
        if roll < 0.14:
            return protocol.OP_OPEN, _json(self._pick(BAD_OPENS))
        if roll < 0.18:
            session_id, _ = self._session()
            return protocol.OP_CLOSE, _json({"session_id": session_id})
        if roll < 0.20:
            return protocol.OP_CLOSE, _json(self._pick(BAD_CLOSES))
        if roll < 0.21:
            return protocol.OP_CODES, b""
        if roll < 0.22:
            return self._pick([0x7E, protocol.OP_W_OPEN]), b""
        opcode, body = self._data_request()
        if self.rng.random() < 0.06:
            body = body[:-1] if self.rng.random() < 0.5 else body[:1]
        return opcode, body

    def _data_request(self):
        session_id, record = self._session()
        n, k = (record["n"], record["k"]) if record else (8, 4)
        config = record["config"] if record else {}
        frames = int(self.rng.integers(0, 7))
        # Mostly the session's own lane, sometimes any op at all.
        ops = DATA_OPS
        if self.rng.random() < 0.7:
            if "memory_lines" in config:
                ops = MEMORY_OPS
            elif "stream_depth" in config:
                ops = [protocol.OP_DECODE_STREAM]
        opcode = self._pick(ops)
        if opcode == protocol.OP_ENCODE:
            return opcode, protocol.build_batch_body(session_id, self._bits(frames, k))
        if opcode == protocol.OP_DECODE:
            return opcode, protocol.build_batch_body(session_id, self._bits(frames, n))
        if opcode == protocol.OP_DECODE_SOFT:
            body = protocol.build_soft_batch_body(
                session_id, self._confidences(frames, n)
            )
            return opcode, body
        if opcode == protocol.OP_DECODE_STREAM:
            first = record["next"] if record else 0
            if self.rng.random() < 0.1:
                first += 1
            # Only a depth-1 window decides a row without a later frame.
            final = config.get("stream_depth") != 1 or bool(self.rng.random() < 0.3)
            body = protocol.build_stream_push_body(
                session_id, first, self._confidences(frames, n), final=final
            )
            return opcode, body
        lines = config.get("memory_lines", 16)
        past_the_store = 4 if self.rng.random() < 0.1 else 0
        addresses = self.rng.integers(0, lines + past_the_store, frames)
        if opcode == protocol.OP_MEM_WRITE:
            masks = self._bits(frames, k) if self.rng.random() < 0.5 else None
            body = protocol.build_mem_write_body(
                session_id, addresses, self._bits(frames, k), masks
            )
            return opcode, body
        if opcode == protocol.OP_MEM_READ:
            return opcode, protocol.build_mem_read_body(session_id, addresses)
        return opcode, protocol.build_mem_scrub_body(session_id, self._pick(SCRUB_COUNTS))

    def observe(self, opcode: int, body: bytes, response: protocol.Response) -> None:
        """Track the sessions and stream indices the reply reveals."""
        if response.status != protocol.ST_OK:
            return
        if opcode == protocol.OP_OPEN:
            info = protocol.parse_json_body(response.body)
            self.sessions.setdefault(
                info["session_id"],
                {"config": json.loads(body), "n": info["n"], "k": info["k"], "next": 0},
            )
        elif opcode == protocol.OP_CLOSE:
            del self.sessions[protocol.parse_json_body(response.body)["closed"]]
        elif opcode == protocol.OP_DECODE_STREAM:
            session_id, frames = protocol.peek_batch_header(body)
            self.sessions[session_id]["next"] += frames


def _without_worker(response: protocol.Response, opcode: int) -> bytes:
    """The pool's reply body, less the OPEN reply's ``worker`` field."""
    if opcode != protocol.OP_OPEN or response.status != protocol.ST_OK:
        return response.body
    info = protocol.parse_json_body(response.body)
    assert isinstance(info.pop("worker"), int)
    return protocol.build_json_body(info)


async def _agree(seed: int) -> None:
    stream = RequestStream(seed)
    async with CodecServer(workers=0) as local, CodecServer(workers=2) as pool:
        clients = [
            await CodecClient.connect(port=local.port),
            await CodecClient.connect(port=pool.port),
        ]
        for step in range(REQUESTS):
            opcode, body = stream.next_request()
            sent = [await client.send_request(opcode, body) for client in clients]
            want, got = await asyncio.gather(*sent)
            where = f"seed {seed}, request {step}: opcode 0x{opcode:02x}, body {body!r}"
            assert (got.opcode, got.request_id, got.status) == (
                want.opcode, want.request_id, want.status,
            ), where
            assert _without_worker(got, opcode) == want.body, where
            stream.observe(opcode, body, want)
        stats = [await client.stats() for client in clients]
        for client in clients:
            await client.close()
    for counter in ("frames_total", "protocol_errors"):
        assert stats[1][counter] == stats[0][counter], (seed, counter)


@pytest.mark.parametrize("seed", SEEDS)
def test_both_fronts_answer_every_request_alike(seed):
    asyncio.run(asyncio.wait_for(_agree(seed), 60.0))
