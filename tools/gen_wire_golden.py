#!/usr/bin/env python
"""Write the wire golden corpus: request and reply bytes of every opcode.

Sends one seeded, fixed sequence of requests over one TCP connection to
an in-process ``CodecServer(workers=0)`` and records every request
payload with the reply payload the server gave it, as hex, in
``tests/data/wire_golden.json``.  ``tests/test_wire_golden.py`` replays
the file at workers 0 and 2 and requires byte-equal replies; only an
OPEN reply's ``worker`` key, which only a pool sends, is exempt.

The corpus covers:

* OPEN of each paper code as a plain, an injecting, a depth-1 and a
  depth-4 stream and a rotting memory session, two non-default hard
  decoders, and ``interleaved:hamming84:2`` (n = 16), plus OPEN bodies
  that either front refuses;
* ENCODE, DECODE and DECODE_SOFT at 0, 1 and 33 frames, DECODE at
  4,096 frames and over all 256 request bytes (hamming74's spare bit
  set included);
* stream pushes, pipelined where a window needs later frames, with a
  final one; MEM_WRITE whole and partial, MEM_READ, MEM_SCRUB; CODES;
  CLOSE of every session;
* error replies: short bodies, packed lengths that do not match the
  frame count, unknown sessions and opcodes, replies over the frame
  cap, bad JSON fields and the stream and memory lanes' own refusals.

Every config is seeded and no session has a stream deadline, so the
replies depend on nothing but the request bytes and their order.  A
step's requests are sent together and its replies matched by request
id; only the pipelined stream pushes share a step.

    PYTHONPATH=src python3 tools/gen_wire_golden.py --out tests/data/wire_golden.json

A change that alters a reply regenerates the file with this script and
lists each changed reply kind in ``CHANGES.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import struct
import sys
from pathlib import Path
from typing import List, Tuple

import numpy as np

from repro.coding.registry import get_code
from repro.service import CodecServer, protocol

#: Seed of every frame, message and confidence in the corpus.
SEED = 20261019

PAPER_CODES = ("hamming74", "hamming84", "rm13")

#: A step: its label and the (opcode, body) requests sent together.
Step = Tuple[str, List[Tuple[int, bytes]]]


def _json(payload) -> bytes:
    return payload if isinstance(payload, bytes) else protocol.build_json_body(payload)


class Corpus:
    """The fixed request sequence, with the session ids it will get.

    Sessions open in order on a fresh server, so the ``i``-th OPEN that
    succeeds gets id ``i``; :func:`record` checks that it did.
    """

    def __init__(self, seed: int = SEED):
        self.rng = np.random.default_rng(seed)
        self.steps: List[Step] = []
        self.sessions: List[dict] = []

    # -- request builders ----------------------------------------------
    def add(self, what: str, *requests: Tuple[int, bytes]) -> None:
        self.steps.append((what, list(requests)))

    def open(self, config: dict) -> int:
        self.sessions.append(config)
        self.add(f"open {config}", (protocol.OP_OPEN, _json(config)))
        return len(self.sessions)

    def bits(self, frames: int, width: int) -> np.ndarray:
        return self.rng.integers(0, 2, (frames, width)).astype(np.uint8)

    def noisy_words(self, code, frames: int) -> np.ndarray:
        """Codewords with about one flipped bit in six: every weight class."""
        words = code.encode_batch(self.bits(frames, code.k))
        return words ^ (self.rng.random(words.shape) < 1 / 6).astype(np.uint8)

    def confidences(self, code, frames: int) -> np.ndarray:
        signs = 1.0 - 2.0 * code.encode_batch(self.bits(frames, code.k))
        return signs + self.rng.normal(0.0, 0.8, signs.shape)

    def raw_decode(self, session_id: int, data: bytes, frames: int) -> bytes:
        """A DECODE body with raw packed bytes, spare bits as given."""
        return struct.pack("!HI", session_id, frames) + data

    # -- the sequence ----------------------------------------------------
    def build(self) -> List[Step]:
        plain, injected, depth1, depth4, memory = {}, {}, {}, {}, {}
        for index, name in enumerate(PAPER_CODES):
            plain[name] = self.open({"code": name, "seed": 10 + index})
            injected[name] = self.open(
                {"code": name, "p01": 0.05, "p10": 0.1, "seed": 20 + index})
            depth1[name] = self.open({"code": name, "seed": 30 + index, "stream_depth": 1})
            depth4[name] = self.open({"code": name, "seed": 40 + index, "stream_depth": 4})
            memory[name] = self.open(
                {"code": name, "seed": 50 + index, "memory_lines": 16, "memory_rot": 0.05})
        interleaved = self.open({"code": "interleaved:hamming84:2", "seed": 60})
        syndrome = self.open({"code": "hamming84", "decoder": "syndrome", "seed": 70})
        majority = self.open({"code": "rm13", "decoder": "reed-majority", "seed": 71})
        for bad in (b"not json", b"[1, 2]", {"code": "golay"}, {"decoder": "ml"},
                    {"code": 7}, {"code": "hamming84", "seed": "7"},
                    {"code": "hamming84", "seed": True}, {"code": "hamming84", "p01": 1.5},
                    {"code": "hamming84", "stream_depth": 0},
                    {"code": "hamming84", "memory_rot": 0.5},
                    {"code": "interleaved:hamming84:2", "decoder": "ml"}):
            self.add(f"open refused {bad!r}", (protocol.OP_OPEN, _json(bad)))
        self.add("codes", (protocol.OP_CODES, b""))

        every_byte = bytes(range(256))
        for name in PAPER_CODES:
            code, sid = get_code(name), plain[name]
            for frames in (0, 1, 33):
                self.add(f"encode {name} x{frames}", (protocol.OP_ENCODE,
                         protocol.build_batch_body(sid, self.bits(frames, code.k))))
            for frames in (0, 1, 33):
                self.add(f"decode {name} x{frames}", (protocol.OP_DECODE,
                         protocol.build_batch_body(sid, self.noisy_words(code, frames))))
            self.add(f"decode {name} every request byte",
                     (protocol.OP_DECODE, self.raw_decode(sid, every_byte, 256)))
            bulk = self.rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
            self.add(f"decode {name} x4096 raw bytes",
                     (protocol.OP_DECODE, self.raw_decode(sid, bulk, 4096)))
            for frames in (0, 1, 33):
                self.add(f"decode_soft {name} x{frames}", (protocol.OP_DECODE_SOFT,
                         protocol.build_soft_batch_body(sid, self.confidences(code, frames))))
            for frames in (0, 1, 33, 33):
                self.add(f"encode injected {name} x{frames}", (protocol.OP_ENCODE,
                         protocol.build_batch_body(injected[name], self.bits(frames, code.k))))
        for sid, label in ((syndrome, "hamming84 syndrome"), (majority, "rm13 reed-majority")):
            self.add(f"decode {label} every request byte",
                     (protocol.OP_DECODE, self.raw_decode(sid, every_byte, 256)))

        code = get_code("interleaved:hamming84:2")
        for frames in (0, 1, 33):
            self.add(f"encode interleaved x{frames}", (protocol.OP_ENCODE,
                     protocol.build_batch_body(interleaved, self.bits(frames, code.k))))
            self.add(f"decode interleaved x{frames}", (protocol.OP_DECODE,
                     protocol.build_batch_body(interleaved, self.noisy_words(code, frames))))
        self.add("decode_soft interleaved x1", (protocol.OP_DECODE_SOFT,
                 protocol.build_soft_batch_body(interleaved, self.confidences(code, 1))))

        for name in PAPER_CODES:
            self.streams(name, depth1[name], depth4[name])
            self.memory(name, memory[name])
        self.errors(plain["hamming84"], plain["hamming74"], depth1["rm13"])

        for sid in range(1, len(self.sessions) + 1):
            self.add(f"close {sid}", (protocol.OP_CLOSE, _json({"session_id": sid})))
        for bad in (b"{", {}, {"session_id": "1"}, {"session_id": 1.5},
                    {"session_id": 1}):
            self.add(f"close refused {bad!r}", (protocol.OP_CLOSE, _json(bad)))
        self.add("decode on a closed session", (protocol.OP_DECODE,
                 protocol.build_batch_body(1, self.bits(1, 7))))
        return self.steps

    def streams(self, name: str, depth1: int, depth4: int) -> None:
        code = get_code(name)
        push = protocol.build_stream_push_body
        self.add(f"stream {name} depth 1 x3", (protocol.OP_DECODE_STREAM,
                 push(depth1, 0, self.confidences(code, 3))))
        self.add(f"stream {name} depth 1 empty", (protocol.OP_DECODE_STREAM,
                 push(depth1, 3, self.confidences(code, 0))))
        self.add(f"stream {name} depth 1 final x2", (protocol.OP_DECODE_STREAM,
                 push(depth1, 3, self.confidences(code, 2), final=True)))
        self.add(f"stream {name} depth 1 discontinuity", (protocol.OP_DECODE_STREAM,
                 push(depth1, 9, self.confidences(code, 1))))
        # A depth-4 window decides a row only once later frames arrive,
        # so these pushes go out together and end with a final one.
        self.add(f"stream {name} depth 4 pipelined",
                 (protocol.OP_DECODE_STREAM, push(depth4, 0, self.confidences(code, 5))),
                 (protocol.OP_DECODE_STREAM, push(depth4, 5, self.confidences(code, 4))),
                 (protocol.OP_DECODE_STREAM,
                  push(depth4, 9, self.confidences(code, 3), final=True)))

    def memory(self, name: str, sid: int) -> None:
        code = get_code(name)
        addresses = np.array([0, 3, 7, 15, 8])
        self.add(f"mem_write {name} whole", (protocol.OP_MEM_WRITE,
                 protocol.build_mem_write_body(sid, addresses, self.bits(5, code.k))))
        self.add(f"mem_read {name}", (protocol.OP_MEM_READ,
                 protocol.build_mem_read_body(sid, np.array([0, 3, 7, 15, 8, 1]))))
        for count in (0, 8, 40):
            self.add(f"mem_scrub {name} {count}", (protocol.OP_MEM_SCRUB,
                     protocol.build_mem_scrub_body(sid, count)))
        self.add(f"mem_write {name} partial", (protocol.OP_MEM_WRITE,
                 protocol.build_mem_write_body(sid, np.array([3, 4, 15]),
                                               self.bits(3, code.k), self.bits(3, code.k))))
        self.add(f"mem_read {name} every line", (protocol.OP_MEM_READ,
                 protocol.build_mem_read_body(sid, np.arange(16))))
        self.add(f"mem_read {name} past the store", (protocol.OP_MEM_READ,
                 protocol.build_mem_read_body(sid, np.array([2, 16]))))

    def errors(self, hamming84: int, hamming74: int, stream: int) -> None:
        header = struct.Struct("!HI")
        self.add("decode short body", (protocol.OP_DECODE, b"\x00\x01\x00"))
        self.add("encode empty body", (protocol.OP_ENCODE, b""))
        self.add("decode two frames, one byte",
                 (protocol.OP_DECODE, header.pack(hamming84, 2) + b"\x5a"))
        self.add("decode one frame, two bytes",
                 (protocol.OP_DECODE, header.pack(hamming74, 1) + b"\x5a\xa5"))
        self.add("decode unknown session", (protocol.OP_DECODE, header.pack(999, 1) + b"\x00"))
        self.add("encode unknown session", (protocol.OP_ENCODE, header.pack(999, 1) + b"\x00"))
        self.add("unknown opcode", (0x7E, b""))
        self.add("worker-plane opcode", (protocol.OP_W_OPEN, b"{}"))
        self.add("decode reply over the frame cap",
                 (protocol.OP_DECODE, header.pack(hamming84, 400_000)))
        self.add("encode reply over the frame cap",
                 (protocol.OP_ENCODE, header.pack(hamming84, 1_100_000)))
        nan = np.full((1, 8), np.nan)
        self.add("decode_soft NaN", (protocol.OP_DECODE_SOFT,
                 protocol.build_soft_batch_body(hamming84, nan)))
        self.add("decode_soft short values", (protocol.OP_DECODE_SOFT,
                 header.pack(hamming84, 1) + b"\x00" * 31))
        self.add("stream push to a batch session", (protocol.OP_DECODE_STREAM,
                 protocol.build_stream_push_body(hamming84, 0, np.zeros((1, 8)))))
        self.add("memory read on a batch session", (protocol.OP_MEM_READ,
                 protocol.build_mem_read_body(hamming84, np.array([0]))))
        self.add("stream push after a final one", (protocol.OP_DECODE_STREAM,
                 protocol.build_stream_push_body(stream, 5, np.zeros((1, 8)))))


async def record(steps: List[Step], expected_opens: int) -> List[dict]:
    """Send every step to a fresh ``workers=0`` server; the recorded pairs."""
    out = []
    request_id = 0
    opened = 0
    async with CodecServer(workers=0) as server:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        for what, requests in steps:
            payloads = {}
            for opcode, body in requests:
                request_id += 1
                payloads[request_id] = protocol.build_request(opcode, request_id, body)
                writer.write(protocol.frame_bytes(payloads[request_id]))
            await writer.drain()
            replies = {}
            for _ in requests:
                reply = await protocol.read_frame(reader)
                replies[protocol.parse_response(reply).request_id] = reply
            pairs = [[payloads[rid].hex(), replies[rid].hex()] for rid in payloads]
            for (opcode, _), rid in zip(requests, payloads):
                response = protocol.parse_response(replies[rid])
                if response.body.startswith(b"internal error"):
                    raise RuntimeError(f"{what}: {response.body!r}")
                if opcode == protocol.OP_OPEN and response.status == protocol.ST_OK:
                    opened += 1
                    got = protocol.parse_json_body(response.body)["session_id"]
                    if got != opened:
                        raise RuntimeError(f"{what}: opened as {got}, expected {opened}")
            out.append({"what": what, "pairs": pairs})
        writer.close()
        await writer.wait_closed()
    if opened != expected_opens:
        raise RuntimeError(f"{opened} sessions opened, expected {expected_opens}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="tests/data/wire_golden.json")
    args = parser.parse_args(argv)
    corpus = Corpus()
    steps = corpus.build()
    recorded = asyncio.run(record(steps, len(corpus.sessions)))
    payload = {
        "about": "Request and reply payloads (hex, no length prefix) sent in order "
                 "over one connection; a step's requests go out together and its "
                 "replies match by request id.  Written by tools/gen_wire_golden.py; "
                 "replayed by tests/test_wire_golden.py.",
        "seed": SEED,
        "steps": recorded,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    pairs = sum(len(step["pairs"]) for step in recorded)
    print(f"wrote {args.out}: {len(recorded)} steps, {pairs} pairs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
