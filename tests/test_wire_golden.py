"""The wire golden corpus: every opcode's reply bytes, pinned.

``tests/data/wire_golden.json`` holds request and reply payloads that
``tools/gen_wire_golden.py`` recorded, in order, over one connection to
a ``workers=0`` server: OPEN of every paper code and lane kind, ENCODE,
DECODE and DECODE_SOFT from 0 to 4,096 frames, stream pushes, the
memory ops, CLOSE and the error replies.  This test replays the file
to a fresh local server and to a fresh 2-worker pool and requires every
reply byte for byte.  Only an OPEN reply's ``worker`` key, which only a
pool sends, is left out of the comparison.

``tests/test_fronts_agree.py`` compares the two fronts with each other,
so a change that moves both alike passes there: a reordered flag byte,
a new error text, a renamed JSON key.  Here it fails.  A change that
means to alter a reply regenerates the corpus with the tool and lists
each changed reply kind in ``CHANGES.md``.
"""

import asyncio
import json
import os

import pytest

from repro.service import CodecServer, protocol

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "data", "wire_golden.json")

with open(CORPUS_PATH, encoding="utf-8") as _handle:
    CORPUS = json.load(_handle)


def _comparable(request: protocol.Request, reply: bytes) -> bytes:
    """``reply``, less the ``worker`` key of a pool's OPEN reply."""
    response = protocol.parse_response(reply)
    if request.opcode != protocol.OP_OPEN or response.status != protocol.ST_OK:
        return reply
    info = protocol.parse_json_body(response.body)
    if "worker" not in info:
        return reply
    assert isinstance(info.pop("worker"), int), info
    return protocol.build_response(
        response.opcode, response.request_id, response.status,
        protocol.build_json_body(info),
    )


async def _replay(workers: int) -> list:
    """Replay every step; the (step, request id) of each reply that differs."""
    mismatches = []
    async with CodecServer(workers=workers) as server:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        for step in CORPUS["steps"]:
            pairs = [(bytes.fromhex(request), bytes.fromhex(reply))
                     for request, reply in step["pairs"]]
            for request, _ in pairs:
                writer.write(protocol.frame_bytes(request))
            await writer.drain()
            replies = {}
            for _ in pairs:
                reply = await protocol.read_frame(reader)
                replies[protocol.parse_response(reply).request_id] = reply
            for payload, expected in pairs:
                request = protocol.parse_request(payload)
                got = replies.get(request.request_id)
                if got is None or _comparable(request, got) != expected:
                    mismatches.append((step["what"], request.request_id, got, expected))
        writer.close()
        await writer.wait_closed()
    return mismatches


def test_corpus_covers_every_client_opcode():
    opcodes = {
        protocol.parse_request(bytes.fromhex(request)).opcode
        for step in CORPUS["steps"]
        for request, _ in step["pairs"]
    }
    client_plane = {
        protocol.OP_OPEN, protocol.OP_ENCODE, protocol.OP_DECODE,
        protocol.OP_CODES, protocol.OP_DECODE_SOFT, protocol.OP_DECODE_STREAM,
        protocol.OP_CLOSE, protocol.OP_MEM_WRITE, protocol.OP_MEM_READ,
        protocol.OP_MEM_SCRUB,
    }
    assert client_plane <= opcodes


@pytest.mark.parametrize("workers", [0, 2])
def test_replies_match_the_corpus_byte_for_byte(workers):
    mismatches = asyncio.run(asyncio.wait_for(_replay(workers), 60.0))
    shown = [
        f"{what} (request {rid}): got {got.hex() if got else None}, "
        f"want {want.hex()}"[:400]
        for what, rid, got, want in mismatches[:5]
    ]
    assert not mismatches, f"{len(mismatches)} replies differ:\n" + "\n".join(shown)
