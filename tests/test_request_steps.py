"""The steps a ``workers=0`` server runs for one request, pinned.

Each test feeds request frames to the handler a ``CodecServer(workers=0)``
runs for each TCP connection (its per-connection dispatch records the
sessions the connection opens) through a ``StreamReader`` and a writer
that keeps what is written, and counts the calls made and Python lines
run (:class:`stepcount.StepCounter`) from the moment the frames reach
the connection loop to the write of the last reply.  The count takes in
everything on the way: framing, parsing, dispatch, session ownership,
the batcher's turn flush, the kernel, telemetry and the reply build.  A warm-up round first builds what the server
memoises (tables, lanes, the code's closed-sessions row), so the
counted round is the steady state.  Counts are exact on one
interpreter; no clock is read.  The loop runs with asyncio's debug mode
off (``-X dev`` turns it on), because its checks add thousands of steps.

On CPython 3.11 (NumPy 2.4) the counts are 680 for a one-frame DECODE,
517 for a 4,096-frame DECODE (it fills a lane, so it flushes inline
and skips the loop turn a lone frame waits for), 985 for an OPEN then
a CLOSE sent together, and 1,904 for a session's lifetime: an OPEN,
a one-frame DECODE and a CLOSE, each sent after the reply to the one
before (2,573 while each session built and folded labelled metric
series).  About half of each count is asyncio and ``json``.  A
pure-asyncio stand-in of these paths ran within 2% of the same step
counts on CPython 3.11, 3.12 and 3.13, so each bound leaves
:data:`HEADROOM` of 5% over its count.  A per-frame Python loop
anywhere on the DECODE path adds at least 4,095 steps to the
4,096-frame request and fails both its bound and
:data:`BULK_EXTRA_STEPS`.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.coding import get_code
from repro.service import CodecServer, protocol
from stepcount import StepCounter

#: Share of a count its bound adds for interpreter differences.
HEADROOM = 0.05

#: Steps each request takes on CPython 3.11, before headroom.
STEPS = {"decode-1": 680, "decode-4096": 517, "open-close": 985, "lifetime": 1904}

#: Most steps a 4,096-frame DECODE may run past a one-frame DECODE.
BULK_EXTRA_STEPS = 16


class _ReplyWriter:
    """A ``StreamWriter`` stand-in: keeps each reply, stops the count at the
    last, and feeds each frame of ``queued`` to ``reader`` after a reply."""

    def __init__(self, counter: StepCounter, replies: int, reader=None, queued=()):
        self.counter = counter
        self.left = replies
        self.replies = []
        self.done = asyncio.get_running_loop().create_future()
        self.reader = reader
        self.queued = list(queued)

    def write(self, data: bytes) -> None:
        self.left -= 1
        if self.left == 0:
            self.counter.stop()
            self.done.set_result(None)
        self.replies.append(data)
        if self.queued:
            self.reader.feed_data(self.queued.pop(0))

    async def drain(self) -> None:
        pass

    def write_eof(self) -> None:
        pass

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


async def _serve(
    server: CodecServer, payloads, counter: StepCounter, in_turn: bool = False
) -> list:
    """Feed ``payloads`` to one connection; the replies, counted by ``counter``.

    The frames go in together, or with ``in_turn`` each after the reply
    to the one before it.
    """
    frames = [protocol.frame_bytes(p) for p in payloads]
    reader = asyncio.StreamReader()
    queued = frames[1:] if in_turn else []
    writer = _ReplyWriter(counter, len(payloads), reader, queued)
    connection = asyncio.ensure_future(server._handle_connection(reader, writer))
    await asyncio.sleep(0)  # the loop now waits for its first frame
    counter.start()
    reader.feed_data(b"".join(frames[:len(frames) - len(queued)]))
    await writer.done
    reader.feed_eof()
    await connection
    return [protocol.parse_response(reply[4:]) for reply in writer.replies]


def _decode(session_id: int, frames: int, request_id: int) -> bytes:
    code = get_code("hamming84")
    rng = np.random.default_rng(frames)
    words = rng.integers(0, 2, (frames, code.n)).astype(np.uint8)
    return protocol.build_request(
        protocol.OP_DECODE, request_id, protocol.build_batch_body(session_id, words)
    )


def _open(seed: int, request_id: int) -> bytes:
    body = protocol.build_json_body({"code": "hamming84", "seed": seed})
    return protocol.build_request(protocol.OP_OPEN, request_id, body)


def _close(session_id: int, request_id: int) -> bytes:
    body = protocol.build_json_body({"session_id": session_id})
    return protocol.build_request(protocol.OP_CLOSE, request_id, body)


def _decode_steps(frames: int) -> int:
    async def scenario():
        server = CodecServer(workers=0)
        session = await server.dispatch(protocol.parse_request(_open(1, 1)))
        session_id = json.loads(session)["session_id"]
        warm = await _serve(server, [_decode(session_id, frames, 2)], StepCounter())
        counter = StepCounter()
        replies = await _serve(server, [_decode(session_id, frames, 3)], counter)
        assert [r.status for r in warm + replies] == [protocol.ST_OK] * 2
        assert replies[0].body == warm[0].body
        return counter.steps

    return asyncio.run(scenario(), debug=False)


def _open_close_steps() -> int:
    async def scenario():
        server = CodecServer(workers=0)
        warm = await _serve(server, [_open(1, 1), _close(1, 2)], StepCounter())
        counter = StepCounter()
        replies = await _serve(server, [_open(2, 3), _close(2, 4)], counter)
        assert [r.status for r in warm + replies] == [protocol.ST_OK] * 4
        assert len(server.registry) == 0
        return counter.steps

    return asyncio.run(scenario(), debug=False)


def _lifetime_steps() -> int:
    async def scenario():
        server = CodecServer(workers=0)

        def lifetime(session_id, seed, request_id):
            return [
                _open(seed, request_id),
                _decode(session_id, 1, request_id + 1),
                _close(session_id, request_id + 2),
            ]

        warm = await _serve(server, lifetime(1, 1, 1), StepCounter(), in_turn=True)
        counter = StepCounter()
        replies = await _serve(server, lifetime(2, 2, 4), counter, in_turn=True)
        assert [r.status for r in warm + replies] == [protocol.ST_OK] * 6
        assert replies[1].body == warm[1].body
        assert len(server.registry) == 0
        return counter.steps

    return asyncio.run(scenario(), debug=False)


def _bound(name: str) -> int:
    return int(STEPS[name] * (1 + HEADROOM))


@pytest.mark.parametrize("frames", [1, 4096])
def test_decode_steps(frames):
    steps = _decode_steps(frames)
    assert 0 < steps <= _bound(f"decode-{frames}"), steps


def test_open_close_steps():
    steps = _open_close_steps()
    assert 0 < steps <= _bound("open-close"), steps


def test_lifetime_steps():
    steps = _lifetime_steps()
    assert 0 < steps <= _bound("lifetime"), steps


def test_bulk_decode_runs_no_per_frame_steps():
    one, bulk = _decode_steps(1), _decode_steps(4096)
    assert bulk <= one + BULK_EXTRA_STEPS, (one, bulk)
