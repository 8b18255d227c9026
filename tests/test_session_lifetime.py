"""A session lives until its CLOSE or the end of the connection that opened it.

Every OPEN builds a new session, owned by the connection that sent it;
when that connection ends, the front closes whatever it opened that is
still live, as CLOSE would.  Any connection may address or close any
live id.  Each test runs against a local server (``workers=0``) and a
2-worker pool, and waits on observable state (the front's session
table), never on a guessed sleep.
"""

import asyncio
import gc
import logging

import numpy as np
import pytest

import chaos
from repro.service import CodecClient, CodecServer, DispatchCore, protocol
from repro.service.batcher import _Lane
from repro.service.memory import MemoryLane
from repro.service.session import CodecSession
from repro.service.stream import StreamLane

FRONTS = [0, 2]

#: Connections that open a session and drop without closing it.
DROPPED = 2000

#: Connections open at once while they are dropped.
WAVE = 50

#: Session lifetimes the every-lane churn runs.
LIFETIMES = 500

#: What a session holds while it lives, in the process that serves it.
SESSION_STATE = (CodecSession, _Lane, StreamLane, MemoryLane)


def run(coro, timeout: float = 60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def _open_body(**config) -> bytes:
    return protocol.build_json_body(config)


async def _open_then_drop(port: int, seed: int, await_reply: bool) -> None:
    """Connect, OPEN a session and drop the connection without CLOSE.

    Without ``await_reply`` the connection may end while the OPEN is
    still being served.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    request = protocol.build_request(
        protocol.OP_OPEN, 1, _open_body(code="hamming84", seed=seed)
    )
    writer.write(protocol.frame_bytes(request))
    if await_reply:
        reply = protocol.parse_response(await protocol.read_frame(reader))
        assert reply.status == protocol.ST_OK, reply.body
    writer.close()
    await writer.wait_closed()


async def _live_everywhere(server: CodecServer) -> dict:
    """The live ids at the front and, in a pool, on each worker itself."""
    live = {"front": sorted(server.registry.table())}
    for handle in server.pool.handles if server.pool is not None else ():
        reply = protocol.parse_json_body((await handle.request(protocol.OP_STATS)).body)
        live[handle.index] = sorted(map(int, reply["sessions"]))
    return live


def _connections(server: CodecServer) -> tuple:
    """The front's (accepted, open) connection counts."""
    values = {
        family["name"]: family["series"][0]["value"]
        for family in server.telemetry.families_snapshot()["families"]
        if family["name"].startswith("repro_service_connections")
    }
    return (
        values["repro_service_connections_total"],
        values["repro_service_connections_open"],
    )


def _series(scrape: str) -> int:
    return sum(1 for line in scrape.splitlines() if line and not line.startswith("#"))


def _session_state(exclude=()) -> list:
    """Every live :data:`SESSION_STATE` object but those in ``exclude``."""
    gc.collect()
    return [
        held for held in gc.get_objects()
        if isinstance(held, SESSION_STATE) and not any(held is old for old in exclude)
    ]


def _decode_frames(scrape: str) -> int:
    return sum(
        int(line.rsplit(" ", 1)[1])
        for line in scrape.splitlines()
        if line.startswith("repro_service_frames_total{") and 'op="decode"' in line
    )


@pytest.mark.parametrize("workers", FRONTS)
def test_dropped_connections_leave_no_session(workers, caplog):
    """Regression: 1,024 connections that opened a session and dropped
    left every session live, and every later OPEN was refused."""

    async def scenario():
        async with CodecServer(workers=workers) as server:
            for first in range(0, DROPPED, WAVE):
                await asyncio.gather(*(
                    _open_then_drop(server.port, seed, await_reply=seed % 4 != 0)
                    for seed in range(first, first + WAVE)
                ))
            # A connection may be dropped before the server accepts it:
            # wait until every one was accepted and has ended.
            await chaos.eventually(lambda: _connections(server) == (DROPPED, 0))
            await chaos.eventually(lambda: len(server.registry) == 0)
            live = await _live_everywhere(server)
            client = await CodecClient.connect(port=server.port)
            status = await client.admin("status")
            later = await client.open_session("hamming84", seed=DROPPED)
            stats = await client.stats()
            await client.close()
            return live, status, later, stats

    with caplog.at_level(logging.ERROR):
        live, status, later, stats = run(scenario())
    assert all(ids == [] for ids in live.values()), live
    assert [w["sessions"] for w in status["workers"]] == [[]] * workers
    assert status["sessions"] == 0
    assert later.session_id >= 1
    assert stats["connections_open"] == 1
    assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []


@pytest.mark.parametrize("workers", FRONTS)
@pytest.mark.parametrize("connections", [1, 2])
def test_two_opens_of_one_config_are_two_sessions(workers, connections):
    """Regression: two opens of one config shared a session.  B read back
    the memory line A wrote, and after A's CLOSE, B's DECODE got
    "unknown session id"."""
    memory = {"code": "hamming84", "seed": 7, "memory_lines": 4}
    noisy = {"code": "hamming84", "p01": 0.2, "p10": 0.2, "seed": 7}
    line = np.array([[1, 0, 1, 1]], dtype=np.uint8)
    messages = np.random.default_rng(3).integers(0, 2, (64, 4), dtype=np.uint8)
    words, reference = chaos.seeded_words("hamming84", frames=8, seed=7)

    async def scenario():
        async with CodecServer(workers=workers) as server:
            clients = [
                await CodecClient.connect(port=server.port) for _ in range(connections)
            ]
            a, b = clients[0], clients[-1]
            a_memory = await a.open_session(**memory)
            b_memory = await b.open_session(**memory)
            await a_memory.mem_write([0], line)
            b_read = await b_memory.mem_read([0])
            a_read = await a_memory.mem_read([0])
            a_noisy = await a.open_session(**noisy)
            b_noisy = await b.open_session(**noisy)
            a_encoded = [await a_noisy.encode(messages) for _ in range(2)]
            b_encoded = await b_noisy.encode(messages)
            await a_memory.close()
            await a_noisy.close()
            b_decoded = [await s.decode(words) for s in (b_memory, b_noisy)]
            live = len(server.registry)
            for client in clients:
                await client.close()
            ids = [s.session_id for s in (a_memory, b_memory, a_noisy, b_noisy)]
            return ids, a_read, b_read, a_encoded, b_encoded, b_decoded, live

    ids, a_read, b_read, a_encoded, b_encoded, b_decoded, live = run(scenario())
    assert ids == [1, 2, 3, 4]
    # Separate memory stores: B reads zeros where A wrote.
    assert np.array_equal(a_read.messages, line)
    assert not b_read.messages.any()
    # Separate injection streams: B's first draw is A's first, not its second.
    assert np.array_equal(b_encoded, a_encoded[0])
    assert not np.array_equal(a_encoded[1], a_encoded[0])
    # A's CLOSE leaves B's sessions serving.
    for block in b_decoded:
        assert np.array_equal(block.messages, reference.messages)
    assert live == 2


@pytest.mark.parametrize("workers", FRONTS)
def test_a_dropped_connections_counters_fold_into_the_totals(workers):
    """The frames a dropped connection's session served stay counted."""
    words, _ = chaos.seeded_words("hamming84", frames=40, seed=11)

    async def scenario():
        async with CodecServer(workers=workers) as server:
            a = await CodecClient.connect(port=server.port)
            b = await CodecClient.connect(port=server.port)
            session = await a.open_session("hamming84", seed=1)
            await session.decode(words)
            before = (await b.stats(), await b.metrics())
            await a.close()
            await chaos.eventually(lambda: len(server.registry) == 0)
            after = (await b.stats(), await b.metrics())
            await b.close()
            return session.session_id, before, after

    session_id, before, after = run(scenario())
    assert list(before[0]["sessions"]) == [str(session_id)]
    assert after[0]["sessions"] == {}
    assert after[0]["frames_total"] == before[0]["frames_total"] == 40
    assert _decode_frames(after[1]) == _decode_frames(before[1]) == 40
    assert f'session="{session_id}"' not in after[1]


def test_a_dropped_connection_closes_through_the_dispatch_core(monkeypatch):
    """At ``workers=0`` an end-of-connection close is a CLOSE: it goes
    through :meth:`DispatchCore.close_session`, which frees the lanes."""
    closed = []
    close_session = DispatchCore.close_session

    def counting(core, session_id):
        closed.append(session_id)
        return close_session(core, session_id)

    monkeypatch.setattr(DispatchCore, "close_session", counting)
    words, _ = chaos.seeded_words("hamming84", frames=4, seed=2)

    async def scenario():
        async with CodecServer(workers=0) as server:
            client = await CodecClient.connect(port=server.port)
            session = await client.open_session("hamming84", seed=1)
            await session.decode(words)
            served = server.registry.get(session.session_id)
            await client.close()
            await chaos.eventually(lambda: len(server.registry) == 0)
            return session.session_id, len(served.lanes)

    session_id, lanes = run(scenario())
    assert (closed, lanes) == ([session_id], 0)


@pytest.mark.parametrize("workers", FRONTS)
def test_a_disconnect_closes_only_what_its_connection_opened(workers):
    """A session closed from another connection leaves its opener's set.

    A opens a session, B closes it, and B's next OPEN is born under the
    same id; dropping A must not close B's session.  Then 2,000
    sessions opened on A and closed from B leave nothing in A's set.
    """
    words, reference = chaos.seeded_words("hamming84", frames=8, seed=5)
    cycles, batch = 2000, 100

    async def scenario():
        async with CodecServer(workers=workers) as server:
            a = await CodecClient.connect(port=server.port)
            b = await CodecClient.connect(port=server.port)
            first = await a.open_session("hamming84", seed=1)
            await b.close_session(first.session_id)
            server.registry._next_id = first.session_id
            reborn = await b.open_session("hamming84", seed=2)
            other = await a.open_session("hamming84", seed=3)
            await a.close()
            await chaos.eventually(lambda: len(server.registry) == 1)
            block = await reborn.decode(words)

            a = await CodecClient.connect(port=server.port)
            for start in range(0, cycles, batch):
                # Pipelined: a batch of opens on A, then their closes on B.
                opens = [
                    await a.send_request(
                        protocol.OP_OPEN, _open_body(code="rm13", seed=seed)
                    )
                    for seed in range(start, start + batch)
                ]
                closes = []
                for reply in opens:
                    reply = (await reply).raise_for_status()
                    session_id = protocol.parse_json_body(reply.body)["session_id"]
                    body = protocol.build_json_body({"session_id": session_id})
                    closes.append(await b.send_request(protocol.OP_CLOSE, body))
                for reply in closes:
                    (await reply).raise_for_status()
            kept = await a.open_session("rm13", seed=cycles)
            owned = set(server.registry.get(kept.session_id).owner)
            await a.close()
            await chaos.eventually(lambda: len(server.registry) == 1)
            await b.close()
            return first, reborn, other, block, kept, owned

    first, reborn, other, block, kept, owned = run(scenario())
    assert reborn.session_id == first.session_id != other.session_id
    assert np.array_equal(block.messages, reference.messages)
    assert owned == {kept.session_id}


@pytest.mark.parametrize("workers", FRONTS)
def test_churn_through_every_lane_leaves_nothing_behind(workers):
    """Session churn through every lane leaves no state behind.

    Each of :data:`LIFETIMES` connections opens a hamming84 session with
    a stream window and a memory store, and sends ENCODE, DECODE,
    DECODE_SOFT, a final stream push, a whole and a partial MEM_WRITE,
    MEM_READ and MEM_SCRUB.  Even lifetimes end with CLOSE, odd ones by
    dropping their connection.  Afterwards no session is live at the
    front or on any worker, the scrape has the series it had once every
    worker had served one lifetime (the first lifetime places on worker
    0, the second on worker 1), STATS counts every frame sent, and the
    serving process holds no session, batch lane, stream lane or memory
    lane.
    """
    rng = np.random.default_rng(4)
    messages = rng.integers(0, 2, (3, 4), dtype=np.uint8)
    words, _ = chaos.seeded_words("hamming84", frames=4, seed=4)
    confidences = 1.0 - 2.0 * words
    mask = np.array([[1, 0, 0, 1]], dtype=np.uint8)
    # encode 3, decode 4, soft 4, stream 3, write 3, partial write 1,
    # read 4, and the 4 lines the scrub sweeps.
    frames_per_lifetime = 26

    async def lifetime(port, index):
        client = await CodecClient.connect(port=port)
        session = await client.open_session(
            "hamming84", seed=index, stream_depth=2, memory_lines=8
        )
        await session.encode(messages)
        await session.decode(words)
        await session.decode_soft(confidences)
        await session.decode_stream(confidences[:3], 0, final=True)
        await session.mem_write([0, 1, 2], messages)
        await session.mem_write_partial([3], messages[:1], mask)
        await session.mem_read([0, 1, 2, 3])
        await session.mem_scrub(4)
        reply = await session.close() if index % 2 == 0 else None
        await client.close()
        return reply

    async def scenario():
        async with CodecServer(workers=workers) as server:
            observer = await CodecClient.connect(port=server.port)
            first = await lifetime(server.port, 0)
            for index in range(1, max(workers, 1)):
                await lifetime(server.port, index)
            await chaos.eventually(lambda: len(server.registry) == 0)
            series = _series(await observer.metrics())
            for index in range(max(workers, 1), LIFETIMES):
                await lifetime(server.port, index)
            await chaos.eventually(lambda: len(server.registry) == 0)
            live = await _live_everywhere(server)
            status = await observer.admin("status")
            after = _series(await observer.metrics())
            stats = await observer.stats()
            held = _session_state(exclude=before)
            await observer.close()
            return first, series, live, status, after, stats, held

    before = _session_state()
    first, series, live, status, after, stats, held = run(scenario())
    assert first["lanes_closed"] == 3
    assert first["stream_closed"] and first["memory_closed"]
    assert all(ids == [] for ids in live.values()), live
    assert status["sessions"] == 0
    assert [w["sessions"] for w in status["workers"]] == [[]] * workers
    assert after == series
    assert stats["frames_total"] == LIFETIMES * frames_per_lifetime
    assert held == []
