"""Each session's counters are one fixed-width row; the scrape sums them per code.

A :class:`~repro.service.telemetry.ServiceTelemetry` keeps one counter
row per live session and one closed-sessions row per ``code`` label.
The label takes the 12 values that can be built: the 3 base codes,
their interleavings at any depth and the 6 concatenations that build.
These tests drive a local server (``workers=0``) and a pool through
every lane of every code class and check that the scrape does not grow
with live sessions, and that STATS, which reads the same rows, loses no
frame: not one recorded after its session closed, and not a pooled
worker's.
"""

import asyncio
import itertools

import numpy as np
import pytest

from repro.coding.registry import MAX_INTERLEAVE_DEPTH, available_codes
from repro.coding.registry import canonical_code_name, get_code
from repro.errors import CodingError
from repro.obs import metrics
from repro.service import CodecClient, CodecServer, ServiceTelemetry, protocol
from repro.service.session import MAX_SESSIONS
from repro.service.telemetry import code_label

FRONTS = [0, 2]

#: Most bytes a scrape may take per process that serves sessions.
SCRAPE_BUDGET = 64 * 1024

#: Frames one every-lane session sends: encode 3, decode 4, soft 4,
#: stream 3, write 3, partial write 1, read 4 and the 4 lines scrubbed.
FRAMES_PER_SESSION = 26

#: Every-lane sessions opened at once, spread over :data:`CONNECTIONS`.
WAVE = 64
CONNECTIONS = 4


def run(coro, timeout: float = 240.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def _code_classes() -> list:
    """One code per ``code`` label: each base code, its depth-2
    interleaving and every concatenation that builds."""
    bases = available_codes()
    classes = bases + [f"interleaved:{base}:2" for base in bases]
    for outer, inner in itertools.product(bases, repeat=2):
        try:
            get_code(f"concatenated:{outer}:{inner}")
        except CodingError:  # the inner k must divide the outer n
            continue
        classes.append(f"concatenated:{outer}:{inner}")
    return classes


CODE_CLASSES = _code_classes()


async def _every_lane(client: CodecClient, code: str, seed: int):
    """Open a session of ``code`` and send one request on every lane.

    The frames depend on the code alone, so every session of a code
    records the same counters.
    """
    session = await client.open_session(code, seed=seed, stream_depth=2, memory_lines=8)
    rng = np.random.default_rng(CODE_CLASSES.index(code))
    messages = rng.integers(0, 2, (3, session.k), dtype=np.uint8)
    words = rng.integers(0, 2, (4, session.n), dtype=np.uint8)
    confidences = 1.0 - 2.0 * words
    mask = np.zeros((1, session.k), dtype=np.uint8)
    mask[0, 0] = 1
    await session.encode(messages)
    await session.decode(words)
    await session.decode_soft(confidences)
    await session.decode_stream(confidences[:3], 0, final=True)
    await session.mem_write([0, 1, 2], messages)
    await session.mem_write_partial([3], messages[:1], mask)
    await session.mem_read([0, 1, 2, 3])
    await session.mem_scrub(4)
    return session


async def _open_every_lane(clients, codes, first_seed: int = 0) -> list:
    """Every-lane sessions of ``codes``, :data:`WAVE` at a time."""
    sessions = []
    for start in range(0, len(codes), WAVE):
        sessions += await asyncio.gather(*(
            _every_lane(clients[index % len(clients)], code, first_seed + index)
            for index, code in enumerate(codes[start:start + WAVE], start)
        ))
    return sessions


def _series(scrape: str) -> set:
    """Each sample line's name and labels."""
    return {
        line.rsplit(" ", 1)[0]
        for line in scrape.splitlines()
        if line and not line.startswith("#")
    }


def _frames(scrape: str) -> int:
    return sum(
        int(line.rsplit(" ", 1)[1])
        for line in scrape.splitlines()
        if line.startswith("repro_service_frames_total")
    )


def test_every_code_name_has_one_of_twelve_labels():
    names = list(available_codes())
    for base in available_codes():
        names += [f"interleaved:{base}:{depth}" for depth in range(1, MAX_INTERLEAVE_DEPTH + 1)]
    names += [name for name in CODE_CLASSES if name.startswith("concatenated:")]
    labels = {code_label(canonical_code_name(name)) for name in names}
    assert labels == {code_label(name) for name in CODE_CLASSES}
    assert len(labels) == len(CODE_CLASSES) == 12
    assert code_label("interleaved:hamming84:64") == "interleaved:hamming84"


@pytest.mark.parametrize("workers", FRONTS)
def test_the_scrape_does_not_grow_with_live_sessions(workers, monkeypatch):
    """One every-lane session per code class on each serving process,
    then :data:`MAX_SESSIONS` of them: METRICS has the same series and
    stays under :data:`SCRAPE_BUDGET` per serving process."""
    # The budget is the service's own: engine and cache metrics that
    # earlier tests left on this process's default registry, which a
    # pool's forked workers would copy, are not a server's.
    monkeypatch.setattr(metrics, "_DEFAULT_REGISTRY", metrics.MetricsRegistry())

    async def scenario():
        async with CodecServer(workers=workers) as server:
            clients = [await CodecClient.connect(port=server.port) for _ in range(CONNECTIONS)]
            # A pool places new sessions in turn, so each code lands once
            # on every worker.
            few = [code for code in CODE_CLASSES for _ in range(max(workers, 1))]
            await _open_every_lane(clients[:1], few)
            first = await clients[0].metrics()
            rest = MAX_SESSIONS - len(few)
            codes = [CODE_CLASSES[index % len(CODE_CLASSES)] for index in range(rest)]
            await _open_every_lane(clients, codes, first_seed=len(few))
            last = await clients[0].metrics()
            live = len(server.registry)
            for client in clients:
                await client.close()
            return first, last, live

    first, last, live = run(scenario())
    budget = SCRAPE_BUDGET * max(workers, 1)
    assert live == MAX_SESSIONS
    assert len(first.encode()) <= budget and len(last.encode()) <= budget
    assert _series(last) == _series(first)
    assert _frames(last) == MAX_SESSIONS * FRAMES_PER_SESSION
    assert "session=" not in last
    labels = {
        label.split('"')[1] for label in last.split("code=")[1:]
    }
    assert labels == {code_label(name) for name in CODE_CLASSES}


@pytest.mark.parametrize("workers", FRONTS)
def test_a_record_after_close_counts_in_the_totals_only(workers, monkeypatch):
    """A record on a closed session's recorder lands in ``frames_total``
    and never in the row of a session opened after it."""
    late = 7
    drop_session = ServiceTelemetry.drop_session

    def drop_then_record(service, telemetry):
        drop_session(service, telemetry)
        telemetry.record_request("decode", late)

    # Set before the pool forks, so each worker records late too.
    monkeypatch.setattr(ServiceTelemetry, "drop_session", drop_then_record)
    words = np.zeros((5, 8), dtype=np.uint8)

    async def scenario():
        async with CodecServer(workers=workers) as server:
            if server.pool is not None and server.pool.start_method != "fork":
                pytest.skip("workers inherit the patched recorder only by fork")
            client = await CodecClient.connect(port=server.port)
            closed = await client.open_session("hamming84")
            await closed.decode(words)
            await closed.close()
            # Two more, so that one shares the closed session's worker.
            later = [await client.open_session("hamming84") for _ in range(2)]
            for session in later:
                await session.decode(words[:3])
            stats, scrape = await client.stats(), await client.metrics()
            await client.close()
            return [session.session_id for session in later], stats, scrape

    later, stats, scrape = run(scenario())
    assert stats["frames_total"] == _frames(scrape) == 5 + late + 2 * 3
    assert sorted(stats["sessions"]) == sorted(map(str, later))
    for entry in stats["sessions"].values():
        assert entry["frames"] == {"decode": 3}
        assert entry["requests"] == {"decode": 1}


def test_pooled_stats_counts_every_workers_frames():
    """Regression: with 360 every-lane sessions on one worker, its
    telemetry passed the frame cap, and the pool skipped the error reply:
    STATS answered ``frames_total`` 0 and every session's counters 0.

    At :data:`MAX_SESSIONS` the worker's snapshot still fits and METRICS
    counts every frame.  STATS itself is then over the frame cap (~1.2 KB
    per every-lane entry), so it is read once 360 sessions are left.
    """

    async def scenario():
        async with CodecServer(workers=1) as server:
            clients = [await CodecClient.connect(port=server.port) for _ in range(CONNECTIONS)]
            sessions = await _open_every_lane(clients, ["hamming84"] * MAX_SESSIONS)
            scrape = await clients[0].metrics()
            for session in sessions[360:]:
                await session.close()
            stats = await clients[0].stats()
            for client in clients:
                await client.close()
            return scrape, stats

    scrape, stats = run(scenario())
    sent = MAX_SESSIONS * FRAMES_PER_SESSION
    assert _frames(scrape) == sent
    assert stats["frames_total"] == stats["workers"][0]["frames_total"] == sent
    assert len(stats["sessions"]) == 360
    for entry in stats["sessions"].values():
        assert sum(entry["frames"].values()) == FRAMES_PER_SESSION


def test_a_worker_that_cannot_report_fails_the_scrape():
    """An error reply from a ready worker is an ``ST_ERROR`` naming it,
    never a scrape that silently leaves the worker out."""

    async def scenario():
        async with CodecServer(workers=1) as server:
            handle = server.pool.handles[0]
            request = handle.request

            async def refuse_metrics(opcode, body=b"", timeout=None):
                if opcode == protocol.OP_W_METRICS:
                    return protocol.Response(opcode, 0, protocol.ST_ERROR, b"too big")
                return await request(opcode, body, timeout)

            handle.request = refuse_metrics
            client = await CodecClient.connect(port=server.port)
            session = await client.open_session("hamming84")
            await session.decode(np.zeros((2, 8), dtype=np.uint8))
            for scrape in (client.stats, client.metrics):
                with pytest.raises(protocol.ProtocolError, match="decode worker 0.*too big"):
                    await scrape()
            await client.close()

    run(scenario())
