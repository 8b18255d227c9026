"""Worker-pool codec service: routing, rollup, and chaos drills.

The contract under test is the strongest one the service makes: with N
worker processes, under worker crashes, graceful drains, SIGKILLs,
delayed flushes and malformed frames, every decoded frame the client
receives is bit-identical to calling ``decode_batch_detailed`` directly,
and no session is ever lost.  All chaos is deterministic — deaths are
request-count-triggered (:class:`~repro.service.WorkerFaults`), inputs
are seeded (:mod:`chaos` helpers), and waits poll observable state
instead of sleeping a guessed length.
"""

import asyncio
import bisect
import contextlib
import logging
import os
import struct
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaos
from repro.errors import SessionError, ServiceError
from repro.service import (
    CodecClient,
    CodecServer,
    SessionConfig,
    SessionRegistry,
    WorkerDied,
    WorkerFaults,
    WorkerPool,
    make_scenario,
    run_scenario,
)
from repro.service import ServiceTelemetry, protocol, stats_view
from repro.service.telemetry import LATENCY_BUCKETS_US, merge_telemetry

#: Hard wall-clock bound on every async scenario in this file (chaos
#: scenarios spawn and reap real processes, so the bound is generous).
SCENARIO_TIMEOUT_S = 60.0


def run(coro, timeout: float = SCENARIO_TIMEOUT_S):
    async def bounded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(bounded())


# ---------------------------------------------------------------------
# Protocol and registry additions
# ---------------------------------------------------------------------
class TestPoolPlumbing:
    def test_peek_batch_header(self):
        bits = np.ones((7, 8), dtype=np.uint8)
        body = protocol.build_batch_body(42, bits)
        assert protocol.peek_batch_header(body) == (42, 7)
        with pytest.raises(protocol.ProtocolError, match="too short"):
            protocol.peek_batch_header(b"\x00")

    def test_registry_forced_id_open(self):
        registry = SessionRegistry()
        session = registry.open(SessionConfig(code="hamming84"), session_id=17)
        assert session.session_id == 17
        # Fresh allocations continue past the forced id.
        other = registry.open(SessionConfig(code="hamming74"))
        assert other.session_id == 18
        # A live id is refused, whatever the config.
        for config, session_id in (("hamming84", 17), ("rm13", 18)):
            with pytest.raises(SessionError, match="already bound"):
                registry.open(SessionConfig(code=config), session_id=session_id)
        assert len(registry) == 2


# ---------------------------------------------------------------------
# Pool basics
# ---------------------------------------------------------------------
class TestWorkerPoolBasics:
    def test_single_worker_pool_is_bit_identical(self):
        # N=1 degenerate pool: every session routes to worker 0 and the
        # results must match direct decode_batch_detailed exactly.
        words, reference = chaos.seeded_words("hamming84", frames=40, seed=5)

        async def scenario():
            async with CodecServer(workers=1) as server:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84")
                block = await session.decode(words)
                stats = await client.stats()
                await client.close()
                return block, stats

        block, stats = run(scenario())
        assert np.array_equal(block.messages, reference.messages)
        assert np.array_equal(block.corrected_errors, reference.corrected_errors)
        assert np.array_equal(
            block.detected_uncorrectable, reference.detected_uncorrectable
        )
        assert stats["mode"] == "pool"
        assert len(stats["workers"]) == 1
        assert stats["frames_total"] == 40

    def test_soft_decode_through_pool_matches_direct(self):
        words, reference = chaos.seeded_words("hamming74", frames=24, seed=9, p=0.0)
        rng = np.random.default_rng(10)
        confidences = (1.0 - 2.0 * words.astype(np.float64)) * rng.uniform(
            0.2, 1.0, words.shape
        )
        # Round-trip the float32 wire quantisation for the reference.
        quantised = confidences.astype(">f4").astype(np.float64)
        from repro.coding.decoders import default_decoder_for
        from repro.coding.registry import get_code

        direct = default_decoder_for(get_code("hamming74")).decode_soft_batch_detailed(
            quantised
        )

        async def scenario():
            async with CodecServer(workers=2) as server:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming74")
                block = await session.decode_soft(confidences)
                await client.close()
                return block

        block = run(scenario())
        assert np.array_equal(block.messages, direct.messages)

    def test_sessions_route_by_load_and_a_reopen_is_new(self):
        # Each new session goes to the worker with the fewest live
        # sessions, ties rotating from the last pick.
        expected = [0, 1, 2, 0, 1, 2]

        async def scenario():
            async with CodecServer(workers=3) as server:
                client = await CodecClient.connect(port=server.port)
                infos = [
                    await client.open_session("hamming84", seed=i) for i in range(6)
                ]
                # Reopening an open config opens a new session, placed
                # like any other: a three-way tie after worker 2 picks 0.
                reopened = await client.open_session("hamming84", seed=0)
                status = await client.admin("status")
                await client.close()
                return infos, reopened, status

        infos, reopened, status = run(scenario())
        assert [s.session_id for s in infos] == [1, 2, 3, 4, 5, 6]
        assert (reopened.session_id, reopened.info["worker"]) == (7, 0)
        assert [info.info["worker"] for info in infos] == expected
        by_worker = {w["index"]: w["sessions"] for w in status["workers"]}
        for worker, info in zip(expected + [0], infos + [reopened]):
            assert info.session_id in by_worker[worker]

    @pytest.mark.parametrize("workers", [0, 1])
    def test_bad_configs_and_unknown_sessions_stay_clean_errors(self, workers):
        """Regression: at workers=0 the refused open used up id 1, and an
        unknown code or decoder came back in literal double quotes."""

        async def scenario():
            async with CodecServer(workers=workers) as server:
                client = await CodecClient.connect(port=server.port)
                for fields in ({"code": "golay"},
                               {"code": "hamming84", "decoder": "nope"}):
                    with pytest.raises(protocol.ProtocolError) as refused:
                        await client.open_session(**fields)
                    text = str(refused.value).split(": ", 1)[1]
                    assert text.startswith("unknown"), text
                # Data plane for a session nobody opened.
                body = protocol.build_batch_body(
                    99, np.zeros((1, 8), dtype=np.uint8)
                )
                with pytest.raises(
                    protocol.ProtocolError, match="unknown session id 99"
                ):
                    await client.request(protocol.OP_DECODE, body)
                # The connection survived both errors.
                session = await client.open_session("hamming84")
                assert session.session_id == 1
                await client.close()

        run(scenario())

    @pytest.mark.parametrize("workers", [0, 1])
    def test_bad_open_and_close_fields_are_client_errors(self, workers, caplog):
        """Regression: these bodies got "internal error" and an ERROR log,
        or were coerced into a different config or session id.

        Bare ``int()``/``float()`` conversions, a channel built outside
        the config guard and a NaN that passed the probability range
        test let client mistakes escape as server faults.  Coercion
        opened ``"stream_depth": 1.7`` at depth 1, and a CLOSE naming
        ``1.5``, ``"1"`` or ``true`` closed session 1.
        """
        bad_opens = [
            {"p01": "x"}, {"seed": "x"}, {"stream_shift": "a"},
            {"memory_rot": "z"}, {"stream_depth": [1]}, {"p01": 2.0},
            {"p01": -0.5}, {"p01": float("nan")},
            {"stream_deadline_us": float("nan"), "stream_depth": 2},
            {"stream_depth": 1.7}, {"seed": 1.5}, {"seed": True},
            {"p01": True}, {"p01": "0.1"}, {"memory_lines": 8.0},
            {"decoder": 5}, {"code": 1},
            {"stream_deadline_us": float("inf"), "stream_depth": 2},
        ]
        bad_closes = [
            {"session_id": "x"}, {"session_id": 1.5}, {"session_id": "1"},
            {"session_id": True},
        ]
        words, reference = chaos.seeded_words("hamming84", frames=4, seed=2)

        async def scenario():
            async with CodecServer(workers=workers) as server:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84")
                requests = [(protocol.OP_OPEN, {"code": "hamming84", **fields})
                            for fields in bad_opens]
                requests += [(protocol.OP_CLOSE, fields) for fields in bad_closes]
                replies = []
                for opcode, fields in requests:
                    body = protocol.build_json_body(fields)
                    future = await client.send_request(opcode, body)
                    replies.append(await future)
                # The connection still serves, session 1 is still open,
                # and no id was used up.
                other = await client.open_session("hamming74")
                block = await session.decode(words)
                live = len(server.registry)
                await client.close()
                return replies, other.session_id, block, live

        with caplog.at_level(logging.ERROR):
            replies, other_id, block, live = run(scenario())
        for fields, reply in zip(bad_opens + bad_closes, replies):
            message = reply.body.decode("utf-8")
            assert reply.status == protocol.ST_ERROR, fields
            assert "internal error" not in message, (fields, message)
            assert next(iter(fields)) in message, (fields, message)
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
        assert (other_id, live) == (2, 2)
        assert np.array_equal(block.messages, reference.messages)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_configs_that_serve_alike_open_alike_at_both_fronts(self, workers):
        """Regression: a pool refused the second OPEN ("config already
        open as session 1, cannot reopen as 2") and used up id 2; a local
        server opened two sessions.  ``stream_shift`` means nothing
        without ``stream_depth``; every open is a new session, so both
        fronts open four."""

        async def scenario():
            async with CodecServer(workers=workers) as server:
                client = await CodecClient.connect(port=server.port)
                ids = []
                for fields in (
                    {"code": "hamming84", "seed": 1, "stream_shift": 0},
                    {"code": "hamming84", "seed": 1},
                    {"code": "hamming84", "seed": 1, "stream_deadline_us": 9.0},
                    {"code": "hamming84", "seed": 2},
                ):
                    response = await client.request(
                        protocol.OP_OPEN, protocol.build_json_body(fields)
                    )
                    ids.append(protocol.parse_json_body(response.body)["session_id"])
                live = len(server.registry)
                await client.close()
                return ids, live

        assert run(scenario()) == ([1, 2, 3, 4], 4)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_a_stream_window_past_the_bound_is_refused_at_open(self, workers):
        """Regression: depth and shift 10^9 opened and reported a span of
        999999999000000000 frames, a window no server can hold."""
        huge = {"code": "hamming84", "stream_depth": 10**9, "stream_shift": 10**9}

        async def scenario():
            async with CodecServer(workers=workers) as server:
                client = await CodecClient.connect(port=server.port)
                refused = await (
                    await client.send_request(
                        protocol.OP_OPEN, protocol.build_json_body(huge)
                    )
                )
                session = await client.open_session(
                    "hamming84", stream_depth=64, stream_shift=64
                )
                live = len(server.registry)
                await client.close()
                return refused, session, live

        refused, session, live = run(scenario())
        assert refused.status == protocol.ST_ERROR
        assert "MAX_STREAM_WINDOW_VALUES" in refused.body.decode("utf-8")
        # The refused OPEN used up no id.
        assert (session.session_id, live) == (1, 1)
        assert session.info["stream_span"] == 63 * 64

    @pytest.mark.parametrize("workers", [0, 1])
    def test_malformed_data_body_counts_one_protocol_error(self, workers):
        """Regression: a pool answered a body one byte short with an
        error but counted no protocol error; a local server counted one."""

        async def scenario():
            async with CodecServer(workers=workers) as server:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84")
                words = np.zeros((3, 8), dtype=np.uint8)
                body = protocol.build_batch_body(session.session_id, words)[:-1]
                with pytest.raises(
                    protocol.ProtocolError, match="expected 3 packed bytes"
                ):
                    await client.request(protocol.OP_DECODE, body)
                stats = await client.stats()
                scrape = await client.metrics()
                await client.close()
                return stats, scrape

        stats, scrape = run(scenario())
        assert stats["protocol_errors"] == 1
        scraped = sum(
            float(line.rsplit(" ", 1)[1])
            for line in scrape.splitlines()
            if line.startswith("repro_service_protocol_errors_total")
        )
        assert scraped == 1

    def test_timed_out_worker_request_leaves_nothing_in_flight(self):
        """A request the pool stops waiting for is dropped from the pipe's
        in-flight map, and its late reply harms nothing."""
        words, reference = chaos.seeded_words("hamming84", frames=2, seed=6)

        async def scenario():
            faults = WorkerFaults(request_delay_us=200_000.0)
            async with CodecServer(workers=1, faults=faults) as server:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84")
                handle = server.pool.handles[0]
                body = protocol.build_batch_body(session.session_id, words)
                with pytest.raises(WorkerDied, match="did not answer"):
                    await handle.request(protocol.OP_DECODE, body, timeout=0.02)
                left = dict(handle.client._inflight)
                block = await session.decode(words)
                await client.close()
                return left, block

        left, block = run(scenario())
        assert left == {}
        assert np.array_equal(block.messages, reference.messages)

    def test_cancelled_open_leaves_no_session_on_the_worker_alone(self):
        """Regression: an opener cancelled once its OP_W_OPEN was on the
        pipe dropped the session at the front while the worker built it,
        so every later open of that config was refused.  The front and
        the worker must agree on what is live."""

        async def scenario():
            async with CodecServer(workers=1) as server:
                config = SessionConfig(code="hamming84", seed=1)
                opener = asyncio.ensure_future(server.pool.open_session(config))
                client = server.pool.handles[0].client
                send_request = client.send_request

                async def send_then_cancel(opcode, body=b""):
                    future = await send_request(opcode, body)
                    opener.cancel()
                    return future

                client.send_request = send_then_cancel
                with pytest.raises(asyncio.CancelledError):
                    await opener
                client.send_request = send_request
                other = await server.pool.open_session(SessionConfig(code="rm13"))
                again = await server.pool.open_session(config)
                worker = await server.pool.handles[0].request(protocol.OP_STATS)
                on_worker = protocol.parse_json_body(worker.body)["sessions"]
                front = server.registry.table()
                return other, again, sorted(front), sorted(map(int, on_worker))

        other, again, front, on_worker = run(scenario())
        assert (other["session_id"], again["session_id"]) == (2, 3)
        assert front == on_worker == [1, 2, 3]

    def test_cancelled_close_still_closes_at_the_front(self):
        """Regression: a closer cancelled once its CLOSE was on the pipe
        left the session at the front, closed on the worker: no later
        CLOSE could remove it, and it still counted toward the limit."""

        async def scenario():
            async with CodecServer(workers=1) as server:
                config = SessionConfig(code="hamming84", seed=1)
                session_id = (await server.pool.open_session(config))["session_id"]
                closer = asyncio.ensure_future(server.pool.close_session(session_id))
                client = server.pool.handles[0].client
                send_request = client.send_request

                async def send_then_cancel(opcode, body=b""):
                    future = await send_request(opcode, body)
                    closer.cancel()
                    return future

                client.send_request = send_then_cancel
                with pytest.raises(asyncio.CancelledError):
                    await closer
                client.send_request = send_request
                await chaos.eventually(lambda: len(server.registry) == 0)
                worker = await server.pool.handles[0].request(protocol.OP_STATS)
                return server.pool.status(), protocol.parse_json_body(worker.body)

        status, on_worker = run(scenario())
        assert status["workers"][0]["sessions"] == []
        assert on_worker["sessions"] == {}

    @pytest.mark.parametrize("workers", [0, 2])
    def test_session_churn_keeps_every_table_bounded(self, workers):
        """Open, decode one frame, close: 300 times, local and pooled."""
        lifetimes = 300
        words, reference = chaos.seeded_words("hamming84", frames=lifetimes, seed=8)

        def series(scrape):
            return sum(
                1 for line in scrape.splitlines() if line and not line.startswith("#")
            )

        async def scenario():
            async with CodecServer(workers=workers) as server:
                client = await CodecClient.connect(port=server.port)
                served, blocks, live = set(), [], []
                baseline = None
                for seed in range(lifetimes):
                    session = await client.open_session("hamming84", seed=seed)
                    live.append(len(server.registry))
                    blocks.append(await session.decode(words[seed:seed + 1]))
                    await session.close()
                    served.add(session.info.get("worker"))
                    if baseline is None and len(served) == max(workers, 1):
                        baseline = series(await client.metrics())
                last = series(await client.metrics())
                stats = await client.stats()
                status = await client.admin("status")
                remaining = len(server.registry)
                await client.close()
                return blocks, live, baseline, last, stats, status, remaining

        blocks, live, baseline, last, stats, status, remaining = run(scenario())
        assert live == [1] * lifetimes
        assert remaining == 0
        assert status["sessions"] == 0
        assert [w["sessions"] for w in status["workers"]] == [[]] * workers
        assert stats["sessions"] == {}
        assert stats["frames_total"] == lifetimes
        assert baseline is not None and last == baseline
        got = np.concatenate([b.messages for b in blocks])
        corrected = np.concatenate([b.corrected_errors for b in blocks])
        assert np.array_equal(got, reference.messages)
        assert np.array_equal(corrected, reference.corrected_errors)

    def test_admin_validation_errors(self):
        async def scenario():
            async with CodecServer(workers=2) as server:
                client = await CodecClient.connect(port=server.port)
                with pytest.raises(protocol.ProtocolError, match="out of range"):
                    await client.admin("restart", worker=7)
                with pytest.raises(protocol.ProtocolError, match="integer"):
                    await client.admin("kill")
                with pytest.raises(protocol.ProtocolError, match="unknown admin"):
                    await client.admin("explode", worker=0)
                await client.close()

        run(scenario())

    def test_admin_on_local_server(self):
        # status degrades gracefully without a pool; mutations are refused.
        async def scenario():
            async with CodecServer() as server:
                client = await CodecClient.connect(port=server.port)
                await client.open_session("hamming84")
                status = await client.admin("status")
                with pytest.raises(
                    protocol.ProtocolError, match="requires a worker pool"
                ):
                    await client.admin("restart", worker=0)
                await client.close()
                return status

        status = run(scenario())
        assert status == {"mode": "local", "sessions": 1, "workers": []}

    def test_pool_rejects_invalid_sizes(self):
        with pytest.raises(ValueError, match="at least one worker"):
            WorkerPool(0)

    def test_workers_serve_their_sessions_concurrently(self):
        """Two sessions on two workers decode side by side.

        Every data request sleeps 200 ms in its worker before it is
        served.  Served concurrently, two DECODEs routed to different
        workers finish in one delay; anything that serialises forwards
        in the front or the pool makes them take two.  Unlike a speedup
        against one worker, this holds on a box with fewer cores than
        workers, because sleeping workers need no CPU.
        """
        delay_s = 0.2
        words, reference = chaos.seeded_words("hamming84", frames=16, seed=41)

        async def scenario():
            faults = WorkerFaults(request_delay_us=delay_s * 1e6)
            async with CodecServer(workers=2, faults=faults) as server:
                client = await CodecClient.connect(port=server.port)
                sessions = [
                    await client.open_session("hamming84", seed=s) for s in (0, 1)
                ]
                # One round first, so the timed round pays no first-call cost.
                await asyncio.gather(*(s.decode(words) for s in sessions))
                started = time.perf_counter()
                blocks = await asyncio.gather(*(s.decode(words) for s in sessions))
                elapsed = time.perf_counter() - started
                await client.close()
                return sessions, blocks, elapsed

        sessions, blocks, elapsed = run(scenario())
        assert sorted(s.info["worker"] for s in sessions) == [0, 1]
        for block in blocks:
            assert np.array_equal(block.messages, reference.messages)
        assert elapsed < 1.5 * delay_s, f"{elapsed:.3f} s for two workers"

    def test_forward_to_a_ready_worker_enters_no_wait_for(self):
        """Regression: every forward awaited ``asyncio.wait_for`` on the
        worker's ready event, ~23 µs of CPU each, even when it was set.

        Counts the ``wait_for`` frames begun (:func:`sys.setprofile`, as
        ``tests/test_batch_work.py`` counts calls) while N DECODEs are
        forwarded to a ready worker; the count is exact.
        """
        decodes = 16
        words, reference = chaos.seeded_words("hamming84", frames=decodes, seed=12)
        wait_for = asyncio.wait_for.__code__
        begun = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is wait_for:
                begun.add(frame)

        async def scenario():
            async with CodecServer(workers=1) as server:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84")
                await session.decode(words[:1])  # warm up the whole path
                previous = sys.getprofile()
                sys.setprofile(profile)
                try:
                    blocks = [await session.decode(words[i:i + 1]) for i in range(decodes)]
                finally:
                    sys.setprofile(previous)
                await client.close()
                return blocks

        blocks = run(scenario())
        got = np.concatenate([block.messages for block in blocks])
        assert np.array_equal(got, reference.messages)
        assert len(begun) == 0


# ---------------------------------------------------------------------
# STATS view against an event-log oracle
# ---------------------------------------------------------------------
_OPS = ("encode", "decode", "decode_soft", "mem_read")
_SLOT = st.integers(0, 7)
_EVENTS = st.one_of(
    st.tuples(st.just("open"), st.integers(0, 2), st.sampled_from(["hamming84", "rm13"])),
    st.tuples(st.just("close"), _SLOT),
    st.tuples(st.just("request"), _SLOT, st.sampled_from(_OPS), st.integers(0, 40)),
    st.tuples(
        st.just("batch"), _SLOT, st.sampled_from(_OPS), st.integers(1, 300),
        st.sampled_from(["size", "turn", "close", "drain"]),
    ),
    st.tuples(
        st.just("latency"), _SLOT, st.sampled_from(_OPS),
        st.floats(0.0, 2e7, allow_nan=False),
    ),
    st.tuples(
        st.just("outcome"), _SLOT,
        st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=6),
        st.booleans(),
    ),
    st.tuples(
        st.just("stream"), _SLOT, st.sampled_from(["ontime", "forced", "flushed"]),
        st.integers(0, 5),
    ),
    st.tuples(
        st.just("memory"), _SLOT, st.sampled_from(["read", "rmw", "scrub"]),
        st.tuples(*[st.integers(0, 9)] * 4),
    ),
    st.tuples(st.just("scrub"), _SLOT, st.tuples(*[st.integers(0, 9)] * 3)),
)


def _replay(n_workers, events):
    """Drive ``n_workers`` telemetries through ``events``; log what landed."""
    services = [ServiceTelemetry() for _ in range(n_workers)]
    live, log, next_id = {}, [], 1
    for kind, *args in events:
        if kind == "open":
            worker = args[0] % n_workers
            live[next_id] = (worker, services[worker].session(next_id, args[1]))
            next_id += 1
            continue
        if not live:
            continue
        sid = sorted(live)[args[0] % len(live)]
        worker, telemetry = live[sid]
        args = args[1:]
        if kind == "close":
            services[worker].drop_session(telemetry)
            del live[sid]
            continue
        if kind == "request":
            telemetry.record_request(*args)
        elif kind == "batch":
            telemetry.record_batch(*args)
        elif kind == "latency":
            telemetry.record_latency_us(args[1], args[0])
        elif kind == "outcome":
            rows = np.array(args[0], dtype=np.int64).reshape(-1, 2)
            telemetry.record_decode_outcome(
                rows[:, 0], rows[:, 1].astype(bool), soft=args[1]
            )
        elif kind == "stream":
            telemetry.record_stream_decisions(*args)
        elif kind == "memory":
            telemetry.record_memory_counts(args[0], *args[1])
        else:
            telemetry.record_memory_scrub(*args[0])
        log.append((sid, worker, kind, args))
    return services, live, log


def _tally(log, kind, key, amount):
    """Sum ``amount(args)`` per ``key(args)`` over ``kind`` events (nonzero)."""
    totals = {}
    for _, _, event_kind, args in log:
        if event_kind == kind:
            totals[key(args)] = totals.get(key(args), 0) + amount(args)
    return {k: v for k, v in totals.items() if v}


def _oracle_latency(log):
    counts = [0] * (len(LATENCY_BUCKETS_US) + 1)
    for _, _, kind, args in log:
        if kind == "latency":
            counts[bisect.bisect_left(LATENCY_BUCKETS_US, args[1])] += 1
    return counts


def _oracle_memory(log):
    paths = {
        field: _tally(log, "memory", lambda a: a[0], lambda a, i=i: a[1][i])
        for i, field in enumerate(("ops", "sec", "ded", "corrected_bits"))
    }
    scrub = [sum(a[0][i] for _, _, k, a in log if k == "scrub") for i in range(3)]
    return {
        "sec_total": sum(paths["sec"].values()),
        "ded_total": sum(paths["ded"].values()),
        "corrected_bits_total": sum(paths["corrected_bits"].values()),
        "scrubbed_lines": scrub[0],
        "repaired_lines": scrub[1],
        "rot_bits": scrub[2],
    }, paths


def _oracle_outcomes(log):
    totals = dict.fromkeys(
        ["corrected", "detected", "accepted", "bits", "soft", "soft_corrected"], 0
    )
    for _, _, kind, args in log:
        if kind != "outcome":
            continue
        rows, soft = args
        for corrected, detected in rows:
            repaired = corrected > 0 and not detected
            totals["corrected"] += repaired
            totals["detected"] += detected
            totals["accepted"] += not detected and corrected == 0
            totals["bits"] += corrected
            totals["soft"] += soft
            totals["soft_corrected"] += soft and repaired
    return totals


class TestStatsView:
    @settings(max_examples=60, deadline=None)
    @given(n_workers=st.integers(1, 3), events=st.lists(_EVENTS, max_size=60))
    def test_stats_equal_sums_over_the_event_log(self, n_workers, events):
        services, live, log = _replay(n_workers, events)
        merged = merge_telemetry(
            [service.metrics_snapshot() for service in services],
            [str(i) for i in range(n_workers)],
        )
        sessions = {
            sid: {"config": f"config-{sid}", "uptime_s": 1.0, "worker": worker}
            for sid, (worker, _) in live.items()
        }
        workers = [
            {
                "index": i, "pid": 100 + i, "restarts": 0, "ready": True,
                "uptime_s": 2.0,
                "sessions": sorted(s for s, (w, _) in live.items() if w == i),
            }
            for i in range(n_workers)
        ]
        stats = stats_view(merged, sessions, 4.0, workers)
        frames = lambda entries: _tally(  # noqa: E731
            entries, "request", lambda a: a[0], lambda a: a[1]
        )

        # Totals include every session ever recorded, closed ones too.
        assert stats["frames_total"] == sum(frames(log).values())
        assert stats["mode"] == "pool"
        for worker in stats["workers"]:
            mine = [entry for entry in log if entry[1] == worker["index"]]
            assert worker["frames_total"] == sum(frames(mine).values())
            assert worker["flush_reasons"] == _tally(
                mine, "batch", lambda a: a[2], lambda a: 1
            )
            assert worker["memory"] == _oracle_memory(mine)[0]
            latency = _oracle_latency(mine)
            assert worker["latency"]["buckets"] == latency
            assert worker["latency"]["samples"] == sum(latency)
            assert worker["sessions"] == workers[worker["index"]]["sessions"]

        # Live sessions only, each exactly its own events.
        assert set(stats["sessions"]) == {str(sid) for sid in live}
        for sid, (worker, _) in live.items():
            entry = stats["sessions"][str(sid)]
            mine = [e for e in log if e[0] == sid]
            outcomes = _oracle_outcomes(mine)
            memory, paths = _oracle_memory(mine)
            reasons = _tally(mine, "batch", lambda a: a[2], lambda a: 1)
            batch_sizes = [a[1] for _, _, k, a in mine if k == "batch"]
            decisions = _tally(mine, "stream", lambda a: a[0], lambda a: a[1])
            assert entry["worker"] == worker
            assert entry["config"] == f"config-{sid}"
            assert entry["requests"] == _tally(
                mine, "request", lambda a: a[0], lambda a: 1
            )
            assert entry["frames"] == frames(mine)
            assert entry["corrected_frames"] == outcomes["corrected"]
            assert entry["detected_frames"] == outcomes["detected"]
            assert entry["accepted_frames"] == outcomes["accepted"]
            assert entry["corrected_bits"] == outcomes["bits"]
            assert entry["soft_decoded_frames"] == outcomes["soft"]
            assert entry["soft_corrected_frames"] == outcomes["soft_corrected"]
            assert entry["batches"] == sum(reasons.values())
            assert entry["flush_reasons"] == reasons
            assert entry["max_batch_frames"] == max(batch_sizes, default=0)
            assert entry["latency"]["buckets"] == _oracle_latency(mine)
            assert entry["stream"]["decisions"] == decisions
            assert entry["stream"]["deadline_misses"] == decisions.get("forced", 0)
            assert entry["memory"] == dict(
                memory,
                paths={
                    path: {f: counts.get(path, 0) for f, counts in paths.items()}
                    for path in ("read", "rmw", "scrub")
                },
            )


# ---------------------------------------------------------------------
# Telemetry rollup against a live pool
# ---------------------------------------------------------------------
class TestStatsRollup:
    def test_rollup_equals_sum_of_worker_counters(self):
        decodes_per_session = {0: 6, 1: 3, 2: 9}

        async def scenario():
            async with CodecServer(workers=3) as server:
                client = await CodecClient.connect(port=server.port)
                sessions = {
                    seed: await client.open_session("hamming84", seed=seed)
                    for seed in decodes_per_session
                }
                rng = np.random.default_rng(0)
                for seed, session in sessions.items():
                    for _ in range(decodes_per_session[seed]):
                        words = rng.integers(
                            0, 2, size=(4, 8), dtype=np.uint8
                        )
                        await session.decode(words)
                stats = await client.stats()
                await client.close()
                return stats

        stats = run(scenario())
        total_decodes = 4 * sum(decodes_per_session.values())
        assert stats["frames_total"] == total_decodes
        # The headline counter is exactly the sum of per-worker counters.
        assert stats["frames_total"] == sum(
            w["frames_total"] for w in stats["workers"]
        )
        # And the per-session entries point at their recorded worker.
        for sid, entry in stats["sessions"].items():
            owners = [
                w["index"] for w in stats["workers"] if int(sid) in w["sessions"]
            ]
            assert owners == [entry["worker"]]
        # Each worker summary's flush reasons and latency are exactly the
        # sums of its sessions' counters (bucket merging is lossless).
        for worker in stats["workers"]:
            owned = [
                entry
                for sid, entry in stats["sessions"].items()
                if entry["worker"] == worker["index"]
            ]
            reasons = {}
            for entry in owned:
                for reason, count in entry["flush_reasons"].items():
                    reasons[reason] = reasons.get(reason, 0) + count
            assert worker["flush_reasons"] == reasons
            assert worker["latency"]["samples"] == sum(
                entry["latency"]["samples"] for entry in owned
            )
            merged_buckets = worker["latency"]["buckets"]
            summed = [0] * len(merged_buckets)
            for entry in owned:
                for i, count in enumerate(entry["latency"]["buckets"]):
                    summed[i] += count
            assert merged_buckets == summed
        assert sum(w["latency"]["samples"] for w in stats["workers"]) == sum(
            decodes_per_session.values()
        )


# ---------------------------------------------------------------------
# Chaos drills
# ---------------------------------------------------------------------
class TestChaos:
    def test_worker_crash_mid_batch_is_retried_bit_identically(self):
        target = 0  # a fresh pool's first session lands on worker 0
        # The worker serves exactly 5 data requests, then dies without
        # answering the 5th — a crash mid-batch with a cohort in flight.
        faults = WorkerFaults(worker_index=target, die_after_requests=5)
        words, reference = chaos.seeded_words("hamming84", frames=96, seed=31)

        async def scenario():
            server = CodecServer(workers=2, faults=faults)
            async with server:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84")
                blocks = await asyncio.gather(
                    *(session.decode(words[i:i + 4]) for i in range(0, 96, 4))
                )
                status = await client.admin("status")
                await client.close()
                return blocks, status

        blocks, status = run(scenario())
        got = np.concatenate([b.messages for b in blocks])
        corrected = np.concatenate([b.corrected_errors for b in blocks])
        assert np.array_equal(got, reference.messages)
        assert np.array_equal(corrected, reference.corrected_errors)
        assert status["workers"][target]["restarts"] >= 1

    def test_sigkill_under_load_loses_nothing(self):
        words, reference = chaos.seeded_words("hamming84", frames=120, seed=13)

        async def scenario():
            async with CodecServer(workers=2) as server:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84")
                target = session.info["worker"]
                tasks = [
                    asyncio.ensure_future(session.decode(words[i:i + 4]))
                    for i in range(0, 120, 4)
                ]
                await client.admin("kill", worker=target)
                blocks = await asyncio.gather(*tasks)
                # Zero session loss: the same handle keeps decoding.
                after = await session.decode(words[:8])
                status = await client.admin("status")
                await client.close()
                return blocks, after, status, target

        blocks, after, status, target = run(scenario())
        got = np.concatenate([b.messages for b in blocks])
        assert np.array_equal(got, reference.messages)
        assert np.array_equal(after.messages, reference.messages[:8])
        assert status["workers"][target]["restarts"] >= 1
        assert all(w["ready"] for w in status["workers"])

    def test_graceful_drain_of_every_worker_loses_no_sessions(self):
        workers = 3
        per_session_words = {
            seed: chaos.seeded_words("hamming84", frames=48, seed=100 + seed)
            for seed in range(4)
        }

        async def scenario():
            async with CodecServer(workers=workers) as server:
                client = await CodecClient.connect(port=server.port)
                sessions = {
                    seed: await client.open_session("hamming84", seed=seed)
                    for seed in per_session_words
                }
                # Keep traffic in flight while every worker is drained.
                tasks = [
                    asyncio.ensure_future(
                        sessions[seed].decode(words[i:i + 4])
                    )
                    for seed, (words, _) in per_session_words.items()
                    for i in range(0, 48, 4)
                ]
                restarts = []
                for index in range(workers):
                    restarts.append(await client.admin("restart", worker=index))
                blocks = await asyncio.gather(*tasks)
                # Every session is still alive after a full rolling restart.
                finals = {
                    seed: await sessions[seed].decode(
                        per_session_words[seed][0][:4]
                    )
                    for seed in per_session_words
                }
                status = await client.admin("status")
                await client.close()
                return blocks, finals, restarts, status

        blocks, finals, restarts, status = run(scenario())
        index = 0
        for seed, (words, reference) in per_session_words.items():
            for i in range(0, 48, 4):
                assert np.array_equal(
                    blocks[index].messages, reference.messages[i:i + 4]
                ), f"seed {seed} rows {i}:{i + 4} diverged across drains"
                index += 1
            assert np.array_equal(finals[seed].messages, reference.messages[:4])
        assert [r["restarted"] for r in restarts] == [0, 1, 2]
        assert all(w["restarts"] >= 1 for w in status["workers"])
        assert status["sessions"] == len(per_session_words)

    def test_delayed_flushes_then_drain_still_answer_everything(self):
        # Every data request is held 20 ms in the worker (slow-kernel /
        # delayed-flush simulation); a drain must wait those out, not
        # drop them.
        faults = WorkerFaults(request_delay_us=20_000.0)
        words, reference = chaos.seeded_words("hamming84", frames=32, seed=77)

        async def scenario():
            async with CodecServer(workers=2, faults=faults) as server:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84")
                target = session.info["worker"]
                tasks = [
                    asyncio.ensure_future(session.decode(words[i:i + 4]))
                    for i in range(0, 32, 4)
                ]
                await asyncio.sleep(0)  # let the requests reach the worker
                result = await client.admin("restart", worker=target)
                blocks = await asyncio.gather(*tasks)
                await client.close()
                return blocks, result

        blocks, result = run(scenario())
        got = np.concatenate([b.messages for b in blocks])
        assert np.array_equal(got, reference.messages)
        assert result["restarts"] >= 1

    def test_restart_answers_a_held_stream_push(self):
        """A drain resolves stream pushes that wait for later frames.

        Two non-final one-frame pushes on a depth-3 stream without a
        deadline hold their codewords open.  ``restart`` must still
        drain the only worker (answering both pushes as flushed),
        respawn it, and leave it serving.
        """
        confidences = np.random.default_rng(4).normal(0.0, 1.0, (2, 8))
        words, reference = chaos.seeded_words("hamming74", frames=8, seed=6)

        async def scenario():
            async with CodecServer(workers=1) as server:
                client = await CodecClient.connect(port=server.port)
                stream = await client.open_session("hamming84", stream_depth=3)
                pushes = [
                    await stream.push_stream(confidences[i:i + 1], first_index=i)
                    for i in range(2)
                ]
                report = await client.admin("restart", worker=0)
                blocks = [await push for push in pushes]
                later = await client.open_session("hamming74")
                block = await later.decode(words)
                status = await client.admin("status")
                await client.close()
                return report, blocks, later.info["worker"], block, status

        report, blocks, worker, block, status = run(scenario(), timeout=20.0)
        assert report["restarts"] == 1
        for pushed in blocks:
            assert list(pushed.status) == [protocol.STREAM_ROW_FLUSHED]
        assert worker == 0
        assert np.array_equal(block.messages, reference.messages)
        assert status["workers"][0]["ready"]

    def test_restart_kills_a_worker_that_does_not_drain(self, monkeypatch):
        """A worker still busy at the drain timeout is killed and respawned;
        the request it held is retried on the replacement."""
        from repro.service import workers

        monkeypatch.setattr(workers, "DRAIN_TIMEOUT_S", 0.5)
        # The first spawn holds every data request far past the timeout.
        faults = WorkerFaults(request_delay_us=30e6)
        words, reference = chaos.seeded_words("hamming84", frames=8, seed=9)

        async def scenario():
            async with CodecServer(workers=1, faults=faults) as server:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84")
                held = asyncio.ensure_future(session.decode(words))
                await asyncio.sleep(0)  # put the decode on the wire first
                report = await client.admin("restart", worker=0)
                block = await held
                status = await client.admin("status")
                await client.close()
                return report, block, status

        report, block, status = run(scenario(), timeout=20.0)
        assert report["restarts"] == 1
        assert np.array_equal(block.messages, reference.messages)
        assert status["workers"][0]["ready"]

    def test_malformed_frames_never_kill_the_pool(self):
        words, reference = chaos.seeded_words("hamming84", frames=16, seed=3)

        async def scenario():
            async with CodecServer(workers=2) as server:
                for wire in chaos.garbage_wires():
                    await chaos.send_raw("127.0.0.1", server.port, wire)
                # The pool shrugged it all off: a normal client session
                # still decodes bit-identically.
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84")
                block = await session.decode(words)
                stats = await client.stats()
                await client.close()
                return block, stats

        block, stats = run(scenario())
        assert np.array_equal(block.messages, reference.messages)
        assert stats["protocol_errors"] >= 3
        assert all(w["restarts"] == 0 for w in stats["workers"])

    def test_crash_on_single_worker_pool_recovers(self):
        # N=1 edge: there is no healthy sibling; retries must wait for
        # the respawn of the only worker.
        faults = WorkerFaults(die_after_requests=3)
        words, reference = chaos.seeded_words("hamming74", frames=40, seed=21)

        async def scenario():
            async with CodecServer(workers=1, faults=faults) as server:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming74")
                blocks = await asyncio.gather(
                    *(session.decode(words[i:i + 4]) for i in range(0, 40, 4))
                )
                status = await client.admin("status")
                await client.close()
                return blocks, status

        blocks, status = run(scenario())
        got = np.concatenate([b.messages for b in blocks])
        assert np.array_equal(got, reference.messages)
        assert status["workers"][0]["restarts"] >= 1

    def test_error_injection_sessions_survive_restart(self):
        # Injection streams restart from their seed on replay (the
        # documented caveat) — but the session itself must survive and
        # keep producing decodable corrupted words.
        async def scenario():
            async with CodecServer(workers=2) as server:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session(
                    "hamming84", p01=0.08, p10=0.08, seed=5
                )
                messages = np.random.default_rng(8).integers(
                    0, 2, size=(32, 4), dtype=np.uint8
                )
                first = await session.encode(messages)
                target = session.info["worker"]
                await client.admin("restart", worker=target)
                replayed = await session.encode(messages)
                decoded = await session.decode(replayed)
                stats = await client.stats()
                await client.close()
                return first, replayed, decoded, messages, stats

        first, replayed, decoded, messages, stats = run(scenario())
        # Replay restarted the stream: the post-restart draw equals the
        # first post-open draw of a fresh seed-5 session.
        assert np.array_equal(first, replayed)
        # The decoder repaired what the channel corrupted (p=0.08 on an
        # (8,4) code stays within radius for most frames; exact equality
        # is not the claim here — session survival and telemetry are).
        assert decoded.messages.shape == messages.shape
        # Per-worker counters live and die with the worker process: the
        # replayed session starts fresh, so only post-restart traffic is
        # counted (the second documented restart caveat).
        entry = stats["sessions"][str(1)]
        assert entry["frames"]["encode"] == 32
        assert entry["frames"]["decode"] == 32

    def test_a_restart_is_not_logged_as_a_crash(self, caplog):
        """Regression: a graceful restart logged "decode worker K died",
        the warning a crash gets."""
        words, reference = chaos.seeded_words("hamming84", frames=8, seed=4)

        async def scenario():
            async with CodecServer(workers=2) as server:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84")
                await client.admin("restart", worker=session.info["worker"])
                restarted = caplog.get_records("call")[:]
                await client.admin("kill", worker=session.info["worker"])
                block = await session.decode(words)
                await client.close()
                return restarted, block

        with caplog.at_level(logging.INFO, logger="repro.service.workers"):
            restarted, block = run(scenario())
        messages = [record.getMessage() for record in restarted]
        assert any("restarted" in message for message in messages), messages
        assert not any("died" in message for message in messages), messages
        died = [r for r in caplog.records if "died" in r.getMessage()]
        assert [r.levelno for r in died] == [logging.WARNING]
        assert np.array_equal(block.messages, reference.messages)

    def test_a_dropped_connection_sees_eof_after_a_worker_respawn(self):
        """Regression: a worker forked while a connection was open holds a
        copy of its socket, so the front's close sent no FIN and the
        client never saw EOF on a connection the front had dropped."""
        words, reference = chaos.seeded_words("hamming84", frames=4, seed=5)

        async def scenario():
            async with CodecServer(workers=1) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # One answered request: the front has accepted the socket.
                writer.write(protocol.frame_bytes(
                    protocol.build_request(protocol.OP_STATS, 1)
                ))
                assert await protocol.read_frame(reader) is not None
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84")
                await client.admin("kill", worker=0)
                # The retried decode waits for the respawned worker.
                block = await session.decode(words)
                writer.write(struct.pack("!I", protocol.MAX_FRAME_BYTES + 1))
                try:
                    tail = await asyncio.wait_for(reader.read(), 2.0)
                finally:
                    writer.close()
                    await client.close()
                status = server.pool.status()
                return tail, block, status

        tail, block, status = run(scenario())
        assert tail == b""
        assert np.array_equal(block.messages, reference.messages)
        assert status["workers"][0]["restarts"] >= 1

    def test_a_respawned_worker_holds_no_front_sockets(self):
        """Regression: a worker forked while clients were connected kept
        a copy of every socket the front held (listener, connections)
        for as long as it lived, even after the clients closed."""
        if not os.path.isdir(f"/proc/{os.getpid()}/fd"):
            pytest.skip("needs /proc/<pid>/fd to count a process's sockets")
        words, reference = chaos.seeded_words("hamming84", frames=4, seed=6)

        def sockets_of(pid):
            count = 0
            for fd in os.listdir(f"/proc/{pid}/fd"):
                with contextlib.suppress(OSError):
                    count += os.readlink(f"/proc/{pid}/fd/{fd}").startswith("socket:")
            return count

        async def scenario():
            async with CodecServer(workers=1) as server:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84")
                await session.decode(words)  # the worker's loop is up
                first = sockets_of(server.pool.handles[0].pid)
                raw = []
                for _ in range(20):
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(protocol.frame_bytes(
                        protocol.build_request(protocol.OP_STATS, 1)
                    ))
                    assert await protocol.read_frame(reader) is not None
                    raw.append(writer)
                await client.admin("kill", worker=0)
                # The retried decode waits for the respawned worker.
                block = await session.decode(words)
                respawned = sockets_of(server.pool.handles[0].pid)
                for writer in raw:
                    writer.close()
                await client.close()
                return first, respawned, block, server.pool.status()

        first, respawned, block, status = run(scenario())
        assert status["workers"][0]["restarts"] >= 1
        assert np.array_equal(block.messages, reference.messages)
        assert respawned <= first, (first, respawned)

    def test_a_crash_during_an_open_leaves_the_session_on_both_sides(self):
        """A worker killed once an OPEN is on its pipe is replayed with the
        session, and the retried OPEN must not be refused as a live id."""
        words, reference = chaos.seeded_words("hamming84", frames=8, seed=15)

        async def scenario():
            async with CodecServer(workers=1) as server:
                handle = server.pool.handles[0]
                send_request = handle.client.send_request

                async def send_then_kill(opcode, body=b""):
                    future = await send_request(opcode, body)
                    if opcode == protocol.OP_W_OPEN:
                        handle.process.kill()
                    return future

                handle.client.send_request = send_then_kill
                config = SessionConfig(code="hamming84", seed=1)
                opened = await server.pool.open_session(config)
                client = await CodecClient.connect(port=server.port)
                body = protocol.build_batch_body(opened["session_id"], words)
                decoded = await client.request(protocol.OP_DECODE, body)
                await client.close()
                worker = await handle.request(protocol.OP_STATS)
                on_worker = protocol.parse_json_body(worker.body)["sessions"]
                return opened, decoded, sorted(server.registry.table()), on_worker

        opened, decoded, front, on_worker = run(scenario())
        messages, _, _ = protocol.parse_decode_response_body(decoded.body, 4)
        assert np.array_equal(messages, reference.messages)
        assert front == [opened["session_id"]] and list(on_worker) == ["1"]

    def test_a_pool_started_again_respawns_a_dead_worker(self):
        """Regression: a pooled server stopped and started again never
        respawned a killed worker; ``close`` left the pool marked closed,
        and the next request failed after every retry."""
        words, reference = chaos.seeded_words("hamming84", frames=8, seed=14)
        server = CodecServer(workers=1)
        handle = server.pool.handles[0]

        async def first_life():
            await server.start()
            await server.stop()

        async def second_life():
            await server.start()
            try:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84")
                before = await session.decode(words)
                await server.pool.kill_worker(0)
                await chaos.eventually(
                    lambda: handle.restarts == 1 and handle.ready.is_set()
                )
                after = await session.decode(words)
                await client.close()
            finally:
                await server.stop()
            return before, after

        run(first_life())
        for block in run(second_life()):
            assert np.array_equal(block.messages, reference.messages)

    def test_loadgen_512_clients_over_shared_connections(self):
        # The ISSUE's loadgen scale drill, in-tree: 512 concurrent
        # clients multiplexed over 16 TCP connections against a 2-worker
        # pool, zero residual frames at injection rate 0.
        async def scenario():
            async with CodecServer(workers=2) as server:
                report = await run_scenario(
                    "127.0.0.1",
                    server.port,
                    make_scenario("steady"),
                    clients=512,
                    connections=16,
                    requests=2,
                    frames_per_request=2,
                    seed=20250831,
                )
                return report

        report = run(scenario())
        assert report.client_errors == []
        assert report.frames_sent == 512 * 2 * 2
        assert report.residual_frames == 0
        assert report.server_stats["mode"] == "pool"
        assert report.server_stats["frames_total"] == 2 * report.frames_sent

    def test_mixed_scenario_spreads_sessions_across_pool(self):
        async def scenario():
            async with CodecServer(workers=4) as server:
                report = await run_scenario(
                    "127.0.0.1",
                    server.port,
                    make_scenario("mixed"),
                    clients=12,
                    connections=4,
                    requests=3,
                    frames_per_request=2,
                    seed=1,
                )
                return report

        report = run(scenario())
        assert report.client_errors == []
        assert report.residual_frames == 0
        # Each of the 4 connections opens the 3 configs its clients use,
        # and least-loaded placement spreads the 12 sessions evenly.
        workers = [
            entry["worker"] for entry in report.server_stats["sessions"].values()
        ]
        assert sorted(workers) == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]
