"""Streaming codec service: protocol, scheduler, server, client, loadgen."""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding import get_code, get_decoder
from repro.errors import SessionError
from repro.service import (
    CodecClient,
    CodecServer,
    MicroBatcher,
    SessionConfig,
    SessionRegistry,
    catalog,
    make_scenario,
    run_scenario,
)
from repro.service import DispatchCore, LatencyReservoir, SessionHandle, protocol
from repro.service.batcher import MAX_BATCH, MAX_CHUNK_FRAMES
from repro.service.session import MAX_SESSION_ID, CodecSession
from stepcount import count_steps


#: Hard wall-clock bound on every async scenario in this file.  All
#: awaits run inside ``run()``, so a hung server/client/batcher fails
#: fast with ``TimeoutError`` instead of stalling the whole CI job.
SCENARIO_TIMEOUT_S = 20.0


def run(coro, timeout: float = SCENARIO_TIMEOUT_S):
    async def bounded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(bounded())


# ---------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------
class TestProtocol:
    def test_pack_unpack_bits_round_trip(self):
        rng = np.random.default_rng(0)
        for batch, width in [(0, 7), (1, 8), (5, 7), (17, 13)]:
            bits = rng.integers(0, 2, (batch, width)).astype(np.uint8)
            assert np.array_equal(
                protocol.unpack_bits(protocol.pack_bits(bits), batch, width), bits
            )

    def test_unpack_rejects_wrong_length(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.unpack_bits(b"\x00\x00\x00", 2, 8)

    def test_request_round_trip(self):
        wire = protocol.build_request(protocol.OP_DECODE, 77, b"body")
        request = protocol.parse_request(wire)
        assert request.opcode == protocol.OP_DECODE
        assert request.request_id == 77
        assert request.body == b"body"

    def test_response_round_trip_and_status(self):
        wire = protocol.build_response(protocol.OP_OPEN, 9, protocol.ST_ERROR, b"boom")
        response = protocol.parse_response(wire)
        assert response.request_id == 9
        with pytest.raises(protocol.ProtocolError, match="boom"):
            response.raise_for_status()

    def test_bad_magic_rejected(self):
        wire = bytearray(protocol.build_request(protocol.OP_STATS, 1))
        wire[0] ^= 0xFF
        with pytest.raises(protocol.ProtocolError, match="magic"):
            protocol.parse_request(bytes(wire))

    def test_batch_body_round_trip(self):
        bits = np.random.default_rng(1).integers(0, 2, (6, 8)).astype(np.uint8)
        body = protocol.build_batch_body(3, bits)
        session_id, decoded = protocol.parse_batch_body(body, lambda sid: 8)
        assert session_id == 3
        assert np.array_equal(decoded, bits)

    def test_decode_response_body_round_trip(self):
        rng = np.random.default_rng(2)
        messages = rng.integers(0, 2, (5, 4)).astype(np.uint8)
        corrected = np.array([0, 1, 2, 0, 300])
        detected = np.array([False, False, True, False, True])
        body = protocol.build_decode_response_body(messages, corrected, detected)
        m, c, d = protocol.parse_decode_response_body(body, 4)
        assert np.array_equal(m, messages)
        assert np.array_equal(c, [0, 1, 2, 0, 255])  # saturating uint8
        assert np.array_equal(d, detected)

    def test_oversized_frame_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="cap"):
            protocol.frame_bytes(b"x" * (protocol.MAX_FRAME_BYTES + 1))

    def test_soft_batch_body_round_trip(self):
        rng = np.random.default_rng(4)
        for batch in (0, 1, 6):
            confidences = rng.normal(0.0, 1.0, (batch, 8))
            body = protocol.build_soft_batch_body(9, confidences)
            session_id, decoded = protocol.parse_soft_batch_body(body, lambda sid: 8)
            assert session_id == 9
            assert decoded.shape == (batch, 8)
            # float32 on the wire: values quantise but signs survive.
            assert np.allclose(decoded, confidences, atol=1e-6)
            assert np.array_equal(decoded < 0, confidences < 0)

    def test_soft_batch_body_rejects_wrong_length(self):
        body = protocol.build_soft_batch_body(1, np.zeros((2, 8)))
        with pytest.raises(protocol.ProtocolError, match="confidence bytes"):
            protocol.parse_soft_batch_body(body[:-1], lambda sid: 8)

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_soft_batch_body_rejects_non_finite(self, poison):
        confidences = np.ones((2, 8))
        confidences[1, 3] = poison
        body = protocol.build_soft_batch_body(1, confidences)
        # NaN/Inf would decode to a fabricated message with no error
        # flag (NaN never ties), so the parser must refuse the frame.
        with pytest.raises(protocol.ProtocolError, match="finite"):
            protocol.parse_soft_batch_body(body, lambda sid: 8)


# ---------------------------------------------------------------------
# Sessions and registry
# ---------------------------------------------------------------------
class TestSessions:
    def test_open_and_describe(self):
        registry = SessionRegistry()
        session = registry.open(SessionConfig(code="hamming84"))
        info = session.describe()
        assert (info["n"], info["k"], info["d_min"]) == (8, 4, 4)
        assert info["decoder"] == "sec-ded"

    def test_identical_noiseless_configs_open_separate_sessions(self):
        registry = SessionRegistry()
        first = registry.open(SessionConfig(code="rm13"))
        second = registry.open(SessionConfig(code="rm13"))
        assert first is not second
        assert (first.session_id, second.session_id) == (1, 2)
        assert len(registry) == 2

    def test_noisy_configs_open_separate_sessions(self):
        # Every open builds a new session, so two opens of one seeded
        # noisy config inject from two streams that start alike.
        registry = SessionRegistry()
        config = SessionConfig(code="rm13", p01=0.1, p10=0.1, seed=1)
        first, second = registry.open(config), registry.open(config)
        assert first is not second and first._rng is not second._rng
        messages = np.zeros((64, 4), dtype=np.uint8)
        assert np.array_equal(
            first.encode_frames(messages), second.encode_frames(messages)
        )
        other = SessionConfig(code="rm13", p01=0.1, p10=0.1, seed=2)
        assert registry.open(other) is not first
        assert len(registry) == 3

    def test_unknown_code_and_id(self):
        registry = SessionRegistry()
        with pytest.raises(SessionError):
            registry.open(SessionConfig(code="golay"))
        with pytest.raises(SessionError):
            registry.get(999)

    def test_config_from_dict_requires_code(self):
        with pytest.raises(SessionError):
            SessionConfig.from_dict({"decoder": "ml"})

    @given(
        code=st.sampled_from(["hamming84", "rm13", "golay"]),
        decoder=st.none() | st.sampled_from(["ml", "syndrome"]),
        p=st.floats(0.0, 1.0),
        seed=st.none() | st.integers(-(2**70), 2**70),
        stream_depth=st.none() | st.integers(-3, 9),
        stream_shift=st.integers(-3, 9),
        stream_deadline_us=st.none() | st.floats(-1e9, 1e9),
        memory_lines=st.none() | st.integers(0, 2**21),
        memory_rot=st.floats(-1.0, 2.0),
    )
    def test_config_round_trips_through_its_dict(
        self, code, decoder, p, seed, stream_depth, stream_shift,
        stream_deadline_us, memory_lines, memory_rot,
    ):
        """``from_dict(to_dict(c)) == c``, through JSON as the pool ships
        it, for every config, valid or not."""
        config = SessionConfig(
            code=code, decoder=decoder, p01=p, p10=p / 2, seed=seed,
            stream_depth=stream_depth, stream_shift=stream_shift,
            stream_deadline_us=stream_deadline_us, memory_lines=memory_lines,
            memory_rot=memory_rot,
        )
        wire = json.loads(protocol.build_json_body(config.to_dict()))
        assert SessionConfig.from_dict(wire) == config

    def test_stream_fields_without_depth_take_their_defaults(self):
        """Regression: ``stream_shift`` or ``stream_deadline_us`` without
        ``stream_depth`` made a distinct config at the front, which
        ``to_dict`` dropped on its way to a pool worker."""
        plain = SessionConfig(code="hamming84", seed=1)
        assert SessionConfig(code="hamming84", seed=1, stream_shift=0) == plain
        assert SessionConfig.from_dict(
            {"code": "hamming84", "seed": 1, "stream_deadline_us": 5.0}
        ) == plain
        streaming = SessionConfig(code="hamming84", stream_depth=2, stream_shift=0)
        assert streaming.stream_shift == 0
        assert SessionConfig(code="hamming84", seed=2) != plain

    @pytest.mark.parametrize("session_id", [0, -1, MAX_SESSION_ID + 1, 65537])
    def test_forced_ids_must_fit_the_wire(self, session_id):
        registry = SessionRegistry()
        with pytest.raises(SessionError, match="outside"):
            registry.open(SessionConfig(code="hamming84"), session_id=session_id)
        assert len(registry) == 0
        assert registry.open(SessionConfig(code="hamming84")).session_id == 1

    def test_public_open_cannot_force_a_session_id(self):
        """Regression: an OPEN carrying ``session_id`` got that id at
        workers=0, so a later open's id wrapped onto another session's
        on the 16-bit wire."""
        core = DispatchCore()
        code = get_code("hamming84")
        word = code.encode(np.array([1, 0, 1, 1], dtype=np.uint8))[None, :]

        async def call(opcode, body):
            return await core.dispatch(protocol.Request(opcode, 0, body))

        async def scenario():
            forced = await call(protocol.OP_OPEN, protocol.build_json_body(
                {"code": "hamming74", "session_id": 65537}
            ))
            with pytest.raises(SessionError, match="'code'"):
                await call(protocol.OP_OPEN, protocol.build_json_body(
                    {"session_id": 65538, "config": {"code": "rm13"}}
                ))
            ordinary = await call(
                protocol.OP_OPEN, protocol.build_json_body({"code": "hamming84"})
            )
            sid = json.loads(ordinary)["session_id"]
            reply = await call(
                protocol.OP_DECODE, protocol.build_batch_body(sid, word)
            )
            return json.loads(forced)["session_id"], sid, reply

        forced, sid, reply = run(scenario())
        assert (forced, sid) == (1, 2)
        messages, corrected, flagged = protocol.parse_decode_response_body(reply, 4)
        assert messages.tolist() == [[1, 0, 1, 1]]
        assert corrected.tolist() == [0] and flagged.tolist() == [False]
        frames = core.stats()["sessions"]
        assert frames["2"]["frames"] == {"decode": 1}
        assert "decode" not in frames["1"]["frames"]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_ids_wrap_within_the_wire_and_skip_live_sessions(self, workers):
        """Regression: ids counted past 0xFFFF with no bound.

        With the counter at 65537, a hamming74 session got id 65537,
        which the 16-bit header sends as 1: its DECODE was answered by
        live session 1 (hamming84) and counted there.  A pool refused
        every open once its counter passed 0xFFFF.
        """
        codes = ["hamming84", "hamming74", "rm13"]
        rng = np.random.default_rng(7)
        words = {
            code: rng.integers(0, 2, (12, get_code(code).n)).astype(np.uint8)
            for code in codes
        }

        async def scenario():
            async with CodecServer(workers=workers) as server:
                client = await CodecClient.connect(port=server.port)
                sessions = [await client.open_session(codes[0])]
                server.registry._next_id = MAX_SESSION_ID  # skip 65,533 lifetimes
                for code in codes[1:]:
                    sessions.append(await client.open_session(code))
                blocks = [await s.decode(words[c]) for s, c in zip(sessions, codes)]
                stats = await client.stats()
                top = sessions[1]
                await client.close_session(top.session_id)
                with pytest.raises(protocol.ProtocolError, match="unknown session"):
                    await top.decode(words[codes[1]])
                reopened = await client.open_session(codes[0], seed=9)
                await client.close()
                return [s.session_id for s in sessions], reopened.session_id, blocks, stats

        ids, reopened, blocks, stats = run(scenario())
        # Past the top the ids wrap to 1, skip live session 1, and the
        # next open after a close takes the next free id, not the
        # closed one.
        assert ids == [1, MAX_SESSION_ID, 2]
        assert reopened == 3
        for sid, code, block in zip(ids, codes, blocks):
            direct = get_decoder(get_code(code)).decode_batch_detailed(words[code])
            assert np.array_equal(block.messages, direct.messages), code
            assert np.array_equal(block.corrected_errors, direct.corrected_errors)
            entry = stats["sessions"][str(sid)]
            assert entry["frames"] == {"decode": len(words[code])}, (sid, entry)

    def test_encode_frames_injects_seeded_errors(self):
        config = SessionConfig(code="hamming84", p01=0.2, p10=0.2, seed=11)
        msgs = np.random.default_rng(0).integers(0, 2, (200, 4)).astype(np.uint8)
        one = CodecSession(1, config).encode_frames(msgs)
        two = CodecSession(2, config).encode_frames(msgs)
        clean = get_code("hamming84").encode_batch(msgs)
        assert np.array_equal(one, two)  # same seed, same stream
        assert (one != clean).any()      # and it actually corrupts

    def test_catalog_lists_registry(self):
        listing = catalog()
        names = [c["name"] for c in listing["codes"]]
        assert names == sorted(names)
        assert {"hamming74", "hamming84", "rm13"} <= set(names)
        entry = next(c for c in listing["codes"] if c["name"] == "hamming74")
        assert (entry["n"], entry["k"], entry["d_min"]) == (7, 4, 3)
        assert entry["default_decoder"] == "syndrome"
        assert "syndrome" in listing["decoders"]


# ---------------------------------------------------------------------
# Micro-batching scheduler
# ---------------------------------------------------------------------
def _session(**kwargs) -> CodecSession:
    return CodecSession(1, SessionConfig(code="hamming84", **kwargs))


def _core_session(**kwargs):
    """A hamming84 session recording into a fresh core, and that core."""
    core = DispatchCore()
    return core.open_session(SessionConfig(code="hamming84", **kwargs)), core


def _reply_rows(code, words) -> np.ndarray:
    """The packed reference: DECODE reply rows of the direct batch decode."""
    direct = get_decoder(code).decode_batch_detailed(words)
    return protocol.decode_reply_rows(
        direct.messages, direct.corrected_errors, direct.detected_uncorrectable
    )


def _flush_reasons(core, session) -> dict:
    """The session's STATS flush-reason tally."""
    return core.stats()["sessions"][str(session.session_id)]["flush_reasons"]


class TestMicroBatcher:
    def test_size_flush_coalesces_into_one_kernel_call(self):
        async def scenario():
            session, core = _core_session()
            calls = []
            kernel = session.encode_frames

            def spy(batch):
                calls.append(len(batch))
                return kernel(batch)

            session.encode_frames = spy
            batcher = MicroBatcher()
            rng = np.random.default_rng(0)
            msgs = rng.integers(0, 2, (MAX_BATCH, 4)).astype(np.uint8)
            results = await asyncio.gather(
                *(
                    batcher.submit(session, "encode", msgs[i:i + 1])
                    for i in range(MAX_BATCH)
                )
            )
            return calls, np.concatenate(results), msgs, _flush_reasons(core, session)

        calls, got, msgs, reasons = run(scenario())
        assert calls == [MAX_BATCH], "MAX_BATCH 1-frame requests must share one batch"
        assert reasons == {"size": 1}
        assert np.array_equal(got, get_code("hamming84").encode_batch(msgs))

    def test_closed_loop_clients_share_every_kernel_call(self):
        """64 closed-loop clients of one-frame decodes.

        Each client sends its next frame only when the last one is
        answered, as a TCP client awaiting replies does.  Every kernel
        call must carry one frame of every client: a lane that flushed
        per request would make 64 times as many calls.
        """
        clients, requests = 64, 40
        code = get_code("hamming84")
        rng = np.random.default_rng(20250831)
        sent = code.encode_batch(
            rng.integers(0, 2, (clients * requests, code.k)).astype(np.uint8)
        )
        words = sent ^ (rng.random(sent.shape) < 0.02).astype(np.uint8)
        packed = np.packbits(words, axis=1)

        async def scenario():
            session = _session()
            calls = []
            kernel = session.decode_frames

            def spy(batch):
                calls.append(len(batch))
                return kernel(batch)

            session.decode_frames = spy
            batcher = MicroBatcher()
            results = [None] * len(words)

            async def client(c):
                for row in range(c * requests, (c + 1) * requests):
                    results[row] = await batcher.submit(
                        session, "decode", packed[row:row + 1]
                    )

            await asyncio.gather(*(client(c) for c in range(clients)))
            return calls, results

        calls, results = run(scenario())
        assert calls == [clients] * requests
        assert np.array_equal(np.concatenate(results), _reply_rows(code, words))

    def test_turn_flush_fires_without_filling(self):
        async def scenario():
            session, core = _core_session()
            batcher = MicroBatcher()
            msgs = np.ones((2, 4), dtype=np.uint8)
            result = await asyncio.wait_for(
                batcher.submit(session, "encode", msgs), timeout=2.0
            )
            return result, _flush_reasons(core, session)

        result, reasons = run(scenario())
        assert result.shape == (2, 8)
        assert reasons == {"turn": 1}

    def test_batcher_arms_no_timer(self):
        """Every flush runs within a few loop turns, and none from a timer.

        The running loop refuses ``call_later`` and ``call_at``, and each
        case must finish within a fixed count of ``asyncio.sleep(0)``
        yields, with no wall-clock wait: a lone encode, a closed loop of
        64 one-frame decode clients, and a close with a request queued.
        """
        clients, requests = 64, 5
        rng = np.random.default_rng(31)
        words = np.packbits(
            rng.integers(0, 2, (clients * requests, 8)).astype(np.uint8), axis=1
        )

        def refuse(*args, **kwargs):
            raise AssertionError("the batcher armed a timer")

        async def within(awaitable, yields):
            task = asyncio.ensure_future(awaitable)
            for _ in range(yields):
                if task.done():
                    break
                await asyncio.sleep(0)
            assert task.done(), f"not done within {yields} loop yields"
            return task.result()

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.call_later = loop.call_at = refuse

            lone, lone_core = _core_session()
            encoded = await within(
                MicroBatcher().submit(lone, "encode", np.ones((2, 4), dtype=np.uint8)),
                3,
            )

            closed_loop, loop_core = _core_session()
            calls = []
            kernel = closed_loop.decode_frames

            def spy(batch):
                calls.append(len(batch))
                return kernel(batch)

            closed_loop.decode_frames = spy
            batcher = MicroBatcher()

            async def client(c):
                for row in range(c * requests, (c + 1) * requests):
                    await batcher.submit(closed_loop, "decode", words[row:row + 1])

            await within(
                asyncio.gather(*(client(c) for c in range(clients))), 3 * requests + 2
            )

            closing, close_core = _core_session()
            batcher = MicroBatcher()
            queued = asyncio.ensure_future(
                batcher.submit(closing, "encode", np.ones((3, 4), dtype=np.uint8))
            )
            await asyncio.sleep(0)  # let submit enqueue
            assert batcher.close_session(closing.session_id) == 1
            closed = await within(queued, 2)
            for _ in range(3):  # the cancelled turn flush must stay cancelled
                await asyncio.sleep(0)
            return (
                encoded.shape, _flush_reasons(lone_core, lone),
                calls, _flush_reasons(loop_core, closed_loop),
                closed.shape, _flush_reasons(close_core, closing),
            )

        (encoded, lone_reasons, calls, loop_reasons,
         closed, close_reasons) = asyncio.run(scenario())
        assert encoded == (2, 8) and lone_reasons == {"turn": 1}
        assert calls == [clients] * requests
        assert loop_reasons == {"turn": requests}
        assert closed == (3, 8) and close_reasons == {"close": 1}

    def test_decode_slices_are_bit_identical_to_direct_call(self):
        async def scenario():
            session = _session()
            batcher = MicroBatcher()
            rng = np.random.default_rng(3)
            words = rng.integers(0, 2, (40, 8)).astype(np.uint8)
            packed = np.packbits(words, axis=1)
            chunks = [packed[i:i + 5] for i in range(0, 40, 5)]
            results = await asyncio.gather(
                *(batcher.submit(session, "decode", chunk) for chunk in chunks)
            )
            return results, words

        results, words = run(scenario())
        assert [len(r) for r in results] == [5] * 8
        assert np.array_equal(
            np.concatenate(results), _reply_rows(get_code("hamming84"), words)
        )

    def test_empty_request_completes_immediately(self):
        async def scenario():
            session = _session()
            batcher = MicroBatcher()
            empty = await batcher.submit(
                session, "decode", np.zeros((0, 1), dtype=np.uint8)
            )
            return empty

        empty = run(scenario())
        assert empty.shape == (0, 3)  # a packed k=4 message and two flags
        assert protocol.build_decode_reply_body(empty) == b"\x00" * 4

    def test_request_larger_than_a_chunk_is_chunked(self):
        # A request over MAX_CHUNK_FRAMES flows through in chunks of that
        # size and comes back whole, row for row.
        async def scenario():
            session = _session()
            batcher = MicroBatcher()
            rng = np.random.default_rng(9)
            msgs = rng.integers(0, 2, (2 * MAX_CHUNK_FRAMES + 37, 4)).astype(np.uint8)
            encoded = await asyncio.wait_for(
                batcher.submit(session, "encode", msgs), timeout=5.0
            )
            words = rng.integers(0, 2, (MAX_CHUNK_FRAMES + 21, 8)).astype(np.uint8)
            decoded = await asyncio.wait_for(
                batcher.submit(session, "decode", np.packbits(words, axis=1)),
                timeout=5.0,
            )
            return msgs, encoded, words, decoded

        msgs, encoded, words, decoded = run(scenario())
        assert np.array_equal(encoded, get_code("hamming84").encode_batch(msgs))
        assert np.array_equal(decoded, _reply_rows(get_code("hamming84"), words))

    def test_kernel_error_propagates_to_every_request(self):
        async def scenario():
            session = _session()
            session.decode_frames = lambda batch: (_ for _ in ()).throw(
                RuntimeError("kernel exploded")
            )
            batcher = MicroBatcher()
            words = np.zeros((1, 1), dtype=np.uint8)
            futures = [
                asyncio.ensure_future(batcher.submit(session, "decode", words))
                for _ in range(2)
            ]
            outcomes = await asyncio.gather(*futures, return_exceptions=True)
            return outcomes

        outcomes = run(scenario())
        assert all(isinstance(o, RuntimeError) for o in outcomes)

    def test_malformed_cohabitant_fails_its_cohort_not_strands_it(self):
        # A wrong-width block breaks the batch concatenation; every
        # request in that flush must get the exception — no future may
        # be stranded (regression: concat ran outside the try/except).
        async def scenario():
            session = _session()
            batcher = MicroBatcher()
            good = asyncio.ensure_future(
                batcher.submit(session, "encode", np.zeros((2, 4), np.uint8))
            )
            await asyncio.sleep(0)
            lane = batcher._lanes[(session.session_id, "encode")]
            bad_future = lane.enqueue(np.zeros((2, 7), np.uint8))  # wrong width
            outcomes = await asyncio.wait_for(
                asyncio.gather(good, bad_future, return_exceptions=True), timeout=2.0
            )
            return outcomes

        outcomes = run(scenario())
        assert all(isinstance(o, Exception) for o in outcomes)

    def test_invalid_op_rejected(self):
        async def scenario():
            with pytest.raises(ValueError):
                await MicroBatcher().submit(_session(), "transcode", np.zeros((1, 4)))

        run(scenario())


# ---------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------
class TestTelemetry:
    def test_latency_reservoir_percentiles(self):
        reservoir = LatencyReservoir(maxlen=100)
        for value in range(1, 101):
            reservoir.record(float(value))
        assert reservoir.percentile(50) == pytest.approx(50.5)
        assert reservoir.percentile(99) == pytest.approx(99.01)
        assert LatencyReservoir().percentile(99) == 0.0

    def test_reservoir_is_bounded(self):
        reservoir = LatencyReservoir(maxlen=10)
        for value in range(1000):
            reservoir.record(float(value))
        assert len(reservoir) == 10
        assert reservoir.percentile(50) >= 990

    def test_decode_outcome_counters(self):
        session, core = _core_session()
        session.telemetry.record_decode_outcome(
            corrected_errors=np.array([0, 1, 2, 0]),
            detected_uncorrectable=np.array([False, False, True, False]),
        )
        snapshot = core.stats()
        entry = snapshot["sessions"]["1"]
        assert entry["accepted_frames"] == 2
        assert entry["corrected_frames"] == 1  # corrected and *not* flagged
        assert entry["detected_frames"] == 1
        assert entry["corrected_bits"] == 3
        assert json.dumps(snapshot)  # JSON-serialisable


# ---------------------------------------------------------------------
# STATS shape, pinned key by key (local and pooled)
# ---------------------------------------------------------------------
#: Value maps keyed by data (ops, flush reasons, stream results): leaves.
_DATA_MAPS = {"requests", "frames", "flush_reasons", "decisions"}

_LATENCY_KEYS = dict.fromkeys(["buckets", "p50_us", "p99_us", "samples"])
_MEMORY_KEYS = dict.fromkeys(
    ["corrected_bits_total", "ded_total", "repaired_lines", "rot_bits",
     "scrubbed_lines", "sec_total"]
)
_PATH_KEYS = dict.fromkeys(["corrected_bits", "ded", "ops", "sec"])
#: STATS's nested key sets.  Scrapers (CI, loadgen, perfbench) read
#: them, so any change here must be deliberate.
_SESSION_KEYS = dict(
    dict.fromkeys(
        ["accepted_frames", "batches", "config", "corrected_bits",
         "corrected_frames", "detected_frames", "flush_reasons", "frames",
         "max_batch_frames", "mean_batch_frames", "requests",
         "soft_corrected_frames", "soft_decoded_frames", "throughput_fps",
         "uptime_s"]
    ),
    latency=_LATENCY_KEYS,
    memory=dict(_MEMORY_KEYS, paths=dict.fromkeys(["read", "rmw", "scrub"], _PATH_KEYS)),
    stream=dict.fromkeys(["deadline_misses", "decisions", "window_pending"]),
)
_TOP_KEYS = dict.fromkeys(
    ["connections_open", "connections_total", "frames_total",
     "protocol_errors", "throughput_fps", "uptime_s"]
)
_WORKER_KEYS = dict(
    dict.fromkeys(
        ["flush_reasons", "frames_total", "index", "pid", "ready",
         "restarts", "sessions", "throughput_fps", "uptime_s"]
    ),
    latency=_LATENCY_KEYS,
    memory=_MEMORY_KEYS,
)


def _key_tree(value):
    """Nested key sets of a STATS payload (``None`` marks a leaf)."""
    if isinstance(value, dict):
        return {
            key: None if key in _DATA_MAPS else _key_tree(item)
            for key, item in value.items()
        }
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return [_key_tree(item) for item in value]
    return None


class TestStatsShape:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_stats_keys_match_the_pinned_shape(self, workers):
        async def scenario():
            async with CodecServer(workers=workers) as server:
                client = await CodecClient.connect(port=server.port)
                rng = np.random.default_rng(3)
                hard = await client.open_session("hamming84")
                await hard.decode(rng.integers(0, 2, (4, 8), dtype=np.uint8))
                soft = await client.open_session("rm13")
                await soft.decode_soft(rng.uniform(-1, 1, (4, 8)))
                stream = await client.open_session("hamming84", stream_depth=2)
                await stream.decode_stream(rng.uniform(-1, 1, (4, 8)), 0, final=True)
                memory = await client.open_session("hamming84", memory_lines=8)
                messages = rng.integers(0, 2, (4, 4), dtype=np.uint8)
                await memory.mem_write(np.arange(4), messages)
                stats = await client.stats()
                await client.close()
                return stats

        stats = run(scenario())
        expected = dict(_TOP_KEYS, sessions=dict.fromkeys("1234", _SESSION_KEYS))
        if workers:
            expected["mode"] = None
            expected["sessions"] = dict.fromkeys(
                "1234", dict(_SESSION_KEYS, worker=None)
            )
            expected["workers"] = [_WORKER_KEYS] * workers
        assert _key_tree(stats) == expected
        assert stats["frames_total"] == 16


# ---------------------------------------------------------------------
# Server + client end to end
# ---------------------------------------------------------------------
async def _with_server(fn):
    server = CodecServer()
    await server.start()
    try:
        return await fn(server)
    finally:
        await server.stop()


class TestServerEndToEnd:
    def test_round_trip_and_stats(self):
        async def scenario(server):
            client = await CodecClient.connect(port=server.port)
            session = await client.open_session("hamming74")
            assert (session.n, session.k) == (7, 4)
            msgs = np.random.default_rng(0).integers(0, 2, (50, 4)).astype(np.uint8)
            words = await session.encode(msgs)
            assert np.array_equal(words, get_code("hamming74").encode_batch(msgs))
            decoded = await session.decode(words)
            assert np.array_equal(decoded.messages, msgs)
            assert not decoded.detected_uncorrectable.any()
            stats = await client.stats()
            await client.close()
            return stats

        stats = run(_with_server(scenario))
        session_stats = stats["sessions"]["1"]
        assert session_stats["frames"] == {"encode": 50, "decode": 50}
        assert session_stats["accepted_frames"] == 50
        assert stats["connections_total"] == 1

    def test_decode_bit_identical_to_direct_kernel_under_concurrency(self):
        async def scenario(server):
            rng = np.random.default_rng(7)
            words = rng.integers(0, 2, (128, 8)).astype(np.uint8)
            client = await CodecClient.connect(port=server.port)
            session = await client.open_session("hamming84")
            blocks = await asyncio.gather(
                *(session.decode(words[i:i + 1]) for i in range(len(words)))
            )
            await client.close()
            return blocks, words

        blocks, words = run(_with_server(scenario))
        direct = get_decoder(get_code("hamming84")).decode_batch_detailed(words)
        assert np.array_equal(
            np.concatenate([b.messages for b in blocks]), direct.messages
        )
        assert np.array_equal(
            np.concatenate([b.corrected_errors for b in blocks]),
            direct.corrected_errors,
        )

    def test_pipelined_requests_coalesce(self):
        async def scenario(server):
            client = await CodecClient.connect(port=server.port)
            session = await client.open_session("rm13")
            msgs = np.random.default_rng(1).integers(0, 2, (64, 4)).astype(np.uint8)
            # Fire 64 single-frame decodes without awaiting in between.
            words = await session.encode(msgs)
            blocks = await asyncio.gather(
                *(session.decode(words[i:i + 1]) for i in range(64))
            )
            stats = await client.stats()
            await client.close()
            return blocks, msgs, stats

        blocks, msgs, stats = run(_with_server(scenario))
        assert np.array_equal(np.concatenate([b.messages for b in blocks]), msgs)
        decode_batches = stats["sessions"]["1"]["max_batch_frames"]
        assert decode_batches > 1, "pipelined frames never coalesced"

    def test_error_injection_session_over_wire(self):
        async def scenario(server):
            client = await CodecClient.connect(port=server.port)
            session = await client.open_session("hamming84", p01=0.3, p10=0.3, seed=5)
            msgs = np.random.default_rng(2).integers(0, 2, (200, 4)).astype(np.uint8)
            words = await session.encode(msgs)
            decoded = await session.decode(words)
            stats = await client.stats()
            await client.close()
            clean = get_code("hamming84").encode_batch(msgs)
            return words, decoded, stats, clean

        words, decoded, stats, clean = run(_with_server(scenario))
        assert (words != clean).any(), "injection session returned clean words"
        session_stats = stats["sessions"]["1"]
        assert session_stats["corrected_frames"] + session_stats["detected_frames"] > 0
        assert session_stats["corrected_frames"] == int(
            ((decoded.corrected_errors > 0) & ~decoded.detected_uncorrectable).sum()
        )

    def test_unknown_session_and_code_surface_as_errors(self):
        async def scenario(server):
            client = await CodecClient.connect(port=server.port)
            with pytest.raises(protocol.ProtocolError, match="unknown session"):
                await client.request(
                    protocol.OP_DECODE,
                    protocol.build_batch_body(42, np.zeros((1, 8), np.uint8)),
                )
            with pytest.raises(protocol.ProtocolError, match="unknown code"):
                await client.open_session("golay")
            # The connection survives both errors.
            session = await client.open_session("hamming84")
            assert session.k == 4
            await client.close()

        run(_with_server(scenario))

    def test_response_over_frame_cap_yields_error_not_hang(self, monkeypatch):
        # Decode responses are larger than their requests; when one
        # exceeds the frame cap the client must get an ST_ERROR reply,
        # not wait forever on its request id.
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 256)

        async def scenario(server):
            client = await CodecClient.connect(port=server.port)
            session = await client.open_session("hamming84")
            words = np.zeros((100, 8), dtype=np.uint8)  # request ~115 B, reply ~310 B
            with pytest.raises(protocol.ProtocolError, match="cap"):
                await asyncio.wait_for(session.decode(words), timeout=5.0)
            # The connection is still serviceable afterwards.
            small = await session.decode(np.zeros((2, 8), dtype=np.uint8))
            assert len(small) == 2
            await client.close()
            # (The JSON stats snapshot itself exceeds the tiny test cap,
            # so read the counter off the server object.)
            return server.core.stats()["protocol_errors"]

        errors = run(_with_server(scenario))
        assert errors >= 1

    def test_client_rejects_wrong_frame_width(self):
        from repro.errors import DimensionError

        async def scenario(server):
            client = await CodecClient.connect(port=server.port)
            session = await client.open_session("hamming84")
            with pytest.raises(DimensionError, match=r"\(batch, 4\) messages"):
                await session.encode(np.ones((2, 5), dtype=np.uint8))
            with pytest.raises(DimensionError, match=r"\(batch, 8\) received"):
                await session.decode(np.ones((2, 7), dtype=np.uint8))
            await client.close()

        run(_with_server(scenario))

    def test_request_after_server_gone_fails_fast(self):
        async def scenario():
            server = CodecServer()
            await server.start()
            client = await CodecClient.connect(port=server.port)
            session = await client.open_session("hamming84")
            await server.stop()
            # Event-driven: fires exactly when the reader loop has torn
            # down, i.e. when new requests are guaranteed to fail fast.
            await client.wait_disconnected(timeout=5.0)
            # A *new* request on the dead connection must raise, not
            # await a response that can never arrive.
            with pytest.raises(ConnectionResetError):
                await asyncio.wait_for(
                    session.encode(np.zeros((1, 4), dtype=np.uint8)), timeout=2.0
                )
            await client.close()

        run(scenario())

    def test_codes_endpoint(self):
        async def scenario(server):
            client = await CodecClient.connect(port=server.port)
            listing = await client.codes()
            await client.close()
            return listing

        listing = run(_with_server(scenario))
        assert listing == catalog()


# ---------------------------------------------------------------------
# Load harness
# ---------------------------------------------------------------------
class TestLoadgen:
    @pytest.mark.parametrize("name", ["steady", "bursty", "mixed"])
    def test_noiseless_scenarios_have_zero_residual(self, name):
        async def scenario():
            server = CodecServer()
            await server.start()
            try:
                return await run_scenario(
                    "127.0.0.1", server.port, make_scenario(name),
                    clients=5, requests=8, frames_per_request=3, seed=2,
                )
            finally:
                await server.stop()

        report = run(scenario())
        assert report.frames_sent == 5 * 8 * 3
        assert report.residual_frames == 0
        assert report.flagged_frames == 0
        assert report.server_stats["frames_total"] == 2 * report.frames_sent
        assert report.throughput_fps > 0

    def test_burst_scenario_corrupts_and_reports_both_lanes(self):
        async def scenario():
            server = CodecServer()
            await server.start()
            try:
                return await run_scenario(
                    "127.0.0.1", server.port,
                    make_scenario(
                        "burst", code="hamming74", burst_len=6.0, density=0.15
                    ),
                    clients=4, requests=10, frames_per_request=4, seed=5,
                )
            finally:
                await server.stop()

        report = run(scenario())
        assert report.frames_sent == 4 * 10 * 4
        assert not report.client_errors
        # The client-side Gilbert-Elliott channel must have injected
        # errors (density 0.15 over 16 x 56-bit frames per client), and
        # corruption is counted against the known-clean encodings.
        assert 0 < report.corrupted_frames <= report.frames_sent
        sessions = report.server_stats["sessions"]
        configs = {s["config"] for s in sessions.values()}
        assert "hamming74:default" in configs
        assert "interleaved:hamming74:8:default" in configs
        # Both lanes decode (bare lane residuals are expected, not
        # asserted: the drill's contract is that the server stays up
        # and the telemetry shows decoder work).
        assert report.server_stats["frames_total"] == 2 * report.frames_sent
        corrected_total = sum(s["corrected_frames"] for s in sessions.values())
        assert corrected_total > 0

    def test_burst_scenario_rejects_decoder_override(self):
        with pytest.raises(ValueError, match="burst scenario"):
            make_scenario("burst", code="hamming74", decoder="ml")

    def test_adversarial_scenario_reports_decoder_work(self):
        async def scenario():
            server = CodecServer()
            await server.start()
            try:
                return await run_scenario(
                    "127.0.0.1", server.port, make_scenario("adversarial"),
                    clients=6, requests=10, frames_per_request=4, seed=3,
                )
            finally:
                await server.stop()

        report = run(scenario())
        # At p up to 0.08 on an SEC-DED code the decoder must have had
        # something to do; residuals are possible and allowed.
        assert report.corrupted_frames > 0
        total_decodes = sum(
            s["frames"].get("decode", 0)
            for s in report.server_stats["sessions"].values()
        )
        assert total_decodes == report.frames_sent

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            make_scenario("tsunami")


# ---------------------------------------------------------------------
# Soft-decision (LLR) op: batcher lane, wire round trip, telemetry
# ---------------------------------------------------------------------
class TestSoftOp:
    def test_soft_lane_slices_match_direct_kernel(self):
        async def scenario():
            session = _session()
            batcher = MicroBatcher()
            rng = np.random.default_rng(6)
            confidences = rng.normal(0.0, 1.0, (40, 8))
            chunks = [confidences[i:i + 5] for i in range(0, 40, 5)]
            results = await asyncio.gather(
                *(batcher.submit(session, "decode_soft", chunk) for chunk in chunks)
            )
            return results, confidences

        results, confidences = run(scenario())
        direct = get_decoder(get_code("hamming84")).decode_soft_batch_detailed(
            confidences
        )
        assert np.array_equal(
            np.concatenate([r.messages for r in results]), direct.messages
        )
        assert np.array_equal(
            np.concatenate([r.corrected_errors for r in results]),
            direct.corrected_errors,
        )
        assert np.array_equal(
            np.concatenate([r.detected_uncorrectable for r in results]),
            direct.detected_uncorrectable,
        )

    def test_empty_soft_request_completes_immediately(self):
        async def scenario():
            session = _session()
            batcher = MicroBatcher()
            return await batcher.submit(
                session, "decode_soft", np.zeros((0, 8), dtype=np.float64)
            )

        empty = run(scenario())
        assert len(empty) == 0
        assert empty.messages.shape == (0, 4)

    def test_soft_round_trip_over_wire(self):
        async def scenario(server):
            client = await CodecClient.connect(port=server.port)
            session = await client.open_session("rm13")
            rng = np.random.default_rng(8)
            msgs = rng.integers(0, 2, (60, 4)).astype(np.uint8)
            words = await asyncio.wait_for(session.encode(msgs), timeout=5.0)
            # Noisy-but-decodable confidences: right signs, jittered
            # magnitudes (no sign ever flips at this jitter level).
            confidences = 1.0 - 2.0 * words.astype(np.float64)
            confidences *= rng.uniform(0.25, 1.0, confidences.shape)
            decoded = await asyncio.wait_for(
                session.decode_soft(confidences), timeout=5.0
            )
            stats = await asyncio.wait_for(client.stats(), timeout=5.0)
            await client.close()
            return decoded, msgs, stats

        decoded, msgs, stats = run(_with_server(scenario))
        assert np.array_equal(decoded.messages, msgs)
        assert not decoded.detected_uncorrectable.any()
        session_stats = stats["sessions"]["1"]
        assert session_stats["frames"]["decode_soft"] == 60
        assert session_stats["soft_decoded_frames"] == 60

    def test_soft_decode_bit_identical_to_direct_kernel_under_concurrency(self):
        async def scenario(server):
            rng = np.random.default_rng(12)
            confidences = rng.normal(0.0, 1.0, (96, 8))
            client = await CodecClient.connect(port=server.port)
            session = await client.open_session("hamming84")
            blocks = await asyncio.gather(
                *(
                    session.decode_soft(confidences[i:i + 1])
                    for i in range(len(confidences))
                )
            )
            await client.close()
            return blocks, confidences

        blocks, confidences = run(_with_server(scenario))
        # The wire quantises to float32; the direct call must see the
        # same quantised values to be bit-comparable.
        quantised = confidences.astype(np.float32).astype(np.float64)
        direct = get_decoder(get_code("hamming84")).decode_soft_batch_detailed(
            quantised
        )
        assert np.array_equal(
            np.concatenate([b.messages for b in blocks]), direct.messages
        )
        assert np.array_equal(
            np.concatenate([b.detected_uncorrectable for b in blocks]),
            direct.detected_uncorrectable,
        )

    def test_soft_corrected_frames_counted(self):
        async def scenario(server):
            client = await CodecClient.connect(port=server.port)
            session = await client.open_session("rm13")
            msgs = np.random.default_rng(1).integers(0, 2, (20, 4)).astype(np.uint8)
            words = await session.encode(msgs)
            confidences = 1.0 - 2.0 * words.astype(np.float64)
            confidences[:, 0] *= -0.25  # one weak wrong bit per frame
            decoded = await session.decode_soft(confidences)
            stats = await client.stats()
            await client.close()
            return decoded, msgs, stats

        decoded, msgs, stats = run(_with_server(scenario))
        assert np.array_equal(decoded.messages, msgs)
        session_stats = stats["sessions"]["1"]
        # Frames whose weak bit had the wrong sign were soft-corrected.
        assert session_stats["soft_corrected_frames"] > 0
        assert (
            session_stats["soft_corrected_frames"]
            == int(((decoded.corrected_errors > 0)
                    & ~decoded.detected_uncorrectable).sum())
        )

    def test_non_finite_confidences_rejected_over_wire(self):
        async def scenario(server):
            client = await CodecClient.connect(port=server.port)
            session = await client.open_session("hamming84")
            poisoned = np.ones((2, 8))
            poisoned[0, 0] = np.nan
            with pytest.raises(protocol.ProtocolError, match="finite"):
                await session.decode_soft(poisoned)
            # The connection survives and clean frames still decode.
            clean = await session.decode_soft(np.ones((2, 8)))
            assert len(clean) == 2
            await client.close()

        run(_with_server(scenario))

    def test_client_rejects_wrong_soft_width(self):
        from repro.errors import DimensionError

        async def scenario(server):
            client = await CodecClient.connect(port=server.port)
            session = await client.open_session("hamming84")
            with pytest.raises(DimensionError, match=r"\(batch, 8\) confidences"):
                await session.decode_soft(np.zeros((2, 7)))
            await client.close()

        run(_with_server(scenario))

    def test_soft_loadgen_steady_zero_residual(self):
        async def scenario():
            server = CodecServer()
            await server.start()
            try:
                return await run_scenario(
                    "127.0.0.1", server.port, make_scenario("steady"),
                    clients=4, requests=6, frames_per_request=3, seed=9,
                    soft=True, soft_sigma=0.2,
                )
            finally:
                await server.stop()

        report = run(scenario())
        assert report.soft
        assert report.frames_sent == 4 * 6 * 3
        # sigma=0.2 jitter on ±1 signs can flip bits; the soft decoder
        # must absorb them all on a noiseless session.
        assert report.residual_frames == 0
        total_soft = sum(
            s["soft_decoded_frames"]
            for s in report.server_stats["sessions"].values()
        )
        assert total_soft == report.frames_sent


# ---------------------------------------------------------------------
# Session lifecycle: lane cleanup, clocks, flush safety
# ---------------------------------------------------------------------
class TestServiceLifecycle:
    def test_sessions_answer_after_a_restart_under_a_new_event_loop(self):
        """Regression: a lane kept the loop it was built under.

        A server stopped in one ``asyncio.run`` and started in another
        answered a one-frame DECODE of an older session with "internal
        error: Event loop is closed", and a non-final push to an older
        depth-4 stream with an internal error naming a future attached
        to a different loop.

        The sessions open in-process, through :meth:`CodecServer.dispatch`,
        so that no connection owns them and they outlive the first life.
        """
        code = get_code("hamming84")
        words = code.encode_batch(np.array([[1, 0, 1, 1]], dtype=np.uint8))
        confidences = 1.0 - 2.0 * np.repeat(words, 4, axis=0).astype(np.float64)
        server = CodecServer(workers=0)

        async def open_in_process(client, **config):
            body = protocol.build_json_body(config)
            reply = await server.dispatch(protocol.Request(protocol.OP_OPEN, 1, body))
            return SessionHandle(client, json.loads(reply))

        async def first_life():
            await server.start()
            client = await CodecClient.connect(port=server.port)
            batch = await open_in_process(client, code="hamming84", seed=1)
            stream = await open_in_process(
                client, code="hamming84", seed=2, stream_depth=4
            )
            decoded = await batch.decode(words)
            await stream.decode_stream(confidences[:1], 0, final=True)
            await client.close()
            await server.stop()
            return batch.session_id, stream.session_id, decoded.messages

        async def second_life(batch_id, stream_id):
            await server.start()
            client = await CodecClient.connect(port=server.port)
            body = protocol.build_batch_body(batch_id, words)
            decode = await client.request(protocol.OP_DECODE, body)
            pushes = [
                protocol.build_stream_push_body(stream_id, 1, confidences[1:3]),
                protocol.build_stream_push_body(stream_id, 3, confidences[3:], final=True),
            ]
            sent = [
                await client.send_request(protocol.OP_DECODE_STREAM, push)
                for push in pushes
            ]
            replies = await asyncio.gather(*sent)
            await client.close()
            await server.stop()
            return decode, replies

        batch_id, stream_id, first = run(first_life())
        decode, replies = run(second_life(batch_id, stream_id))
        messages, _, _ = protocol.parse_decode_response_body(decode.body, code.k)
        assert np.array_equal(messages, first)
        for reply, rows in zip(replies, (2, 1)):
            assert reply.status == protocol.ST_OK, reply.body
            decided = protocol.parse_stream_response_body(reply.body, code.k)
            assert len(decided[0]) == rows

    def test_lane_map_stays_bounded_over_session_churn(self):
        """Regression: closed sessions must not leak (session, op) lanes."""
        from repro.service import DispatchCore

        async def scenario():
            core = DispatchCore()
            msgs = np.ones((2, 4), dtype=np.uint8)
            words = np.zeros((2, 1), dtype=np.uint8)  # two packed hamming84 words
            for i in range(25):
                # Distinct seeds make distinct configs, so every cycle
                # opens a genuinely new session (no dedup rejoin).
                session = core.open_session(SessionConfig(code="hamming84", seed=i))
                await core.batcher.submit(session, "encode", msgs)
                await core.batcher.submit(session, "decode", words)
                assert len(core.batcher._lanes) == 2
                report = core.close_session(session.session_id)
                assert report["lanes_closed"] == 2
                assert len(core.batcher._lanes) == 0
                with pytest.raises(SessionError):
                    core.registry.get(session.session_id)
            return len(core.batcher._lanes)

        assert run(scenario()) == 0

    def test_close_session_steps_do_not_grow_with_live_sessions(self):
        """A close looks up its own lanes; it never scans every lane."""
        ops = ("encode", "decode", "decode_soft")

        def close_steps(others):
            batcher = MicroBatcher()

            async def open_lanes():
                for session_id in range(1, others + 2):
                    session = CodecSession(session_id, SessionConfig(code="hamming84"))
                    for op in ops:
                        batcher._lane(session, op)

            asyncio.run(open_lanes())
            closing = {(1, op): batcher._lanes[(1, op)] for op in ops}

            def close():
                batcher._lanes.update(closing)
                assert batcher.close_session(1) == len(ops)

            steps = count_steps(close)
            assert len(batcher._lanes) == others * len(ops)
            return steps

        assert close_steps(512) == close_steps(1)

    def test_open_session_builds_no_metrics_registry(self, monkeypatch):
        """A session's telemetry is built once, on the core's registry."""
        from repro.obs import metrics

        core = DispatchCore()
        built = []
        original = metrics.MetricsRegistry.__init__

        def counting_init(registry):
            built.append(registry)
            original(registry)

        monkeypatch.setattr(metrics.MetricsRegistry, "__init__", counting_init)
        session = core.open_session(SessionConfig(code="hamming84", seed=3))
        assert built == []
        session.telemetry.record_request("decode", 2)
        assert core.stats()["sessions"]["1"]["frames"] == {"decode": 2}

    def test_session_churn_keeps_telemetry_bounded(self):
        """Closed sessions fold their series: churn leaves nothing per session."""
        word = np.zeros((1, 8), dtype=np.uint8)

        async def call(core, opcode, body=b""):
            return await core.dispatch(protocol.Request(opcode, 0, body))

        async def cycle(core, seed):
            config = protocol.build_json_body({"code": "hamming84", "seed": seed})
            info = protocol.parse_json_body(await call(core, protocol.OP_OPEN, config))
            sid = info["session_id"]
            reply = await call(core, protocol.OP_DECODE, protocol.build_batch_body(sid, word))
            messages, _, _ = protocol.parse_decode_response_body(reply, 4)
            assert messages.shape == (1, 4) and not messages.any()
            close = protocol.build_json_body({"session_id": sid})
            await call(core, protocol.OP_CLOSE, close)

        def series(core):
            snapshot = core.telemetry.metrics_snapshot()
            return sum(len(family["series"]) for family in snapshot["families"])

        async def scenario():
            core = DispatchCore()
            await cycle(core, 0)
            first = series(core)
            for seed in range(1, 500):
                await cycle(core, seed)
            scrape = await call(core, protocol.OP_METRICS)
            stats = protocol.parse_json_body(await call(core, protocol.OP_STATS))
            return first, series(core), scrape, stats

        first, last, scrape, stats = run(scenario())
        assert last == first
        assert len(scrape) <= protocol.MAX_FRAME_BYTES
        assert stats["sessions"] == {}
        scraped = sum(
            float(line.rsplit(" ", 1)[1])
            for line in scrape.decode("utf-8").splitlines()
            if line.startswith("repro_service_frames_total")
        )
        assert scraped == stats["frames_total"] == 500

    def test_close_session_flushes_queued_frames_first(self):
        """Close answers queued futures; it never strands them."""

        async def scenario():
            batcher = MicroBatcher()
            session, core = _core_session()
            pending = asyncio.ensure_future(
                batcher.submit(session, "encode", np.ones((2, 4), dtype=np.uint8))
            )
            await asyncio.sleep(0)  # let submit enqueue
            assert batcher.pending_frames() == 2
            assert batcher.close_session(session.session_id) == 1
            result = await asyncio.wait_for(pending, timeout=2.0)
            return result, _flush_reasons(core, session)

        result, reasons = run(scenario())
        assert result.shape == (2, 8)
        assert reasons == {"close": 1}

    def test_no_stale_turn_flush_after_close_reuses_key(self):
        """A recycled (session, op) key must not inherit a dead lane's flush."""

        async def scenario():
            batcher = MicroBatcher()
            session, core = _core_session()
            first = asyncio.ensure_future(
                batcher.submit(session, "encode", np.ones((1, 4), dtype=np.uint8))
            )
            await asyncio.sleep(0)
            lane = batcher._lanes[(session.session_id, "encode")]
            scheduled = lane.scheduled
            assert scheduled is not None
            batcher.close_session(session.session_id)
            assert scheduled.cancelled() and lane.scheduled is None
            # Reuse the key before the closed lane's turn flush would run.
            second = asyncio.ensure_future(
                batcher.submit(session, "encode", np.ones((3, 4), dtype=np.uint8))
            )
            await asyncio.sleep(0)
            reused = batcher._lanes[(session.session_id, "encode")]
            assert reused is not lane and reused.pending_frames == 3
            await first
            result = await asyncio.wait_for(second, timeout=2.0)
            return result, _flush_reasons(core, session)

        result, reasons = run(scenario())
        assert result.shape == (3, 8)
        # Exactly one close flush and one turn flush: a stale callback
        # would have added a spurious flush against the reused key.
        assert reasons == {"close": 1, "turn": 1}

    def test_flush_all_survives_lane_opened_by_kernel_side_effect(self):
        """flush_all iterates a snapshot: a kernel opening a lane mid-drain
        must not blow up the iteration with a mutated-dict RuntimeError."""

        async def scenario():
            batcher = MicroBatcher()
            session_a = _session()
            session_b = CodecSession(2, SessionConfig(code="hamming84", seed=99))
            kernel = session_a.encode_frames

            def opening_kernel(batch):
                # Synchronously open a brand-new lane during the flush.
                batcher._lane(session_b, "encode")
                return kernel(batch)

            session_a.encode_frames = opening_kernel
            pending = asyncio.ensure_future(
                batcher.submit(session_a, "encode", np.ones((2, 4), dtype=np.uint8))
            )
            await asyncio.sleep(0)
            batcher.flush_all()
            result = await asyncio.wait_for(pending, timeout=2.0)
            return result, set(batcher._lanes)

        result, lanes = run(scenario())
        assert result.shape == (2, 8)
        assert (2, "encode") in lanes

    def test_telemetry_clocks_default_to_perf_counter(self):
        """Pin the timebase: batcher/tracer stamp with perf_counter, so the
        telemetry and the session open times must too (monotonic here
        once skewed uptime and throughput against the latency
        attributions)."""
        import time as _time

        from repro.service import ServiceTelemetry

        before = _time.perf_counter()
        telemetry = ServiceTelemetry()
        assert before <= telemetry.started_at <= _time.perf_counter()
        session = _session()
        assert before <= session.opened_at <= _time.perf_counter()
