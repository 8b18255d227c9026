"""Online sliding-window decoding: library, wire lane, deadlines, loadgen."""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import (
    SlidingWindowDecoder,
    deinterleave_stream,
    get_code,
    get_decoder,
    interleave_stream,
    stream_span,
)
from repro.errors import DimensionError, SessionError
from repro.service import (
    CodecClient,
    CodecServer,
    ProtocolError,
    SessionConfig,
    SessionRegistry,
    make_scenario,
    run_scenario,
)
from repro.service import protocol
from repro.service.session import MAX_STREAM_WINDOW_VALUES

SCENARIO_TIMEOUT_S = 20.0


def run(coro, timeout: float = SCENARIO_TIMEOUT_S):
    async def bounded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(bounded())


def _case(count=40, depth=4, shift=1, seed=0, flip_p=0.0, code="hamming84"):
    """Seeded stream fixture: messages, codewords, channel confidences.

    ``flip_p`` flips channel bits i.i.d. *before* interleaving maps them
    to confidences — the offline reference sees the very same values, so
    bit-identity assertions stay exact even with corruption.
    """
    rng = np.random.default_rng(seed)
    code_obj = get_code(code)
    messages = rng.integers(0, 2, (count, code_obj.k)).astype(np.uint8)
    words = code_obj.encode_batch(messages)
    channel = interleave_stream(words, depth, shift=shift)
    if flip_p:
        flips = (rng.random(channel.shape) < flip_p).astype(np.uint8)
        channel = channel ^ flips
    confidences = 1.0 - 2.0 * channel.astype(np.float64)
    return messages, words, channel, confidences


# ---------------------------------------------------------------------
# Convolutional stream interleaving
# ---------------------------------------------------------------------
class TestInterleaveStream:
    @pytest.mark.parametrize(
        "depth,shift", [(1, 1), (2, 1), (4, 1), (4, 2), (3, 3), (8, 1)]
    )
    def test_round_trip_is_exact(self, depth, shift):
        rng = np.random.default_rng(depth * 10 + shift)
        words = rng.integers(0, 2, (25, 8)).astype(np.uint8)
        channel = interleave_stream(words, depth, shift=shift)
        assert channel.shape == (25 + stream_span(depth, shift), 8)
        assert np.array_equal(
            deinterleave_stream(channel, depth, shift=shift), words
        )

    def test_depth_one_is_identity(self):
        words = np.arange(24, dtype=np.uint8).reshape(3, 8) % 2
        assert np.array_equal(interleave_stream(words, 1), words)
        assert stream_span(1) == 0

    def test_shift_zero_is_identity(self):
        words = np.random.default_rng(1).integers(0, 2, (5, 8)).astype(np.uint8)
        assert np.array_equal(interleave_stream(words, 4, shift=0), words)
        assert stream_span(4, 0) == 0

    def test_ramp_positions_are_zero(self):
        words = np.ones((6, 8), dtype=np.uint8)
        channel = interleave_stream(words, 4)
        delays = np.arange(8) % 4
        for t in range(len(channel)):
            source = t - delays
            outside = (source < 0) | (source >= 6)
            assert (channel[t, outside] == 0).all()
            assert (channel[t, ~outside] == 1).all()

    def test_empty_stream(self):
        empty = np.zeros((0, 8), dtype=np.uint8)
        channel = interleave_stream(empty, 4)
        assert channel.shape == (3, 8)
        assert (channel == 0).all()
        assert deinterleave_stream(channel, 4).shape == (0, 8)

    def test_float_confidences_pass_through(self):
        values = np.random.default_rng(2).normal(size=(10, 8))
        channel = interleave_stream(values, 3, shift=2)
        assert channel.dtype == values.dtype
        assert np.array_equal(
            deinterleave_stream(channel, 3, shift=2), values
        )

    def test_bad_layouts_rejected(self):
        words = np.zeros((4, 8), dtype=np.uint8)
        with pytest.raises(ValueError):
            interleave_stream(words, 0)
        with pytest.raises(ValueError):
            interleave_stream(words, 2, shift=-1)
        with pytest.raises(ValueError):
            stream_span(0)
        with pytest.raises(DimensionError):
            interleave_stream(np.zeros(8, dtype=np.uint8), 2)
        with pytest.raises(DimensionError):
            deinterleave_stream(np.zeros((2, 8), dtype=np.uint8), 4)


# ---------------------------------------------------------------------
# Sliding-window decoder (library layer)
# ---------------------------------------------------------------------
class TestSlidingWindowDecoder:
    @pytest.mark.parametrize("depth,shift", [(2, 1), (4, 1), (4, 2), (3, 3)])
    @pytest.mark.parametrize("flip_p", [0.0, 0.03])
    def test_bit_identical_to_offline_any_chunking(self, depth, shift, flip_p):
        messages, _, channel, confidences = _case(
            count=48, depth=depth, shift=shift, seed=7, flip_p=flip_p
        )
        decoder = get_decoder(get_code("hamming84"))
        offline = decoder.decode_soft_batch_detailed(
            deinterleave_stream(confidences, depth, shift=shift)
        )
        # Push in irregular seeded chunk sizes, including empty ones.
        rng = np.random.default_rng(depth * 100 + shift)
        sw = SlidingWindowDecoder(decoder, depth, shift=shift)
        rows, corrected, detected = [], [], []
        committed = 0
        start = 0
        while start < len(confidences):
            m = int(rng.integers(0, 7))
            decisions = sw.push(confidences[start:start + m])
            assert not decisions.forced
            assert decisions.first_index == committed
            committed += len(decisions)
            rows.append(decisions.messages)
            corrected.append(decisions.corrected_errors)
            detected.append(decisions.detected_uncorrectable)
            start += m
        # Every real codeword closes by arrival; only ramp-tail phantoms
        # remain open.
        count = len(messages)
        got = np.concatenate(rows)
        assert len(got) >= count
        assert np.array_equal(got[:count], offline.messages)
        assert np.array_equal(
            np.concatenate(corrected)[:count], offline.corrected_errors
        )
        assert np.array_equal(
            np.concatenate(detected)[:count], offline.detected_uncorrectable
        )
        if flip_p == 0.0:
            assert np.array_equal(got[:count], messages)

    def test_window_occupancy_is_bounded_by_span(self):
        _, _, _, confidences = _case(count=64, depth=8, shift=2, seed=3)
        sw = SlidingWindowDecoder(get_decoder(get_code("hamming84")), 8, shift=2)
        span = stream_span(8, 2)
        for t in range(len(confidences)):
            sw.push(confidences[t:t + 1])
            assert sw.pending <= span
        assert sw.pending == span
        assert sw.next_frame_index == len(confidences)

    def test_force_decodes_missing_positions_as_erasures(self):
        messages, _, _, confidences = _case(count=10, depth=4, seed=5)
        sw = SlidingWindowDecoder(get_decoder(get_code("hamming84")), 4)
        assert len(sw.push(confidences[:2])) == 0
        assert sw.pending == 2
        decisions = sw.force(2)
        assert decisions.forced
        assert len(decisions) == 2
        assert decisions.first_index == 0
        assert sw.pending == 0
        # Codeword 0 had frames 0..1 of its span-3 window: classes 2, 3
        # were erased; SEC-DED on Hamming(8,4) cannot promise the right
        # message, but the decision must exist and be well-formed.
        assert decisions.messages.shape == (2, 4)

    def test_late_contributions_for_forced_codewords_are_dropped(self):
        messages, _, _, confidences = _case(count=20, depth=4, seed=11)
        decoder = get_decoder(get_code("hamming84"))
        sw = SlidingWindowDecoder(decoder, 4)
        sw.push(confidences[:1])
        sw.force(1)  # decide codeword 0 early; its later frames must drop
        out = [sw.push(confidences[1:]).messages, sw.flush().messages]
        got = np.vstack(out)
        # Codewords 1.. were never forced: still bit-identical to source.
        assert np.array_equal(got[:19], messages[1:])

    def test_flush_drains_everything(self):
        _, _, _, confidences = _case(count=6, depth=4, seed=2)
        sw = SlidingWindowDecoder(get_decoder(get_code("hamming84")), 4)
        sw.push(confidences)
        tail = sw.flush()
        assert tail.forced
        assert sw.pending == 0
        assert len(sw.flush()) == 0

    def test_rejects_bad_inputs(self):
        sw = SlidingWindowDecoder(get_decoder(get_code("hamming84")), 4)
        with pytest.raises(DimensionError):
            sw.push(np.zeros((2, 7)))
        with pytest.raises(ValueError):
            sw.force(-1)
        with pytest.raises(ValueError):
            SlidingWindowDecoder(get_decoder(get_code("hamming84")), 0)


# ---------------------------------------------------------------------
# Forced-erasure properties (hypothesis)
# ---------------------------------------------------------------------
#: An interleaved plan step: push this many frames, then force this many.
_plan_steps = st.lists(
    st.tuples(st.integers(0, 10), st.integers(0, 6)), min_size=1, max_size=10
)


class TestStreamForceProperties:
    @given(st.integers(1, 6), st.integers(1, 3), _plan_steps,
           st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_no_index_dropped_or_duplicated(self, depth, shift, plan, seed):
        # Whatever the push/force interleaving, the concatenated
        # decisions (with a final flush) cover codeword indices
        # 0..N-1 contiguously — forcing can degrade a decision, never
        # lose or re-emit one.
        online = SlidingWindowDecoder(get_decoder(get_code("hamming84")),
                                      depth, shift)
        total = sum(push_count for push_count, _ in plan)
        rng = np.random.default_rng(seed)
        confidences = rng.uniform(-1.0, 1.0, (total, online.n))
        cursor = 0
        runs = []
        for push_count, force_count in plan:
            decisions = online.push(confidences[cursor:cursor + push_count])
            cursor += push_count
            assert not decisions.forced
            runs.append(decisions)
            before = online.pending
            forced = online.force(force_count)
            assert forced.forced
            assert len(forced) == min(force_count, before)
            runs.append(forced)
        runs.append(online.flush())
        assert online.pending == 0
        assert online.next_frame_index == total
        indices = []
        for decisions in runs:
            assert (
                len(decisions)
                == len(decisions.corrected_errors)
                == len(decisions.detected_uncorrectable)
            )
            indices.extend(
                range(decisions.first_index, decisions.first_index + len(decisions))
            )
        assert indices == list(range(total))

    @given(st.integers(2, 6), st.integers(1, 2), st.integers(1, 20),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_force_is_final_under_late_contributions(self, depth, shift,
                                                     forced_count, seed):
        # Forcing the head of the stream, then pushing the frames that
        # would have completed those codewords, must neither revisit the
        # forced indices nor disturb the indices that follow.
        _, _, _, confidences = _case(count=20, depth=depth, shift=shift,
                                     seed=seed % 1000)
        online = SlidingWindowDecoder(get_decoder(get_code("hamming84")),
                                      depth, shift)
        head = online.push(confidences[:depth])
        forced = online.force(forced_count)
        expected_forced = min(forced_count, depth - len(head))
        assert len(forced) == expected_forced
        tail = online.push(confidences[depth:])
        drained = online.flush()
        first_after_force = forced.first_index + len(forced)
        assert tail.first_index == len(head) + expected_forced
        assert drained.first_index + len(drained) == len(confidences)
        assert tail.first_index >= first_after_force
        assert online.pending == 0


# ---------------------------------------------------------------------
# Wire protocol bodies
# ---------------------------------------------------------------------
class TestStreamProtocol:
    def test_push_body_round_trip(self):
        values = np.random.default_rng(0).normal(size=(5, 8))
        body = protocol.build_stream_push_body(3, 17, values, final=True)
        session_id, first_index, final, parsed = protocol.parse_stream_push_body(
            body, lambda session_id: 8
        )
        assert (session_id, first_index, final) == (3, 17, True)
        assert parsed.dtype == np.float64
        np.testing.assert_allclose(parsed, values, rtol=1e-6)

    def test_push_body_routes_through_peek(self):
        body = protocol.build_stream_push_body(9, 0, np.zeros((2, 8)))
        session_id, n_frames = protocol.peek_batch_header(body)
        assert (session_id, n_frames) == (9, 2)

    def test_push_body_rejects_non_finite(self):
        poisoned = np.zeros((2, 8))
        poisoned[1, 3] = np.inf
        body = protocol.build_stream_push_body(1, 0, poisoned)
        with pytest.raises(ProtocolError):
            protocol.parse_stream_push_body(body, lambda session_id: 8)

    def test_response_body_round_trip(self):
        rng = np.random.default_rng(1)
        messages = rng.integers(0, 2, (6, 4)).astype(np.uint8)
        corrected = rng.integers(0, 3, 6).astype(np.int64)
        detected = rng.integers(0, 2, 6).astype(bool)
        status = np.array([0, 0, 1, 1, 2, 2], dtype=np.uint8)
        body = protocol.build_stream_response_body(
            messages, corrected, detected, status
        )
        got_m, got_c, got_d, got_s = protocol.parse_stream_response_body(body, 4)
        assert np.array_equal(got_m, messages)
        assert np.array_equal(got_c, corrected)
        assert np.array_equal(got_d, detected)
        assert np.array_equal(got_s, status)


# ---------------------------------------------------------------------
# Service streaming lane, end to end
# ---------------------------------------------------------------------
async def _stream_over_wire(session, confidences, chunk, depth=None):
    """Pipeline `confidences` in `chunk`-frame pushes; gather all blocks."""
    total = len(confidences)
    pending = []
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        pending.append(
            await session.push_stream(
                confidences[start:stop], start, final=stop >= total
            )
        )
    return [await block for block in pending]


class TestStreamService:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_round_trip_bit_identical_zero_misses(self, workers):
        async def scenario():
            server = CodecServer(port=0, workers=workers)
            await server.start()
            try:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session(
                    "hamming84", stream_depth=4, stream_shift=2
                )
                assert session.info["stream_span"] == 6
                messages, _, _, confidences = _case(
                    count=30, depth=4, shift=2, seed=13, flip_p=0.02
                )
                words_ref = get_decoder(
                    get_code("hamming84")
                ).decode_soft_batch_detailed(
                    deinterleave_stream(confidences, 4, shift=2)
                )
                blocks = await _stream_over_wire(session, confidences, 7)
                decided = np.concatenate([b.messages for b in blocks])
                status = np.concatenate([b.status for b in blocks])
                corrected = np.concatenate(
                    [b.corrected_errors for b in blocks]
                )
                closing = await session.close()
                await client.close()
                return (
                    messages, words_ref, decided, status, corrected, closing
                )
            finally:
                await server.stop()

        messages, ref, decided, status, corrected, closing = run(scenario())
        count = len(messages)
        # On-time rows are bit-identical to the offline reference decode.
        assert (status[:count] == protocol.STREAM_ROW_ON_TIME).all()
        assert np.array_equal(decided[:count], ref.messages)
        assert np.array_equal(corrected[:count], ref.corrected_errors)
        # The ramp tail drains as FLUSHED on the final push; no deadline
        # fired anywhere.
        assert (status[count:] == protocol.STREAM_ROW_FLUSHED).all()
        assert (status != protocol.STREAM_ROW_FORCED).all()
        assert closing["stream_closed"]

    def test_deadline_forces_late_windows_then_stream_resumes(self):
        """The deterministic late-window chaos drill.

        A client pushes the head of a stream and then *stalls*.  The
        open windows can never close by arrival, so without a deadline
        the push's response would hang forever; with one, the response
        must arrive (forced, counted as misses) and the stream must then
        accept the remaining frames as if nothing happened.  All waits
        are on the responses themselves — no sleeps.
        """

        async def scenario():
            server = CodecServer(port=0)
            await server.start()
            try:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session(
                    "hamming84", stream_depth=4, stream_deadline_us=20_000.0
                )
                messages, _, _, confidences = _case(count=8, depth=4, seed=17)
                # Stall after 4 frames: codeword 0 closes by arrival
                # (span 3), codewords 1..3 are stuck open.
                head = await session.push_stream(confidences[:4], 0)
                head_block = await asyncio.wait_for(head, timeout=10.0)
                # Resume exactly where the stream left off.
                tail = await session.push_stream(
                    confidences[4:], 4, final=True
                )
                tail_block = await asyncio.wait_for(tail, timeout=10.0)
                stats = await client.stats()
                await client.close()
                return messages, head_block, tail_block, stats
            finally:
                await server.stop()

        messages, head, tail, stats = run(scenario())
        assert head.status[0] == protocol.STREAM_ROW_ON_TIME
        assert (head.status[1:] == protocol.STREAM_ROW_FORCED).all()
        assert np.array_equal(head.messages[0], messages[0])
        # Forced decisions answered every stalled row: nothing dropped,
        # nothing stalled past the deadline.
        assert len(head) == 4
        # The resumed stream decides its remaining real codewords on
        # time and drains the ramp tail.
        assert len(tail) == len(tail.status)
        assert (tail.status != protocol.STREAM_ROW_FORCED).all()
        session_stats = next(iter(stats["sessions"].values()))
        assert session_stats["stream"]["deadline_misses"] == 3
        assert session_stats["stream"]["decisions"]["forced"] == 3

    def test_deadline_fires_without_any_followup_push(self):
        async def scenario():
            server = CodecServer(port=0, stream_deadline_us=15_000.0)
            await server.start()
            try:
                client = await CodecClient.connect(port=server.port)
                # No per-session deadline: the server-wide default applies.
                session = await client.open_session("hamming84", stream_depth=4)
                _, _, _, confidences = _case(count=4, depth=4, seed=19)
                block = await asyncio.wait_for(
                    await session.push_stream(confidences[:2], 0), timeout=10.0
                )
                await client.close()
                return block
            finally:
                await server.stop()

        block = run(scenario())
        assert (block.status == protocol.STREAM_ROW_FORCED).all()
        assert len(block) == 2

    def test_discontinuity_rejected_window_unharmed(self):
        async def scenario():
            server = CodecServer(port=0)
            await server.start()
            try:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84", stream_depth=4)
                messages, _, _, confidences = _case(count=6, depth=4, seed=23)
                with pytest.raises(ProtocolError, match="discontinuity"):
                    await session.decode_stream(confidences[:2], 5)
                # The refused push must not have touched the stream.
                blocks = await _stream_over_wire(session, confidences, 3)
                decided = np.concatenate([b.messages for b in blocks])
                await client.close()
                return messages, decided
            finally:
                await server.stop()

        messages, decided = run(scenario())
        assert np.array_equal(decided[: len(messages)], messages)

    def test_close_with_open_windows_flushes_them(self):
        async def scenario():
            server = CodecServer(port=0)
            await server.start()
            try:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84", stream_depth=4)
                _, _, _, confidences = _case(count=4, depth=4, seed=29)
                pending = await session.push_stream(confidences[:2], 0)
                closing = await session.close()
                block = await asyncio.wait_for(pending, timeout=10.0)
                await client.close()
                return closing, block
            finally:
                await server.stop()

        closing, block = run(scenario())
        assert closing["stream_closed"]
        assert (block.status == protocol.STREAM_ROW_FLUSHED).all()
        assert len(block) == 2

    def test_stream_push_on_non_stream_session_rejected(self):
        async def scenario():
            server = CodecServer(port=0)
            await server.start()
            try:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84")
                with pytest.raises(ProtocolError, match="stream"):
                    await session.decode_stream(np.zeros((1, 8)), 0, final=True)
                await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_bad_stream_params_rejected_at_open(self):
        async def scenario():
            server = CodecServer(port=0)
            await server.start()
            try:
                client = await CodecClient.connect(port=server.port)
                with pytest.raises(ProtocolError):
                    await client.open_session("hamming84", stream_depth=0)
                with pytest.raises(ProtocolError):
                    await client.open_session(
                        "hamming84", stream_depth=4, stream_deadline_us=-5.0
                    )
                await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_stream_window_is_bounded_at_open(self):
        registry = SessionRegistry()
        # hamming84 (n = 8) at depth 2: a shift of MAX / 8 is exactly the bound.
        shift = MAX_STREAM_WINDOW_VALUES // 8
        edge = SessionConfig("hamming84", stream_depth=2, stream_shift=shift)
        assert registry.open(edge).session_id == 1
        over = SessionConfig("hamming84", stream_depth=2, stream_shift=shift + 1)
        with pytest.raises(SessionError, match="MAX_STREAM_WINDOW_VALUES"):
            registry.open(over)
        assert registry.open(SessionConfig("hamming74", stream_depth=3)).session_id == 2

    def test_stream_metric_families_render(self):
        async def scenario():
            server = CodecServer(port=0)
            await server.start()
            try:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84", stream_depth=4)
                _, _, _, confidences = _case(count=6, depth=4, seed=31)
                await _stream_over_wire(session, confidences, 4)
                text = await client.metrics()
                await client.close()
                return text
            finally:
                await server.stop()

        text = run(scenario())
        assert "repro_stream_deadline_miss_total" in text
        assert 'repro_stream_decisions_total' in text
        assert 'result="ontime"' in text
        assert "repro_stream_window_pending" in text
        assert "repro_stream_window_occupancy_bucket" in text
        assert 'op="decode_stream"' in text


class TestStreamLoadgen:
    def test_stream_scenario_zero_residual_zero_misses(self):
        async def scenario():
            server = CodecServer(port=0)
            await server.start()
            try:
                shape = make_scenario(
                    "stream", code="hamming84", decoder=None, depth=4, shift=1
                )
                return await run_scenario(
                    "127.0.0.1", server.port, shape,
                    clients=4, requests=5, frames_per_request=4, seed=41,
                )
            finally:
                await server.stop()

        report = run(scenario())
        assert not report.client_errors, report.client_errors
        assert report.frames_sent == 4 * 5 * 4
        assert report.residual_frames == 0
        assert report.deadline_missed_frames == 0
        assert report.to_dict()["deadline_missed_frames"] == 0

    def test_stream_scenario_with_jitter_stays_clean(self):
        async def scenario():
            server = CodecServer(port=0)
            await server.start()
            try:
                shape = make_scenario(
                    "stream", code="hamming84", decoder=None, depth=4, shift=2
                )
                return await run_scenario(
                    "127.0.0.1", server.port, shape,
                    clients=2, requests=4, frames_per_request=4, seed=43,
                    soft_sigma=0.2,
                )
            finally:
                await server.stop()

        report = run(scenario())
        assert not report.client_errors, report.client_errors
        assert report.residual_frames == 0
