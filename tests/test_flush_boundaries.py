"""Where the micro-batcher cuts its flushes changes no answer and no bound.

A lane flushes inline once it holds ``MAX_BATCH`` frames and otherwise
on the event loop's next turn after its first enqueue; a request over
``MAX_CHUNK_FRAMES`` is fed through in chunks of that size.  So the same frames can reach the
kernel in very different batches.  Decoding works row by row, and
encode injects its errors with one ``rng.random`` draw per bit over the
concatenated block, so no flush boundary may move a seeded draw: every
way of submitting the same messages returns the codewords of one
``CodecSession.encode_frames`` call over all of them.

The inline size flush is also the batcher's only backpressure: a submit
that reaches ``MAX_BATCH`` flushes before it yields, so no lane holds a
full batch across an await and no kernel call sees more than
``MAX_BATCH - 1 + MAX_CHUNK_FRAMES`` rows.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import get_code
from repro.service import MicroBatcher, SessionConfig
from repro.service.batcher import MAX_BATCH, MAX_CHUNK_FRAMES, _Lane
from repro.service.session import CodecSession

#: An encode session that flips bits: every frame consumes seeded draws.
CONFIG = SessionConfig(code="hamming84", p01=0.2, p10=0.2, seed=20261019)

#: The most rows one kernel call may see.
ROW_BOUND = MAX_BATCH - 1 + MAX_CHUNK_FRAMES


def _messages(rows: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, (rows, 4)).astype(np.uint8)


def _submit_in_rounds(rounds, messages):
    """Encode ``messages`` through one batcher on a fresh injecting session.

    ``rounds`` is a list of rounds, each a list of request sizes; the
    requests of a round are submitted concurrently, in order, and the
    next round's once the lane's turn flush has run.  Returns the
    codewords in request order, the rows of every kernel call, and how
    many frames each lane held whenever a submit had just enqueued.
    """
    calls, held = [], []

    async def scenario():
        session = CodecSession(1, CONFIG)
        kernel = session.encode_frames

        def spy(batch):
            calls.append(len(batch))
            return kernel(batch)

        session.encode_frames = spy
        batcher = MicroBatcher()
        tasks, offset = [], 0
        for sizes in rounds:
            for size in sizes:
                block = messages[offset:offset + size]
                offset += size
                submit = batcher.submit(session, "encode", block)
                tasks.append(asyncio.ensure_future(submit))
            # Let the round enqueue, then yield until its turn flush ran.
            await asyncio.sleep(0)
            while batcher.pending_frames():
                await asyncio.sleep(0)
        return await asyncio.gather(*tasks)

    enqueue = _Lane.enqueue

    def watched_enqueue(lane, *args):
        # A submit yields only on the future enqueue returns, so the
        # lane's state right here is what it holds across that await.
        future = enqueue(lane, *args)
        held.append(lane.pending_frames)
        return future

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Lane, "enqueue", watched_enqueue)
        results = asyncio.run(scenario())
    codewords = np.concatenate(results) if results else np.zeros((0, 8), np.uint8)
    return codewords, calls, held


@pytest.mark.parametrize(
    "rounds, kernel_calls",
    [
        pytest.param([[300]], [300], id="one-request"),
        pytest.param([[1] * 300], [MAX_BATCH, 44], id="one-frame-submits"),
        pytest.param([[1] * 100] * 3, [100, 100, 100], id="turn-flushes"),
        pytest.param([[100, 100, 60, 40]], [260, 40], id="crosses-size-flush"),
        pytest.param(
            [[2 * MAX_CHUNK_FRAMES + 37]],
            [MAX_CHUNK_FRAMES, MAX_CHUNK_FRAMES, 37],
            id="chunked",
        ),
    ],
)
def test_flush_boundaries_move_no_seeded_draw(rounds, kernel_calls):
    rows = sum(map(sum, rounds))
    messages = _messages(rows)
    codewords, calls, _ = _submit_in_rounds(rounds, messages)
    assert calls == kernel_calls
    expected = CodecSession(1, CONFIG).encode_frames(messages)
    assert np.array_equal(codewords, expected)
    clean = get_code("hamming84").encode_batch(messages)
    assert (codewords != clean).any(), "the session must inject errors"


def test_row_bound_is_reached():
    """A full chunk landing on MAX_BATCH - 1 queued frames: one call at the bound."""
    rounds = [[MAX_BATCH - 1, MAX_CHUNK_FRAMES]]
    messages = _messages(sum(rounds[0]))
    codewords, calls, held = _submit_in_rounds(rounds, messages)
    assert calls == [ROW_BOUND]
    assert max(held) < MAX_BATCH
    assert np.array_equal(codewords, CodecSession(1, CONFIG).encode_frames(messages))


_SIZES = st.one_of(
    st.integers(0, 2 * MAX_BATCH),
    st.integers(0, 2 * MAX_CHUNK_FRAMES + MAX_BATCH),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(_SIZES, max_size=5), min_size=1, max_size=4))
def test_no_lane_holds_a_full_batch_across_an_await(rounds):
    messages = _messages(sum(map(sum, rounds)), seed=1)
    codewords, calls, held = _submit_in_rounds(rounds, messages)
    assert max(held, default=0) < MAX_BATCH
    assert max(calls, default=0) <= ROW_BOUND
    assert np.array_equal(codewords, CodecSession(1, CONFIG).encode_frames(messages))
