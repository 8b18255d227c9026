"""Service telemetry adds a fixed, small count of steps to the hot path.

Every served frame records into the session's counter row, its
:class:`~repro.service.telemetry.SessionTelemetry`: the request and
frame columns, a latency bucket, and per flush a batch column and the
decode outcome columns.  These tests run the same batcher workload twice,
once with that telemetry and once with a stub whose hooks do nothing,
and count the calls made and Python lines run in each
(:func:`stepcount.count_steps`).  The difference is exactly the work
telemetry adds, the same on every machine, where timing the two arms
measures mostly jitter.

* One flush: the steps telemetry adds to a single-request flush must
  not grow from 64 to 4,096 frames.  A per-frame loop anywhere in the
  record path adds at least 4,032 steps and fails.
* One request: in a closed loop of 64 one-frame clients, the steps
  added per request must stay at most :data:`STEPS_PER_REQUEST`.  On
  CPython 3.11 the count is 6.1 (12.4 with labelled metric series):
  ``record_request`` and ``record_latency_us`` each run three steps
  more than the stub's, plus a 64th of each flush's batch record and of
  its outcome counts (one ``record_decode_counts`` of the reply table's
  outcome rows).  One more call in a per-request hook adds at least one
  step per request and fails; the slack only absorbs per-flush
  differences between interpreter versions.
"""

import asyncio

import numpy as np

from repro.coding import get_code
from repro.service import DispatchCore, MicroBatcher, SessionConfig
from stepcount import count_steps

SMALL, LARGE = 64, 4096
CLIENTS, REQUESTS = 64, 10

#: Most steps telemetry may add to one one-frame request in the closed loop.
STEPS_PER_REQUEST = 7.0


class _NoopTelemetry:
    """The do-nothing floor: every telemetry hook the batcher path touches."""

    def record_request(self, op, n_frames):
        pass

    def record_batch(self, op, n_frames, reason):
        pass

    def record_decode_outcome(self, corrected, detected, soft=False):
        pass

    def record_decode_counts(self, corrected, detected, accepted, bits):
        pass

    def record_latency_us(self, latency_us, op=""):
        pass


def _words(rows: int, seed: int) -> np.ndarray:
    """Noisy hamming84 words, packed as the wire carries them, so the
    decoder has corrections to count."""
    code = get_code("hamming84")
    rng = np.random.default_rng(seed)
    sent = code.encode_batch(rng.integers(0, 2, (rows, code.k)).astype(np.uint8))
    return np.packbits(sent ^ (rng.random(sent.shape) < 0.05).astype(np.uint8), axis=1)


def _added_steps(drive) -> int:
    """Steps ``drive(session)`` costs with real telemetry over the stub.

    Each arm's session is opened on its own :class:`DispatchCore`, as a
    server opens one; the count's warm-up run creates every series the
    counted run records into.
    """
    steps = {}
    for arm in ("real", "stub"):
        session = DispatchCore().open_session(SessionConfig(code="hamming84"))
        if arm == "stub":
            session.telemetry = _NoopTelemetry()
        steps[arm] = count_steps(lambda: asyncio.run(drive(session)))
    return steps["real"] - steps["stub"]


def _one_request(words):
    async def drive(session):
        await MicroBatcher().submit(session, "decode", words)

    return drive


def test_steps_added_to_one_flush_do_not_grow_with_frames():
    added = {
        size: _added_steps(_one_request(_words(size, seed=size)))
        for size in (SMALL, LARGE)
    }
    assert added[LARGE] <= added[SMALL], added


def test_steps_added_per_request_in_a_closed_loop():
    words = _words(CLIENTS * REQUESTS, seed=20261019)

    async def drive(session):
        batcher = MicroBatcher()

        async def client(c):
            for row in range(c * REQUESTS, (c + 1) * REQUESTS):
                await batcher.submit(session, "decode", words[row:row + 1])

        await asyncio.gather(*(client(c) for c in range(CLIENTS)))

    per_request = _added_steps(drive) / (CLIENTS * REQUESTS)
    assert 0 < per_request <= STEPS_PER_REQUEST, per_request
