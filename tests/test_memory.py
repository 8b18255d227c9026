"""ECC memory frontend: exact SEC/DED accounting under injected faults.

The contract under test is the strongest one the memory stack makes:
every counter the batched :class:`~repro.memory.MemoryEccFrontend`
accumulates — SEC and DED events, corrected bits, rot bits, scrubbed
and repaired lines — equals, *exactly*, what a scalar
:class:`~repro.memory.ReferenceMemory` replaying the same transaction
stream word-by-word reports, and the service lane reproduces both
bit-for-bit at ``workers 0`` and ``workers 2``.  All faults are
deterministic (seeded masks, Gilbert–Elliott bursts, an injector that
races RMWs at an exact point in the transaction), so every expected
count is computed, never approximated.

The golden corpus in ``tests/data/memory_golden.json`` pins a full
write/rot/scrub/RMW/read sequence per registry code.  Regenerate (only
when a behaviour change is *intended*) with::

    PYTHONPATH=src python tests/test_memory.py --regenerate
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaos
from repro.coding import get_code, get_decoder
from repro.errors import SessionError
from repro.experiments import retention
from repro.memory import (
    MAX_MEMORY_LINES,
    MemoryEccFrontend,
    ReferenceMemory,
    Scrubber,
)
from repro.runtime import MonteCarloEngine
from repro.service import (
    CodecClient,
    CodecServer,
    ProtocolError,
    SessionConfig,
    make_scenario,
    run_scenario,
)
from repro.service import protocol
from repro.service.session import CodecSession
from repro.utils.rng import as_generator

CODES = ("hamming74", "hamming84", "rm13")

SCENARIO_TIMEOUT_S = 60.0


def run(coro, timeout: float = SCENARIO_TIMEOUT_S):
    async def bounded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(bounded())


def _pair(code_name: str, lines: int):
    """A batched frontend and its scalar twin over the same code."""
    code = get_code(code_name)
    decoder = get_decoder(code)
    return (
        MemoryEccFrontend(code, decoder, lines),
        ReferenceMemory(code, decoder, lines),
        code,
    )


def _weighted_masks(rng, lines: int, n: int, weights) -> np.ndarray:
    """Flip masks with an exact per-line weight at random positions."""
    masks = np.zeros((lines, n), dtype=np.uint8)
    for row, weight in enumerate(np.asarray(weights).reshape(-1)):
        if weight:
            positions = rng.choice(n, size=int(weight), replace=False)
            masks[row, positions] = 1
    return masks


# ---------------------------------------------------------------------
# Batched frontend vs the scalar reference, op for op
# ---------------------------------------------------------------------
class TestFrontendVsReference:
    @pytest.mark.parametrize("code_name", CODES)
    def test_mixed_transaction_stream_agrees_exactly(self, code_name):
        # Same seeded ops through both models; every response, every
        # counter and the final store must agree bit for bit.
        lines = 24
        frontend, mirror, code = _pair(code_name, lines)
        rng = np.random.default_rng(20250808)
        addresses = np.arange(lines, dtype=np.int64)
        for round_index in range(5):
            messages = rng.integers(0, 2, (lines, code.k)).astype(np.uint8)
            frontend.write(addresses, messages)
            mirror.write(addresses, messages)

            masks = chaos.rot_masks(lines, code.n, seed=round_index, rate=0.03)
            assert frontend.inject_flips(addresses, masks) == int(masks.sum())
            mirror.inject_flips(addresses, masks)

            scrubber = Scrubber(frontend, lines_per_step=7)
            scrubber.position = mirror.scrub_position
            report = scrubber.step()
            assert report.to_dict() == mirror.scrub_step(7)

            partial = rng.integers(0, 2, (lines, code.k)).astype(np.uint8)
            write_masks = rng.integers(0, 2, (lines, code.k)).astype(np.uint8)
            batch = frontend.write_partial(addresses, partial, write_masks)
            scalar = mirror.write_partial(addresses, partial, write_masks)
            for i, (corrected, detected) in enumerate(scalar):
                assert int(batch.corrected_errors[i]) == corrected
                assert bool(batch.detected_uncorrectable[i]) == detected

            result = frontend.read(addresses)
            for i, decode in enumerate(mirror.read(addresses)):
                assert np.array_equal(result.messages[i] & 1, decode.message & 1)
                assert int(result.corrected_errors[i]) == decode.corrected_errors
                assert (
                    bool(result.detected_uncorrectable[i])
                    == decode.detected_uncorrectable
                )
        assert np.array_equal(frontend.store_snapshot(), mirror.store_snapshot())
        assert frontend.counters.to_dict() == mirror.counters.to_dict()

    def test_shared_rot_rng_stays_flip_aligned(self):
        # inject_rot consumes exactly one uniform block, so two models
        # holding identically-seeded generators rot identically.
        frontend, mirror, _ = _pair("hamming84", 16)
        frontend_rng = as_generator(77)
        mirror_rng = as_generator(77)
        for rate in (0.0, 0.02, 0.1, 0.0, 0.05):
            assert frontend.inject_rot(frontend_rng, rate) == mirror.inject_rot(
                mirror_rng, rate
            )
        assert np.array_equal(frontend.store_snapshot(), mirror.store_snapshot())
        assert frontend.counters.rot_bits == mirror.counters.rot_bits


# ---------------------------------------------------------------------
# Exact SEC/DED arithmetic on a hand-built fault pattern
# ---------------------------------------------------------------------
class TestExactAccounting:
    def _rotted(self):
        """hamming84 store with 4 single-flip and 2 double-flip lines.

        d_min = 4 classifies these exactly: weight-1 hits are corrected
        (SEC), weight-2 hits are detected-uncorrectable (DED), so the
        expected ledger is computable by hand.
        """
        lines = 12
        frontend, _, code = _pair("hamming84", lines)
        rng = np.random.default_rng(3)
        messages = rng.integers(0, 2, (lines, code.k)).astype(np.uint8)
        frontend.write(np.arange(lines), messages)
        clean = frontend.store_snapshot()
        weights = np.zeros(lines, dtype=np.int64)
        weights[:4] = 1   # SEC lines
        weights[4:6] = 2  # DED lines
        masks = _weighted_masks(rng, lines, code.n, weights)
        frontend.inject_flips(np.arange(lines), masks)
        return frontend, messages, clean, weights

    def test_read_path_counts_are_exact(self):
        frontend, messages, _, weights = self._rotted()
        result = frontend.read(np.arange(12))
        assert np.array_equal(result.corrected_errors[:4], np.ones(4))
        assert not result.detected_uncorrectable[:4].any()
        assert result.detected_uncorrectable[4:6].all()
        assert not result.detected_uncorrectable[6:].any()
        assert np.array_equal(result.messages[6:] & 1, messages[6:])
        assert np.array_equal(result.messages[:4] & 1, messages[:4])
        read = frontend.counters.paths["read"].to_dict()
        assert read == {"ops": 12, "sec": 4, "ded": 2, "corrected_bits": 4}
        # Reads never repair: a second read sees the same rot.
        frontend.read(np.arange(12))
        assert frontend.counters.paths["read"].to_dict() == {
            "ops": 24, "sec": 8, "ded": 4, "corrected_bits": 8,
        }

    def test_scrub_repairs_exactly_the_correctable_lines(self):
        frontend, _, clean, _ = self._rotted()
        rotted = frontend.store_snapshot()
        report = Scrubber(frontend).sweep()
        assert report.to_dict() == {
            "start": 0, "count": 12, "repaired_lines": 4,
            "corrected_bits": 4, "detected": 2,
        }
        after = frontend.store_snapshot()
        # SEC lines are restored to the clean codewords; DED lines are
        # left untouched for the layer above, bit for bit.
        assert np.array_equal(after[:4], clean[:4])
        assert np.array_equal(after[4:6], rotted[4:6])
        assert np.array_equal(after[6:], clean[6:])
        assert frontend.counters.scrubbed_lines == 12
        assert frontend.counters.repaired_lines == 4
        assert frontend.counters.paths["scrub"].to_dict() == {
            "ops": 12, "sec": 4, "ded": 2, "corrected_bits": 4,
        }

    def test_scrub_is_idempotent(self):
        frontend, _, _, _ = self._rotted()
        scrubber = Scrubber(frontend)
        scrubber.sweep()
        store = frontend.store_snapshot()
        second = scrubber.sweep()
        assert second.repaired_lines == 0
        assert second.corrected_bits == 0
        assert second.detected == 2  # still flagged, still untouched
        assert np.array_equal(frontend.store_snapshot(), store)


# ---------------------------------------------------------------------
# Fault injection: bursts and the RMW race
# ---------------------------------------------------------------------
class TestFaultInjection:
    def test_burst_rot_accounting_matches_reference(self):
        # Gilbert–Elliott clustered rot (word-line failure style): the
        # exact same burst masks hit both models, then a full sweep.
        lines = 20
        frontend, mirror, code = _pair("hamming84", lines)
        rng = np.random.default_rng(11)
        messages = rng.integers(0, 2, (lines, code.k)).astype(np.uint8)
        addresses = np.arange(lines)
        frontend.write(addresses, messages)
        mirror.write(addresses, messages)
        masks = chaos.burst_rot_masks(lines, code.n, seed=4)
        assert masks.sum() > 0  # the profile actually produced bursts
        frontend.inject_flips(addresses, masks)
        mirror.inject_flips(addresses, masks)
        report = Scrubber(frontend).sweep()
        assert report.to_dict() == mirror.scrub_step()
        assert frontend.counters.to_dict() == mirror.counters.to_dict()
        assert np.array_equal(frontend.store_snapshot(), mirror.store_snapshot())
        # Bursts concentrate flips: some lines must have crossed the
        # correction radius, or the masks are not actually bursty.
        assert report.detected > 0

    def test_rmw_race_store_wins(self):
        # Rot landing between an RMW's read and store phases is lost —
        # the store overwrites it (the LiteDRAM byte-enable limitation's
        # race).  The ledger still counts the injected bits.
        lines = 8
        code = get_code("hamming84")
        injector = chaos.RmwRaceInjector(weight=2)
        frontend = MemoryEccFrontend(code, get_decoder(code), lines, injector)
        injector.frontend = frontend
        rng = np.random.default_rng(6)
        addresses = np.arange(lines)
        messages = rng.integers(0, 2, (lines, code.k)).astype(np.uint8)
        frontend.write(addresses, messages)

        partial = rng.integers(0, 2, (lines, code.k)).astype(np.uint8)
        masks = rng.integers(0, 2, (lines, code.k)).astype(np.uint8)
        result = frontend.write_partial(addresses, partial, masks)

        assert injector.rmw_events == 1
        assert injector.bits_injected == 2 * lines
        assert frontend.counters.rot_bits == 2 * lines
        # The read phase ran on clean lines, before the injection.
        assert not result.corrected_errors.any()
        assert not result.detected_uncorrectable.any()
        # The store won the race: lines hold the clean re-encoded merge,
        # as if the rot never happened.
        merged = np.where(masks.astype(bool), partial, messages)
        assert np.array_equal(frontend.store_snapshot(), code.encode_batch(merged))

    def test_race_during_whole_line_write_is_also_lost(self):
        lines = 4
        code = get_code("hamming74")

        def inject(event, addrs):
            if event == "write":
                frontend.inject_flips(addrs, np.ones((len(addrs), code.n), np.uint8))

        frontend = MemoryEccFrontend(code, get_decoder(code), lines, inject)
        messages = np.ones((lines, code.k), dtype=np.uint8)
        frontend.write(np.arange(lines), messages)
        assert frontend.counters.rot_bits == lines * code.n
        assert np.array_equal(
            frontend.store_snapshot(), code.encode_batch(messages)
        )

    def test_duplicate_addresses_inject_serially(self):
        frontend, _, code = _pair("hamming74", 4)
        masks = np.zeros((2, code.n), dtype=np.uint8)
        masks[:, 0] = 1
        # Two flips into the same line cancel — XOR applied row order.
        frontend.inject_flips(np.array([1, 1]), masks)
        assert frontend.counters.rot_bits == 2
        assert not frontend.raw_lines([1]).any()


# ---------------------------------------------------------------------
# Scrubber mechanics
# ---------------------------------------------------------------------
class TestScrubber:
    def test_position_wraps_modulo_lines(self):
        frontend, _, _ = _pair("hamming74", 10)
        scrubber = Scrubber(frontend, lines_per_step=4)
        assert list(scrubber.window()) == [0, 1, 2, 3]
        scrubber.step()
        scrubber.step()
        assert scrubber.position == 8
        assert list(scrubber.window()) == [8, 9, 0, 1]
        report = scrubber.step()
        assert (report.start, report.count) == (8, 4)
        assert scrubber.position == 2

    def test_step_count_clamps_to_lines(self):
        frontend, _, _ = _pair("hamming74", 6)
        report = Scrubber(frontend).step(1000)
        assert report.count == 6
        assert frontend.counters.scrubbed_lines == 6

    def test_invalid_widths_are_rejected(self):
        frontend, _, _ = _pair("hamming74", 6)
        with pytest.raises(ValueError):
            Scrubber(frontend, lines_per_step=0)
        with pytest.raises(ValueError):
            Scrubber(frontend).window(0)
        with pytest.raises(ValueError):
            Scrubber(frontend).step(-3)


# ---------------------------------------------------------------------
# Frontend validation surface
# ---------------------------------------------------------------------
class TestFrontendValidation:
    def test_address_bounds(self):
        frontend, _, code = _pair("hamming84", 4)
        good = np.zeros((1, code.k), dtype=np.uint8)
        with pytest.raises(IndexError):
            frontend.write([4], good)
        with pytest.raises(IndexError):
            frontend.read([-1])

    def test_payload_shapes(self):
        frontend, _, code = _pair("hamming84", 4)
        with pytest.raises(ValueError):
            frontend.write([0], np.zeros((1, code.k + 1), dtype=np.uint8))
        with pytest.raises(ValueError):
            frontend.write_partial(
                [0, 1],
                np.zeros((2, code.k), dtype=np.uint8),
                np.zeros((1, code.k), dtype=np.uint8),
            )
        with pytest.raises(ValueError):
            frontend.inject_flips([0], np.zeros((1, code.k), dtype=np.uint8))

    def test_geometry_and_line_bounds(self):
        code = get_code("hamming84")
        with pytest.raises(ValueError):
            MemoryEccFrontend(code, get_decoder(get_code("hamming74")), 4)
        with pytest.raises(ValueError):
            MemoryEccFrontend(code, get_decoder(code), 0)
        with pytest.raises(ValueError):
            MemoryEccFrontend(code, get_decoder(code), MAX_MEMORY_LINES + 1)


# ---------------------------------------------------------------------
# Property tests (hypothesis)
# ---------------------------------------------------------------------
class TestMemoryProperties:
    @given(st.sampled_from(CODES), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_write_read_identity_under_correctable_rot(self, code_name, seed):
        # With at most guaranteed_correction() flips per line, every
        # read returns the written message, corrected == the exact flip
        # weight, and nothing is flagged.
        lines = 12
        frontend, _, code = _pair(code_name, lines)
        rng = np.random.default_rng(seed)
        messages = rng.integers(0, 2, (lines, code.k)).astype(np.uint8)
        frontend.write(np.arange(lines), messages)
        weights = rng.integers(0, code.guaranteed_correction() + 1, lines)
        frontend.inject_flips(
            np.arange(lines), _weighted_masks(rng, lines, code.n, weights)
        )
        result = frontend.read(np.arange(lines))
        assert np.array_equal(result.messages & 1, messages)
        assert np.array_equal(result.corrected_errors, weights)
        assert not result.detected_uncorrectable.any()

    @given(st.sampled_from(CODES), st.integers(0, 2**32 - 1),
           st.floats(0.0, 0.2))
    @settings(max_examples=25, deadline=None)
    def test_scrub_idempotence(self, code_name, seed, rate):
        # Whatever the rot did, the sweep after the sweep repairs
        # nothing and moves no bits.
        lines = 10
        frontend, _, code = _pair(code_name, lines)
        rng = np.random.default_rng(seed)
        frontend.write(
            np.arange(lines),
            rng.integers(0, 2, (lines, code.k)).astype(np.uint8),
        )
        frontend.inject_rot(rng, rate)
        scrubber = Scrubber(frontend)
        scrubber.sweep()
        store = frontend.store_snapshot()
        again = scrubber.sweep()
        assert again.repaired_lines == 0
        assert again.corrected_bits == 0
        assert np.array_equal(frontend.store_snapshot(), store)

    @given(st.sampled_from(CODES), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_full_mask_rmw_equals_whole_line_write(self, code_name, seed):
        lines = 8
        rmw, _, code = _pair(code_name, lines)
        whole, _, _ = _pair(code_name, lines)
        rng = np.random.default_rng(seed)
        first = rng.integers(0, 2, (lines, code.k)).astype(np.uint8)
        second = rng.integers(0, 2, (lines, code.k)).astype(np.uint8)
        for frontend in (rmw, whole):
            frontend.write(np.arange(lines), first)
        rmw.write_partial(
            np.arange(lines), second, np.ones((lines, code.k), dtype=np.uint8)
        )
        whole.write(np.arange(lines), second)
        assert np.array_equal(rmw.store_snapshot(), whole.store_snapshot())
        # The equivalence is in the stored bits, not the ledger: the
        # RMW still paid its read-phase decode.
        assert rmw.counters.paths["rmw"].ops == lines


# ---------------------------------------------------------------------
# Wire lane: determinism across worker counts, mirrored exactly
# ---------------------------------------------------------------------
class TestMemoryWire:
    LINES = 32
    ROT = 0.05
    SEED = 123

    async def _trace(self, workers: int):
        """A fixed transaction trace against a live server.

        Every response is both mirrored against a local
        :class:`ReferenceMemory` (exactness) and collected into a
        JSON-able trace (compared across worker counts).
        """
        code = get_code("hamming84")
        mirror = ReferenceMemory(code, get_decoder(code), self.LINES)
        rot_rng = as_generator(self.SEED)
        rng = np.random.default_rng(7)
        addresses = np.arange(self.LINES, dtype=np.int64)
        trace = []
        async with CodecServer(port=0, workers=workers) as server:
            client = await CodecClient.connect(port=server.port)
            try:
                session = await client.open_session(
                    "hamming84",
                    seed=self.SEED,
                    memory_lines=self.LINES,
                    memory_rot=self.ROT,
                )
                for _ in range(3):
                    messages = rng.integers(
                        0, 2, (self.LINES, code.k)
                    ).astype(np.uint8)
                    block = await session.mem_write(addresses, messages)
                    assert not block.corrected_errors.any()
                    assert not block.detected_uncorrectable.any()
                    mirror.write(addresses, messages)

                    scrub_count = 8
                    window = (
                        mirror.scrub_position + np.arange(scrub_count)
                    ) % self.LINES
                    mirror.inject_rot(rot_rng, self.ROT, window)
                    payload = await session.mem_scrub(scrub_count)
                    assert payload["report"] == mirror.scrub_step(scrub_count)
                    assert payload["position"] == mirror.scrub_position
                    assert payload["counters"] == mirror.counters.to_dict()
                    trace.append(payload)

                    partial = rng.integers(
                        0, 2, (self.LINES, code.k)
                    ).astype(np.uint8)
                    masks = rng.integers(
                        0, 2, (self.LINES, code.k)
                    ).astype(np.uint8)
                    block = await session.mem_write_partial(
                        addresses, partial, masks
                    )
                    outcomes = mirror.write_partial(addresses, partial, masks)
                    for i, (corrected, detected) in enumerate(outcomes):
                        assert int(block.corrected_errors[i]) == corrected
                        assert bool(block.detected_uncorrectable[i]) == detected
                    trace.append(
                        [block.corrected_errors.tolist(),
                         block.detected_uncorrectable.tolist()]
                    )

                    decoded = await session.mem_read(addresses)
                    for i, decode in enumerate(mirror.read(addresses)):
                        assert np.array_equal(
                            decoded.messages[i] & 1, decode.message & 1
                        )
                    trace.append(decoded.messages.tolist())
            finally:
                await client.close()
        return trace

    def test_trace_is_bit_identical_across_worker_counts(self):
        # The determinism contract over the wire: the in-process server
        # and a two-worker pool produce byte-identical responses —
        # including the server-side rot draws — because the lane's only
        # randomness is the session-seeded stream.
        inline = run(self._trace(workers=0))
        pooled = run(self._trace(workers=2))
        assert json.dumps(inline) == json.dumps(pooled)
        # And the trace actually exercised ECC: some scrub repaired.
        assert sum(p["report"]["repaired_lines"] for p in inline[::3]) > 0

    @pytest.mark.parametrize("workers", [0, 2])
    def test_scrub_counts_the_lines_it_swept(self, workers):
        """Regression: STATS ``frames_total`` rose by the count a
        MEM_SCRUB asked for (820,018,826 on a 16-line store), and by 0
        for count 0, which scrubs the default 8 lines."""

        async def scenario():
            async with CodecServer(port=0, workers=workers) as server:
                client = await CodecClient.connect(port=server.port)
                try:
                    session = await client.open_session("hamming84", memory_lines=16)
                    totals, reports = [(await client.stats())["frames_total"]], []
                    for count in (820_018_826, 0):
                        reports.append((await session.mem_scrub(count))["report"])
                        totals.append((await client.stats())["frames_total"])
                finally:
                    await client.close()
            return totals, reports

        totals, reports = run(scenario())
        assert [report["count"] for report in reports] == [16, 8]
        assert np.diff(totals).tolist() == [16, 8]

    def test_memory_rot_requires_memory_lines_on_the_wire(self):
        async def scenario():
            async with CodecServer(port=0, workers=0) as server:
                client = await CodecClient.connect(port=server.port)
                try:
                    body = protocol.build_json_body(
                        {"code": "hamming84", "memory_rot": 0.1}
                    )
                    with pytest.raises(ProtocolError, match="memory_rot"):
                        await client.request(protocol.OP_OPEN, body)
                finally:
                    await client.close()

        run(scenario())

    def test_memory_ops_on_plain_session_fail_cleanly(self):
        async def scenario():
            async with CodecServer(port=0, workers=0) as server:
                client = await CodecClient.connect(port=server.port)
                try:
                    session = await client.open_session("hamming84")
                    with pytest.raises(ProtocolError):
                        await session.mem_read(np.array([0]))
                finally:
                    await client.close()

        run(scenario())

    def test_session_level_memory_validation(self):
        with pytest.raises(SessionError, match="memory_rot"):
            CodecSession(1, SessionConfig(code="hamming84", memory_rot=0.5))
        with pytest.raises(SessionError, match="memory_lines"):
            CodecSession(1, SessionConfig(code="hamming84", memory_lines=0))
        with pytest.raises(SessionError, match="memory_rot"):
            CodecSession(
                1,
                SessionConfig(code="hamming84", memory_lines=8, memory_rot=1.5),
            )


# ---------------------------------------------------------------------
# Pooled telemetry: scrape and rollup agree series by series
# ---------------------------------------------------------------------
MEMORY_SCALAR_FAMILIES = {
    "repro_memory_scrubbed_lines_total": "scrubbed_lines",
    "repro_memory_repaired_lines_total": "repaired_lines",
    "repro_memory_rot_bits_total": "rot_bits",
}
MEMORY_PATH_FAMILIES = {
    "repro_memory_sec_total": "sec_total",
    "repro_memory_ded_total": "ded_total",
    "repro_memory_corrected_bits_total": "corrected_bits_total",
}


def _parse_prometheus(text: str):
    """Prometheus text -> {family: [(labels, value)]}, comments dropped."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, value = line.rsplit(" ", 1)
        labels = {}
        if "{" in name_part:
            name, labels_text = name_part.split("{", 1)
            for item in labels_text.rstrip("}").split(","):
                if item:
                    key, val = item.split("=", 1)
                    labels[key] = val.strip('"')
        else:
            name = name_part
        series.setdefault(name, []).append((labels, float(value)))
    return series


class TestPooledMemoryTelemetry:
    def test_rollup_matches_pooled_scrape_per_worker(self):
        # Regression pin for the memory counter merge: the STATS
        # rollup's per-worker "memory" summaries must equal the pooled
        # Prometheus scrape summed series-by-series under each worker
        # label — same counters, two independent aggregation paths.
        async def scenario():
            async with CodecServer(port=0, workers=2) as server:
                client = await CodecClient.connect(port=server.port)
                try:
                    rng = np.random.default_rng(9)
                    code = get_code("hamming84")
                    for seed in (1, 2, 3):
                        session = await client.open_session(
                            "hamming84",
                            seed=seed,
                            memory_lines=16,
                            memory_rot=0.08,
                        )
                        addresses = np.arange(16)
                        messages = rng.integers(0, 2, (16, code.k)).astype(
                            np.uint8
                        )
                        await session.mem_write(addresses, messages)
                        await session.mem_scrub(16)
                        await session.mem_write_partial(
                            addresses,
                            messages,
                            rng.integers(0, 2, (16, code.k)).astype(np.uint8),
                        )
                        await session.mem_read(addresses)
                    stats = await client.stats()
                    text = await client.metrics()
                finally:
                    await client.close()
            return stats, text

        stats, text = run(scenario())
        scraped = _parse_prometheus(text)

        def scrape_sum(family: str, worker: str) -> int:
            return int(
                sum(
                    value
                    for labels, value in scraped.get(family, [])
                    if labels.get("worker") == worker
                )
            )

        totals = dict.fromkeys(
            list(MEMORY_PATH_FAMILIES.values())
            + list(MEMORY_SCALAR_FAMILIES.values()),
            0,
        )
        for worker in stats["workers"]:
            label = str(worker["index"])
            memory = worker["memory"]
            for family, field in {
                **MEMORY_PATH_FAMILIES,
                **MEMORY_SCALAR_FAMILIES,
            }.items():
                assert scrape_sum(family, label) == memory.get(field, 0), (
                    f"{family} vs rollup {field} for worker {label}"
                )
                totals[field] += memory.get(field, 0)
        # The traffic must actually have charged the counters, or the
        # equality above is vacuous.
        assert totals["scrubbed_lines"] == 3 * 16
        assert totals["sec_total"] > 0
        assert totals["rot_bits"] > 0
        # The front end runs no memory ops in pool mode.
        for family in {**MEMORY_PATH_FAMILIES, **MEMORY_SCALAR_FAMILIES}:
            assert scrape_sum(family, "front") == 0
        # And the rollup's per-session view sums to the same totals.
        session_sums = dict.fromkeys(totals, 0)
        for entry in stats["sessions"].values():
            memory = entry.get("memory") or {}
            for field in session_sums:
                session_sums[field] += int(memory.get(field, 0))
        assert session_sums == totals


# ---------------------------------------------------------------------
# Loadgen memory scenario
# ---------------------------------------------------------------------
class TestMemoryScenario:
    def _report(self, rot: float, workers: int = 0):
        async def scenario():
            async with CodecServer(port=0, workers=workers) as server:
                return await run_scenario(
                    "127.0.0.1",
                    server.port,
                    make_scenario(
                        "memory", code="hamming84", lines=32, rot=rot,
                        scrub_every=3,
                    ),
                    clients=2,
                    requests=6,
                    frames_per_request=8,
                    seed=42,
                )

        return run(scenario())

    def test_zero_rot_arm_is_error_free_and_silent(self):
        report = self._report(rot=0.0)
        memory = report.to_dict()["memory"]
        assert not report.client_errors
        assert memory["sec"] == 0
        assert memory["ded"] == 0
        assert memory["rot_bits"] == 0
        assert memory["scrub_steps"] > 0

    def test_rot_arm_mirrors_exactly_and_repairs(self):
        # The scenario's built-in ReferenceMemory mirror raises on any
        # divergence (counted as a client error), so zero errors means
        # every response was bit-exact.
        report = self._report(rot=0.03)
        memory = report.to_dict()["memory"]
        assert not report.client_errors
        assert memory["sec"] > 0
        assert memory["rot_bits"] > 0
        assert memory["repaired_lines"] > 0
        # A two-worker pool serves the same seeded traffic to the same
        # totals: the lanes' only randomness is the session seed.
        pooled = self._report(rot=0.03, workers=2)
        assert not pooled.client_errors
        assert pooled.to_dict()["memory"] == memory


# ---------------------------------------------------------------------
# Retention experiment on the Monte-Carlo engine
# ---------------------------------------------------------------------
class TestRetentionExperiment:
    CONFIG = retention.RetentionConfig(
        codes=("hamming84",), rots=(0.02,), lines=16, sweeps=4, n_chips=12,
        seed=515,
    )

    def test_jobs_do_not_change_results(self):
        inline = retention.run(self.CONFIG, engine=MonteCarloEngine(jobs=1))
        parallel = retention.run(
            self.CONFIG, engine=MonteCarloEngine(jobs=2, shard_size=5)
        )
        assert inline.points == parallel.points

    def test_scrubbing_never_loses(self):
        result = retention.run(self.CONFIG, engine=MonteCarloEngine(jobs=1))
        assert result.scrub_never_worse("hamming84")
        point = result.points[0]
        assert point.total_words == 12 * 16
        assert 0.0 <= point.scrubbed_wer <= point.unscrubbed_wer <= 1.0

    def test_paired_arms_share_seed_plan_but_not_identity(self):
        pairs = retention.specs(self.CONFIG)
        unscrubbed, scrubbed = pairs[0]
        assert unscrubbed.seed_plan.to_dict() == scrubbed.seed_plan.to_dict()
        assert unscrubbed.config_hash() != scrubbed.config_hash()

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="policy"):
            retention.RetentionSpec(
                code="hamming84", policy="sometimes", rot=0.01, lines=4,
                sweeps=1, n_chips=1,
                seed_plan=retention.specs(self.CONFIG)[0][0].seed_plan,
            )
        with pytest.raises(ValueError):
            retention.RetentionConfig(codes=())

    def test_render_and_csv(self):
        result = retention.run(self.CONFIG, engine=MonteCarloEngine(jobs=1))
        assert "scrubbed vs unscrubbed: never worse" in retention.render(result)
        csv = retention.curves_csv(result)
        assert csv.splitlines()[0].startswith("code,rot,")
        assert len(csv.splitlines()) == 2


# ---------------------------------------------------------------------
# Golden corpus: a pinned RMW + scrub sequence per registry code
# ---------------------------------------------------------------------
MEMORY_CORPUS_PATH = Path(__file__).parent / "data" / "memory_golden.json"

#: Pinned corpus identity: bump only with an intended regeneration.
MEMORY_CORPUS_SEED = 20260808
MEMORY_CORPUS_LINES = 12
MEMORY_CORPUS_ROT = 0.04


def _text(bits) -> str:
    return "".join(str(int(b)) for b in bits)


def _replay_memory_sequence(code_name: str, seed: int) -> dict:
    """One deterministic write/rot/scrub/RMW/read sequence, fully logged.

    The logged dict is the corpus entry: final store bits, the full
    counter ledger, the scrub report and every read outcome.  Replaying
    it through today's kernels and comparing exactly is what pins the
    memory stack's behaviour against silent drift.
    """
    lines = MEMORY_CORPUS_LINES
    code = get_code(code_name)
    frontend = MemoryEccFrontend(code, get_decoder(code), lines)
    rng = np.random.default_rng(seed)
    addresses = np.arange(lines, dtype=np.int64)

    messages = rng.integers(0, 2, (lines, code.k)).astype(np.uint8)
    frontend.write(addresses, messages)
    rot = chaos.rot_masks(lines, code.n, seed=seed + 1, rate=MEMORY_CORPUS_ROT)
    frontend.inject_flips(addresses, rot)
    report = Scrubber(frontend).sweep()
    partial = rng.integers(0, 2, (lines, code.k)).astype(np.uint8)
    masks = rng.integers(0, 2, (lines, code.k)).astype(np.uint8)
    frontend.write_partial(addresses, partial, masks)
    result = frontend.read(addresses)

    return {
        "code": code_name,
        "seed": seed,
        "scrub_report": report.to_dict(),
        "counters": frontend.counters.to_dict(),
        "store": [_text(row) for row in frontend.store_snapshot()],
        "read_messages": [_text(row & 1) for row in result.messages],
        "read_corrected": [int(c) for c in result.corrected_errors],
        "read_detected": [bool(d) for d in result.detected_uncorrectable],
    }


def generate_memory_corpus() -> dict:
    return {
        "seed": MEMORY_CORPUS_SEED,
        "lines": MEMORY_CORPUS_LINES,
        "rot": MEMORY_CORPUS_ROT,
        "sequences": [
            _replay_memory_sequence(name, MEMORY_CORPUS_SEED + index)
            for index, name in enumerate(CODES)
        ],
    }


def _load_memory_corpus() -> dict:
    with open(MEMORY_CORPUS_PATH) as handle:
        return json.load(handle)


class TestMemoryGoldenVectors:
    def test_corpus_exists_and_is_pinned(self):
        corpus = _load_memory_corpus()
        assert corpus["seed"] == MEMORY_CORPUS_SEED
        assert [s["code"] for s in corpus["sequences"]] == list(CODES)

    def test_sequences_replay_bit_identically(self):
        # A refactor of any memory path (or decode kernel under it)
        # cannot change one stored bit or one counter without tripping
        # this — even if the new behaviour is self-consistent.
        for entry in _load_memory_corpus()["sequences"]:
            replayed = _replay_memory_sequence(entry["code"], entry["seed"])
            assert replayed == entry, f"memory drift for {entry['code']}"

    def test_corpus_matches_fresh_generation(self):
        # Distinguishes "a kernel changed behaviour" (replay fails)
        # from "someone edited the JSON by hand" (this fails).
        assert generate_memory_corpus() == _load_memory_corpus()


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="memory golden-corpus tool")
    parser.add_argument(
        "--regenerate", action="store_true", help="rewrite the corpus JSON"
    )
    args = parser.parse_args()
    if not args.regenerate:
        parser.error("nothing to do; pass --regenerate to rewrite the corpus")
    MEMORY_CORPUS_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(MEMORY_CORPUS_PATH, "w") as handle:
        json.dump(generate_memory_corpus(), handle, indent=1)
        handle.write("\n")
    print(f"wrote {MEMORY_CORPUS_PATH}")
