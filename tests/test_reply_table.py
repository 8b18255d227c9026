"""DECODE replies gathered from a reply table equal the decoder's own.

For a code with n <= 8 the decode lane answers a DECODE from
:func:`~repro.service.session.reply_table`: the reply row of each of
the 256 request bytes, filled once per decoder object from its
``decode_batch_detailed``.  These tests pin what makes that safe:

* every request byte, at one frame per request and inside a 4,096-frame
  request, gets the reply ``build_decode_response_body`` writes for
  ``decode_batch_detailed(unpack_bits(...))``, for each paper code under
  every hard strategy ``get_codec`` accepts for it;
* the STATS outcome counters equal what ``record_decode_outcome``
  records for the same rows;
* session churn builds the table once per decoder, never per session,
  and the table is read-only.
"""

import asyncio
import json
import struct

import numpy as np
import pytest

from repro.coding import get_code, registry
from repro.coding.registry import available_decoders, get_codec, get_decoder
from repro.service import DispatchCore, ServiceTelemetry, protocol, session
from repro.service.telemetry import stats_view

PAPER_CODES = ("hamming74", "hamming84", "rm13")

#: The STATS counters a decode records.
OUTCOME_KEYS = ("corrected_frames", "detected_frames", "accepted_frames", "corrected_bits")


def _hard_strategies():
    """(code, strategy) for every strategy ``get_codec`` accepts, default first."""
    pairs = []
    for name in PAPER_CODES:
        for strategy in [None, *available_decoders()]:
            try:
                get_codec(name, strategy)
            except (KeyError, TypeError, ValueError):
                continue
            pairs.append((name, strategy))
    return pairs


HARD_STRATEGIES = _hard_strategies()


def test_every_paper_code_has_several_strategies():
    served = {name: [s for n, s in HARD_STRATEGIES if n == name] for name in PAPER_CODES}
    assert all(len(strategies) >= 3 for strategies in served.values()), served


def _request(opcode: int, request_id: int, body: bytes) -> protocol.Request:
    return protocol.Request(opcode, request_id, body)


def _expected(name: str, strategy, data: bytes, frames: int):
    """The reply body and the decode result of the unpacked words."""
    decoder = get_decoder(get_code(name), strategy)
    result = decoder.decode_batch_detailed(
        protocol.unpack_bits(data, frames, decoder.code.n)
    )
    body = protocol.build_decode_response_body(
        result.messages, result.corrected_errors, result.detected_uncorrectable
    )
    return body, result


@pytest.mark.parametrize("name,strategy", HARD_STRATEGIES)
def test_every_request_byte_decodes_as_the_decoder_does(name, strategy):
    every_byte = bytes(range(256))
    bulk = np.random.default_rng(256).permutation(
        np.tile(np.arange(256, dtype=np.uint8), 16)
    ).tobytes()

    async def serve():
        core = DispatchCore()
        config = {"code": name, "seed": 1, "decoder": strategy}
        opened = await core.dispatch(
            _request(protocol.OP_OPEN, 0, protocol.build_json_body(config))
        )
        session_id = json.loads(opened)["session_id"]
        header = struct.Struct("!HI")
        ones = [
            await core.dispatch(_request(
                protocol.OP_DECODE, 1 + byte, header.pack(session_id, 1) + bytes([byte])
            ))
            for byte in every_byte
        ]
        many = await core.dispatch(
            _request(protocol.OP_DECODE, 300, header.pack(session_id, 4096) + bulk)
        )
        return ones, many, core.stats()["sessions"][str(session_id)]

    ones, many, stats = asyncio.run(asyncio.wait_for(serve(), 30.0))

    recorder = ServiceTelemetry()
    telemetry = recorder.session(1)
    for byte, reply in zip(every_byte, ones):
        body, result = _expected(name, strategy, bytes([byte]), 1)
        assert reply == body, (name, strategy, byte)
        telemetry.record_decode_outcome(
            result.corrected_errors, result.detected_uncorrectable
        )
    body, result = _expected(name, strategy, bulk, 4096)
    assert many == body, (name, strategy)
    telemetry.record_decode_outcome(result.corrected_errors, result.detected_uncorrectable)

    recorded = stats_view(
        recorder.metrics_snapshot(), {1: {"config": "", "uptime_s": 1.0}}, 1.0
    )["sessions"]["1"]
    assert {key: stats[key] for key in OUTCOME_KEYS} == {
        key: recorded[key] for key in OUTCOME_KEYS
    }
    assert stats["frames"] == {"decode": 256 + 4096}


@pytest.fixture
def fresh_reply_tables(monkeypatch):
    """Empty reply-table and codec memos; ``.builds`` counts table builds."""

    class CountingTables(dict):
        builds = 0

        def __setitem__(self, key, value):
            self.builds += 1
            super().__setitem__(key, value)

    tables = CountingTables()
    monkeypatch.setattr(session, "_REPLY_TABLES", tables)
    monkeypatch.setattr(registry, "_CODES", {})
    monkeypatch.setattr(registry, "_CODECS", {})
    return tables


def test_session_churn_builds_the_reply_table_once(fresh_reply_tables):
    """2,000 distinct-seed hamming84 lifetimes share one reply table."""
    word = np.array([[1, 1, 0, 0, 1, 1, 0, 1]], dtype=np.uint8)
    expected, _ = _expected("hamming84", None, protocol.pack_bits(word), 1)

    async def churn():
        core = DispatchCore()
        for seed in range(2000):
            opened = await core.dispatch(_request(
                protocol.OP_OPEN, 3 * seed,
                protocol.build_json_body({"code": "hamming84", "seed": seed}),
            ))
            session_id = json.loads(opened)["session_id"]
            reply = await core.dispatch(_request(
                protocol.OP_DECODE, 3 * seed + 1,
                protocol.build_batch_body(session_id, word),
            ))
            assert reply == expected
            await core.dispatch(_request(
                protocol.OP_CLOSE, 3 * seed + 2,
                protocol.build_json_body({"session_id": session_id}),
            ))
        return len(core.registry)

    assert asyncio.run(asyncio.wait_for(churn(), 60.0)) == 0
    assert fresh_reply_tables.builds == 1
    assert list(fresh_reply_tables) == [get_codec("hamming84")[1]]


def test_reply_tables_are_read_only_and_per_decoder(fresh_reply_tables):
    default = get_codec("hamming84")[1]
    syndrome = get_codec("hamming84", "syndrome")[1]
    columns, outcomes = session.reply_table(default)
    assert session.reply_table(default)[0] is columns
    assert session.reply_table(syndrome)[0] is not columns
    assert fresh_reply_tables.builds == 2
    assert columns.shape == (3, 256) and outcomes.shape == (256, 4)
    for array in (columns, outcomes):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1
    # Complete syndrome decoding corrects what SEC-DED only flags, so the
    # two tables differ in the detected column.
    assert (columns[2] != session.reply_table(syndrome)[0][2]).any()
