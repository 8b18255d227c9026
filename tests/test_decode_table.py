"""The memoised decode table behind ``Decoder.decode_batch_detailed``.

Codes with n <= ``TABLE_N_LIMIT`` decode batches by gathering rows of a
2^n-row table filled once from the scalar ``decode``.  These tests pin
what makes that safe and cheap:

* every decoder that would decode identically shares one process-wide
  table, built once — including across service sessions, so session
  churn never rebuilds it;
* decoders that differ in anything ``decode`` reads (a bounded
  syndrome decoder against a complete one) never share;
* the shared table is read-only, and results handed to callers are
  copies, so no caller can corrupt a later decode;
* a received word holding anything but 0/1 raises
  :class:`~repro.errors.NotBinaryError` instead of picking a wrong row.

Bit-identity of the table against the scalar decoder on every word is
pinned by ``tests/test_conformance.py``.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.coding import get_code, get_decoder, hamming84_paper
from repro.coding import registry
from repro.coding.decoders import SyndromeDecoder
from repro.coding.decoders import base as decoder_base
from repro.errors import NotBinaryError
from repro.service import DispatchCore, protocol


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty decode-table, code and codec memos, and a list of table builds.

    The registry's memos are emptied too: a shared decoder keeps the
    table it gathered from, so a warm one would build nothing here.
    """
    monkeypatch.setattr(decoder_base, "_DECODE_TABLES", {})
    monkeypatch.setattr(registry, "_CODES", {})
    monkeypatch.setattr(registry, "_CODECS", {})
    builds = []
    table_words = decoder_base._table_words

    def counting_table_words(n):
        builds.append(n)
        return table_words(n)

    monkeypatch.setattr(decoder_base, "_table_words", counting_table_words)
    return builds


def _some_words(code, seed=0, batch=64):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(batch, code.n)).astype(np.uint8)


class TestMemoisation:
    def test_decoders_of_separate_codes_share_one_table(self, fresh_tables):
        first = get_decoder(hamming84_paper())
        second = get_decoder(hamming84_paper())
        assert first.code is not second.code
        words = _some_words(first.code)
        first.decode_batch_detailed(words)
        second.decode_batch_detailed(words)
        assert fresh_tables == [8]
        assert first._decode_table() is second._decode_table()

    def test_bounded_and_complete_syndrome_tables_differ(
        self, fresh_tables
    ):
        code = get_code("hamming84")
        complete = SyndromeDecoder(code)
        bounded = SyndromeDecoder(code, max_correctable_weight=1)
        assert complete._decode_table() is not bounded._decode_table()
        assert fresh_tables == [8, 8]
        # A double error: complete decoding corrects it, bounded flags it.
        word = code.encode(np.array([1, 0, 1, 1], dtype=np.uint8))
        word[[0, 1]] ^= 1
        assert not complete.decode_batch_detailed(word[None, :]).detected_uncorrectable[0]
        assert bounded.decode_batch_detailed(word[None, :]).detected_uncorrectable[0]

    def test_table_arrays_are_read_only(self):
        table = get_decoder(get_code("rm13"))._decode_table()
        for array in (
            table.messages,
            table.codewords,
            table.corrected_errors,
            table.detected_uncorrectable,
        ):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    def test_mutating_a_result_leaves_the_next_decode_unchanged(self):
        decoder = get_decoder(get_code("hamming74"))
        words = _some_words(decoder.code, seed=3)
        result = decoder.decode_batch_detailed(words)
        result.messages[:] ^= 1
        result.codewords[:] = 0
        result.corrected_errors[:] = 99
        result.detected_uncorrectable[:] = True
        again = decoder.decode_batch_detailed(words)
        for i, word in enumerate(words):
            scalar = decoder.decode(word)
            assert np.array_equal(again.messages[i], scalar.message)
            assert np.array_equal(again.codewords[i], scalar.codeword)
            assert again.corrected_errors[i] == scalar.corrected_errors
            assert not again.detected_uncorrectable[i]

    def test_session_churn_builds_the_table_once(self, fresh_tables):
        """200 distinct-seed hamming84 sessions reuse one table."""
        code = get_code("hamming84")
        words = _some_words(code, seed=5, batch=1)
        expected = get_decoder(code).decode(words[0])

        async def churn():
            core = DispatchCore()
            for seed in range(200):
                opened = await core.dispatch(protocol.Request(
                    protocol.OP_OPEN, 3 * seed,
                    protocol.build_json_body({"code": "hamming84", "seed": seed}),
                ))
                session_id = json.loads(opened)["session_id"]
                body = await core.dispatch(protocol.Request(
                    protocol.OP_DECODE, 3 * seed + 1,
                    protocol.build_batch_body(session_id, words),
                ))
                messages, corrected, flagged = protocol.parse_decode_response_body(
                    body, code.k
                )
                assert np.array_equal(messages[0], expected.message)
                assert corrected[0] == expected.corrected_errors
                assert flagged[0] == expected.detected_uncorrectable
                await core.dispatch(protocol.Request(
                    protocol.OP_CLOSE, 3 * seed + 2,
                    protocol.build_json_body({"session_id": session_id}),
                ))
            return len(core.registry)

        assert asyncio.run(asyncio.wait_for(churn(), 60.0)) == 0
        assert fresh_tables == [8]


#: Every hard strategy with a code it accepts.
HARD_STRATEGIES = [
    ("rm13", "syndrome"),
    ("rm13", "sec-ded"),
    ("rm13", "fht"),
    ("rm13", "soft-fht"),
    ("rm13", "reed-majority"),
    ("rm13", "ml"),
    ("interleaved:hamming74:2", "interleaved"),
    ("concatenated:hamming84:hamming74", "concatenated"),
]


@pytest.mark.parametrize("name,strategy", HARD_STRATEGIES)
class TestNonBinaryWordsRejected:
    def test_batch_raises_like_scalar(self, name, strategy):
        decoder = get_decoder(get_code(name), strategy)
        words = _some_words(decoder.code, seed=7, batch=4)
        words[2, 1] = 2
        with pytest.raises(NotBinaryError):
            decoder.decode(words[2])
        with pytest.raises(NotBinaryError):
            decoder.decode_batch_detailed(words)
        with pytest.raises(NotBinaryError):
            decoder.decode_batch(words)
