"""Degenerate batch sizes: the batch kernels on 0 and 1 frames.

The streaming service dispatches whatever a flush happens to contain —
including a single frame (a turn flush under light load) and nothing
at all (an empty client request).  Every batch kernel must round-trip
these shapes exactly like large batches do.
"""

import numpy as np
import pytest

from repro.coding import get_code, get_decoder
from repro.link.channel import BinaryChannel, FrameStreamPipeline

#: (code, decoder strategy) pairs covering every vectorised
#: decode_batch_detailed override in the tree.
CODE_DECODER_PAIRS = [
    ("hamming74", "syndrome"),
    ("hamming74", "ml"),
    ("hamming84", "sec-ded"),
    ("hamming84", "syndrome"),
    ("rm13", "fht"),
    ("rm13", "reed-majority"),
    ("rm13", "ml"),
]

BATCH_SIZES = [0, 1]


def _messages(code, batch, seed=0):
    if batch == 0:
        return np.zeros((0, code.k), dtype=np.uint8)
    return np.random.default_rng(seed).integers(0, 2, (batch, code.k)).astype(np.uint8)


class TestDegenerateBatchKernels:
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("name", ["hamming74", "hamming84", "rm13"])
    def test_encode_and_syndrome_batch_shapes(self, name, batch):
        code = get_code(name)
        msgs = _messages(code, batch)
        codewords = code.encode_batch(msgs)
        assert codewords.shape == (batch, code.n)
        assert codewords.dtype == np.uint8
        syndromes = code.syndrome_batch(codewords)
        assert syndromes.shape == (batch, code.redundancy)
        assert not syndromes.any(), "codewords must have zero syndrome"

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("name", ["hamming74", "hamming84", "rm13"])
    def test_encode_batch_matches_scalar(self, name, batch):
        code = get_code(name)
        msgs = _messages(code, batch, seed=1)
        codewords = code.encode_batch(msgs)
        for row, msg in zip(codewords, msgs):
            assert np.array_equal(row, code.encode(msg))

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("name,strategy", CODE_DECODER_PAIRS)
    def test_decode_batch_detailed_round_trip(self, name, strategy, batch):
        code = get_code(name)
        decoder = get_decoder(code, strategy)
        msgs = _messages(code, batch, seed=2)
        result = decoder.decode_batch_detailed(code.encode_batch(msgs))
        assert result.messages.shape == (batch, code.k)
        assert result.codewords.shape == (batch, code.n)
        assert result.corrected_errors.shape == (batch,)
        assert result.detected_uncorrectable.shape == (batch,)
        assert len(result) == batch
        assert np.array_equal(result.messages, msgs)
        assert not result.corrected_errors.any()
        assert not result.detected_uncorrectable.any()

    @pytest.mark.parametrize("name,strategy", CODE_DECODER_PAIRS)
    def test_decode_batch_one_corrects_single_error(self, name, strategy):
        code = get_code(name)
        decoder = get_decoder(code, strategy)
        msgs = _messages(code, 1, seed=3)
        received = code.encode_batch(msgs)
        received[0, 0] ^= 1
        result = decoder.decode_batch_detailed(received)
        assert np.array_equal(result.messages, msgs)
        assert result.corrected_errors[0] == 1

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("name", ["hamming74", "hamming84", "rm13"])
    def test_extract_message_batch(self, name, batch):
        code = get_code(name)
        msgs = _messages(code, batch, seed=4)
        assert np.array_equal(
            code.extract_message_batch(code.encode_batch(msgs)), msgs
        )

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("name,strategy", CODE_DECODER_PAIRS)
    def test_decode_soft_batch_detailed_round_trip(self, name, strategy, batch):
        code = get_code(name)
        decoder = get_decoder(code, strategy)
        msgs = _messages(code, batch, seed=7)
        confidences = 1.0 - 2.0 * code.encode_batch(msgs).astype(np.float64)
        result = decoder.decode_soft_batch_detailed(confidences)
        assert result.messages.shape == (batch, code.k)
        assert result.codewords.shape == (batch, code.n)
        assert result.corrected_errors.shape == (batch,)
        assert result.detected_uncorrectable.shape == (batch,)
        assert np.array_equal(result.messages, msgs)
        assert not result.corrected_errors.any()
        assert not result.detected_uncorrectable.any()
        assert np.array_equal(decoder.decode_soft_batch(confidences), msgs)


class TestDegenerateFrameStream:
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("name", ["hamming74", "hamming84", "rm13"])
    def test_pipeline_noiseless_round_trip(self, name, batch):
        code = get_code(name)
        pipe = FrameStreamPipeline(code)
        msgs = _messages(code, batch, seed=5)
        result = pipe.run(msgs, random_state=0)
        assert len(result) == batch
        assert result.delivered.shape == (batch, code.k)
        assert np.array_equal(result.delivered, msgs)
        assert result.message_error_rate == 0.0
        assert result.raw_bit_error_rate == 0.0
        assert result.flagged_rate == 0.0

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_pipeline_noisy_degenerate(self, batch):
        code = get_code("hamming84")
        pipe = FrameStreamPipeline(code, channel=BinaryChannel(p01=0.5, p10=0.5))
        msgs = _messages(code, batch, seed=6)
        result = pipe.run(msgs, random_state=7)
        assert result.delivered.shape == (batch, code.k)
        assert 0.0 <= result.message_error_rate <= 1.0

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_pipeline_analog_degenerate(self, batch):
        code = get_code("hamming84")
        pipe = FrameStreamPipeline.from_link_budget(code)
        msgs = _messages(code, batch, seed=8)
        result = pipe.run_analog(msgs, random_state=9)
        assert result.delivered.shape == (batch, code.k)
