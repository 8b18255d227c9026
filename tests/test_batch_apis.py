"""Property tests: batched APIs are bit-identical to the scalar paths.

The PR's acceptance contract for the batch pipeline is exact agreement
with the per-codeword reference — not statistical closeness.  These
tests drive random messages and random error patterns through every
paper code and every decoder strategy valid for it, comparing the
vectorised results field by field against scalar ``encode``/``decode``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import LinearBlockCode, get_code, get_decoder
from repro.coding.decoders import BatchDecodeResult
from repro.errors import DimensionError, NotBinaryError
from repro.gf2.matrix import GF2Matrix
from repro.gf2.vectors import all_binary_vectors
from repro.link import BinaryChannel, FrameStreamPipeline

CODES = ["hamming74", "hamming84", "rm13"]

#: The paper codes plus two composites whose encode is built from their
#: constituents' tables; only the scalar ``encode`` and ``syndrome``
#: check them independently of that construction.
ENCODE_CODES = [*CODES, "interleaved:hamming84:3", "concatenated:hamming84:hamming84"]

#: Decoder strategies applicable to each paper code.
STRATEGIES = {
    "hamming74": ["syndrome", "ml"],
    "hamming84": ["syndrome", "sec-ded", "ml"],
    "rm13": ["syndrome", "fht", "reed-majority", "ml"],
}

CODE_STRATEGY_PAIRS = [
    (code, strategy) for code in CODES for strategy in STRATEGIES[code]
]


def random_batch(seed: int, batch: int, width: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(batch, width)).astype(np.uint8)


class TestEncodeBatch:
    @pytest.mark.parametrize("name", ENCODE_CODES)
    @given(seed=st.integers(0, 10_000), batch=st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_encode(self, name, seed, batch):
        code = get_code(name)
        msgs = random_batch(seed, batch, code.k)
        batched = code.encode_batch(msgs)
        assert batched.shape == (batch, code.n)
        assert batched.dtype == np.uint8
        for i in range(batch):
            assert np.array_equal(batched[i], code.encode(msgs[i]))

    @pytest.mark.parametrize("name", ENCODE_CODES)
    def test_syndrome_batch_matches_scalar(self, name):
        code = get_code(name)
        words = random_batch(99, 256, code.n)
        batched = code.syndrome_batch(words)
        for i in range(len(words)):
            assert np.array_equal(batched[i], code.syndrome(words[i]))

    @pytest.mark.parametrize("name", ENCODE_CODES)
    def test_syndrome_batch_validates_its_input(self, name):
        code = get_code(name)
        words = np.zeros((3, code.n), dtype=np.uint8)
        words[1, 0] = 2
        with pytest.raises(NotBinaryError):
            code.syndrome_batch(words)
        with pytest.raises(DimensionError):
            code.syndrome_batch(np.zeros((3, code.n + 1), dtype=np.uint8))

    @pytest.mark.parametrize("name", CODES)
    def test_extract_message_batch_roundtrip(self, name):
        code = get_code(name)
        msgs = random_batch(7, 200, code.k)
        cws = code.encode_batch(msgs)
        assert np.array_equal(code.extract_message_batch(cws), msgs)
        for i in range(0, len(cws), 17):
            assert np.array_equal(
                code.extract_message_batch(cws)[i], code.extract_message(cws[i])
            )

    def test_extract_message_batch_without_verbatim_positions(self):
        # A non-systematic toy code: message recovery must solve, not gather.
        code = LinearBlockCode(
            GF2Matrix([[1, 1, 1, 0, 0], [0, 1, 1, 1, 0], [0, 0, 1, 1, 1]]),
            name="toy(5,3)",
        )
        msgs = random_batch(3, 64, code.k)
        cws = code.encode_batch(msgs)
        assert np.array_equal(code.extract_message_batch(cws), msgs)


def corrupted_words(code, seed: int, batch: int, max_weight: int) -> np.ndarray:
    """Codewords with random error patterns of weight 0..max_weight."""
    rng = np.random.default_rng(seed)
    msgs = rng.integers(0, 2, size=(batch, code.k)).astype(np.uint8)
    words = code.encode_batch(msgs)
    weights = rng.integers(0, max_weight + 1, size=batch)
    for i, w in enumerate(weights):
        flips = rng.choice(code.n, size=int(w), replace=False)
        words[i, flips] ^= 1
    return words


class TestDecodeBatch:
    @pytest.mark.parametrize("name,strategy", CODE_STRATEGY_PAIRS)
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_detailed_matches_scalar_decode(self, name, strategy, seed):
        code = get_code(name)
        decoder = get_decoder(code, strategy)
        words = corrupted_words(code, seed, batch=64, max_weight=3)
        detailed = decoder.decode_batch_detailed(words)
        assert isinstance(detailed, BatchDecodeResult)
        assert len(detailed) == len(words)
        for i, word in enumerate(words):
            scalar = decoder.decode(word)
            assert np.array_equal(detailed.messages[i], scalar.message), (
                name, strategy, i,
            )
            assert detailed.corrected_errors[i] == scalar.corrected_errors
            assert bool(detailed.detected_uncorrectable[i]) == scalar.detected_uncorrectable
            expected_cw = word if scalar.codeword is None else scalar.codeword
            assert np.array_equal(detailed.codewords[i], expected_cw)

    @pytest.mark.parametrize("name,strategy", CODE_STRATEGY_PAIRS)
    def test_decode_batch_is_messages_view(self, name, strategy):
        code = get_code(name)
        decoder = get_decoder(code, strategy)
        words = corrupted_words(code, 5, batch=128, max_weight=2)
        assert np.array_equal(
            decoder.decode_batch(words), decoder.decode_batch_detailed(words).messages
        )

    @pytest.mark.parametrize("name", CODES)
    def test_bounded_syndrome_decoder_flags_match_scalar(self, name):
        code = get_code(name)
        decoder = get_decoder(code, "syndrome")
        bounded = type(decoder)(code, max_correctable_weight=1)
        words = all_binary_vectors(code.n)
        detailed = bounded.decode_batch_detailed(words)
        for i, word in enumerate(words):
            scalar = bounded.decode(word)
            assert np.array_equal(detailed.messages[i], scalar.message)
            assert bool(detailed.detected_uncorrectable[i]) == scalar.detected_uncorrectable
            assert detailed.corrected_errors[i] == scalar.corrected_errors
            expected_cw = word if scalar.codeword is None else scalar.codeword
            assert np.array_equal(detailed.codewords[i], expected_cw)

    @pytest.mark.parametrize("name,strategy", CODE_STRATEGY_PAIRS)
    def test_empty_batch(self, name, strategy):
        code = get_code(name)
        decoder = get_decoder(code, strategy)
        empty = np.zeros((0, code.n), dtype=np.uint8)
        detailed = decoder.decode_batch_detailed(empty)
        assert detailed.messages.shape == (0, code.k)
        assert detailed.codewords.shape == (0, code.n)
        assert len(detailed) == 0

    @pytest.mark.parametrize("name", CODES)
    def test_error_free_batch_roundtrips(self, name):
        code = get_code(name)
        decoder = get_decoder(code)
        msgs = random_batch(21, 512, code.k)
        detailed = decoder.decode_batch_detailed(code.encode_batch(msgs))
        assert np.array_equal(detailed.messages, msgs)
        assert not detailed.corrected_errors.any()
        assert not detailed.detected_uncorrectable.any()

    @pytest.mark.parametrize("name", CODES)
    def test_single_errors_all_corrected(self, name):
        code = get_code(name)
        decoder = get_decoder(code)
        msgs = random_batch(33, code.n * 8, code.k)
        words = code.encode_batch(msgs)
        positions = np.tile(np.arange(code.n), 8)
        words[np.arange(len(words)), positions] ^= 1
        detailed = decoder.decode_batch_detailed(words)
        assert np.array_equal(detailed.messages, msgs)
        assert (detailed.corrected_errors == 1).all()

    def test_batch_result_scalar_view(self):
        code = get_code("hamming84")
        decoder = get_decoder(code)
        words = corrupted_words(code, 3, batch=16, max_weight=1)
        detailed = decoder.decode_batch_detailed(words)
        row = detailed[4]
        assert np.array_equal(row.message, detailed.messages[4])
        assert row.corrected_errors == detailed.corrected_errors[4]


class TestFrameStreamPipeline:
    @pytest.mark.parametrize("name", CODES)
    def test_noiseless_stream_is_lossless(self, name):
        code = get_code(name)
        pipeline = FrameStreamPipeline(code)
        msgs = random_batch(1, 2048, code.k)
        result = pipeline.run(msgs)
        assert np.array_equal(result.delivered, msgs)
        assert result.message_error_rate == 0.0
        assert result.raw_bit_error_rate == 0.0
        assert result.flagged_rate == 0.0

    @pytest.mark.parametrize("name", CODES)
    def test_noisy_stream_matches_manual_stages(self, name):
        code = get_code(name)
        channel = BinaryChannel(p01=0.03, p10=0.01)
        pipeline = FrameStreamPipeline(code, channel=channel)
        msgs = random_batch(9, 1024, code.k)
        result = pipeline.run(msgs, random_state=42)
        # Re-run the stages by hand with the same seed.
        codewords = code.encode_batch(msgs)
        received = channel.transmit(codewords, random_state=42)
        assert np.array_equal(result.received, received)
        decoded = pipeline.decoder.decode_batch_detailed(received)
        assert np.array_equal(result.delivered, decoded.messages)
        assert len(result) == 1024

    def test_single_bit_errors_fully_corrected_through_pipeline(self):
        code = get_code("hamming84")
        pipeline = FrameStreamPipeline(code)
        msgs = random_batch(13, 256, code.k)
        codewords = code.encode_batch(msgs)
        rng = np.random.default_rng(0)
        codewords[np.arange(256), rng.integers(0, code.n, 256)] ^= 1
        decoded = pipeline.decoder.decode_batch_detailed(codewords)
        assert np.array_equal(decoded.messages, msgs)

    def test_analog_run_with_quiet_link_is_lossless(self):
        code = get_code("hamming84")
        pipeline = FrameStreamPipeline.from_link_budget(code)
        msgs = random_batch(17, 512, code.k)
        result = pipeline.run_analog(msgs, random_state=0)
        assert np.array_equal(result.delivered, msgs)

    def test_mismatched_decoder_rejected(self):
        code = get_code("hamming84")
        other = get_code("hamming74")
        with pytest.raises(ValueError):
            FrameStreamPipeline(code, decoder=get_decoder(other))

    def test_bad_message_shape_rejected(self):
        pipeline = FrameStreamPipeline(get_code("hamming74"))
        with pytest.raises(DimensionError):
            pipeline.run(np.zeros((4, 7), dtype=np.uint8))

    def test_analog_uses_configured_stages(self):
        # A pipeline built from a weak link budget must model the same
        # weak link through run() and run_analog().
        from repro.link import SuzukiStackDriver

        code = get_code("hamming84")
        weak = FrameStreamPipeline.from_link_budget(
            code, driver=SuzukiStackDriver(swing_mv=1.2)
        )
        msgs = random_batch(19, 4096, code.k)
        analog = weak.run_analog(msgs, random_state=2).raw_bit_error_rate
        prob = weak.run(msgs, random_state=2).raw_bit_error_rate
        assert analog > 0.01
        assert abs(analog - prob) < 0.02

    def test_analog_collapsed_eye_is_coin_flip(self):
        # Deep PPV deviation collapses the eye; both channel models must
        # then degrade to a 0.5/0.5 coin flip, not systematic inversion.
        code = get_code("hamming84")
        deep = FrameStreamPipeline.from_link_budget(code, driver_deviation=0.6)
        msgs = random_batch(23, 4096, code.k)
        assert abs(deep.run_analog(msgs, random_state=1).raw_bit_error_rate - 0.5) < 0.02
        assert abs(deep.run(msgs, random_state=1).raw_bit_error_rate - 0.5) < 0.02
