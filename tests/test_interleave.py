"""Interleavers and composite codes: permutation laws and burst immunity.

Covers the degenerate shapes the batch kernels must survive (batch
0/1, depth 1, stream lengths not divisible by the depth), the
hypothesis property that ``deinterleave ∘ interleave`` is the identity
on random batches, and the composite codes' contracts: interleaved
encoding equals interleave-of-concatenated-base-codewords, every
burst within the depth is corrected, concatenation multiplies
distance, and the wrapper decoders stay bit-identical between their
scalar and batched paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import (
    BlockInterleaver,
    ConcatenatedCode,
    ConcatenatedDecoder,
    ConvolutionalInterleaver,
    InterleavedCode,
    InterleavedDecoder,
    get_code,
    get_decoder,
)
from repro.errors import DimensionError


class TestInterleaverConstruction:
    def test_depth_one_is_identity(self):
        interleaver = BlockInterleaver(7, 1)
        assert np.array_equal(interleaver.permutation, np.arange(7))

    def test_ragged_length_is_still_a_permutation(self):
        # depth does not divide n: the ragged last row must be skipped,
        # not padded, so the mapping stays a bijection.
        for n, depth in [(7, 3), (10, 4), (5, 9), (13, 5)]:
            perm = BlockInterleaver(n, depth).permutation
            assert sorted(perm) == list(range(n))

    def test_zero_length_stream(self):
        interleaver = BlockInterleaver(0, 3)
        assert interleaver.n == 0
        out = interleaver.interleave(np.zeros((4, 0), dtype=np.uint8))
        assert out.shape == (4, 0)

    def test_convolutional_requires_divisibility(self):
        with pytest.raises(ValueError, match="must divide"):
            ConvolutionalInterleaver(10, 3)

    def test_convolutional_is_a_permutation(self):
        for n, depth, shift in [(12, 3, 1), (56, 8, 2), (8, 8, 3), (6, 1, 0)]:
            perm = ConvolutionalInterleaver(n, depth, shift=shift).permutation
            assert sorted(perm) == list(range(n))

    def test_block_spreads_bursts_across_rows(self):
        # Any `depth` consecutive output positions must come from
        # `depth` distinct constituent words (rows).
        depth, n_base = 8, 7
        interleaver = BlockInterleaver(depth * n_base, depth)
        perm = interleaver.permutation
        rows = perm // n_base
        for start in range(len(perm) - depth + 1):
            assert len(set(rows[start : start + depth])) == depth

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BlockInterleaver(7, 0)
        with pytest.raises(ValueError):
            BlockInterleaver(-1, 2)

    def test_shape_checks(self):
        interleaver = BlockInterleaver(8, 2)
        with pytest.raises(DimensionError):
            interleaver.interleave(np.zeros((3, 7), dtype=np.uint8))
        with pytest.raises(DimensionError):
            interleaver.deinterleave(np.zeros(8, dtype=np.uint8))

    def test_gathers_return_fresh_c_contiguous_arrays(self):
        interleaver = BlockInterleaver(8, 2)
        frames = np.arange(48, dtype=np.uint8).reshape(3, 16)[:, ::2]
        for layout in (frames, np.asfortranarray(frames)):
            out = interleaver.interleave(layout)
            assert out.flags.c_contiguous and not np.shares_memory(out, layout)
            assert np.array_equal(out, frames[:, interleaver.permutation])
            back = interleaver.deinterleave(np.asfortranarray(out))
            assert back.flags.c_contiguous
            assert np.array_equal(back, frames)


class TestRoundTripProperty:
    @given(
        data=st.data(),
        n=st.integers(0, 40),
        depth=st.integers(1, 12),
        batch=st.integers(0, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_block_deinterleave_inverts_interleave(self, data, n, depth, batch):
        interleaver = BlockInterleaver(n, depth)
        bits = data.draw(
            st.lists(
                st.integers(0, 1), min_size=batch * n, max_size=batch * n
            ).map(lambda v: np.array(v, dtype=np.uint8).reshape(batch, n))
        )
        assert np.array_equal(
            interleaver.deinterleave(interleaver.interleave(bits)), bits
        )
        assert np.array_equal(
            interleaver.interleave(interleaver.deinterleave(bits)), bits
        )

    @given(
        data=st.data(),
        depth=st.integers(1, 8),
        cols=st.integers(1, 6),
        shift=st.integers(0, 4),
        batch=st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_convolutional_round_trip(self, data, depth, cols, shift, batch):
        n = depth * cols
        interleaver = ConvolutionalInterleaver(n, depth, shift=shift)
        values = data.draw(
            st.lists(
                st.floats(-4, 4, allow_nan=False),
                min_size=batch * n,
                max_size=batch * n,
            ).map(lambda v: np.array(v, dtype=np.float64).reshape(batch, n))
        )
        assert np.array_equal(
            interleaver.deinterleave(interleaver.interleave(values)), values
        )


class TestInterleavedCode:
    def test_parameters(self):
        code = InterleavedCode(get_code("hamming74"), 4)
        assert (code.n, code.k) == (28, 16)
        assert code.minimum_distance == 3  # distance is the base code's
        assert code.rate == pytest.approx(get_code("hamming74").rate)

    def test_encode_is_interleaved_concatenation(self):
        base = get_code("hamming84")
        code = InterleavedCode(base, 4)
        rng = np.random.default_rng(0)
        msgs = rng.integers(0, 2, (50, code.k)).astype(np.uint8)
        words = code.encode_batch(msgs)
        stacked = base.encode_batch(msgs.reshape(-1, base.k)).reshape(50, code.n)
        assert np.array_equal(words, code.interleaver.interleave(stacked))

    @pytest.mark.parametrize("shift", [1, 2])
    def test_convolutional_interleaver_encode_matches_scalar(self, shift):
        code = InterleavedCode(
            get_code("hamming84"), 3, ConvolutionalInterleaver(24, 3, shift)
        )
        rng = np.random.default_rng(shift)
        msgs = rng.integers(0, 2, (40, code.k)).astype(np.uint8)
        words = code.encode_batch(msgs)
        for word, msg in zip(words, msgs):
            assert np.array_equal(word, code.encode(msg))
        assert np.array_equal(words[:, code.message_positions], msgs)

    def test_message_positions_survive_composition(self):
        code = InterleavedCode(get_code("hamming74"), 3)
        rng = np.random.default_rng(1)
        msgs = rng.integers(0, 2, (20, code.k)).astype(np.uint8)
        words = code.encode_batch(msgs)
        assert np.array_equal(words[:, code.message_positions], msgs)

    @pytest.mark.parametrize("base_name", ["hamming74", "hamming84", "rm13"])
    def test_every_in_depth_burst_is_corrected(self, base_name):
        base = get_code(base_name)
        depth = 6
        code = InterleavedCode(base, depth)
        decoder = InterleavedDecoder(code)
        rng = np.random.default_rng(2)
        msgs = rng.integers(0, 2, (16, code.k)).astype(np.uint8)
        words = code.encode_batch(msgs)
        for start in range(code.n - depth + 1):
            received = words.copy()
            received[:, start : start + depth] ^= 1
            assert np.array_equal(decoder.decode_batch(received), msgs), (
                f"{base_name}: burst of {depth} at {start} not corrected"
            )

    def test_depth_one_matches_base_decoder(self):
        base = get_code("hamming74")
        code = InterleavedCode(base, 1)
        decoder = InterleavedDecoder(code)
        base_decoder = get_decoder(base)
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2, (40, 7)).astype(np.uint8)
        ours = decoder.decode_batch_detailed(words)
        theirs = base_decoder.decode_batch_detailed(words)
        assert np.array_equal(ours.messages, theirs.messages)
        assert np.array_equal(ours.corrected_errors, theirs.corrected_errors)
        assert np.array_equal(
            ours.detected_uncorrectable, theirs.detected_uncorrectable
        )

    def test_scalar_batch_identity(self):
        code = InterleavedCode(get_code("hamming84"), 4)
        decoder = InterleavedDecoder(code)
        rng = np.random.default_rng(4)
        words = rng.integers(0, 2, (30, code.n)).astype(np.uint8)
        detailed = decoder.decode_batch_detailed(words)
        for i, word in enumerate(words):
            result = decoder.decode(word)
            assert np.array_equal(result.message, detailed.messages[i])
            assert result.corrected_errors == detailed.corrected_errors[i]
            assert result.detected_uncorrectable == bool(
                detailed.detected_uncorrectable[i]
            )

    def test_soft_decoding_round_trip(self):
        code = InterleavedCode(get_code("rm13"), 4)
        decoder = InterleavedDecoder(code)
        rng = np.random.default_rng(5)
        msgs = rng.integers(0, 2, (64, code.k)).astype(np.uint8)
        confidences = 1.0 - 2.0 * code.encode_batch(msgs).astype(np.float64)
        confidences += rng.normal(0.0, 0.25, confidences.shape)
        assert np.array_equal(decoder.decode_soft_batch(confidences), msgs)
        detailed = decoder.decode_soft_batch_detailed(confidences)
        assert np.array_equal(detailed.messages, msgs)

    def test_degenerate_batches(self):
        code = InterleavedCode(get_code("hamming74"), 3)
        decoder = InterleavedDecoder(code)
        empty = decoder.decode_batch_detailed(np.zeros((0, code.n), dtype=np.uint8))
        assert len(empty) == 0
        one = decoder.decode_batch_detailed(np.zeros((1, code.n), dtype=np.uint8))
        assert one.messages.shape == (1, code.k)

    def test_requires_interleaved_code(self):
        with pytest.raises(TypeError):
            InterleavedDecoder(get_code("hamming74"))


class TestConcatenatedCode:
    def test_parameters_and_distance(self):
        code = ConcatenatedCode(get_code("hamming84"), get_code("hamming74"))
        assert (code.n, code.k) == (14, 4)
        # d_min multiplies beyond either constituent (4 and 3 -> >= 6).
        assert code.minimum_distance >= 6

    def test_rejects_mismatched_blocks(self):
        with pytest.raises(DimensionError):
            ConcatenatedCode(get_code("hamming74"), get_code("hamming84"))

    def test_encode_matches_two_stage_reference(self):
        outer, inner = get_code("hamming84"), get_code("hamming74")
        code = ConcatenatedCode(outer, inner)
        rng = np.random.default_rng(6)
        msgs = rng.integers(0, 2, (40, 4)).astype(np.uint8)
        expected = inner.encode_batch(
            outer.encode_batch(msgs).reshape(-1, inner.k)
        ).reshape(40, code.n)
        assert np.array_equal(code.encode_batch(msgs), expected)

    def test_corrects_more_than_either_alone(self):
        code = ConcatenatedCode(get_code("hamming84"), get_code("hamming74"))
        decoder = ConcatenatedDecoder(code)
        rng = np.random.default_rng(7)
        msgs = rng.integers(0, 2, (30, 4)).astype(np.uint8)
        words = code.encode_batch(msgs)
        # One flip in each inner block: two flips total, beyond a
        # single Hamming word's radius, but each block fixes its own.
        received = words.copy()
        received[:, 2] ^= 1
        received[:, 7 + 3] ^= 1
        result = decoder.decode_batch_detailed(received)
        assert np.array_equal(result.messages, msgs)
        assert (result.corrected_errors == 2).all()

    def test_corrected_errors_count_the_flipped_bits(self):
        code = ConcatenatedCode(get_code("hamming84"), get_code("hamming74"))
        decoder = ConcatenatedDecoder(code)
        rng = np.random.default_rng(10)
        msgs = rng.integers(0, 2, (30, 4)).astype(np.uint8)
        received = code.encode_batch(msgs)
        # 0, 1 or 2 flips per row, never two in one inner block.
        flips = np.arange(30) % 3
        received[flips >= 1, 1] ^= 1
        received[flips == 2, 7 + 5] ^= 1
        result = decoder.decode_batch_detailed(received)
        assert np.array_equal(result.messages, msgs)
        assert result.corrected_errors.dtype == np.int64
        assert result.corrected_errors.tolist() == flips.tolist()

    def test_scalar_batch_identity(self):
        code = ConcatenatedCode(get_code("hamming84"), get_code("hamming74"))
        decoder = ConcatenatedDecoder(code)
        rng = np.random.default_rng(8)
        words = rng.integers(0, 2, (25, code.n)).astype(np.uint8)
        detailed = decoder.decode_batch_detailed(words)
        for i, word in enumerate(words):
            result = decoder.decode(word)
            assert np.array_equal(result.message, detailed.messages[i])
            assert result.corrected_errors == detailed.corrected_errors[i]

    def test_requires_concatenated_code(self):
        with pytest.raises(TypeError):
            ConcatenatedDecoder(get_code("hamming84"))

    def test_soft_entry_points_agree(self):
        # Regression: decode_soft_batch must run the same two-stage
        # pipeline as decode_soft_batch_detailed (the base-class
        # correlation fallback over the composite codebook disagrees).
        code = ConcatenatedCode(get_code("hamming84"), get_code("hamming74"))
        decoder = ConcatenatedDecoder(code)
        rng = np.random.default_rng(9)
        confidences = rng.normal(0.0, 1.0, (200, code.n))
        detailed = decoder.decode_soft_batch_detailed(confidences)
        assert np.array_equal(decoder.decode_soft_batch(confidences), detailed.messages)
        result = decoder.decode_soft(confidences[0])
        assert np.array_equal(result.message, detailed.messages[0])


class TestRegistryComposites:
    def test_interleaved_name(self):
        code = get_code("interleaved:hamming74:8")
        assert (code.n, code.k) == (56, 32)
        assert code.base_code.name == "Hamming(7,4)"

    def test_concatenated_name(self):
        code = get_code("concatenated:hamming84:hamming74")
        assert (code.n, code.k) == (14, 4)

    def test_default_decoders(self):
        assert get_decoder(get_code("interleaved:rm13:4")).strategy_name == (
            "interleaved"
        )
        assert get_decoder(
            get_code("concatenated:hamming84:hamming74")
        ).strategy_name == "concatenated"

    def test_named_strategies(self):
        code = get_code("interleaved:hamming74:2")
        assert get_decoder(code, "interleaved").strategy_name == "interleaved"
        with pytest.raises(TypeError):
            get_decoder(get_code("hamming74"), "interleaved")

    def test_malformed_names(self):
        for bad in [
            "interleaved:hamming74",
            "interleaved:hamming74:two",
            "concatenated:hamming84",
            "twisted:hamming74:2",
        ]:
            with pytest.raises(KeyError):
                get_code(bad)
