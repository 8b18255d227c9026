"""The one kernel engine, and the fast paths pinned to their references.

Every codec op on an ``n <= TABLE_N_LIMIT`` code is a table gather or a
fixed-order NumPy expression.  These tests hold the reference each fast
path replaced and require exact equality:

* :func:`repro.backends.pairwise_scores` against
  ``(values[:, None, :] * signs[None]).sum(axis=2)``, bit for bit, in
  all three of NumPy's summation regimes and on rows built to tie;
* every registry code's soft decoders against the reference scores,
  argmax and tie rule, a re-encode of the chosen messages and a
  packed correction count;
* the encode gather against :class:`~repro.gf2.bitpack.PackedGF2Matmul`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import available_backends, pairwise_scores, resolve_backend
from repro.backends import registry as engine_registry
from repro.coding import get_code, get_decoder
from repro.coding.decoders.fht import FhtDecoder, hadamard_matrix
from repro.coding.registry import available_codes, available_decoders
from repro.errors import DimensionError, NotBinaryError
from repro.gf2.bitpack import PackedGF2Matmul, pack_rows, packed_hamming_distance

BATCHES = (0, 1, 33, 4096)


def _reference_scores(values: np.ndarray, signs: np.ndarray) -> np.ndarray:
    return (values[:, None, :] * signs[None]).sum(axis=2)


def _tie_rows(rng: np.random.Generator, batch: int, n: int) -> np.ndarray:
    """Normal confidences at scales 1e-3..1e3, with rows built to tie.

    Row ``i`` is, by ``i % 6``: plain; rounded to integers; all zero;
    all ``-0.0``; every value ``±0.5``; the first half repeated.
    """
    values = rng.normal(size=(batch, n))
    values *= np.logspace(-3, 3, 7)[np.arange(batch) % 7][:, None]
    kind = np.arange(batch) % 6
    values[kind == 1] = np.round(values[kind == 1])
    values[kind == 2] = 0.0
    values[kind == 3] = -0.0
    values[kind == 4] = np.copysign(0.5, values[kind == 4])
    half = n // 2
    values[kind == 5, half : 2 * half] = values[kind == 5, :half]
    return values


class TestEngine:
    def test_one_numpy_engine(self):
        assert available_backends() == ["numpy"]
        assert engine_registry.resolve_backend is resolve_backend
        assert resolve_backend() is resolve_backend()
        assert resolve_backend().name == "numpy"


class TestPairwiseScores:
    @pytest.mark.parametrize("n", [1, 5, 7, 8, 9, 16, 17, 64, 128, 200])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_bit_identical_to_the_reference_sum(self, n, batch):
        rng = np.random.default_rng(1000 * n + batch)
        signs = 1.0 - 2.0 * rng.integers(0, 2, size=(8, n))
        signs[1] = signs[0]  # duplicate rows tie on every input
        values = _tie_rows(rng, batch, n)
        got = pairwise_scores(values, signs)
        want = _reference_scores(values, signs)
        assert got.shape == want.shape == (batch, 8)
        assert got.dtype == want.dtype == np.float64
        # Compare bit patterns: equal values and the same sign of zero.
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", [8, 16])
    def test_hadamard_rows(self, n):
        values = _tie_rows(np.random.default_rng(n), 33, n)
        hadamard = hadamard_matrix(n)
        got = pairwise_scores(values, hadamard)
        want = _reference_scores(values, hadamard)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _soft_pairs():
    """Every (registry code, strategy) whose decoder builds."""
    pairs = []
    for name in available_codes():
        for strategy in [None, *available_decoders()]:
            try:
                get_decoder(get_code(name), strategy)
            except (TypeError, ValueError):
                continue
            pairs.append((name, strategy))
    return pairs


def _reference_soft(decoder, values):
    """Messages, codewords, corrections and ties as computed before tables.

    Correlation decoders score every codeword; the FHT decoders take
    the first largest-magnitude spectrum index and its sign.  Codewords
    re-encode the messages row by row and corrections count packed
    differences from the sign-sliced input.
    """
    code = decoder.code
    rows = np.arange(len(values))
    if isinstance(decoder, FhtDecoder):
        spectra = _reference_scores(values, hadamard_matrix(code.n))
        magnitudes = np.abs(spectra)
        best = magnitudes.max(axis=1, initial=0.0)
        index = magnitudes.argmax(axis=1) if len(values) else rows
        ties = ((magnitudes == best[:, None]).sum(axis=1) > 1) | (best == 0.0)
        messages = np.empty((len(values), code.k), dtype=np.uint8)
        messages[:, 0] = spectra[rows, index] < 0
        for j in range(decoder.m):
            messages[:, j + 1] = (index >> j) & 1
    else:
        codebook = np.array([code.encode(m) for m in code.all_messages])
        scores = _reference_scores(values, 1.0 - 2.0 * codebook)
        index = scores.argmax(axis=1)
        best = scores[rows, index]
        ties = (scores == best[:, None]).sum(axis=1) > 1
        messages = code.all_messages[index]
    codewords = np.array([code.encode(m) for m in messages], dtype=np.uint8)
    codewords = codewords.reshape(len(values), code.n)
    corrected = packed_hamming_distance(
        pack_rows(codewords), pack_rows((values < 0).astype(np.uint8))
    )
    return messages, codewords, corrected, ties


class TestSoftDecodersMatchReference:
    @pytest.mark.parametrize("name,strategy", _soft_pairs())
    @pytest.mark.parametrize("batch", BATCHES)
    def test_detailed_and_message_only_paths(self, name, strategy, batch):
        decoder = get_decoder(get_code(name), strategy)
        values = _tie_rows(np.random.default_rng(batch), batch, decoder.code.n)
        messages, codewords, corrected, ties = _reference_soft(decoder, values)
        result = decoder.decode_soft_batch_detailed(values)
        assert np.array_equal(result.messages, messages)
        assert np.array_equal(result.codewords, codewords)
        assert result.corrected_errors.dtype == np.int64
        assert np.array_equal(result.corrected_errors, corrected)
        assert np.array_equal(result.detected_uncorrectable, ties)
        assert np.array_equal(decoder.decode_soft_batch(values), messages)
        if batch >= 33:
            assert ties.any()  # the tie-forcing rows did force ties


#: The registry codes plus a composite short enough for the gather
#: (n = 14) and one that keeps the bit-sliced multiply (n = 24).
ENCODE_CODES = [*available_codes(), "interleaved:hamming74:2", "interleaved:hamming84:3"]


class TestEncodeGather:
    @pytest.mark.parametrize("name", ENCODE_CODES)
    @pytest.mark.parametrize("batch", BATCHES)
    def test_equals_the_bit_sliced_multiply(self, name, batch):
        code = get_code(name)
        rng = np.random.default_rng(batch)
        messages = rng.integers(0, 2, size=(batch, code.k)).astype(np.uint8)
        got = code.encode_batch(messages)
        want = PackedGF2Matmul(code.generator.to_array())(messages)
        assert got.dtype == np.uint8 and got.shape == (batch, code.n)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ENCODE_CODES)
    def test_validates_like_the_multiply(self, name):
        code = get_code(name)
        messages = np.zeros((3, code.k), dtype=np.uint8)
        messages[1, 0] = 2
        with pytest.raises(NotBinaryError):
            code.encode_batch(messages)
        with pytest.raises(DimensionError):
            code.encode_batch(np.zeros((3, code.k + 1), dtype=np.uint8))

    def test_codeword_table_is_read_only_and_results_are_copies(self):
        code = get_code("hamming84")
        table = code.all_codewords
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1
        out = code.encode_batch(np.zeros((2, code.k), dtype=np.uint8))
        out[:] = 1
        assert not table[0].any()

