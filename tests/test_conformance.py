"""Exhaustive decoder conformance: every code, every received word.

For every registry code and decoder strategy, decoder entry points are
compared against the scalar ``decode`` (the reference):

* ``decode_batch_detailed`` on all 2^n received words must be
  bit-identical to the scalar path, field for field — flagged rows the
  scalar decoder leaves uncommitted carry the received word;
* ``decode_soft_batch`` fed hard ±1 confidences must recover the sent
  message wherever the error weight is within the code's guaranteed
  correction radius, and scalar soft decoding must match the soft
  batch over all weight<=2 error patterns.

This pins the kernels' behaviour over the *entire* input space rather
than a random sample, so a refactor that changes any decode decision —
even on a single word — fails loudly.

The whole module is parametrized over every *available* kernel backend
(:func:`repro.backends.available_backends`): each test runs once per
backend under :func:`repro.backends.use_backend`, so the exhaustive
matrix pins the accelerated kernels to the same decisions as the NumPy
reference — on a numpy-only runner it simply runs once.
"""

import itertools

import numpy as np
import pytest

from repro.backends import available_backends, use_backend
from repro.coding import get_code, get_decoder, repetition_code
from repro.coding.decoders import MaximumLikelihoodDecoder
from repro.coding.decoders import base as decoder_base
from repro.coding.registry import PAPER_SCHEMES, available_codes
from repro.gf2.vectors import all_binary_vectors


@pytest.fixture(params=available_backends(), autouse=True)
def kernel_backend(request):
    """Run every conformance test under each available kernel backend."""
    with use_backend(request.param):
        yield request.param

#: (code, decoder strategy) pairs covering every decoder strategy.
CODE_DECODER_PAIRS = [
    ("hamming74", None),        # syndrome (paper pairing)
    ("hamming74", "ml"),
    ("hamming84", None),        # sec-ded (paper pairing)
    ("hamming84", "syndrome"),
    ("hamming84", "ml"),
    ("rm13", None),             # fht (paper pairing)
    ("rm13", "soft-fht"),
    ("rm13", "reed-majority"),
    ("rm13", "sec-ded"),
    ("rm13", "ml"),
]


def _error_patterns(n: int, max_weight: int) -> np.ndarray:
    """All error patterns of weight <= max_weight, zero pattern first."""
    patterns = [np.zeros(n, dtype=np.uint8)]
    for weight in range(1, max_weight + 1):
        for positions in itertools.combinations(range(n), weight):
            pattern = np.zeros(n, dtype=np.uint8)
            pattern[list(positions)] = 1
            patterns.append(pattern)
    return np.array(patterns, dtype=np.uint8)


def _exhaustive_words(code, max_weight: int):
    """Every (message, received word) pair for weight <= max_weight errors."""
    messages = np.repeat(
        code.all_messages, len(_error_patterns(code.n, max_weight)), axis=0
    )
    patterns = np.tile(
        _error_patterns(code.n, max_weight), (len(code.all_messages), 1)
    )
    words = code.encode_batch(code.all_messages)
    words = np.repeat(words, len(_error_patterns(code.n, max_weight)), axis=0)
    return messages, words ^ patterns, patterns.sum(axis=1)


class TestRegistryCoversPaperSchemes:
    def test_every_paper_scheme_has_a_code(self):
        for scheme in PAPER_SCHEMES:
            if scheme == "none":
                continue
            assert scheme in available_codes()

    @pytest.mark.parametrize("scheme", [s for s in PAPER_SCHEMES if s != "none"])
    def test_every_paper_scheme_exposes_soft_batch(self, scheme):
        """Acceptance: every paper code has a working decode_soft_batch."""
        code = get_code(scheme)
        decoder = get_decoder(code)
        confidences = 1.0 - 2.0 * code.all_codewords.astype(np.float64)
        messages = decoder.decode_soft_batch(confidences)
        assert np.array_equal(messages, code.all_messages)


def assert_batch_matches_scalar(decoder, words):
    """``decode_batch_detailed(words)`` equals scalar ``decode``, row by row."""
    batch = decoder.decode_batch_detailed(words)
    assert len(batch) == len(words)
    for i, word in enumerate(words):
        scalar = decoder.decode(word)
        where = f"{decoder.code.name}/{decoder.strategy_name} on {word}"
        assert np.array_equal(batch.messages[i], scalar.message), where
        assert batch.corrected_errors[i] == scalar.corrected_errors, where
        assert bool(batch.detected_uncorrectable[i]) == scalar.detected_uncorrectable, where
        if scalar.codeword is None:
            # Flagged without a commitment: the received word comes back.
            assert scalar.detected_uncorrectable, where
            assert np.array_equal(batch.codewords[i], word), where
        else:
            assert np.array_equal(batch.codewords[i], scalar.codeword), where


@pytest.mark.parametrize("name,strategy", CODE_DECODER_PAIRS)
class TestExhaustiveHardConformance:
    """Scalar decode vs decode_batch_detailed over all 2^n received words."""

    def test_batch_matches_scalar_field_for_field(self, name, strategy):
        code = get_code(name)
        assert_batch_matches_scalar(
            get_decoder(code, strategy), all_binary_vectors(code.n)
        )

    def test_all_weight_le1_errors_corrected(self, name, strategy):
        code = get_code(name)
        decoder = get_decoder(code, strategy)
        sent, words, weights = _exhaustive_words(code, max_weight=1)
        decoded = decoder.decode_batch(words)
        assert np.array_equal(decoded, sent), (
            f"{name}/{decoder.strategy_name}: a weight<={1} pattern was not corrected"
        )
        assert weights.max() == 1  # the enumeration actually covered weight 1


def test_long_code_batch_loops_over_scalar_decode():
    """Codes past the table limit decode batches one scalar call per row."""
    code = repetition_code(decoder_base.TABLE_N_LIMIT + 2)
    decoder = MaximumLikelihoodDecoder(code)
    rng = np.random.default_rng(17)
    words = rng.integers(0, 2, size=(40, code.n)).astype(np.uint8)
    words[0] = 0
    words[1, : code.n // 2] = 1  # one short of a majority
    assert_batch_matches_scalar(decoder, words)
    assert decoder._table is None
    assert decoder.decode_batch_detailed(words[:0]).messages.shape == (0, 1)


@pytest.mark.parametrize("name,strategy", CODE_DECODER_PAIRS)
class TestExhaustiveSoftConformance:
    """decode_soft_batch on hard ±1 confidences over all weight<=1 inputs."""

    def test_soft_agrees_with_hard_within_radius(self, name, strategy):
        code = get_code(name)
        decoder = get_decoder(code, strategy)
        t = code.guaranteed_correction()
        assert t >= 1
        sent, words, _ = _exhaustive_words(code, max_weight=t)
        hard_messages = decoder.decode_batch(words)
        soft_messages = decoder.decode_soft_batch(1.0 - 2.0 * words.astype(np.float64))
        # Within the correction radius hard and soft must both land on
        # the transmitted message — bit-for-bit agreement all three ways.
        assert np.array_equal(hard_messages, sent)
        assert np.array_equal(soft_messages, sent)

    def test_soft_scalar_matches_soft_batch(self, name, strategy):
        code = get_code(name)
        decoder = get_decoder(code, strategy)
        _, words, _ = _exhaustive_words(code, max_weight=2)
        confidences = 1.0 - 2.0 * words.astype(np.float64)
        batch = decoder.decode_soft_batch_detailed(confidences)
        for i, row in enumerate(confidences):
            scalar = decoder.decode_soft(row)
            assert np.array_equal(batch.messages[i], scalar.message)
            assert batch.corrected_errors[i] == scalar.corrected_errors
            assert bool(batch.detected_uncorrectable[i]) == scalar.detected_uncorrectable
