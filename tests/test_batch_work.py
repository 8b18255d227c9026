"""Batch kernels do per-batch work, not per-row work.

A batch kernel earns its place by doing the same fixed sequence of
NumPy calls whatever the batch size: a gather from a decode table, one
correlation over the codebook, a state walk over the frame axis only.
A per-row path — a loop over scalar ``decode``, a per-frame state walk
— runs at least one more Python line or call per row.  So these tests
count every Python and C call (:func:`sys.setprofile`) and every Python
line executed (:func:`sys.settrace`) over one kernel call, and require
the count at batch 4096 to be no greater than at batch 64.  The count
is exact and the same on every machine, which a speed ratio against a
Python loop is not; a per-row path adds at least 4,032 steps and fails.

Each test also checks the 4096-row output against the scalar path row
by row, so bit identity is pinned at the batch size where the counts
are taken.
"""

import numpy as np
import pytest

from repro.coding import get_code, get_decoder
from repro.link.burst import (
    BurstyFluxChannel,
    GilbertElliottChannel,
    bursty_flux_reference,
    gilbert_elliott_reference,
)
from stepcount import count_steps

#: The paper codes plus a composite too long for a codeword table
#: (n = 56), whose encode gathers from its base code's table.
CODES = ["hamming74", "hamming84", "rm13", "interleaved:hamming74:8"]
SMALL, LARGE = 64, 4096
#: One interleaved:hamming74:8 word per frame.
FRAME_BITS = 56


def _inputs(code, size: int, seed: int):
    """Messages, noisy received words and noisy BPSK confidences."""
    rng = np.random.default_rng(seed)
    messages = rng.integers(0, 2, (size, code.k)).astype(np.uint8)
    codewords = code.encode_batch(messages)
    words = codewords ^ (rng.random(codewords.shape) < 0.1).astype(np.uint8)
    confidences = 1.0 - 2.0 * codewords + rng.normal(0.0, 0.35, codewords.shape)
    return messages, words, confidences


def _assert_rows_equal(batch, scalar_results):
    """A batch decode result equals the scalar results row by row."""
    assert np.array_equal(
        batch.messages, np.array([r.message for r in scalar_results])
    )
    assert np.array_equal(
        batch.corrected_errors,
        np.array([r.corrected_errors for r in scalar_results]),
    )
    assert np.array_equal(
        batch.detected_uncorrectable,
        np.array([r.detected_uncorrectable for r in scalar_results]),
    )


@pytest.mark.parametrize("name", CODES)
class TestCodecKernels:
    def test_encode_batch(self, name):
        code = get_code(name)
        steps = {}
        for size in (SMALL, LARGE):
            messages, _, _ = _inputs(code, size, seed=size)
            steps[size] = count_steps(lambda: code.encode_batch(messages))
        assert steps[LARGE] <= steps[SMALL], steps
        assert np.array_equal(
            code.encode_batch(messages), np.array([code.encode(m) for m in messages])
        )

    def test_decode_batch_detailed(self, name):
        code = get_code(name)
        decoder = get_decoder(code)
        steps = {}
        for size in (SMALL, LARGE):
            _, words, _ = _inputs(code, size, seed=size)
            steps[size] = count_steps(lambda: decoder.decode_batch_detailed(words))
        assert steps[LARGE] <= steps[SMALL], steps
        _assert_rows_equal(
            decoder.decode_batch_detailed(words), [decoder.decode(w) for w in words]
        )

    def test_decode_soft_batch_detailed(self, name):
        code = get_code(name)
        decoder = get_decoder(code)
        steps = {}
        for size in (SMALL, LARGE):
            _, _, confidences = _inputs(code, size, seed=size)
            steps[size] = count_steps(
                lambda: decoder.decode_soft_batch_detailed(confidences)
            )
        assert steps[LARGE] <= steps[SMALL], steps
        _assert_rows_equal(
            decoder.decode_soft_batch_detailed(confidences),
            [decoder.decode_soft(row) for row in confidences],
        )


CHANNELS = {
    "gilbert-elliott": (
        GilbertElliottChannel(p_good=0.01, p_bad=0.5, p_g2b=0.08, p_b2g=0.25),
        gilbert_elliott_reference,
        lambda rng, shape: rng.random(shape),
    ),
    "bursty-flux": (
        BurstyFluxChannel(sigma_good=0.08, sigma_bad=0.55, p_g2b=0.08, p_b2g=0.25),
        bursty_flux_reference,
        lambda rng, shape: rng.normal(0.0, 1.0, shape),
    ),
}


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_burst_channel_apply_draws(name):
    channel, reference, draw = CHANNELS[name]
    steps = {}
    for size in (SMALL, LARGE):
        rng = np.random.default_rng(size)
        bits = rng.integers(0, 2, (size, FRAME_BITS)).astype(np.uint8)
        state_draws = rng.random(bits.shape)
        second_draws = draw(rng, bits.shape)
        steps[size] = count_steps(
            lambda: channel.apply_draws(bits, state_draws, second_draws)
        )
    assert steps[LARGE] <= steps[SMALL], steps
    assert np.array_equal(
        channel.apply_draws(bits, state_draws, second_draws),
        np.array(
            [
                reference(bits[i], state_draws[i], second_draws[i], channel)
                for i in range(LARGE)
            ]
        ),
    )
