"""Exhaustive maximum-likelihood (nearest-codeword) decoding.

The reference decoder for the exhaustive analyses: scans all 2^k
codewords and picks the closest in Hamming distance.  Ties flag the word
``detected_uncorrectable`` and resolve to the smallest message index, so
decoding regions are deterministic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.coding.decoders.base import DecodeResult, Decoder


class MaximumLikelihoodDecoder(Decoder):
    """Brute-force nearest-codeword decoder (reference implementation)."""

    strategy_name = "ml"

    def decode(self, received: Sequence[int]) -> DecodeResult:
        """Exhaustive nearest-codeword decode of one word.

        Scans all 2^k codewords for the minimum Hamming distance;
        distance ties raise ``detected_uncorrectable`` and resolve to
        the smallest message index, so the reference is deterministic.
        """
        word = self._check_received(received)
        codewords = self.code.all_codewords
        distances = np.count_nonzero(codewords != word[None, :], axis=1)
        best = int(distances.min())
        candidates = np.nonzero(distances == best)[0]
        index = int(candidates[0])
        message = self.code.all_messages[index].copy()
        codeword = codewords[index].copy()
        return DecodeResult(
            message=message,
            codeword=codeword,
            corrected_errors=best,
            detected_uncorrectable=len(candidates) > 1,
        )
