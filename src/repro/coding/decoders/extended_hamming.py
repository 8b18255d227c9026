"""SEC-DED decoding for extended Hamming (dmin = 4) codes.

The extension bit raises dmin to 4, "enabling reliable detection of all
2- and 3-bit errors, while preserving single-error correction" (paper
Section II-A).  The decoding policy is the classical SEC-DED one:

* zero syndrome                         -> accept as-is;
* syndrome of a weight-1 coset          -> correct that single bit;
* any other syndrome                    -> *detect, do not correct*.

On detection the decoder falls back to reading the message bits straight
from the received word (the paper's codes carry m1..m4 verbatim at
c3, c5, c6, c7).  This fallback matters for Fig. 5: a double error
confined to parity channels leaves the delivered message intact, whereas
Hamming(7,4)'s complete decoder would *miscorrect* — flipping a third
bit whose coset support provably includes a message position (see
``tests/test_coding_analysis.py::test_h74_miscorrection_hits_message``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.coding.decoders.base import DecodeResult, Decoder
from repro.coding.linear import LinearBlockCode
from repro.gf2.vectors import read_only


class ExtendedHammingDecoder(Decoder):
    """Correct-1 / detect->=2 decoder with systematic fallback."""

    strategy_name = "sec-ded"

    def __init__(self, code: LinearBlockCode):
        if code.minimum_distance < 4:
            raise ValueError(
                "ExtendedHammingDecoder needs dmin >= 4, "
                f"got {code.minimum_distance} for {code.name}"
            )
        super().__init__(code)
        r = code.redundancy
        # Map syndrome index -> error position (or -1 when not weight-1).
        position_for_syndrome = np.full(1 << r, -1, dtype=np.int64)
        weights = 1 << np.arange(r - 1, -1, -1, dtype=np.int64)
        for pos in range(code.n):
            pattern = np.zeros(code.n, dtype=np.uint8)
            pattern[pos] = 1
            idx = int(self.code.syndrome(pattern).astype(np.int64) @ weights)
            position_for_syndrome[idx] = pos
        self._position_for_syndrome = read_only(position_for_syndrome)
        self._syndrome_weights = read_only(weights)

    def decode(self, received: Sequence[int]) -> DecodeResult:
        """SEC-DED decode one word: correct singles, flag doubles.

        A zero syndrome accepts the word; a syndrome matching a single
        position flips it (one correction); any other syndrome raises
        ``detected_uncorrectable`` and falls back to the systematic
        message bits.
        """
        word = self._check_received(received)
        syndrome = self.code.syndrome(word)
        idx = int(syndrome.astype(np.int64) @ self._syndrome_weights)
        if idx == 0:
            message = self.code.extract_message(word)
            return DecodeResult(
                message=message,
                codeword=word.copy(),
                corrected_errors=0,
                detected_uncorrectable=False,
            )
        pos = int(self._position_for_syndrome[idx])
        if pos >= 0:
            codeword = word.copy()
            codeword[pos] ^= 1
            message = self.code.extract_message(codeword)
            return DecodeResult(
                message=message,
                codeword=codeword,
                corrected_errors=1,
                detected_uncorrectable=False,
            )
        # Detected uncorrectable (>= 2 errors): keep the raw message bits.
        return DecodeResult(
            message=self._fallback_message(word),
            codeword=None,
            corrected_errors=0,
            detected_uncorrectable=True,
        )
