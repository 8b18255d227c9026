"""Reed majority-logic decoding for first-order Reed-Muller codes.

This is the original decoding scheme of the paper's Ref. [31] (Reed,
1954) specialised to RM(1, m): each monomial coefficient m_{j+1} is
recovered by a majority vote over the 2^(m-1) disjoint derivative pairs
``r_i ^ r_{i ^ 2^j}``, then the constant term m1 by a majority over the
residual.  A tie in any vote marks the word detected-uncorrectable; the
affected coefficient falls back to 0 and the residual majority breaks
ties toward 0 — deterministic, so decoding regions are well defined.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.coding.decoders.base import DecodeResult, Decoder
from repro.coding.linear import LinearBlockCode


class ReedDecoder(Decoder):
    """Majority-logic decoder for RM(1, m)."""

    strategy_name = "reed-majority"

    def __init__(self, code: LinearBlockCode):
        super().__init__(code)
        from repro.coding.decoders.fht import _check_rm1m

        self.m = _check_rm1m(code, "ReedDecoder")

    def decode(self, received: Sequence[int]) -> DecodeResult:
        """Majority-logic decode one RM(1, m) word (Reed's algorithm).

        Each first-order coefficient is voted on by its 2^(m-1)
        parallel bit pairs; the constant term is re-estimated from the
        residual.  Exact vote ties raise ``detected_uncorrectable``.
        """
        word = self._check_received(received)
        m = self.m
        n = self.code.n
        tie = False
        coefficients = np.zeros(m, dtype=np.uint8)  # m2..m_{m+1}
        for j in range(m):
            votes = 0
            pairs = 0
            for i in range(n):
                if not (i >> j) & 1:
                    votes += int(word[i] ^ word[i ^ (1 << j)])
                    pairs += 1
            if 2 * votes > pairs:
                coefficients[j] = 1
            elif 2 * votes == pairs:
                tie = True  # coefficient falls back to 0
        # Strip the recovered linear part and majority-vote the constant.
        residual = word.copy()
        for j in range(m):
            if coefficients[j]:
                for i in range(n):
                    if (i >> j) & 1:
                        residual[i] ^= 1
        ones = int(residual.sum())
        if 2 * ones > n:
            m1 = 1
        elif 2 * ones == n:
            m1 = 0
            tie = True
        else:
            m1 = 0
        message = np.concatenate([[m1], coefficients]).astype(np.uint8)
        codeword = self.code.encode(message)
        corrected = int(np.count_nonzero(codeword ^ word))
        return DecodeResult(
            message=message,
            codeword=codeword,
            corrected_errors=corrected,
            detected_uncorrectable=tie,
        )
