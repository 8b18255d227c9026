"""Standard-array (coset-leader) syndrome decoding.

This is "syndrome decoding concept introduced by Hamming" (paper
Section II-A): compute the syndrome, look up the minimum-weight coset
leader, subtract it, and read the message back.  For a perfect code such
as Hamming(7,4) *every* syndrome maps to a weight<=1 leader, so the
decoder always corrects and never flags — which is exactly why 2-bit
errors get miscorrected (Table I worst case).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.coding.decoders.base import DecodeResult, Decoder
from repro.coding.linear import LinearBlockCode
from repro.gf2.vectors import read_only


class SyndromeDecoder(Decoder):
    """Coset-leader decoder for any short linear code.

    Parameters
    ----------
    code:
        The code to decode.
    max_correctable_weight:
        If set, leaders heavier than this raise the
        ``detected_uncorrectable`` flag instead of being applied
        (bounded-distance decoding).  ``None`` means complete decoding:
        every syndrome is corrected with its coset leader.
    """

    strategy_name = "syndrome"

    def __init__(self, code: LinearBlockCode, max_correctable_weight: int | None = None):
        super().__init__(code)
        self.max_correctable_weight = max_correctable_weight
        # Precompute a dense syndrome-indexed coset-leader table.
        r = code.redundancy
        self._syndrome_weights = read_only(
            1 << np.arange(r - 1, -1, -1, dtype=np.int64)
        )
        leader_table = np.zeros((1 << r, code.n), dtype=np.uint8)
        leader_weight = np.zeros(1 << r, dtype=np.int64)
        for key, leader in code.coset_leaders.items():
            syn = np.frombuffer(key, dtype=np.uint8)
            idx = int(np.dot(syn, self._syndrome_weights))
            leader_table[idx] = leader
            leader_weight[idx] = int(leader.sum())
        self._leader_table = read_only(leader_table)
        self._leader_weight = read_only(leader_weight)

    def _table_params(self) -> tuple:
        return (self.max_correctable_weight,)

    def _syndrome_index(self, syndrome: np.ndarray) -> int:
        return int(np.dot(syndrome.astype(np.int64), self._syndrome_weights))

    def decode(self, received: Sequence[int]) -> DecodeResult:
        """Standard-array decode one word via its coset leader.

        Looks the syndrome up in the precomputed leader table and
        subtracts the leader; with ``max_correctable_weight`` set,
        heavier leaders flag ``detected_uncorrectable`` instead
        (bounded-distance decoding).
        """
        word = self._check_received(received)
        syndrome = self.code.syndrome(word)
        idx = self._syndrome_index(syndrome)
        leader = self._leader_table[idx]
        weight = int(self._leader_weight[idx])
        if self.max_correctable_weight is not None and weight > self.max_correctable_weight:
            # Bounded-distance mode: flag and fall back to raw extraction.
            message = self._fallback_message(word)
            return DecodeResult(
                message=message,
                codeword=None,
                corrected_errors=0,
                detected_uncorrectable=True,
            )
        codeword = word ^ leader
        message = self.code.extract_message(codeword)
        return DecodeResult(
            message=message,
            codeword=codeword,
            corrected_errors=weight,
            detected_uncorrectable=False,
        )
