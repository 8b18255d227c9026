"""Fast-Hadamard-transform (Green machine) decoding of RM(1, m).

Hard-decision maximum-likelihood decoding of first-order Reed-Muller
codes via the Walsh-Hadamard spectrum (the paper's Ref. [34] technique
applied to hard decisions):

1. map received bits to signs ``s_i = (-1)^{r_i}``;
2. compute the length-2^m Walsh-Hadamard transform T of s in
   O(n log n);
3. the transmitted codeword corresponds to the coefficient of largest
   magnitude: index a gives the linear coefficients (m2..m_{m+1}),
   the sign gives the constant term m1.

Weight-1 errors leave a unique dominant coefficient, so single-error
correction is guaranteed.  Weight-2 errors can tie several coefficients
at the same magnitude; the deterministic tie-break below (smallest
(a, sign) pair, preferring positive sign) still lands on the transmitted
codeword for a fraction of those patterns — this is precisely the
"ability to correct certain 2-bit error patterns" that Table I credits
to RM(1,3) (best case: 2 errors corrected).  Ties also raise the
``detected_uncorrectable`` flag so the link layer knows the choice was
ambiguous.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from repro.backends import resolve_backend
from repro.coding.decoders.base import BatchDecodeResult, DecodeResult, Decoder
from repro.coding.linear import LinearBlockCode
from repro.gf2.vectors import read_only


def walsh_hadamard_transform(signs: np.ndarray) -> np.ndarray:
    """In-place-style iterative WHT; returns a new int array.

    ``T[a] = sum_i (-1)^{<a, i>} signs[i]`` with ``<a, i>`` the GF(2)
    inner product of the bit expansions.
    """
    t = signs.astype(np.int64).copy()
    n = t.size
    if n & (n - 1):
        raise ValueError(f"WHT length must be a power of two, got {n}")
    h = 1
    while h < n:
        for start in range(0, n, 2 * h):
            a = t[start : start + h].copy()
            b = t[start + h : start + 2 * h].copy()
            t[start : start + h] = a + b
            t[start + h : start + 2 * h] = a - b
        h *= 2
    return t


@lru_cache(maxsize=None)
def hadamard_matrix(n: int) -> np.ndarray:
    """The n x n ±1 Hadamard matrix ``H[a, i] = (-1)^{<a, i>}``, as float64.

    Cached per size and read-only; the batched soft FHT decoders score
    a batch against it with :func:`~repro.backends.pairwise_scores`
    (n is tiny for RM(1, m), so that beats the butterfly across a
    batch, and every batch size decodes a row alike).
    """
    indices = np.arange(n)
    parity = np.array(
        [[bin(a & i).count("1") & 1 for i in indices] for a in range(n)],
        dtype=np.int64,
    )
    return read_only((1 - 2 * parity).astype(np.float64))


def _check_rm1m(code: LinearBlockCode, who: str) -> int:
    """Validate that ``code`` uses the RM(1, m) generator convention.

    Spectrum-indexed decoding assumes message bit 1 is the constant term
    and bit j+1 the coefficient of x_j, i.e. the exact generator of
    :func:`repro.coding.reed_muller.rm_generator` — a same-shape code
    with a different generator (e.g. extended Hamming(8,4)) would decode
    to the wrong message mapping.
    """
    n = code.n
    m = n.bit_length() - 1
    if (1 << m) != n or code.k != m + 1:
        raise ValueError(
            f"{who} expects an RM(1,m) code (n=2^m, k=m+1); got {code.name}"
        )
    from repro.coding.reed_muller import rm_generator

    if not (code.generator == rm_generator(1, m)):
        raise ValueError(
            f"{who} needs the canonical RM(1,{m}) generator; "
            f"{code.name} uses a different message mapping"
        )
    return m


class FhtDecoder(Decoder):
    """Green-machine ML decoder for RM(1, m) with deterministic tie-break."""

    strategy_name = "fht"

    def __init__(self, code: LinearBlockCode):
        super().__init__(code)
        self.m = _check_rm1m(code, type(self).__name__)
        # Row of the code's message table (MSB-first, message bit 0 the
        # constant term) for spectrum index a: bit j of a is message bit
        # j + 1; a negative coefficient sets bit 0, n rows further on.
        index = np.arange(code.n, dtype=np.intp)
        coefficients = np.zeros_like(index)
        for j in range(self.m):
            coefficients |= ((index >> j) & 1) << (self.m - 1 - j)
        self._spectrum_rows = read_only(
            np.concatenate([coefficients, coefficients + code.n])
        )

    def _spectrum_argmax(self, spectrum: np.ndarray) -> Tuple[int, int, bool]:
        """Return (index, sign, tie) of the max-|T| coefficient.

        Tie-break: smallest index wins; at the winning index a positive
        sign wins over negative (constant term 0 preferred).  ``tie`` is
        True when more than one (index, sign) candidate attains the
        maximum magnitude.
        """
        magnitudes = np.abs(spectrum)
        best = int(magnitudes.max())
        candidates = np.nonzero(magnitudes == best)[0]
        index = int(candidates[0])
        sign = 1 if spectrum[index] >= 0 else -1
        tie = len(candidates) > 1 or (best == 0)
        return index, sign, tie

    def decode(self, received: Sequence[int]) -> DecodeResult:
        """Green-machine ML decode of one hard word via the WHT.

        Maps bits to ±1 signs, takes the Walsh–Hadamard spectrum, and
        commits to the largest-magnitude coefficient (its index and
        sign encode the message).  Spectrum ties raise
        ``detected_uncorrectable`` with a deterministic
        smallest-index tie-break.
        """
        word = self._check_received(received)
        signs = 1 - 2 * word.astype(np.int64)
        spectrum = walsh_hadamard_transform(signs)
        index, sign, tie = self._spectrum_argmax(spectrum)
        m1 = 0 if sign > 0 else 1
        coefficients = [(index >> j) & 1 for j in range(self.m)]
        message = np.array([m1] + coefficients, dtype=np.uint8)
        codeword = self.code.encode(message)
        corrected = int(np.count_nonzero(codeword ^ word))
        return DecodeResult(
            message=message,
            codeword=codeword,
            corrected_errors=corrected,
            detected_uncorrectable=tie,
        )

    def _spectrum_search(
        self, confidences: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(values, table_rows, ties)`` of a soft batch's spectrum search.

        The largest-magnitude coefficient per row gives the message, its
        sign the constant term: smallest spectrum index wins, positive
        sign preferred, and ties in magnitude (or an all-zero spectrum)
        are flagged — the scalar :meth:`_spectrum_argmax` tie-break.
        """
        values = self._check_soft_batch(confidences)
        n = self.code.n
        best_index, best_value, ties = resolve_backend().soft_spectrum_decode(
            values, hadamard_matrix(n)
        )
        rows = self._spectrum_rows.take(best_index + n * (best_value < 0))
        return values, rows, ties

    def decode_soft_batch(self, confidences: np.ndarray) -> np.ndarray:
        """Message-only batched soft decoding via the Hadamard spectrum.

        The RM(1, m) spectrum *is* the correlation with every codeword,
        so this replaces the base class's generic 2^k-codeword
        correlation with one n x n spectrum per row.
        """
        rows = self._spectrum_search(confidences)[1]
        return self.code.all_messages.take(rows, axis=0)

    def decode_soft_batch_detailed(self, confidences: np.ndarray) -> BatchDecodeResult:
        """Batched soft decoding keeping codewords, counts and tie flags."""
        return self._soft_result(*self._spectrum_search(confidences))
