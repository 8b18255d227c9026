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
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.backends import resolve_backend
from repro.coding.decoders.base import BatchDecodeResult, DecodeResult, Decoder
from repro.coding.linear import LinearBlockCode
from repro.gf2.bitpack import pack_rows, packed_hamming_distance


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
    """The n x n ±1 Hadamard matrix ``H[a, i] = (-1)^{<a, i>}``.

    Cached per size; the batched soft FHT decoders apply it as one
    dense product (n is tiny for RM(1, m), so that beats the butterfly
    across a batch).
    """
    indices = np.arange(n)
    parity = np.array(
        [[bin(a & i).count("1") & 1 for i in indices] for a in range(n)],
        dtype=np.int64,
    )
    hadamard = 1 - 2 * parity
    hadamard.flags.writeable = False
    return hadamard


def soft_spectrum_messages(
    values: np.ndarray, m: int, backend: Optional[str] = None
):
    """Batched soft Hadamard decoding: ``(messages, ties)`` for RM(1, m).

    ``values`` is a ``(batch, 2^m)`` float array of BPSK confidences.
    The whole batch is pushed through one dense Hadamard product; the
    largest-magnitude spectrum coefficient per row gives the message,
    its sign the constant term.  Ties in magnitude (or an all-zero
    spectrum) are reported per row, matching the scalar tie-break:
    smallest spectrum index wins, positive sign preferred.

    The spectrum kernel (:meth:`soft_spectrum_decode
    <repro.backends.base.KernelBackend.soft_spectrum_decode>`) is an
    elementwise multiply + axis sum rather than a BLAS matmul so the
    floating-point reduction order is identical for every batch size —
    a 1-row call and a 4096-row call are bit-identical per row
    (``bench_soft.py`` asserts exactly that), and every backend must
    reproduce that order.
    """
    batch, n = values.shape
    hadamard = hadamard_matrix(n).astype(np.float64)
    best_index, best_value, ties = resolve_backend(backend).soft_spectrum_decode(
        np.ascontiguousarray(values), hadamard
    )
    messages = np.empty((batch, m + 1), dtype=np.uint8)
    messages[:, 0] = (best_value < 0).astype(np.uint8)
    for j in range(m):
        messages[:, j + 1] = (best_index >> j) & 1
    return messages, ties


def soft_spectrum_detailed(
    code: LinearBlockCode,
    values: np.ndarray,
    m: int,
    backend: Optional[str] = None,
) -> BatchDecodeResult:
    """Full :class:`BatchDecodeResult` for a validated confidence batch.

    Shared by :class:`FhtDecoder` and
    :class:`~repro.coding.decoders.soft.SoftFhtDecoder`:
    ``corrected_errors`` counts where the committed codeword differs
    from the sign-sliced input, aligning soft telemetry with the hard
    path's.
    """
    messages, ties = soft_spectrum_messages(values, m, backend=backend)
    codewords = code.encode_batch(messages)
    hard = (values < 0).astype(np.uint8)
    corrected = packed_hamming_distance(
        pack_rows(codewords, backend=backend),
        pack_rows(hard, backend=backend),
        backend=backend,
    )
    return BatchDecodeResult(
        messages=messages,
        codewords=codewords,
        corrected_errors=corrected.astype(np.int64),
        detected_uncorrectable=ties,
    )


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

    def decode_soft_batch(self, confidences: np.ndarray) -> np.ndarray:
        """Message-only batched soft decoding via the Hadamard spectrum.

        The RM(1, m) spectrum *is* the correlation with every codeword,
        so this replaces the base class's generic 2^k-codeword
        correlation with one dense n x n product.
        """
        values = self._check_soft_batch(confidences)
        return soft_spectrum_messages(values, self.m, backend=self.backend)[0]

    def decode_soft_batch_detailed(self, confidences: np.ndarray) -> BatchDecodeResult:
        """Batched soft decoding keeping codewords, counts and tie flags."""
        return soft_spectrum_detailed(
            self.code, self._check_soft_batch(confidences), self.m,
            backend=self.backend,
        )
