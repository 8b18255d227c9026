"""The kernel engine: the repo's hot inner kernels as plain NumPy.

A :class:`KernelBackend` bundles the bit-packed GF(2) primitives of
:mod:`repro.gf2.bitpack` and the float soft-decision searches (codebook
correlation, Hadamard spectrum).  Hard-decision batches need no kernel:
they gather from a decode table
(:meth:`repro.coding.decoders.base.Decoder.decode_batch_detailed`), and
encoding a code with ``n <= TABLE_N_LIMIT`` gathers from its codeword
table (:meth:`repro.coding.linear.LinearBlockCode.encode_batch`).

The soft kernels score a ``(batch, n)`` confidence block against
``(rows, n)`` ±1 sign rows with :func:`pairwise_scores`, which equals
``(values[:, None, :] * signs[None]).sum(axis=2)`` bit for bit: it
adds the same terms in NumPy's pairwise summation order, so a 1-row
call and a 4096-row call agree on every row and the scalar decoders,
the golden vectors and the conformance matrix hold.

Kernel methods assume *validated, canonical* inputs (correct dtypes,
2-D shapes, 0/1 bit arrays): validation stays in the public wrappers
(:mod:`repro.gf2.bitpack`, the decoder entry points).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple, Union

import numpy as np

#: Number of logical bits carried per packed word (mirrors
#: :data:`repro.gf2.bitpack.WORD_BITS`; duplicated here so the engine
#: never imports the layer that dispatches to it).
WORD_BITS = 64

_WORD_BYTES = WORD_BITS // 8

#: NumPy's pairwise summation: below ``_PAIRWISE_UNROLL`` terms it adds
#: in sequence; up to ``_PAIRWISE_BLOCK`` terms it keeps eight running
#: accumulators, combines them as a fixed tree and adds the remainder
#: in sequence; longer sums recurse on halves.
_PAIRWISE_UNROLL = 8
_PAIRWISE_BLOCK = 128

#: Accumulator order in each block of eight term slabs: bit-reversed, so
#: every level of the tree adds the second half of its slabs to the first.
_LANE_ORDER = (0, 4, 2, 6, 1, 5, 3, 7)


@lru_cache(maxsize=None)
def _term_sources(shape: Tuple[int, int], dtype: str, data: bytes) -> np.ndarray:
    """Row of ``[values.T; -values.T]`` that holds each term, slab-major.

    Slab ``k`` holds term ``order[k]`` of every sign row: the terms of
    each whole block of eight in ``_LANE_ORDER``, then the remainder in
    sequence.  A term is the value or its negation as the sign is +1
    or -1.
    """
    rows, n = shape
    signs = np.frombuffer(data, dtype=dtype).reshape(shape)
    order = np.arange(n)
    if n >= _PAIRWISE_UNROLL:
        blocked = n - n % _PAIRWISE_UNROLL
        blocks = np.arange(0, blocked, _PAIRWISE_UNROLL)[:, None]
        order[:blocked] = (blocks + _LANE_ORDER).reshape(-1)
    sources = (order[:, None] + n * (signs.T[order] < 0)).reshape(-1)
    sources.flags.writeable = False
    return sources


def pairwise_scores(values: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """``(batch, rows)`` scores of every row of ``values`` against ``signs``.

    Bit-identical to ``(values[:, None, :] * signs[None]).sum(axis=2)``
    for ±1 ``signs``: a term is a value or its negation exactly, and
    for ``n <= 128`` terms they are added in the order NumPy's pairwise
    sum adds them along a contiguous axis (sequentially below 8 terms;
    eight accumulators combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` and then the
    remainder in sequence, up to 128), finishing with NumPy's
    ``0.0 + sum`` so even the sign of a zero score matches.  Longer
    rows use the expression itself.  The terms are gathered once into
    contiguous ``(rows, batch)`` slabs and summed in place, one NumPy
    call per step over the whole batch.

    Parameters
    ----------
    values : numpy.ndarray
        ``(batch, n)`` float64 confidences.
    signs : numpy.ndarray
        ``(rows, n)`` float64 ±1 rows to correlate with.

    Returns
    -------
    numpy.ndarray
        ``(batch, rows)`` float64 scores (a transposed view).
    """
    batch, n = values.shape
    if not 0 < n <= _PAIRWISE_BLOCK:
        return (values[:, None, :] * signs[None, :, :]).sum(axis=2)
    columns = np.ascontiguousarray(values.T)
    sources = _term_sources(signs.shape, signs.dtype.str, signs.tobytes())
    terms = np.concatenate((columns, -columns)).take(sources, axis=0)
    terms = terms.reshape(n, signs.shape[0], batch)
    scores = terms[0]
    if n < _PAIRWISE_UNROLL:
        scores += 0.0
        for j in range(1, n):
            scores += terms[j]
        return scores.T
    blocked = n - n % _PAIRWISE_UNROLL
    lanes = terms[:_PAIRWISE_UNROLL]
    for start in range(_PAIRWISE_UNROLL, blocked, _PAIRWISE_UNROLL):
        lanes += terms[start : start + _PAIRWISE_UNROLL]
    np.add(lanes[:4], lanes[4:], out=lanes[:4])
    np.add(lanes[:2], lanes[2:4], out=lanes[:2])
    scores += lanes[1]
    for j in range(blocked, n):
        scores += terms[j]
    scores += 0.0
    return scores.T


class KernelBackend:
    """The NumPy kernel engine behind every packed and soft batch path.

    :func:`repro.backends.registry.resolve_backend` hands out the one
    instance.
    """

    #: Engine name, as :func:`~repro.backends.available_backends` lists it.
    name: str = "numpy"

    # ------------------------------------------------------------------
    # Bit-packing kernels (integer-exact)
    # ------------------------------------------------------------------
    def pack_rows(self, bits: np.ndarray) -> np.ndarray:
        """Pack a validated ``(rows, n)`` uint8 0/1 array along its last axis.

        Returns ``(rows, ceil(n / 64))`` uint64 words, LSB-first: bit
        ``t`` of word ``w`` is column ``64 * w + t``.
        """
        rows, n = bits.shape
        words = -(-n // WORD_BITS)
        if n == 0:
            return np.zeros((rows, 0), dtype=np.uint64)
        packed_bytes = np.packbits(bits, axis=1, bitorder="little")
        pad = words * _WORD_BYTES - packed_bytes.shape[1]
        if pad:
            packed_bytes = np.pad(packed_bytes, ((0, 0), (0, pad)))
        return np.ascontiguousarray(packed_bytes).view(np.uint64)

    def pack_cols(self, bits: np.ndarray) -> np.ndarray:
        """Bit-slice a validated ``(batch, n)`` uint8 array: pack the batch axis.

        Returns ``(n, ceil(batch / 64))`` uint64 words; row ``j`` is the
        bit-slice of column ``j`` across the whole batch.
        """
        return self.pack_rows(np.ascontiguousarray(bits.T))

    def popcount(
        self, packed: np.ndarray, axis: Union[int, None] = -1
    ) -> Union[np.ndarray, np.int64]:
        """Population count of uint64 words, summed along ``axis``."""
        return np.bitwise_count(np.asarray(packed, dtype=np.uint64)).sum(
            axis=axis, dtype=np.int64
        )

    def hamming_distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Hamming distance between packed rows (broadcasting allowed)."""
        return self.popcount(np.bitwise_xor(a, b), axis=-1)

    def gf2_matmul(
        self, slices: np.ndarray, indptr: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        """Bit-sliced GF(2) product against a precompiled column structure.

        Parameters
        ----------
        slices : numpy.ndarray
            ``(k, words)`` uint64 input bit-slices.
        indptr, indices : numpy.ndarray
            CSR-style column supports of the fixed ``(k, n)`` matrix:
            column ``j`` of the output is the XOR of input slices
            ``indices[indptr[j]:indptr[j + 1]]``.

        Returns
        -------
        numpy.ndarray
            ``(len(indptr) - 1, words)`` output bit-slices.
        """
        n_out = indptr.size - 1
        out = np.zeros((n_out, slices.shape[1]), dtype=np.uint64)
        for j in range(n_out):
            lo, hi = indptr[j], indptr[j + 1]
            if hi - lo == 1:
                out[j] = slices[indices[lo]]
            elif hi > lo:
                np.bitwise_xor.reduce(slices[indices[lo:hi]], axis=0, out=out[j])
        return out

    # ------------------------------------------------------------------
    # Float soft-decision decode kernels (pairwise-sum order matters)
    # ------------------------------------------------------------------
    def correlation_decode(
        self, values: np.ndarray, signs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exhaustive codebook correlation (soft-ML) argmax with tie flags.

        Parameters
        ----------
        values : numpy.ndarray
            ``(batch, n)`` float64 BPSK confidences.
        signs : numpy.ndarray
            ``(n_codes, n)`` float64 ±1 codebook rows (``+1`` = bit 0).

        Returns
        -------
        tuple
            ``(best_index, ties)``: per row the first index of the
            maximum correlation score and whether the maximum was
            attained more than once.
        """
        scores = pairwise_scores(values, signs)
        best_index = scores.argmax(axis=1)
        best = scores[np.arange(len(values)), best_index]
        ties = (scores == best[:, None]).sum(axis=1) > 1
        return best_index, ties

    def soft_spectrum_decode(
        self, values: np.ndarray, hadamard: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hadamard-spectrum argmax-|T| search for RM(1, m) soft decoding.

        Parameters
        ----------
        values : numpy.ndarray
            ``(batch, n)`` float64 BPSK confidences, ``n = 2^m``.
        hadamard : numpy.ndarray
            ``(n, n)`` float64 ±1 Hadamard matrix.

        Returns
        -------
        tuple
            ``(best_index, best_value, ties)``: per row the first index
            of the largest-magnitude spectrum coefficient, the (signed)
            coefficient itself, and the tie flag (more than one
            coefficient at the maximum magnitude, or an all-zero
            spectrum).
        """
        batch = values.shape[0]
        spectra = pairwise_scores(values, hadamard)
        magnitudes = np.abs(spectra)
        best = magnitudes.max(axis=1, initial=0.0)
        best_index = (
            magnitudes.argmax(axis=1) if batch else np.zeros(0, dtype=np.int64)
        )
        best_value = spectra[np.arange(batch), best_index]
        ties = ((magnitudes == best[:, None]).sum(axis=1) > 1) | (best == 0.0)
        return best_index, best_value, ties

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
