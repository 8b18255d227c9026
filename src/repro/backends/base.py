"""The kernel surface every compute backend implements.

A :class:`KernelBackend` bundles the repo's hot inner kernels — the
bit-packed GF(2) primitives of :mod:`repro.gf2.bitpack` and the float
soft-decision searches (codebook correlation, Hadamard spectrum).
Hard-decision batches need no kernel: they gather from a decode table
(:meth:`repro.coding.decoders.base.Decoder.decode_batch_detailed`).
The base class *is* the NumPy reference implementation: every method
body here is the exact vectorised code the decoders ran before
backends existed, so ``numpy`` is correct by construction and the
accelerated backend (:mod:`repro.backends.native_backend`) overrides
only what it speeds up, inheriting the reference for everything else.

The contract is **bit-identity**: for any input, every kernel must
return arrays exactly equal (values *and* semantics — first-occurrence
argmax/argmin, tie counting, float reduction order) to this reference.
Integer kernels are exact by nature; the float kernels are only
bit-identical if the backend reproduces NumPy's pairwise summation
order, which is what :func:`repro.backends.registry.backend_ready`
verifies before a backend is ever selected.

Kernel methods assume *validated, canonical* inputs (correct dtypes,
2-D shapes, 0/1 bit arrays): validation stays in the public wrappers
(:mod:`repro.gf2.bitpack`, the decoder entry points), so dispatch adds
no per-call overhead.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

#: Number of logical bits carried per packed word (mirrors
#: :data:`repro.gf2.bitpack.WORD_BITS`; duplicated here so the backend
#: layer never imports the layer that dispatches to it).
WORD_BITS = 64

_WORD_BYTES = WORD_BITS // 8


class KernelBackend:
    """Reference (NumPy) implementation of the pluggable kernel surface.

    Subclasses override :attr:`name`, :attr:`priority` and whichever
    kernels they accelerate.  ``priority`` orders the capability probe:
    the highest-priority backend that imports, compiles and passes the
    bit-identity self-check becomes the process default.
    """

    #: Registry key (``backend=`` argument, ``REPRO_BACKEND`` value).
    name: str = "numpy"
    #: Auto-selection rank; higher wins when several backends are usable.
    priority: int = 10
    #: One-line description shown by ``repro backends``.
    summary: str = "vectorised NumPy bit-slicing (always available)"

    # ------------------------------------------------------------------
    # Availability
    # ------------------------------------------------------------------
    def availability(self) -> Tuple[bool, str]:
        """Whether this backend can run here, with a reason when not.

        Called once per process by the capability probe; expensive
        set-up (imports, compilation) belongs here so a
        ``(True, "")`` answer means the kernels are ready to call.
        """
        return True, ""

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

        Notes
        -----
        The score is an elementwise product + axis sum (not BLAS) so the
        float reduction order is NumPy's pairwise scheme for every batch
        size — accelerated backends must replicate that order exactly.
        """
        scores = (values[:, None, :] * signs[None, :, :]).sum(axis=2)
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
        spectra = (values[:, None, :] * hadamard[None, :, :]).sum(axis=2)
        magnitudes = np.abs(spectra)
        best = magnitudes.max(axis=1, initial=0.0)
        best_index = (
            magnitudes.argmax(axis=1) if batch else np.zeros(0, dtype=np.int64)
        )
        best_value = spectra[np.arange(batch), best_index]
        ties = ((magnitudes == best[:, None]).sum(axis=1) > 1) | (best == 0.0)
        return best_index, best_value, ties

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} priority={self.priority}>"


class NumpyBackend(KernelBackend):
    """The always-available reference backend (the base class verbatim)."""

    name = "numpy"
    priority = 10
    summary = "vectorised NumPy bit-slicing (always available)"
