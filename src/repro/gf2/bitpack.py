"""Bit-packed GF(2) kernels for the batched hot paths.

The paper's codes are tiny (n <= 24), but the ROADMAP's target workload
is a *stream* of frames — millions of codewords pushed through encode /
corrupt / decode per second.  At that scale the natural layout is not
one ``uint8`` per bit but 64 bits per machine word, with the batch
dimension packed so that one NumPy XOR touches 64 codewords at once
("bit-slicing", the software analogue of the SFQ encoder's spatial
parallelism).

Two packing orientations are provided:

``pack_rows`` / ``unpack_rows``
    Pack each row's bits into ``uint64`` words (bits of one codeword
    share a word).  Right layout for Hamming-distance kernels: XOR two
    packed words and :func:`popcount` the result.

``pack_cols`` / ``unpack_cols``
    Pack the *batch* axis, producing one bit-slice per column (all
    codewords' bit ``j`` share words).  Right layout for mod-2 matrix
    products: output bit ``j`` of every codeword in the batch is the XOR
    of the message bit-slices selected by column ``j`` of the matrix —
    a handful of 64-way-parallel XORs per output bit, no multiply at
    all.  :class:`PackedGF2Matmul` precompiles that column structure.

Bits are packed LSB-first: bit ``t`` of word ``w`` holds logical index
``64 * w + t``.  All functions accept and return ``uint8`` 0/1 arrays at
the boundary, so callers never need to know the packed layout.

The packing, popcount, Hamming-distance and matmul kernels run on the
kernel engine (:mod:`repro.backends`), fetched per call through
:func:`~repro.backends.resolve_backend`.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

from repro.backends import resolve_backend
from repro.errors import DimensionError, NotBinaryError
from repro.gf2.vectors import read_only

#: Number of logical bits carried per packed word.
WORD_BITS = 64

_WORD_BYTES = WORD_BITS // 8


def packed_words(n_bits: int) -> int:
    """Number of ``uint64`` words needed to hold ``n_bits`` bits.

    Parameters
    ----------
    n_bits : int
        Logical bit count (non-negative).

    Returns
    -------
    int
        ``ceil(n_bits / 64)``.
    """
    if n_bits < 0:
        raise ValueError(f"bit count must be non-negative, got {n_bits}")
    return -(-n_bits // WORD_BITS)


def _as_bit_matrix(bits: np.ndarray) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 1-D or 2-D bit array, got shape {arr.shape}")
    if arr.size and arr.max() > 1:
        raise NotBinaryError("bit array contains values other than 0 and 1")
    return arr


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(rows, n)`` 0/1 array along its last axis into ``uint64``.

    Parameters
    ----------
    bits : numpy.ndarray
        ``(rows, n)`` (or 1-D ``(n,)``, treated as one row) array of 0/1
        values.

    Returns
    -------
    numpy.ndarray
        ``(rows, ceil(n / 64))`` array of ``uint64`` words, LSB-first:
        bit ``t`` of word ``w`` is column ``64 * w + t``.
    """
    arr = _as_bit_matrix(bits)
    return resolve_backend().pack_rows(np.ascontiguousarray(arr))


def row_values(bits: np.ndarray) -> np.ndarray:
    """The integer each row of a validated ``(batch, n)`` 0/1 array spells.

    Bit ``j`` of a row is worth ``2**j`` (LSB-first, like
    :func:`pack_rows`), so for ``n <= 16`` the values index a
    ``2**n``-row table directly.  Rows are zero-padded to whole bytes
    so one flat ``np.packbits`` packs every row into one byte (n <= 8)
    or two; packing row by row (``axis=1``) is several times slower on
    rows this short.  The values come back as ``intp`` once rather than
    converted by each ``take`` that uses them.

    Parameters
    ----------
    bits : numpy.ndarray
        ``(batch, n)`` array of 0/1 values with ``n <= 16``.

    Returns
    -------
    numpy.ndarray
        ``(batch,)`` ``intp`` row values.
    """
    batch, n = bits.shape
    if n > 16:
        raise DimensionError(f"row_values packs at most 16 bits per row, got {n}")
    width = max(-(-n // 8), 1) * 8
    if n != width:
        padded = np.zeros((batch, width), dtype=np.uint8)
        padded[:, :n] = bits
        bits = padded
    packed = np.packbits(bits.reshape(-1), bitorder="little")
    if width > 8:
        packed = packed.view("<u2")
    return packed.astype(np.intp)


def unpack_rows(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`.

    Parameters
    ----------
    packed : numpy.ndarray
        ``(rows, words)`` array of ``uint64`` words.
    n : int
        Logical bit count per row; must satisfy
        ``words == packed_words(n)``.

    Returns
    -------
    numpy.ndarray
        ``(rows, n)`` ``uint8`` array of 0/1 values.
    """
    arr = np.ascontiguousarray(packed, dtype=np.uint64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D packed array, got shape {arr.shape}")
    if arr.shape[1] != packed_words(n):
        raise DimensionError(
            f"packed width {arr.shape[1]} does not match {packed_words(n)} "
            f"words for n={n}"
        )
    if n == 0:
        return np.zeros((arr.shape[0], 0), dtype=np.uint8)
    as_bytes = arr.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :n]


def pack_cols(bits: np.ndarray) -> np.ndarray:
    """Bit-slice a ``(batch, n)`` array: pack the *batch* axis.

    Parameters
    ----------
    bits : numpy.ndarray
        ``(batch, n)`` array of 0/1 values.

    Returns
    -------
    numpy.ndarray
        ``(n, ceil(batch / 64))`` array of ``uint64`` words; row ``j``
        is the bit-slice of column ``j`` across the whole batch.
    """
    arr = _as_bit_matrix(bits)
    return resolve_backend().pack_cols(np.ascontiguousarray(arr))


def unpack_cols(packed: np.ndarray, batch: int) -> np.ndarray:
    """Inverse of :func:`pack_cols`.

    Parameters
    ----------
    packed : numpy.ndarray
        ``(n, words)`` array of bit-slices.
    batch : int
        Logical batch size.

    Returns
    -------
    numpy.ndarray
        ``(batch, n)`` ``uint8`` array of 0/1 values (C-contiguous).
    """
    return np.ascontiguousarray(unpack_rows(packed, batch).T)


def popcount(packed: np.ndarray, axis: Union[int, None] = -1) -> np.ndarray:
    """Population count of packed words, summed along ``axis``.

    Parameters
    ----------
    packed : numpy.ndarray
        Array of ``uint64`` words.
    axis : int or None, optional
        Axis to sum bit counts over (default: last).  ``None`` sums over
        the whole array.

    Returns
    -------
    numpy.ndarray or int
        Integer bit counts.
    """
    return resolve_backend().popcount(
        np.asarray(packed, dtype=np.uint64), axis=axis
    )


def packed_hamming_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distance between packed rows (broadcasting allowed).

    Parameters
    ----------
    a, b : numpy.ndarray
        Packed ``uint64`` arrays with broadcastable shapes whose last
        axis is the word axis.

    Returns
    -------
    numpy.ndarray
        Distances with the broadcast shape minus the word axis.
    """
    return resolve_backend().hamming_distance(
        np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64)
    )


class PackedGF2Matmul:
    """Precompiled bit-sliced multiply by a fixed GF(2) matrix.

    Computes ``(X @ M) % 2`` for 0/1 arrays ``X`` of shape
    ``(batch, k)`` against a fixed ``(k, n)`` matrix ``M``, by packing
    the batch axis into ``uint64`` bit-slices and XOR-reducing, per
    output column, the input slices selected by that column's support.
    For the paper's codes this turns a batch encode into roughly
    ``n * k / 2`` XORs over ``batch / 64``-word arrays — no
    multiplications, no mod.

    Parameters
    ----------
    matrix : array_like
        ``(k, n)`` matrix over GF(2) (values reduced mod 2).

    Examples
    --------
    >>> import numpy as np
    >>> mul = PackedGF2Matmul([[1, 0, 1], [0, 1, 1]])
    >>> mul(np.array([[1, 1]], dtype=np.uint8)).tolist()
    [[1, 1, 0]]
    """

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=np.uint8) % 2
        if m.ndim != 2:
            raise DimensionError(f"expected a 2-D matrix, got shape {m.shape}")
        self.k, self.n = m.shape
        self.matrix = read_only(m.copy())
        #: Per-output-column row supports (indices of ones in column j).
        self._supports: List[np.ndarray] = [
            read_only(np.flatnonzero(m[:, j])) for j in range(self.n)
        ]
        # CSR form of the supports, the layout the engine's gf2_matmul takes.
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([s.size for s in self._supports])
        self._indptr = read_only(indptr)
        self._indices = read_only(
            np.concatenate(self._supports).astype(np.int64)
            if indptr[-1]
            else np.zeros(0, dtype=np.int64)
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Multiply a batch of bit vectors by the compiled matrix.

        Parameters
        ----------
        x : numpy.ndarray
            ``(batch, k)`` array of 0/1 values.

        Returns
        -------
        numpy.ndarray
            ``(batch, n)`` ``uint8`` array holding ``(x @ M) % 2``.
        """
        arr = _as_bit_matrix(x)
        batch = arr.shape[0]
        if arr.shape[1] != self.k:
            raise DimensionError(
                f"expected (batch, {self.k}) inputs, got {arr.shape}"
            )
        if batch == 0:
            return np.zeros((0, self.n), dtype=np.uint8)
        slices = pack_cols(arr)  # (k, words)
        out = self.multiply_packed(slices)
        return unpack_cols(out, batch)

    def multiply_packed(self, slices: np.ndarray) -> np.ndarray:
        """Multiply already bit-sliced input, staying in the packed domain.

        Parameters
        ----------
        slices : numpy.ndarray
            ``(k, words)`` bit-slices as produced by :func:`pack_cols`.

        Returns
        -------
        numpy.ndarray
            ``(n, words)`` output bit-slices.
        """
        slices = np.asarray(slices, dtype=np.uint64)
        if slices.ndim != 2 or slices.shape[0] != self.k:
            raise DimensionError(
                f"expected ({self.k}, words) bit-slices, got {slices.shape}"
            )
        return resolve_backend().gf2_matmul(
            np.ascontiguousarray(slices), self._indptr, self._indices
        )

    def __repr__(self) -> str:
        return f"<PackedGF2Matmul {self.k}x{self.n}>"


def packed_matmul(x: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """One-shot ``(x @ matrix) % 2`` via bit-slicing.

    Convenience wrapper around :class:`PackedGF2Matmul` for callers that
    do not reuse the matrix; hot paths should compile once and reuse.

    Parameters
    ----------
    x : numpy.ndarray
        ``(batch, k)`` array of 0/1 values.
    matrix : array_like
        ``(k, n)`` GF(2) matrix.

    Returns
    -------
    numpy.ndarray
        ``(batch, n)`` ``uint8`` product.
    """
    return PackedGF2Matmul(matrix)(x)
