"""Binary vector helpers used throughout the coding layer.

Vectors are NumPy ``uint8`` arrays holding 0/1 values.  The helpers here
convert between integers, strings like ``"1011"``, and arrays, and
enumerate message/error spaces for the exhaustive analyses behind
Table I of the paper.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from repro.errors import DimensionError, NotBinaryError

BitsLike = Union[str, int, Sequence[int], np.ndarray]


def read_only(array: np.ndarray) -> np.ndarray:
    """Flag ``array`` read-only in place and return it.

    Codes and decoders freeze the arrays they hold or cache, because
    one instance may serve every caller in the process (see
    :func:`repro.coding.registry.get_codec`).
    """
    array.flags.writeable = False
    return array


def as_bit_array(bits: BitsLike, length: int | None = None) -> np.ndarray:
    """Coerce ``bits`` to a 1-D ``uint8`` array of 0/1 values.

    Accepts a string of '0'/'1' characters (optionally with spaces or
    underscores), a sequence of ints, or an existing array.  Integers are
    *not* accepted here because the bit-width would be ambiguous; use
    :func:`bits_from_int`.
    """
    if isinstance(bits, str):
        cleaned = bits.replace(" ", "").replace("_", "")
        if not cleaned or any(c not in "01" for c in cleaned):
            raise NotBinaryError(f"not a binary string: {bits!r}")
        arr = np.frombuffer(cleaned.encode("ascii"), dtype=np.uint8) - ord("0")
        arr = arr.astype(np.uint8)
    elif isinstance(bits, (int, np.integer)):
        raise TypeError("integer bit patterns need an explicit width; use bits_from_int")
    else:
        arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise NotBinaryError(f"expected a 1-D bit vector, got shape {arr.shape}")
    if arr.size and arr.max() > 1:
        raise NotBinaryError("bit vector contains values other than 0 and 1")
    if length is not None and arr.size != length:
        raise NotBinaryError(f"expected {length} bits, got {arr.size}")
    return arr


def parse_bits(text: str, length: int | None = None) -> np.ndarray:
    """Parse a string such as ``"1011"`` into a bit array."""
    return as_bit_array(text, length=length)


def format_bits(bits: BitsLike) -> str:
    """Render a bit vector as a compact string such as ``"01100110"``."""
    arr = as_bit_array(bits)
    return "".join("1" if b else "0" for b in arr)


def bits_from_int(value: int, width: int, msb_first: bool = True) -> np.ndarray:
    """Expand integer ``value`` into ``width`` bits.

    ``msb_first=True`` matches the paper's message convention where
    ``'1011'`` means ``m1=1, m2=0, m3=1, m4=1``.
    """
    if width < 0:
        raise ValueError("width must be non-negative")
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    bits = np.array([(value >> i) & 1 for i in range(width)], dtype=np.uint8)
    return bits[::-1].copy() if msb_first else bits


def bits_to_int(bits: BitsLike, msb_first: bool = True) -> int:
    """Pack a bit vector back into an integer (inverse of bits_from_int)."""
    arr = as_bit_array(bits)
    seq = arr if msb_first else arr[::-1]
    value = 0
    for b in seq:
        value = (value << 1) | int(b)
    return value


def hamming_weight(bits: BitsLike) -> int:
    """Number of ones in the vector."""
    return int(as_bit_array(bits).sum())


def hamming_distance(a: BitsLike, b: BitsLike) -> int:
    """Number of positions where ``a`` and ``b`` differ."""
    va = as_bit_array(a)
    vb = as_bit_array(b)
    if va.size != vb.size:
        raise NotBinaryError(
            f"length mismatch: {va.size} vs {vb.size} — vectors must be equal length"
        )
    return int(np.count_nonzero(va != vb))


def row_values(bits: np.ndarray) -> np.ndarray:
    """The integer each row of a validated ``(batch, n)`` 0/1 array spells.

    Bit ``j`` of a row is worth ``2**j`` (LSB-first), so for ``n <= 16``
    the values index a ``2**n``-row table directly: the codeword table
    an encode gathers from and the decode table a hard batch decode
    gathers from.  Rows are zero-padded to whole bytes so one flat
    ``np.packbits`` packs every row into one byte (n <= 8) or two;
    packing row by row (``axis=1``) is several times slower on rows
    this short.  The values come back as ``intp`` once rather than
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


def all_binary_vectors(length: int) -> np.ndarray:
    """All ``2**length`` binary vectors as a ``(2**length, length)`` array.

    Row ``i`` is the MSB-first expansion of ``i``, so row ordering matches
    :func:`bits_from_int`.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if length > 24:
        raise ValueError(f"refusing to enumerate 2**{length} vectors")
    count = 1 << length
    indices = np.arange(count, dtype=np.uint32)
    shifts = np.arange(length - 1, -1, -1, dtype=np.uint32)
    return ((indices[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def all_weight_w_vectors(length: int, weight: int) -> Iterator[np.ndarray]:
    """Yield every length-``length`` vector of Hamming weight ``weight``."""
    if not 0 <= weight <= length:
        raise ValueError(f"weight must lie in [0, {length}], got {weight}")
    for support in combinations(range(length), weight):
        vec = np.zeros(length, dtype=np.uint8)
        for idx in support:
            vec[idx] = 1
        yield vec


def count_weight_w_vectors(length: int, weight: int) -> int:
    """Binomial coefficient C(length, weight) as an int."""
    from math import comb

    return comb(length, weight)


def xor_reduce(vectors: Iterable[BitsLike], length: int) -> np.ndarray:
    """XOR-accumulate an iterable of equal-length bit vectors."""
    acc = np.zeros(length, dtype=np.uint8)
    for vec in vectors:
        acc ^= as_bit_array(vec, length=length)
    return acc
