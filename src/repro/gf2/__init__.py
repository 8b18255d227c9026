"""Linear algebra and polynomial arithmetic over GF(2).

This subpackage is the mathematical substrate for the coding-theory
layer: dense binary matrices (:class:`~repro.gf2.matrix.GF2Matrix`),
bit-vector helpers, polynomials over GF(2) and the extension fields
GF(2^m) needed by the BCH comparison code.
"""

from repro.gf2.matrix import GF2Matrix
from repro.gf2.vectors import (
    bits_from_int,
    bits_to_int,
    hamming_distance,
    hamming_weight,
    parse_bits,
    format_bits,
    all_binary_vectors,
    all_weight_w_vectors,
    row_values,
)
from repro.gf2.polynomials import GF2Polynomial
from repro.gf2.field import GF2mField

__all__ = [
    "GF2Matrix",
    "GF2Polynomial",
    "GF2mField",
    "row_values",
    "bits_from_int",
    "bits_to_int",
    "hamming_distance",
    "hamming_weight",
    "parse_bits",
    "format_bits",
    "all_binary_vectors",
    "all_weight_w_vectors",
]
