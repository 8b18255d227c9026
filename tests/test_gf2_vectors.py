"""Unit tests for repro.gf2.vectors."""

import numpy as np
import pytest

from repro.errors import DimensionError, NotBinaryError
from repro.gf2.vectors import (
    all_binary_vectors,
    all_weight_w_vectors,
    as_bit_array,
    bits_from_int,
    bits_to_int,
    count_weight_w_vectors,
    format_bits,
    hamming_distance,
    hamming_weight,
    parse_bits,
    row_values,
    xor_reduce,
)


class TestAsBitArray:
    def test_from_string(self):
        assert as_bit_array("1011").tolist() == [1, 0, 1, 1]

    def test_string_with_separators(self):
        assert as_bit_array("10 11_0").tolist() == [1, 0, 1, 1, 0]

    def test_from_list(self):
        assert as_bit_array([0, 1, 1]).tolist() == [0, 1, 1]

    def test_from_numpy(self):
        arr = np.array([1, 0], dtype=np.uint8)
        assert as_bit_array(arr).tolist() == [1, 0]

    def test_rejects_non_binary_string(self):
        with pytest.raises(NotBinaryError):
            as_bit_array("102")

    def test_rejects_empty_string(self):
        with pytest.raises(NotBinaryError):
            as_bit_array("")

    def test_rejects_non_binary_values(self):
        with pytest.raises(NotBinaryError):
            as_bit_array([0, 2])

    def test_rejects_wrong_length(self):
        with pytest.raises(NotBinaryError):
            as_bit_array("1011", length=5)

    def test_rejects_bare_int(self):
        with pytest.raises(TypeError):
            as_bit_array(5)

    def test_rejects_2d(self):
        with pytest.raises(NotBinaryError):
            as_bit_array(np.zeros((2, 2), dtype=np.uint8))


class TestIntConversion:
    def test_bits_from_int_msb_first(self):
        assert bits_from_int(11, 4).tolist() == [1, 0, 1, 1]

    def test_bits_from_int_lsb_first(self):
        assert bits_from_int(11, 4, msb_first=False).tolist() == [1, 1, 0, 1]

    def test_roundtrip(self):
        for value in range(16):
            assert bits_to_int(bits_from_int(value, 4)) == value

    def test_roundtrip_lsb(self):
        for value in range(32):
            bits = bits_from_int(value, 5, msb_first=False)
            assert bits_to_int(bits, msb_first=False) == value

    def test_value_too_large(self):
        with pytest.raises(ValueError):
            bits_from_int(16, 4)

    def test_negative_value(self):
        with pytest.raises(ValueError):
            bits_from_int(-1, 4)

    def test_zero_width(self):
        assert bits_from_int(0, 0).tolist() == []


class TestFormatting:
    def test_format_bits(self):
        assert format_bits([0, 1, 1, 0]) == "0110"

    def test_parse_format_roundtrip(self):
        assert format_bits(parse_bits("01100110")) == "01100110"


class TestWeightAndDistance:
    def test_weight(self):
        assert hamming_weight("10110") == 3

    def test_weight_zero(self):
        assert hamming_weight([0, 0, 0]) == 0

    def test_distance(self):
        assert hamming_distance("1011", "0011") == 1

    def test_distance_symmetric(self):
        assert hamming_distance("1100", "0011") == hamming_distance("0011", "1100")

    def test_distance_length_mismatch(self):
        with pytest.raises(NotBinaryError):
            hamming_distance("101", "10")


class TestEnumeration:
    def test_all_binary_vectors_count(self):
        assert all_binary_vectors(4).shape == (16, 4)

    def test_all_binary_vectors_rows_match_msb(self):
        vectors = all_binary_vectors(3)
        for i in range(8):
            assert vectors[i].tolist() == bits_from_int(i, 3).tolist()

    def test_all_binary_vectors_refuses_huge(self):
        with pytest.raises(ValueError):
            all_binary_vectors(30)

    def test_weight_w_count(self):
        patterns = list(all_weight_w_vectors(7, 3))
        assert len(patterns) == 35
        assert all(int(p.sum()) == 3 for p in patterns)

    def test_weight_w_unique(self):
        patterns = [p.tobytes() for p in all_weight_w_vectors(6, 2)]
        assert len(set(patterns)) == 15

    def test_count_weight_w(self):
        assert count_weight_w_vectors(8, 2) == 28

    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            list(all_weight_w_vectors(4, 5))


class TestXorReduce:
    def test_basic(self):
        assert xor_reduce(["1100", "1010"], 4).tolist() == [0, 1, 1, 0]

    def test_empty(self):
        assert xor_reduce([], 3).tolist() == [0, 0, 0]

    def test_self_inverse(self):
        assert xor_reduce(["1011", "1011"], 4).tolist() == [0, 0, 0, 0]


class TestRowValues:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16])
    def test_matches_lsb_first_integers(self, n):
        rng = np.random.default_rng(n)
        bits = rng.integers(0, 2, size=(50, n)).astype(np.uint8)
        values = row_values(bits)
        assert values.dtype == np.intp and values.shape == (50,)
        assert values.tolist() == [bits_to_int(row, msb_first=False) for row in bits]

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_reversed_enumeration_counts_up(self, n):
        # The index a batch encode gathers its codeword table by.
        vectors = all_binary_vectors(n)[:, ::-1]
        assert np.array_equal(row_values(vectors), np.arange(2**n))

    def test_empty_batch(self):
        values = row_values(np.zeros((0, 9), dtype=np.uint8))
        assert values.dtype == np.intp and values.shape == (0,)

    def test_rejects_rows_longer_than_sixteen_bits(self):
        with pytest.raises(DimensionError):
            row_values(np.zeros((2, 17), dtype=np.uint8))
