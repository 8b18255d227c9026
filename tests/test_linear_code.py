"""Unit tests for repro.coding.linear.LinearBlockCode."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.linear import LinearBlockCode
from repro.errors import DimensionError, SingularMatrixError
from repro.gf2.matrix import GF2Matrix


@pytest.fixture
def small_code():
    # [4,2] code: G = [1001; 0111] -> dmin 2
    return LinearBlockCode(GF2Matrix([[1, 0, 0, 1], [0, 1, 1, 1]]), name="toy")


class TestConstruction:
    def test_shape(self, small_code):
        assert (small_code.n, small_code.k) == (4, 2)
        assert small_code.redundancy == 2
        assert small_code.rate == 0.5

    def test_rejects_rank_deficient_generator(self):
        with pytest.raises(SingularMatrixError):
            LinearBlockCode(GF2Matrix([[1, 0], [1, 0]]))

    def test_message_positions_validated(self):
        g = GF2Matrix([[1, 0, 0, 1], [0, 1, 1, 1]])
        code = LinearBlockCode(g, message_positions=[0, 1])
        assert code.message_positions == [0, 1]

    def test_message_positions_wrong_count(self):
        g = GF2Matrix([[1, 0, 0, 1], [0, 1, 1, 1]])
        with pytest.raises(DimensionError):
            LinearBlockCode(g, message_positions=[0])

    def test_message_positions_not_identity(self):
        g = GF2Matrix([[1, 0, 0, 1], [0, 1, 1, 1]])
        with pytest.raises(SingularMatrixError):
            LinearBlockCode(g, message_positions=[2, 3])


class TestEncoding:
    def test_encode_zero(self, small_code):
        assert small_code.encode([0, 0]).tolist() == [0, 0, 0, 0]

    def test_encode_rows(self, small_code):
        assert small_code.encode([1, 0]).tolist() == [1, 0, 0, 1]
        assert small_code.encode([0, 1]).tolist() == [0, 1, 1, 1]
        assert small_code.encode([1, 1]).tolist() == [1, 1, 1, 0]

    def test_encode_batch_matches_single(self, small_code):
        msgs = small_code.all_messages
        batch = small_code.encode_batch(msgs)
        for msg, word in zip(msgs, batch):
            assert word.tolist() == small_code.encode(msg).tolist()

    def test_encode_batch_shape_check(self, small_code):
        with pytest.raises(DimensionError):
            small_code.encode_batch(np.zeros((2, 3), dtype=np.uint8))


class TestParityCheck:
    def test_gh_zero(self, small_code):
        product = small_code.generator @ small_code.parity_check.T
        assert product.to_array().sum() == 0

    def test_codewords_have_zero_syndrome(self, small_code):
        for word in small_code.all_codewords:
            assert not small_code.syndrome(word).any()
            assert small_code.is_codeword(word)

    def test_non_codeword_detected(self, small_code):
        word = small_code.encode([1, 0])
        word[0] ^= 1
        assert small_code.syndrome(word).any()

    def test_syndrome_batch(self, small_code):
        words = small_code.all_codewords
        assert small_code.syndrome_batch(words).sum() == 0


def _systematic_code(parity: np.ndarray) -> LinearBlockCode:
    k = parity.shape[0]
    return LinearBlockCode(np.concatenate([np.eye(k, dtype=np.uint8), parity], axis=1))


def _rows_of_weight(weights, n: int) -> np.ndarray:
    rows = np.zeros((len(weights), n), dtype=np.uint8)
    for row, weight in zip(rows, weights):
        row[:weight] = 1
    return rows


#: Row weights either side of 256, where a ``uint8`` sum wraps.
WRAP_WEIGHTS = (0, 1, 255, 256, 257, 299, 300)


class TestBatchProducts:
    """Batch encode and syndromes against an ``int64`` product mod 2.

    Random systematic codes reach both encode paths: the codeword-table
    gather (n <= 15) and the ``uint8`` product (n > 15).  A k = 300
    single parity check sums up to 300 ones per bit, past the wrap.
    """

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_encode_batch_matches_integer_product(self, seed):
        rng = np.random.default_rng(seed)
        k, r = int(rng.integers(1, 11)), int(rng.integers(1, 21))
        code = _systematic_code(rng.integers(0, 2, size=(k, r)).astype(np.uint8))
        msgs = rng.integers(0, 2, size=(int(rng.integers(0, 100)), k)).astype(np.uint8)
        want = (msgs.astype(np.int64) @ code.generator.to_array().astype(np.int64)) % 2
        got = code.encode_batch(msgs)
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_syndrome_batch_matches_integer_product(self, seed):
        rng = np.random.default_rng(seed)
        k, r = int(rng.integers(1, 11)), int(rng.integers(1, 21))
        code = _systematic_code(rng.integers(0, 2, size=(k, r)).astype(np.uint8))
        words = rng.integers(0, 2, size=(int(rng.integers(0, 100)), code.n))
        words = words.astype(np.uint8)
        h = code.parity_check.to_array().astype(np.int64)
        got = code.syndrome_batch(words)
        assert got.dtype == np.uint8
        assert np.array_equal(got, (words.astype(np.int64) @ h.T) % 2)

    def test_parity_survives_uint8_wraparound(self):
        code = _systematic_code(np.ones((300, 1), dtype=np.uint8))
        msgs = _rows_of_weight(WRAP_WEIGHTS, code.k)
        words = code.encode_batch(msgs)
        assert np.array_equal(words[:, : code.k], msgs)
        assert words[:, code.k].tolist() == [w % 2 for w in WRAP_WEIGHTS]

    def test_syndrome_survives_uint8_wraparound(self):
        code = _systematic_code(np.ones((300, 1), dtype=np.uint8))
        words = _rows_of_weight(WRAP_WEIGHTS, code.n)
        syndromes = code.syndrome_batch(words)
        assert syndromes[:, 0].tolist() == [w % 2 for w in WRAP_WEIGHTS]


class TestStructure:
    def test_weight_distribution_sums(self, small_code):
        assert int(small_code.weight_distribution.sum()) == 4

    def test_minimum_distance(self, small_code):
        assert small_code.minimum_distance == 2

    def test_dmin_alias(self, small_code):
        assert small_code.dmin == small_code.minimum_distance

    def test_guarantees(self, small_code):
        assert small_code.guaranteed_detection() == 1
        assert small_code.guaranteed_correction() == 0

    def test_extract_message_roundtrip(self, small_code):
        for msg in small_code.all_messages:
            cw = small_code.encode(msg)
            assert small_code.extract_message(cw).tolist() == msg.tolist()

    def test_coset_leader_count(self, small_code):
        assert len(small_code.coset_leaders) == 4  # 2^(n-k)

    def test_coset_leaders_minimum_weight(self, small_code):
        # Every leader must be <= weight of any other member of its coset.
        for syndrome_bytes, leader in small_code.coset_leaders.items():
            syndrome = np.frombuffer(syndrome_bytes, dtype=np.uint8)
            for candidate_int in range(16):
                candidate = np.array(
                    [(candidate_int >> (3 - b)) & 1 for b in range(4)], dtype=np.uint8
                )
                if small_code.syndrome(candidate).tolist() == syndrome.tolist():
                    assert leader.sum() <= candidate.sum()

    def test_covering_radius(self, small_code):
        assert small_code.covering_radius >= 1

    def test_dual_dimensions(self, small_code):
        dual = small_code.dual()
        assert (dual.n, dual.k) == (4, 2)

    def test_describe_keys(self, small_code):
        desc = small_code.describe()
        assert desc["n"] == 4 and desc["k"] == 2 and desc["dmin"] == 2

    def test_repr(self, small_code):
        assert "toy" in repr(small_code)
