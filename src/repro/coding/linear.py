"""Generic linear block codes over GF(2).

:class:`LinearBlockCode` carries the generator matrix and derives
everything the paper's analysis needs: the parity-check matrix, exact
minimum distance and weight enumerator (codes here are short, so
exhaustive enumeration is the honest choice), syndrome/coset structure,
and the message <-> codeword maps used by the encoders and decoders.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DimensionError, NotBinaryError, SingularMatrixError
from repro.gf2.bitpack import PackedGF2Matmul, row_values
from repro.gf2.matrix import GF2Matrix
from repro.gf2.vectors import (
    all_binary_vectors,
    as_bit_array,
    format_bits,
    hamming_weight,
    read_only,
)

#: Longest code whose batch encode and hard batch decode are table
#: gathers: 2^k codewords to encode from, 2^n received words (at most
#: 32768) to decode.
TABLE_N_LIMIT = 15


class LinearBlockCode:
    """A binary linear [n, k] block code defined by its generator matrix.

    Parameters
    ----------
    generator:
        A full-row-rank ``k x n`` GF(2) matrix (rows are basis codewords).
    name:
        Human-readable name used in reports (e.g. ``"Hamming(8,4)"``).
    message_positions:
        Optional codeword positions from which the message can be read
        back directly (for codes, like the paper's Hamming encoders, that
        embed the message bits verbatim at known positions).  Used by the
        detect-and-fallback decoding policy.
    """

    def __init__(
        self,
        generator: GF2Matrix,
        name: Optional[str] = None,
        message_positions: Optional[Sequence[int]] = None,
        parity_check: Optional[GF2Matrix] = None,
    ):
        generator = GF2Matrix(generator)
        if generator.rank() != generator.rows:
            raise SingularMatrixError(
                "generator matrix must have full row rank "
                f"(rank {generator.rank()} < k={generator.rows})"
            )
        self._generator = generator
        if parity_check is not None:
            parity_check = GF2Matrix(parity_check)
            if parity_check.shape != (generator.cols - generator.rows, generator.cols):
                raise DimensionError(
                    "parity_check must be (n-k) x n for this generator"
                )
            if (generator @ parity_check.T).to_array().any():
                raise SingularMatrixError("G H^T != 0: not a parity check of G")
        self._explicit_parity_check = parity_check
        self.name = name or f"Linear({generator.cols},{generator.rows})"
        if message_positions is not None:
            message_positions = list(message_positions)
            if len(message_positions) != self.k:
                raise DimensionError(
                    f"message_positions must list {self.k} codeword positions"
                )
            if any(not 0 <= p < self.n for p in message_positions):
                raise DimensionError("message_positions out of codeword range")
            self._validate_message_positions(message_positions)
        self._message_positions = message_positions

    def _validate_message_positions(self, positions: List[int]) -> None:
        sub = self._generator.to_array()[:, positions]
        if GF2Matrix(sub).rank() != self.k:
            raise SingularMatrixError(
                "message_positions do not carry the message verbatim"
            )
        if not (GF2Matrix(sub) == GF2Matrix.identity(self.k)):
            raise SingularMatrixError(
                "message_positions must select an identity submatrix of G"
            )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def generator(self) -> GF2Matrix:
        """The ``k x n`` generator matrix G."""
        return self._generator

    @property
    def n(self) -> int:
        """Codeword length."""
        return self._generator.cols

    @property
    def k(self) -> int:
        """Message length (code dimension)."""
        return self._generator.rows

    @property
    def rate(self) -> float:
        """Code rate k/n."""
        return self.k / self.n

    @property
    def redundancy(self) -> int:
        """Number of parity bits n - k."""
        return self.n - self.k

    @property
    def message_positions(self) -> Optional[List[int]]:
        """Codeword positions carrying message bits verbatim, if known."""
        return None if self._message_positions is None else list(self._message_positions)

    # ------------------------------------------------------------------
    # Derived matrices
    # ------------------------------------------------------------------
    @cached_property
    def parity_check(self) -> GF2Matrix:
        """An ``(n-k) x n`` parity-check matrix H with ``G H^T = 0``.

        Uses the explicitly supplied H when the construction has a
        canonical one (Hamming's position-indexed columns), otherwise a
        null-space basis of G.
        """
        if self._explicit_parity_check is not None:
            return self._explicit_parity_check
        h = self._generator.null_space()
        if h.rows != self.redundancy:
            raise SingularMatrixError("null space has unexpected dimension")
        return h

    @cached_property
    def systematic_generator(self) -> Tuple[GF2Matrix, List[int]]:
        """Systematic form ``[I_k | P]`` of G plus the column permutation."""
        return self._generator.to_systematic()

    # ------------------------------------------------------------------
    # Encoding / mapping
    # ------------------------------------------------------------------
    def encode(self, message: Sequence[int]) -> np.ndarray:
        """Encode one k-bit message into an n-bit codeword (row-vector G)."""
        return self._generator.left_multiply_vector(as_bit_array(message, length=self.k))

    @cached_property
    def _packed_encode(self) -> PackedGF2Matmul:
        """Bit-sliced multiply by G, compiled once per code."""
        return PackedGF2Matmul(self._generator.to_array())

    @cached_property
    def _packed_syndrome(self) -> PackedGF2Matmul:
        """Bit-sliced multiply by H^T, compiled once per code."""
        return PackedGF2Matmul(self.parity_check.to_array().T)

    def encode_batch(self, messages: np.ndarray) -> np.ndarray:
        """Encode a whole batch of messages in one vectorised pass.

        The hot path of the streaming pipeline.  A code with
        ``n <= TABLE_N_LIMIT`` gathers each row from
        :attr:`all_codewords` by the message's MSB-first value, the
        order :attr:`all_messages` lists them in.  Longer codes (the
        composites) bit-slice the messages into ``uint64`` words (64
        frames per word) and multiply by G with a handful of XORs per
        codeword bit — see :class:`repro.gf2.bitpack.PackedGF2Matmul`,
        which also fills the codeword table.  Bit-identical to calling
        :meth:`encode` row by row.

        Parameters
        ----------
        messages : numpy.ndarray
            ``(batch, k)`` array of 0/1 message bits.

        Returns
        -------
        numpy.ndarray
            ``(batch, n)`` ``uint8`` array of codewords, row ``i``
            encoding ``messages[i]``.
        """
        msgs = np.asarray(messages, dtype=np.uint8)
        if msgs.ndim != 2 or msgs.shape[1] != self.k:
            raise DimensionError(f"expected (batch, {self.k}) messages, got {msgs.shape}")
        if self.n > TABLE_N_LIMIT:
            return self._packed_encode(msgs)
        if msgs.size and msgs.max() > 1:
            raise NotBinaryError("bit array contains values other than 0 and 1")
        # A reversed row's LSB-first value is the row's MSB-first value.
        return self.all_codewords.take(row_values(msgs[:, ::-1]), axis=0)

    def syndrome(self, received: Sequence[int]) -> np.ndarray:
        """Syndrome ``H r^T`` of a received word."""
        return self.parity_check.multiply_vector(as_bit_array(received, length=self.n))

    def syndrome_batch(self, received: np.ndarray) -> np.ndarray:
        """Syndromes of a batch of received words in one vectorised pass.

        Parameters
        ----------
        received : numpy.ndarray
            ``(batch, n)`` array of 0/1 received bits.

        Returns
        -------
        numpy.ndarray
            ``(batch, n - k)`` ``uint8`` array; row ``i`` is the
            syndrome ``H received[i]^T``.  Bit-identical to calling
            :meth:`syndrome` row by row.
        """
        r = np.asarray(received, dtype=np.uint8)
        if r.ndim != 2 or r.shape[1] != self.n:
            raise DimensionError(f"expected (batch, {self.n}) words, got {r.shape}")
        return self._packed_syndrome(r)

    def is_codeword(self, word: Sequence[int]) -> bool:
        """True iff ``word`` has zero syndrome."""
        return not self.syndrome(word).any()

    def extract_message(self, codeword: Sequence[int]) -> np.ndarray:
        """Recover the message from a *valid* codeword.

        Uses the verbatim message positions when available, otherwise
        solves the linear system against G.
        """
        cw = as_bit_array(codeword, length=self.n)
        if self._message_positions is not None:
            return cw[self._message_positions].copy()
        # Solve m G = cw  <=>  G^T m^T = cw^T.
        return self._generator.T.solve(cw)

    @cached_property
    def _message_recovery(self) -> Tuple[List[int], Optional[np.ndarray]]:
        """Pivot columns P and inverse A^-1 with ``m = cw[:, P] @ A^-1``.

        When the code carries the message verbatim the inverse is the
        identity and is elided (``None``).
        """
        if self._message_positions is not None:
            return list(self._message_positions), None
        _, pivots = self._generator.rref()
        sub = GF2Matrix(self._generator.to_array()[:, pivots])
        return list(pivots), read_only(sub.inverse().to_array())

    def extract_message_batch(self, codewords: np.ndarray) -> np.ndarray:
        """Recover messages from a batch of *valid* codewords.

        Vectorised companion of :meth:`extract_message`: selects a set
        of pivot positions ``P`` whose generator submatrix ``A`` is
        invertible (the verbatim message positions when the code has
        them, so this degenerates to a column gather) and computes
        ``m = cw[:, P] A^{-1}`` over GF(2).

        Parameters
        ----------
        codewords : numpy.ndarray
            ``(batch, n)`` array of valid codewords.

        Returns
        -------
        numpy.ndarray
            ``(batch, k)`` ``uint8`` array of messages, bit-identical to
            calling :meth:`extract_message` row by row.
        """
        cws = np.asarray(codewords, dtype=np.uint8)
        if cws.ndim != 2 or cws.shape[1] != self.n:
            raise DimensionError(f"expected (batch, {self.n}) codewords, got {cws.shape}")
        positions, inverse = self._message_recovery
        sub = cws[:, positions]
        if inverse is None:
            return np.ascontiguousarray(sub)
        return ((sub.astype(np.uint32) @ inverse.astype(np.uint32)) % 2).astype(np.uint8)

    # ------------------------------------------------------------------
    # Exhaustive structure (codes here are short: n <= ~24).  Cached
    # arrays are read-only: one code may be shared process-wide.
    # ------------------------------------------------------------------
    @cached_property
    def all_messages(self) -> np.ndarray:
        """All 2^k messages, shape ``(2^k, k)``, row i = MSB-first i."""
        return read_only(all_binary_vectors(self.k))

    @cached_property
    def all_codewords(self) -> np.ndarray:
        """All 2^k codewords aligned with :attr:`all_messages`."""
        return read_only(self._packed_encode(self.all_messages))

    @cached_property
    def weight_distribution(self) -> np.ndarray:
        """``A[w]`` = number of codewords of weight w, length n+1."""
        weights = self.all_codewords.sum(axis=1)
        return read_only(np.bincount(weights, minlength=self.n + 1))

    @cached_property
    def minimum_distance(self) -> int:
        """Exact minimum distance (minimum nonzero codeword weight).

        Short codes enumerate all 2^k codewords; larger codes search
        error weights incrementally for the lightest pattern with zero
        syndrome, which is exact and cheap while dmin stays small.
        """
        if self.k <= 16:
            dist = self.weight_distribution
            nonzero = np.nonzero(dist[1:])[0]
            if nonzero.size == 0:
                raise SingularMatrixError("code has no nonzero codewords")
            return int(nonzero[0]) + 1
        from repro.gf2.vectors import all_weight_w_vectors

        for weight in range(1, self.n + 1):
            for pattern in all_weight_w_vectors(self.n, weight):
                if not self.syndrome(pattern).any():
                    return weight
        raise SingularMatrixError("code has no nonzero codewords")

    @property
    def dmin(self) -> int:
        """Alias matching the paper's column header."""
        return self.minimum_distance

    def guaranteed_detection(self) -> int:
        """Max t such that *all* error patterns of weight <= t are detected."""
        return self.minimum_distance - 1

    def guaranteed_correction(self) -> int:
        """Max t such that *all* patterns of weight <= t are correctable."""
        return (self.minimum_distance - 1) // 2

    @cached_property
    def codeword_set(self) -> frozenset:
        """Codewords as a frozenset of byte strings (fast membership)."""
        return frozenset(cw.tobytes() for cw in self.all_codewords)

    @cached_property
    def codeword_index(self) -> Dict[bytes, int]:
        """Map codeword bytes -> message index."""
        return {cw.tobytes(): i for i, cw in enumerate(self.all_codewords)}

    # ------------------------------------------------------------------
    # Coset structure
    # ------------------------------------------------------------------
    @cached_property
    def coset_leaders(self) -> Dict[bytes, np.ndarray]:
        """Map syndrome bytes -> minimum-weight coset leader.

        Ties inside a coset are broken deterministically by the
        enumeration order of :func:`all_binary_vectors` restricted to
        increasing weight, i.e. the lexicographically-first pattern of the
        minimum weight wins.  This is the standard-array decoder used by
        :class:`~repro.coding.decoders.syndrome.SyndromeDecoder`.
        """
        leaders: Dict[bytes, np.ndarray] = {}
        zero_syndrome = np.zeros(self.redundancy, dtype=np.uint8)
        leaders[zero_syndrome.tobytes()] = read_only(
            np.zeros(self.n, dtype=np.uint8)
        )
        total = 1 << self.redundancy
        # Enumerate patterns in order of increasing weight so the first
        # pattern hitting a syndrome is automatically a coset leader.
        from repro.gf2.vectors import all_weight_w_vectors

        for weight in range(1, self.n + 1):
            if len(leaders) == total:
                break
            for pattern in all_weight_w_vectors(self.n, weight):
                key = self.syndrome(pattern).tobytes()
                if key not in leaders:
                    leaders[key] = read_only(pattern)
                    if len(leaders) == total:
                        break
        return leaders

    @cached_property
    def covering_radius(self) -> int:
        """Maximum coset-leader weight (exhaustive)."""
        return max(int(leader.sum()) for leader in self.coset_leaders.values())

    def is_perfect(self) -> bool:
        """True iff the Hamming bound is met with equality."""
        from math import comb

        t = self.guaranteed_correction()
        ball = sum(comb(self.n, w) for w in range(t + 1))
        return (1 << self.k) * ball == (1 << self.n)

    # ------------------------------------------------------------------
    def dual(self) -> "LinearBlockCode":
        """The dual code (generated by the parity-check matrix)."""
        return LinearBlockCode(self.parity_check, name=f"dual({self.name})")

    def __repr__(self) -> str:
        return f"<{self.name}: [n={self.n}, k={self.k}, d={self.minimum_distance}]>"

    def describe(self) -> Dict[str, object]:
        """Summary block used by reports."""
        return {
            "name": self.name,
            "n": self.n,
            "k": self.k,
            "rate": round(self.rate, 4),
            "dmin": self.minimum_distance,
            "guaranteed_detection": self.guaranteed_detection(),
            "guaranteed_correction": self.guaranteed_correction(),
            "perfect": self.is_perfect(),
            "covering_radius": self.covering_radius,
        }
