"""Decoder interface and result record."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.backends import resolve_backend
from repro.coding.linear import TABLE_N_LIMIT, LinearBlockCode
from repro.errors import DimensionError, NotBinaryError
from repro.gf2.vectors import as_bit_array, read_only, row_values


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding one received word.

    Attributes
    ----------
    message:
        The decoder's best estimate of the k message bits.  Always
        populated — when the pattern is detected-uncorrectable the
        decoder applies its fallback policy (see each decoder's docs)
        rather than returning nothing, because the paper's Fig. 5 counts
        *erroneous messages*, which requires a message estimate.
    codeword:
        The codeword estimate aligned with ``message`` (``None`` when the
        decoder only re-extracted message bits without committing to a
        codeword).
    corrected_errors:
        Number of bit corrections the decoder applied.
    detected_uncorrectable:
        True when the decoder knows the word is in error but could not
        correct it — the paper's "error flag" output in Fig. 1.
    """

    message: np.ndarray
    codeword: Optional[np.ndarray]
    corrected_errors: int
    detected_uncorrectable: bool

    @property
    def error_flag(self) -> bool:
        """Fig. 1 'error flags' line: any detected anomaly."""
        return self.detected_uncorrectable or self.corrected_errors > 0


@dataclass(frozen=True)
class BatchDecodeResult:
    """Vectorised outcome of decoding a whole batch of received words.

    The batched counterpart of :class:`DecodeResult`: one array per
    field, aligned row-for-row with the input batch and bit-identical to
    running the scalar decoder word by word.

    Attributes
    ----------
    messages : numpy.ndarray
        ``(batch, k)`` message estimates (always populated — flagged
        rows hold the decoder's fallback estimate, matching the scalar
        policy).
    codewords : numpy.ndarray
        ``(batch, n)`` codeword estimates.  Rows whose scalar decode
        would return ``codeword=None`` (detected-uncorrectable with no
        commitment) hold the *received* word unchanged; check
        :attr:`detected_uncorrectable` before trusting a row.
    corrected_errors : numpy.ndarray
        ``(batch,)`` number of bit corrections applied per word.
    detected_uncorrectable : numpy.ndarray
        ``(batch,)`` boolean error flags (the paper's Fig. 1 "error
        flags" line, vectorised).
    """

    messages: np.ndarray
    codewords: np.ndarray
    corrected_errors: np.ndarray
    detected_uncorrectable: np.ndarray

    def __len__(self) -> int:
        return len(self.messages)

    @property
    def error_flags(self) -> np.ndarray:
        """Per-word Fig. 1 'error flags': any detected anomaly."""
        return self.detected_uncorrectable | (self.corrected_errors > 0)

    def __getitem__(self, index: int) -> DecodeResult:
        """Scalar view of row ``index`` as a :class:`DecodeResult`."""
        return DecodeResult(
            message=self.messages[index].copy(),
            codeword=self.codewords[index].copy(),
            corrected_errors=int(self.corrected_errors[index]),
            detected_uncorrectable=bool(self.detected_uncorrectable[index]),
        )


#: Largest code dimension the exhaustive correlation soft decoder will
#: enumerate (2^k codeword scores per word; the paper's codes have k=4).
SOFT_CODEBOOK_K_LIMIT = 16

#: Process-wide decode tables (see :meth:`Decoder._decode_table`).
_DECODE_TABLES: Dict[tuple, BatchDecodeResult] = {}


def _table_words(n: int) -> np.ndarray:
    """All 2^n received words, row ``i`` holding bit ``j`` of ``i`` at ``j``."""
    index = np.arange(1 << n)
    return ((index[:, None] >> np.arange(n)) & 1).astype(np.uint8)


class Decoder(ABC):
    """Base class for decoders of a specific code.

    Every decoder exposes two input domains:

    * **hard** — 0/1 received words (:meth:`decode`,
      :meth:`decode_batch`, :meth:`decode_batch_detailed`).  Subclasses
      implement the scalar :meth:`decode` only; batches gather from a
      table of its answers;
    * **soft** — real per-bit confidences in the BPSK convention
      (positive = "looks like 0", magnitude = reliability;
      :meth:`decode_soft`, :meth:`decode_soft_batch`,
      :meth:`decode_soft_batch_detailed`).

    The base soft implementation is exhaustive correlation decoding —
    score every codeword against the confidence vector and pick the
    maximum, which *is* maximum-likelihood on an AWGN-style channel —
    so every short code in the registry gets a working soft path for
    free.  Structured codes override it with a faster kernel (RM(1, m)
    uses the Hadamard spectrum, see
    :class:`~repro.coding.decoders.fht.FhtDecoder`).
    """

    #: Short identifier used in reports and the decoder-policy ablation.
    strategy_name: str = "abstract"

    def __init__(self, code: LinearBlockCode):
        self.code = code
        self._codebook_signs: Optional[np.ndarray] = None
        self._table: Optional[BatchDecodeResult] = None

    @abstractmethod
    def decode(self, received: Sequence[int]) -> DecodeResult:
        """Decode one received n-bit word."""

    def decode_batch(self, received: np.ndarray) -> np.ndarray:
        """Decode a batch of received words into message estimates.

        Parameters
        ----------
        received : numpy.ndarray
            ``(batch, n)`` array of 0/1 received bits.

        Returns
        -------
        numpy.ndarray
            ``(batch, k)`` ``uint8`` message estimates, row ``i``
            decoding ``received[i]``.  Use :meth:`decode_batch_detailed`
            when the error flags or correction counts are also needed.
        """
        return self.decode_batch_detailed(received).messages

    def decode_batch_detailed(self, received: np.ndarray) -> BatchDecodeResult:
        """Decode a batch keeping per-word flags and correction counts.

        For codes with ``n <= TABLE_N_LIMIT`` each row is gathered from
        a decode table: this decoder's scalar :meth:`decode` run once on
        every possible received word (:meth:`_decode_table`).  Longer
        codes loop over :meth:`decode`.  Either way every row is
        bit-identical to a scalar call by construction.

        Parameters
        ----------
        received : numpy.ndarray
            ``(batch, n)`` array of 0/1 received bits.

        Returns
        -------
        BatchDecodeResult
            Per-word messages, codeword estimates, correction counts and
            detected-uncorrectable flags, bit-identical to scalar
            :meth:`decode` calls.
        """
        words = self._check_received_batch(received)
        if self.code.n > TABLE_N_LIMIT:
            return self._decode_each(words)
        table = self._decode_table()
        index = row_values(words)
        return BatchDecodeResult(
            messages=table.messages.take(index, axis=0),
            codewords=table.codewords.take(index, axis=0),
            corrected_errors=table.corrected_errors.take(index),
            detected_uncorrectable=table.detected_uncorrectable.take(index),
        )

    def _decode_each(self, words: np.ndarray) -> BatchDecodeResult:
        """Scalar :meth:`decode` on each validated row, packed as a batch."""
        batch = words.shape[0]
        messages = np.empty((batch, self.code.k), dtype=np.uint8)
        codewords = np.empty((batch, self.code.n), dtype=np.uint8)
        corrected = np.zeros(batch, dtype=np.int64)
        flagged = np.zeros(batch, dtype=bool)
        for i, word in enumerate(words):
            result = self.decode(word)
            messages[i] = result.message
            codewords[i] = word if result.codeword is None else result.codeword
            corrected[i] = result.corrected_errors
            flagged[i] = result.detected_uncorrectable
        return BatchDecodeResult(
            messages=messages,
            codewords=codewords,
            corrected_errors=corrected,
            detected_uncorrectable=flagged,
        )

    def _table_params(self) -> tuple:
        """Constructor parameters :meth:`decode` reads besides the code."""
        return ()

    def _decode_table(self) -> BatchDecodeResult:
        """The 2^n-row decode table, row ``i`` decoding ``_table_words(n)[i]``.

        Built on first use and memoised process-wide under everything
        :meth:`decode` reads — decoder class and parameters, generator,
        parity check and message positions — so every session or
        decoder instance that would decode alike reuses one read-only
        table.
        """
        if self._table is None:
            code = self.code
            positions = code.message_positions
            key = (
                type(self),
                self._table_params(),
                code.generator,
                code.parity_check,
                None if positions is None else tuple(positions),
            )
            table = _DECODE_TABLES.get(key)
            if table is None:
                table = self._decode_each(_table_words(code.n))
                for array in vars(table).values():
                    read_only(array)
                _DECODE_TABLES[key] = table
            self._table = table
        return self._table

    # ------------------------------------------------------------------
    # Soft-decision interface
    # ------------------------------------------------------------------
    def decode_soft(self, confidences: Sequence[float]) -> DecodeResult:
        """Decode one n-vector of real confidences (BPSK convention).

        Delegates to :meth:`decode_soft_batch_detailed` on a one-row
        batch, so scalar and batched soft decoding are identical by
        construction (same kernel, same tie-break).
        """
        values = np.asarray(confidences, dtype=np.float64)
        if values.shape != (self.code.n,):
            raise ValueError(
                f"expected {self.code.n} confidences, got shape {values.shape}"
            )
        return self.decode_soft_batch_detailed(values[None, :])[0]

    def decode_soft_batch(self, confidences: np.ndarray) -> np.ndarray:
        """Soft-decode a ``(batch, n)`` confidence array into messages.

        Message-only fast path for hot loops (the soft-gain Monte-Carlo
        sweep): skips the codeword gather and correction count that
        :meth:`decode_soft_batch_detailed` adds, mirroring the hard
        :meth:`decode_batch` / detailed split.

        Parameters
        ----------
        confidences : numpy.ndarray
            ``(batch, n)`` real confidences; positive means "looks like
            0", magnitude is the reliability (LLR-like).

        Returns
        -------
        numpy.ndarray
            ``(batch, k)`` ``uint8`` message estimates.  Use
            :meth:`decode_soft_batch_detailed` when the error flags or
            correction counts are also needed.
        """
        values = self._check_soft_batch(confidences)
        best_index, _ = resolve_backend().correlation_decode(
            values, self._soft_codebook_signs()
        )
        return self.code.all_messages.take(best_index, axis=0)

    def decode_soft_batch_detailed(self, confidences: np.ndarray) -> BatchDecodeResult:
        """Vectorised correlation (soft-ML) decoding of a whole batch.

        Scores all 2^k codewords against every row — exact maximum
        likelihood for any memoryless symmetric soft channel — and
        breaks score ties deterministically by the smallest message
        index (ties also raise ``detected_uncorrectable``, mirroring
        the hard decoders' ambiguity flag).  The scores are
        :func:`~repro.backends.pairwise_scores`, so every batch size
        decodes a row alike.  Messages and codewords are gathered from
        the code's tables; ``corrected_errors`` counts where the chosen
        codeword differs from the sign-sliced input, aligning soft
        telemetry with the hard path's.

        Parameters
        ----------
        confidences : numpy.ndarray
            ``(batch, n)`` real confidence array.

        Returns
        -------
        BatchDecodeResult
            Row-aligned messages, codeword commitments, correction
            counts and tie flags.
        """
        values = self._check_soft_batch(confidences)
        best_index, ties = resolve_backend().correlation_decode(
            values, self._soft_codebook_signs()
        )
        return self._soft_result(values, best_index, ties)

    def _soft_result(
        self, values: np.ndarray, index: np.ndarray, ties: np.ndarray
    ) -> BatchDecodeResult:
        """Rows ``index`` of the message and codeword tables as a batch result.

        ``corrected_errors`` counts where each committed codeword
        differs from the sign-sliced confidences ``values``.
        """
        codewords = self.code.all_codewords.take(index, axis=0)
        return BatchDecodeResult(
            messages=self.code.all_messages.take(index, axis=0),
            codewords=codewords,
            corrected_errors=(codewords != (values < 0)).sum(axis=1, dtype=np.int64),
            detected_uncorrectable=ties,
        )

    def _soft_codebook_signs(self) -> np.ndarray:
        """±1 rows of the codebook (``+1`` encodes bit 0), cached."""
        if self._codebook_signs is None:
            if self.code.k > SOFT_CODEBOOK_K_LIMIT:
                raise NotImplementedError(
                    f"correlation soft decoding enumerates 2^k codewords; "
                    f"k={self.code.k} exceeds the limit of "
                    f"{SOFT_CODEBOOK_K_LIMIT} — override decode_soft_batch_detailed"
                )
            self._codebook_signs = read_only(
                1.0 - 2.0 * self.code.all_codewords.astype(np.float64)
            )
        return self._codebook_signs

    def _check_soft_batch(self, confidences: np.ndarray) -> np.ndarray:
        values = np.asarray(confidences, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != self.code.n:
            raise ValueError(
                f"expected (batch, {self.code.n}) confidences, got {values.shape}"
            )
        return values

    def _check_received(self, received: Sequence[int]) -> np.ndarray:
        return as_bit_array(received, length=self.code.n)

    def _fallback_message(self, word: np.ndarray) -> np.ndarray:
        """Best message estimate for a detected-uncorrectable word.

        Reads the message bits verbatim when the code carries them at
        known positions; otherwise trusts the received word (solving
        against G when it happens to be a codeword, zeros when not).
        """
        positions = self.code.message_positions
        if positions is not None:
            return word[positions].copy()
        try:
            return self.code.extract_message(word)
        except Exception:
            return np.zeros(self.code.k, dtype=np.uint8)

    def _check_received_batch(self, received: np.ndarray) -> np.ndarray:
        words = np.asarray(received, dtype=np.uint8)
        if words.ndim != 2 or words.shape[1] != self.code.n:
            raise DimensionError(
                f"expected (batch, {self.code.n}) received words, got {words.shape}"
            )
        if words.size and words.max() > 1:
            raise NotBinaryError("received words contain values other than 0 and 1")
        return words

    def __repr__(self) -> str:
        return f"<{type(self).__name__} for {self.code.name}>"
