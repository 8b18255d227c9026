"""Interleaving and code concatenation: burst resilience by composition.

A lightweight code that corrects one flip per word is helpless against
a burst that lands several flips in the same word.  The classical fix
is to *compose* codes rather than grow them:

* **Interleaving** permutes the transmitted stream so that a burst of
  consecutive channel errors lands at most once per constituent
  codeword.  :class:`BlockInterleaver` and
  :class:`ConvolutionalInterleaver` are pure stream permutations;
  :class:`InterleavedCode` packages ``depth`` copies of a base code
  plus the permutation as a single
  :class:`~repro.coding.linear.LinearBlockCode` — interleaving is
  linear, so the composite has an ordinary generator matrix and every
  existing batch/soft kernel applies to it unchanged.
* **Concatenation** (:class:`ConcatenatedCode`) feeds an outer code's
  codeword through an inner code block by block, multiplying the
  minimum distances for a modest rate cost.

Both composites come with wrapper decoders
(:class:`InterleavedDecoder`, :class:`ConcatenatedDecoder`) that
decode through the constituent decoders — vectorised by reshaping the
batch, so a composite decode is a handful of base-kernel calls, never
a per-frame Python loop.  The registry exposes the composites as
``interleaved:<base>:<depth>`` / ``concatenated:<outer>:<inner>`` code
names and ``interleaved`` / ``concatenated`` decoder strategies (see
:mod:`repro.coding.registry`).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.coding.decoders import default_decoder_for
from repro.coding.decoders.base import BatchDecodeResult, Decoder, DecodeResult
from repro.coding.linear import LinearBlockCode
from repro.errors import DimensionError
from repro.gf2.vectors import read_only


class StreamInterleaver:
    """A fixed permutation of ``n`` stream positions.

    Subclasses only construct the reading order; this base class holds
    the permutation, its inverse, and the (de)interleaving kernels —
    column gathers (``take`` along axis 1) that work on any dtype, so
    the same interleaver reorders hard bits and float confidences alike.

    Parameters
    ----------
    permutation:
        Reading order: output position ``j`` carries input position
        ``permutation[j]``.  Must be a permutation of ``range(n)``.
    """

    def __init__(self, permutation: Sequence[int]):
        perm = np.array(permutation, dtype=np.int64)
        if perm.ndim != 1:
            raise DimensionError(f"permutation must be 1-D, got shape {perm.shape}")
        n = perm.shape[0]
        if n and (np.sort(perm) != np.arange(n)).any():
            raise ValueError("permutation must rearrange range(n) exactly once each")
        self._perm = read_only(perm)
        inverse = np.empty(n, dtype=np.int64)
        inverse[perm] = np.arange(n)
        self._inverse = read_only(inverse)

    @property
    def n(self) -> int:
        """Stream length the interleaver permutes."""
        return int(self._perm.shape[0])

    @property
    def permutation(self) -> np.ndarray:
        """Copy of the reading order (output j <- input ``perm[j]``)."""
        return self._perm.copy()

    def _check(self, frames: np.ndarray) -> np.ndarray:
        arr = np.asarray(frames)
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise DimensionError(
                f"expected (batch, {self.n}) frames, got {arr.shape}"
            )
        return arr

    def interleave(self, frames: np.ndarray) -> np.ndarray:
        """Permute each row of a ``(batch, n)`` array into channel order.

        Works on any dtype (hard ``uint8`` bits or float confidences);
        a batch of zero rows passes through as an empty array.
        """
        return self._check(frames).take(self._perm, axis=1)

    def deinterleave(self, frames: np.ndarray) -> np.ndarray:
        """Invert :meth:`interleave` row for row.

        ``deinterleave(interleave(x))`` is the identity for every batch
        shape — the property ``tests/test_interleave.py`` checks with
        hypothesis.
        """
        return self._check(frames).take(self._inverse, axis=1)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} n={self.n}>"


class BlockInterleaver(StreamInterleaver):
    """Row-write / column-read block interleaver.

    The stream is written row-major into ``depth`` rows of
    ``ceil(n / depth)`` columns (the last row may be ragged when
    ``depth`` does not divide ``n``) and read column-major, skipping
    the missing cells.  When ``depth`` divides ``n``, any ``depth``
    consecutive output positions come from ``depth`` *different* rows,
    so a channel burst of length <= ``depth`` touches each row — each
    constituent codeword, in the :class:`InterleavedCode` layout — at
    most once.  With a ragged last row the skipped cells shorten some
    columns, so a burst straddling a column boundary can touch one row
    twice; the full guarantee needs a divisible length (which
    :class:`InterleavedCode` always has).

    Parameters
    ----------
    n:
        Stream length.
    depth:
        Number of rows; ``depth=1`` is the identity permutation.
    """

    def __init__(self, n: int, depth: int):
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.depth = depth
        cols = math.ceil(n / depth) if n else 0
        grid = np.arange(depth * cols, dtype=np.int64).reshape(depth, cols)
        perm = grid.T.ravel()
        super().__init__(perm[perm < n])


class ConvolutionalInterleaver(StreamInterleaver):
    """Helical (diagonal-read) interleaver — the convolutional layout.

    Output position ``t`` reads row ``t mod depth`` at column
    ``(t // depth + (t mod depth) * shift) mod (n / depth)``: each row
    is delayed by ``shift`` more columns than the one above, the
    frame-aligned analogue of a Forney/Ramsey convolutional
    interleaver's staggered delay lines.  Unlike the block layout, two
    bursts a full column apart cannot hit the same pair of rows in the
    same positions, which spreads *repeated* bursts more evenly.

    Requires ``depth`` to divide ``n`` (the diagonal walk is only a
    permutation on a full rectangle); :class:`BlockInterleaver` handles
    ragged lengths.

    Parameters
    ----------
    n:
        Stream length; must be a multiple of ``depth``.
    depth:
        Number of rows (delay lines).
    shift:
        Extra column delay per row; defaults to 1.
    """

    def __init__(self, n: int, depth: int, shift: int = 1):
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if n % depth:
            raise ValueError(
                f"depth {depth} must divide the stream length {n} "
                "(use BlockInterleaver for ragged lengths)"
            )
        if shift < 0:
            raise ValueError(f"shift must be non-negative, got {shift}")
        self.depth = depth
        self.shift = shift
        cols = n // depth
        t = np.arange(n, dtype=np.int64)
        rows = t % depth
        if cols:
            col = (t // depth + rows * shift) % cols
        else:
            col = t // depth
        super().__init__(rows * cols + col)


class InterleavedCode(LinearBlockCode):
    """``depth`` copies of a base code, bit-interleaved into one word.

    The composite is itself linear: its generator is the block-diagonal
    stack of the base generator with the interleaver's permutation
    applied to the columns, so ``syndrome_batch`` and every decoder in
    the hierarchy work on it unchanged.  A codeword is the interleaved
    concatenation of ``depth`` base codewords; message bits are the
    concatenation of the ``depth`` base messages in order.  That is how
    ``encode_batch`` builds it: ``depth`` gathers from the base code's
    codeword table, then the permutation.

    Rate and minimum distance equal the base code's — what interleaving
    buys is not distance but *burst immunity*: a channel burst of
    length <= ``depth`` lands at most one flip in each constituent
    word, inside the base decoder's correction radius.

    Parameters
    ----------
    base_code:
        The constituent code, repeated ``depth`` times.
    depth:
        Number of constituent codewords per composite word.
    interleaver:
        Stream permutation over ``base_code.n * depth`` positions;
        defaults to a :class:`BlockInterleaver` of ``depth`` rows.
    """

    def __init__(
        self,
        base_code: LinearBlockCode,
        depth: int,
        interleaver: Optional[StreamInterleaver] = None,
    ):
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        n, k = base_code.n, base_code.k
        total_n = n * depth
        if interleaver is None:
            interleaver = BlockInterleaver(total_n, depth)
        if interleaver.n != total_n:
            raise DimensionError(
                f"interleaver permutes {interleaver.n} positions, "
                f"code stream has {total_n}"
            )
        perm = interleaver.permutation
        base_g = base_code.generator.to_array()
        stacked_g = np.zeros((k * depth, total_n), dtype=np.uint8)
        for r in range(depth):
            stacked_g[r * k : (r + 1) * k, r * n : (r + 1) * n] = base_g
        base_h = base_code.parity_check.to_array()
        stacked_h = np.zeros(((n - k) * depth, total_n), dtype=np.uint8)
        for r in range(depth):
            stacked_h[
                r * (n - k) : (r + 1) * (n - k), r * n : (r + 1) * n
            ] = base_h
        message_positions = None
        base_positions = base_code.message_positions
        if base_positions is not None:
            inverse = np.empty(total_n, dtype=np.int64)
            inverse[perm] = np.arange(total_n)
            message_positions = [
                int(inverse[r * n + p]) for r in range(depth) for p in base_positions
            ]
        super().__init__(
            stacked_g[:, perm],
            name=f"Interleaved({base_code.name}, depth={depth})",
            message_positions=message_positions,
            parity_check=stacked_h[:, perm],
        )
        self.base_code = base_code
        self.depth = depth
        self.interleaver = interleaver

    def _encode_rows(self, msgs: np.ndarray) -> np.ndarray:
        """``depth`` base encodes per row, then the interleaver permutation."""
        batch = msgs.shape[0]
        base = self.base_code.encode_batch(
            msgs.reshape(batch * self.depth, self.base_code.k)
        )
        return self.interleaver.interleave(base.reshape(batch, self.n))

    @property
    def minimum_distance(self) -> int:
        """The base code's minimum distance, inherited exactly.

        A composite word with one active constituent is a base
        codeword in permuted positions (weight >= base dmin, attained),
        and every nonzero composite word contains a nonzero constituent
        of at least that weight.  Overridden because the generic
        incremental search is infeasible at k·depth > 16, and a deep
        composite's distance is needed cheaply (e.g. the service's
        session ``describe()``).
        """
        return self.base_code.minimum_distance


class ConcatenatedCode(LinearBlockCode):
    """Serial concatenation: outer codewords re-encoded by an inner code.

    A message is encoded by the outer code, the outer codeword is split
    into blocks of ``inner.k`` bits, and each block is encoded by the
    inner code — so ``n = (outer.n / inner.k) * inner.n`` and
    ``k = outer.k``.  Both steps are linear, hence the composite has an
    ordinary generator (``G_outer · (I ⊗ G_inner)``) and plugs into the
    batch kernels directly; ``encode_batch`` runs the two steps through
    the constituents' codeword tables.  The minimum distance is at least
    ``outer.dmin``·``inner.dmin``-ish in the classical bound; for the
    short codes here the exact value is enumerated lazily as usual.

    Parameters
    ----------
    outer_code:
        The first (message-side) code.
    inner_code:
        The second (channel-side) code; ``inner_code.k`` must divide
        ``outer_code.n``.
    """

    def __init__(self, outer_code: LinearBlockCode, inner_code: LinearBlockCode):
        if outer_code.n % inner_code.k:
            raise DimensionError(
                f"inner k={inner_code.k} must divide outer n={outer_code.n} "
                "to concatenate"
            )
        blocks = outer_code.n // inner_code.k
        expand = np.kron(
            np.eye(blocks, dtype=np.uint8), inner_code.generator.to_array()
        )
        generator = (
            outer_code.generator.to_array().astype(np.uint32)
            @ expand.astype(np.uint32)
        ) % 2
        message_positions = None
        outer_positions = outer_code.message_positions
        inner_positions = inner_code.message_positions
        if outer_positions is not None and inner_positions is not None:
            message_positions = [
                (p // inner_code.k) * inner_code.n + inner_positions[p % inner_code.k]
                for p in outer_positions
            ]
        super().__init__(
            generator.astype(np.uint8),
            name=f"Concatenated({outer_code.name} ∘ {inner_code.name})",
            message_positions=message_positions,
        )
        self.outer_code = outer_code
        self.inner_code = inner_code
        self.blocks = blocks

    def _encode_rows(self, msgs: np.ndarray) -> np.ndarray:
        """The outer encode, then the inner encode of each block."""
        outer = self.outer_code.encode_batch(msgs)
        blocks = outer.reshape(len(msgs) * self.blocks, self.inner_code.k)
        return self.inner_code.encode_batch(blocks).reshape(len(msgs), self.n)


class InterleavedDecoder(Decoder):
    """Decode an :class:`InterleavedCode` through its base decoder.

    Deinterleaves the received stream, reshapes the batch so every
    constituent word becomes a row, runs the base decoder's vectorised
    kernel once, and reassembles — composite decoding costs one base
    batch call regardless of depth.  Flags and correction counts
    aggregate per composite word (any flagged constituent flags the
    word; corrections sum).

    Parameters
    ----------
    code:
        The interleaved composite to decode.
    base_decoder:
        Decoder for the constituent code; defaults to the paper's
        pairing via
        :func:`~repro.coding.decoders.default_decoder_for`.
    """

    strategy_name = "interleaved"

    def __init__(
        self, code: InterleavedCode, base_decoder: Optional[Decoder] = None
    ):
        if not isinstance(code, InterleavedCode):
            raise TypeError(
                f"InterleavedDecoder requires an InterleavedCode, got {code!r}"
            )
        super().__init__(code)
        self.base_decoder = (
            base_decoder
            if base_decoder is not None
            else default_decoder_for(code.base_code)
        )
        if not (self.base_decoder.code.generator == code.base_code.generator):
            raise ValueError("base_decoder was built for a different base code")

    def _split(self, deinterleaved: np.ndarray) -> np.ndarray:
        """``(batch, depth·n)`` stream rows -> ``(batch·depth, n)`` words."""
        code: InterleavedCode = self.code  # type: ignore[assignment]
        batch = deinterleaved.shape[0]
        return deinterleaved.reshape(batch * code.depth, code.base_code.n)

    def _join(self, result: BatchDecodeResult, batch: int) -> BatchDecodeResult:
        """Reassemble constituent results into composite-word results."""
        code: InterleavedCode = self.code  # type: ignore[assignment]
        depth, n, k = code.depth, code.base_code.n, code.base_code.k
        codewords = code.interleaver.interleave(
            result.codewords.reshape(batch, depth * n)
        )
        return BatchDecodeResult(
            messages=np.ascontiguousarray(result.messages.reshape(batch, depth * k)),
            codewords=codewords,
            corrected_errors=result.corrected_errors.reshape(batch, depth).sum(axis=1),
            detected_uncorrectable=result.detected_uncorrectable.reshape(
                batch, depth
            ).any(axis=1),
        )

    def decode(self, received: Sequence[int]) -> DecodeResult:
        """Decode one composite word (delegates to the one-row batch)."""
        word = self._check_received(received)
        return self.decode_batch_detailed(word[None, :])[0]

    def decode_batch_detailed(self, received: np.ndarray) -> BatchDecodeResult:
        """Deinterleave, base-decode all constituents, reassemble."""
        words = self._check_received_batch(received)
        code: InterleavedCode = self.code  # type: ignore[assignment]
        split = self._split(code.interleaver.deinterleave(words))
        return self._join(self.base_decoder.decode_batch_detailed(split), len(words))

    def decode_soft_batch_detailed(self, confidences: np.ndarray) -> BatchDecodeResult:
        """Soft path: same deinterleave/reshape over float confidences."""
        values = self._check_soft_batch(confidences)
        code: InterleavedCode = self.code  # type: ignore[assignment]
        split = self._split(code.interleaver.deinterleave(values))
        return self._join(
            self.base_decoder.decode_soft_batch_detailed(split), len(values)
        )

    def decode_soft_batch(self, confidences: np.ndarray) -> np.ndarray:
        """Message-only soft fast path through the base soft kernel."""
        values = self._check_soft_batch(confidences)
        code: InterleavedCode = self.code  # type: ignore[assignment]
        split = self._split(code.interleaver.deinterleave(values))
        messages = self.base_decoder.decode_soft_batch(split)
        return np.ascontiguousarray(
            messages.reshape(len(values), code.depth * code.base_code.k)
        )


class ConcatenatedDecoder(Decoder):
    """Two-stage decoding of a :class:`ConcatenatedCode`.

    Inner blocks decode first (one vectorised inner call over the
    reshaped batch); their message estimates reassemble the outer
    received word, which the outer decoder then corrects.  The
    committed codeword is the full re-encoding of the outer message
    estimate, ``corrected_errors`` counts where it differs from the
    received word, and the flag is the outer decoder's (inner flags
    are absorbed when the outer stage corrects the block).

    Parameters
    ----------
    code:
        The concatenated composite to decode.
    outer_decoder, inner_decoder:
        Stage decoders; default to the paper's pairing for each
        constituent code.
    """

    strategy_name = "concatenated"

    def __init__(
        self,
        code: ConcatenatedCode,
        outer_decoder: Optional[Decoder] = None,
        inner_decoder: Optional[Decoder] = None,
    ):
        if not isinstance(code, ConcatenatedCode):
            raise TypeError(
                f"ConcatenatedDecoder requires a ConcatenatedCode, got {code!r}"
            )
        super().__init__(code)
        self.outer_decoder = (
            outer_decoder
            if outer_decoder is not None
            else default_decoder_for(code.outer_code)
        )
        self.inner_decoder = (
            inner_decoder
            if inner_decoder is not None
            else default_decoder_for(code.inner_code)
        )

    def decode(self, received: Sequence[int]) -> DecodeResult:
        """Decode one composite word (delegates to the one-row batch)."""
        word = self._check_received(received)
        return self.decode_batch_detailed(word[None, :])[0]

    def _finish(
        self, outer: BatchDecodeResult, words: np.ndarray, batch: int
    ) -> BatchDecodeResult:
        codewords = self.code.encode_batch(outer.messages)
        return BatchDecodeResult(
            messages=outer.messages,
            codewords=codewords,
            corrected_errors=(codewords != words).sum(axis=1, dtype=np.int64),
            detected_uncorrectable=outer.detected_uncorrectable.copy(),
        )

    def decode_batch_detailed(self, received: np.ndarray) -> BatchDecodeResult:
        """Inner-decode every block, then outer-decode the reassembly."""
        words = self._check_received_batch(received)
        code: ConcatenatedCode = self.code  # type: ignore[assignment]
        batch = len(words)
        inner_words = words.reshape(batch * code.blocks, code.inner_code.n)
        inner_messages = self.inner_decoder.decode_batch(inner_words)
        outer_received = inner_messages.reshape(batch, code.outer_code.n)
        outer = self.outer_decoder.decode_batch_detailed(outer_received)
        return self._finish(outer, words, batch)

    def _soft_outer_received(self, values: np.ndarray) -> np.ndarray:
        """Soft-decode every inner block; reassemble the outer word."""
        code: ConcatenatedCode = self.code  # type: ignore[assignment]
        inner_values = values.reshape(len(values) * code.blocks, code.inner_code.n)
        inner_messages = self.inner_decoder.decode_soft_batch(inner_values)
        return inner_messages.reshape(len(values), code.outer_code.n)

    def decode_soft_batch_detailed(self, confidences: np.ndarray) -> BatchDecodeResult:
        """Soft inner stage, hard outer stage over its message estimates."""
        values = self._check_soft_batch(confidences)
        outer = self.outer_decoder.decode_batch_detailed(
            self._soft_outer_received(values)
        )
        hard = (values < 0).astype(np.uint8)
        return self._finish(outer, hard, len(values))

    def decode_soft_batch(self, confidences: np.ndarray) -> np.ndarray:
        """Message-only soft fast path through the same two-stage pipeline.

        Overridden so both soft entry points run the identical inner-
        soft / outer-hard pipeline — the base class's generic
        correlation fallback would score the *composite* codebook and
        disagree with :meth:`decode_soft_batch_detailed`.
        """
        values = self._check_soft_batch(confidences)
        return self.outer_decoder.decode_batch(self._soft_outer_received(values))
