"""Coding-theory layer: the lightweight codes of the paper.

Public surface:

* code constructors — :func:`~repro.coding.hamming.hamming74_paper`,
  :func:`~repro.coding.hamming.hamming84_paper`,
  :func:`~repro.coding.reed_muller.rm13_paper`, plus the generic
  Hamming / Reed-Muller / BCH families for ablations;
* :class:`~repro.coding.linear.LinearBlockCode` — the common machinery;
* decoders in :mod:`repro.coding.decoders`;
* the exhaustive Table-I analysis in :mod:`repro.coding.analysis`;
* the name registry in :mod:`repro.coding.registry`;
* burst-resilience composition — interleavers and interleaved /
  concatenated codes — in :mod:`repro.coding.interleave`;
* online sliding-window decoding of convolutionally-interleaved frame
  streams in :mod:`repro.coding.stream`.
"""

from repro.coding.linear import LinearBlockCode
from repro.coding.interleave import (
    BlockInterleaver,
    ConcatenatedCode,
    ConcatenatedDecoder,
    ConvolutionalInterleaver,
    InterleavedCode,
    InterleavedDecoder,
    StreamInterleaver,
)
from repro.coding.stream import (
    SlidingWindowDecoder,
    StreamDecisions,
    deinterleave_stream,
    interleave_stream,
    stream_span,
)
from repro.coding.hamming import (
    hamming74_paper,
    hamming84_paper,
    hamming_code,
    extend_with_overall_parity,
)
from repro.coding.reed_muller import reed_muller, rm13_paper, plotkin_combine
from repro.coding.bch import bch_code, bch_15_7, bch_15_11
from repro.coding.repetition import repetition_code, bitwise_repetition_code
from repro.coding.parity import parity_check_code
from repro.coding.registry import (
    available_codes,
    available_decoders,
    canonical_code_name,
    get_code,
    get_codec,
    get_decoder,
    PAPER_SCHEMES,
    DISPLAY_NAMES,
)

__all__ = [
    "LinearBlockCode",
    "StreamInterleaver",
    "BlockInterleaver",
    "ConvolutionalInterleaver",
    "InterleavedCode",
    "InterleavedDecoder",
    "ConcatenatedCode",
    "ConcatenatedDecoder",
    "SlidingWindowDecoder",
    "StreamDecisions",
    "interleave_stream",
    "deinterleave_stream",
    "stream_span",
    "hamming74_paper",
    "hamming84_paper",
    "hamming_code",
    "extend_with_overall_parity",
    "reed_muller",
    "rm13_paper",
    "plotkin_combine",
    "bch_code",
    "bch_15_7",
    "bch_15_11",
    "repetition_code",
    "bitwise_repetition_code",
    "parity_check_code",
    "available_codes",
    "available_decoders",
    "canonical_code_name",
    "get_code",
    "get_codec",
    "get_decoder",
    "PAPER_SCHEMES",
    "DISPLAY_NAMES",
]
