"""Name-based factory for the codes and decoders used in experiments.

The CLI and the experiment configs refer to coding schemes by the short
names used throughout the paper: ``hamming74``, ``hamming84``, ``rm13``
and ``none`` (the unencoded 4-bit baseline).

Composite codes compose registry codes by name:

* ``interleaved:<base>:<depth>`` — ``depth`` copies of ``<base>``
  block-interleaved into one word
  (:class:`~repro.coding.interleave.InterleavedCode`), e.g.
  ``interleaved:hamming74:8``;
* ``concatenated:<outer>:<inner>`` — serial concatenation
  (:class:`~repro.coding.interleave.ConcatenatedCode`), e.g.
  ``concatenated:hamming84:hamming74``.

Anywhere a code name is accepted — experiment configs, service session
configs, the CLI — a composite name works too.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.coding.decoders import (
    Decoder,
    ExtendedHammingDecoder,
    FhtDecoder,
    MaximumLikelihoodDecoder,
    ReedDecoder,
    SoftFhtDecoder,
    SyndromeDecoder,
    default_decoder_for,
)
from repro.coding.hamming import hamming74_paper, hamming84_paper
from repro.coding.interleave import (
    ConcatenatedCode,
    ConcatenatedDecoder,
    InterleavedCode,
    InterleavedDecoder,
)
from repro.coding.linear import LinearBlockCode
from repro.coding.reed_muller import rm13_paper

_CODE_FACTORIES: Dict[str, Callable[[], LinearBlockCode]] = {
    "hamming74": hamming74_paper,
    "hamming84": hamming84_paper,
    "rm13": rm13_paper,
}

#: Scheme names in the order the paper's Fig. 5 legend lists them.
PAPER_SCHEMES: List[str] = ["rm13", "hamming74", "hamming84", "none"]

#: Pretty names matching the paper's figures and tables.
DISPLAY_NAMES: Dict[str, str] = {
    "rm13": "RM(1,3)",
    "hamming74": "Hamming(7,4)",
    "hamming84": "Hamming(8,4)",
    "none": "No encoder",
}

_DECODER_FACTORIES: Dict[str, Callable[[LinearBlockCode], Decoder]] = {
    "syndrome": SyndromeDecoder,
    "sec-ded": ExtendedHammingDecoder,
    "fht": FhtDecoder,
    "soft-fht": SoftFhtDecoder,
    "reed-majority": ReedDecoder,
    "ml": MaximumLikelihoodDecoder,
    "interleaved": InterleavedDecoder,
    "concatenated": ConcatenatedDecoder,
}


def available_codes() -> List[str]:
    """Base code names accepted by :func:`get_code`.

    Composite spellings (``interleaved:<base>:<depth>``,
    ``concatenated:<outer>:<inner>``) are accepted on top of these.
    """
    return sorted(_CODE_FACTORIES)


#: Largest interleaving depth buildable *by name*.  Name-based
#: construction is the untrusted surface (service session configs come
#: from clients), and composite generator matrices grow superlinearly
#: with depth; direct InterleavedCode construction stays uncapped.
MAX_INTERLEAVE_DEPTH = 64

_ALIASES: Dict[str, str] = {
    "extendedhamming84": "hamming84",
    "reedmuller13": "rm13",
}

#: Process-wide codes keyed by canonical code name (see :func:`get_code`).
_CODES: Dict[str, LinearBlockCode] = {}

#: Process-wide (code, decoder) pairs keyed by canonical code name and
#: lower-cased decoder strategy (see :func:`get_codec`).
_CODECS: Dict[Tuple[str, Optional[str]], Tuple[LinearBlockCode, Decoder]] = {}


def canonical_code_name(name: str) -> str:
    """The registry's one spelling of a code name (no code is built).

    Aliases and punctuation fold away (``Hamming(8,4)``,
    ``hamming-84`` -> ``hamming84``), and composite names are rebuilt
    from their canonical parts (``interleaved:Hamming84:08`` ->
    ``interleaved:hamming84:8``).  Unknown or malformed names raise
    ``KeyError``.
    """
    if ":" in name:
        parts = name.split(":")
        kind = parts[0].strip().lower()
        if kind == "interleaved":
            if len(parts) != 3:
                raise KeyError(
                    f"interleaved code name must be 'interleaved:<base>:<depth>', "
                    f"got {name!r}"
                )
            base = canonical_code_name(parts[1])
            try:
                depth = int(parts[2])
            except ValueError:
                raise KeyError(
                    f"interleaving depth must be an integer, got {parts[2]!r}"
                )
            if not 1 <= depth <= MAX_INTERLEAVE_DEPTH:
                raise KeyError(
                    f"interleaving depth must lie in [1, {MAX_INTERLEAVE_DEPTH}], "
                    f"got {depth}"
                )
            return f"interleaved:{base}:{depth}"
        if kind == "concatenated":
            if len(parts) != 3:
                raise KeyError(
                    f"concatenated code name must be 'concatenated:<outer>:<inner>', "
                    f"got {name!r}"
                )
            outer, inner = (canonical_code_name(part) for part in parts[1:])
            return f"concatenated:{outer}:{inner}"
        raise KeyError(
            f"unknown composite code kind {kind!r} in {name!r}; "
            "expected 'interleaved:<base>:<depth>' or 'concatenated:<outer>:<inner>'"
        )
    key = name.lower()
    for char in "-_(),":
        key = key.replace(char, "")
    key = _ALIASES.get(key, key)
    if key not in _CODE_FACTORIES:
        raise KeyError(f"unknown code {name!r}; available: {available_codes()}")
    return key


def _build_code(name: str) -> LinearBlockCode:
    """A fresh code for a canonical name; composite parts are shared."""
    kind, _, args = name.partition(":")
    if kind == "interleaved":
        base, depth = args.split(":")
        return InterleavedCode(get_code(base), int(depth))
    if kind == "concatenated":
        outer, inner = args.split(":")
        return ConcatenatedCode(get_code(outer), get_code(inner))
    return _CODE_FACTORIES[name]()


def get_code(name: str) -> LinearBlockCode:
    """The shared code for a short name (``hamming74``/``hamming84``/``rm13``).

    Composite names compose registry codes (see the module docstring):
    ``interleaved:<base>:<depth>`` builds an
    :class:`~repro.coding.interleave.InterleavedCode` and
    ``concatenated:<outer>:<inner>`` a
    :class:`~repro.coding.interleave.ConcatenatedCode`.  Built on first
    use and memoised under :func:`canonical_code_name`, so every caller
    naming the code — in whatever spelling — shares one instance with
    read-only arrays.  For a separate instance, call the code's factory
    (``hamming84_paper()``).
    """
    name = canonical_code_name(name)
    code = _CODES.get(name)
    if code is None:
        code = _CODES[name] = _build_code(name)
    return code


def get_codec(
    name: str, strategy: Optional[str] = None
) -> Tuple[LinearBlockCode, Decoder]:
    """The process's one (code, decoder) pair for a code name.

    The decoder :func:`get_decoder` builds over :func:`get_code`'s
    shared code, memoised under the canonical code name and the
    lower-cased strategy; a composite's own strategy (``interleaved``,
    ``concatenated``) is its default and shares that entry.  Decoders
    hold no per-caller state and their arrays are read-only; a build
    that raises caches nothing under its key.
    """
    name = canonical_code_name(name)
    strategy = None if strategy is None else strategy.lower()
    if strategy == name.partition(":")[0]:
        strategy = None
    key = (name, strategy)
    pair = _CODECS.get(key)
    if pair is None:
        code = get_code(name)
        pair = _CODECS[key] = (code, get_decoder(code, strategy))
    return pair


def available_decoders() -> List[str]:
    """Names accepted by :func:`get_decoder`."""
    return sorted(_DECODER_FACTORIES)


def get_decoder(code: LinearBlockCode, strategy: Optional[str] = None) -> Decoder:
    """Build a decoder for ``code``.

    ``strategy=None`` picks the paper's pairing via
    :func:`~repro.coding.decoders.default_decoder_for`.
    """
    if strategy is None:
        return default_decoder_for(code)
    key = strategy.lower()
    if key not in _DECODER_FACTORIES:
        raise KeyError(
            f"unknown decoder {strategy!r}; available: {available_decoders()}"
        )
    return _DECODER_FACTORIES[key](code)
