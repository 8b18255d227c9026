"""Golden-vector regression corpus for the decode kernels.

``tests/data/golden_vectors.json`` holds (code, decoder, noisy word,
expected message/flags) vectors — hard and soft — generated once with a
pinned seed.  The tests replay the corpus through today's kernels, so a
future refactor of any decode path cannot silently change a single
decode decision: behaviour drift fails here even if the new behaviour
is self-consistent.

Regenerate (only when a behaviour change is *intended*) with::

    PYTHONPATH=src python tests/test_golden_vectors.py --regenerate

and commit the refreshed JSON together with the kernel change.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.coding import get_code, get_decoder

CORPUS_PATH = Path(__file__).parent / "data" / "golden_vectors.json"

#: Pinned corpus identity: bump the seed only with an intended regeneration.
CORPUS_SEED = 20260730
VECTORS_PER_PAIR = 8
SOFT_SIGMA = 0.4

CODE_DECODER_PAIRS = [
    ("hamming74", "syndrome"),
    ("hamming74", "ml"),
    ("hamming84", "sec-ded"),
    ("hamming84", "syndrome"),
    ("rm13", "fht"),
    ("rm13", "soft-fht"),
    ("rm13", "reed-majority"),
]


def _bits(text: str) -> np.ndarray:
    return np.array([int(c) for c in text], dtype=np.uint8)


def _text(bits) -> str:
    return "".join(str(int(b)) for b in bits)


def generate_corpus() -> dict:
    """Build the corpus deterministically from the pinned seed."""
    rng = np.random.default_rng(CORPUS_SEED)
    hard_entries = []
    soft_entries = []
    for name, strategy in CODE_DECODER_PAIRS:
        code = get_code(name)
        decoder = get_decoder(code, strategy)
        for i in range(VECTORS_PER_PAIR):
            message = rng.integers(0, 2, code.k).astype(np.uint8)
            codeword = code.encode(message)
            weight = i % 3  # cycle clean / single / double errors
            word = codeword.copy()
            if weight:
                positions = rng.choice(code.n, size=weight, replace=False)
                word[positions] ^= 1
            result = decoder.decode(word)
            hard_entries.append(
                {
                    "code": name,
                    "decoder": strategy,
                    "sent": _text(message),
                    "codeword": _text(codeword),
                    "word": _text(word),
                    "message": _text(result.message),
                    "corrected": int(result.corrected_errors),
                    "detected": bool(result.detected_uncorrectable),
                }
            )
            # Soft vector: noisy confidences, rounded so the JSON text
            # *is* the exact float64 input the replay decodes.
            confidences = 1.0 - 2.0 * codeword.astype(np.float64)
            confidences += rng.normal(0.0, SOFT_SIGMA, confidences.shape)
            confidences = np.round(confidences, 6)
            soft = decoder.decode_soft(confidences)
            soft_entries.append(
                {
                    "code": name,
                    "decoder": strategy,
                    "sent": _text(message),
                    "confidences": [float(c) for c in confidences],
                    "message": _text(soft.message),
                    "corrected": int(soft.corrected_errors),
                    "detected": bool(soft.detected_uncorrectable),
                }
            )
    return {
        "seed": CORPUS_SEED,
        "soft_sigma": SOFT_SIGMA,
        "hard": hard_entries,
        "soft": soft_entries,
    }


def _load_corpus() -> dict:
    with open(CORPUS_PATH) as handle:
        return json.load(handle)


class TestGoldenVectors:
    def test_corpus_exists_and_is_pinned(self):
        corpus = _load_corpus()
        assert corpus["seed"] == CORPUS_SEED
        assert len(corpus["hard"]) == len(CODE_DECODER_PAIRS) * VECTORS_PER_PAIR
        assert len(corpus["soft"]) == len(CODE_DECODER_PAIRS) * VECTORS_PER_PAIR

    def test_hard_vectors_replay_bit_identically(self):
        for entry in _load_corpus()["hard"]:
            decoder = get_decoder(get_code(entry["code"]), entry["decoder"])
            result = decoder.decode(_bits(entry["word"]))
            context = f"{entry['code']}/{entry['decoder']} word {entry['word']}"
            assert _text(result.message) == entry["message"], context
            assert result.corrected_errors == entry["corrected"], context
            assert result.detected_uncorrectable == entry["detected"], context

    def test_hard_vectors_replay_through_batch_kernel(self):
        corpus = _load_corpus()["hard"]
        for (name, strategy) in {(e["code"], e["decoder"]) for e in corpus}:
            entries = [
                e for e in corpus if (e["code"], e["decoder"]) == (name, strategy)
            ]
            decoder = get_decoder(get_code(name), strategy)
            words = np.array([_bits(e["word"]) for e in entries], dtype=np.uint8)
            batch = decoder.decode_batch_detailed(words)
            for i, entry in enumerate(entries):
                assert _text(batch.messages[i]) == entry["message"]
                assert int(batch.corrected_errors[i]) == entry["corrected"]
                assert bool(batch.detected_uncorrectable[i]) == entry["detected"]

    def test_soft_vectors_replay_bit_identically(self):
        corpus = _load_corpus()["soft"]
        for entry in corpus:
            decoder = get_decoder(get_code(entry["code"]), entry["decoder"])
            confidences = np.array(entry["confidences"], dtype=np.float64)
            result = decoder.decode_soft(confidences)
            context = f"{entry['code']}/{entry['decoder']} soft vector"
            assert _text(result.message) == entry["message"], context
            assert result.corrected_errors == entry["corrected"], context
            assert result.detected_uncorrectable == entry["detected"], context

    def test_soft_vectors_replay_through_batch_kernel(self):
        corpus = _load_corpus()["soft"]
        for (name, strategy) in {(e["code"], e["decoder"]) for e in corpus}:
            entries = [
                e for e in corpus if (e["code"], e["decoder"]) == (name, strategy)
            ]
            decoder = get_decoder(get_code(name), strategy)
            confidences = np.array(
                [e["confidences"] for e in entries], dtype=np.float64
            )
            batch = decoder.decode_soft_batch_detailed(confidences)
            for i, entry in enumerate(entries):
                assert _text(batch.messages[i]) == entry["message"]
                assert int(batch.corrected_errors[i]) == entry["corrected"]
                assert bool(batch.detected_uncorrectable[i]) == entry["detected"]

    def test_corpus_matches_fresh_generation(self):
        """The pinned seed still reproduces the checked-in corpus exactly.

        This distinguishes "a kernel changed behaviour" (replay tests
        fail) from "someone edited the JSON by hand" (this fails).
        """
        assert generate_corpus() == _load_corpus()


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="golden-vector corpus tool")
    parser.add_argument(
        "--regenerate", action="store_true", help="rewrite the corpus JSON"
    )
    args = parser.parse_args()
    if not args.regenerate:
        parser.error("nothing to do; pass --regenerate to rewrite the corpus")
    CORPUS_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(CORPUS_PATH, "w") as handle:
        json.dump(generate_corpus(), handle, indent=1)
        handle.write("\n")
    print(f"wrote {CORPUS_PATH}")
