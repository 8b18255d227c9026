"""Scrubbed-vs-unscrubbed memory retention on the Monte-Carlo engine.

A superconducting memory protected by one of the paper's lightweight
encoders rots: shift-register storage loses bits to flux escape at some
per-bit rate per retention interval.  A scrubber that periodically
decodes and rewrites each line bounds how much rot a line can
accumulate between repairs; without it, single-bit hits pile up until
they cross the code's correction radius and the line is lost.

For every (code, rot-rate) point two paired populations run through
:class:`~repro.runtime.engine.MonteCarloEngine`: both write the same
random messages into a :class:`~repro.memory.frontend.MemoryEccFrontend`
and suffer *identical* rot draws sweep after sweep (same seed plan,
and scrubbing consumes no randomness), but only one arm runs a full
:class:`~repro.memory.scrub.Scrubber` sweep after each rot interval.
The per-chip statistic is the count of lines whose final read delivers
the wrong message — word errors — so the merged counts divide straight
into retention word-error rates and the scrubbed/unscrubbed gap is the
scrubbing gain.

Both populations are ordinary engine specs: sharded, multiprocessed
bit-identically with ``--jobs``, content-addressed in the result cache
and resumable, exactly like Fig. 5 and the soft-gain sweep (see
:func:`repro.runtime.worker.register_shard_runner`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.coding.registry import DISPLAY_NAMES, get_codec
from repro.memory.frontend import MemoryEccFrontend
from repro.memory.scrub import Scrubber
from repro.runtime import MonteCarloEngine, register_shard_runner
from repro.runtime.spec import Shard, spec_config_hash
from repro.utils.rng import SeedPlan

#: Maintenance policies compared per (code, rot) point.
POLICIES = ("unscrubbed", "scrubbed")

#: Registry codes with a correction radius to spend on rot.
DEFAULT_CODES = ("rm13", "hamming74", "hamming84")

#: Per-bit rot probabilities per retention interval, spanning "a scrub
#: sweep fixes everything" up to "multi-bit hits within one interval".
DEFAULT_ROTS = (0.001, 0.003, 0.01, 0.03)


@dataclass(frozen=True)
class RetentionSpec:
    """One (code, rot, policy) population, fully pinned down."""

    #: Workload kind dispatched by :func:`repro.runtime.worker.run_shard`.
    kind = "retention"

    code: str
    policy: str              # "unscrubbed" | "scrubbed"
    rot: float               # per-bit flip probability per sweep interval
    lines: int               # memory lines per chip
    sweeps: int              # rot intervals between write and final read
    n_chips: int
    seed_plan: SeedPlan
    decoder_strategy: Optional[str] = None
    #: Display name for progress reporting; not part of the cache identity.
    label: Optional[str] = None

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {self.policy!r}"
            )
        if not 0.0 <= self.rot <= 1.0:
            raise ValueError(f"rot must be in [0, 1], got {self.rot}")
        if self.lines < 1:
            raise ValueError(f"lines must be positive, got {self.lines}")
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be positive, got {self.sweeps}")
        if self.n_chips < 0:
            raise ValueError(f"n_chips must be non-negative, got {self.n_chips}")

    @property
    def display_label(self) -> str:
        return self.label or f"{self.code} {self.policy} rot={self.rot:g}"

    def to_dict(self) -> dict:
        """Canonical (JSON-stable) description — the cache identity."""
        return {
            "kind": self.kind,
            "code": self.code,
            "policy": self.policy,
            "rot": self.rot,
            "lines": self.lines,
            "sweeps": self.sweeps,
            "n_chips": self.n_chips,
            "seed_plan": self.seed_plan.to_dict(),
            "decoder_strategy": self.decoder_strategy,
        }

    def config_hash(self) -> str:
        return spec_config_hash(self)


def _run_retention_shard(spec: RetentionSpec, shard: Shard) -> np.ndarray:
    """Per-chip word errors (wrong final reads) for one maintenance arm.

    Chip ``i`` always consumes seed-plan child ``i``, and the message
    and rot draws happen identically in both arms (scrubbing itself is
    deterministic and draws nothing) — so the scrubbed and unscrubbed
    arms of the same (code, rot, seed) suffer the same flux hits, bit
    for bit.
    """
    code, decoder = get_codec(spec.code, spec.decoder_strategy)
    counts = np.empty(shard.n_chips, dtype=np.int64)
    for offset, rng in enumerate(spec.seed_plan.generators(shard.start, shard.stop)):
        frontend = MemoryEccFrontend(code, decoder, spec.lines)
        addresses = np.arange(spec.lines, dtype=np.int64)
        messages = rng.integers(0, 2, size=(spec.lines, code.k)).astype(np.uint8)
        frontend.write(addresses, messages)
        scrubber = Scrubber(frontend) if spec.policy == "scrubbed" else None
        for _ in range(spec.sweeps):
            frontend.inject_rot(rng, spec.rot)
            if scrubber is not None:
                scrubber.sweep()
        delivered = frontend.read(addresses)
        counts[offset] = int(
            (delivered.messages != messages).any(axis=1).sum()
        )
    return counts


register_shard_runner(RetentionSpec.kind, _run_retention_shard)


# ---------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class RetentionConfig:
    """Parameters of the scrubbed-vs-unscrubbed retention sweep."""

    codes: Sequence[str] = DEFAULT_CODES
    rots: Sequence[float] = DEFAULT_ROTS
    lines: int = 64
    sweeps: int = 16
    n_chips: int = 200
    decoder_strategy: Optional[str] = None
    seed: int = 20250831

    def __post_init__(self):
        if self.n_chips < 1:
            raise ValueError("n_chips must be positive")
        if self.lines < 1 or self.sweeps < 1:
            raise ValueError("lines and sweeps must be positive")
        if not self.codes or not self.rots:
            raise ValueError("codes and rots must be non-empty")


@dataclass(frozen=True)
class RetentionPoint:
    """One (code, rot) comparison point of the sweep."""

    code: str
    rot: float
    unscrubbed_word_errors: int
    scrubbed_word_errors: int
    total_words: int

    @property
    def unscrubbed_wer(self) -> float:
        return (
            self.unscrubbed_word_errors / self.total_words
            if self.total_words
            else 0.0
        )

    @property
    def scrubbed_wer(self) -> float:
        return (
            self.scrubbed_word_errors / self.total_words
            if self.total_words
            else 0.0
        )

    @property
    def scrub_at_or_below_unscrubbed(self) -> bool:
        """The acceptance property: scrubbing never loses to neglect."""
        return self.scrubbed_word_errors <= self.unscrubbed_word_errors


@dataclass
class RetentionResult:
    """All sweep points, grouped per code in rot order."""

    config: RetentionConfig
    points: List[RetentionPoint]

    def by_code(self) -> Dict[str, List[RetentionPoint]]:
        grouped: Dict[str, List[RetentionPoint]] = {}
        for point in self.points:
            grouped.setdefault(point.code, []).append(point)
        return grouped

    def scrub_never_worse(self, code: str) -> bool:
        """True iff scrubbed WER <= unscrubbed WER at every rot for ``code``."""
        return all(
            p.scrub_at_or_below_unscrubbed for p in self.points if p.code == code
        )


def specs(config: RetentionConfig) -> List[Tuple[RetentionSpec, RetentionSpec]]:
    """(unscrubbed, scrubbed) spec pairs, one seed-plan child per point.

    The two arms of a pair share one :class:`SeedPlan`, which is what
    makes the comparison paired (scrubbing draws nothing, so both arms
    replay identical rot); each (code, rot) point gets its own child of
    ``config.seed`` so adding rots or codes never moves existing points
    onto different draws.
    """
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(len(config.codes) * len(config.rots))
    pairs = []
    index = 0
    for code in config.codes:
        for rot in config.rots:
            plan = SeedPlan.from_random_state(children[index])
            index += 1
            unscrubbed, scrubbed = (
                RetentionSpec(
                    code=code,
                    policy=policy,
                    rot=float(rot),
                    lines=config.lines,
                    sweeps=config.sweeps,
                    n_chips=config.n_chips,
                    seed_plan=plan,
                    decoder_strategy=config.decoder_strategy,
                    label=f"{code}:{policy}@{rot:g}",
                )
                for policy in POLICIES
            )
            pairs.append((unscrubbed, scrubbed))
    return pairs


def run(
    config: Optional[RetentionConfig] = None,
    engine: Optional[MonteCarloEngine] = None,
) -> RetentionResult:
    """Run the full retention sweep (all codes x rot rates, both arms)."""
    config = config or RetentionConfig()
    engine = engine or MonteCarloEngine()
    pairs = specs(config)
    flat = [spec for pair in pairs for spec in pair]
    outcomes = engine.run_many(flat)
    points = []
    for pair_index, (unscrubbed_spec, _) in enumerate(pairs):
        unscrubbed_counts = outcomes[2 * pair_index].counts
        scrubbed_counts = outcomes[2 * pair_index + 1].counts
        points.append(
            RetentionPoint(
                code=unscrubbed_spec.code,
                rot=unscrubbed_spec.rot,
                unscrubbed_word_errors=int(unscrubbed_counts.sum()),
                scrubbed_word_errors=int(scrubbed_counts.sum()),
                total_words=config.n_chips * config.lines,
            )
        )
    return RetentionResult(config=config, points=points)


def render(result: RetentionResult) -> str:
    """Printable scrubbed-vs-unscrubbed WER table, one block per code."""
    config = result.config
    lines = [
        "Memory retention word-error rate, scrubbed vs unscrubbed "
        f"({config.n_chips} chips x {config.lines} lines, "
        f"{config.sweeps} rot sweeps per point, paired rot draws)",
    ]
    for code, points in result.by_code().items():
        display = DISPLAY_NAMES.get(code, code)
        lines.append("")
        lines.append(f"{display}")
        header = (
            f"  {'rot':>8} {'unscrubbed':>12} {'scrubbed':>12} {'gain':>7}"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for p in points:
            gain = (
                f"{p.unscrubbed_wer / p.scrubbed_wer:6.1f}x"
                if p.scrubbed_wer
                else ("   inf " if p.unscrubbed_wer else "   1.0x")
            )
            lines.append(
                f"  {p.rot:>8.4f} {p.unscrubbed_wer:>12.2e} "
                f"{p.scrubbed_wer:>12.2e} {gain:>7}"
            )
        verdict = (
            "never worse" if result.scrub_never_worse(code) else "WORSE SOMEWHERE"
        )
        lines.append(f"  scrubbed vs unscrubbed: {verdict}")
    return "\n".join(lines)


def curves_csv(result: RetentionResult) -> str:
    """The sweep as CSV (one row per code x rot)."""
    rows = [
        "code,rot,unscrubbed_wer,scrubbed_wer,"
        "unscrubbed_word_errors,scrubbed_word_errors,total_words"
    ]
    for p in result.points:
        rows.append(
            f"{p.code},{p.rot:g},{p.unscrubbed_wer:.6e},{p.scrubbed_wer:.6e},"
            f"{p.unscrubbed_word_errors},{p.scrubbed_word_errors},{p.total_words}"
        )
    return "\n".join(rows) + "\n"
