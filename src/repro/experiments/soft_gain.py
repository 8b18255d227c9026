"""Hard-vs-soft coding gain on the Monte-Carlo engine.

For every registry code and every AWGN noise level, two paired
populations run through :class:`~repro.runtime.engine.MonteCarloEngine`:
one decodes hard-sliced bits through the code's paired hard decoder,
the other feeds the *same* noisy confidences (same seed plan, same
draws) to the decoder's vectorised soft kernel.  The per-chip statistic
is the count of erroneous delivered message *bits*, so the merged
counts divide straight into residual BER curves — the hard-vs-soft gap
is the coding gain the paper's soft information buys.

Both populations are ordinary engine specs: sharded, multiprocessed
bit-identically with ``--jobs``, content-addressed in the result cache
and resumable, exactly like Fig. 5 (see
:func:`repro.runtime.worker.register_shard_runner`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.coding.registry import DISPLAY_NAMES, get_code, get_codec
from repro.link.awgn import AwgnFluxChannel
from repro.runtime import MonteCarloEngine, register_shard_runner
from repro.runtime.spec import Shard, spec_config_hash
from repro.utils.rng import SeedPlan

#: Decision policies compared per (code, sigma) point.
DECISIONS = ("hard", "soft")

#: Registry codes with a coding gain to measure (``none`` has no code).
DEFAULT_CODES = ("rm13", "hamming74", "hamming84")

#: Noise RMS values (fraction of the flux eye) spanning the waterfall:
#: ~0.6% raw BER at 0.2 up to ~20% at 0.6.
DEFAULT_SIGMAS = (0.2, 0.3, 0.4, 0.5, 0.6)


@dataclass(frozen=True)
class SoftGainSpec:
    """One (code, sigma, decision) population, fully pinned down."""

    #: Workload kind dispatched by :func:`repro.runtime.worker.run_shard`.
    kind = "soft-gain"

    code: str
    decision: str            # "hard" | "soft"
    sigma: float
    n_chips: int
    n_messages: int
    seed_plan: SeedPlan
    decoder_strategy: Optional[str] = None
    #: Display name for progress reporting; not part of the cache identity.
    label: Optional[str] = None

    def __post_init__(self):
        if self.decision not in DECISIONS:
            raise ValueError(
                f"decision must be one of {DECISIONS}, got {self.decision!r}"
            )
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.n_chips < 0:
            raise ValueError(f"n_chips must be non-negative, got {self.n_chips}")
        if self.n_messages < 1:
            raise ValueError(f"n_messages must be positive, got {self.n_messages}")

    @property
    def display_label(self) -> str:
        return self.label or f"{self.code} {self.decision} sigma={self.sigma:g}"

    def to_dict(self) -> dict:
        """Canonical (JSON-stable) description — the cache identity."""
        return {
            "kind": self.kind,
            "code": self.code,
            "decision": self.decision,
            "sigma": self.sigma,
            "n_chips": self.n_chips,
            "n_messages": self.n_messages,
            "seed_plan": self.seed_plan.to_dict(),
            "decoder_strategy": self.decoder_strategy,
        }

    def config_hash(self) -> str:
        return spec_config_hash(self)


def _run_soft_gain_shard(spec: SoftGainSpec, shard: Shard) -> np.ndarray:
    """Per-chip erroneous delivered message *bits* for one decision arm.

    Chip ``i`` always consumes seed-plan child ``i``, and the message
    and noise draws happen before the decision policy branches — so the
    hard and soft arms of the same (code, sigma, seed) see identical
    channel realisations, frame for frame.
    """
    code, decoder = get_codec(spec.code, spec.decoder_strategy)
    channel = AwgnFluxChannel(sigma=spec.sigma)
    counts = np.empty(shard.n_chips, dtype=np.int64)
    for offset, rng in enumerate(spec.seed_plan.generators(shard.start, shard.stop)):
        messages = rng.integers(0, 2, size=(spec.n_messages, code.k)).astype(np.uint8)
        confidences = channel.transmit_soft(code.encode_batch(messages), rng)
        if spec.decision == "hard":
            delivered = decoder.decode_batch(channel.harden(confidences))
        else:
            delivered = decoder.decode_soft_batch(confidences)
        counts[offset] = int((delivered != messages).sum())
    return counts


register_shard_runner(SoftGainSpec.kind, _run_soft_gain_shard)


# ---------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class SoftGainConfig:
    """Parameters of the hard-vs-soft sweep."""

    codes: Sequence[str] = DEFAULT_CODES
    sigmas: Sequence[float] = DEFAULT_SIGMAS
    n_chips: int = 200
    n_messages: int = 256
    decoder_strategy: Optional[str] = None
    seed: int = 20250831

    def __post_init__(self):
        if self.n_chips < 1 or self.n_messages < 1:
            raise ValueError("n_chips and n_messages must be positive")
        if not self.codes or not self.sigmas:
            raise ValueError("codes and sigmas must be non-empty")


@dataclass(frozen=True)
class SoftGainPoint:
    """One (code, sigma) comparison point of the sweep."""

    code: str
    sigma: float
    raw_ber: float            # theoretical hard-slice crossover of the channel
    hard_bit_errors: int
    soft_bit_errors: int
    total_bits: int

    @property
    def hard_ber(self) -> float:
        return self.hard_bit_errors / self.total_bits if self.total_bits else 0.0

    @property
    def soft_ber(self) -> float:
        return self.soft_bit_errors / self.total_bits if self.total_bits else 0.0

    @property
    def soft_at_or_below_hard(self) -> bool:
        """The acceptance property: soft never loses to hard."""
        return self.soft_bit_errors <= self.hard_bit_errors


@dataclass
class SoftGainResult:
    """All sweep points, grouped per code in sigma order."""

    config: SoftGainConfig
    points: List[SoftGainPoint]

    def by_code(self) -> Dict[str, List[SoftGainPoint]]:
        grouped: Dict[str, List[SoftGainPoint]] = {}
        for point in self.points:
            grouped.setdefault(point.code, []).append(point)
        return grouped

    def soft_never_worse(self, code: str) -> bool:
        """True iff soft BER <= hard BER at every sigma for ``code``."""
        return all(p.soft_at_or_below_hard for p in self.points if p.code == code)


def specs(config: SoftGainConfig) -> List[Tuple[SoftGainSpec, SoftGainSpec]]:
    """(hard, soft) spec pairs, one seed-plan child per (code, sigma).

    The hard and soft arms of a pair share one :class:`SeedPlan`, which
    is what makes the comparison paired; each (code, sigma) point gets
    its own child of ``config.seed`` so adding sigmas or codes never
    moves existing points onto different draws.
    """
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(len(config.codes) * len(config.sigmas))
    pairs = []
    index = 0
    for code in config.codes:
        for sigma in config.sigmas:
            plan = SeedPlan.from_random_state(children[index])
            index += 1
            hard, soft = (
                SoftGainSpec(
                    code=code,
                    decision=decision,
                    sigma=float(sigma),
                    n_chips=config.n_chips,
                    n_messages=config.n_messages,
                    seed_plan=plan,
                    decoder_strategy=config.decoder_strategy,
                    label=f"{code}:{decision}@{sigma:g}",
                )
                for decision in DECISIONS
            )
            pairs.append((hard, soft))
    return pairs


def run(
    config: Optional[SoftGainConfig] = None,
    engine: Optional[MonteCarloEngine] = None,
) -> SoftGainResult:
    """Run the full hard-vs-soft sweep (all codes x sigmas)."""
    config = config or SoftGainConfig()
    engine = engine or MonteCarloEngine()
    pairs = specs(config)
    flat = [spec for pair in pairs for spec in pair]
    outcomes = engine.run_many(flat)
    points = []
    for pair_index, (hard_spec, _) in enumerate(pairs):
        hard_counts = outcomes[2 * pair_index].counts
        soft_counts = outcomes[2 * pair_index + 1].counts
        k = get_code(hard_spec.code).k
        points.append(
            SoftGainPoint(
                code=hard_spec.code,
                sigma=hard_spec.sigma,
                raw_ber=AwgnFluxChannel(sigma=hard_spec.sigma).flip_probability(),
                hard_bit_errors=int(hard_counts.sum()),
                soft_bit_errors=int(soft_counts.sum()),
                total_bits=config.n_chips * config.n_messages * k,
            )
        )
    return SoftGainResult(config=config, points=points)


def render(result: SoftGainResult) -> str:
    """Printable hard-vs-soft residual-BER table, one block per code."""
    lines = [
        "Hard vs soft residual message-bit error rate "
        f"({result.config.n_chips} chips x {result.config.n_messages} frames "
        "per point, paired noise draws)",
    ]
    for code, points in result.by_code().items():
        display = DISPLAY_NAMES.get(code, code)
        lines.append("")
        lines.append(f"{display}")
        header = (
            f"  {'sigma':>6} {'raw BER':>10} {'hard BER':>10} "
            f"{'soft BER':>10} {'gain':>7}"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for p in points:
            gain = (
                f"{p.hard_ber / p.soft_ber:6.1f}x"
                if p.soft_ber
                else ("   inf " if p.hard_ber else "   1.0x")
            )
            lines.append(
                f"  {p.sigma:>6.2f} {p.raw_ber:>10.2e} {p.hard_ber:>10.2e} "
                f"{p.soft_ber:>10.2e} {gain:>7}"
            )
        verdict = "never worse" if result.soft_never_worse(code) else "WORSE SOMEWHERE"
        lines.append(f"  soft vs hard: {verdict}")
    return "\n".join(lines)


def curves_csv(result: SoftGainResult) -> str:
    """The sweep as CSV (one row per code x sigma)."""
    rows = ["code,sigma,raw_ber,hard_ber,soft_ber,hard_bit_errors,soft_bit_errors,total_bits"]
    for p in result.points:
        rows.append(
            f"{p.code},{p.sigma:g},{p.raw_ber:.6e},{p.hard_ber:.6e},"
            f"{p.soft_ber:.6e},{p.hard_bit_errors},{p.soft_bit_errors},{p.total_bits}"
        )
    return "\n".join(rows) + "\n"
