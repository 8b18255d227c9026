"""Experiment specifications and deterministic shard plans.

An :class:`ExperimentSpec` is the complete, serialisable description of
one Monte-Carlo population: which link to build (scheme + decoder
policy), how many chips and messages, the spread and margin model, and
a :class:`~repro.utils.rng.SeedPlan` pinning every chip's substreams.
Because chip ``i`` always consumes seed-plan children ``2i``/``2i + 1``,
any partition of ``range(n_chips)`` — the :class:`ShardPlan` — produces
bit-identical counts regardless of shard size, execution order, or the
number of worker processes.

The spec's canonical dict (:meth:`ExperimentSpec.to_dict`) doubles as
the content-addressed cache identity: :meth:`ExperimentSpec.config_hash`
is the SHA-256 of its sorted JSON plus the cache schema version and the
code version, so a cache entry can never be served to a run it does not
exactly describe.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Tuple

from repro._version import __version__
from repro.ppv.margins import MarginModel
from repro.ppv.spread import SpreadSpec
from repro.utils.rng import SeedPlan

#: Bump when the cached payload layout or the count semantics change.
#: v3: specs no longer carry a ``backend`` field (one kernel engine), so
#: the hashed spec dict changed shape.
CACHE_SCHEMA_VERSION = 3

#: Default chips per shard: small enough that 1000-chip runs spread over
#: many workers, large enough that per-task dispatch overhead stays
#: negligible against the ~0.4 ms/chip simulation cost.
DEFAULT_SHARD_SIZE = 64


def spec_config_hash(spec) -> str:
    """Content-addressed identity shared by every spec kind.

    SHA-256 of the spec's canonical dict plus the cache schema version
    and the code version — any spec exposing ``to_dict()`` (and a
    distinct ``kind`` inside it) gets cache entries that can never be
    served to a run they do not exactly describe.
    """
    payload = {
        "spec": spec.to_dict(),
        "cache_schema": CACHE_SCHEMA_VERSION,
        "code_version": __version__,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentSpec:
    """One scheme's Monte-Carlo population, fully pinned down."""

    #: Workload kind dispatched by :func:`repro.runtime.worker.run_shard`.
    kind = "link-transmission"

    scheme: str
    n_chips: int
    n_messages: int
    spread: SpreadSpec
    margin_model: MarginModel
    seed_plan: SeedPlan
    decoder_strategy: Optional[str] = None
    #: Decoder-policy ablation: replace the paired decoder with a
    #: ``SyndromeDecoder(max_correctable_weight=...)`` (the paper's
    #: bounded-distance "flagging" mode).
    bounded_syndrome_weight: Optional[int] = None
    #: Display name for progress reporting; not part of the cache identity.
    label: Optional[str] = None

    def __post_init__(self):
        if self.n_chips < 0:
            raise ValueError(f"n_chips must be non-negative, got {self.n_chips}")
        if self.n_messages < 1:
            raise ValueError(f"n_messages must be positive, got {self.n_messages}")

    @property
    def display_label(self) -> str:
        return self.label or self.scheme

    def to_dict(self) -> dict:
        """Canonical (JSON-stable) description — the cache identity."""
        return {
            "kind": self.kind,
            "scheme": self.scheme,
            "n_chips": self.n_chips,
            "n_messages": self.n_messages,
            "spread": {
                "fraction": self.spread.fraction,
                "distribution": self.spread.distribution,
            },
            "margin_model": {
                "margins": {
                    name: float(value)
                    for name, value in sorted(self.margin_model.margins.items())
                },
                "eps_max": self.margin_model.eps_max,
                "gamma": self.margin_model.gamma,
                "spurious_ratio": self.margin_model.spurious_ratio,
                "fallback_margin": self.margin_model.fallback_margin,
            },
            "seed_plan": self.seed_plan.to_dict(),
            "decoder_strategy": self.decoder_strategy,
            "bounded_syndrome_weight": self.bounded_syndrome_weight,
        }

    def config_hash(self) -> str:
        return spec_config_hash(self)


@dataclass(frozen=True)
class Shard:
    """A half-open chip range ``[start, stop)`` of one spec's population."""

    start: int
    stop: int

    def __post_init__(self):
        if not 0 <= self.start <= self.stop:
            raise ValueError(f"invalid shard range [{self.start}, {self.stop})")

    @property
    def n_chips(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of ``range(n_chips)`` into shards.

    The plan depends only on ``n_chips`` and ``shard_size`` — never on
    the worker count — so checkpoints written by an interrupted 8-worker
    run are resumed exactly by a later 2-worker (or inline) run.
    """

    n_chips: int
    shards: Tuple[Shard, ...]

    @classmethod
    def split(cls, n_chips: int, shard_size: int = DEFAULT_SHARD_SIZE) -> "ShardPlan":
        if n_chips < 0:
            raise ValueError(f"n_chips must be non-negative, got {n_chips}")
        if shard_size < 1:
            raise ValueError(f"shard_size must be positive, got {shard_size}")
        shards = tuple(
            Shard(start, min(start + shard_size, n_chips))
            for start in range(0, n_chips, shard_size)
        )
        return cls(n_chips=n_chips, shards=shards)
