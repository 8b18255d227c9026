"""The shard workers: the per-chip loops in the codebase.

:func:`run_shard` executes a contiguous chip range of one spec and
returns the per-chip counts.  It is a module-level function with
picklable arguments so a ``ProcessPoolExecutor`` can dispatch it; the
inline (``jobs=1``) engine path calls exactly the same function, which
is what makes serial and parallel runs bit-identical by construction.

The engine is workload-agnostic: it only needs a spec with ``n_chips``,
``display_label``, ``to_dict()``/``config_hash()`` and a ``kind``
string.  :func:`run_shard` dispatches on ``spec.kind`` through the
:func:`register_shard_runner` registry, so new experiment kinds (e.g.
the hard-vs-soft coding-gain sweep in
:mod:`repro.experiments.soft_gain`) plug their own per-chip loop into
the same sharding, caching and multiprocessing machinery.  A worker
process resolves the runner after unpickling the spec, and unpickling
imports the module that defines the spec class — which is also where
its runner must be registered.

Link construction (design synthesis + decoder build) is memoised per
process keyed on ``(scheme, decoder_strategy, bounded_syndrome_weight)``,
so a long-lived worker synthesises each netlist once however many shards
it executes.

Imports of the system layer happen inside the functions: ``repro.system``
itself imports the engine (the Fig. 5 experiment runs on it), and the
lazy imports keep ``repro.runtime`` importable from either direction.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Optional

import numpy as np

from repro.runtime.spec import ExperimentSpec, Shard

#: A shard runner: ``(spec, shard) -> (shard.n_chips,) int64 counts``.
ShardRunner = Callable[[object, Shard], np.ndarray]

_SHARD_RUNNERS: Dict[str, ShardRunner] = {}


def register_shard_runner(kind: str, runner: ShardRunner) -> None:
    """Register the per-chip loop executed for specs of ``kind``.

    Registering a kind twice replaces the runner (idempotent module
    re-imports are the common case).
    """
    _SHARD_RUNNERS[kind] = runner


def shard_runner_for(spec) -> ShardRunner:
    """Resolve the runner for ``spec`` via its ``kind`` attribute.

    A spec without a ``kind`` fails here (loudly, at the dispatch
    point) rather than being guessed onto some default runner.
    """
    try:
        return _SHARD_RUNNERS[spec.kind]
    except KeyError:
        raise KeyError(
            f"no shard runner registered for spec kind {spec.kind!r}; "
            f"known kinds: {sorted(_SHARD_RUNNERS)}"
        )


def run_shard(spec, shard: Shard) -> np.ndarray:
    """Simulate chips ``[shard.start, shard.stop)`` of ``spec``.

    Returns the ``(shard.n_chips,)`` int64 array of per-chip counts
    (erroneous messages for link-transmission specs, erroneous message
    bits for soft-gain specs — each kind documents its own statistic).
    """
    if shard.stop > spec.n_chips:
        raise ValueError(
            f"shard [{shard.start}, {shard.stop}) exceeds population of "
            f"{spec.n_chips} chips"
        )
    return shard_runner_for(spec)(spec, shard)


# ---------------------------------------------------------------------
# The paper's link-transmission workload (Fig. 5 and the ablations)
# ---------------------------------------------------------------------
@lru_cache(maxsize=None)
def _link_for(
    scheme: str,
    decoder_strategy: Optional[str],
    bounded_syndrome_weight: Optional[int],
):
    from repro.coding.decoders import SyndromeDecoder
    from repro.encoders.designs import design_for_scheme
    from repro.system.datalink import CryogenicDataLink

    design = design_for_scheme(scheme)
    if bounded_syndrome_weight is not None:
        if design.code is None:
            raise ValueError(f"scheme {scheme!r} has no code to bound-decode")
        link = CryogenicDataLink(design)
        link.decoder = SyndromeDecoder(
            design.code, max_correctable_weight=bounded_syndrome_weight
        )
        return link
    return CryogenicDataLink(
        design,
        decoder_strategy=None if design.code is None else decoder_strategy,
    )


def _run_link_transmission_shard(spec: ExperimentSpec, shard: Shard) -> np.ndarray:
    """Per-chip erroneous-message counts (the paper's statistic N)."""
    from repro.ppv.montecarlo import ChipSampler

    link = _link_for(spec.scheme, spec.decoder_strategy, spec.bounded_syndrome_weight)
    sampler = ChipSampler(link.design.netlist, spec.spread, spec.margin_model)
    counts = np.empty(shard.n_chips, dtype=np.int64)
    k = link.message_bits
    for chip in sampler.sample_range(shard.start, shard.stop, spec.seed_plan):
        messages = chip.rng.integers(0, 2, size=(spec.n_messages, k)).astype(np.uint8)
        result = link.transmit(messages, chip.faults, chip.rng)
        counts[chip.index - shard.start] = result.n_erroneous
    return counts


register_shard_runner(ExperimentSpec.kind, _run_link_transmission_shard)
