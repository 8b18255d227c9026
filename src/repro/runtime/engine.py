"""The Monte-Carlo experiment engine.

:class:`MonteCarloEngine` executes :class:`~repro.runtime.spec.ExperimentSpec`
populations shard by shard:

* ``jobs=1`` runs every shard inline, in plan order;
* ``jobs=N`` dispatches shards to a ``ProcessPoolExecutor`` and merges
  them as they complete.

Both paths call the same :func:`~repro.runtime.worker.run_shard`
function, and every chip's random substreams are pinned by the spec's
seed plan rather than by execution order — so serial, parallel, and
out-of-order execution produce bit-identical counts.

With a :class:`~repro.runtime.cache.ResultCache` attached, finished
populations are served from disk without executing any shard, completed
shards of unfinished populations are checkpointed as they land, and a
rerun after an interruption resumes from the checkpoints instead of
restarting.

The merge is streaming: per spec the engine holds one ``(n_chips,)``
int64 counts array that shards scatter into — chip objects (fault maps,
generators) never leave the worker.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from repro.runtime import worker
from repro.runtime.cache import ResultCache
from repro.runtime.progress import ProgressEvent
from repro.runtime.spec import DEFAULT_SHARD_SIZE, ExperimentSpec, Shard, ShardPlan

ProgressCallback = Callable[[ProgressEvent], None]


@dataclass
class EngineResult:
    """One spec's merged outcome plus how it was obtained."""

    spec: ExperimentSpec
    counts: np.ndarray          # (n_chips,) int64 erroneous messages per chip
    from_cache: bool            # served whole from the result cache
    shards_executed: int        # shards simulated by this run
    shards_resumed: int         # shards restored from checkpoints

    @property
    def probability_zero_errors(self) -> float:
        return float((self.counts == 0).mean()) if self.counts.size else 1.0


@dataclass
class _SpecState:
    """Streaming accumulator for one in-flight spec."""

    index: int
    spec: ExperimentSpec
    plan: ShardPlan
    counts: np.ndarray
    remaining: Set[Shard] = field(default_factory=set)
    shards_executed: int = 0
    shards_resumed: int = 0

    @property
    def complete(self) -> bool:
        return not self.remaining


class MonteCarloEngine:
    """Sharded, cached, optionally multiprocess Monte-Carlo executor."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        shard_size: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.shard_size = shard_size if shard_size is not None else DEFAULT_SHARD_SIZE
        if self.shard_size < 1:
            raise ValueError(f"shard_size must be positive, got {self.shard_size}")
        self.progress = progress

    def run(self, spec: ExperimentSpec) -> EngineResult:
        return self.run_many([spec])[0]

    def run_many(self, specs: Sequence[ExperimentSpec]) -> List[EngineResult]:
        """Execute several populations, sharing one worker pool."""
        specs = list(specs)
        started = time.perf_counter()
        results: List[Optional[EngineResult]] = [None] * len(specs)
        states: Dict[int, _SpecState] = {}
        chips_total = sum(spec.n_chips for spec in specs)
        chips_done = 0
        chips_executed = 0

        for index, spec in enumerate(specs):
            if self.cache is not None:
                cached = self.cache.load_result(spec)
                if cached is not None:
                    results[index] = EngineResult(
                        spec=spec,
                        counts=cached,
                        from_cache=True,
                        shards_executed=0,
                        shards_resumed=0,
                    )
                    chips_done += spec.n_chips
                    continue
            plan = ShardPlan.split(spec.n_chips, self.shard_size)
            state = _SpecState(
                index=index,
                spec=spec,
                plan=plan,
                counts=np.zeros(spec.n_chips, dtype=np.int64),
                remaining=set(plan.shards),
            )
            if self.cache is not None and plan.shards:
                checkpoints = self.cache.load_shards(spec)
                for shard in plan.shards:
                    counts = checkpoints.get((shard.start, shard.stop))
                    if counts is None:
                        continue
                    state.counts[shard.start : shard.stop] = counts
                    state.remaining.discard(shard)
                    state.shards_resumed += 1
                    chips_done += shard.n_chips
            states[index] = state
            if state.complete:
                results[index] = self._finalize(state)

        tasks = [
            (state.index, shard)
            for state in states.values()
            if not state.complete
            for shard in state.plan.shards
            if shard in state.remaining
        ]

        def absorb(index: int, shard: Shard, counts: np.ndarray) -> None:
            nonlocal chips_done, chips_executed
            state = states[index]
            state.counts[shard.start : shard.stop] = counts
            state.remaining.discard(shard)
            state.shards_executed += 1
            chips_done += shard.n_chips
            chips_executed += shard.n_chips
            if self.cache is not None and not state.complete:
                self.cache.store_shard(state.spec, shard, counts)
            if state.complete:
                results[index] = self._finalize(state)
            self._emit(
                state.spec.display_label,
                chips_done,
                chips_total,
                chips_executed,
                started,
                done=False,
            )

        if tasks:
            if self.jobs == 1:
                for index, shard in tasks:
                    absorb(index, shard, worker.run_shard(specs[index], shard))
            else:
                with ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(tasks))
                ) as pool:
                    futures = {
                        pool.submit(worker.run_shard, specs[index], shard): (index, shard)
                        for index, shard in tasks
                    }
                    pending = set(futures)
                    while pending:
                        finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                        for future in finished:
                            index, shard = futures[future]
                            absorb(index, shard, future.result())

        label = specs[0].display_label if len(specs) == 1 else f"{len(specs)} specs"
        self._emit(label, chips_done, chips_total, chips_executed, started, done=True)
        return results  # type: ignore[return-value]  # every slot is filled above

    # ------------------------------------------------------------------
    def _finalize(self, state: _SpecState) -> EngineResult:
        if self.cache is not None:
            self.cache.store_result(state.spec, state.counts)
        return EngineResult(
            spec=state.spec,
            counts=state.counts,
            from_cache=False,
            shards_executed=state.shards_executed,
            shards_resumed=state.shards_resumed,
        )

    def _emit(
        self,
        label: str,
        chips_done: int,
        chips_total: int,
        chips_executed: int,
        started: float,
        done: bool,
    ) -> None:
        if self.progress is None:
            return
        self.progress(
            ProgressEvent(
                label=label,
                chips_done=chips_done,
                chips_total=chips_total,
                chips_executed=chips_executed,
                elapsed_seconds=time.perf_counter() - started,
                done=done,
            )
        )
