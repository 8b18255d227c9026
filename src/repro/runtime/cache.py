"""Content-addressed on-disk result cache with shard checkpoints.

Layout (under ``~/.cache/repro`` / ``$REPRO_CACHE_DIR`` / ``--cache-dir``)::

    <root>/v1/<hh>/<config-hash>/
        meta.json             # the spec's canonical dict + bookkeeping
        result.npz            # merged per-chip counts (key "counts")
        shards/<start>-<stop>.npy   # checkpoints of an unfinished run

``config-hash`` is :meth:`ExperimentSpec.config_hash` — SHA-256 over the
canonical spec dict, the cache schema version and the code version — so
any change to the experiment's inputs (seed, spread, margins, decoder
policy, chip/message counts) addresses a different entry.  ``meta.json``
stores the full spec dict and is compared field-by-field on load, so
even a hash collision (or a corrupt entry) degrades to a cache miss,
never to wrong counts.

Shard checkpoints are written as each shard completes and deleted once
the merged result lands, which is what makes interrupted runs resumable:
a rerun loads whatever ranges already exist and only executes the rest.
All writes go through a temp file + ``os.replace`` so a crash mid-write
leaves no half-written entry behind.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path
from zipfile import BadZipFile
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro._version import __version__
from repro.runtime.spec import CACHE_SCHEMA_VERSION, ExperimentSpec, Shard

_SHARD_FILE = re.compile(r"^(\d+)-(\d+)\.npy$")


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def _atomic_write(path: Path, write_fn) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            write_fn(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class ResultCache:
    """Config-hash-keyed store of Monte-Carlo counts + shard checkpoints."""

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root) if root is not None else default_cache_root()
        self._store = self.root / f"v{CACHE_SCHEMA_VERSION}"

    def entry_dir(self, spec: ExperimentSpec) -> Path:
        key = spec.config_hash()
        return self._store / key[:2] / key

    # ------------------------------------------------------------------
    # Merged results
    # ------------------------------------------------------------------
    def load_result(self, spec: ExperimentSpec) -> Optional[np.ndarray]:
        """The cached ``(n_chips,)`` counts, or ``None`` on any mismatch."""
        entry = self.entry_dir(spec)
        result_path = entry / "result.npz"
        if not result_path.exists() or not self._meta_matches(entry, spec):
            return None
        try:
            with np.load(result_path) as payload:
                counts = np.asarray(payload["counts"], dtype=np.int64)
        except (OSError, ValueError, KeyError, BadZipFile):
            return None
        return counts if counts.shape == (spec.n_chips,) else None

    def store_result(self, spec: ExperimentSpec, counts: np.ndarray) -> Path:
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (spec.n_chips,):
            raise ValueError(
                f"counts shape {counts.shape} does not match {spec.n_chips} chips"
            )
        entry = self.entry_dir(spec)
        self._write_meta(entry, spec)
        _atomic_write(entry / "result.npz", lambda fh: np.savez(fh, counts=counts))
        self.clear_shards(spec)
        return entry

    # ------------------------------------------------------------------
    # Shard checkpoints
    # ------------------------------------------------------------------
    def store_shard(self, spec: ExperimentSpec, shard: Shard, counts: np.ndarray) -> None:
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (shard.n_chips,):
            raise ValueError(
                f"shard counts shape {counts.shape} does not match "
                f"[{shard.start}, {shard.stop})"
            )
        entry = self.entry_dir(spec)
        self._write_meta(entry, spec)
        path = entry / "shards" / f"{shard.start}-{shard.stop}.npy"
        _atomic_write(path, lambda fh: np.save(fh, counts))

    def load_shards(self, spec: ExperimentSpec) -> Dict[Tuple[int, int], np.ndarray]:
        """All checkpointed ranges of ``spec``, keyed ``(start, stop)``."""
        entry = self.entry_dir(spec)
        shards_dir = entry / "shards"
        if not shards_dir.is_dir() or not self._meta_matches(entry, spec):
            return {}
        checkpoints: Dict[Tuple[int, int], np.ndarray] = {}
        for path in shards_dir.iterdir():
            match = _SHARD_FILE.match(path.name)
            if not match:
                continue
            start, stop = int(match.group(1)), int(match.group(2))
            if not 0 <= start <= stop <= spec.n_chips:
                continue
            try:
                counts = np.asarray(np.load(path), dtype=np.int64)
            except (OSError, ValueError):
                continue
            if counts.shape == (stop - start,):
                checkpoints[(start, stop)] = counts
        return checkpoints

    def clear_shards(self, spec: ExperimentSpec) -> None:
        shards_dir = self.entry_dir(spec) / "shards"
        if not shards_dir.is_dir():
            return
        for path in shards_dir.iterdir():
            if _SHARD_FILE.match(path.name):
                path.unlink(missing_ok=True)
        try:
            shards_dir.rmdir()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def _write_meta(self, entry: Path, spec: ExperimentSpec) -> None:
        meta_path = entry / "meta.json"
        if meta_path.exists():
            return
        payload = {
            "spec": spec.to_dict(),
            "cache_schema": CACHE_SCHEMA_VERSION,
            "code_version": __version__,
        }
        data = json.dumps(payload, sort_keys=True, indent=1).encode("utf-8")
        _atomic_write(meta_path, lambda fh: fh.write(data))

    def _meta_matches(self, entry: Path, spec: ExperimentSpec) -> bool:
        meta_path = entry / "meta.json"
        try:
            payload = json.loads(meta_path.read_text())
        except (OSError, ValueError):
            return False
        return payload.get("spec") == spec.to_dict()
