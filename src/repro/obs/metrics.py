"""Process-local metrics: counters, gauges, and mergeable histograms.

The registry is deliberately tiny and dependency-free: a
:class:`MetricsRegistry` holds metric *families* (one per metric name),
each family holds labelled *children* (one per label-value combination),
and every child is a plain Python object mutated in place — no locks on
the hot path, which is safe because each registry lives on one event
loop (or one worker process) and is scraped from the same thread.

Histograms use **fixed log-spaced buckets** rather than sample
reservoirs.  The bucket layout is part of the family's identity, so two
snapshots of the same family — e.g. from different pool workers — merge
by summing bucket counts elementwise, *exactly*.  That is the property
the worker-pool rollup needs: percentiles estimated from the merged
buckets are within one bucket width of the truth, whereas percentiles
of reservoir percentiles are not meaningful at all.

Cross-process flow: each worker serialises ``registry.snapshot()`` (a
JSON-able dict) over its pipe; the front end merges the snapshots with
:func:`merge_snapshots` (tagging each with a ``worker`` label) and
renders the result with :func:`render_prometheus`.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def log_buckets(
    start: float = 1.0, factor: float = 2.0, count: int = 24
) -> Tuple[float, ...]:
    """``count`` log-spaced finite bucket upper bounds from ``start``.

    The returned bounds are the finite ``le`` edges; every histogram
    additionally has an implicit +Inf overflow bucket.
    """
    if start <= 0:
        raise ValueError(f"start must be positive, got {start}")
    if factor <= 1:
        raise ValueError(f"factor must be > 1, got {factor}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return tuple(start * factor**i for i in range(count))


#: Default bucket layout for microsecond timings: 1 µs .. ~8.4 s (+Inf).
DEFAULT_TIME_BUCKETS_US = log_buckets(1.0, 2.0, 24)

#: Wider layout for second-scale durations (engine shards): 1 µs .. ~9 min.
WIDE_TIME_BUCKETS_US = log_buckets(1.0, 2.0, 30)

_NAME_ALLOWED = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
_LABEL_ALLOWED = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"


def _check_name(name: str, allowed: str, what: str) -> str:
    if not name or name[0].isdigit() or any(c not in allowed for c in name):
        raise ValueError(f"invalid {what} {name!r}")
    return name


class Counter:
    """A monotonically increasing value (one labelled child)."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: Dict[str, str]):
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (>= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up, down, or be set (one labelled child)."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: Dict[str, str]):
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.value -= amount

    def set_max(self, value: float) -> None:
        """Keep the running maximum of observed values."""
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket histogram child: counts per bucket, sum, and count.

    ``bounds`` are the finite upper edges (ascending); ``counts`` has one
    extra slot for the +Inf overflow bucket.  ``observe`` is O(log
    buckets); bucket ``i`` counts values ``v <= bounds[i]`` (Prometheus
    ``le`` semantics).
    """

    __slots__ = ("labels", "bounds", "counts", "sum")

    def __init__(self, labels: Dict[str, str], bounds: Sequence[float]):
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one sample into its ``le`` bucket."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value

    @property
    def count(self) -> int:
        """Total samples observed (sum over every bucket)."""
        return sum(self.counts)

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0-100) from the buckets.

        Returns the upper edge of the bucket holding the nearest-rank
        sample — within one bucket width of the exact order statistic
        for in-range samples.  Overflow samples report the last finite
        edge (the estimate saturates); an empty histogram reports 0.0.
        """
        return bucket_percentile(self.counts, self.bounds, q)

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this child, exactly."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum += other.sum


def bucket_percentile(
    counts: Sequence[int], bounds: Sequence[float], q: float
) -> float:
    """Percentile estimate over raw ``counts``/``bounds`` arrays.

    Shared by live :class:`Histogram` children and by rollup code that
    works on merged snapshot counts without rebuilding child objects.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    rank = max(1, math.ceil(total * q / 100.0))
    cumulative = 0
    for i, c in enumerate(counts):
        cumulative += c
        if cumulative >= rank:
            if i < len(bounds):
                return float(bounds[i])
            return float(bounds[-1]) if bounds else 0.0
    return float(bounds[-1]) if bounds else 0.0


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric and all of its labelled children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ):
        _check_name(name, _NAME_ALLOWED, "metric name")
        for label in labelnames:
            _check_name(label, _LABEL_ALLOWED, "label name")
        if kind not in _CHILD_TYPES:
            raise ValueError(f"unknown metric kind {kind!r}")
        if kind == "histogram":
            buckets = tuple(float(b) for b in (buckets or DEFAULT_TIME_BUCKETS_US))
            if list(buckets) != sorted(set(buckets)):
                raise ValueError("histogram buckets must be strictly ascending")
        elif buckets is not None:
            raise ValueError(f"{kind} metrics take no buckets")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = buckets
        self._children: Dict[Tuple[str, ...], object] = {}

    def signature(self) -> Tuple:
        """Identity tuple used for idempotent re-registration checks."""
        return (self.name, self.kind, self.labelnames, self.buckets)

    def labels(self, **labelvalues: str):
        """The child for one label-value combination (created on demand)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            labels = dict(zip(self.labelnames, key))
            if self.kind == "histogram":
                child = Histogram(labels, self.buckets)
            else:
                child = _CHILD_TYPES[self.kind](labels)
            self._children[key] = child
        return child

    def children(self) -> Iterable:
        """Every instantiated child, in creation order."""
        return self._children.values()

    def snapshot(self) -> Dict:
        """JSON-able dump of this family (sorted, deterministic)."""
        series = []
        for key in sorted(self._children):
            child = self._children[key]
            entry: Dict = {"labels": dict(zip(self.labelnames, key))}
            if self.kind == "histogram":
                entry["counts"] = list(child.counts)
                entry["sum"] = child.sum
            else:
                entry["value"] = child.value
            series.append(entry)
        family: Dict = {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "series": series,
        }
        if self.kind == "histogram":
            family["buckets"] = list(self.buckets)
        return family


class MetricsRegistry:
    """A named collection of metric families.

    Families register idempotently: asking for an existing name with the
    same kind/labels/buckets returns the existing family, so modules can
    declare their metrics wherever they use them; a conflicting
    redefinition raises.
    """

    def __init__(self):
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _family(
        self, name: str, kind: str, help: str, labelnames, buckets=None
    ) -> MetricFamily:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                candidate = MetricFamily(name, kind, help, labelnames, buckets)
                if candidate.signature() != existing.signature():
                    raise ValueError(
                        f"metric {name!r} already registered with a "
                        "different kind, labels, or buckets"
                    )
                return existing
            family = MetricFamily(name, kind, help, labelnames, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._family(name, "counter", help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._family(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        """Register (or fetch) a fixed-bucket histogram family."""
        return self._family(name, "histogram", help, labelnames, buckets)

    def families(self) -> List[MetricFamily]:
        """Registered families, sorted by name."""
        return [self._families[n] for n in sorted(self._families)]

    def snapshot(self) -> Dict:
        """JSON-able dump of every family — the cross-process wire form."""
        return {"families": [f.snapshot() for f in self.families()]}


# ---------------------------------------------------------------------
# Snapshot merging (pool rollup) and Prometheus rendering
# ---------------------------------------------------------------------
def merge_snapshots(
    snapshots: Sequence[Dict],
    extra_labels: Optional[Sequence[Optional[Dict[str, str]]]] = None,
) -> Dict:
    """Merge registry snapshots into one, summing matching series.

    ``extra_labels[i]`` (e.g. ``{"worker": "3"}``) is added to every
    series of ``snapshots[i]`` before merging, which is how per-worker
    series stay distinguishable in the pooled scrape.  Counter and gauge
    values sum; histogram bucket counts sum elementwise (exact — the
    bucket layout is part of the family identity and must match).
    """
    if extra_labels is not None and len(extra_labels) != len(snapshots):
        raise ValueError("extra_labels must parallel snapshots")
    merged: Dict[str, Dict] = {}
    for i, snap in enumerate(snapshots):
        extra = dict(extra_labels[i]) if extra_labels and extra_labels[i] else {}
        for family in snap.get("families", []):
            name = family["name"]
            labelnames = list(family["labelnames"])
            for label in extra:
                if label not in labelnames:
                    labelnames.append(label)
            out = merged.get(name)
            if out is None:
                out = {
                    "name": name,
                    "type": family["type"],
                    "help": family.get("help", ""),
                    "labelnames": labelnames,
                    "series": [],
                }
                if family["type"] == "histogram":
                    out["buckets"] = list(family["buckets"])
                merged[name] = out
                index: Dict[Tuple, Dict] = {}
                out["_index"] = index
            else:
                if out["type"] != family["type"]:
                    raise ValueError(f"metric {name!r} merges across types")
                if family["type"] == "histogram" and list(family["buckets"]) != list(
                    out["buckets"]
                ):
                    raise ValueError(f"metric {name!r} merges across bucket layouts")
                for label in labelnames:
                    if label not in out["labelnames"]:
                        out["labelnames"].append(label)
                index = out["_index"]
            for entry in family["series"]:
                labels = dict(entry["labels"])
                labels.update(extra)
                key = tuple(sorted(labels.items()))
                target = index.get(key)
                if target is None:
                    target = {"labels": labels}
                    if out["type"] == "histogram":
                        target["counts"] = list(entry["counts"])
                        target["sum"] = entry["sum"]
                    else:
                        target["value"] = entry["value"]
                    index[key] = target
                    out["series"].append(target)
                elif out["type"] == "histogram":
                    target["counts"] = [
                        a + b for a, b in zip(target["counts"], entry["counts"])
                    ]
                    target["sum"] += entry["sum"]
                else:
                    target["value"] += entry["value"]
    families = []
    for name in sorted(merged):
        family = merged[name]
        family.pop("_index")
        family["series"].sort(key=lambda s: sorted(s["labels"].items()))
        families.append(family)
    return {"families": families}


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    as_float = float(value)
    if math.isinf(as_float):
        return "+Inf" if as_float > 0 else "-Inf"
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label(value)}"'
        for name, value in sorted(labels.items())
        if value != ""
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(snapshot: Dict) -> str:
    """Render a registry (or merged) snapshot as Prometheus text format.

    Empty-string label values are elided — they mark "label not
    applicable to this series" (e.g. ``op`` on a connection counter).
    Histogram buckets render cumulatively with the standard ``le``
    label, plus ``_sum`` and ``_count`` series.
    """
    lines: List[str] = []
    for family in snapshot.get("families", []):
        name, kind = family["name"], family["type"]
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for entry in family["series"]:
            labels = entry["labels"]
            if kind == "histogram":
                bounds = list(family["buckets"]) + [math.inf]
                cumulative = 0
                for bound, count in zip(bounds, entry["counts"]):
                    cumulative += count
                    le = f'le="{_format_value(bound)}"'
                    lines.append(
                        f"{name}_bucket{_render_labels(labels, le)} {cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_render_labels(labels)} "
                    f"{_format_value(entry['sum'])}"
                )
                lines.append(f"{name}_count{_render_labels(labels)} {cumulative}")
            else:
                lines.append(
                    f"{name}{_render_labels(labels)} "
                    f"{_format_value(entry['value'])}"
                )
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------
# The process-default registry (experiment-engine and cache metrics)
# ---------------------------------------------------------------------
_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry for non-service metrics.

    Service counters live on each server's own registry (so tests can
    run many servers in one process without cross-talk); experiment-engine
    and cache metrics are process-global facts and live here.
    A metrics scrape renders the merge of both.
    """
    return _DEFAULT_REGISTRY


def reset_default_registry() -> MetricsRegistry:
    """Replace the process-default registry (test isolation hook)."""
    global _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = MetricsRegistry()
    return _DEFAULT_REGISTRY
