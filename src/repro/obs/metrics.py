"""Metric snapshots: fixed log buckets, an exact merge and a Prometheus renderer.

A *snapshot* is a plain JSON-able dict, ``{"families": [...]}``.  Each
family has a ``name``, a ``type`` (``counter``, ``gauge`` or
``histogram``), a ``help`` text, its ``labelnames`` and its ``series``.
A series is ``{"labels": {...}, "value": v}``, or for a histogram
``{"labels": {...}, "counts": [...], "sum": s}`` with one count per
finite bucket edge in the family's ``buckets`` plus one for +Inf.
:class:`~repro.service.telemetry.ServiceTelemetry` builds them from its
counter rows.

Histograms use **fixed log-spaced buckets** rather than sample
reservoirs.  The bucket layout is part of the family's identity, so two
snapshots of the same family — e.g. from different pool workers — merge
by summing bucket counts elementwise, *exactly*.  That is the property
the worker-pool rollup needs: percentiles estimated from the merged
buckets are within one bucket width of the truth, whereas percentiles
of reservoir percentiles are not meaningful at all.

Cross-process flow: each worker serialises its snapshot over its pipe;
the front end merges the snapshots with :func:`merge_snapshots`
(tagging each with a ``worker`` label) and renders the result with
:func:`render_prometheus`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple


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


def bucket_percentile(
    counts: Sequence[int], bounds: Sequence[float], q: float
) -> float:
    """Estimate the ``q``-th percentile (0-100) of a histogram's bucket counts.

    ``counts`` has one slot per finite edge in ``bounds`` (ascending;
    slot ``i`` counts values ``v <= bounds[i]``, Prometheus ``le``
    semantics) plus one for +Inf.  Returns the upper edge of the bucket
    holding the nearest-rank sample — within one bucket width of the
    exact order statistic for in-range samples.  Overflow samples
    report the last finite edge (the estimate saturates); no samples
    report 0.0.
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


# ---------------------------------------------------------------------
# Snapshot merging (pool rollup) and Prometheus rendering
# ---------------------------------------------------------------------
def merge_snapshots(
    snapshots: Sequence[Dict],
    extra_labels: Optional[Sequence[Optional[Dict[str, str]]]] = None,
) -> Dict:
    """Merge snapshots into one, summing matching series.

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
    """Render a snapshot (or a merge of several) as Prometheus text format.

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
