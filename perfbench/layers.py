"""Per-layer metrics from the traced launcher's spans.

Each metric is computed over the spans of one phase, selected by start
time (``time.perf_counter`` is the system-wide monotonic clock, so the
generator's phase bounds and the server's span times compare directly).
A span's self time is its busy time minus the busy time of the spans it
started, its children.
"""

from __future__ import annotations

import json

import numpy as np

from repro.coding.registry import get_code

#: Spans of the connection loop itself: reading and framing requests,
#: framing and writing responses.
FRONT = ("protocol.read_frame", "protocol.parse_request", "protocol.build_response",
         "protocol.frame_bytes", "writer.write", "writer.drain")
LANE_KERNELS = ("session.encode_frames", "session.decode_frames",
                "session.decode_soft_frames")
PAPER_CODES = ("hamming74", "hamming84", "rm13")


class Spans:
    def __init__(self, columns: dict, meta: dict):
        self.names = meta["names"]
        self.meta = meta
        for key, value in columns.items():
            setattr(self, key, value)
        self.name_of = np.array(self.names, dtype=object)[self.name] if len(self.name) else \
            np.zeros(0, dtype=object)
        children = np.zeros(len(self.name))
        has_parent = self.parent >= 0
        np.add.at(children, self.parent[has_parent], self.busy[has_parent])
        self.self_busy = self.busy - children

    def select(self, names, lo, hi, top_level=None):
        """Mask of spans named in ``names`` that started within [lo, hi]."""
        ids = [self.names.index(n) for n in names if n in self.names]
        mask = np.isin(self.name, ids) & (self.start >= lo) & (self.start <= hi)
        if top_level is True:
            mask &= self.parent < 0
        return mask

    def outer(self, names, lo, hi):
        """Spans of ``names`` whose parent is not itself one of ``names``."""
        mask = self.select(names, lo, hi)
        ids = [self.names.index(n) for n in names if n in self.names]
        parents = self.parent[mask]
        inner = np.zeros(mask.sum(), dtype=bool)
        valid = parents >= 0
        inner[valid] = np.isin(self.name[parents[valid]], ids)
        out = mask.copy()
        out[np.flatnonzero(mask)[inner]] = False
        return out


def load(path) -> Spans:
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        columns = {key: data[key] for key in data.files if key != "meta"}
    return Spans(columns, meta)


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def per_layer(spans: Spans, main: dict, tail: tuple) -> dict:
    """The per-layer metrics of a traced run.

    ``main`` is the timed phase's window (bounds and server CPU),
    ``tail`` the (start, end) of the churn epilogue and scrapes.
    """
    lo, hi = main["start"], main["end"]
    dispatch = spans.select(["server.dispatch"], lo, hi)
    requests = int(dispatch.sum())
    frames = int(spans.n[dispatch].sum())

    def count(names, top_level=None):
        return int(spans.select(names, lo, hi, top_level).sum())

    def busy(mask):
        return float(spans.busy[mask].sum())

    metrics = {}
    # service.server: the connection loop
    metrics["server.reads_per_request"] = (_ratio(count(["protocol.read_frame"]), requests), "count")
    metrics["server.writes_per_response"] = (_ratio(count(["writer.write"]), requests), "count")
    metrics["server.drains_per_response"] = (_ratio(count(["writer.drain"]), requests), "count")
    metrics["server.front_self_us"] = (
        _ratio(busy(spans.select(FRONT, lo, hi)) * 1e6, requests), "us")

    # service.protocol
    parsers = [n for n in spans.names if n.startswith("protocol.parse_")]
    builders = [n for n in spans.names if n.startswith("protocol.build_")]
    metrics["protocol.parse_ns_per_frame"] = (
        _ratio(busy(spans.select(parsers, lo, hi)) * 1e9, frames), "ns")
    metrics["protocol.build_ns_per_frame"] = (
        _ratio(busy(spans.select(builders + ["protocol.frame_bytes"], lo, hi)) * 1e9, frames),
        "ns")
    wire_bytes = (spans.n[spans.select(["protocol.read_frame"], lo, hi)].sum()
                  + spans.n[spans.select(["protocol.frame_bytes"], lo, hi)].sum())
    metrics["protocol.bytes_per_frame"] = (_ratio(wire_bytes, frames), "B")

    # service.workers.DispatchCore
    core = spans.select(["core.dispatch"], lo, hi)
    metrics["dispatch.self_us"] = (_ratio(spans.self_busy[core].sum() * 1e6, core.sum()), "us")

    # service.batcher: queue wait from submit to the start of its flush
    flushes = spans.select(LANE_KERNELS, lo, hi + 1.0)
    submits = spans.select(["batcher.submit"], lo, hi)
    waits = []
    for lane in np.unique(spans.aux[submits]):
        starts = np.sort(spans.start[flushes & (spans.aux == lane)])
        mine = spans.start[submits & (spans.aux == lane)]
        at = np.searchsorted(starts, mine)
        ok = at < len(starts)
        waits.append((starts[at[ok]] - mine[ok]) * 1e6)
    waits = np.concatenate(waits) if waits else np.zeros(0)
    metrics["batcher.queue_wait_p50_us"] = (
        float(np.percentile(waits, 50)) if waits.size else 0.0, "us")
    metrics["batcher.queue_wait_p99_us"] = (
        float(np.percentile(waits, 99)) if waits.size else 0.0, "us")
    lane_flushes = spans.select(LANE_KERNELS, lo, hi)
    metrics["batcher.frames_per_flush"] = (
        _ratio(spans.n[lane_flushes].sum(), lane_flushes.sum()), "count")
    metrics["batcher.deadline_flush_share"] = (
        _ratio(count(LANE_KERNELS, top_level=True), lane_flushes.sum()), "ratio")

    # kernels and backend resolution
    decodes = spans.outer(["decoder.decode_batch_detailed", "decoder.decode_soft_batch_detailed"],
                          lo, hi)
    hard = decodes & (spans.name_of == "decoder.decode_batch_detailed")
    soft = decodes & (spans.name_of == "decoder.decode_soft_batch_detailed")
    for short in PAPER_CODES:
        label = "code:" + get_code(short).name
        mask = hard & (spans.aux == (spans.names.index(label) if label in spans.names else -1))
        metrics[f"kernel.decode_ns_per_frame.{short}"] = (
            _ratio(busy(mask) * 1e9, spans.n[mask].sum()), "ns")
    metrics["kernel.soft_ns_per_frame"] = (_ratio(busy(soft) * 1e9, spans.n[soft].sum()), "ns")
    encodes = spans.outer(["code.encode_batch"], lo, hi)
    metrics["kernel.encode_ns_per_frame"] = (
        _ratio(busy(encodes) * 1e9, spans.n[encodes].sum()), "ns")
    metrics["backends.resolve_per_kernel_call"] = (
        _ratio(count(["backends.resolve_backend"]), decodes.sum() + encodes.sum()), "count")

    # streaming and memory lanes
    push = spans.select(["stream.window_push"], lo, hi)
    metrics["stream.window_push_ns_per_frame"] = (
        _ratio(busy(push) * 1e9, spans.n[push].sum()), "ns")
    writes = spans.select(["memory.write"], lo, hi)
    for name, mask in (("write", writes & (spans.aux == 0)), ("rmw", writes & (spans.aux == 1)),
                       ("read", spans.select(["memory.read"], lo, hi)),
                       ("scrub", spans.select(["memory.scrub_step"], lo, hi))):
        metrics[f"memory.{name}_us_per_line"] = (
            _ratio(busy(mask) * 1e6, spans.n[mask].sum()), "us")
    scrubs = spans.select(["memory.scrub_step"], lo, hi)
    metrics["memory.repaired_per_scrubbed_line"] = (
        _ratio(spans.aux[scrubs].sum(), spans.n[scrubs].sum()), "ratio")

    # telemetry and the scrape
    recorders = [n for n in spans.names if n.startswith("telemetry.record_")]
    metrics["telemetry.record_us_per_request"] = (
        _ratio(busy(spans.select(recorders, lo, hi)) * 1e6, requests), "us")
    metrics["telemetry.series"] = (float(spans.meta["series"]), "count")
    renders = spans.select(["telemetry.render_prometheus"], tail[0], tail[1])
    metrics["telemetry.scrape_bytes"] = (
        float(np.median(spans.n[renders])) if renders.any() else 0.0, "B")
    metrics["telemetry.render_ms"] = (
        float(np.median(spans.busy[renders])) * 1e3 if renders.any() else 0.0, "ms")

    # service.session.SessionRegistry through DispatchCore
    for name, span in (("open", "core.open_session"), ("close", "core.close_session")):
        mask = spans.select([span], lo, tail[1])
        metrics[f"registry.{name}_us"] = (
            _ratio(spans.busy[mask].sum() * 1e6, mask.sum()), "us")
    return metrics
