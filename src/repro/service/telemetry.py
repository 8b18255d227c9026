"""Service telemetry: one metrics registry per process, STATS a view of it.

Every counter, gauge and latency histogram of the codec service is a
labelled series on the registry of the process's :class:`ServiceTelemetry`
(the one ``OP_METRICS`` renders) and nowhere else; ``OP_STATS`` is
:func:`stats_view`, a pure function of a (merged) registry snapshot, so
STATS and the scrape agree by construction, in-process and pooled.  A
frame is *corrected* when the decoder repaired a bit, *detected* when it
flagged the frame uncorrectable, and *accepted* otherwise.  Series stay
bounded by the live sessions: closed sessions fold into ``session=""``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS_US,
    MetricFamily,
    MetricsRegistry,
    bucket_percentile,
    default_registry,
    merge_snapshots,
)

#: Request-latency bucket edges (µs); pooled STATS sums them across workers.
LATENCY_BUCKETS_US = DEFAULT_TIME_BUCKETS_US

#: Bucket layout of the stream window-occupancy histogram (codewords).
STREAM_OCCUPANCY_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: :data:`repro.memory.MEMORY_PATHS`, literal so importing this skips memory.
MEMORY_PATH_LABELS = ("read", "rmw", "scrub")

#: Labels of every per-session series; closed sessions fold into ``session=""``.
SESSION_LABELS = _S = ("session", "code")

#: Every service family: (key, kind, name, labels, help[, buckets]).
_FAMILIES = (
    ("requests", "counter", "repro_service_requests_total", _S + ("op",),
     "Requests received, by operation."),
    ("frames", "counter", "repro_service_frames_total", _S + ("op",),
     "Frames received, by operation."),
    ("batches", "counter", "repro_service_batches_total", _S + ("op", "reason"),
     "Micro-batch flushes, by operation and flush reason."),
    ("latency", "histogram", "repro_service_request_latency_us", _S + ("op",),
     "Per-request latency from arrival to batch completion (µs).", LATENCY_BUCKETS_US),
    ("outcomes", "counter", "repro_service_decoded_frames_total", _S + ("outcome",),
     "Decoded frames by outcome (corrected/detected/accepted)."),
    ("soft", "counter", "repro_service_soft_frames_total", _S + ("result",),
     "Soft-path frames (result: decoded = all, corrected = repaired)."),
    ("bits", "counter", "repro_service_corrected_bits_total", _S,
     "Total bits repaired by the decoder."),
    ("batch_max", "gauge", "repro_service_batch_frames_max", _S,
     "Largest batch flushed so far."),
    ("stream_miss", "counter", "repro_stream_deadline_miss_total", _S,
     "Stream codewords forced to a best-effort decision at the deadline."),
    ("stream_decisions", "counter", "repro_stream_decisions_total", _S + ("result",),
     "Stream decode decisions by result "
     "(ontime = window closed, forced = deadline, flushed = drain)."),
    ("stream_pending", "gauge", "repro_stream_window_pending", _S,
     "Codewords currently open in the sliding soft window."),
    ("stream_occupancy", "histogram", "repro_stream_window_occupancy", _S,
     "Open-codeword window occupancy sampled after each stream push.",
     STREAM_OCCUPANCY_BUCKETS),
    ("memory_ops", "counter", "repro_memory_ops_total", _S + ("path",),
     "Memory-lane decode events, by access path (read/rmw/scrub)."),
    ("memory_sec", "counter", "repro_memory_sec_total", _S + ("path",),
     "Memory lines corrected (SEC events), by access path."),
    ("memory_ded", "counter", "repro_memory_ded_total", _S + ("path",),
     "Memory lines detected uncorrectable (DED events), by access path."),
    ("memory_corrected_bits", "counter", "repro_memory_corrected_bits_total",
     _S + ("path",), "Memory bits repaired by decode, by access path."),
    ("memory_scrubbed_lines", "counter", "repro_memory_scrubbed_lines_total", _S,
     "Memory lines swept by the scrubber."),
    ("memory_repaired_lines", "counter", "repro_memory_repaired_lines_total", _S,
     "Memory lines the scrubber rewrote with a corrected codeword."),
    ("memory_rot_bits", "counter", "repro_memory_rot_bits_total", _S,
     "Raw bits flipped into the store by rot injection."),
    ("connections", "counter", "repro_service_connections_total", (),
     "Client connections accepted."),
    ("connections_open", "gauge", "repro_service_connections_open", (),
     "Client connections currently open."),
    ("protocol_errors", "counter", "repro_service_protocol_errors_total", (),
     "Malformed frames, unknown opcodes, and oversized payloads."),
)

#: Family name -> the key :func:`stats_view` groups its series under.
_KEY_OF = {row[2]: row[0] for row in _FAMILIES}

#: Per-path memory counters, each the family ``"memory_" + field``.
_MEMORY_PATH_FIELDS = ("ops", "sec", "ded", "corrected_bits")

#: STATS memory totals, each family ``"memory_" + field`` less ``_total``.
_MEMORY_TOTALS = ("sec_total", "ded_total", "corrected_bits_total",
                  "scrubbed_lines", "repaired_lines", "rot_bits")


def decode_outcomes(corrected_errors, detected_uncorrectable) -> np.ndarray:
    """Each decoded frame's outcome counts: a ``(batch, 4)`` int64 array.

    The columns are ``corrected``, ``detected``, ``accepted`` and
    ``bits``.  A frame counts once as corrected (the decoder repaired a
    bit and raised no flag), detected (flagged uncorrectable) or
    accepted (neither), and ``bits`` is its corrected bit count.  The
    column sums are what :meth:`SessionTelemetry.record_decode_counts`
    takes.
    """
    corrected = np.asarray(corrected_errors, dtype=np.int64)
    detected = np.asarray(detected_uncorrectable, dtype=bool)
    return np.stack(
        [(corrected > 0) & ~detected, detected, ~detected & (corrected == 0), corrected],
        axis=1,
    )


def declare_families(registry: MetricsRegistry) -> Dict[str, MetricFamily]:
    """Register every service family on ``registry``; returns key -> family."""
    return {
        key: getattr(registry, kind)(name, help_text, labels, *buckets)
        for key, kind, name, labels, help_text, *buckets in _FAMILIES
    }


class _Series(dict):
    """One session's series by ``(family key, label values...)``, made on use."""

    def __init__(self, families: Dict[str, MetricFamily], labels: Dict[str, str]):
        super().__init__()
        self.families = families
        self.labels = labels

    def __missing__(self, key: tuple):
        family = self.families[key[0]]
        extra = dict(zip(family.labelnames[len(SESSION_LABELS):], key[1:]))
        child = self[key] = family.labels(**self.labels, **extra)
        return child


class SessionTelemetry:
    """Records one codec session, creating each series on first use.

    ``families=None`` declares the families on a private registry: the
    default of a :class:`~repro.service.session.CodecSession` built alone.
    """

    def __init__(
        self,
        families: Optional[Dict[str, MetricFamily]] = None,
        labels: Optional[Dict[str, str]] = None,
    ):
        if families is None:
            families = declare_families(MetricsRegistry())
        base = dict.fromkeys(SESSION_LABELS, "")
        self._series = _Series(families, dict(base, **(labels or {})))

    def record_request(self, op: str, n_frames: int) -> None:
        series = self._series
        series["requests", op].inc()
        series["frames", op].inc(n_frames)

    def record_batch(self, op: str, n_frames: int, reason: str) -> None:
        series = self._series
        series["batches", op, reason].inc()
        series[("batch_max",)].set_max(n_frames)

    def record_decode_outcome(
        self,
        corrected_errors: np.ndarray,
        detected_uncorrectable: np.ndarray,
        soft: bool = False,
    ) -> None:
        """Count one decoded batch, classified as :func:`decode_outcomes` does.

        ``soft`` also counts the batch under the soft-path series.
        """
        corrected = np.asarray(corrected_errors)
        detected = np.asarray(detected_uncorrectable, dtype=bool)
        flagged = int(np.count_nonzero(detected))
        repaired = int(np.count_nonzero((corrected > 0) & ~detected))
        accepted = detected.size - flagged - repaired
        self.record_decode_counts(repaired, flagged, accepted, int(corrected.sum()))
        if soft:
            self._series["soft", "decoded"].inc(detected.size)
            self._series["soft", "corrected"].inc(repaired)

    def record_decode_counts(
        self, corrected: int, detected: int, accepted: int, bits: int
    ) -> None:
        """Count pre-classified decoded frames: :func:`decode_outcomes` column sums."""
        series = self._series
        series["outcomes", "corrected"].inc(int(corrected))
        series["outcomes", "detected"].inc(int(detected))
        series["outcomes", "accepted"].inc(int(accepted))
        series[("bits",)].inc(int(bits))

    def record_latency_us(self, latency_us: float, op: str = "") -> None:
        self._series["latency", op].observe(float(latency_us))

    def record_stream_decisions(self, result: str, count: int) -> None:
        """Count stream decisions (``ontime``/``forced``/``flushed``).

        Every forced decision is also a deadline miss.
        """
        if count <= 0:
            return
        self._series["stream_decisions", result].inc(count)
        if result == "forced":
            self._series[("stream_miss",)].inc(count)

    def update_stream_window(self, pending: int) -> None:
        """Record the window occupancy after a push (gauge + histogram)."""
        self._series[("stream_pending",)].set(pending)
        self._series[("stream_occupancy",)].observe(float(pending))

    def record_memory_path(
        self,
        path: str,
        corrected_errors: np.ndarray,
        detected_uncorrectable: np.ndarray,
    ) -> None:
        """Charge one memory-lane decode batch to path ``path``.

        Classified as :meth:`~repro.memory.frontend.PathCounters.charge`
        does, so the series sum to exactly the frontend's own ledger.
        """
        corrected = np.asarray(corrected_errors)
        detected = np.asarray(detected_uncorrectable, dtype=bool)
        self.record_memory_counts(
            path,
            ops=int(corrected.shape[0]),
            sec=int(np.count_nonzero((corrected > 0) & ~detected)),
            ded=int(np.count_nonzero(detected)),
            corrected_bits=int(corrected[~detected].sum()),
        )

    def record_memory_counts(
        self, path: str, ops: int, sec: int, ded: int, corrected_bits: int
    ) -> None:
        """Charge pre-classified SEC/DED counts to path ``path``."""
        series = self._series
        series["memory_ops", path].inc(int(ops))
        series["memory_sec", path].inc(int(sec))
        series["memory_ded", path].inc(int(ded))
        series["memory_corrected_bits", path].inc(int(corrected_bits))

    def record_memory_scrub(
        self, scrubbed_lines: int, repaired_lines: int, rot_bits: int
    ) -> None:
        """Record one scrub step's sweep width, repairs and injected rot."""
        series = self._series
        series[("memory_scrubbed_lines",)].inc(int(scrubbed_lines))
        series[("memory_repaired_lines",)].inc(int(repaired_lines))
        series[("memory_rot_bits",)].inc(int(rot_bits))


class ServiceTelemetry:
    """The process's service families, connection counters and STATS view."""

    def __init__(self):
        # perf_counter, like the batcher and tracer, so uptime and
        # throughput share the latency attributions' timebase.
        self.started_at = time.perf_counter()
        self.registry = MetricsRegistry()
        self.families = declare_families(self.registry)
        self._connections_total = self.families["connections"].labels()
        self._connections_open = self.families["connections_open"].labels()
        self._protocol_errors = self.families["protocol_errors"].labels()

    @property
    def uptime_s(self) -> float:
        """Seconds since this telemetry started, on ``perf_counter``."""
        return time.perf_counter() - self.started_at

    def session(self, session_id: int, code: Optional[str] = None) -> SessionTelemetry:
        """A recorder for session ``session_id`` on this registry."""
        labels = {"session": str(session_id), "code": code or ""}
        return SessionTelemetry(self.families, labels)

    def drop_session(self, telemetry: SessionTelemetry) -> None:
        """Fold a closed session's series into the ``session=""`` series.

        Counters and histograms add into the series with the same labels
        and ``session=""`` (rendered with no ``session`` label); gauges
        are removed.  Totals never drop, series stay bounded by the live
        sessions, and the cost is O(the session's series).  A record
        racing the close lands in the folded series.
        """
        series = telemetry._series
        for key, child in series.items():
            series.families[key[0]].fold(child, session="")
        series.clear()
        series.labels["session"] = ""

    def connection_opened(self) -> None:
        self._connections_total.inc()
        self._connections_open.inc()

    def connection_closed(self) -> None:
        # Clamp at zero: crash teardown may report one socket twice.
        self._connections_open.set(max(self._connections_open.value - 1, 0))

    def record_protocol_error(self, count: int = 1) -> None:
        self._protocol_errors.inc(count)

    def metrics_snapshot(self) -> Dict:
        """What ``OP_METRICS`` renders and a pool worker ships to the front.

        This registry merged with the process-default one (experiment-engine
        and cache metrics; the family names are disjoint).
        """
        registries = (self.registry, default_registry())
        return merge_snapshots([registry.snapshot() for registry in registries])


# ---------------------------------------------------------------------
# STATS: a pure view over a (merged) registry snapshot
# ---------------------------------------------------------------------
def _by(group: Dict, key: str, label: str) -> Dict[str, int]:
    """Family ``key``'s series summed per value of ``label`` (nonzero only)."""
    out: Dict[str, int] = {}
    for series in group.get(key, ()):
        value = series["labels"][label]
        out[value] = out.get(value, 0) + series["value"]
    return {value: total for value, total in out.items() if total}


def _total(group: Dict, key: str):
    return sum(series["value"] for series in group.get(key, ()))


def _latency(group: Dict) -> Dict:
    columns = zip(*(series["counts"] for series in group.get("latency", ())))
    counts = [sum(column) for column in columns] or [0] * (len(LATENCY_BUCKETS_US) + 1)
    return {
        "samples": sum(counts),
        "p50_us": round(bucket_percentile(counts, LATENCY_BUCKETS_US, 50.0), 1),
        "p99_us": round(bucket_percentile(counts, LATENCY_BUCKETS_US, 99.0), 1),
        "buckets": counts,
    }


def _memory(group: Dict) -> Dict:
    families = ("memory_" + field.removesuffix("_total") for field in _MEMORY_TOTALS)
    return {field: _total(group, key) for field, key in zip(_MEMORY_TOTALS, families)}


def _session_entry(group: Dict, row: Dict) -> Dict:
    frames = _by(group, "frames", "op")
    reasons = _by(group, "batches", "reason")
    outcomes = _by(group, "outcomes", "outcome")
    soft = _by(group, "soft", "result")
    paths = {f: _by(group, "memory_" + f, "path") for f in _MEMORY_PATH_FIELDS}
    total, batches = sum(frames.values()), sum(reasons.values())
    uptime = row["uptime_s"]
    return dict(
        row,
        uptime_s=round(uptime, 3),
        requests=_by(group, "requests", "op"),
        frames=frames,
        throughput_fps=round(total / max(uptime, 1e-9), 1),
        corrected_frames=outcomes.get("corrected", 0),
        detected_frames=outcomes.get("detected", 0),
        accepted_frames=outcomes.get("accepted", 0),
        corrected_bits=_total(group, "bits"),
        soft_decoded_frames=soft.get("decoded", 0),
        soft_corrected_frames=soft.get("corrected", 0),
        batches=batches,
        mean_batch_frames=round(total / batches, 2) if batches else 0.0,
        max_batch_frames=int(_total(group, "batch_max")),
        flush_reasons=reasons,
        latency=_latency(group),
        stream={
            "deadline_misses": _total(group, "stream_miss"),
            "decisions": _by(group, "stream_decisions", "result"),
            "window_pending": int(_total(group, "stream_pending")),
        },
        memory=dict(
            _memory(group),
            paths={
                path: {f: counts.get(path, 0) for f, counts in paths.items()}
                for path in MEMORY_PATH_LABELS
            },
        ),
    )


def _worker_entry(group: Dict, row: Dict) -> Dict:
    frames, uptime = _total(group, "frames"), row["uptime_s"]
    return dict(
        {key: row[key] for key in ("index", "pid", "restarts", "ready", "sessions")},
        uptime_s=round(uptime, 3),
        frames_total=frames,
        throughput_fps=round(frames / max(uptime, 1e-9), 1),
        flush_reasons=_by(group, "batches", "reason"),
        memory=_memory(group),
        latency=_latency(group),
    )


def stats_view(
    snapshot: Dict,
    sessions: Dict[int, Dict],
    uptime_s: float,
    workers: Optional[List[Dict]] = None,
) -> Dict:
    """The STATS payload: a pure function of a registry snapshot.

    ``snapshot`` may be a pool's merge (``worker`` labels, the front's
    ``"front"``).  ``sessions`` is the session table, ``{id: {"config",
    "uptime_s"[, "worker"]}}``; each session's counters are its
    ``session``-labelled series.  Totals sum every series, so they match
    the scrape and never drop.  ``workers`` (pools only) holds each
    worker's ``index``/``pid``/``restarts``/``ready``/``uptime_s``/
    ``sessions``; its summary sums the series with its ``worker`` label.
    """
    everything: Dict[str, List] = {}
    by_session: Dict[str, Dict] = {}
    by_worker: Dict[str, Dict] = {}
    for family in snapshot.get("families", ()):
        key = _KEY_OF.get(family["name"])
        for series in family["series"] if key else ():
            labels = series["labels"]
            worker = labels.get("worker", "front")
            groups = [everything, by_worker.setdefault(worker, {})]
            if labels.get("session"):
                groups.append(by_session.setdefault(labels["session"], {}))
            for group in groups:
                group.setdefault(key, []).append(series)
    frames = _total(everything, "frames")
    stats = {
        "uptime_s": round(uptime_s, 3),
        "connections_total": _total(everything, "connections"),
        "connections_open": int(_total(everything, "connections_open")),
        "protocol_errors": _total(everything, "protocol_errors"),
        "frames_total": frames,
        "throughput_fps": round(frames / max(uptime_s, 1e-9), 1),
        "sessions": {
            str(sid): _session_entry(by_session.get(str(sid), {}), sessions[sid])
            for sid in sorted(sessions, key=int)
        },
    }
    if workers is not None:
        stats["mode"] = "pool"
        stats["workers"] = [
            _worker_entry(by_worker.get(str(row["index"]), {}), row)
            for row in sorted(workers, key=lambda row: row["index"])
        ]
    return stats
