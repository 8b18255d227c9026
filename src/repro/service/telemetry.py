"""Service telemetry: one fixed-width counter row per session.

Each :class:`ServiceTelemetry` (one per dispatch core) owns the counter
rows of its live sessions and one closed-sessions row per ``code``
label.  A row is a fixed layout of int64 columns, one per counter
field, histogram bucket and gauge, plus a float block with the
histograms' sums.  Recording is ``row[column] += n``.  A close adds the
row into its label's closed row in one vector add, and from then on the
closed session's recorder writes into that closed row.

The ``code`` label takes a fixed set that client input cannot grow
(:func:`code_label`), and no label names a session, so the scrape does
not grow with live sessions.  :meth:`ServiceTelemetry.metrics_snapshot`
holds both views of the rows: ``families``, the per-label sums that
``OP_METRICS`` renders, and ``sessions``, each live row.  ``OP_STATS``
is :func:`stats_view`, a pure function of that snapshot, so STATS and
the scrape agree by construction, in-process and pooled.  A frame is
*corrected* when the decoder repaired a bit, *detected* when it flagged
the frame uncorrectable, and *accepted* otherwise.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from bisect import bisect_left
from itertools import product
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS_US,
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

#: Every operation a session records requests, batches and latency for.
OPS = (
    "encode", "decode", "decode_soft", "decode_stream",
    "mem_write", "mem_rmw", "mem_read", "mem_scrub",
)

#: Why a batcher lane flushed.
FLUSH_REASONS = ("size", "turn", "close", "drain")

_OP = (("op", OPS),)
_PATH = (("path", MEMORY_PATH_LABELS),)

#: Every row family: (key, kind, name, labels, help[, buckets]), in
#: column order.  ``labels`` pairs each label with its values, one
#: column (a histogram: one per bucket) per combination.  Counters and
#: gauges also carry ``code``; histograms do not.  Gauges come last: a
#: gauge is a level, not a total, so a close adds only the columns
#: before them, and a label's gauge is over its live rows.
_ROW_FAMILIES = (
    ("requests", "counter", "repro_service_requests_total", _OP,
     "Requests received, by operation."),
    ("frames", "counter", "repro_service_frames_total", _OP,
     "Frames received, by operation."),
    ("batches", "counter", "repro_service_batches_total",
     _OP + (("reason", FLUSH_REASONS),),
     "Micro-batch flushes, by operation and flush reason."),
    ("outcomes", "counter", "repro_service_decoded_frames_total",
     (("outcome", ("corrected", "detected", "accepted")),),
     "Decoded frames by outcome (corrected/detected/accepted)."),
    ("soft", "counter", "repro_service_soft_frames_total",
     (("result", ("decoded", "corrected")),),
     "Soft-path frames (result: decoded = all, corrected = repaired)."),
    ("bits", "counter", "repro_service_corrected_bits_total", (),
     "Total bits repaired by the decoder."),
    ("stream_miss", "counter", "repro_stream_deadline_miss_total", (),
     "Stream codewords forced to a best-effort decision at the deadline."),
    ("stream_decisions", "counter", "repro_stream_decisions_total",
     (("result", ("ontime", "forced", "flushed")),),
     "Stream decode decisions by result "
     "(ontime = window closed, forced = deadline, flushed = drain)."),
    ("memory_ops", "counter", "repro_memory_ops_total", _PATH,
     "Memory-lane decode events, by access path (read/rmw/scrub)."),
    ("memory_sec", "counter", "repro_memory_sec_total", _PATH,
     "Memory lines corrected (SEC events), by access path."),
    ("memory_ded", "counter", "repro_memory_ded_total", _PATH,
     "Memory lines detected uncorrectable (DED events), by access path."),
    ("memory_corrected_bits", "counter", "repro_memory_corrected_bits_total", _PATH,
     "Memory bits repaired by decode, by access path."),
    ("memory_scrubbed_lines", "counter", "repro_memory_scrubbed_lines_total", (),
     "Memory lines swept by the scrubber."),
    ("memory_repaired_lines", "counter", "repro_memory_repaired_lines_total", (),
     "Memory lines the scrubber rewrote with a corrected codeword."),
    ("memory_rot_bits", "counter", "repro_memory_rot_bits_total", (),
     "Raw bits flipped into the store by rot injection."),
    ("latency", "histogram", "repro_service_request_latency_us", _OP,
     "Per-request latency from arrival to batch completion (µs).", LATENCY_BUCKETS_US),
    ("stream_occupancy", "histogram", "repro_stream_window_occupancy", (),
     "Open-codeword window occupancy sampled after each stream push.",
     STREAM_OCCUPANCY_BUCKETS),
    ("batch_max", "gauge", "repro_service_batch_frames_max", (),
     "Largest batch flushed so far (the most of the label's live sessions)."),
    ("stream_pending", "gauge", "repro_stream_window_pending", (),
     "Codewords currently open in the sliding soft window "
     "(summed over the label's live sessions)."),
)

#: Counters one hook writes together are listed together once any of
#: them is nonzero, as their series once appeared on first use: family
#: key -> (group, the labels that split it).  Any other series stands
#: alone.
_TOGETHER = {
    "requests": ("request", ("op",)),
    "frames": ("request", ("op",)),
    "outcomes": ("outcome", ()),
    "bits": ("outcome", ()),
    "soft": ("soft", ()),
    **{
        "memory_" + field: ("memory", ("path",))
        for field in ("ops", "sec", "ded", "corrected_bits")
    },
    **{
        "memory_" + field: ("scrub", ())
        for field in ("scrubbed_lines", "repaired_lines", "rot_bits")
    },
}

#: The core's own families, outside the rows.
_SERVICE_FAMILIES = (
    ("connections", "counter", "repro_service_connections_total",
     "Client connections accepted."),
    ("connections_open", "gauge", "repro_service_connections_open",
     "Client connections currently open."),
    ("protocol_errors", "counter", "repro_service_protocol_errors_total",
     "Malformed frames, unknown opcodes, and oversized payloads."),
)


def _layout():
    """Column of each ``(key, *label values)``, float-block index of each
    histogram's, the scalar series (key, column, labels, group) and
    histogram blocks, and the width."""
    columns, sums, scalars, histograms, groups, width = {}, {}, [], [], {}, 0
    for key, kind, _, labels, _, *buckets in _ROW_FAMILIES:
        names = [name for name, _ in labels]
        size = len(buckets[0]) + 1 if buckets else 1
        for values in product(*(values for _, values in labels)):
            columns[(key, *values)] = width
            series_labels = dict(zip(names, values))
            if buckets:
                sums[(key, *values)] = len(sums)
                histograms.append((key, width, size, series_labels, sums[(key, *values)]))
            else:
                together, split = _TOGETHER.get(key, ((key, *values), ()))
                group = (together, *(series_labels[name] for name in split))
                group = groups.setdefault(group, len(groups))
                scalars.append((key, width, series_labels, group))
            width += size
    return columns, sums, scalars, histograms, width


_COLUMN, _SUM, _SCALARS, _HISTOGRAMS, WIDTH = _layout()

#: Columns a close adds into the closed row: all but the gauges.
_SUMMED = _BATCH_MAX = _COLUMN["batch_max",]
_STREAM_PENDING = _COLUMN["stream_pending",]
_SCALAR_COLUMNS = np.array([column for _, column, _, _ in _SCALARS])
_SCALAR_GROUPS = np.array([group for *_, group in _SCALARS])

# What each hook writes, looked up once per call.
_REQUEST = {op: (_COLUMN["requests", op], _COLUMN["frames", op]) for op in OPS}
_BATCH = {(op, why): _COLUMN["batches", op, why] for op in OPS for why in FLUSH_REASONS}
_LATENCY = {op: (_COLUMN["latency", op], _SUM["latency", op]) for op in OPS}
_OUTCOMES = _COLUMN["outcomes", "corrected"]  # then detected, accepted
_BITS = _COLUMN["bits",]
_SOFT = _COLUMN["soft", "decoded"]  # then corrected
_STREAM_MISS = _COLUMN["stream_miss",]
_STREAM_RESULT = {
    result: _COLUMN["stream_decisions", result] for result in ("ontime", "forced", "flushed")
}
_OCCUPANCY = _COLUMN["stream_occupancy",]
_OCCUPANCY_SUM = _SUM["stream_occupancy",]
_MEMORY_PATH_FIELDS = ("ops", "sec", "ded", "corrected_bits")
_MEMORY_PATH = {
    path: tuple(_COLUMN["memory_" + field, path] for field in _MEMORY_PATH_FIELDS)
    for path in MEMORY_PATH_LABELS
}
_SCRUB = _COLUMN["memory_scrubbed_lines",]  # then repaired_lines, rot_bits

_ZERO_ROW = array("q", bytes(8 * WIDTH))
_ZERO_SUMS = array("d", bytes(8 * len(_SUM)))

#: Family name -> the key :func:`stats_view` groups its series under.
_KEY_OF = {row[2]: row[0] for row in _ROW_FAMILIES + _SERVICE_FAMILIES}

#: STATS memory totals, each family ``"memory_" + field`` less ``_total``.
_MEMORY_TOTALS = ("sec_total", "ded_total", "corrected_bits_total",
                  "scrubbed_lines", "repaired_lines", "rot_bits")


def code_label(name: str) -> str:
    """The ``code`` label of a canonical code name.

    A base code is its own label, an interleaved code drops its depth
    (``interleaved:hamming84:8`` -> ``interleaved:hamming84``) and a
    concatenation keeps its parts, so client input cannot grow the
    label set: 3 bases, their 3 interleavings and the 6 concatenations
    that build.
    """
    if name.startswith("interleaved:"):
        return name.rpartition(":")[0]
    return name


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


class SessionTelemetry:
    """Records one codec session into its counter row.

    :attr:`row` holds :data:`WIDTH` int64 columns and :attr:`sums` the
    histograms' float sums.  Built alone, the recorder belongs to no
    service: the default of a :class:`~repro.service.session.CodecSession`
    built alone.
    """

    __slots__ = ("session_id", "code", "row", "sums")

    def __init__(self, session_id: int = 0, code: str = ""):
        self.session_id = session_id
        self.code = code
        self.row = array("q", _ZERO_ROW)
        self.sums = array("d", _ZERO_SUMS)

    def record_request(self, op: str, n_frames: int) -> None:
        requests, frames = _REQUEST[op]
        row = self.row
        row[requests] += 1
        row[frames] += n_frames

    def record_batch(self, op: str, n_frames: int, reason: str) -> None:
        row = self.row
        row[_BATCH[op, reason]] += 1
        if n_frames > row[_BATCH_MAX]:
            row[_BATCH_MAX] = n_frames

    def record_decode_outcome(
        self,
        corrected_errors: np.ndarray,
        detected_uncorrectable: np.ndarray,
        soft: bool = False,
    ) -> None:
        """Count one decoded batch, classified as :func:`decode_outcomes` does.

        ``soft`` also counts the batch under the soft-path counters.
        """
        corrected = np.asarray(corrected_errors)
        detected = np.asarray(detected_uncorrectable, dtype=bool)
        flagged = int(np.count_nonzero(detected))
        repaired = int(np.count_nonzero((corrected > 0) & ~detected))
        accepted = detected.size - flagged - repaired
        self.record_decode_counts(repaired, flagged, accepted, int(corrected.sum()))
        if soft:
            self.row[_SOFT] += detected.size
            self.row[_SOFT + 1] += repaired

    def record_decode_counts(
        self, corrected: int, detected: int, accepted: int, bits: int
    ) -> None:
        """Count pre-classified decoded frames: :func:`decode_outcomes` column sums."""
        row = self.row
        row[_OUTCOMES] += int(corrected)
        row[_OUTCOMES + 1] += int(detected)
        row[_OUTCOMES + 2] += int(accepted)
        row[_BITS] += int(bits)

    def record_latency_us(self, latency_us: float, op: str) -> None:
        first, total = _LATENCY[op]
        self.row[first + bisect_left(LATENCY_BUCKETS_US, latency_us)] += 1
        self.sums[total] += latency_us

    def record_stream_decisions(self, result: str, count: int) -> None:
        """Count stream decisions (``ontime``/``forced``/``flushed``).

        Every forced decision is also a deadline miss.
        """
        if count <= 0:
            return
        row = self.row
        row[_STREAM_RESULT[result]] += count
        if result == "forced":
            row[_STREAM_MISS] += count

    def update_stream_window(self, pending: int) -> None:
        """Record the window occupancy after a push (gauge + histogram)."""
        row = self.row
        row[_STREAM_PENDING] = pending
        row[_OCCUPANCY + bisect_left(STREAM_OCCUPANCY_BUCKETS, pending)] += 1
        self.sums[_OCCUPANCY_SUM] += pending

    def record_memory_path(
        self,
        path: str,
        corrected_errors: np.ndarray,
        detected_uncorrectable: np.ndarray,
    ) -> None:
        """Charge one memory-lane decode batch to path ``path``.

        Classified as :meth:`~repro.memory.frontend.PathCounters.charge`
        does, so the counters sum to exactly the frontend's own ledger.
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
        ops_column, sec_column, ded_column, bits_column = _MEMORY_PATH[path]
        row = self.row
        row[ops_column] += int(ops)
        row[sec_column] += int(sec)
        row[ded_column] += int(ded)
        row[bits_column] += int(corrected_bits)

    def record_memory_scrub(
        self, scrubbed_lines: int, repaired_lines: int, rot_bits: int
    ) -> None:
        """Record one scrub step's sweep width, repairs and injected rot."""
        row = self.row
        row[_SCRUB] += int(scrubbed_lines)
        row[_SCRUB + 1] += int(repaired_lines)
        row[_SCRUB + 2] += int(rot_bits)


class _ClosedRow:
    """The closed sessions' sums for one ``code`` label."""

    __slots__ = ("row", "sums")

    def __init__(self):
        self.row = np.zeros(WIDTH, np.int64)
        self.sums = np.zeros(len(_SUM))


class ServiceTelemetry:
    """A core's session rows, closed rows, connection counters and STATS view."""

    def __init__(self):
        # perf_counter, like the batcher and tracer, so uptime and
        # throughput share the latency attributions' timebase.
        self.started_at = time.perf_counter()
        self.registry = MetricsRegistry()
        self.families = {
            key: getattr(self.registry, kind)(name, help_text)
            for key, kind, name, help_text in _SERVICE_FAMILIES
        }
        self._connections_total = self.families["connections"].labels()
        self._connections_open = self.families["connections_open"].labels()
        self._protocol_errors = self.families["protocol_errors"].labels()
        self._live: Dict[int, SessionTelemetry] = {}
        self._closed: Dict[str, _ClosedRow] = defaultdict(_ClosedRow)

    @property
    def uptime_s(self) -> float:
        """Seconds since this telemetry started, on ``perf_counter``."""
        return time.perf_counter() - self.started_at

    def session(self, session_id: int, code: Optional[str] = None) -> SessionTelemetry:
        """A new row for live session ``session_id`` of canonical code ``code``."""
        telemetry = SessionTelemetry(session_id, code_label(code or ""))
        self._live[session_id] = telemetry
        return telemetry

    def drop_session(self, telemetry: SessionTelemetry) -> None:
        """Add a closed session's row into its label's closed row.

        The counters and histogram buckets add in one vector add and the
        sums in another; the gauges are levels and are left out.  The
        recorder then writes into the closed row, so a record racing
        the close lands in the totals and never in a later session's
        row.  Dropping a recorder that is not live does nothing.
        """
        if self._live.get(telemetry.session_id) is not telemetry:
            return
        del self._live[telemetry.session_id]
        closed = self._closed[telemetry.code]
        closed.row[:_SUMMED] += np.frombuffer(telemetry.row, np.int64)[:_SUMMED]
        closed.sums += np.frombuffer(telemetry.sums)
        telemetry.row, telemetry.sums = closed.row, closed.sums

    def connection_opened(self) -> None:
        self._connections_total.inc()
        self._connections_open.inc()

    def connection_closed(self) -> None:
        # Clamp at zero: crash teardown may report one socket twice.
        self._connections_open.set(max(self._connections_open.value - 1, 0))

    def record_protocol_error(self, count: int = 1) -> None:
        self._protocol_errors.inc(count)

    def families_snapshot(self) -> Dict:
        """What ``OP_METRICS`` renders: the ``families`` of :meth:`metrics_snapshot`."""
        return self._snapshot()[0]

    def metrics_snapshot(self) -> Dict:
        """What ``OP_STATS`` reads and a pool worker ships to the front.

        ``families`` holds the row families as sums per ``code`` label
        over the live and closed rows (histograms per ``op`` over every
        row), beside this core's connection counters and the
        process-default registry's families (experiment-engine and
        cache metrics; the names are disjoint).  ``sessions`` maps each
        live session id (a string) to its row's nonzero columns, as
        ``[columns, values]``.
        """
        snapshot, live, ints = self._snapshot()
        snapshot["sessions"] = _sparse_rows(live, ints[: len(live)])
        return snapshot

    def _snapshot(self) -> Tuple[Dict, List[SessionTelemetry], np.ndarray]:
        """The families, the live recorders and the stacked rows, live first."""
        live = list(self._live.values())
        codes = [telemetry.code for telemetry in live] + list(self._closed)
        rows = live + list(self._closed.values())
        ints = _stack([telemetry.row for telemetry in rows], np.int64, WIDTH)
        sums = _stack([telemetry.sums for telemetry in rows], np.float64, len(_SUM))
        families = _row_families(codes, ints, sums)
        for registry in (self.registry, default_registry()):
            families += registry.snapshot()["families"]
        families.sort(key=lambda family: family["name"])
        return {"families": families}, live, ints


def _stack(rows: List[array], dtype, width: int) -> np.ndarray:
    """Rows of one type as a ``(len(rows), width)`` matrix (one copy)."""
    return np.frombuffer(b"".join(rows), dtype).reshape(len(rows), width)


def _scalar_series(row: np.ndarray, code: str) -> Iterator[Tuple[str, Dict]]:
    """``row``'s counters and gauges whose group has a nonzero one, as
    ``(key, series)``."""
    picked = row[_SCALAR_COLUMNS]
    shown = np.zeros(len(_SCALAR_GROUPS), bool)
    shown[_SCALAR_GROUPS[picked != 0]] = True
    values = picked.tolist()
    for index in np.flatnonzero(shown[_SCALAR_GROUPS]).tolist():
        key, _, labels, _ = _SCALARS[index]
        yield key, {"labels": dict(labels, code=code), "value": values[index]}


def _histogram_series(
    row: np.ndarray, sums: Optional[np.ndarray] = None
) -> Iterator[Tuple[str, Dict]]:
    """``row``'s histograms with samples, as ``(key, series)``."""
    for key, first, size, labels, total in _HISTOGRAMS:
        counts = row[first:first + size]
        if counts.any():
            value = 0.0 if sums is None else float(sums[total])
            yield key, {"labels": dict(labels), "counts": counts.tolist(), "sum": value}


def _row_families(codes: List[str], ints: np.ndarray, sums: np.ndarray) -> List[Dict]:
    """The row families of a snapshot: ``ints`` summed per label in ``codes``.

    A label's largest batch is the most of its rows (closed rows hold
    no gauge).  A series is listed once its sum, or that of a series in
    its group, is nonzero.
    """
    series: Dict[str, List[Dict]] = {key: [] for key, *_ in _ROW_FAMILIES}
    by_code: Dict[str, List[int]] = {}
    for index, code in enumerate(codes):
        by_code.setdefault(code, []).append(index)
    for code in sorted(by_code):
        block = ints[by_code[code]]
        total = block.sum(axis=0)
        total[_BATCH_MAX] = block[:, _BATCH_MAX].max()
        for key, entry in _scalar_series(total, code):
            series[key].append(entry)
    for key, entry in _histogram_series(ints.sum(axis=0), sums.sum(axis=0)):
        series[key].append(entry)
    families = []
    for key, kind, name, labels, help_text, *buckets in _ROW_FAMILIES:
        labelnames = [label for label, _ in labels]
        family = {
            "name": name,
            "type": kind,
            "help": help_text,
            "labelnames": labelnames if buckets else ["code", *labelnames],
            "series": series[key],
        }
        if buckets:
            family["buckets"] = [float(bound) for bound in buckets[0]]
        families.append(family)
    return families


def _sparse_rows(live: List[SessionTelemetry], ints: np.ndarray) -> Dict[str, List]:
    """Each live row's nonzero ``[columns, values]`` by session id."""
    rows, columns = np.nonzero(ints)
    values = ints[rows, columns].tolist()
    bounds = np.searchsorted(rows, np.arange(len(live) + 1)).tolist()
    columns = columns.tolist()
    return {
        str(telemetry.session_id): [columns[start:end], values[start:end]]
        for telemetry, start, end in zip(live, bounds, bounds[1:])
    }


def merge_telemetry(snapshots: List[Dict], workers: List[str]) -> Dict:
    """A pool's snapshots as one: every family series gets the ``worker``
    label of its snapshot, and ``sessions`` holds every snapshot's rows
    (each session lives on one worker)."""
    merged = merge_snapshots(snapshots, [{"worker": worker} for worker in workers])
    merged["sessions"] = {
        session_id: row
        for snapshot in snapshots
        for session_id, row in snapshot["sessions"].items()
    }
    return merged


# ---------------------------------------------------------------------
# STATS: a pure view over a (merged) snapshot
# ---------------------------------------------------------------------
def _row_group(sparse: Optional[List]) -> Dict[str, List]:
    """A live row's series by key, as :func:`stats_view` groups a family's."""
    group: Dict[str, List] = {}
    if sparse is None:
        return group
    row = np.zeros(WIDTH, np.int64)
    row[sparse[0]] = sparse[1]
    for key, entry in (*_scalar_series(row, ""), *_histogram_series(row)):
        group.setdefault(key, []).append(entry)
    return group


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
    """The STATS payload: a pure function of a telemetry snapshot.

    ``snapshot`` may be a pool's merge (``worker`` labels, the front's
    ``"front"``; ``sessions`` the union of every worker's rows).
    ``sessions`` is the session table, ``{id: {"config", "uptime_s"[,
    "worker"]}}``; each session's counters are its row in the
    snapshot's ``sessions``.  Totals sum every family's series, so they
    match the scrape and never drop.  ``workers`` (pools only) holds
    each worker's ``index``/``pid``/``restarts``/``ready``/``uptime_s``/
    ``sessions``; its summary sums the series with its ``worker`` label.
    """
    everything: Dict[str, List] = {}
    by_worker: Dict[str, Dict] = {}
    for family in snapshot.get("families", ()):
        key = _KEY_OF.get(family["name"])
        for series in family["series"] if key else ():
            worker = series["labels"].get("worker", "front")
            for group in (everything, by_worker.setdefault(worker, {})):
                group.setdefault(key, []).append(series)
    rows = snapshot.get("sessions", {})
    frames = _total(everything, "frames")
    stats = {
        "uptime_s": round(uptime_s, 3),
        "connections_total": _total(everything, "connections"),
        "connections_open": int(_total(everything, "connections_open")),
        "protocol_errors": _total(everything, "protocol_errors"),
        "frames_total": frames,
        "throughput_fps": round(frames / max(uptime_s, 1e-9), 1),
        "sessions": {
            str(sid): _session_entry(_row_group(rows.get(str(sid))), sessions[sid])
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
