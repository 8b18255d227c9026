"""Observability layer: metrics registry, tracing, and scrapes.

The load-bearing property under test is **exact mergeability**: the
fixed-log-bucket histograms must merge across pool workers by summing
bucket counts, so the pooled ``repro metrics`` scrape equals the legacy
STATS rollup counter-for-counter.  Everything else — Prometheus
rendering, deterministic trace sampling — protects the paths that feed
that scrape.
"""

import asyncio
import json
import math

import numpy as np
import pytest

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS_US,
    Histogram,
    MetricsRegistry,
    bucket_percentile,
    log_buckets,
    merge_snapshots,
    render_prometheus,
)
from repro.obs.tracing import (
    Tracer,
    current_trace_id,
    read_events,
    reset_tracer,
    summarize_events,
    tail_events,
    trace_scope,
)
from repro.service import CodecClient, CodecServer, DispatchCore, SessionConfig, protocol
from repro.service.telemetry import LATENCY_BUCKETS_US

#: Hard wall-clock bound on every async scenario in this file.
SCENARIO_TIMEOUT_S = 30.0


def run(coro, timeout: float = SCENARIO_TIMEOUT_S):
    async def bounded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(bounded())


def parse_prometheus(text):
    """Parse the text exposition into ``{(name, labels-tuple): value}``."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, value = line.rsplit(" ", 1)
        if "{" in name_labels:
            name, label_part = name_labels.split("{", 1)
            labels = {}
            for item in label_part.rstrip("}").split(","):
                key, raw = item.split("=", 1)
                labels[key] = raw.strip('"')
        else:
            name, labels = name_labels, {}
        series[(name, tuple(sorted(labels.items())))] = float(value)
    return series


# ---------------------------------------------------------------------
# Histograms (bucket layout, edges, exact mergeability)
# ---------------------------------------------------------------------
class TestLogBuckets:
    def test_layout(self):
        assert log_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            log_buckets(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            log_buckets(1.0, 2.0, 0)


class TestHistogram:
    def test_empty_histogram(self):
        hist = Histogram({}, (1.0, 2.0, 4.0))
        assert hist.count == 0
        assert hist.sum == 0.0
        assert hist.percentile(50.0) == 0.0
        assert hist.percentile(99.0) == 0.0

    def test_one_sample(self):
        hist = Histogram({}, (1.0, 2.0, 4.0))
        hist.observe(1.5)
        assert hist.count == 1
        # Every percentile of a single sample is its bucket's upper edge.
        for q in (0.0, 50.0, 100.0):
            assert hist.percentile(q) == 2.0

    def test_le_boundary_semantics(self):
        # A value equal to an edge belongs to that edge's bucket
        # (Prometheus ``le`` semantics), not the next one.
        hist = Histogram({}, (1.0, 2.0, 4.0))
        for value in (1.0, 2.0, 4.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1, 0]

    def test_overflow_bucket_and_saturated_percentile(self):
        hist = Histogram({}, (1.0, 2.0, 4.0))
        hist.observe(1e9)
        assert hist.counts == [0, 0, 0, 1]
        # The estimate saturates at the last finite edge.
        assert hist.percentile(50.0) == 4.0

    def test_merge_is_exact(self):
        bounds = log_buckets(1.0, 2.0, 10)
        rng = np.random.default_rng(7)
        left, right, whole = (
            Histogram({}, bounds),
            Histogram({}, bounds),
            Histogram({}, bounds),
        )
        samples = np.exp(rng.uniform(0.0, 8.0, size=500))
        for i, value in enumerate(samples):
            (left if i % 2 else right).observe(value)
            whole.observe(value)
        left.merge(right)
        assert left.counts == whole.counts
        assert left.sum == pytest.approx(whole.sum)
        assert left.count == 500

    def test_merge_rejects_different_buckets(self):
        with pytest.raises(ValueError):
            Histogram({}, (1.0, 2.0)).merge(Histogram({}, (1.0, 3.0)))

    def test_percentiles_agree_with_numpy_within_one_bucket(self):
        # The nearest-rank bucket estimate must bracket the exact order
        # statistic within one (factor-2) bucket width.
        rng = np.random.default_rng(20260808)
        samples = np.exp(rng.uniform(0.0, math.log(8e6), size=5000))
        hist = Histogram({}, DEFAULT_TIME_BUCKETS_US)
        for value in samples:
            hist.observe(value)
        for q in (10.0, 50.0, 90.0, 99.0):
            exact = float(np.percentile(samples, q))
            estimate = hist.percentile(q)
            assert estimate >= exact / 2.0
            assert estimate <= exact * 2.0

    def test_bucket_percentile_empty_bounds(self):
        assert bucket_percentile([], [], 50.0) == 0.0
        with pytest.raises(ValueError):
            bucket_percentile([1], [1.0], 150.0)


# ---------------------------------------------------------------------
# Registry, rendering, and snapshot merging
# ---------------------------------------------------------------------
class TestRegistry:
    def test_reregistration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("demo_total", "d", ("op",))
        assert registry.counter("demo_total", "d", ("op",)) is first

    def test_conflicting_registration_raises(self):
        registry = MetricsRegistry()
        registry.counter("demo_total", "d", ("op",))
        with pytest.raises(ValueError):
            registry.gauge("demo_total", "d", ("op",))
        with pytest.raises(ValueError):
            registry.counter("demo_total", "d", ("other",))

    def test_label_validation(self):
        registry = MetricsRegistry()
        family = registry.counter("demo_total", "d", ("op",))
        with pytest.raises(ValueError):
            family.labels(nope="x")
        with pytest.raises(ValueError):
            registry.counter("0bad", "d")

    def test_counter_rejects_negative(self):
        child = MetricsRegistry().counter("demo_total").labels()
        with pytest.raises(ValueError):
            child.inc(-1)

    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("demo_total", "d", ("op",)).labels(op="x").inc(3)
        registry.histogram("demo_us", "d", buckets=(1.0, 2.0)).labels().observe(1.5)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert {f["name"] for f in snapshot["families"]} == {
            "demo_total", "demo_us",
        }


class TestPrometheusRendering:
    def test_counter_and_label_elision(self):
        registry = MetricsRegistry()
        family = registry.counter("demo_total", "a demo", ("op", "code"))
        family.labels(op="decode", code="").inc(2)
        text = render_prometheus(registry.snapshot())
        assert "# HELP demo_total a demo" in text
        assert "# TYPE demo_total counter" in text
        # Empty label values are elided, not rendered as code="".
        assert 'demo_total{op="decode"} 2' in text

    def test_histogram_renders_cumulative_buckets(self):
        registry = MetricsRegistry()
        child = registry.histogram("demo_us", "d", buckets=(1.0, 2.0)).labels()
        for value in (0.5, 1.5, 99.0):
            child.observe(value)
        series = parse_prometheus(render_prometheus(registry.snapshot()))
        assert series[("demo_us_bucket", (("le", "1"),))] == 1
        assert series[("demo_us_bucket", (("le", "2"),))] == 2
        assert series[("demo_us_bucket", (("le", "+Inf"),))] == 3
        assert series[("demo_us_count", ())] == 3
        assert series[("demo_us_sum", ())] == pytest.approx(101.0)


class TestMergeSnapshots:
    def _registry(self, decode_count, latency_values):
        registry = MetricsRegistry()
        registry.counter("demo_total", "d", ("op",)).labels(op="decode").inc(
            decode_count
        )
        hist = registry.histogram("demo_us", "d", buckets=(1.0, 2.0, 4.0)).labels()
        for value in latency_values:
            hist.observe(value)
        return registry

    def test_merge_sums_exactly_and_tags_sources(self):
        left = self._registry(3, [0.5, 3.0])
        right = self._registry(4, [1.5])
        merged = merge_snapshots(
            [left.snapshot(), right.snapshot()],
            extra_labels=[{"worker": "0"}, {"worker": "1"}],
        )
        by_name = {f["name"]: f for f in merged["families"]}
        counters = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in by_name["demo_total"]["series"]
        }
        assert counters[(("op", "decode"), ("worker", "0"))] == 3
        assert counters[(("op", "decode"), ("worker", "1"))] == 4
        # Without the tag the same series would have summed to 7.
        untagged = merge_snapshots([left.snapshot(), right.snapshot()])
        assert untagged["families"][0]["series"][0]["value"] == 7
        hist = {f["name"]: f for f in untagged["families"]}["demo_us"]
        assert hist["series"][0]["counts"] == [1, 1, 1, 0]

    def test_merge_rejects_layout_mismatches(self):
        registry = MetricsRegistry()
        registry.histogram("demo_us", "d", buckets=(1.0,)).labels().observe(0.5)
        other = MetricsRegistry()
        other.histogram("demo_us", "d", buckets=(2.0,)).labels().observe(0.5)
        with pytest.raises(ValueError):
            merge_snapshots([registry.snapshot(), other.snapshot()])
        typed = MetricsRegistry()
        typed.counter("demo_us").labels().inc()
        with pytest.raises(ValueError):
            merge_snapshots([registry.snapshot(), typed.snapshot()])


# ---------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------
class TestTracer:
    def test_disabled_without_a_path(self):
        tracer = Tracer(path=None)
        assert not tracer.enabled
        assert tracer.sample() is None
        tracer.emit("t-1", "span", 0.0)  # must be a no-op, not an error

    def test_deterministic_fractional_sampling(self, tmp_path):
        tracer = Tracer(path=str(tmp_path / "t.jsonl"), sample=0.25)
        admitted = [tracer.sample() for _ in range(16)]
        assert sum(1 for t in admitted if t is not None) == 4
        # Every admitted id is distinct.
        ids = [t for t in admitted if t is not None]
        assert len(set(ids)) == len(ids)

    def test_event_cap(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path=str(path), max_events=3)
        for i in range(5):
            tracer.emit(f"t-{i}", "span", float(i), 1.0)
        tracer.close()
        assert len(path.read_text().splitlines()) == 3

    def test_emit_read_round_trip_skips_torn_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path=str(path))
        tracer.emit("t-1", "batch.kernel", 1.25, 81.2, op="decode", frames=4)
        tracer.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')  # live-file tail
        events = list(read_events(str(path)))
        assert len(events) == 1
        assert events[0]["trace"] == "t-1"
        assert events[0]["span"] == "batch.kernel"
        assert events[0]["dur_us"] == pytest.approx(81.2)
        assert events[0]["op"] == "decode"

    def test_tail_and_summarize(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path=str(path))
        for i in range(30):
            tracer.emit(f"t-{i % 3}", "front.request", float(i), 10.0 * (i + 1))
        tracer.close()
        assert len(tail_events(str(path), 20)) == 20
        summary = summarize_events(read_events(str(path)))
        assert summary["front.request"]["count"] == 30
        assert summary["front.request"]["traces"] == 3
        assert summary["front.request"]["max_us"] == pytest.approx(300.0)
        assert summary["front.request"]["p50_us"] > 0

    def test_trace_scope_nesting(self):
        assert current_trace_id() is None
        with trace_scope("outer"):
            assert current_trace_id() == "outer"
            with trace_scope(None):  # no-op scope keeps the ambient id
                assert current_trace_id() == "outer"
            with trace_scope("inner"):
                assert current_trace_id() == "inner"
            assert current_trace_id() == "outer"
        assert current_trace_id() is None


# ---------------------------------------------------------------------
# Service telemetry regressions
# ---------------------------------------------------------------------
class TestServiceTelemetryRegressions:
    def test_connection_closed_never_goes_negative(self):
        core = DispatchCore()
        telemetry = core.telemetry
        # Double-close during crash teardown: the gauge must clamp at 0.
        telemetry.connection_closed()
        assert core.stats()["connections_open"] == 0
        telemetry.connection_opened()
        telemetry.connection_closed()
        telemetry.connection_closed()
        stats = core.stats()
        assert stats["connections_open"] == 0
        assert stats["connections_total"] == 1

    def test_code_spellings_share_one_telemetry_label(self):
        """Regression: session series were labelled with the client's
        spelling of the code, so lifetimes opened under ever new
        spellings of one code left a folded series set per spelling."""
        core = DispatchCore()
        word = np.zeros((1, 64), dtype=np.uint8)

        async def call(opcode, body):
            return await core.dispatch(protocol.Request(opcode, 0, body))

        async def lifetime(spelling):
            opened = await call(
                protocol.OP_OPEN, protocol.build_json_body({"code": spelling})
            )
            sid = json.loads(opened)["session_id"]
            await call(protocol.OP_DECODE, protocol.build_batch_body(sid, word))
            await call(protocol.OP_CLOSE, protocol.build_json_body({"session_id": sid}))

        def code_labels_and_series_count():
            families = core.telemetry.metrics_snapshot()["families"]
            series = [entry for family in families for entry in family["series"]]
            codes = {entry["labels"]["code"] for entry in series if "code" in entry["labels"]}
            return codes, len(series)

        async def scenario():
            await lifetime("interleaved:hamming84:8")
            first = code_labels_and_series_count()
            for zeros in range(1, 40):
                await lifetime("interleaved:hamming84:" + "0" * zeros + "8")
            return first, code_labels_and_series_count()

        first, last = asyncio.run(asyncio.wait_for(scenario(), 60.0))
        assert first[0] == last[0] == {"interleaved:hamming84"}
        assert last[1] == first[1]

    def test_session_latency_snapshot_carries_buckets(self):
        core = DispatchCore()
        session = core.open_session(SessionConfig(code="hamming84"))
        session.telemetry.record_latency_us(3.0, "decode")
        session.telemetry.record_latency_us(500.0, "encode")
        entry = core.stats()["sessions"]["1"]["latency"]
        assert entry["samples"] == 2
        assert len(entry["buckets"]) == len(LATENCY_BUCKETS_US) + 1
        assert sum(entry["buckets"]) == 2


# ---------------------------------------------------------------------
# The metrics scrape, single-process and pooled
# ---------------------------------------------------------------------
class TestMetricsScrape:
    def test_single_process_scrape(self):
        async def scenario():
            async with CodecServer() as server:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84")
                rng = np.random.default_rng(0)
                words = rng.integers(0, 2, size=(6, 8), dtype=np.uint8)
                await session.decode(words)
                text = await client.metrics()
                await client.close()
                return text

        series = parse_prometheus(run(scenario()))
        decodes = {
            labels: value
            for (name, labels), value in series.items()
            if name == "repro_service_requests_total"
            and ("op", "decode") in labels
        }
        assert sum(decodes.values()) == 1
        frames = sum(
            value
            for (name, labels), value in series.items()
            if name == "repro_service_frames_total" and ("op", "decode") in labels
        )
        assert frames == 6

    def test_pooled_scrape_equals_stats_rollup(self):
        async def scenario():
            async with CodecServer(workers=3) as server:
                client = await CodecClient.connect(port=server.port)
                rng = np.random.default_rng(1)
                for seed in range(4):
                    session = await client.open_session("hamming84", seed=seed)
                    for _ in range(seed + 1):
                        words = rng.integers(0, 2, size=(5, 8), dtype=np.uint8)
                        await session.decode(words)
                text = await client.metrics()
                stats = await client.stats()
                await client.close()
                return text, stats

        text, stats = run(scenario())
        series = parse_prometheus(text)

        # Per-{op, worker} labelled counters are all present, and no
        # series carries a backend label (there is one kernel engine)
        # or a session label (sessions are rows, summed per code).
        frame_series = [
            (dict(labels), value)
            for (name, labels), value in series.items()
            if name == "repro_service_frames_total"
        ]
        assert all({"op", "worker"} <= set(labels) for labels, _ in frame_series)
        assert not any("backend" in dict(labels) for _, labels in series)
        assert not any("session" in dict(labels) for _, labels in series)
        assert sum(value for _, value in frame_series) == stats["frames_total"] > 0

        # Per-worker frame counters match the rollup exactly.
        for worker in stats["workers"]:
            scraped = sum(
                value
                for (name, labels), value in series.items()
                if name == "repro_service_frames_total"
                and dict(labels)["worker"] == str(worker["index"])
            )
            assert scraped == worker["frames_total"]

        # Histogram bucket sums equal the legacy STATS rollup, exactly:
        # cumulative scrape buckets per worker == cumulative rollup
        # buckets (the rollup merged per-session buckets the same way).
        for worker in stats["workers"]:
            rollup_cumulative = list(
                np.cumsum(worker["latency"]["buckets"]).astype(float)
            )
            edges = [str(int(b)) for b in LATENCY_BUCKETS_US] + ["+Inf"]
            scraped_cumulative = []
            for edge in edges:
                scraped_cumulative.append(
                    sum(
                        value
                        for (name, labels), value in series.items()
                        if name == "repro_service_request_latency_us_bucket"
                        and dict(labels)["worker"] == str(worker["index"])
                        and dict(labels)["le"] == edge
                    )
                )
            assert scraped_cumulative == rollup_cumulative
            assert worker["latency"]["samples"] == rollup_cumulative[-1]


# ---------------------------------------------------------------------
# End-to-end request tracing through the pool
# ---------------------------------------------------------------------
class TestRequestTracing:
    def test_trace_spans_front_to_kernel(self, tmp_path, monkeypatch):
        from repro.obs.tracing import TRACE_FILE_ENV

        path = tmp_path / "trace.jsonl"
        # Env (not configure_tracer) so forked pool workers inherit it.
        monkeypatch.setenv(TRACE_FILE_ENV, str(path))
        reset_tracer()

        async def scenario():
            async with CodecServer(workers=1) as server:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84")
                rng = np.random.default_rng(2)
                words = rng.integers(0, 2, size=(4, 8), dtype=np.uint8)
                await session.decode(words)
                await client.close()

        try:
            run(scenario())
        finally:
            reset_tracer()  # drop the env-configured front-end tracer

        by_trace = {}
        for event in read_events(str(path)):
            by_trace.setdefault(event["trace"], []).append(event)
        # Find the decode request's trace: it crossed every layer.
        spans_needed = {
            "front.request", "worker.dispatch", "batch.queue_wait",
            "batch.assemble", "batch.kernel",
        }
        full = [
            events
            for events in by_trace.values()
            if spans_needed <= {e["span"] for e in events}
        ]
        assert full, f"no complete trace in {sorted(by_trace)}"
        events = full[0]
        ts = {e["span"]: e["ts"] for e in events}
        assert all(e.get("dur_us", 0.0) >= 0.0 for e in events)
        # perf_counter is CLOCK_MONOTONIC machine-wide, so spans from
        # the front and the forked worker are directly comparable.
        assert ts["front.request"] <= ts["worker.dispatch"]
        assert ts["worker.dispatch"] <= ts["batch.queue_wait"]
        assert ts["batch.queue_wait"] <= ts["batch.kernel"]
        # The whole request is bounded by the front span.
        front = next(e for e in events if e["span"] == "front.request")
        kernel = next(e for e in events if e["span"] == "batch.kernel")
        assert kernel["ts"] + kernel["dur_us"] * 1e-6 <= (
            front["ts"] + front["dur_us"] * 1e-6 + 1e-3
        )

    def test_untraced_requests_stay_untraced(self, tmp_path, monkeypatch):
        from repro.obs.tracing import TRACE_FILE_ENV, TRACE_SAMPLE_ENV

        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv(TRACE_FILE_ENV, str(path))
        monkeypatch.setenv(TRACE_SAMPLE_ENV, "0.0")
        reset_tracer()

        async def scenario():
            async with CodecServer(workers=1) as server:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84")
                words = np.zeros((4, 8), dtype=np.uint8)
                block = await session.decode(words)
                await client.close()
                return block

        try:
            block = run(scenario())
        finally:
            reset_tracer()
        assert len(block) == 4
        assert not path.exists()
