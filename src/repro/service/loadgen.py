"""Traffic-scenario load harness for the streaming codec service.

Each scenario shapes what a fleet of concurrent clients sends at a
:class:`~repro.service.server.CodecServer`:

``steady``
    Every client streams encode->decode round trips back to back over
    one noiseless session — the throughput-ceiling workload.
``bursty``
    On/off traffic: clients fire a burst of requests, go idle, repeat.
    Exercises the turn-flush path (batches never fill during the quiet
    tail of a burst).
``mixed``
    Clients round-robin across all registered codes with their default
    decoders — one server, heterogeneous lanes.
``adversarial``
    Clients split across escalating error-injection rates on the same
    code, up to beyond the decoder's correction radius — the fault
    drill.  Residual errors are *expected* here; what matters is the
    corrected/detected telemetry and that the server stays up.
``burst``
    The burst-error drill: clients alternate between a bare-code lane
    and an ``interleaved:<code>:<depth>`` lane, and every encoded word
    is corrupted *client-side* by a seeded
    :class:`~repro.link.burst.GilbertElliottChannel` before being sent
    back for decoding.  Residuals are expected on the bare lane; the
    interleaved lane demonstrates burst immunity against the very same
    channel model.
``stream``
    The online-decoding drill: each client opens its *own* streaming
    session (convolutional interleaving, sliding-window decode), encodes
    server-side, interleaves client-side, and pushes contiguous channel
    frames through the ``OP_DECODE_STREAM`` lane without awaiting
    decisions between pushes (the responses pipeline).  Rows decided
    on time must match what was sent; deadline-forced rows are counted
    as ``deadline_missed_frames``.
``memory``
    The ECC-memory drill: each client opens its *own* memory session
    (the store is per-session state) and drives a hot/cold address mix
    of whole-line writes, read-modify-write partial writes and reads,
    interleaved with scrub steps that rot-then-repair the swept window.
    Every response is checked bit-for-bit against a client-side
    :class:`~repro.memory.reference.ReferenceMemory` mirror seeded like
    the server lane — including the cumulative SEC/DED counter ledger —
    so the scenario proves the service's accounting *exact* over the
    wire, not just plausible.  At ``rot 0`` any residual read is a
    service bug, which is what the CI memory-smoke job asserts.

Every client checks each round trip end to end: messages are generated
from a seeded stream, encoded by the server (where the session's
channel may corrupt them), decoded by the server, and compared to what
was sent.  At injection rate 0 any mismatch is a service bug, which is
what the CI smoke job asserts.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Awaitable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.coding.registry import available_codes, get_code, get_decoder
from repro.coding.stream import interleave_stream
from repro.link.burst import GilbertElliottChannel
from repro.memory.reference import ReferenceMemory
from repro.service import protocol
from repro.service.client import CodecClient, SessionHandle
from repro.service.session import SessionConfig
from repro.utils.rng import as_generator, spawn_generators


class LatencyReservoir:
    """Sliding window of the most recent per-request latencies (µs)."""

    def __init__(self, maxlen: int = 8192):
        self._samples: Deque[float] = deque(maxlen=maxlen)

    def record(self, latency_us: float) -> None:
        self._samples.append(float(latency_us))

    def __len__(self) -> int:
        return len(self._samples)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of the window, 0.0 when empty."""
        if not self._samples:
            return 0.0
        return float(np.percentile(np.fromiter(self._samples, dtype=float), q))

    def snapshot(self) -> Dict[str, float]:
        return {
            "samples": len(self._samples),
            "p50_us": round(self.percentile(50.0), 1),
            "p99_us": round(self.percentile(99.0), 1),
        }


@dataclass(frozen=True)
class Scenario:
    """A named traffic shape over one or more session configs.

    Attributes
    ----------
    name, description : str
        Identification for reports.
    sessions : tuple of SessionConfig
        Session configs; client ``i`` uses ``sessions[i % len(sessions)]``,
        through the one session its connection opens for that config.
    burst_len : int, optional
        Requests per burst; ``None`` streams continuously.
    idle_s : float
        Sleep between bursts (only with ``burst_len``).
    channel : GilbertElliottChannel, optional
        Client-side corruption applied to every encoded word before it
        is sent back for decoding (the ``burst`` scenario's drill);
        draws come from each client's own seeded stream.
    stream : bool
        Streaming decode traffic: each client opens its own session
        (a stream is per-session state) and drives the sliding-window
        lane instead of batch round trips.
    interval_s : float
        Pacing between stream pushes (a paced source emulating a real
        link's frame cadence); 0 pushes back to back.  An interval
        longer than the session's deadline guarantees misses — that is
        the CI tight-budget drill.
    memory : bool
        Memory-session traffic: each client opens its own session (the
        store is per-session state) and drives write/RMW/read/scrub
        transactions against a local reference mirror instead of batch
        round trips.
    hot_fraction : float
        Probability a memory transaction targets the hot set (the first
        eighth of the address space); the remainder scatters uniformly.
    scrub_every : int
        Issue one scrub step every this many traffic rounds — the
        scrub-vs-traffic contention knob.
    scrub_lines : int
        Lines swept per scrub step.
    """

    name: str
    description: str
    sessions: tuple
    burst_len: Optional[int] = None
    idle_s: float = 0.005
    channel: Optional[GilbertElliottChannel] = None
    stream: bool = False
    interval_s: float = 0.0
    memory: bool = False
    hot_fraction: float = 0.8
    scrub_every: int = 4
    scrub_lines: int = 8


def steady_scenario(code: str = "hamming84", decoder: Optional[str] = None) -> Scenario:
    return Scenario(
        name="steady",
        description=f"continuous noiseless round trips on {code}",
        sessions=(SessionConfig(code=code, decoder=decoder),),
    )


def bursty_scenario(
    code: str = "hamming84",
    decoder: Optional[str] = None,
    burst_len: int = 8,
    idle_s: float = 0.005,
) -> Scenario:
    return Scenario(
        name="bursty",
        description=f"on/off bursts of {burst_len} requests on {code}",
        sessions=(SessionConfig(code=code, decoder=decoder),),
        burst_len=burst_len,
        idle_s=idle_s,
    )


def mixed_scenario() -> Scenario:
    return Scenario(
        name="mixed",
        description="clients round-robin across every registered code",
        sessions=tuple(SessionConfig(code=name) for name in available_codes()),
    )


def adversarial_scenario(
    code: str = "hamming84",
    decoder: Optional[str] = None,
    rates: Sequence[float] = (0.001, 0.02, 0.08),
    seed: int = 20250831,
) -> Scenario:
    sessions = tuple(
        SessionConfig(code=code, decoder=decoder, p01=p, p10=p, seed=seed + i)
        for i, p in enumerate(rates)
    )
    return Scenario(
        name="adversarial",
        description=f"error injection at p={tuple(rates)} on {code}",
        sessions=sessions,
    )


def burst_scenario(
    code: str = "hamming74",
    decoder: Optional[str] = None,
    depth: int = 8,
    burst_len: float = 4.0,
    density: float = 0.10,
    p_bad: float = 0.5,
) -> Scenario:
    """Bare vs interleaved lanes under client-side Gilbert–Elliott bursts.

    Even-indexed clients open the bare ``code`` session, odd-indexed
    ones the ``interleaved:<code>:<depth>`` composite; both corrupt
    their encoded words through the same burst-channel parameters
    before decoding, so the server's per-session corrected/residual
    telemetry shows the interleaving gain live.

    A ``decoder`` override is rejected: the composite lane cannot
    honour it (its wrapper decoder wraps the *base* strategy), and a
    drill whose two lanes decode with different strategies would
    conflate interleaving gain with decoder choice.
    """
    if decoder is not None:
        raise ValueError(
            "the burst scenario does not support --decoder: both lanes must "
            "decode with the paper's default pairing to isolate the "
            "interleaving gain"
        )
    channel = GilbertElliottChannel.from_burst_profile(
        burst_len, density, p_bad=p_bad
    )
    return Scenario(
        name="burst",
        description=(
            f"Gilbert-Elliott bursts (len {burst_len:g}, density {density:g}) "
            f"on {code} bare vs interleaved depth {depth}"
        ),
        sessions=(
            SessionConfig(code=code, decoder=decoder),
            SessionConfig(code=f"interleaved:{code}:{depth}"),
        ),
        channel=channel,
    )


def stream_scenario(
    code: str = "hamming84",
    decoder: Optional[str] = None,
    depth: int = 4,
    shift: int = 1,
    deadline_us: Optional[float] = None,
    interval_us: Optional[float] = None,
) -> Scenario:
    """Sliding-window streaming decode at ``depth``/``shift``.

    Every client opens its own session of this config (a stream's
    window is per-session state; sharing one would interleave two
    clients' frame sequences).  With ``deadline_us`` set, codewords
    still open when the budget expires are forced to best-effort
    decisions and counted as deadline misses; without it the run
    asserts pure pipelined decoding (zero misses expected).
    ``interval_us`` paces the pushes; pacing past the deadline is the
    deterministic way to drill the forced-decision path under load.
    """
    deadline = "" if deadline_us is None else f", deadline {deadline_us:g} us"
    return Scenario(
        name="stream",
        description=(
            f"sliding-window streaming decode on {code} "
            f"(depth {depth}, shift {shift}{deadline})"
        ),
        sessions=(
            SessionConfig(
                code=code,
                decoder=decoder,
                stream_depth=depth,
                stream_shift=shift,
                stream_deadline_us=deadline_us,
            ),
        ),
        stream=True,
        interval_s=0.0 if interval_us is None else interval_us * 1e-6,
    )


def memory_scenario(
    code: str = "hamming84",
    decoder: Optional[str] = None,
    lines: int = 64,
    rot: float = 0.0,
    hot_fraction: float = 0.8,
    scrub_every: int = 4,
    scrub_lines: int = 8,
) -> Scenario:
    """ECC-memory traffic: hot/cold write/RMW/read mix plus scrubbing.

    Every client opens its own memory session of this config (the
    store is per-session state; sharing one would interleave two
    clients' transaction streams) and mirrors it with a seeded
    :class:`~repro.memory.reference.ReferenceMemory`, asserting every
    response and the cumulative counter ledger bit-exact.  ``rot``
    enables seeded retention rot on the scrub window, so the report's
    SEC/DED totals show the scrubber actually repairing damage.
    """
    if lines < 1:
        raise ValueError(f"lines must be >= 1, got {lines}")
    if scrub_every < 1:
        raise ValueError(f"scrub_every must be >= 1, got {scrub_every}")
    if scrub_lines < 1:
        raise ValueError(f"scrub_lines must be >= 1, got {scrub_lines}")
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError(f"hot_fraction must be in [0, 1], got {hot_fraction}")
    return Scenario(
        name="memory",
        description=(
            f"ECC memory traffic on {code} ({lines} lines, rot {rot:g}, "
            f"scrub {scrub_lines} lines every {scrub_every} rounds)"
        ),
        sessions=(
            SessionConfig(
                code=code, decoder=decoder, memory_lines=lines, memory_rot=rot
            ),
        ),
        memory=True,
        hot_fraction=hot_fraction,
        scrub_every=scrub_every,
        scrub_lines=scrub_lines,
    )


SCENARIO_FACTORIES = {
    "steady": steady_scenario,
    "bursty": bursty_scenario,
    "mixed": mixed_scenario,
    "adversarial": adversarial_scenario,
    "burst": burst_scenario,
    "stream": stream_scenario,
    "memory": memory_scenario,
}


def make_scenario(name: str, **kwargs) -> Scenario:
    """Build a named scenario; ``mixed`` ignores code/decoder kwargs."""
    try:
        factory = SCENARIO_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIO_FACTORIES)}"
        )
    if name == "mixed":
        kwargs = {}
    return factory(**kwargs)


@dataclass
class LoadReport:
    """Aggregate outcome of one load run."""

    scenario: str
    clients: int
    requests: int              # round trips per client
    frames_per_request: int
    soft: bool = False         # decoded through the float soft lane
    wall_s: float = 0.0
    frames_sent: int = 0
    residual_frames: int = 0   # delivered message != sent message
    flagged_frames: int = 0    # decoder raised detected-uncorrectable
    corrupted_frames: int = 0  # channel injected >= 1 bit error
    deadline_missed_frames: int = 0  # stream rows forced at the deadline
    memory_sec: int = 0        # single-error corrections across all paths
    memory_ded: int = 0        # detected-uncorrectable lines
    memory_corrected_bits: int = 0
    memory_scrub_steps: int = 0
    memory_repaired_lines: int = 0
    memory_rot_bits: int = 0   # retention-rot bits the server injected
    client_errors: List[str] = field(default_factory=list)  # "client i: error"
    encode_latency: LatencyReservoir = field(default_factory=LatencyReservoir)
    decode_latency: LatencyReservoir = field(default_factory=LatencyReservoir)
    server_stats: Dict = field(default_factory=dict)

    @property
    def throughput_fps(self) -> float:
        return self.frames_sent / self.wall_s if self.wall_s else 0.0

    @property
    def residual_rate(self) -> float:
        return self.residual_frames / self.frames_sent if self.frames_sent else 0.0

    def to_dict(self) -> Dict:
        return {
            "scenario": self.scenario,
            "clients": self.clients,
            "requests_per_client": self.requests,
            "frames_per_request": self.frames_per_request,
            "soft": self.soft,
            "wall_s": round(self.wall_s, 4),
            "frames_sent": self.frames_sent,
            "throughput_fps": round(self.throughput_fps, 1),
            "residual_frames": self.residual_frames,
            "residual_rate": self.residual_rate,
            "flagged_frames": self.flagged_frames,
            "corrupted_frames": self.corrupted_frames,
            "deadline_missed_frames": self.deadline_missed_frames,
            "memory": {
                "sec": self.memory_sec,
                "ded": self.memory_ded,
                "corrected_bits": self.memory_corrected_bits,
                "scrub_steps": self.memory_scrub_steps,
                "repaired_lines": self.memory_repaired_lines,
                "rot_bits": self.memory_rot_bits,
            },
            "encode_latency": self.encode_latency.snapshot(),
            "decode_latency": self.decode_latency.snapshot(),
            "client_errors": list(self.client_errors),
            "server_stats": self.server_stats,
        }


def render(report: LoadReport) -> str:
    lines = [
        f"loadgen scenario={report.scenario} clients={report.clients} "
        f"requests={report.requests} frames/request={report.frames_per_request}"
        + (" soft" if report.soft else ""),
        f"  frames sent        {report.frames_sent}",
        f"  wall time          {report.wall_s:.3f} s",
        f"  throughput         {report.throughput_fps:,.0f} frames/s",
        f"  corrupted frames   {report.corrupted_frames}",
        f"  flagged frames     {report.flagged_frames}",
        f"  residual frames    {report.residual_frames} "
        f"(rate {report.residual_rate:.2e})",
        *(
            [f"  deadline misses    {report.deadline_missed_frames}"]
            if report.scenario == "stream"
            else []
        ),
        *(
            [
                f"  memory sec/ded     {report.memory_sec}/{report.memory_ded} "
                f"({report.memory_corrected_bits} bits corrected)",
                f"  scrub steps        {report.memory_scrub_steps} "
                f"(repaired {report.memory_repaired_lines} lines, "
                f"rot {report.memory_rot_bits} bits)",
            ]
            if report.scenario == "memory"
            else []
        ),
        f"  encode latency     p50 {report.encode_latency.percentile(50):.0f} us"
        f" / p99 {report.encode_latency.percentile(99):.0f} us",
        f"  decode latency     p50 {report.decode_latency.percentile(50):.0f} us"
        f" / p99 {report.decode_latency.percentile(99):.0f} us",
    ]
    if report.client_errors:
        lines.append(f"  FAILED clients     {len(report.client_errors)}")
        lines.extend(f"    {error}" for error in report.client_errors)
    return "\n".join(lines)


async def _run_stream_client(
    index: int,
    client: CodecClient,
    scenario: Scenario,
    requests: int,
    frames_per_request: int,
    rng: np.random.Generator,
    report: LoadReport,
    soft_sigma: float = 0.0,
) -> None:
    base = scenario.sessions[index % len(scenario.sessions)]
    # Streams are per-session state, so each client opens its own
    # session, seeded uniquely across the fleet (draw ⊕ index).
    config = replace(base, seed=int(rng.integers(0, 2**20)) * 4096 + index)
    session = await client.open_session(**config.to_dict())
    depth = int(config.stream_depth)
    shift = int(config.stream_shift)
    count = requests * frames_per_request
    messages = rng.integers(0, 2, (count, session.k)).astype(np.uint8)
    words = np.empty((count, session.n), dtype=np.uint8)
    for start in range(0, count, frames_per_request):
        stop = start + frames_per_request
        t0 = time.perf_counter()
        words[start:stop] = await session.encode(messages[start:stop])
        report.encode_latency.record((time.perf_counter() - t0) * 1e6)
    channel_frames = interleave_stream(words, depth, shift=shift)
    confidences = 1.0 - 2.0 * channel_frames.astype(np.float64)
    if soft_sigma > 0:
        confidences += rng.normal(0.0, soft_sigma, confidences.shape)
    # Pipelined pushes: await only the *send* of each chunk (wire
    # order is the stream order); decisions resolve span frames
    # later and are collected after the final push drains them all.
    total = len(channel_frames)
    decisions = []
    t0 = time.perf_counter()
    for start in range(0, total, frames_per_request):
        stop = min(start + frames_per_request, total)
        if scenario.interval_s and start:
            await asyncio.sleep(scenario.interval_s)
        decisions.append(
            await session.push_stream(
                confidences[start:stop], start, final=stop >= total
            )
        )
    blocks = [await pending for pending in decisions]
    # One sample per client: wall time to stream and fully drain.
    report.decode_latency.record((time.perf_counter() - t0) * 1e6)
    status = np.concatenate([block.status for block in blocks])
    decided = np.concatenate([block.messages for block in blocks])
    detected = np.concatenate([block.detected_uncorrectable for block in blocks])
    report.frames_sent += count
    report.deadline_missed_frames += int(
        (status == protocol.STREAM_ROW_FORCED).sum()
    )
    # Only the first `count` rows carry real codewords (the tail
    # `span` rows are the drain of partially-filled windows), and
    # only rows decided on time promise bit-identity to offline.
    on_time = status[:count] == protocol.STREAM_ROW_ON_TIME
    report.residual_frames += int(
        (decided[:count][on_time] != messages[on_time]).any(axis=1).sum()
    )
    report.flagged_frames += int(detected[:count][on_time].sum())
    await session.close()


def _memory_addresses(
    rng: np.random.Generator, lines: int, count: int, hot_fraction: float
) -> np.ndarray:
    """Hot/cold address pick, deduplicated (and thereby sorted).

    Duplicates are dropped rather than allowed because the batched
    frontend applies a whole batch against one store snapshot while the
    scalar mirror replays it line by line — with one address twice in
    an RMW batch the two would legitimately diverge, and the mirror
    could no longer assert bit-exactness.  The intra-batch race itself
    is covered directly by ``tests/test_memory.py``.
    """
    hot_lines = max(1, lines // 8)
    hot = rng.integers(0, hot_lines, count)
    cold = rng.integers(0, lines, count)
    picks = np.where(rng.random(count) < hot_fraction, hot, cold)
    return np.unique(picks).astype(np.int64)


async def _run_memory_client(
    index: int,
    client: CodecClient,
    scenario: Scenario,
    requests: int,
    frames_per_request: int,
    rng: np.random.Generator,
    report: LoadReport,
) -> None:
    base = scenario.sessions[index % len(scenario.sessions)]
    # Memory stores are per-session state, so each client opens its own
    # session, seeded (and so rotting) like no other client's.
    config = replace(base, seed=int(rng.integers(0, 2**20)) * 4096 + index)
    lines = int(config.memory_lines)
    code = get_code(config.code)
    mirror = ReferenceMemory(code, get_decoder(code, config.decoder), lines)
    # The server lane's only randomness is its rot stream, seeded from
    # the session config — an identically seeded local generator replays
    # every draw, which is what makes the mirror exact (see
    # repro.service.memory's determinism contract).
    rot_rng = as_generator(config.seed)
    expected = np.zeros((lines, code.k), dtype=np.uint8)
    scrub_count = min(scenario.scrub_lines, lines)

    def check(match: bool, label: str) -> None:
        if not match:
            raise RuntimeError(f"memory mirror mismatch on {label}")

    session = await client.open_session(**config.to_dict())
    for r in range(requests):
        addresses = _memory_addresses(
            rng, lines, frames_per_request, scenario.hot_fraction
        )
        messages = rng.integers(0, 2, (len(addresses), code.k)).astype(np.uint8)
        t0 = time.perf_counter()
        if r % 2 == 0:
            block = await session.mem_write(addresses, messages)
            mirror.write(addresses, messages)
            check(not block.corrected_errors.any(), "write corrected")
            check(not block.detected_uncorrectable.any(), "write detected")
            expected[addresses] = messages
        else:
            masks = rng.integers(0, 2, messages.shape).astype(np.uint8)
            block = await session.mem_write_partial(addresses, messages, masks)
            outcomes = mirror.write_partial(addresses, messages, masks)
            check(
                [
                    (int(c), bool(d))
                    for c, d in zip(
                        block.corrected_errors, block.detected_uncorrectable
                    )
                ]
                == outcomes,
                "rmw outcomes",
            )
            detected = block.detected_uncorrectable
            report.memory_sec += int(
                ((block.corrected_errors > 0) & ~detected).sum()
            )
            report.memory_ded += int(detected.sum())
            report.memory_corrected_bits += int(
                block.corrected_errors[~detected].sum()
            )
            expected[addresses] = np.where(
                masks.astype(bool), messages, expected[addresses]
            )
        report.encode_latency.record((time.perf_counter() - t0) * 1e6)
        report.frames_sent += len(addresses)

        if r % scenario.scrub_every == scenario.scrub_every - 1:
            if config.memory_rot > 0.0:
                window = (
                    mirror.scrub_position + np.arange(scrub_count)
                ) % lines
                mirror.inject_rot(rot_rng, config.memory_rot, window)
            payload = await session.mem_scrub(scrub_count)
            step = mirror.scrub_step(scrub_count)
            check(payload["report"] == step, "scrub report")
            check(payload["position"] == mirror.scrub_position, "scrub position")
            check(
                payload["counters"] == mirror.counters.to_dict(),
                "counter ledger",
            )
            report.memory_scrub_steps += 1
            report.memory_repaired_lines += step["repaired_lines"]
            report.memory_corrected_bits += step["corrected_bits"]
            report.memory_sec += step["repaired_lines"]
            report.memory_ded += step["detected"]
            report.memory_rot_bits += int(payload["rot_bits"])

        t0 = time.perf_counter()
        decoded = await session.mem_read(addresses)
        report.decode_latency.record((time.perf_counter() - t0) * 1e6)
        reference = mirror.read(addresses)
        check(
            all(
                np.array_equal(decoded.messages[i], result.message)
                and int(decoded.corrected_errors[i]) == result.corrected_errors
                and bool(decoded.detected_uncorrectable[i])
                == result.detected_uncorrectable
                for i, result in enumerate(reference)
            ),
            "read outcomes",
        )
        detected = decoded.detected_uncorrectable
        report.frames_sent += len(addresses)
        report.memory_sec += int(((decoded.corrected_errors > 0) & ~detected).sum())
        report.memory_ded += int(detected.sum())
        report.memory_corrected_bits += int(
            decoded.corrected_errors[~detected].sum()
        )
        report.flagged_frames += int(detected.sum())
        # End-to-end check: the decoded line vs the last write intent.
        report.residual_frames += int(
            (decoded.messages != expected[addresses]).any(axis=1).sum()
        )
    await session.close()


async def _run_client(
    index: int,
    opened: Awaitable[SessionHandle],
    scenario: Scenario,
    requests: int,
    frames_per_request: int,
    rng: np.random.Generator,
    report: LoadReport,
    soft: bool = False,
    soft_sigma: float = 0.0,
) -> None:
    config = scenario.sessions[index % len(scenario.sessions)]
    # Shared by the clients of this config on this connection.
    session = await opened
    for r in range(requests):
        if scenario.burst_len and r and r % scenario.burst_len == 0:
            await asyncio.sleep(scenario.idle_s)
        messages = rng.integers(0, 2, (frames_per_request, session.k)).astype(np.uint8)
        t0 = time.perf_counter()
        words = await session.encode(messages)
        t1 = time.perf_counter()
        if scenario.channel is not None:
            # Client-side burst corruption: unlike session-injected
            # noise, the clean words are known here, so corruption
            # is counted exactly rather than inferred from decoder
            # telemetry.
            corrupted = scenario.channel.transmit_batch(words, rng)
            report.corrupted_frames += int((corrupted != words).any(axis=1).sum())
            words = corrupted
        if soft:
            # BPSK confidences from the (possibly corrupted) words,
            # optionally jittered to exercise real reliabilities.
            confidences = 1.0 - 2.0 * words.astype(np.float64)
            if soft_sigma > 0:
                confidences += rng.normal(0.0, soft_sigma, confidences.shape)
            decoded = await session.decode_soft(confidences)
        else:
            decoded = await session.decode(words)
        t2 = time.perf_counter()
        report.encode_latency.record((t1 - t0) * 1e6)
        report.decode_latency.record((t2 - t1) * 1e6)
        report.frames_sent += len(messages)
        # End-to-end check: what came back vs what was sent.
        report.residual_frames += int((decoded.messages != messages).any(axis=1).sum())
        report.flagged_frames += int(decoded.detected_uncorrectable.sum())
        if config.p01 or config.p10:
            # Corruption is only observable against the clean encoding,
            # which the decoder's codeword view does not expose here;
            # count frames the decoder had to touch instead (disjoint:
            # some decoders set both corrected>0 and the flag).
            detected = decoded.detected_uncorrectable
            report.corrupted_frames += int(
                ((decoded.corrected_errors > 0) & ~detected).sum()
                + detected.sum()
            )


async def run_scenario(
    host: str,
    port: int,
    scenario: Scenario,
    clients: int = 8,
    requests: int = 50,
    frames_per_request: int = 4,
    seed: int = 0,
    scrape_stats: bool = True,
    soft: bool = False,
    soft_sigma: float = 0.0,
    connections: Optional[int] = None,
) -> LoadReport:
    """Drive ``scenario`` with ``clients`` concurrent clients.

    With ``soft`` set, clients map each encoded word to BPSK
    confidences (plus optional Gaussian jitter of RMS ``soft_sigma``)
    and decode through the float soft lane instead of the hard one.
    ``connections`` caps the TCP connections the fleet opens (client
    ``i`` multiplexes over connection ``i % connections`` — the wire
    protocol pipelines by request id), which is what lets 512-4096
    client drills run without exhausting file descriptors; the default
    is one connection per client.  Each connection opens each config
    its batch clients use once, and they share that session; stream
    and memory clients open their own.  Sessions close with their
    connection.  Returns the aggregate :class:`LoadReport`; when
    ``scrape_stats`` is set the server's JSON telemetry snapshot, taken
    on the first connection before any closes, is attached as
    ``report.server_stats``.
    """
    report = LoadReport(
        scenario=scenario.name,
        clients=clients,
        requests=requests,
        frames_per_request=frames_per_request,
        soft=soft,
    )
    rngs = spawn_generators(seed, clients)
    count = max(1, clients if connections is None else min(connections, clients))
    conns: List[CodecClient] = []
    opened: Dict[Tuple[int, SessionConfig], asyncio.Future] = {}

    def run_client(i: int) -> Awaitable[None]:
        conn = conns[i % count]
        if scenario.memory:
            return _run_memory_client(
                i, conn, scenario, requests, frames_per_request, rngs[i], report
            )
        if scenario.stream:
            return _run_stream_client(
                i, conn, scenario, requests, frames_per_request, rngs[i], report,
                soft_sigma=soft_sigma,
            )
        config = scenario.sessions[i % len(scenario.sessions)]
        key = (i % count, config)
        if key not in opened:
            opened[key] = asyncio.ensure_future(conn.open_session(**config.to_dict()))
        return _run_client(
            i, opened[key], scenario, requests, frames_per_request, rngs[i], report,
            soft=soft, soft_sigma=soft_sigma,
        )

    try:
        for _ in range(count):
            conns.append(await CodecClient.connect(host, port))
        start = time.perf_counter()
        outcomes = await asyncio.gather(
            *(run_client(i) for i in range(clients)), return_exceptions=True
        )
        report.wall_s = time.perf_counter() - start
        if scrape_stats:
            report.server_stats = await conns[0].stats()
    finally:
        for conn in conns:
            await conn.close()
    # One dying client must not discard the whole run's report; record
    # which clients failed and keep the partial aggregate.
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, BaseException):
            report.client_errors.append(f"client {i}: {outcome!r}")
    return report
