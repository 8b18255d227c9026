"""The benchmark's four workloads: seeded inputs and precomputed replies.

Every request a workload sends, and the exact reply body it expects, is
built here from the workload seed before any server starts.  The
reference for each reply comes straight from the library, never from
the service:

* hard decode replies: ``Decoder.decode_batch_detailed`` on the frames;
* soft decode replies: ``Decoder.decode_soft_batch_detailed`` on the
  float32-quantised confidences the wire carries;
* encode replies: ``LinearBlockCode.encode_batch``;
* stream replies: an offline ``deinterleave_stream`` plus soft decode;
* memory replies and SEC/DED ledgers: a seeded
  :class:`~repro.memory.reference.ReferenceMemory` mirror.

A workload is a list of session configs, opened in order on a fresh
server (so they get ids 1, 2, ...), and a list of closed-loop logical
clients.  A client is a list of requests and a list of steps; a step
sends some requests and then waits for one reply, so a client never
has more in flight than its steps say.  Work is fixed per ``seconds``
of nominal run length, so two commits always do the same work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.coding.decoders import default_decoder_for
from repro.coding.registry import get_code, get_decoder
from repro.coding.stream import deinterleave_stream, interleave_stream
from repro.memory.reference import ReferenceMemory
from repro.service import protocol

#: Bit-flip probability of every pre-corrupted hard frame.
FLIP_P = 0.02
#: Noise of the BPSK confidences on the soft and stream lanes.
SOFT_SIGMA = 0.6

#: Open/decode/close cycles per connection that close every workload
#: other than ``session-churn``, after its scrapes; ``sessions_per_s``
#: comes from them.
EPILOGUE_CYCLES = 500
#: Closing METRICS and STATS scrapes of every workload.
METRICS_SCRAPES = 3
STATS_SCRAPES = 2

# Work per second of nominal run length, sized so one run's timed phase
# lasts about ``seconds`` on a 2-vCPU VM at the seed.
WIRE_SMALL_REQUESTS_PER_S = 12_000
WIRE_BULK_REQUESTS_PER_S = 700
LANES_CYCLES_PER_S = 130        # per logical client
CHURN_CYCLES_PER_S = 100         # per connection

OK = protocol.ST_OK


@dataclass
class Request:
    """One request and what a correct reply looks like.

    ``expected`` is the exact OK reply body; when it is ``None``,
    ``check`` judges the body instead (JSON replies whose bytes the
    benchmark does not own).  ``frames`` is what the request counts
    toward throughput.
    """

    opcode: int
    body: bytes
    expected: Optional[bytes]
    frames: int
    check: Optional[Callable[[bytes], bool]] = None
    stream: bool = False


@dataclass
class Client:
    """A closed-loop logical client on one of the two connections."""

    conn: int
    requests: List[Request] = field(default_factory=list)
    #: (request indices to send, request index to await or None)
    steps: List[Tuple[Tuple[int, ...], Optional[int]]] = field(default_factory=list)
    #: steps [0, warm_steps) are warm-up, the rest are timed
    warm_steps: int = 0

    def add(self, request: Request) -> int:
        self.requests.append(request)
        return len(self.requests) - 1

    def call(self, request: Request) -> None:
        """One closed-loop step: send a request, await its reply."""
        index = self.add(request)
        self.steps.append(((index,), index))


@dataclass
class Workload:
    name: str
    sessions: List[dict]
    clients: List[Client]
    #: open/decode/close cycles per connection; the timed phase itself
    #: when ``churn_is_main``, a short epilogue otherwise
    churn_cycles: int
    churn_is_main: bool = False
    #: first seed of the churn sessions (each lifetime gets its own)
    churn_seed: int = 0
    #: word-pool indices of each connection's churn decode frames
    churn_words: List[np.ndarray] = field(default_factory=list)
    pool: Optional["WordPool"] = None


# ---------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------
def open_check(code: str, session_id: Optional[int]) -> Callable[[bytes], bool]:
    """Judge an OPEN reply: the code's shape and, if given, the id."""
    n, k = get_code(code).n, get_code(code).k

    def check(body: bytes) -> bool:
        info = json.loads(body)
        return (
            info.get("n") == n and info.get("k") == k
            and (session_id is None or info.get("session_id") == session_id)
        )
    return check


def _corrupt(rng: np.random.Generator, words: np.ndarray) -> np.ndarray:
    flips = rng.random(words.shape) < FLIP_P
    return (words ^ flips).astype(np.uint8)


class _Memo:
    """Memoise one pure scalar method of ``target`` by its bit argument.

    The memory mirror stays the scalar reference path; memoising only
    evaluates it once per distinct 8-bit word instead of once per line.
    """

    def __init__(self, target, method: str):
        self._target = target
        self._method = getattr(target, method)
        self._cache = {}
        setattr(self, method, self._call)

    def __getattr__(self, name):
        return getattr(self._target, name)

    def _call(self, bits):
        key = np.asarray(bits, dtype=np.uint8).tobytes()
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = self._method(bits)
        return value


def _decode_reply(result) -> bytes:
    return protocol.build_decode_response_body(
        result.messages, result.corrected_errors, result.detected_uncorrectable
    )


class WordPool:
    """Every 8-bit hamming84 word, with its request and reply bodies.

    Single-frame requests draw from these 256 words, so the reference
    decode of a whole run is one ``decode_batch_detailed`` call.
    """

    def __init__(self):
        self.code = get_code("hamming84")
        self.decoder = default_decoder_for(self.code)
        words = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
        self.words = words
        result = self.decoder.decode_batch_detailed(words)
        self.replies = [
            protocol.build_decode_response_body(
                result.messages[i:i + 1],
                result.corrected_errors[i:i + 1],
                result.detected_uncorrectable[i:i + 1],
            )
            for i in range(256)
        ]

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Indices of ``count`` corrupted codewords of random messages."""
        messages = rng.integers(0, 2, (count, self.code.k), dtype=np.uint8)
        received = _corrupt(rng, self.code.encode_batch(messages))
        return np.packbits(received, axis=1)[:, 0].astype(np.int64)

    def body(self, session_id: int, index: int) -> bytes:
        return protocol.build_batch_body(session_id, self.words[index:index + 1])


# ---------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------
def wire_small(seed: int, seconds: int) -> Workload:
    """64 logical clients, one hamming84 frame per request, one session."""
    rng = np.random.default_rng([seed, 1])
    pool = WordPool()
    clients = [Client(conn=c % 2) for c in range(64)]
    per_client = max(1, -(-WIRE_SMALL_REQUESTS_PER_S * seconds // len(clients)))
    bodies = [pool.body(1, i) for i in range(256)]
    for client in clients:
        for index in pool.draw(rng, per_client + 1):
            client.call(Request(protocol.OP_DECODE, bodies[index], pool.replies[index], 1))
        client.warm_steps = 1
    return Workload("wire-small", [{"code": "hamming84"}], clients, EPILOGUE_CYCLES)


def wire_bulk(seed: int, seconds: int) -> Workload:
    """2 clients, 4096-frame requests rotating over the three paper codes."""
    rng = np.random.default_rng([seed, 2])
    codes = ["hamming74", "hamming84", "rm13"]
    pool_size = 8
    pools = []
    for session_id, name in enumerate(codes, start=1):
        code = get_code(name)
        decoder = default_decoder_for(code)
        entries = []
        for _ in range(pool_size):
            messages = rng.integers(0, 2, (4096, code.k), dtype=np.uint8)
            received = _corrupt(rng, code.encode_batch(messages))
            entries.append(Request(
                protocol.OP_DECODE,
                protocol.build_batch_body(session_id, received),
                _decode_reply(decoder.decode_batch_detailed(received)),
                4096,
            ))
        pools.append(entries)
    clients = [Client(conn=c) for c in range(2)]
    per_client = max(1, WIRE_BULK_REQUESTS_PER_S * seconds // len(clients))
    for c, client in enumerate(clients):
        picks = rng.integers(0, pool_size, per_client + len(codes))
        for j, pick in enumerate(picks):
            client.call(pools[(j + c) % len(codes)][pick])
        client.warm_steps = len(codes)
    sessions = [{"code": name} for name in codes]
    return Workload("wire-bulk", sessions, clients, EPILOGUE_CYCLES)


#: Session seeds of one run live in [seed * SEED_STRIDE, (seed + 1) *
#: SEED_STRIDE): churn lifetimes count up from the bottom, lanes-mixed
#: sessions sit at the top, so no two sessions share a config (the
#: registry would hand both the same session).
SEED_STRIDE = 1_000_000
LANE_SEED_OFFSET = SEED_STRIDE - 16

#: lanes-mixed frames per request, stream layout and memory shape
LANE_FRAMES = 32
STREAM_DEPTH = 4
MEMORY_LINES = 256
MEMORY_ROT = 0.01
SCRUB_EVERY = 4
LANES_WARM_CYCLES = 2


def lanes_mixed(seed: int, seconds: int) -> Workload:
    """4 clients cycling encode, soft decode, stream push and memory ops."""
    cycles = LANES_WARM_CYCLES + LANES_CYCLES_PER_S * seconds
    sessions: List[dict] = []
    clients = []
    for c in range(4):
        rng = np.random.default_rng([seed, 3, c])
        base = len(sessions) + 1
        lane_seed = seed * SEED_STRIDE + LANE_SEED_OFFSET + c
        sessions += [
            {"code": "hamming84", "seed": lane_seed},
            {"code": "rm13", "decoder": "soft-fht", "seed": lane_seed},
            {"code": "hamming84", "stream_depth": STREAM_DEPTH, "seed": lane_seed},
            {"code": "hamming84", "memory_lines": MEMORY_LINES,
             "memory_rot": MEMORY_ROT, "seed": lane_seed},
        ]
        clients.append(_lanes_client(rng, c % 2, base, lane_seed, cycles))
    return Workload("lanes-mixed", sessions, clients, EPILOGUE_CYCLES)


def _lanes_client(rng, conn, base, lane_seed, cycles) -> Client:
    enc_sid, soft_sid, stream_sid, mem_sid = base, base + 1, base + 2, base + 3
    h84 = get_code("hamming84")
    rm13 = get_code("rm13")
    soft = get_decoder(rm13, "soft-fht")
    h84_decoder = default_decoder_for(h84)
    frames = LANE_FRAMES

    # Stream: one continuous convolutionally interleaved channel.  Every
    # codeword whose window closes before the final push is decided on
    # time; the last (depth - 1) are flushed by the final push, which
    # decodes their missing positions as erasures (zero confidence).
    total = frames * cycles
    source = h84.encode_batch(rng.integers(0, 2, (total, h84.k), dtype=np.uint8))
    channel = interleave_stream(source, STREAM_DEPTH)[:total]
    values = ((1.0 - 2.0 * channel) + SOFT_SIGMA * rng.standard_normal(channel.shape))
    values = values.astype(np.float32)
    span = STREAM_DEPTH - 1
    padded = np.concatenate([values, np.zeros((span, h84.n), np.float32)])
    words = deinterleave_stream(padded.astype(np.float64), STREAM_DEPTH)
    decided = h84_decoder.decode_soft_batch_detailed(words)
    status = np.full(total, protocol.STREAM_ROW_ON_TIME, dtype=np.uint8)
    status[total - span:] = protocol.STREAM_ROW_FLUSHED

    memory = ReferenceMemory(
        _Memo(h84, "encode"), _Memo(h84_decoder, "decode"), MEMORY_LINES
    )
    rot_rng = np.random.default_rng(lane_seed)

    client = Client(conn=conn)
    pushes = []
    for c in range(cycles + 1):
        rows = slice(c * frames, (c + 1) * frames)
        if c < cycles:
            body = protocol.build_stream_push_body(stream_sid, c * frames, values[rows])
            expected = protocol.build_stream_response_body(
                decided.messages[rows], decided.corrected_errors[rows],
                decided.detected_uncorrectable[rows], status[rows],
            )
        else:
            empty = np.zeros((0, h84.n), np.float32)
            body = protocol.build_stream_push_body(stream_sid, total, empty, final=True)
            expected = protocol.build_stream_response_body(
                np.zeros((0, h84.k), np.uint8), np.zeros(0, np.int64),
                np.zeros(0, bool), np.zeros(0, np.uint8),
            )
        pushes.append(client.add(Request(
            protocol.OP_DECODE_STREAM, body, expected, frames if c < cycles else 0,
            stream=True,
        )))
    client.steps.append(((pushes[0],), None))

    for c in range(cycles):
        messages = rng.integers(0, 2, (frames, h84.k), dtype=np.uint8)
        client.call(Request(
            protocol.OP_ENCODE, protocol.build_batch_body(enc_sid, messages),
            protocol.build_encode_response_body(h84.encode_batch(messages)), frames,
        ))

        sent = rm13.encode_batch(rng.integers(0, 2, (frames, rm13.k), dtype=np.uint8))
        confidences = ((1.0 - 2.0 * sent) + SOFT_SIGMA * rng.standard_normal(sent.shape))
        confidences = confidences.astype(np.float32)
        client.call(Request(
            protocol.OP_DECODE_SOFT,
            protocol.build_soft_batch_body(soft_sid, confidences),
            _decode_reply(soft.decode_soft_batch_detailed(confidences.astype(np.float64))),
            frames,
        ))

        client.steps.append(((pushes[c + 1],), pushes[c]))

        addresses = rng.choice(MEMORY_LINES, frames, replace=False)
        messages = rng.integers(0, 2, (frames, h84.k), dtype=np.uint8)
        if c % 2 == 0:
            memory.write(addresses, messages)
            body = protocol.build_mem_write_body(mem_sid, addresses, messages)
            outcomes = [(0, False)] * frames
        else:
            masks = rng.integers(0, 2, (frames, h84.k), dtype=np.uint8)
            outcomes = memory.write_partial(addresses, messages, masks)
            body = protocol.build_mem_write_body(mem_sid, addresses, messages, masks)
        client.call(Request(
            protocol.OP_MEM_WRITE, body,
            protocol.build_mem_write_response_body(
                np.array([o[0] for o in outcomes], np.int64),
                np.array([o[1] for o in outcomes], bool),
            ),
            frames,
        ))

        addresses = rng.choice(MEMORY_LINES, frames, replace=False)
        results = memory.read(addresses)
        client.call(Request(
            protocol.OP_MEM_READ, protocol.build_mem_read_body(mem_sid, addresses),
            protocol.build_decode_response_body(
                np.array([r.message for r in results], np.uint8),
                np.array([r.corrected_errors for r in results], np.int64),
                np.array([r.detected_uncorrectable for r in results], bool),
            ),
            frames,
        ))

        if c % SCRUB_EVERY == SCRUB_EVERY - 1:
            window = (memory.scrub_position + np.arange(frames)) % MEMORY_LINES
            rot_bits = memory.inject_rot(rot_rng, MEMORY_ROT, window)
            report = memory.scrub_step(frames)
            client.call(Request(
                protocol.OP_MEM_SCRUB, protocol.build_mem_scrub_body(mem_sid, frames),
                protocol.build_json_body({
                    "report": report,
                    "rot_bits": rot_bits,
                    "counters": memory.counters.to_dict(),
                    "position": memory.scrub_position,
                }),
                0,
            ))
        if c == LANES_WARM_CYCLES - 1:
            client.warm_steps = len(client.steps)
    client.steps.append(((), pushes[cycles]))
    return client


def session_churn(seed: int, seconds: int) -> Workload:
    """Open -> one-frame decode -> close, in sequence on each connection."""
    return Workload(
        "session-churn", [], [], CHURN_CYCLES_PER_S * seconds, churn_is_main=True
    )


WORKLOADS = {
    "wire-small": wire_small,
    "wire-bulk": wire_bulk,
    "lanes-mixed": lanes_mixed,
    "session-churn": session_churn,
}


def build(name: str, seed: int, seconds: int) -> Workload:
    """The named workload's inputs and references for ``seed``."""
    workload = WORKLOADS[name](seed, seconds)
    rng = np.random.default_rng([seed, 4])
    workload.pool = WordPool()
    workload.churn_seed = seed * SEED_STRIDE
    workload.churn_words = [
        workload.pool.draw(rng, workload.churn_cycles) for _ in range(2)
    ]
    return workload


def open_requests(workload: Workload) -> Sequence[Request]:
    """OP_OPEN requests for the workload's sessions, in id order."""
    return [
        Request(protocol.OP_OPEN, protocol.build_json_body(config), None, 0,
                check=open_check(config["code"], session_id))
        for session_id, config in enumerate(workload.sessions, start=1)
    ]
