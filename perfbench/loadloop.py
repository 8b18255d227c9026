"""Closed-loop load generation over the service's TCP protocol.

One process drives every logical client over at most two connections,
each a :class:`~repro.service.client.CodecClient`, whose
``send_request`` pipelines requests and matches replies by request id.
Every reply is compared with the precomputed reference; a client sends
its next request only when the reply its current step waits for has
arrived.  Round trips are timed from just before a request is handed to
the client to the moment its reply is delivered.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import math
import struct
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.service import protocol
from repro.service.client import CodecClient

from workloads import Client, Request, Workload, open_check

OK = protocol.ST_OK


class Tally:
    """Operations attempted and failed, frames and round trips."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.frames = 0
        self.rows_forced = 0
        self.latencies: List[float] = []
        #: Flips one byte of the next non-empty reply body before it is
        #: checked (benchmark self-test only).
        self.corrupt_next = False

    def judge(self, request: Request, reply: protocol.Response, latency: float) -> bool:
        if self.corrupt_next and reply.body:
            self.corrupt_next = False
            body = reply.body[:-1] + bytes([reply.body[-1] ^ 0x01])
            reply = dataclasses.replace(reply, body=body)
        self.attempted += 1
        ok = reply.status == OK and reply.opcode == request.opcode
        if ok:
            if request.expected is not None:
                ok = reply.body == request.expected
            else:
                ok = request.check(reply.body)
            if not ok:
                self.mismatched += 1
                if self.mismatched <= 3:
                    print(f"reply mismatch: opcode 0x{request.opcode:02x} "
                          f"request {reply.request_id}", file=sys.stderr)
        if request.stream and reply.status == OK:
            # The status byte of each row closes the stream reply body.
            rows = struct.unpack_from("!I", reply.body)[0] if len(reply.body) >= 4 else 0
            tail = reply.body[len(reply.body) - rows:] if rows else b""
            self.rows_forced += tail.count(protocol.STREAM_ROW_FORCED)
        if ok:
            self.frames += request.frames
        else:
            self.failed += 1
        # A failed operation counts as slower than any limit.
        self.latencies.append(latency if ok else math.inf)
        return ok

    def merge(self, other: "Tally") -> None:
        """Add ``other``'s operations to this tally."""
        for name in ("attempted", "failed", "mismatched", "frames", "rows_forced"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.latencies += other.latencies


async def connect(port: int, count: int = 2) -> List[CodecClient]:
    return [await CodecClient.connect("127.0.0.1", port) for _ in range(count)]


async def close(conns: List[CodecClient]) -> None:
    for conn in conns:
        await conn.close()


async def call(conn: CodecClient, request: Request,
               tally: Tally) -> Tuple[bool, protocol.Response]:
    """Send one request, await its reply and judge it."""
    sent = time.perf_counter()
    reply = await (await conn.send_request(request.opcode, request.body))
    return tally.judge(request, reply, time.perf_counter() - sent), reply


class _Runner:
    """Walks one client's steps.

    A request sent in one step may be awaited in a later one, or in the
    next phase (a stream push is sent one push ahead), so the runner
    keeps the replies it still waits for.  Each reply is judged when it
    is delivered, not when it is awaited.
    """

    def __init__(self, client: Client, conn: CodecClient, tally: Tally):
        self.client = client
        self.conn = conn
        self.tally = tally
        self.inflight: Dict[int, asyncio.Future] = {}

    async def run(self, start: int, stop: int) -> None:
        requests = self.client.requests
        for sends, wait in self.client.steps[start:stop]:
            for index in sends:
                request = requests[index]
                sent = time.perf_counter()
                future = await self.conn.send_request(request.opcode, request.body)
                future.add_done_callback(functools.partial(self._delivered, index, sent))
                self.inflight[index] = future
            if wait is not None:
                await self.inflight.pop(wait)

    def _delivered(self, index: int, sent: float, future: asyncio.Future) -> None:
        # A lost connection fails the future, and the step awaiting it raises.
        if not future.cancelled() and future.exception() is None:
            self.tally.judge(self.client.requests[index], future.result(),
                             time.perf_counter() - sent)


async def run_clients(runners: List[_Runner], timed: bool) -> None:
    """Run every client's warm-up (or timed) steps to the end."""
    await asyncio.gather(*(
        runner.run(runner.client.warm_steps, len(runner.client.steps)) if timed
        else runner.run(0, runner.client.warm_steps)
        for runner in runners
    ))


def make_runners(workload: Workload, conns: List[CodecClient], tally: Tally) -> List[_Runner]:
    return [_Runner(c, conns[c.conn], tally) for c in workload.clients]


async def open_sessions(conn: CodecClient, requests, tally: Tally) -> None:
    for request in requests:
        await call(conn, request, tally)


async def churn(
    workload: Workload, conns: List[CodecClient], tally: Tally,
    cycles: Optional[int] = None,
) -> None:
    """Open -> one-frame decode -> close cycles, in sequence per connection.

    Each lifetime opens its own session (a distinct seed), so every
    cycle allocates and frees registry, lane and telemetry state.
    """
    pool = workload.pool
    count = workload.churn_cycles if cycles is None else cycles

    async def one_connection(index: int) -> None:
        conn = conns[index]
        words = workload.churn_words[index]
        for cycle in range(count):
            seed = workload.churn_seed + 2 * cycle + index
            config = {"code": "hamming84", "seed": seed}
            opened = Request(protocol.OP_OPEN, protocol.build_json_body(config), None, 0,
                             check=open_check("hamming84", None))
            ok, reply = await call(conn, opened, tally)
            if not ok:
                continue
            session_id = json.loads(reply.body)["session_id"]
            word = int(words[cycle])
            decode = Request(protocol.OP_DECODE, pool.body(session_id, word),
                             pool.replies[word], 1)
            await call(conn, decode, tally)
            closing = Request(
                protocol.OP_CLOSE, protocol.build_json_body({"session_id": session_id}),
                None, 0, check=lambda body, sid=session_id: json.loads(body).get("closed") == sid,
            )
            await call(conn, closing, tally)

    await asyncio.gather(*(one_connection(i) for i in range(len(conns))))


def _metrics_ok(body: bytes) -> bool:
    text = body.decode("utf-8")
    return any(line.startswith("repro_") for line in text.splitlines())


def _stats_ok(connections: int) -> Callable[[bytes], bool]:
    def check(body: bytes) -> bool:
        stats = json.loads(body)
        return "sessions" in stats and stats.get("connections_open") == connections
    return check


async def scrapes(conn: CodecClient, tally: Tally, metrics: int, stats: int,
                  connections: int) -> int:
    """The closing METRICS then STATS scrapes; returns how many METRICS
    scrapes failed."""
    failures = 0
    for _ in range(metrics):
        request = Request(protocol.OP_METRICS, b"", None, 0, check=_metrics_ok)
        failures += not (await call(conn, request, tally))[0]
    for _ in range(stats):
        request = Request(protocol.OP_STATS, b"", None, 0, check=_stats_ok(connections))
        await call(conn, request, tally)
    return failures
