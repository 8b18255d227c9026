"""Shared-nothing decode worker pool behind the asyncio front end.

The single-process :class:`~repro.service.server.CodecServer` runs every
session's kernels on one core.  This module scales the same service out
horizontally: N worker *processes*, each running its own
:class:`DispatchCore` (registry + micro-batcher + telemetry — the exact
opcode implementations the single-process server uses), connected to the
front end by one socketpair per worker speaking the normal
length-prefixed protocol.  Nothing crosses the pipes but preserialized
protocol bytes — no pickle anywhere on the hot path: the front end peeks
the two-byte session id off an ENCODE/DECODE body and forwards the body
verbatim to the worker that owns the session.  The front's TCP
connections and every worker's pipe are served by one connection loop,
:func:`serve_connection`, each with its own dispatch function.

Ownership is decided once, when a session opens: the session goes to
the worker with the fewest live sessions (ties rotate from the last
pick), and the pool records that worker index on the front's session
(:attr:`~repro.service.session.CodecSession.worker`); routing, replay
and the status tables read it there.
The front end owns the session *table*: a
:class:`~repro.service.session.SessionRegistry`, the same one a
``workers=0`` server serves from, so config checks and id assignment
are identical in both modes.  The workers own the session
*state* (lanes, injection streams, counters).  That split is what makes
crash recovery simple: when a worker dies, the supervisor respawns it and
replays OP_W_OPEN for every session recorded on it, under the original
wire ids.  Requests lost to the crash
are retried after the respawn — sound because the codec kernels are
deterministic functions of the request bytes, so a retried decode is
bit-identical to the answer the dead worker never sent.  (The one
exception is error *injection* on encode: a respawned session's seeded
injection stream restarts from the seed, which changes which bits flip —
aggregate statistics survive, per-frame draws do not.)

Graceful drain (``restart`` admin action) loses nothing at all: the
front stops admitting new requests to the worker, sends OP_W_DRAIN, the
worker closes its streams (open windows resolve as flushed), answers
every request it holds and acknowledges; the pool then closes the pipe,
the worker exits on the EOF, and the supervisor respawns and replays as
for a crash.  A worker that does not drain in time is killed instead.

Each worker pipe is a :class:`~repro.service.client.CodecClient`, built
anew on every spawn: its disconnect is the death signal of that
generation, and any failure of the pipe is a :class:`WorkerDied`, which
the pool retries.  The in-flight cap, the retry count and the timeouts
are the constants :data:`MAX_INFLIGHT`, :data:`RETRIES`,
:data:`SPAWN_TIMEOUT_S` and :data:`DRAIN_TIMEOUT_S`.  Workers start by
``fork`` where the platform has it, unless ``REPRO_WORKER_START_METHOD``
names another start method.

:class:`WorkerFaults` is the chaos harness's hook: deterministic
fault injection (die after exactly K served requests, delay every
dispatch) applied to a worker's *initial* spawn only, so a chaos drill
converges to a healthy pool instead of crash-looping.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import itertools
import logging
import multiprocessing
import os
import signal
import socket
import stat
import time
from collections import Counter
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Optional, Set

from repro.errors import ServiceError, SessionError
from repro.obs.metrics import render_prometheus
from repro.obs.tracing import get_tracer, reset_tracer, trace_scope
from repro.service import protocol
from repro.service.batcher import MicroBatcher
from repro.service.client import CodecClient
from repro.service.session import (
    CodecSession,
    SessionConfig,
    SessionRegistry,
    catalog,
)
from repro.service.telemetry import ServiceTelemetry, stats_view

logger = logging.getLogger(__name__)

#: Environment override for the multiprocessing start method.
START_METHOD_ENV = "REPRO_WORKER_START_METHOD"

#: Requests one worker pipe carries at once; later ones wait for a slot.
MAX_INFLIGHT = 1024

#: Attempts at one request across worker deaths before it fails.
RETRIES = 4

#: Seconds a request waits for its worker to be spawned and replayed,
#: and a replayed session open waits for its answer.
SPAWN_TIMEOUT_S = 60.0

#: Seconds a worker has to drain, or to answer a metrics request.
DRAIN_TIMEOUT_S = 30.0


class WorkerDied(ServiceError):
    """A worker process disconnected with requests still in flight."""


# ---------------------------------------------------------------------
# DispatchCore: the opcode implementations, host-agnostic
# ---------------------------------------------------------------------
class DispatchCore:
    """Registry + micro-batcher + telemetry with the opcode kernels.

    One core serves either the whole single-process server or one decode
    worker of the pool — shared-nothing either way: a core owns its
    sessions and counters outright, so no locks and no cross-core
    coordination exist anywhere below the routing layer.  Each session
    carries its own lanes, stream window and memory store
    (:class:`~repro.service.session.CodecSession`), so the registry is
    the core's only table keyed by session id.
    """

    def __init__(self, telemetry: Optional[ServiceTelemetry] = None):
        self.telemetry = telemetry if telemetry is not None else ServiceTelemetry()
        self.registry = SessionRegistry(telemetry=self.telemetry)
        self.batcher = MicroBatcher()

    def open_session(
        self,
        config: SessionConfig,
        session_id: Optional[int] = None,
        owner: Optional[Set[int]] = None,
    ) -> CodecSession:
        """Open a new session recording into this core's telemetry; see
        :meth:`~repro.service.session.SessionRegistry.open` for ``owner``."""
        return self.registry.open(config, session_id=session_id, owner=owner)

    def stats(self) -> Dict:
        """The STATS payload over this core's registry and session table."""
        return stats_view(
            self.telemetry.metrics_snapshot(),
            self.registry.table(),
            self.telemetry.uptime_s,
        )

    async def dispatch(
        self, request: protocol.Request, owner: Optional[Set[int]] = None
    ) -> bytes:
        """Serve one parsed request, returning the OK response body; an
        OPEN adds its session's id to ``owner`` (see :meth:`open_session`)."""
        opcode, body = request.opcode, request.body
        if opcode in protocol.DATA_OPS:
            session = self.registry.admit(opcode, body)
            if opcode == protocol.OP_ENCODE:
                return await self._op_encode(session, body)
            if opcode == protocol.OP_DECODE:
                return await self._op_decode(session, body)
            if opcode == protocol.OP_DECODE_SOFT:
                return await self._op_decode_soft(session, body)
            if opcode == protocol.OP_DECODE_STREAM:
                return await self._op_decode_stream(session, body)
            if opcode == protocol.OP_MEM_WRITE:
                return self._op_mem_write(session, body)
            if opcode == protocol.OP_MEM_READ:
                return self._op_mem_read(session, body)
            return self._op_mem_scrub(session, body)
        if opcode == protocol.OP_OPEN:
            # The body is a plain session config: the server assigns the
            # id.  Only the pool's worker plane forces ids (OP_W_OPEN).
            config = SessionConfig.from_dict(protocol.parse_json_body(body))
            session = self.open_session(config, owner=owner)
            return protocol.build_json_body(session.describe())
        if opcode == protocol.OP_CLOSE:
            session_id = protocol.parse_close_body(body)
            return protocol.build_json_body(self.close_session(session_id))
        if opcode == protocol.OP_STATS:
            return protocol.build_json_body(self.stats())
        if opcode == protocol.OP_METRICS:
            return render_prometheus(self.telemetry.metrics_snapshot()).encode(
                "utf-8"
            )
        if opcode == protocol.OP_CODES:
            return protocol.build_json_body(catalog())
        raise protocol.ProtocolError(f"unknown opcode 0x{opcode:02x}")

    async def _op_encode(self, session: CodecSession, body: bytes) -> bytes:
        _, messages = protocol.parse_batch_body(body, lambda _: session.k)
        codewords = await self.batcher.submit(session, "encode", messages)
        return protocol.build_encode_response_body(codewords)

    async def _op_decode(self, session: CodecSession, body: bytes) -> bytes:
        _, rows = protocol.parse_packed_batch_body(body, lambda _: session.n)
        replies = await self.batcher.submit(session, "decode", rows)
        return protocol.build_decode_reply_body(replies)

    async def _op_decode_soft(self, session: CodecSession, body: bytes) -> bytes:
        _, confidences = protocol.parse_soft_batch_body(body, lambda _: session.n)
        replies = await self.batcher.submit(session, "decode_soft", confidences)
        return protocol.build_decode_reply_body(replies)

    def _op_mem_write(self, session: CodecSession, body: bytes) -> bytes:
        _, addresses, messages, masks = protocol.parse_mem_write_body(
            body, lambda _: session.k
        )
        lane = session.memory_lane()
        op = "mem_write" if masks is None else "mem_rmw"
        session.telemetry.record_request(op, len(addresses))
        try:
            corrected, detected = lane.write(addresses, messages, masks)
        except (IndexError, ValueError) as exc:
            # Out-of-range addresses / malformed rows are client mistakes.
            raise ServiceError(str(exc)) from exc
        return protocol.build_mem_write_response_body(corrected, detected)

    def _op_mem_read(self, session: CodecSession, body: bytes) -> bytes:
        _, addresses = protocol.parse_mem_read_body(body)
        lane = session.memory_lane()
        session.telemetry.record_request("mem_read", len(addresses))
        try:
            result = lane.read(addresses)
        except (IndexError, ValueError) as exc:
            raise ServiceError(str(exc)) from exc
        return protocol.build_decode_response_body(
            result.messages, result.corrected_errors, result.detected_uncorrectable
        )

    def _op_mem_scrub(self, session: CodecSession, body: bytes) -> bytes:
        _, count = protocol.parse_mem_scrub_body(body)
        step = session.memory_lane().scrub_step(count)
        # The lines the step swept: a count of 0 means the default
        # width, and a count past the store is clamped to it.
        session.telemetry.record_request("mem_scrub", step["report"]["count"])
        return protocol.build_json_body(step)

    async def _op_decode_stream(self, session: CodecSession, body: bytes) -> bytes:
        from repro.obs.tracing import current_trace_id

        _, first_index, final, frames = protocol.parse_stream_push_body(
            body, lambda _: session.n
        )
        lane = session.stream_lane()
        session.telemetry.record_request("decode_stream", len(frames))
        messages, corrected, detected, status = await lane.push(
            first_index, frames, final=final, trace=current_trace_id()
        )
        return protocol.build_stream_response_body(
            messages, corrected, detected, status
        )

    def close_session(self, session_id: int) -> Dict:
        """Close a session and return the CLOSE reply.

        The lifecycle counterpart of :meth:`open_session`, one call to
        :meth:`~repro.service.session.SessionRegistry.close`: pending
        batch items are flushed (answered, not dropped) and open stream
        windows drain with ``STREAM_ROW_FLUSHED`` status before the
        session's series fold into the closed-session totals; unknown
        ids raise :class:`~repro.errors.SessionError`.
        """
        return self.registry.close(session_id)


# ---------------------------------------------------------------------
# The connection loop: the front's TCP connections and every worker pipe
# ---------------------------------------------------------------------
async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    dispatch: Callable[[protocol.Request], Awaitable[bytes]],
    telemetry: ServiceTelemetry,
) -> None:
    """Serve one connection until EOF or a framing error.

    Each request is dispatched in its own task, so one awaiting its
    batch never stalls the read loop.  ``dispatch`` returns the OK body;
    a ``ServiceError`` or ``ProtocolError`` becomes an ``ST_ERROR``
    reply, anything else a logged "internal error".  Protocol errors
    and replies over the frame cap count on ``telemetry``.
    """
    write_lock = asyncio.Lock()
    tasks: Set[asyncio.Task] = set()

    async def serve(request: protocol.Request) -> None:
        try:
            status, body = protocol.ST_OK, await dispatch(request)
        except (ServiceError, protocol.ProtocolError) as exc:
            if isinstance(exc, protocol.ProtocolError):
                telemetry.record_protocol_error()
            status, body = protocol.ST_ERROR, str(exc).encode("utf-8")
        except Exception as exc:  # defensive: never kill the connection
            logger.exception("internal error serving opcode 0x%02x", request.opcode)
            status, body = protocol.ST_ERROR, f"internal error: {exc}".encode("utf-8")
        opcode, request_id = request.opcode, request.request_id
        try:
            response = protocol.frame_bytes(
                protocol.build_response(opcode, request_id, status, body)
            )
        except protocol.ProtocolError as exc:
            # The success body itself is over the frame cap; the peer
            # must still get *a* response or it awaits this id forever.
            telemetry.record_protocol_error()
            body = str(exc).encode("utf-8")
            response = protocol.frame_bytes(
                protocol.build_response(opcode, request_id, protocol.ST_ERROR, body)
            )
        async with write_lock:
            writer.write(response)
            try:
                await writer.drain()
            except ConnectionError:
                pass

    try:
        while True:
            try:
                payload = await protocol.read_frame(reader)
                if payload is None:
                    break
                request = protocol.parse_request(payload)
            except protocol.ProtocolError:
                # Framing-level violation (oversized prefix, torn frame).
                telemetry.record_protocol_error()
                raise
            task = asyncio.ensure_future(serve(request))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
    except (protocol.ProtocolError, ConnectionError) as exc:
        logger.debug("connection dropped: %s", exc)
    finally:
        for task in list(tasks):
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        # Half-close first: the peer sees EOF even where a forked
        # worker still holds a copy of this socket.
        with contextlib.suppress(OSError):
            writer.write_eof()
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()


# ---------------------------------------------------------------------
# Chaos fault injection
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerFaults:
    """Deterministic fault injection for the chaos test harness.

    Faults apply to the *initial* spawn of each targeted worker only;
    respawned replacements run clean, so a chaos drill converges to a
    healthy pool instead of crash-looping.

    Attributes
    ----------
    worker_index : int, optional
        Which worker the faults target; ``None`` targets all of them.
    die_after_requests : int
        Serve exactly this many data-plane requests, then ``_exit``
        without answering the last one — from the front end's point of
        view the worker crashes mid-batch with a cohort in flight.
    request_delay_us : float
        Sleep this long before dispatching every data-plane request,
        simulating a slow kernel / delayed flush.
    """

    worker_index: Optional[int] = None
    die_after_requests: int = 0
    request_delay_us: float = 0.0

    def applies_to(self, index: int) -> bool:
        """Whether worker ``index`` is targeted by these faults."""
        return self.worker_index is None or self.worker_index == index


# ---------------------------------------------------------------------
# Worker child process (runs outside the parent's coverage view)
# ---------------------------------------------------------------------
def _worker_entry(index, conn, faults):  # pragma: no cover - child process
    """Process entry point: run the worker loop on a fresh event loop.

    The child may have been forked from inside a running event loop (the
    front end spawns workers from async code); the inherited loop object
    is unusable here, so detach from it before ``asyncio.run``.  The
    fork also inherits the front's signal handling, which would route a
    signal to the front's loop: the child resets it, so SIGTERM kills it
    and SIGINT, which a terminal sends the whole process group, leaves
    it to exit when the front closes its pipe.  And the fork copies
    every socket the front held (its listener, each client connection,
    the other workers' pipes); the child closes all of them but its own
    pipe and the standard streams.  Exit with ``os._exit``
    so the child never runs the parent's inherited atexit/test-harness
    machinery.
    """
    try:
        asyncio.events._set_running_loop(None)
        asyncio.set_event_loop(None)
    except Exception:
        pass
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # The fork may have copied a tracer built before the front end's
    # environment was final; rebuild from the (inherited) env here.
    reset_tracer()
    inherited = os.listdir("/dev/fd") if os.path.isdir("/dev/fd") else []
    for fd in map(int, inherited):
        with contextlib.suppress(OSError):
            if fd > 2 and fd != conn.fileno() and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
    code = 0
    try:
        asyncio.run(_worker_main(index, conn, faults))
    except BaseException:
        code = 1
    finally:
        os._exit(code)


async def _worker_main(index, conn, faults):  # pragma: no cover - child
    """One decode worker: a DispatchCore behind :func:`serve_connection`,
    plus the worker-plane opcodes and ``faults`` (``None`` unless they
    target this spawn).  It returns when the front closes the pipe."""
    conn.setblocking(False)
    reader, writer = await asyncio.open_connection(sock=conn)
    core = DispatchCore()
    held: Set[asyncio.Task] = set()
    served = itertools.count(1)

    async def drain() -> bytes:
        # Close every stream first (open windows resolve FLUSHED, as on
        # CLOSE), so no held push waits for frames that will never come;
        # then await every held request (batch lanes flush on the next
        # loop turn) and acknowledge.  The pool closes the pipe on the ack.
        for session in core.registry:
            if session.stream is not None:
                session.stream.close()
        if held:
            await asyncio.wait(held)
        return protocol.build_json_body({"drained": True, "worker": index})

    async def dispatch(request: protocol.Request) -> bytes:
        trace_id = None
        if request.opcode == protocol.OP_W_TRACED:
            # Sampled requests arrive wrapped; unwrap before any
            # accounting so faults and dispatch see the real opcode.
            trace_id, opcode, body = protocol.parse_traced_body(request.body)
            request = protocol.Request(opcode, request.request_id, body)
        opcode = request.opcode
        if opcode == protocol.OP_W_DRAIN:
            return await drain()
        task = asyncio.current_task()
        held.add(task)
        task.add_done_callback(held.discard)
        if opcode == protocol.OP_W_OPEN:
            payload = protocol.parse_json_body(request.body)
            config = SessionConfig.from_dict(payload["config"])
            # The front owns the ids: an open retried across a crash
            # replaces the session that the replay already built.
            with contextlib.suppress(SessionError):
                core.close_session(payload["session_id"])
            session = core.open_session(config, session_id=payload["session_id"])
            return protocol.build_json_body(session.describe())
        if opcode == protocol.OP_W_METRICS:
            return protocol.build_json_body(core.telemetry.metrics_snapshot())
        faulty = faults is not None and opcode in protocol.DATA_OPS
        if faulty and faults.request_delay_us > 0:
            await asyncio.sleep(faults.request_delay_us * 1e-6)
        started = time.perf_counter()
        try:
            with trace_scope(trace_id):
                body = await core.dispatch(request)
        finally:
            if faulty and faults.die_after_requests and (
                next(served) >= faults.die_after_requests
            ):
                # Crash *before* answering: this request and any cohort
                # sharing the flush are lost in flight, exactly the
                # mid-batch death the chaos suite drills.
                os._exit(17)
        if trace_id is not None:
            elapsed_us = (time.perf_counter() - started) * 1e6
            get_tracer().emit(
                trace_id, "worker.dispatch", started, elapsed_us,
                worker=index, opcode=opcode,
            )
        return body

    await serve_connection(reader, writer, dispatch, core.telemetry)


# ---------------------------------------------------------------------
# Parent-side worker handle and pool
# ---------------------------------------------------------------------
class WorkerHandle:
    """Parent-side endpoint of one worker: its process and its pipe.

    The pipe is a :class:`~repro.service.client.CodecClient`, built anew
    on every spawn, so its disconnect is the death signal of that
    generation alone.  ``ready`` gates admission (cleared while the
    worker is down or draining).
    """

    def __init__(self, pool: "WorkerPool", index: int):
        self.pool = pool
        self.index = index
        self.process = None
        self.client: Optional[CodecClient] = None
        self.ready = asyncio.Event()
        self.restarts = 0
        self.spawns = 0
        self.spawned_at = 0.0
        self.limiter = asyncio.Semaphore(MAX_INFLIGHT)

    @property
    def pid(self) -> Optional[int]:
        """The live worker process id, ``None`` while down."""
        return None if self.process is None else self.process.pid

    @property
    def uptime_s(self) -> float:
        """Seconds since the live process spawned, ``0.0`` while down."""
        return 0.0 if self.process is None else time.perf_counter() - self.spawned_at

    async def spawn(self) -> None:
        """Fork a fresh worker process and connect a client to its pipe."""
        parent_sock, child_sock = socket.socketpair()
        faults = self.pool.faults
        if self.spawns > 0 or (faults is not None and not faults.applies_to(self.index)):
            faults = None
        process = self.pool.mp_context.Process(
            target=_worker_entry,
            args=(self.index, child_sock, faults),
            name=f"repro-codec-worker-{self.index}",
            daemon=True,
        )
        process.start()
        self.spawned_at = time.perf_counter()
        # The child holds its own copy now; keeping ours open would stop
        # EOF from ever reaching anyone.
        child_sock.close()
        self.spawns += 1
        self.process = process
        parent_sock.setblocking(False)
        self.client = CodecClient(*await asyncio.open_connection(sock=parent_sock))

    async def request(
        self, opcode: int, body: bytes = b"", timeout: Optional[float] = None
    ) -> protocol.Response:
        """Send one request to the worker and await its raw response.

        Any failure of the pipe, a reply that does not parse included,
        raises :class:`WorkerDied`, which the pool retries once the
        worker is respawned.
        """
        client = self.client
        try:
            future = await client.send_request(opcode, body)
            if timeout is None:
                return await future
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            client.discard(future)
            raise WorkerDied(
                f"decode worker {self.index} did not answer within {timeout}s"
            ) from None
        except (protocol.ProtocolError, OSError) as exc:
            raise WorkerDied(
                f"decode worker {self.index} (pid {self.pid}) disconnected: {exc}"
            ) from exc

    async def cleanup(self) -> None:
        """Close the pipe and reap the process (join off-loop).

        The closed pipe ends the worker's loop, so a live worker exits
        by itself; one still alive 5 s later is terminated, then killed.
        """
        if self.client is not None:
            await self.client.close()
        process, self.process = self.process, None
        if process is None:
            return
        loop = asyncio.get_running_loop()
        for stop in (None, process.terminate, process.kill):
            if not process.is_alive():
                break
            if stop is not None:
                stop()
            await loop.run_in_executor(None, functools.partial(process.join, 5.0))
        with contextlib.suppress(Exception):
            process.close()


def _w_open_body(session: CodecSession) -> bytes:
    """The OP_W_OPEN body that builds ``session`` on a worker under its id."""
    return protocol.build_json_body(
        {"session_id": session.session_id, "config": session.config.to_dict()}
    )


class WorkerPool:
    """N decode worker processes with routing, supervision and replay.

    The front's session table is :attr:`registry`, the same
    :class:`~repro.service.session.SessionRegistry` a ``workers=0``
    server serves from: it validates configs, assigns ids and records
    which connection opened each session.  Each session's worker index
    is chosen when it opens (:meth:`_place`) and kept on the front's
    session as :attr:`~repro.service.session.CodecSession.worker`;
    routing, replay and the status tables read it there.
    """

    def __init__(self, workers: int, faults: Optional[WorkerFaults] = None):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        method = os.environ.get(START_METHOD_ENV)
        if method is None and "fork" in multiprocessing.get_all_start_methods():
            method = "fork"
        self.mp_context = multiprocessing.get_context(method)
        self.start_method = self.mp_context.get_start_method()
        self.faults = faults
        self.handles = [WorkerHandle(self, index) for index in range(workers)]
        self.registry = SessionRegistry()
        self._last_pick = -1
        self._supervisors: List[asyncio.Task] = []
        self._closed = False

    @property
    def n_workers(self) -> int:
        return len(self.handles)

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "WorkerPool":
        """Spawn every worker and begin supervising them."""
        self._closed = False
        for handle in self.handles:
            await handle.spawn()
            handle.ready.set()
        self._supervisors = [
            asyncio.ensure_future(self._supervise(handle))
            for handle in self.handles
        ]
        return self

    async def close(self) -> None:
        """Stop supervision, then close every worker's pipe and reap it."""
        self._closed = True
        for task in self._supervisors:
            task.cancel()
        if self._supervisors:
            await asyncio.gather(*self._supervisors, return_exceptions=True)
        self._supervisors = []
        for handle in self.handles:
            handle.ready.clear()
            await handle.cleanup()

    async def _supervise(self, handle: WorkerHandle) -> None:
        """Respawn ``handle`` whenever its current generation dies."""
        while True:
            await handle.client.wait_disconnected()
            if self._closed:
                return
            handle.ready.clear()
            handle.restarts += 1
            if handle.client.closed:  # by the pool itself, on a drain's ack
                logger.info("decode worker %d restarted (restart #%d)",
                            handle.index, handle.restarts)
            else:
                logger.warning("decode worker %d died (restart #%d); respawning",
                               handle.index, handle.restarts)
            try:
                await handle.cleanup()
                if self._closed:
                    return
                await handle.spawn()
                await self._replay_sessions(handle)
            except asyncio.CancelledError:
                raise
            except Exception:
                # Spawn or replay failed (e.g. the replacement died
                # instantly under a stuck fault); back off and let the
                # fresh generation's disconnect drive another attempt.
                logger.exception(
                    "decode worker %d respawn failed; retrying", handle.index
                )
                await asyncio.sleep(0.05)
                continue
            handle.ready.set()

    async def _replay_sessions(self, handle: WorkerHandle) -> None:
        """Rebuild every session recorded on ``handle``'s worker.

        Replayed under the original wire ids, so clients keep using the
        session ids they already hold.  Sessions with error injection
        restart their seeded streams from the seed (documented caveat).
        """
        for session in self.registry:
            if session.worker != handle.index:
                continue
            response = await handle.request(
                protocol.OP_W_OPEN, _w_open_body(session), timeout=SPAWN_TIMEOUT_S
            )
            if response.status != protocol.ST_OK:
                logger.error(
                    "worker %d refused replay of session %d: %s",
                    handle.index,
                    session.session_id,
                    response.body.decode("utf-8", "replace"),
                )

    # -- sessions and data plane ---------------------------------------
    def _place(self) -> int:
        """The worker for a new session: the one with the fewest live
        sessions, ties going to the first one after the last pick."""
        load = Counter(session.worker for session in self.registry)
        n = self.n_workers
        after_last = [(self._last_pick + step) % n for step in range(1, n + 1)]
        self._last_pick = min(after_last, key=lambda index: load[index])
        return self._last_pick

    async def open_session(
        self, config: SessionConfig, owner: Optional[Set[int]] = None
    ) -> Dict:
        """Open a new session on the least-loaded worker.

        :attr:`registry` opens it first, exactly as at ``workers=0``, and
        adds its id to ``owner`` before any worker round trip; the
        worker then builds it under the registry's id.  If the worker
        refuses, the registry entry is closed again.  The reply is the
        session's description plus its ``worker`` index.
        """
        session = self.registry.open(config, owner=owner)
        session.worker = self._place()
        # Shielded: an opener cancelled after the worker got the open
        # must not drop a session that the worker then holds.
        await asyncio.shield(self._build_session(session))
        return dict(session.describe(), worker=session.worker)

    async def _build_session(self, session: CodecSession) -> None:
        """Build a registered session on its worker; unregister it if refused."""
        try:
            await self.forward(session, protocol.OP_W_OPEN, _w_open_body(session))
        except BaseException:
            self.registry.close(session.session_id)
            raise

    async def close_session(self, session_id: int) -> Dict:
        """Close a session on its worker, then drop it from the front's table.

        The worker drains the session's batch lanes and stream windows
        and frees its state; the front then closes its registry entry,
        so a closed session is never replayed into a respawned worker.
        Stream state is shared-nothing: if the worker crashes *before*
        the close lands, the retry reaches its respawned replacement,
        whose replayed session has a fresh (empty) stream — the close
        still succeeds.
        """
        session = self.registry.get(session_id)  # unknown ids fail here
        # Shielded: a closer cancelled once the worker has the close must
        # still drop the front's entry, which no later CLOSE could.
        return await asyncio.shield(self._close_on_worker(session))

    async def _close_on_worker(self, session: CodecSession) -> Dict:
        """Close a session on its worker; once it has, at the front too."""
        response_body = await self.forward(
            session,
            protocol.OP_CLOSE,
            protocol.build_json_body({"session_id": session.session_id}),
        )
        self.registry.close(session.session_id)
        return protocol.parse_json_body(response_body)

    async def forward(self, session: CodecSession, opcode: int, body: bytes) -> bytes:
        """Send to the session's worker, retrying across worker deaths.

        Retries are sound because every pooled opcode is a deterministic
        function of the request bytes and the session config — a decode
        retried on the respawned worker returns the bit-identical answer
        the dead worker never sent.
        """
        handle = self.handles[session.worker]
        last_error: Optional[WorkerDied] = None
        for _ in range(RETRIES):
            if not handle.ready.is_set():  # a ready worker costs no wait_for
                try:
                    await asyncio.wait_for(handle.ready.wait(), SPAWN_TIMEOUT_S)
                except asyncio.TimeoutError:
                    raise ServiceError(
                        f"decode worker {handle.index} unavailable for "
                        f"{SPAWN_TIMEOUT_S}s"
                    )
            try:
                async with handle.limiter:
                    response = await handle.request(opcode, body)
            except WorkerDied as exc:
                last_error = exc
                # Yield once so the supervisor (woken by the same death)
                # gets to clear `ready` before the next attempt checks it.
                await asyncio.sleep(0)
                continue
            if response.status != protocol.ST_OK:
                raise ServiceError(response.body.decode("utf-8", "replace"))
            return response.body
        raise ServiceError(
            f"request failed after {RETRIES} attempts across worker "
            f"restarts: {last_error}"
        )

    # -- admin plane ----------------------------------------------------
    def _handle_at(self, index) -> WorkerHandle:
        if not isinstance(index, int) or isinstance(index, bool):
            raise ServiceError("admin action needs an integer 'worker' index")
        if not 0 <= index < self.n_workers:
            raise ServiceError(
                f"worker index {index} out of range (pool has "
                f"{self.n_workers} workers)"
            )
        return self.handles[index]

    async def restart_worker(self, index: int) -> Dict:
        """Gracefully drain worker ``index``, then respawn it.

        New requests are held (``ready`` cleared) while the worker
        answers everything already in flight (open stream windows
        resolve as flushed) and acknowledges; the pool then closes the
        pipe, the worker exits, and the supervisor respawns it and
        replays its sessions.  No session and no admitted request is
        lost.  A worker that crashes or does not drain within
        :data:`DRAIN_TIMEOUT_S` is killed and recovered as a crash.
        """
        handle = self._handle_at(index)
        await asyncio.wait_for(handle.ready.wait(), SPAWN_TIMEOUT_S)
        handle.ready.clear()
        process = handle.process
        try:
            await handle.request(protocol.OP_W_DRAIN, timeout=DRAIN_TIMEOUT_S)
        except WorkerDied:
            # A hung worker keeps its pipe open, and only a closed pipe
            # wakes the supervisor.  One that crashed may already have
            # been replaced: never kill its successor.
            if handle.process is process:
                await self.kill_worker(index)
        else:
            await handle.client.close()
        await asyncio.wait_for(handle.ready.wait(), SPAWN_TIMEOUT_S)
        return {"restarted": index, "restarts": handle.restarts, "pid": handle.pid}

    async def kill_worker(self, index: int) -> Dict:
        """SIGKILL worker ``index`` (chaos drill for crash recovery)."""
        handle = self._handle_at(index)
        pid = handle.pid
        process = handle.process
        if process is not None and process.is_alive():
            process.kill()
        return {"killed": index, "pid": pid}

    # -- telemetry ------------------------------------------------------
    async def collect_metrics(self) -> List[Dict]:
        """Per-worker metrics-registry snapshots, each tagged ``worker``.

        Workers that are down or mid-respawn are skipped — their series
        reappear (with counters intact only since the respawn; restarts
        are shared-nothing) on the next scrape.
        """
        snapshots = []
        for handle in self.handles:
            if not handle.ready.is_set():
                continue
            try:
                response = await handle.request(
                    protocol.OP_W_METRICS, timeout=DRAIN_TIMEOUT_S
                )
            except WorkerDied:
                continue
            if response.status != protocol.ST_OK:
                continue
            snapshot = protocol.parse_json_body(response.body)
            snapshot["worker"] = str(handle.index)
            snapshots.append(snapshot)
        return snapshots

    def session_table(self) -> Dict[int, Dict]:
        """The registry's table with each session's worker, for STATS."""
        return {
            session_id: dict(row, worker=self.registry.get(session_id).worker)
            for session_id, row in self.registry.table().items()
        }

    def status(self) -> Dict:
        """Synchronous pool summary for the admin ``status`` action."""
        return {
            "mode": "pool",
            "start_method": self.start_method,
            "sessions": len(self.registry),
            "workers": [
                {
                    "index": handle.index,
                    "pid": handle.pid,
                    "ready": handle.ready.is_set(),
                    "restarts": handle.restarts,
                    "spawns": handle.spawns,
                    "uptime_s": round(handle.uptime_s, 3),
                    "sessions": sorted(
                        session.session_id
                        for session in self.registry
                        if session.worker == handle.index
                    ),
                }
                for handle in self.handles
            ],
        }
