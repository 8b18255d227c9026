"""Asyncio streaming codec server.

One :class:`CodecServer` hosts many codec sessions (see
:mod:`repro.service.session`) behind the length-prefixed protocol of
:mod:`repro.service.protocol`.  Clients pipeline requests over a single
connection; every ENCODE/DECODE request is handed to the shared
:class:`~repro.service.batcher.MicroBatcher`, so frames from *all*
connections coalesce into the bit-packed batch kernels.  STATS returns
the JSON telemetry snapshot (the stats endpoint), CODES the discovery
catalog.

With ``workers=N`` the server becomes the front end of a shared-nothing
process pool (:mod:`repro.service.workers`): sessions are
consistent-hash routed to N decode worker processes, data-plane bodies
are forwarded as the preserialized bytes they arrived in, STATS and
METRICS read one merge of every worker's registry, and the ADMIN opcode
drives graceful drain/restart and chaos kills.  With ``workers=0`` (the
default) everything runs in-process on a single
:class:`~repro.service.workers.DispatchCore` — the degenerate pool of
size zero — which keeps tests and benchmarks able to drive the exact
same path via :meth:`CodecServer.dispatch`.  Either way
:attr:`CodecServer.registry` is the one session table: the core's, or
the pool's, which assigns ids exactly as the core's does.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Dict, Optional, Set

from repro.errors import ServiceError
from repro.obs.metrics import merge_snapshots, render_prometheus
from repro.obs.tracing import current_trace_id, get_tracer, trace_scope
from repro.service import protocol
from repro.service.batcher import BatchPolicy
from repro.service.session import SessionConfig
from repro.service.telemetry import ServiceTelemetry, stats_view
from repro.service.workers import DispatchCore, WorkerFaults, WorkerPool

logger = logging.getLogger(__name__)


class CodecServer:
    """Serve codec sessions over TCP with micro-batched dispatch.

    Parameters
    ----------
    host, port : str, int
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    policy : BatchPolicy, optional
        Flush/backpressure policy shared by every lane (in pooled mode,
        by every lane of every worker).
    workers : int
        Number of decode worker processes; ``0`` serves everything
        in-process on one core.
    faults : WorkerFaults, optional
        Deterministic fault injection for chaos tests (pooled mode only).
    stream_deadline_us : float, optional
        Server-wide default latency deadline of the streaming decode
        lane (``OP_DECODE_STREAM``): codewords still open after this
        long are forced to best-effort decisions and counted as
        deadline misses.  A session config's own ``stream_deadline_us``
        overrides it; ``None`` leaves streams unbounded by default.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: Optional[BatchPolicy] = None,
        workers: int = 0,
        faults: Optional[WorkerFaults] = None,
        stream_deadline_us: Optional[float] = None,
    ):
        self.host = host
        self._requested_port = port
        self.telemetry = ServiceTelemetry()
        self.core = DispatchCore(
            policy, telemetry=self.telemetry, stream_deadline_us=stream_deadline_us
        )
        self.batcher = self.core.batcher
        self.pool: Optional[WorkerPool] = (
            WorkerPool(
                workers,
                policy=policy,
                faults=faults,
                stream_deadline_us=stream_deadline_us,
            )
            if workers
            else None
        )
        #: The session table: the core's, or the pool's in pooled mode.
        self.registry = self.core.registry if self.pool is None else self.pool.registry
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: Set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    @property
    def n_workers(self) -> int:
        """Pool size; 0 when serving in-process."""
        return 0 if self.pool is None else self.pool.n_workers

    async def start(self) -> "CodecServer":
        if self.pool is not None:
            await self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        self.batcher.flush_all()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self.pool is not None:
            await self.pool.close()

    async def __aenter__(self) -> "CodecServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self.telemetry.connection_opened()
        write_lock = asyncio.Lock()
        request_tasks: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    payload = await protocol.read_frame(reader)
                except protocol.ProtocolError:
                    # Framing-level violation (oversized prefix, torn frame).
                    self.telemetry.record_protocol_error()
                    raise
                if payload is None:
                    break
                try:
                    request = protocol.parse_request(payload)
                except protocol.ProtocolError:
                    self.telemetry.record_protocol_error()
                    raise
                # Dispatch concurrently: a request awaiting its batch
                # must not stall the read loop, or pipelined requests
                # could never coalesce.
                rtask = asyncio.ensure_future(
                    self._serve_request(request, writer, write_lock)
                )
                request_tasks.add(rtask)
                rtask.add_done_callback(request_tasks.discard)
        except (protocol.ProtocolError, ConnectionResetError) as exc:
            logger.debug("connection dropped: %s", exc)
        except asyncio.CancelledError:
            pass
        finally:
            for rtask in list(request_tasks):
                rtask.cancel()
            if request_tasks:
                await asyncio.gather(*request_tasks, return_exceptions=True)
            self.telemetry.connection_closed()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._conn_tasks.discard(task)

    async def _serve_request(
        self,
        request: protocol.Request,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        tracer = get_tracer()
        trace_id = (
            tracer.sample() if request.opcode in protocol.DATA_OPS else None
        )
        started = time.perf_counter()
        try:
            with trace_scope(trace_id):
                status, body = protocol.ST_OK, await self.dispatch(request)
        except (ServiceError, protocol.ProtocolError) as exc:
            if isinstance(exc, protocol.ProtocolError):
                self.telemetry.record_protocol_error()
            status, body = protocol.ST_ERROR, str(exc).encode("utf-8")
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # defensive: never kill the connection task
            logger.exception("internal error serving opcode 0x%02x", request.opcode)
            status, body = protocol.ST_ERROR, f"internal error: {exc}".encode("utf-8")
        if trace_id is not None:
            tracer.emit(
                trace_id,
                "front.request",
                started,
                (time.perf_counter() - started) * 1e6,
                op=protocol.DATA_OPS[request.opcode],
                status=status,
            )
        try:
            response = protocol.frame_bytes(
                protocol.build_response(request.opcode, request.request_id, status, body)
            )
        except protocol.ProtocolError as exc:
            # The success body itself is over the frame cap; the client
            # must still get *a* response or it awaits this id forever.
            self.telemetry.record_protocol_error()
            response = protocol.frame_bytes(
                protocol.build_response(
                    request.opcode,
                    request.request_id,
                    protocol.ST_ERROR,
                    str(exc).encode("utf-8"),
                )
            )
        async with write_lock:
            writer.write(response)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------
    # Opcode dispatch (shared by TCP and in-process callers)
    # ------------------------------------------------------------------
    async def dispatch(self, request: protocol.Request) -> bytes:
        """Serve one parsed request, returning the OK response body."""
        if request.opcode == protocol.OP_ADMIN:
            return await self._op_admin(request.body)
        if self.pool is None:
            return await self.core.dispatch(request)
        if request.opcode == protocol.OP_OPEN:
            config = SessionConfig.from_dict(protocol.parse_json_body(request.body))
            return protocol.build_json_body(await self.pool.open_session(config))
        if request.opcode in protocol.DATA_OPS:
            return await self._forward(request)
        if request.opcode == protocol.OP_CLOSE:
            session_id = protocol.parse_close_body(request.body)
            return protocol.build_json_body(await self.pool.close_session(session_id))
        if request.opcode == protocol.OP_STATS:
            stats = stats_view(
                await self._merged_metrics(),
                self.pool.session_table(),
                self.telemetry.uptime_s,
                self.pool.status()["workers"],
            )
            return protocol.build_json_body(stats)
        if request.opcode == protocol.OP_METRICS:
            return render_prometheus(await self._merged_metrics()).encode("utf-8")
        # CODES, and the unknown-opcode error, are the same in both modes.
        return await self.core.dispatch(request)

    async def _merged_metrics(self) -> Dict:
        """Pooled METRICS and STATS: the front's and every worker's registries.

        Each worker snapshot arrives tagged with its index (see
        :meth:`WorkerPool.collect_metrics`); the tag becomes the
        ``worker`` label so pooled scrapes stay per-worker attributable
        while bucket sums across workers remain exact.
        """
        snapshots = [self.telemetry.metrics_snapshot()]
        extra = [{"worker": "front"}]
        for worker_snapshot in await self.pool.collect_metrics():
            extra.append({"worker": worker_snapshot.pop("worker", "")})
            snapshots.append(worker_snapshot)
        return merge_snapshots(snapshots, extra_labels=extra)

    async def _forward(self, request: protocol.Request) -> bytes:
        """Route a data-plane body to its worker, bytes in, bytes out.

        The front end peeks only the session id and frame count: enough
        to route and to refuse a reply over the frame cap (with the
        session's n and k), never enough to rebuild arrays.
        """
        session_id = self.registry.admit(request.opcode, request.body).session_id
        trace_id = current_trace_id()
        if trace_id is not None:
            # Sampled requests ride an OP_W_TRACED envelope so the worker
            # can continue the trace; unsampled forwards stay byte-identical.
            return await self.pool.forward(
                session_id,
                protocol.OP_W_TRACED,
                protocol.build_traced_body(trace_id, request.opcode, request.body),
            )
        return await self.pool.forward(session_id, request.opcode, request.body)

    async def _op_admin(self, body: bytes) -> bytes:
        """The admin plane: ``status`` / ``restart`` / ``kill``."""
        payload = protocol.parse_json_body(body)
        action = payload.get("action")
        if action == "status":
            if self.pool is None:
                return protocol.build_json_body(
                    {
                        "mode": "local",
                        "sessions": len(self.registry),
                        "workers": [],
                    }
                )
            return protocol.build_json_body(self.pool.status())
        if self.pool is None:
            raise ServiceError(
                f"admin action {action!r} requires a worker pool "
                "(start the server with workers >= 1)"
            )
        if action == "restart":
            return protocol.build_json_body(
                await self.pool.restart_worker(payload.get("worker"))
            )
        if action == "kill":
            return protocol.build_json_body(
                await self.pool.kill_worker(payload.get("worker"))
            )
        raise ServiceError(f"unknown admin action {action!r}")
