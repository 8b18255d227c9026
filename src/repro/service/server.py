"""Asyncio streaming codec server.

One :class:`CodecServer` hosts many codec sessions (see
:mod:`repro.service.session`) behind the length-prefixed protocol of
:mod:`repro.service.protocol`.  Clients pipeline requests over a single
connection; every ENCODE/DECODE request is handed to the shared
:class:`~repro.service.batcher.MicroBatcher`, so frames from *all*
connections coalesce into the batch kernels.  STATS returns the JSON
telemetry snapshot (the stats endpoint), CODES the discovery catalog.

With ``workers=N`` the server becomes the front end of a shared-nothing
process pool (:mod:`repro.service.workers`): each new session goes to
the decode worker process with the fewest live sessions, data-plane
bodies are forwarded as the preserialized bytes they arrived in, STATS
and METRICS read one merge of every worker's registry, and the ADMIN
opcode drives graceful drain/restart and chaos kills.  With
``workers=0`` (the default) everything runs in-process on a single
:class:`~repro.service.workers.DispatchCore` — the degenerate pool of
size zero — which keeps tests and benchmarks able to drive the exact
same path via :meth:`CodecServer.dispatch`; a pooled front builds no
core.  Either way :attr:`CodecServer.registry` is the one session
table, and :func:`~repro.service.workers.serve_connection`, the loop
each pool worker runs on its pipe, serves every TCP connection.
A session lives until its CLOSE or the end of the connection that
opened it; any connection may address any live session.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import time
from typing import Dict, Optional, Set

from repro.errors import ServiceError
from repro.obs.metrics import merge_snapshots, render_prometheus
from repro.obs.tracing import current_trace_id, get_tracer, trace_scope
from repro.service import protocol
from repro.service.session import SessionConfig, catalog
from repro.service.telemetry import ServiceTelemetry, stats_view
from repro.service.workers import (
    DispatchCore,
    WorkerFaults,
    WorkerPool,
    serve_connection,
)


class CodecServer:
    """Serve codec sessions over TCP with micro-batched dispatch.

    Parameters
    ----------
    host, port : str, int
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    workers : int
        Number of decode worker processes; ``0`` serves everything
        in-process on one core.
    faults : WorkerFaults, optional
        Deterministic fault injection for chaos tests (pooled mode only).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 0,
        faults: Optional[WorkerFaults] = None,
    ):
        self.host = host
        self._requested_port = port
        self.telemetry = ServiceTelemetry()
        # Exactly one of these serves: the in-process core at workers=0,
        # the pool otherwise.  Its registry is the one session table.
        self.core: Optional[DispatchCore] = None
        self.pool: Optional[WorkerPool] = None
        if workers:
            self.pool = WorkerPool(workers, faults=faults)
            self.registry = self.pool.registry
        else:
            self.core = DispatchCore(telemetry=self.telemetry)
            self.registry = self.core.registry
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

    async def stop(self) -> None:
        for session in self.registry:  # answer every queued frame first
            for lane in list(session.lanes.values()):
                lane.flush("drain")
        if self._server is not None:
            self._server.close()
        # Connections end before the listener is awaited: from Python
        # 3.12 on, ``wait_closed`` waits for every connection to end.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
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
        owned: Set[int] = set()  # the live sessions this connection opened
        dispatch = functools.partial(self._traced_dispatch, owned)
        try:
            try:
                await serve_connection(reader, writer, dispatch, self.telemetry)
            finally:
                # The connection's end closes what it opened, as CLOSE would.
                for session_id in list(owned):
                    if session_id not in owned:
                        continue  # another connection closed it meanwhile
                    if self.pool is None:
                        self.core.close_session(session_id)
                    else:
                        with contextlib.suppress(ServiceError):
                            await self.pool.close_session(session_id)
        except asyncio.CancelledError:
            pass  # stop() cancels; asyncio would log a cancelled handler
        finally:
            self.telemetry.connection_closed()
            self._conn_tasks.discard(task)

    async def _traced_dispatch(
        self, owner: Set[int], request: protocol.Request
    ) -> bytes:
        """:meth:`dispatch`, under a ``front.request`` span when sampled;
        ``owner`` comes first, as a keyword-bound partial costs ~0.1 us."""
        tracer = get_tracer()
        trace_id = tracer.sample() if request.opcode in protocol.DATA_OPS else None
        if trace_id is None:
            return await self.dispatch(request, owner)
        started, status = time.perf_counter(), protocol.ST_ERROR
        try:
            with trace_scope(trace_id):
                body = await self.dispatch(request, owner)
            status = protocol.ST_OK
            return body
        finally:
            elapsed_us = (time.perf_counter() - started) * 1e6
            op = protocol.DATA_OPS[request.opcode]
            tracer.emit(
                trace_id, "front.request", started, elapsed_us, op=op, status=status
            )

    # ------------------------------------------------------------------
    # Opcode dispatch (shared by TCP and in-process callers)
    # ------------------------------------------------------------------
    async def dispatch(
        self, request: protocol.Request, owner: Optional[Set[int]] = None
    ) -> bytes:
        """Serve one parsed request, returning the OK response body; an
        OPEN adds its session's id to ``owner``, a TCP connection's set."""
        opcode = request.opcode
        if opcode == protocol.OP_ADMIN:
            return await self._op_admin(request.body)
        if self.pool is None:
            return await self.core.dispatch(request, owner)
        if opcode in protocol.DATA_OPS:
            return await self._forward(request)
        if opcode == protocol.OP_OPEN:
            config = SessionConfig.from_dict(protocol.parse_json_body(request.body))
            return protocol.build_json_body(await self.pool.open_session(config, owner))
        if opcode == protocol.OP_CLOSE:
            session_id = protocol.parse_close_body(request.body)
            return protocol.build_json_body(await self.pool.close_session(session_id))
        if opcode == protocol.OP_STATS:
            stats = stats_view(
                await self._merged_metrics(),
                self.pool.session_table(),
                self.telemetry.uptime_s,
                self.pool.status()["workers"],
            )
            return protocol.build_json_body(stats)
        if opcode == protocol.OP_METRICS:
            return render_prometheus(await self._merged_metrics()).encode("utf-8")
        if opcode == protocol.OP_CODES:
            return protocol.build_json_body(catalog())
        raise protocol.ProtocolError(f"unknown opcode 0x{opcode:02x}")

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
        session = self.registry.admit(request.opcode, request.body)
        trace_id = current_trace_id()
        if trace_id is not None:
            # Sampled requests ride an OP_W_TRACED envelope so the worker
            # can continue the trace; unsampled forwards stay byte-identical.
            return await self.pool.forward(
                session,
                protocol.OP_W_TRACED,
                protocol.build_traced_body(trace_id, request.opcode, request.body),
            )
        return await self.pool.forward(session, request.opcode, request.body)

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
