"""Traced codec server: ``repro serve`` with layer spans.

Usage::

    python3 perfbench/launcher.py --spans FILE serve --port 0 --workers 0

Wraps the public entry points of each layer where their callers look
them up, then runs the ``repro`` command line in this process with the
remaining arguments, so the traced server is the one ``repro serve``
builds.  Every wrapped call records a span: name, start, end, busy
time, parent span, request id and a size (frames, lines or bytes).  For
a coroutine, busy time sums the steps it actually ran, so time spent
suspended on a socket or a batch flush is not charged to it.  Spans
stay in memory and are written to ``FILE`` (``numpy.savez``) once the
server has been interrupted and the command has returned.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import sys
from array import array
from time import perf_counter

import numpy as np


class Recorder:
    """Column store of spans, with the stack of spans running now.

    The server is one thread, and between two event-loop callbacks no
    span is running, so the stack gives each span its parent: the span
    that was running when it began.
    """

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.rid = array("q")
        self.n = array("q")
        self.aux = array("q")
        self.stack = []

    def intern(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def begin(self, name_id: int, now: float) -> int:
        index = len(self.name)
        parent = self.stack[-1] if self.stack else -1
        self.name.append(name_id)
        self.parent.append(parent)
        self.start.append(now)
        self.end.append(now)
        self.busy.append(0.0)
        self.rid.append(self.rid[parent] if parent >= 0 else -1)
        self.n.append(0)
        self.aux.append(0)
        return index

    def save(self, path: str, extra: dict) -> None:
        columns = {
            key: np.frombuffer(getattr(self, key), dtype=getattr(self, key).typecode)
            if len(getattr(self, key)) else np.zeros(0)
            for key in ("name", "parent", "start", "end", "busy", "rid", "n", "aux")
        }
        meta = dict(extra, names=self.names)
        with open(path, "wb") as handle:
            np.savez(handle, meta=np.array(json.dumps(meta)), **columns)

    def describe(self, index: int, info) -> None:
        """Set a span's ``rid``/``n``/``aux`` columns from ``info``."""
        if info is not None:
            for key, value in info.items():
                getattr(self, key)[index] = value

    def charge(self, index: int, started: float) -> None:
        """End one running step of span ``index``."""
        ended = perf_counter()
        self.stack.pop()
        self.busy[index] += ended - started
        self.end[index] = ended

    def traced_sync(self, name, fn, before=None, after=None):
        """Wrap a plain function; ``before(args, kwargs)`` and
        ``after(result, args)`` return column values for its span."""
        name_id = self.intern(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name_id, 0.0)
            if before is not None:
                self.describe(index, before(args, kwargs))
            stack.append(index)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = perf_counter()
                stack.pop()
                self.start[index] = started
                self.end[index] = ended
                self.busy[index] = ended - started
            if after is not None:
                self.describe(index, after(result, args))
            return result

        return wrapper

    def traced_async(self, name, fn, before=None, after=None):
        """Wrap a coroutine function; see :class:`_TimedAwait`."""
        name_id = self.intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = before(args, kwargs) if before is not None else None
            return _TimedAwait(self, fn(*args, **kwargs), name_id, info, after, args)

        return wrapper


class _TimedAwait:
    """Drive a coroutine step by step, charging each step to its span.

    Only the steps count as busy time: while the coroutine is suspended
    on a socket or a future, other callbacks run and no time is charged.
    """

    __slots__ = ("rec", "coro", "name_id", "info", "after", "args")

    def __init__(self, rec, coro, name_id, info, after, args):
        self.rec = rec
        self.coro = coro
        self.name_id = name_id
        self.info = info
        self.after = after
        self.args = args

    def __await__(self):
        rec, coro = self.rec, self.coro
        index = -1
        value = error = None
        while True:
            started = perf_counter()
            if index < 0:
                index = rec.begin(self.name_id, started)
                rec.describe(index, self.info)
            rec.stack.append(index)
            try:
                if error is None:
                    step = coro.send(value)
                else:
                    step = coro.throw(error)
            except StopIteration as stop:
                rec.charge(index, started)
                if self.after is not None:
                    rec.describe(index, self.after(stop.value, self.args))
                return stop.value
            except BaseException:
                rec.charge(index, started)
                raise
            rec.charge(index, started)
            try:
                value, error = (yield step), None
            except BaseException as exc:  # cancellation: pass it inward
                value, error = None, exc


def _replace_everywhere(original, replacement) -> None:
    """Point every ``repro`` module global bound to ``original`` at the wrapper."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(rec: Recorder, servers: list) -> None:
    """Wrap the layers' public entry points before the server is built.

    Every :class:`CodecServer` that starts is appended to ``servers``.
    """
    import repro.coding.interleave  # noqa: F401  (registers composite decoders)
    from repro.backends import registry as backend_registry
    from repro.coding.decoders.base import Decoder
    from repro.coding.linear import LinearBlockCode
    from repro.coding.stream import SlidingWindowDecoder
    from repro.obs import metrics
    from repro.service import protocol, server, telemetry, workers
    from repro.service.batcher import MicroBatcher
    from repro.service.memory import MemoryLane
    from repro.service.session import CodecSession

    data_ops = {
        protocol.OP_ENCODE, protocol.OP_DECODE, protocol.OP_DECODE_SOFT,
        protocol.OP_DECODE_STREAM, protocol.OP_MEM_WRITE, protocol.OP_MEM_READ,
    }
    peek = protocol.peek_batch_header
    lane_ops = {"encode": 0, "decode": 1, "decode_soft": 2}

    def request_info(args, kwargs):
        request = args[1]
        frames = peek(request.body)[1] if request.opcode in data_ops else 0
        return {"rid": request.request_id, "aux": request.opcode, "n": frames}

    def frames_of(position):
        return lambda args, kwargs: {"n": len(args[position])}

    def lane_of(session, op):
        return session.session_id * 8 + lane_ops[op]

    def code_of(decoder):
        return rec.intern("code:" + decoder.code.name)

    def decoder_info(args, kwargs):
        return {"n": len(args[1]), "aux": code_of(args[0])}

    # Protocol: framing, parsers and builders, looked up as ``protocol.X``.
    for attr in dir(protocol):
        fn = getattr(protocol, attr)
        if attr.startswith(("parse_", "build_")) or attr == "frame_bytes":
            after = (lambda result, args: {"n": len(result)}) if attr == "frame_bytes" else None
            wrapped = rec.traced_sync("protocol." + attr, fn, after=after)
            setattr(protocol, attr, wrapped)
            _replace_everywhere(fn, wrapped)
    read_frame = protocol.read_frame
    protocol.read_frame = rec.traced_async(
        "protocol.read_frame", read_frame,
        after=lambda result, args: {"n": len(result) + 4 if result is not None else 0},
    )

    writer = asyncio.StreamWriter
    writer.write = rec.traced_sync("writer.write", writer.write, before=frames_of(1))
    writer.drain = rec.traced_async("writer.drain", writer.drain)

    start = server.CodecServer.start

    @functools.wraps(start)
    def keep_server(self, *args, **kwargs):
        servers.append(self)
        return start(self, *args, **kwargs)

    server.CodecServer.start = keep_server
    server.CodecServer.dispatch = rec.traced_async(
        "server.dispatch", server.CodecServer.dispatch, before=request_info)
    workers.DispatchCore.dispatch = rec.traced_async(
        "core.dispatch", workers.DispatchCore.dispatch, before=request_info)
    workers.DispatchCore.open_session = rec.traced_sync(
        "core.open_session", workers.DispatchCore.open_session)
    workers.DispatchCore.close_session = rec.traced_sync(
        "core.close_session", workers.DispatchCore.close_session)

    MicroBatcher.submit = rec.traced_async(
        "batcher.submit", MicroBatcher.submit,
        before=lambda args, kwargs: {"aux": lane_of(args[1], args[2]), "n": len(args[3])})
    for attr, op in (("encode_frames", "encode"), ("decode_frames", "decode"),
                     ("decode_soft_frames", "decode_soft")):
        setattr(CodecSession, attr, rec.traced_sync(
            "session." + attr, getattr(CodecSession, attr),
            before=lambda args, kwargs, op=op: {"aux": lane_of(args[0], op),
                                                "n": len(args[1])}))

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    for cls in [Decoder, *subclasses(Decoder)]:
        for attr in ("decode_batch_detailed", "decode_soft_batch_detailed"):
            if attr in vars(cls):
                setattr(cls, attr, rec.traced_sync(
                    "decoder." + attr, vars(cls)[attr], before=decoder_info))
    for cls in [LinearBlockCode, *subclasses(LinearBlockCode)]:
        if "encode_batch" in vars(cls):
            cls.encode_batch = rec.traced_sync(
                "code.encode_batch", vars(cls)["encode_batch"], before=frames_of(1))
    resolve = backend_registry.resolve_backend
    _replace_everywhere(resolve, rec.traced_sync("backends.resolve_backend", resolve))

    SlidingWindowDecoder.push = rec.traced_sync(
        "stream.window_push", SlidingWindowDecoder.push, before=frames_of(1))
    MemoryLane.write = rec.traced_sync(
        "memory.write", MemoryLane.write,
        before=lambda args, kwargs: {
            "n": len(args[1]),
            "aux": int((args[3] if len(args) > 3 else kwargs.get("masks")) is not None)})
    MemoryLane.read = rec.traced_sync("memory.read", MemoryLane.read, before=frames_of(1))
    MemoryLane.scrub_step = rec.traced_sync(
        "memory.scrub_step", MemoryLane.scrub_step,
        after=lambda result, args: {"n": result["report"]["count"],
                                    "aux": result["report"]["repaired_lines"]})

    for attr in dir(telemetry.SessionTelemetry):
        if attr.startswith("record_"):
            setattr(telemetry.SessionTelemetry, attr, rec.traced_sync(
                "telemetry." + attr, getattr(telemetry.SessionTelemetry, attr)))
    render = metrics.render_prometheus
    _replace_everywhere(render, rec.traced_sync(
        "telemetry.render_prometheus", render,
        after=lambda result, args: {"n": len(result)}))


def series_count(server) -> int:
    snapshot = server.telemetry.metrics_snapshot()
    return sum(len(family["series"]) for family in snapshot["families"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced codec server")
    parser.add_argument("--spans", required=True, help="file the spans are written to")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the repro command line to run, e.g. serve --port 0")
    args = parser.parse_args(argv)

    rec = Recorder()
    servers = []
    instrument(rec, servers)
    from repro import cli

    try:
        status = cli.main(args.command)
    finally:
        series = series_count(servers[-1]) if servers else 0
        rec.save(args.spans, {"series": series})
    return status


if __name__ == "__main__":
    sys.exit(main())
