"""Streaming codec service: online encode/decode over the batch kernels.

The paper's encoders sit *inline* on a live cryo-to-room-temperature
link; this subsystem is that workload in software.  An asyncio
:class:`~repro.service.server.CodecServer` hosts many codec sessions
(code x decoder x error-injection policy), coalesces concurrent
requests through the :class:`~repro.service.batcher.MicroBatcher` into
the batch kernels (table gathers for every served code), and exposes
per-session telemetry.
:mod:`repro.service.loadgen` drives it with shaped traffic; the
``repro serve`` / ``repro loadgen`` CLI subcommands wrap both.

``serve --workers N`` scales the same service across a shared-nothing
pool of N decode worker processes (:mod:`repro.service.workers`):
least-loaded session placement, pickle-free frame handoff, STATS and
METRICS merged across workers, and graceful drain/restart with crash
supervision.
"""

from repro.service.batcher import MicroBatcher
from repro.service.client import (
    CodecClient,
    DecodedBlock,
    MemoryWriteBlock,
    SessionHandle,
    StreamBlock,
)
from repro.service.memory import MemoryLane
from repro.service.loadgen import (
    LatencyReservoir,
    LoadReport,
    SCENARIO_FACTORIES,
    Scenario,
    make_scenario,
    run_scenario,
)
from repro.service.protocol import ProtocolError
from repro.service.server import CodecServer
from repro.service.session import (
    CodecSession,
    SessionConfig,
    SessionRegistry,
    catalog,
)
from repro.service.stream import StreamLane
from repro.service.telemetry import ServiceTelemetry, SessionTelemetry, stats_view
from repro.service.workers import (
    DispatchCore,
    WorkerDied,
    WorkerFaults,
    WorkerPool,
)

__all__ = [
    "MicroBatcher",
    "CodecClient",
    "DecodedBlock",
    "MemoryWriteBlock",
    "SessionHandle",
    "StreamBlock",
    "StreamLane",
    "MemoryLane",
    "LoadReport",
    "Scenario",
    "SCENARIO_FACTORIES",
    "make_scenario",
    "run_scenario",
    "ProtocolError",
    "CodecServer",
    "CodecSession",
    "SessionConfig",
    "SessionRegistry",
    "catalog",
    "LatencyReservoir",
    "ServiceTelemetry",
    "SessionTelemetry",
    "stats_view",
    "DispatchCore",
    "WorkerDied",
    "WorkerFaults",
    "WorkerPool",
]
