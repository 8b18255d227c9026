"""Observability overhead guard: the disabled path must stay ~free.

Every service telemetry counter records onto the metrics registry, and
trace ids ride through the micro-batcher.  Tracing and kernel
profiling are off by default, so the only always-on cost is the
registry-backed counters themselves — and that cost is the thing this
benchmark bounds.

Closed-loop clients send one-frame hamming84 decodes of seeded noisy
words (p = 0.02 per bit) through one :class:`MicroBatcher` with the
default policy, in-process.  The same workload runs twice on identical
inputs:

* **instrumented** — a real :class:`SessionTelemetry` (registry
  counters, latency histogram), exactly what a server session uses;
* **stubbed** — a do-nothing telemetry object, the floor for the same
  scheduler and kernels.

Both arms are timed best-of-k interleaved (drift hits both equally) and
the run fails if the instrumented arm is more than
``REPRO_BENCH_OBS_MAX_OVERHEAD`` slower (default 0.02 = 2%)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --quick
"""

from __future__ import annotations

import argparse
import asyncio
import os
import time
from typing import Optional

import numpy as np

from conftest import fail as _fail
from repro.coding import get_code
from repro.link.channel import BinaryChannel
from repro.service import BatchPolicy, MicroBatcher
from repro.service.session import CodecSession, SessionConfig

DEFAULT_MAX_OVERHEAD = 0.02
CODE = "hamming84"
ERROR_RATE = 0.02  # give the decoder real corrections to perform


def _workload(clients: int, requests: int, seed: int) -> np.ndarray:
    """Seeded received words, ``clients * requests`` frames of ``CODE``."""
    code = get_code(CODE)
    rng = np.random.default_rng(seed)
    messages = rng.integers(0, 2, (clients * requests, code.k)).astype(np.uint8)
    channel = BinaryChannel(p01=ERROR_RATE, p10=ERROR_RATE)
    return channel.transmit(code.encode_batch(messages), random_state=rng)


class _NoopTelemetry:
    """The do-nothing floor: every telemetry hook the hot path touches."""

    def record_request(self, op, n_frames):
        pass

    def record_batch(self, op, n_frames, reason):
        pass

    def record_decode_outcome(self, corrected, detected, soft=False):
        pass

    def record_latency_us(self, latency_us, op=""):
        pass


async def _drive(
    words: np.ndarray,
    clients: int,
    requests: int,
    telemetry: Optional[object] = None,
) -> float:
    """One closed-loop scheduler run; returns wall seconds."""
    session = CodecSession(1, SessionConfig(code=CODE))
    if telemetry is not None:
        session.telemetry = telemetry
    batcher = MicroBatcher(BatchPolicy())

    async def client(c: int) -> None:
        base = c * requests
        for r in range(requests):
            row = base + r
            await batcher.submit(session, "decode", words[row:row + 1])

    start = time.perf_counter()
    await asyncio.gather(*(client(c) for c in range(clients)))
    return time.perf_counter() - start


def measure(clients: int, requests: int, repeats: int, seed: int):
    """Best-of-``repeats`` seconds for (instrumented, stubbed), interleaved."""
    words = _workload(clients, requests, seed)
    instrumented = []
    stubbed = []
    # Warm both arms once (kernel tables, codebooks) before timing.
    asyncio.run(_drive(words, clients, requests))
    asyncio.run(_drive(words, clients, requests, _NoopTelemetry()))
    for _ in range(repeats):
        instrumented.append(asyncio.run(_drive(words, clients, requests)))
        stubbed.append(
            asyncio.run(_drive(words, clients, requests, _NoopTelemetry()))
        )
    return min(instrumented), min(stubbed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=64)
    parser.add_argument("--requests", type=int, default=50)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller workload and fewer repeats (CI smoke)",
    )
    args = parser.parse_args()
    if args.quick:
        args.clients, args.requests, args.repeats = 32, 25, 3

    max_overhead = float(
        os.environ.get("REPRO_BENCH_OBS_MAX_OVERHEAD", DEFAULT_MAX_OVERHEAD)
    )
    real, floor = measure(args.clients, args.requests, args.repeats, args.seed)
    overhead = real / floor - 1.0
    frames = args.clients * args.requests
    print(
        f"obs overhead: {args.clients} clients x {args.requests} requests "
        f"({frames} frames), best of {args.repeats}"
    )
    print(f"  instrumented telemetry : {real * 1e3:8.2f} ms")
    print(f"  no-op telemetry floor  : {floor * 1e3:8.2f} ms")
    print(f"  overhead               : {overhead * 100:+7.2f} %  "
          f"(bound {max_overhead * 100:.0f} %)")
    if overhead > max_overhead:
        _fail(
            f"observability overhead {overhead * 100:.2f}% exceeds the "
            f"{max_overhead * 100:.0f}% bound (REPRO_BENCH_OBS_MAX_OVERHEAD)"
        )
    print("PASS: observability stays within the disabled-path overhead bound")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
