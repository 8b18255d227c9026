"""End-to-end benchmark of the codec service over TCP.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload wire-small --seed 1 --seconds 10 --trace 0

Each run builds its workload's inputs and reference replies from
``--seed`` (see ``workloads.py``), then starts ``repro serve`` in
single-process mode several times, timing each start up to the first
correct reply on every session (``setup_s`` is their median).  On the
last server it runs the timed closed loop, the closing METRICS/STATS
scrapes and a session-churn epilogue, checks every reply, and prints
the end-to-end metrics as the last line of standard output.  Times and
rates are taken over unstolen time (see :class:`Window`).

With ``--trace 1`` it instead runs the workload once on ``repro serve``
and once on the benchmark's own traced launcher (``launcher.py``), and
prints the per-layer metrics from the launcher's spans
(``layers.py``), with ``trace.overhead_ratio`` the traced over the
untraced throughput.

Build outputs (bytecode, the native kernel cache, span dumps, server
logs) go to ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

#: Server starts per untraced run; ``setup_s`` is their median.
SETUP_SPAWNS = 5
#: A run whose host steal or generator load exceeds these is flagged.
STEAL_LIMIT = 0.10
CLIENT_CPU_LIMIT = 0.90

# The generator and the server each get a CPU of their own.  Left to the
# scheduler, the two share one CPU for seconds at a time, which moved
# wire-small throughput between two levels ~40% apart within a run.
_CPUS = sorted(os.sched_getaffinity(0))
GENERATOR_CPUS = {_CPUS[0]}
SERVER_CPUS = {_CPUS[1]} if len(_CPUS) > 1 else GENERATOR_CPUS
PINNED_CPUS = sorted(GENERATOR_CPUS | SERVER_CPUS)


def _server_env() -> dict:
    env = dict(os.environ)
    for name in ("REPRO_BACKEND", "REPRO_TRACE_FILE", "REPRO_TRACE_SAMPLE",
                 "REPRO_PROFILE_KERNELS", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["REPRO_NATIVE_CACHE_DIR"] = str(BUILD / "native")
    return env


def prepare() -> None:
    """Fill the bytecode and native-kernel caches before any timed start."""
    import compileall

    BUILD.mkdir(exist_ok=True)
    os.environ.update({k: v for k, v in _server_env().items()
                       if k in ("PYTHONPYCACHEPREFIX", "REPRO_NATIVE_CACHE_DIR")})
    sys.pycache_prefix = str(BUILD / "pycache")
    sys.dont_write_bytecode = False
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    from repro.backends import available_backends

    available_backends()


# ---------------------------------------------------------------------
# Process accounting from /proc
# ---------------------------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK")


def server_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def steal_ticks():
    """(steal, total) jiffies from /proc/stat: the whole host first, then
    each CPU the generator or the server is pinned to."""
    wanted = {"cpu"} | {f"cpu{n}" for n in PINNED_CPUS}
    ticks = {}
    with open("/proc/stat") as handle:
        for line in handle:
            name, *values = line.split()
            if not name.startswith("cpu"):
                break
            if name in wanted:
                values = [int(v) for v in values[:8]]
                ticks[name] = (values[7], sum(values))
    return [ticks["cpu"]] + [ticks[f"cpu{n}"] for n in PINNED_CPUS]


def client_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _share(before, after) -> float:
    return (after[0] - before[0]) / max(1, after[1] - before[1])


class Window:
    """Server CPU, generator CPU and CPU steal over one phase.

    Host CPU steal on a small shared VM ranged from ~2% to ~35% between
    runs, in phases lasting minutes.  Every request of a closed loop
    crosses both the generator's and the server's CPU, so it stalls
    whenever the hypervisor holds either: throughput fell by twice the
    host steal share.  A phase's *unstolen* time is therefore its wall
    time times one minus the steal shares of the two pinned CPUs, and
    rates are taken per second of unstolen time, over the whole phase.
    An idle CPU is not stolen from, so while only the server runs, as
    it does while it starts, the correction is that of its CPU alone.
    On a machine without steal the unstolen time is the wall time.
    """

    def __init__(self, pid: Optional[int]):
        self.pid = pid
        self.first = self._sample()

    def _sample(self):
        server = server_cpu_s(self.pid) if self.pid is not None else 0.0
        return (time.perf_counter(), server, client_cpu_s(), steal_ticks())

    def stop(self) -> dict:
        first, last = self.first, self._sample()
        wall = last[0] - first[0]
        stolen = sum(_share(b, a) for b, a in zip(first[3][1:], last[3][1:]))
        return {
            "start": first[0],
            "end": last[0],
            "wall_s": wall,
            "unstolen_s": wall * max(0.0, 1.0 - stolen),
            "server_cpu_s": last[1] - first[1],
            "client_cpu_s": last[2] - first[2],
            "steal_share": _share(first[3][0], last[3][0]),
        }


def rates(window: dict, tally) -> dict:
    """Throughput per second of unstolen time and server CPU per frame."""
    frames = tally.frames
    unstolen = window["unstolen_s"]
    return {
        "throughput_fps": frames / unstolen if unstolen > 0 else 0.0,
        "server_cpu_us_per_frame": window["server_cpu_s"] * 1e6 / frames if frames else math.inf,
    }


# ---------------------------------------------------------------------
# Server processes
# ---------------------------------------------------------------------
#: The ``repro`` command line of every server, traced or not.
SERVE_ARGS = ["serve", "--port", "0", "--workers", "0"]
SERVE_ARGV = [sys.executable, "-m", "repro.cli", *SERVE_ARGS]


def spawn(argv, log_name: str):
    """Start a server; returns (process, port) once it listens."""
    log = open(BUILD / log_name, "ab")
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_server_env(), stdout=subprocess.PIPE, stderr=log
    )
    log.close()
    os.sched_setaffinity(proc.pid, SERVER_CPUS)
    line = proc.stdout.readline().decode()
    if "serving codec sessions on" not in line:
        stop(proc)
        raise RuntimeError(f"server did not start (see {BUILD / log_name})")
    return proc, int(line.rsplit(":", 1)[1])


def stop(proc) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


# ---------------------------------------------------------------------
# One server lifetime
# ---------------------------------------------------------------------
class Session:
    """A started server with its two connections and warmed-up clients."""

    def __init__(self, workload, argv, log_name):
        self.workload = workload
        self.argv = argv
        self.log_name = log_name
        self.proc = None

    async def start(self, tally) -> float:
        """Spawn, connect, open sessions and run the warm-up; returns the
        unstolen seconds this took."""
        import loadloop
        import workloads

        window = Window(None)
        self.proc, port = spawn(self.argv, self.log_name)
        self.conns = await loadloop.connect(port)
        await loadloop.open_sessions(
            self.conns[0], workloads.open_requests(self.workload), tally
        )
        self.runners = loadloop.make_runners(self.workload, self.conns, tally)
        await loadloop.run_clients(self.runners, timed=False)
        if self.workload.churn_is_main:
            await loadloop.churn(self.workload, self.conns, tally, cycles=1)
        return window.stop()["unstolen_s"]

    async def main_phase(self, tally):
        """The timed phase; returns its window."""
        import loadloop

        for runner in self.runners:
            runner.tally = tally
        # A collector pause in the generator would read as server latency.
        gc.disable()
        window = Window(self.proc.pid)
        try:
            if self.workload.churn_is_main:
                await loadloop.churn(self.workload, self.conns, tally)
            else:
                await loadloop.run_clients(self.runners, timed=True)
        finally:
            window = window.stop()
            gc.enable()
        return window

    async def epilogue(self, tally):
        """The closing METRICS and STATS scrapes, the server's peak RSS,
        then (unless churn was the timed phase) the churn epilogue.

        The scrapes come before the churn epilogue, so its session
        lifetimes neither grow their replies nor the RSS reported.
        Returns the number of failed METRICS scrapes, the peak RSS in
        MB, the churn window and tally (``None`` on ``session-churn``)
        and the epilogue's bounds.
        """
        import loadloop
        import workloads

        started = time.perf_counter()
        failures = await loadloop.scrapes(
            self.conns[0], tally, workloads.METRICS_SCRAPES,
            workloads.STATS_SCRAPES, len(self.conns),
        )
        rss = peak_rss_mb(self.proc.pid)
        churn_window = churn_tally = None
        if not self.workload.churn_is_main:
            churn_tally = loadloop.Tally()
            window = Window(self.proc.pid)
            try:
                await loadloop.churn(self.workload, self.conns, churn_tally)
            finally:
                churn_window = window.stop()
            tally.merge(churn_tally)
        return {
            "scrape_failures": failures,
            "rss_mb": rss,
            "churn": (churn_window, churn_tally),
            "bounds": (started, time.perf_counter()),
        }

    async def finish(self) -> None:
        import loadloop

        if self.proc is None:
            return
        try:
            await loadloop.close(getattr(self, "conns", []))
        finally:
            stop(self.proc)
            self.proc = None


async def measure(workload, corrupt_reply: bool = False) -> dict:
    """Untraced run: the end-to-end metrics.

    ``corrupt_reply`` flips one byte of one timed-phase reply before it
    is checked, which the benchmark's self-test uses to show that a
    wrong reply is caught.
    """
    import loadloop

    setup_tally = loadloop.Tally()
    setups = []
    for attempt in range(SETUP_SPAWNS):
        session = Session(workload, SERVE_ARGV, "serve.log")
        try:
            setups.append(await session.start(setup_tally))
        except BaseException:
            await session.finish()
            raise
        if attempt < SETUP_SPAWNS - 1:
            await session.finish()
    try:
        main = loadloop.Tally()
        main.corrupt_next = corrupt_reply
        window = await session.main_phase(main)
        tail = loadloop.Tally()
        epilogue = await session.epilogue(tail)
    finally:
        await session.finish()
    churn_window, churn_tally = epilogue["churn"]
    if churn_window is None:
        churn_window, churn_tally = window, main
    # One decode frame per lifetime: frames per second are lifetimes per second.
    sessions = rates(churn_window, churn_tally)["throughput_fps"]
    attempted = setup_tally.attempted + main.attempted + tail.attempted
    failed = setup_tally.failed + main.failed + tail.failed
    phase = rates(window, main)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_fps": (phase["throughput_fps"], "frames/s"),
        "server_cpu_us_per_frame": (phase["server_cpu_us_per_frame"], "us/frame"),
        "success_ratio": (1.0 - failed / max(1, attempted), "ratio"),
        "server_rss_mb": (epilogue["rss_mb"], "MB"),
        "sessions_per_s": (sessions, "1/s"),
    }
    noise = {
        "host.steal_share": window["steal_share"],
        "client.cpu_share": window["client_cpu_s"] / window["wall_s"],
    }
    return {
        "correct": setup_tally.mismatched + main.mismatched + tail.mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "noise": noise,
        "detail": {"setups_s": setups, "requests": main.attempted,
                   "wall_s": window["wall_s"], "unstolen_s": window["unstolen_s"],
                   "churn_wall_s": churn_window["wall_s"]},
    }


async def measure_traced(workload) -> dict:
    """Traced run: the per-layer metrics."""
    import layers
    import loadloop
    import numpy as np

    tally = loadloop.Tally()
    plain = Session(workload, SERVE_ARGV, "serve.log")
    try:
        await plain.start(tally)
        plain_main = loadloop.Tally()
        plain_window = await plain.main_phase(plain_main)
    finally:
        await plain.finish()

    spans_path = BUILD / f"spans-{workload.name}-{os.getpid()}.npz"
    argv = [sys.executable, str(HERE / "launcher.py"), "--spans", str(spans_path), *SERVE_ARGS]
    traced = Session(workload, argv, "launcher.log")
    try:
        await traced.start(tally)
        traced_main = loadloop.Tally()
        traced_window = await traced.main_phase(traced_main)
        tail = loadloop.Tally()
        epilogue = await traced.epilogue(tail)
    finally:
        await traced.finish()
    try:
        spans = layers.load(spans_path)
    finally:
        spans_path.unlink(missing_ok=True)
    metrics = layers.per_layer(spans, traced_window, epilogue["bounds"])
    traced_fps = rates(traced_window, traced_main)["throughput_fps"]
    plain_fps = rates(plain_window, plain_main)["throughput_fps"]
    latencies = np.asarray(plain_main.latencies) * 1e6
    requests = max(1, plain_main.attempted)
    metrics.update({
        "client.latency_p50_us": (float(np.percentile(latencies, 50, method="higher")), "us"),
        "client.latency_p99_us": (float(np.percentile(latencies, 99, method="higher")), "us"),
        "stream.rows_forced": (plain_main.rows_forced + traced_main.rows_forced, "count"),
        "telemetry.scrape_failures": (epilogue["scrape_failures"], "count"),
        "client.request_self_us": (plain_window["client_cpu_s"] * 1e6 / requests, "us"),
        "client.cpu_share": (plain_window["client_cpu_s"] / plain_window["wall_s"], "ratio"),
        "host.steal_share": (plain_window["steal_share"], "ratio"),
        "trace.overhead_ratio": (traced_fps / plain_fps if plain_fps else 0.0, "ratio"),
    })
    attempted = tally.attempted + plain_main.attempted + traced_main.attempted + tail.attempted
    failed = tally.failed + plain_main.failed + traced_main.failed + tail.failed
    mismatched = (tally.mismatched + plain_main.mismatched
                  + traced_main.mismatched + tail.mismatched)
    return {"correct": mismatched == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "service").is_dir():
        print(f"error: no codec service sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    os.sched_setaffinity(0, GENERATOR_CPUS)
    # A terminated run still stops its server: SystemExit unwinds through
    # every ``finally`` that owns a server process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    prepare()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.build(args.workload, args.seed, args.seconds)
    # The references live for the whole run; keep the collector off them.
    gc.collect()
    gc.freeze()
    if args.trace:
        result = asyncio.run(measure_traced(workload))
    else:
        result = asyncio.run(measure(workload))
        noise = result.pop("noise")
        flags = []
        if noise["host.steal_share"] > STEAL_LIMIT:
            flags.append("host steal above %.0f%%" % (STEAL_LIMIT * 100))
        if noise["client.cpu_share"] > CLIENT_CPU_LIMIT:
            flags.append("generator CPU-bound")
        print("noise: " + " ".join(f"{k}={v:.4f}" for k, v in noise.items())
              + (" CONTAMINATED: " + ", ".join(flags) if flags else ""))
        print("detail: " + json.dumps(result.pop("detail")))
    result["metrics"] = {
        name: {"value": float(value), "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
