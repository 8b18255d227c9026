"""``repro serve`` stops cleanly on SIGINT and SIGTERM.

Each test starts ``repro serve`` in a child process, signals it, and
expects it to exit 0 within :data:`STOP_S` seconds, having printed
"codec service stopped" and left no decode worker alive.  The server
must stop even where it was started with SIGINT ignored, as a shell
starts a background job, and a worker forked after the server
installed its handlers must still die by SIGTERM.
"""

import asyncio
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service import CodecClient

SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

#: Seconds a signalled server has to exit.
STOP_S = 5.0


@pytest.fixture
def start(tmp_path):
    """Starts ``repro serve`` children; returns each one and its port.

    A child still running at teardown (its test failed) is killed with
    its process group, workers included.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
    )
    env["PYTHONUNBUFFERED"] = "1"  # each line shows as the server prints it
    started = []

    def child_setup(ignore_sigint):
        os.setpgrp()
        if ignore_sigint:
            signal.signal(signal.SIGINT, signal.SIG_IGN)

    def start(workers: int, ignore_sigint: bool = False):
        with open(tmp_path / f"serve{len(started)}.log", "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--workers", str(workers)],
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
                text=True,
                preexec_fn=lambda: child_setup(ignore_sigint),
            )
        started.append(proc)
        line = proc.stdout.readline()
        assert "serving codec sessions on" in line, line
        return proc, int(line.rsplit(":", 1)[1])

    yield start
    for proc in started:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()


def _stop(proc, signum) -> str:
    """Send ``signum`` and return what the server printed after it."""
    proc.send_signal(signum)
    try:
        out, _ = proc.communicate(timeout=STOP_S)
    except subprocess.TimeoutExpired:
        pytest.fail(f"server still running {STOP_S:g} s after signal {signum}")
    assert proc.returncode == 0, (proc.returncode, out)
    return out


def _printed(proc, text: str) -> bool:
    """Read the server's output until a line holds ``text``, or its end."""
    return any(text in line for line in proc.stdout)


async def _refused(port: int) -> None:
    """Return once the server's listener is closed."""
    deadline = time.monotonic() + STOP_S
    while time.monotonic() < deadline:
        try:
            _, writer = await asyncio.open_connection("127.0.0.1", port)
        except ConnectionRefusedError:
            return
        writer.close()
        await writer.wait_closed()
        await asyncio.sleep(0.02)
    pytest.fail(f"server still listening {STOP_S:g} s after SIGINT")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


async def _admin(port: int, action: str = "status", **kwargs) -> dict:
    client = await CodecClient.connect(port=port)
    try:
        return await client.admin(action, **kwargs)
    finally:
        await client.close()


async def _respawned(port: int, index: int, pid: int) -> int:
    """Worker ``index``'s pid once it is ready under a pid other than ``pid``."""
    deadline = time.monotonic() + STOP_S
    while time.monotonic() < deadline:
        worker = (await _admin(port))["workers"][index]
        if worker["ready"] and worker["pid"] not in (None, pid):
            return worker["pid"]
        await asyncio.sleep(0.02)
    pytest.fail(f"worker {index} (pid {pid}) was not replaced")


def test_sigint_stops_a_server_started_with_sigint_ignored(start):
    proc, _ = start(0, ignore_sigint=True)
    assert "codec service stopped" in _stop(proc, signal.SIGINT)


def test_sigterm_stops_a_local_server_with_a_client_connected(start):
    proc, port = start(0)

    async def scenario():
        client = await CodecClient.connect(port=port)
        await client.open_session("hamming84", seed=1)
        try:
            # The client stays connected while the server stops.
            return await asyncio.get_running_loop().run_in_executor(
                None, _stop, proc, signal.SIGTERM
            )
        finally:
            await client.close()

    assert "codec service stopped" in asyncio.run(scenario())


def test_sigterm_stops_a_pool_whose_worker_respawned(start):
    """A worker respawned after the server's handlers exist dies by
    SIGTERM, and a SIGTERM to the front stops every worker."""
    proc, port = start(2)

    async def respawn_twice():
        first = (await _admin(port))["workers"][0]["pid"]
        await _admin(port, "kill", worker=0)
        second = await _respawned(port, 0, first)
        os.kill(second, signal.SIGTERM)
        third = await _respawned(port, 0, second)
        others = [w["pid"] for w in (await _admin(port))["workers"]]
        return [first, second, third, *others]

    pids = asyncio.run(respawn_twice())
    assert "codec service stopped" in _stop(proc, signal.SIGTERM)
    assert [pid for pid in pids if _alive(pid)] == []


def test_a_second_sigint_ends_a_stop_that_hangs(start):
    """The first SIGINT's stop waits on a stopped worker to close the
    session of the client still connected; the second SIGINT ends it."""
    proc, port = start(2)

    async def scenario():
        client = await CodecClient.connect(port=port)
        await client.open_session("hamming84", seed=1)
        pids = [w["pid"] for w in (await client.admin("status"))["workers"]]
        for pid in pids:
            os.kill(pid, signal.SIGSTOP)
        try:
            proc.send_signal(signal.SIGINT)
            await _refused(port)  # the stop has begun
            proc.send_signal(signal.SIGINT)
            printed = asyncio.get_running_loop().run_in_executor(
                None, _printed, proc, "codec service stopped"
            )
            try:
                assert await asyncio.wait_for(printed, STOP_S)
            except asyncio.TimeoutError:
                pytest.fail(f"stop still hanging {STOP_S:g} s after a second SIGINT")
        finally:
            for pid in pids:  # the exiting server reaps them
                os.kill(pid, signal.SIGCONT)
            await client.close()
        return pids

    pids = asyncio.run(scenario())
    try:
        proc.wait(timeout=STOP_S)
    except subprocess.TimeoutExpired:
        pytest.fail(f"server still running {STOP_S:g} s after its last line")
    assert proc.returncode == 0
    assert [pid for pid in pids if _alive(pid)] == []
