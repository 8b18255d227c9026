"""The serving path runs on numpy and the standard library alone.

A child interpreter blocks every ``scipy`` import with a
``sys.meta_path`` finder, imports ``repro.cli`` and ``repro.service``,
and drives one session of each lane through ``DispatchCore``: hard
decodes on the three paper codes, a soft-FHT decode, a stream push and
a memory write/read.  Each reply is checked, and ``scipy`` must still
be absent from ``sys.modules`` at the end.
"""

import os
import subprocess
import sys
import textwrap

SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

CHILD = textwrap.dedent(
    """
    import asyncio
    import importlib.abc
    import json
    import sys


    class BlockScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ModuleNotFoundError(f"No module named {name!r} (blocked)")
            return None


    sys.meta_path.insert(0, BlockScipy())

    import numpy as np

    import repro.cli  # noqa: F401
    import repro.service  # noqa: F401
    from repro.coding import get_code
    from repro.coding.stream import interleave_stream
    from repro.service import DispatchCore, protocol

    MESSAGES = np.array([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 1, 1]], dtype=np.uint8)


    async def main():
        core = DispatchCore()
        ids = iter(range(1, 1000))

        async def call(opcode, body):
            return await core.dispatch(protocol.Request(opcode, next(ids), body))

        async def open_session(config):
            reply = await call(protocol.OP_OPEN, protocol.build_json_body(config))
            return json.loads(reply)["session_id"]

        for name in ("hamming74", "hamming84", "rm13"):
            code = get_code(name)
            received = code.encode_batch(MESSAGES)
            received[:, 0] ^= 1
            sid = await open_session({"code": name})
            body = await call(
                protocol.OP_DECODE, protocol.build_batch_body(sid, received)
            )
            messages, corrected, _ = protocol.parse_decode_response_body(body, code.k)
            assert np.array_equal(messages, MESSAGES), name
            assert corrected.tolist() == [1, 1, 1], name

        code = get_code("rm13")
        confidences = 1.0 - 2.0 * code.encode_batch(MESSAGES)
        confidences[:, 2] *= -0.25
        sid = await open_session({"code": "rm13", "decoder": "soft-fht"})
        body = await call(
            protocol.OP_DECODE_SOFT, protocol.build_soft_batch_body(sid, confidences)
        )
        messages, _, _ = protocol.parse_decode_response_body(body, code.k)
        assert np.array_equal(messages, MESSAGES), "soft"

        code = get_code("hamming84")
        frames = interleave_stream(1.0 - 2.0 * code.encode_batch(MESSAGES), 2)
        sid = await open_session({"code": "hamming84", "stream_depth": 2})
        body = await call(
            protocol.OP_DECODE_STREAM,
            protocol.build_stream_push_body(sid, 0, frames, final=True),
        )
        messages = protocol.parse_stream_response_body(body, code.k)[0]
        assert np.array_equal(messages[: len(MESSAGES)], MESSAGES), "stream"

        sid = await open_session({"code": "hamming84", "memory_lines": 8})
        addresses = np.array([1, 4, 6])
        await call(
            protocol.OP_MEM_WRITE,
            protocol.build_mem_write_body(sid, addresses, MESSAGES),
        )
        body = await call(
            protocol.OP_MEM_READ, protocol.build_mem_read_body(sid, addresses)
        )
        messages, _, _ = protocol.parse_decode_response_body(body, code.k)
        assert np.array_equal(messages, MESSAGES), "memory"


    asyncio.run(main())
    assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
    print("served without scipy")
    """
)


def test_service_imports_and_serves_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "served without scipy" in result.stdout
