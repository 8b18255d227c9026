"""Streaming codec service: serve, load, and read the telemetry.

Starts a :class:`~repro.service.server.CodecServer` in-process on a
free port, talks to it with the pipelined client, then drives two load
scenarios — a noiseless steady stream (every frame must round-trip
bit-exactly) and an adversarial fault drill (error injection beyond
the SEC-DED correction radius) — and prints the scraped telemetry.

Run:  python examples/streaming_service.py [--clients N] [--requests N]
"""

import argparse
import asyncio
import json

import numpy as np

from repro.service import CodecClient, CodecServer, make_scenario, run_scenario
from repro.service.loadgen import render


async def demo(clients: int, requests: int) -> None:
    # --- a server with a latency-bounded micro-batcher ---------------
    server = CodecServer()
    await server.start()
    print(f"codec service listening on 127.0.0.1:{server.port}")

    # --- one pipelined client, by hand --------------------------------
    client = await CodecClient.connect(port=server.port)
    session = await client.open_session("hamming84")
    messages = np.random.default_rng(0).integers(0, 2, (8, session.k)).astype(np.uint8)
    words = await session.encode(messages)
    decoded = await session.decode(words)
    assert np.array_equal(decoded.messages, messages)
    print(f"round-tripped {len(messages)} frames on {session.info['code']} "
          f"via {session.info['decoder']}")
    await client.close()

    # --- shaped traffic ------------------------------------------------
    steady = await run_scenario(
        "127.0.0.1", server.port, make_scenario("steady"),
        clients=clients, requests=requests, frames_per_request=4, seed=1,
    )
    print("\n" + render(steady))
    assert steady.residual_frames == 0, "noiseless traffic must round-trip exactly"

    drill = await run_scenario(
        "127.0.0.1", server.port, make_scenario("adversarial"),
        clients=clients, requests=requests, frames_per_request=4, seed=2,
    )
    print("\n" + render(drill))

    # --- the stats endpoint --------------------------------------------
    print("\nper-session telemetry:")
    for sid, stats in drill.server_stats["sessions"].items():
        print(
            f"  session {sid} [{stats.get('config', '?')}]: "
            f"{stats['accepted_frames']} accepted / "
            f"{stats['corrected_frames']} corrected / "
            f"{stats['detected_frames']} detected, "
            f"mean batch {stats['mean_batch_frames']} frames, "
            f"p99 {stats['latency']['p99_us']:.0f} us"
        )
    print("\nfull snapshot:")
    print(json.dumps(drill.server_stats, indent=2, sort_keys=True)[:400] + " ...")
    await server.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=25)
    args = parser.parse_args()
    asyncio.run(demo(args.clients, args.requests))


if __name__ == "__main__":
    main()
