"""Command-line entry points: regenerate every paper artefact.

``repro table1|table2|fig3|fig5|ablations`` (or the per-experiment
console scripts) print the same rows/series the paper reports; ``--csv``
additionally writes machine-readable curves next to the report.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1, with a clean parser error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0, with a clean parser error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}"
        )
    return value


def _port_number(text: str) -> int:
    """argparse type: a TCP port in [0, 65535] (0 = pick a free port)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"expected a port in [0, 65535], got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type: a float >= 0, with a clean parser error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative number, got {value}")
    return value


def _burst_length(text: str) -> float:
    """argparse type: a mean burst length in bits, >= 1."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value < 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a mean burst length >= 1 bit, got {value}"
        )
    return value


def _burst_density(text: str) -> float:
    """argparse type: a stationary bad-state fraction in [0, 1)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a burst density in [0, 1), got {value}"
        )
    return value


def _spread_fraction(text: str) -> float:
    """argparse type: a fractional spread in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a spread fraction in [0, 1] (0.20 = +/-20%), got {value}"
        )
    return value


def _add_runtime_args(parser: argparse.ArgumentParser) -> None:
    """``--jobs`` / ``--cache-dir`` / ``--no-cache`` for engine-backed commands."""
    group = parser.add_argument_group("runtime")
    group.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for the Monte-Carlo (1 = inline; results are "
             "bit-identical for any value)",
    )
    group.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="result-cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the on-disk result cache",
    )


def _engine_from_args(args):
    from repro.runtime import MonteCarloEngine, ResultCache, ThroughputReporter

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return MonteCarloEngine(
        jobs=args.jobs, cache=cache, progress=ThroughputReporter()
    )


#: Each loadgen scenario's own flags: argparse dest -> factory keyword.
_SCENARIO_FLAGS = {
    "burst": {"burst_len": "burst_len", "burst_density": "density",
              "burst_depth": "depth"},
    "stream": {"stream_depth": "depth", "stream_shift": "shift",
               "stream_deadline_us": "deadline_us",
               "stream_interval_us": "interval_us"},
    "memory": {"memory_lines": "lines", "memory_rot": "rot",
               "hot_fraction": "hot_fraction", "scrub_every": "scrub_every",
               "scrub_lines": "scrub_lines"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Lightweight Error-Correction Code Encoders in "
            "Superconducting Electronic Systems' (SOCC 2025)"
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table I: detected/corrected error capabilities")
    sub.add_parser("table2", help="Table II: circuit-level encoder comparison")

    fig3 = sub.add_parser("fig3", help="Fig. 3: Hamming(8,4) waveforms at 5 GHz")
    fig3.add_argument("--frequency", type=float, default=5.0, metavar="GHZ")
    fig3.add_argument("--message", action="append", default=None,
                      help="4-bit message(s), e.g. --message 1011 (repeatable)")
    fig3.add_argument("--csv", metavar="PATH", default=None,
                      help="write the voltage traces as CSV")

    fig5 = sub.add_parser("fig5", help="Fig. 5: PPV Monte-Carlo CDF")
    fig5.add_argument("--chips", type=_positive_int, default=1000)
    fig5.add_argument("--messages", type=_positive_int, default=100)
    fig5.add_argument("--spread", type=_spread_fraction, default=0.20)
    fig5.add_argument("--seed", type=int, default=20250831)
    fig5.add_argument("--csv", metavar="PATH", default=None,
                      help="write the CDF curves as CSV")
    _add_runtime_args(fig5)

    abl = sub.add_parser("ablations", help="spread/decoder/frequency/code-cost studies")
    abl.add_argument("--chips", type=_positive_int, default=400)
    abl.add_argument("--seed", type=int, default=7)
    _add_runtime_args(abl)

    soft = sub.add_parser(
        "soft-gain",
        help="hard-vs-soft residual BER per registry code under AWGN",
    )
    soft.add_argument("--chips", type=_positive_int, default=200)
    soft.add_argument("--messages", type=_positive_int, default=256,
                      help="frames per chip")
    soft.add_argument("--sigmas", type=_nonnegative_float, nargs="+", default=None,
                      metavar="SIGMA",
                      help="noise RMS values as fractions of the flux eye "
                           "(default: 0.2 0.3 0.4 0.5 0.6)")
    soft.add_argument("--codes", nargs="+", default=None,
                      choices=["rm13", "hamming74", "hamming84"],
                      help="subset of registry codes (default: all)")
    soft.add_argument("--seed", type=int, default=20250831)
    soft.add_argument("--csv", metavar="PATH", default=None,
                      help="write the hard/soft BER curves as CSV")
    _add_runtime_args(soft)

    burst = sub.add_parser(
        "burst",
        help="interleaved-vs-bare residual BER on a Gilbert-Elliott burst channel",
    )
    burst.add_argument("--code", default="hamming74",
                       choices=["rm13", "hamming74", "hamming84"],
                       help="base code of both arms (default: hamming74)")
    burst.add_argument("--depth", type=_positive_int, default=8,
                       help="interleaving depth (constituent words per window)")
    burst.add_argument("--burst-lens", type=_burst_length, nargs="+",
                       default=None, metavar="BITS",
                       help="mean burst lengths in bits, each >= 1 "
                            "(default: 2 4 6 8)")
    burst.add_argument("--density", type=_burst_density, default=0.10,
                       help="stationary bad-state probability (default: 0.10)")
    burst.add_argument("--p-bad", type=_spread_fraction, default=0.5,
                       help="flip probability inside a burst (default: 0.5)")
    burst.add_argument("--p-good", type=_spread_fraction, default=0.0,
                       help="flip probability outside bursts (default: 0)")
    burst.add_argument("--chips", type=_positive_int, default=100)
    burst.add_argument("--messages", type=_positive_int, default=48,
                       help="channel windows (interleaved words) per chip")
    burst.add_argument("--seed", type=int, default=20250831)
    burst.add_argument("--csv", metavar="PATH", default=None,
                       help="write the bare/interleaved BER curves as CSV")
    _add_runtime_args(burst)

    memory = sub.add_parser(
        "memory",
        help="scrubbed-vs-unscrubbed ECC-memory retention word-error rates",
    )
    memory.add_argument("--codes", nargs="+", default=None,
                        choices=["rm13", "hamming74", "hamming84"],
                        help="subset of registry codes (default: all)")
    memory.add_argument("--rots", type=_spread_fraction, nargs="+", default=None,
                        metavar="RATE",
                        help="per-bit rot probabilities per sweep interval "
                             "(default: 0.001 0.003 0.01 0.03)")
    memory.add_argument("--lines", type=_positive_int, default=64,
                        help="memory lines per chip (default: 64)")
    memory.add_argument("--sweeps", type=_positive_int, default=16,
                        help="rot intervals between write and final read "
                             "(default: 16)")
    memory.add_argument("--chips", type=_positive_int, default=200)
    memory.add_argument("--seed", type=int, default=20250831)
    memory.add_argument("--csv", metavar="PATH", default=None,
                        help="write the retention WER curves as CSV")
    _add_runtime_args(memory)

    josim = sub.add_parser("export-josim", help="emit a JoSIM deck for an encoder")
    josim.add_argument("scheme", choices=["rm13", "hamming74", "hamming84", "none"])
    josim.add_argument("--spread", type=float, default=0.0)
    josim.add_argument("--output", metavar="PATH", default=None)

    sub.add_parser(
        "codes",
        help="list the registered codes/decoders (valid service session configs)",
    )

    serve = sub.add_parser(
        "serve", help="run the streaming codec service (micro-batched encode/decode)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_port_number, default=7350,
                       help="TCP port (0 picks a free port; default 7350)")
    serve.add_argument("--workers", type=_nonnegative_int, default=0, metavar="N",
                       help="decode worker processes (0 = in-process on one "
                            "core); each new session goes to the worker with "
                            "the fewest, and each worker micro-batches "
                            "independently")
    serve.add_argument("--trace", default=None, metavar="FILE",
                       help="append sampled request traces to FILE as JSONL "
                            "(exported as REPRO_TRACE_FILE so pool workers "
                            "share the sink); inspect with 'repro trace'")
    serve.add_argument("--trace-sample", type=_nonnegative_float, default=None,
                       metavar="FRAC",
                       help="fraction of requests to trace, 0..1 "
                            "(default 1.0; only meaningful with --trace)")

    metrics = sub.add_parser(
        "metrics",
        help="scrape a running codec service's metrics (Prometheus text format)",
    )
    metrics.add_argument("--host", default="127.0.0.1")
    metrics.add_argument("--port", type=_port_number, default=7350)

    trace = sub.add_parser(
        "trace",
        help="inspect a JSONL trace file written by 'serve --trace'",
    )
    trace.add_argument("action", choices=["tail", "summarize"],
                       help="tail: print the last events; summarize: per-span "
                            "count/p50/p99/max table")
    trace.add_argument("file", metavar="FILE", help="the JSONL trace file")
    trace.add_argument("--count", type=_positive_int, default=20,
                       help="events shown by 'tail' (default 20)")

    admin = sub.add_parser(
        "admin",
        help="inspect or drain/restart the workers of a running codec service",
    )
    admin.add_argument("action", choices=["status", "restart", "kill"],
                       help="status: pool summary; restart: graceful drain + "
                            "respawn (no lost sessions/requests); kill: "
                            "SIGKILL the worker (crash-recovery drill)")
    admin.add_argument("--host", default="127.0.0.1")
    admin.add_argument("--port", type=_port_number, default=7350)
    admin.add_argument("--worker", type=_nonnegative_int, default=None,
                       metavar="INDEX",
                       help="target worker index (required for restart/kill)")
    admin.add_argument("--json", action="store_true",
                       help="emit the server's response as JSON")

    loadgen = sub.add_parser(
        "loadgen", help="drive a traffic scenario against a running codec service"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=_port_number, default=7350)
    loadgen.add_argument("--scenario", default="steady",
                         choices=["steady", "bursty", "mixed", "adversarial",
                                  "burst", "stream", "memory"])
    loadgen.add_argument("--clients", type=_positive_int, default=16)
    loadgen.add_argument("--connections", type=_positive_int, default=None,
                         metavar="N",
                         help="TCP connections shared by the clients (default: "
                              "one per client); lets 512-4096 client drills "
                              "stay under the fd limit")
    loadgen.add_argument("--requests", type=_positive_int, default=50,
                         help="encode->decode round trips per client")
    loadgen.add_argument("--frames", type=_positive_int, default=4,
                         help="frames per request")
    loadgen.add_argument("--seed", type=_nonnegative_int, default=0,
                         help="seed of the clients' message streams")
    loadgen.add_argument("--code", default="hamming84",
                         help="code for single-code scenarios (ignored by 'mixed')")
    loadgen.add_argument("--decoder", default=None,
                         help="decoder strategy (default: the paper's pairing)")
    loadgen.add_argument("--soft", action="store_true",
                         help="decode through the float soft lane (LLR frames) "
                              "instead of the hard bit lane")
    loadgen.add_argument("--soft-sigma", type=_nonnegative_float, default=0.0,
                         metavar="SIGMA",
                         help="Gaussian jitter RMS added to the soft "
                              "confidences (only with --soft)")
    # The flags of _SCENARIO_FLAGS default to None, so that one given
    # with another scenario can be refused (as --soft-sigma without
    # --soft is); the scenario factory supplies each default.
    loadgen.add_argument("--burst-len", type=_burst_length, default=None,
                         metavar="BITS",
                         help="mean burst length of the 'burst' scenario's "
                              "Gilbert-Elliott corruption, >= 1 (default: 4)")
    loadgen.add_argument("--burst-density", type=_burst_density, default=None,
                         metavar="FRAC",
                         help="stationary bad-state probability of the "
                              "'burst' scenario (default: 0.10)")
    loadgen.add_argument("--burst-depth", type=_positive_int, default=None,
                         metavar="D",
                         help="interleaving depth of the 'burst' scenario's "
                              "interleaved lane (default: 8)")
    loadgen.add_argument("--stream-depth", type=_positive_int, default=None,
                         metavar="D",
                         help="convolutional interleaving depth of the "
                              "'stream' scenario (default: 4)")
    loadgen.add_argument("--stream-shift", type=_positive_int, default=None,
                         metavar="S",
                         help="per-class frame shift of the 'stream' scenario "
                              "(default: 1)")
    loadgen.add_argument("--stream-deadline-us", type=_nonnegative_float,
                         default=None, metavar="US",
                         help="per-session decision deadline of the 'stream' "
                              "scenario (default: none — pure pipelined "
                              "decode, zero misses expected)")
    loadgen.add_argument("--stream-interval-us", type=_nonnegative_float,
                         default=None, metavar="US",
                         help="pacing between the 'stream' scenario's pushes "
                              "(default: back to back); pacing past the "
                              "deadline deterministically drills the "
                              "forced-decision path")
    loadgen.add_argument("--memory-lines", type=_positive_int, default=None,
                         metavar="LINES",
                         help="addressable lines per session of the 'memory' "
                              "scenario (default: 64)")
    loadgen.add_argument("--memory-rot", type=_spread_fraction, default=None,
                         metavar="RATE",
                         help="per-bit retention-rot probability the 'memory' "
                              "scenario's scrub steps inject (default: 0 — any "
                              "residual read is then a service bug)")
    loadgen.add_argument("--hot-fraction", type=_spread_fraction, default=None,
                         metavar="FRAC",
                         help="fraction of 'memory' scenario transactions "
                              "aimed at the hot eighth of the address space "
                              "(default: 0.8)")
    loadgen.add_argument("--scrub-every", type=_positive_int, default=None,
                         metavar="ROUNDS",
                         help="'memory' scenario scrub cadence: one scrub step "
                              "per this many traffic rounds (default: 4)")
    loadgen.add_argument("--scrub-lines", type=_positive_int, default=None,
                         metavar="LINES",
                         help="lines swept per 'memory' scenario scrub step "
                              "(default: 8)")
    loadgen.add_argument("--json", action="store_true",
                         help="emit the full report (incl. server stats) as JSON")
    loadgen.add_argument("--assert-zero-residual", action="store_true",
                         help="exit 1 if any frame came back wrong "
                              "(only meaningful for injection-free scenarios)")

    report = sub.add_parser(
        "report", help="regenerate every artefact into a directory"
    )
    report.add_argument("--output", metavar="DIR", default="artifacts")
    report.add_argument("--chips", type=_positive_int, default=1000)
    report.add_argument("--seed", type=int, default=20250831)
    report.add_argument("--no-ablations", action="store_true")
    _add_runtime_args(report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "table1":
        from repro.experiments import table1

        print(table1.render(table1.run()))
    elif args.command == "table2":
        from repro.experiments import table2

        print(table2.render(table2.run()))
    elif args.command == "fig3":
        from repro.experiments import fig3

        result = fig3.run(messages=args.message, frequency_ghz=args.frequency)
        print(fig3.render(result))
        if args.csv:
            with open(args.csv, "w") as handle:
                handle.write(result.waveforms.to_csv())
            print(f"voltage traces written to {args.csv}")
    elif args.command == "fig5":
        from repro.experiments import fig5
        from repro.ppv.spread import SpreadSpec
        from repro.system.experiment import Fig5Config

        config = Fig5Config(
            n_chips=args.chips,
            n_messages=args.messages,
            spread=SpreadSpec(args.spread),
            seed=args.seed,
        )
        report = fig5.run(config, engine=_engine_from_args(args))
        print(fig5.render(report))
        if args.csv:
            with open(args.csv, "w") as handle:
                handle.write(fig5.cdf_csv(report, max_n=args.messages))
            print(f"CDF curves written to {args.csv}")
    elif args.command == "ablations":
        from repro.experiments import ablations

        result = ablations.run(
            n_chips=args.chips, seed=args.seed, engine=_engine_from_args(args)
        )
        print(ablations.render(result))
    elif args.command == "soft-gain":
        from repro.experiments import soft_gain

        config_kwargs = dict(
            n_chips=args.chips, n_messages=args.messages, seed=args.seed
        )
        if args.sigmas is not None:
            config_kwargs["sigmas"] = tuple(args.sigmas)
        if args.codes is not None:
            config_kwargs["codes"] = tuple(args.codes)
        result = soft_gain.run(
            soft_gain.SoftGainConfig(**config_kwargs),
            engine=_engine_from_args(args),
        )
        print(soft_gain.render(result))
        if args.csv:
            with open(args.csv, "w") as handle:
                handle.write(soft_gain.curves_csv(result))
            print(f"BER curves written to {args.csv}")
    elif args.command == "burst":
        from repro.experiments import burst as burst_mod
        from repro.link.burst import GilbertElliottChannel

        # Flags are valid individually but can be jointly unreachable
        # (short bursts at high density need p_g2b > 1); fail at the
        # CLI, not inside a Monte-Carlo worker.
        lens = (
            tuple(args.burst_lens)
            if args.burst_lens is not None
            else burst_mod.DEFAULT_BURST_LENS
        )
        for burst_len in lens:
            try:
                GilbertElliottChannel.from_burst_profile(
                    burst_len, args.density, p_bad=args.p_bad, p_good=args.p_good
                )
            except ValueError as exc:
                print(f"repro burst: error: {exc}", file=sys.stderr)
                return 2

        config_kwargs = dict(
            code=args.code,
            depth=args.depth,
            density=args.density,
            p_bad=args.p_bad,
            p_good=args.p_good,
            n_chips=args.chips,
            n_messages=args.messages,
            seed=args.seed,
        )
        if args.burst_lens is not None:
            config_kwargs["burst_lens"] = tuple(args.burst_lens)
        result = burst_mod.run(
            burst_mod.BurstResilienceConfig(**config_kwargs),
            engine=_engine_from_args(args),
        )
        print(burst_mod.render(result))
        if args.csv:
            with open(args.csv, "w") as handle:
                handle.write(burst_mod.curves_csv(result))
            print(f"BER curves written to {args.csv}")
    elif args.command == "memory":
        from repro.experiments import retention

        config_kwargs = dict(
            lines=args.lines, sweeps=args.sweeps, n_chips=args.chips,
            seed=args.seed,
        )
        if args.codes is not None:
            config_kwargs["codes"] = tuple(args.codes)
        if args.rots is not None:
            config_kwargs["rots"] = tuple(args.rots)
        result = retention.run(
            retention.RetentionConfig(**config_kwargs),
            engine=_engine_from_args(args),
        )
        print(retention.render(result))
        if args.csv:
            with open(args.csv, "w") as handle:
                handle.write(retention.curves_csv(result))
            print(f"retention WER curves written to {args.csv}")
    elif args.command == "export-josim":
        from repro.encoders.designs import design_for_scheme
        from repro.sfq.josim import export_josim_deck

        deck = export_josim_deck(
            design_for_scheme(args.scheme).netlist, spread=args.spread
        )
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(deck)
            print(f"JoSIM deck written to {args.output}")
        else:
            print(deck)
    elif args.command == "codes":
        from repro.service.session import catalog

        listing = catalog()
        header = (
            f"{'name':<12} {'display':<14} {'(n, k)':<8} {'rate':>6} "
            f"{'d_min':>5}  {'default decoder'}"
        )
        print(header)
        print("-" * len(header))
        for entry in listing["codes"]:
            print(
                f"{entry['name']:<12} {entry['display_name']:<14} "
                f"({entry['n']}, {entry['k']})".ljust(37)
                + f"{entry['rate']:>6.3f} {entry['d_min']:>5}  "
                + entry["default_decoder"]
            )
        print(f"\ndecoder strategies: {', '.join(listing['decoders'])}")
    elif args.command == "serve":
        import asyncio
        import os as _os
        import signal

        from repro.service import CodecServer

        if args.trace_sample is not None and args.trace is None:
            print(
                "repro serve: error: --trace-sample only makes sense with --trace",
                file=sys.stderr,
            )
            return 2
        if args.trace is not None:
            from repro.obs.tracing import (
                TRACE_FILE_ENV,
                TRACE_SAMPLE_ENV,
                reset_tracer,
            )

            # Env vars again: the front reads them on first use and pool
            # workers inherit them through the fork.
            _os.environ[TRACE_FILE_ENV] = args.trace
            if args.trace_sample is not None:
                _os.environ[TRACE_SAMPLE_ENV] = str(args.trace_sample)
            reset_tracer()

        async def _serve() -> None:
            # SIGINT and SIGTERM stop the server cleanly, even where the
            # shell started it with SIGINT ignored (a background job).
            # The first removes both handlers, so a second one ends a stop
            # that hangs: SIGINT as KeyboardInterrupt, SIGTERM by default.
            stopping = asyncio.Event()
            loop = asyncio.get_running_loop()
            stop_signals = (signal.SIGINT, signal.SIGTERM)

            def _stop() -> None:
                for signum in stop_signals:
                    loop.remove_signal_handler(signum)
                stopping.set()

            for signum in stop_signals:
                loop.add_signal_handler(signum, _stop)
            server = CodecServer(
                host=args.host, port=args.port, workers=args.workers
            )
            await server.start()
            print(f"serving codec sessions on {args.host}:{server.port}", flush=True)
            if args.workers:
                print(
                    f"  decode workers: {args.workers} process(es), least-loaded "
                    "session placement ('repro admin' drives drain/restart)",
                    flush=True,
                )
            if args.trace is not None:
                sample = args.trace_sample if args.trace_sample is not None else 1.0
                print(
                    f"  tracing: {args.trace} (sample={sample:g}, "
                    "'repro trace' inspects it)",
                    flush=True,
                )
            try:
                await stopping.wait()
            finally:
                await server.stop()

        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:
            pass  # a second SIGINT, or one before the handlers were set
        except OSError as exc:
            print(
                f"repro serve: error: cannot bind {args.host}:{args.port} ({exc})",
                file=sys.stderr,
            )
            return 1
        print("codec service stopped")
    elif args.command == "metrics":
        import asyncio

        from repro.service import CodecClient, ProtocolError

        async def _metrics() -> str:
            client = await CodecClient.connect(args.host, args.port)
            try:
                return await client.metrics()
            finally:
                await client.close()

        try:
            text = asyncio.run(_metrics())
        except OSError as exc:
            print(
                f"repro metrics: error: cannot reach a codec service at "
                f"{args.host}:{args.port} ({exc}); start one with 'repro serve'",
                file=sys.stderr,
            )
            return 1
        except ProtocolError as exc:
            print(f"repro metrics: error: {exc}", file=sys.stderr)
            return 1
        print(text, end="")
    elif args.command == "trace":
        import json as _json

        from repro.obs.tracing import read_events, summarize_events, tail_events

        try:
            if args.action == "tail":
                for event in tail_events(args.file, args.count):
                    print(_json.dumps(event, sort_keys=True))
            else:
                summary = summarize_events(read_events(args.file))
                if not summary:
                    print("no trace events found")
                else:
                    print(
                        f"{'span':<20} {'count':>8} {'traces':>8} "
                        f"{'p50_us':>10} {'p99_us':>10} {'max_us':>12}"
                    )
                    for span, row in summary.items():
                        print(
                            f"{span:<20} {row['count']:>8} {row['traces']:>8} "
                            f"{row['p50_us']:>10g} {row['p99_us']:>10g} "
                            f"{row['max_us']:>12g}"
                        )
        except OSError as exc:
            print(f"repro trace: error: cannot read {args.file}: {exc}",
                  file=sys.stderr)
            return 1
    elif args.command == "admin":
        import asyncio
        import json as _json

        from repro.service import CodecClient, ProtocolError

        if args.action in ("restart", "kill") and args.worker is None:
            print(
                f"repro admin: error: {args.action} needs --worker INDEX",
                file=sys.stderr,
            )
            return 2

        async def _admin():
            client = await CodecClient.connect(args.host, args.port)
            try:
                return await client.admin(args.action, worker=args.worker)
            finally:
                await client.close()

        try:
            result = asyncio.run(_admin())
        except OSError as exc:
            print(
                f"repro admin: error: cannot reach a codec service at "
                f"{args.host}:{args.port} ({exc}); start one with 'repro serve'",
                file=sys.stderr,
            )
            return 1
        except ProtocolError as exc:
            print(f"repro admin: error: {exc}", file=sys.stderr)
            return 1
        if args.json:
            print(_json.dumps(result, indent=2, sort_keys=True))
        elif args.action == "status":
            print(f"mode: {result.get('mode')}  sessions: {result.get('sessions')}")
            for worker in result.get("workers", []):
                state = "ready" if worker.get("ready") else "down"
                print(
                    f"  worker {worker['index']}: pid={worker.get('pid')} "
                    f"{state} restarts={worker.get('restarts')} "
                    f"sessions={worker.get('sessions')}"
                )
        else:
            print(_json.dumps(result, sort_keys=True))
    elif args.command == "loadgen":
        import asyncio
        import json as _json

        from repro.service import loadgen as loadgen_mod

        if args.soft_sigma > 0 and not args.soft:
            print(
                "repro loadgen: error: --soft-sigma only makes sense with --soft",
                file=sys.stderr,
            )
            return 2

        # Only the flags given reach the factory, so its defaults apply.
        scenario_kwargs = dict(code=args.code, decoder=args.decoder)
        for scenario, flags in _SCENARIO_FLAGS.items():
            for dest, keyword in flags.items():
                value = getattr(args, dest)
                if value is None:
                    continue
                if scenario != args.scenario:
                    print(
                        f"repro loadgen: error: --{dest.replace('_', '-')} only "
                        f"makes sense with --scenario {scenario}",
                        file=sys.stderr,
                    )
                    return 2
                scenario_kwargs[keyword] = value
        try:
            scenario = loadgen_mod.make_scenario(args.scenario, **scenario_kwargs)
        except ValueError as exc:
            # Jointly-invalid burst parameters or an unsupported
            # flag/scenario combination; surface as a clean CLI error.
            print(f"repro loadgen: error: {exc}", file=sys.stderr)
            return 2
        try:
            report_ = asyncio.run(
                loadgen_mod.run_scenario(
                    args.host,
                    args.port,
                    scenario,
                    clients=args.clients,
                    connections=args.connections,
                    requests=args.requests,
                    frames_per_request=args.frames,
                    seed=args.seed,
                    soft=args.soft,
                    soft_sigma=args.soft_sigma,
                )
            )
        except OSError as exc:
            print(
                f"repro loadgen: error: cannot reach a codec service at "
                f"{args.host}:{args.port} ({exc}); start one with 'repro serve'",
                file=sys.stderr,
            )
            return 1
        if args.json:
            print(_json.dumps(report_.to_dict(), indent=2, sort_keys=True))
        else:
            print(loadgen_mod.render(report_))
            print("server stats: " + _json.dumps(report_.server_stats, sort_keys=True))
        if args.assert_zero_residual and (
            report_.residual_frames or report_.client_errors
        ):
            print(
                f"FAIL: {report_.residual_frames} residual frame(s), "
                f"{len(report_.client_errors)} failed client(s) "
                "on a zero-noise run",
                file=sys.stderr,
            )
            return 1
    elif args.command == "report":
        from repro.experiments.report import generate_full_report

        manifest = generate_full_report(
            args.output,
            n_chips=args.chips,
            seed=args.seed,
            include_ablations=not args.no_ablations,
            engine=_engine_from_args(args),
        )
        print(f"artefacts written to {manifest.output_dir}/")
        for name, ok in manifest.checks.items():
            print(f"  {name}: {'PASS' if ok else 'FAIL'}")
        if not manifest.all_checks_pass:
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
