#!/usr/bin/env python
"""Emit the machine-readable kernel-backend benchmark report.

Runs :func:`benchmarks.bench_backends.collect_results` (every kernel on
every available backend, bit-identity asserted on every arm) and writes
the records to ``BENCH_7.json`` in the repository root — one JSON
object per ``(kernel, batch, backend)`` with ``ns_per_frame`` and
``speedup_vs_numpy``, plus an ``environment`` header recording which
backends the capability probe admitted, so a report from a numpy-only
runner is distinguishable from one with the native engine::

    PYTHONPATH=src python tools/bench_report.py            # full sizes
    PYTHONPATH=src python tools/bench_report.py --quick    # CI smoke
    PYTHONPATH=src python tools/bench_report.py --output other.json

Timings are machine-dependent; the committed ``BENCH_7.json`` is a
reference shape (consumed by ``docs/benchmarks.md``), not a contract —
the enforced floor lives in ``benchmarks/bench_backends.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_7.json")


def build_report(quick: bool = False) -> dict:
    """Collect benchmark records plus the environment header."""
    import numpy as np

    from bench_backends import FULL_SIZES, QUICK_SIZES, collect_results
    from repro._version import __version__
    from repro.backends import probe

    records = collect_results(QUICK_SIZES if quick else FULL_SIZES)
    return {
        "report": "kernel-backend speedups (BENCH_7)",
        "version": __version__,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "backends": [
                {
                    "name": entry["name"],
                    "available": entry["available"],
                    "default": entry["default"],
                    "reason": entry["reason"],
                }
                for entry in probe()
            ],
        },
        "acceptance_batch": 4096,
        "results": records,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: fewer batch sizes"
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=DEFAULT_OUTPUT,
        help="output path (default: BENCH_7.json in the repo root)",
    )
    args = parser.parse_args(argv)
    report = build_report(quick=args.quick)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    n = len(report["results"])
    backends = [
        b["name"] for b in report["environment"]["backends"] if b["available"]
    ]
    print(
        f"wrote {n} records for backends {', '.join(backends)} "
        f"to {args.output}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
