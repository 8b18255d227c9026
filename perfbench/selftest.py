"""Self-test: one corrupted reply byte must lower ``success_ratio``.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Runs a short ``wire-small`` measurement twice on the same seed: once
clean, once with one byte of one timed-phase reply flipped before the
reply is checked.  The clean run must score ``success_ratio == 1``, the
corrupted one exactly one failed operation, ``correct == false`` and a
lower ``success_ratio``.  Exits non-zero otherwise.
"""

from __future__ import annotations

import asyncio
import gc
import os
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    os.sched_setaffinity(0, run.GENERATOR_CPUS)
    run.prepare()
    import workloads

    results = {}
    for corrupt in (False, True):
        workload = workloads.build("wire-small", seed=7, seconds=1)
        gc.collect()
        gc.freeze()
        results[corrupt] = asyncio.run(run.measure(workload, corrupt_reply=corrupt))
    clean, corrupted = results[False], results[True]
    ratio = {k: r["metrics"]["success_ratio"][0] for k, r in results.items()}
    print(f"clean: success_ratio={ratio[False]:.6f} failed={clean['failed']} "
          f"correct={clean['correct']}")
    print(f"corrupted: success_ratio={ratio[True]:.6f} failed={corrupted['failed']} "
          f"correct={corrupted['correct']}")
    ok = (
        clean["correct"] and clean["failed"] == 0 and ratio[False] == 1.0
        and not corrupted["correct"] and corrupted["failed"] == 1
        and ratio[True] < ratio[False]
    )
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
