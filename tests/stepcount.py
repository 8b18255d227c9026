"""Exact work counts for tests: calls made and Python lines run.

Shared by the tests that bound per-row or per-request work by counting
steps instead of timing them; see ``test_batch_work.py``.
"""

import gc
import sys


def count_steps(fn) -> int:
    """Calls made and Python lines run by one ``fn()``, after a warm-up.

    The warm-up builds whatever the kernel memoises (decode tables,
    codebooks).  The garbage collector is off while counting, so no
    finaliser can add steps.  Any tracer already installed (a coverage
    run's) is put back afterwards.
    """
    fn()
    steps = 0

    def profile(frame, event, arg):
        nonlocal steps
        if event in ("call", "c_call"):
            steps += 1

    def trace(frame, event, arg):
        nonlocal steps
        if event == "line":
            steps += 1
        return trace

    previous_profile, previous_trace = sys.getprofile(), sys.gettrace()
    collecting = gc.isenabled()
    gc.disable()
    sys.settrace(trace)
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous_profile)
        sys.settrace(previous_trace)
        if collecting:
            gc.enable()
    return steps
