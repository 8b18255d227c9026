"""Exact work counts for tests: calls made and Python lines run.

Shared by the tests that bound per-row or per-request work by counting
steps instead of timing them; see ``test_batch_work.py``.
"""

import gc
import sys


class StepCounter:
    """Counts calls made and Python lines run between :meth:`start` and :meth:`stop`.

    Lines count in frames entered, or coroutines resumed, while the
    count runs; calls count everywhere.  :meth:`stop` may run deep
    inside the counted code (say, in a writer's ``write``): nothing
    counts after it.  The garbage collector is off while counting, so
    no finaliser can add steps, and any tracer already installed (a
    coverage run's) is put back by :meth:`stop`.
    """

    def __init__(self):
        self.steps = 0
        self._counting = False
        self._saved = None

    def _profile(self, frame, event, arg):
        if self._counting and event in ("call", "c_call"):
            self.steps += 1

    def _trace(self, frame, event, arg):
        if not self._counting:
            return None
        if event == "line":
            self.steps += 1
        return self._trace

    def start(self) -> None:
        self._saved = (sys.getprofile(), sys.gettrace(), gc.isenabled())
        gc.disable()
        self._counting = True
        sys.settrace(self._trace)
        sys.setprofile(self._profile)

    def stop(self) -> None:
        if not self._counting:
            return
        self._counting = False
        previous_profile, previous_trace, collecting = self._saved
        sys.setprofile(previous_profile)
        sys.settrace(previous_trace)
        if collecting:
            gc.enable()


def count_steps(fn) -> int:
    """Calls made and Python lines run by one ``fn()``, after a warm-up.

    The warm-up builds whatever the kernel memoises (decode tables,
    codebooks).
    """
    fn()
    counter = StepCounter()
    counter.start()
    try:
        fn()
    finally:
        counter.stop()
    return counter.steps
