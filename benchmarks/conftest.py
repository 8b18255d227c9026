"""Benchmark-harness configuration and shared helpers.

Every benchmark regenerates a paper artefact and prints the same rows
or series the paper reports (run with ``pytest benchmarks/
--benchmark-only -s`` to see them inline; without ``-s`` the reports
are still emitted once via the ``paper_report`` fixture at teardown).

The standalone script ``bench_engine.py`` shares the ``fail`` helper
defined here via ``from conftest import fail`` — the benchmarks
directory is ``sys.path[0]`` when a script runs directly, and pytest's
prepend import mode resolves the same module when the directory is
collected.
"""

from __future__ import annotations

import sys

import pytest


def fail(message: str) -> None:
    """Print a FAIL line and exit non-zero (the bench scripts' assert)."""
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


_REPORTS: list[tuple[str, str]] = []


@pytest.fixture
def paper_report():
    """Collect a rendered paper artefact to print after the run."""

    def _record(title: str, text: str) -> None:
        _REPORTS.append((title, text))

    return _record


def pytest_sessionfinish(session, exitstatus):
    if not _REPORTS:
        return
    capman = session.config.pluginmanager.getplugin("capturemanager")
    if capman:
        capman.suspend_global_capture(in_=True)
    print("\n" + "=" * 78)
    print("PAPER ARTEFACT REPRODUCTIONS")
    print("=" * 78)
    for title, text in _REPORTS:
        print(f"\n--- {title} ---")
        print(text)
    if capman:
        capman.resume_global_capture()
