"""The one kernel engine and the resolution point every kernel call uses.

Kernel callers ask :func:`resolve_backend` for the engine per call
instead of holding it, so one name marks every kernel call
(``perfbench`` counts it as ``backends.resolve_per_kernel_call``).
"""

from __future__ import annotations

from typing import List

from repro.backends.base import KernelBackend

_ENGINE = KernelBackend()


def resolve_backend() -> KernelBackend:
    """The kernel engine."""
    return _ENGINE


def available_backends() -> List[str]:
    """Names of the kernel engines in this process: always ``["numpy"]``."""
    return [_ENGINE.name]
