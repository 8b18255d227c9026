"""The one kernel engine and the resolution point every kernel call uses.

Kernel callers ask :func:`resolve_backend` for the engine instead of
holding it, so that one place can interpose: with kernel profiling on
(``REPRO_PROFILE_KERNELS`` or :func:`set_backend_profiler`) it returns
the engine wrapped in the timing proxy of :mod:`repro.obs.profiling`.
"""

from __future__ import annotations

from typing import List

from repro.backends.base import KernelBackend

_ENGINE = KernelBackend()

# Kernel-profiling hook (see repro.obs.profiling).  ``None`` + unresolved
# means "consult REPRO_PROFILE_KERNELS once on first resolution"; the env
# check is deferred so merely importing the engine never pays for it.
_PROFILER = None
_PROFILER_RESOLVED = False


def set_backend_profiler(profiler) -> None:
    """Install (or with ``None`` remove) the kernel-profiling wrapper.

    ``profiler`` is a callable mapping the
    :class:`~repro.backends.base.KernelBackend` to the object actually
    handed to kernel callers — e.g. the timing proxy built by
    :func:`repro.obs.profiling.kernel_profiler`.  Explicit installation
    overrides the ``REPRO_PROFILE_KERNELS`` environment default.
    """
    global _PROFILER, _PROFILER_RESOLVED
    _PROFILER = profiler
    _PROFILER_RESOLVED = True


def resolve_backend() -> KernelBackend:
    """The kernel engine, wrapped in the timing proxy when profiling is on."""
    global _PROFILER, _PROFILER_RESOLVED
    if not _PROFILER_RESOLVED:
        _PROFILER_RESOLVED = True
        from repro.obs.profiling import kernel_profiler, profiling_requested

        if profiling_requested():
            _PROFILER = kernel_profiler()
    if _PROFILER is None:
        return _ENGINE
    return _PROFILER(_ENGINE)


def available_backends() -> List[str]:
    """Names of the kernel engines in this process: always ``["numpy"]``."""
    return [_ENGINE.name]
