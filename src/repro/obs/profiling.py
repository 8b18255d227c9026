"""Opt-in per-kernel timing for registered compute backends.

Decoders pin a backend *name*, not an instance, so every kernel call
goes through :func:`repro.backends.registry.resolve_backend`.  That
makes resolution the one place to interpose: with profiling enabled,
resolution returns a cached :class:`ProfiledBackend` proxy whose kernel
methods time the inner call into a ``{backend, kernel}``-labelled
histogram on the process-default metrics registry — so a production
server reports per-backend per-kernel p50/p99 and call counts live,
rather than only in offline benchmarks.

When a request trace is ambient (see :mod:`repro.obs.tracing`), each
profiled call additionally emits a ``kernel.<name>`` span, which is how
a trace shows *which* kernels its batch spent time in.

Enable with ``REPRO_PROFILE_KERNELS=1`` (read once by the backend
registry; pool workers inherit through the fork) or programmatically
with :func:`install_kernel_profiling`.  Disabled, the hot path pays
only a module-global ``is None`` check.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, Optional

from repro.obs.metrics import (
    MetricsRegistry,
    WIDE_TIME_BUCKETS_US,
    default_registry,
)
from repro.obs.tracing import current_trace_id, get_tracer

#: Environment switch read by the backend registry at first resolution.
PROFILE_ENV = "REPRO_PROFILE_KERNELS"

#: Every kernel of the KernelBackend contract, wrapped by the proxy.
KERNEL_NAMES = (
    "pack_rows",
    "pack_cols",
    "popcount",
    "hamming_distance",
    "gf2_matmul",
    "correlation_decode",
    "soft_spectrum_decode",
)


def profiling_requested() -> bool:
    """Whether the environment asks for kernel profiling."""
    return os.environ.get(PROFILE_ENV, "").strip().lower() not in (
        "", "0", "false", "off", "no",
    )


class ProfiledBackend:
    """A timing proxy satisfying the ``KernelBackend`` duck type.

    Delegates identity (``name``/``priority``/``summary``/
    ``availability``) to the wrapped backend; each kernel method times
    the inner call and observes the duration into the shared histogram.
    Results pass through untouched, so the bit-identity contract is
    unaffected — the proxy never copies or casts arrays.
    """

    def __init__(self, inner, registry: Optional[MetricsRegistry] = None):
        self._inner = inner
        family = (registry or default_registry()).histogram(
            "repro_kernel_time_us",
            "Kernel call duration in microseconds, per backend and kernel.",
            ("backend", "kernel"),
            buckets=WIDE_TIME_BUCKETS_US,
        )
        self._children = {
            kernel: family.labels(backend=inner.name, kernel=kernel)
            for kernel in KERNEL_NAMES
        }

    @property
    def name(self) -> str:
        """The wrapped backend's registered name."""
        return self._inner.name

    @property
    def priority(self) -> int:
        """The wrapped backend's selection priority."""
        return self._inner.priority

    @property
    def summary(self) -> str:
        """The wrapped backend's one-line description."""
        return self._inner.summary

    def availability(self):
        """Delegate the capability probe to the wrapped backend."""
        return self._inner.availability()

    def __repr__(self) -> str:
        return f"<ProfiledBackend {self._inner!r}>"

    def _observe(self, kernel: str, started: float) -> None:
        ended = time.perf_counter()
        dur_us = (ended - started) * 1e6
        self._children[kernel].observe(dur_us)
        trace_id = current_trace_id()
        if trace_id is not None:
            get_tracer().emit(
                trace_id,
                f"kernel.{kernel}",
                started,
                dur_us,
                backend=self._inner.name,
            )


def _timed(kernel: str):
    def call(self, *args, **kwargs):
        started = time.perf_counter()
        try:
            return getattr(self._inner, kernel)(*args, **kwargs)
        finally:
            self._observe(kernel, started)

    call.__name__ = kernel
    call.__qualname__ = f"ProfiledBackend.{kernel}"
    return call


for _kernel in KERNEL_NAMES:
    setattr(ProfiledBackend, _kernel, _timed(_kernel))
del _kernel


def kernel_profiler(
    registry: Optional[MetricsRegistry] = None,
) -> Callable:
    """A backend wrapper suitable for ``set_backend_profiler``.

    Proxies are cached per backend name so repeated resolution returns
    the same object (and the same histogram children) every time.
    """
    cache: Dict[str, ProfiledBackend] = {}

    def wrap(backend):
        if isinstance(backend, ProfiledBackend):
            return backend
        proxy = cache.get(backend.name)
        if proxy is None or proxy._inner is not backend:
            proxy = ProfiledBackend(backend, registry)
            cache[backend.name] = proxy
        return proxy

    return wrap


def install_kernel_profiling(
    enable: bool = True, registry: Optional[MetricsRegistry] = None
) -> None:
    """Turn the resolution-time profiling hook on or off for this process."""
    from repro.backends.registry import set_backend_profiler

    set_backend_profiler(kernel_profiler(registry) if enable else None)
