"""Backend registry, capability probe and per-call dispatch resolution.

Resolution order for every kernel call (:func:`resolve_backend`):

1. an explicit ``backend=`` argument at the call site;
2. the innermost active :func:`use_backend` context;
3. the process default set with :func:`set_default_backend`;
4. the ``REPRO_BACKEND`` environment variable;
5. the capability probe's auto-selection — the highest-priority
   registered backend that is importable/compilable *and* passes the
   bit-identity self-check against the NumPy reference.

Steps 1-4 *validate*: naming an unregistered backend raises
:class:`~repro.errors.UnknownBackendError` and naming one that cannot
run here raises :class:`~repro.errors.BackendUnavailableError` with the
probe's reason — a typo or a missing toolchain fails loudly instead of
silently falling back to slower kernels.

The self-check (:func:`backend_ready`) runs each kernel on fixed seeded
inputs spanning the tricky regimes (all three of NumPy's pairwise
summation branches, argmax ties) and requires exact equality with the
reference, so a backend that would break the bit-identity contract is
never selected automatically and is reported "unavailable" with the
failing kernel named.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.backends.base import KernelBackend, NumpyBackend
from repro.errors import BackendUnavailableError, UnknownBackendError

#: Environment variable naming the process-wide default backend.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_REGISTRY: Dict[str, KernelBackend] = {}
_READINESS: Dict[str, Tuple[bool, str]] = {}
_DEFAULT_OVERRIDE: Optional[str] = None
_CONTEXT_STACK: List[str] = []
_AUTO_NAME: Optional[str] = None

# Kernel-profiling hook (see repro.obs.profiling).  ``None`` + unresolved
# means "consult REPRO_PROFILE_KERNELS once on first resolution"; the env
# check is deferred so merely importing the registry never pays for it.
_PROFILER = None
_PROFILER_RESOLVED = False


def set_backend_profiler(profiler) -> None:
    """Install (or with ``None`` remove) the kernel-profiling wrapper.

    ``profiler`` is a callable mapping a resolved
    :class:`~repro.backends.base.KernelBackend` to the backend actually
    handed to kernel callers — e.g. the timing proxy built by
    :func:`repro.obs.profiling.kernel_profiler`.  Explicit installation
    overrides the ``REPRO_PROFILE_KERNELS`` environment default.
    """
    global _PROFILER, _PROFILER_RESOLVED
    _PROFILER = profiler
    _PROFILER_RESOLVED = True


def _apply_profiler(backend: KernelBackend) -> KernelBackend:
    global _PROFILER, _PROFILER_RESOLVED
    if not _PROFILER_RESOLVED:
        _PROFILER_RESOLVED = True
        from repro.obs.profiling import kernel_profiler, profiling_requested

        if profiling_requested():
            _PROFILER = kernel_profiler()
    if _PROFILER is None:
        return backend
    return _PROFILER(backend)


def register_backend(backend: KernelBackend) -> None:
    """Register (or replace) a backend under ``backend.name``.

    Replacing a registration drops its cached probe result, so test
    doubles and reloaded modules are re-probed on next use.
    """
    global _AUTO_NAME
    _REGISTRY[backend.name] = backend
    _READINESS.pop(backend.name, None)
    _AUTO_NAME = None


def registered_backends() -> List[str]:
    """All registered backend names, highest auto-selection rank first."""
    return sorted(_REGISTRY, key=lambda n: (-_REGISTRY[n].priority, n))


def get_backend(name: str) -> KernelBackend:
    """Look a backend up by name (no availability check).

    Raises
    ------
    UnknownBackendError
        If ``name`` is not registered.
    """
    key = name.strip().lower()
    if key not in _REGISTRY:
        raise UnknownBackendError(
            f"unknown backend {name!r}; registered: {registered_backends()}"
        )
    return _REGISTRY[key]


def backend_ready(name: str) -> Tuple[bool, str]:
    """Whether ``name`` can be used here: availability + self-check.

    The result is memoised per process; the first call may compile the
    C kernels.  ``(False, reason)`` never raises — callers that need
    an exception use :func:`resolve_backend`.
    """
    backend = get_backend(name)
    if backend.name not in _READINESS:
        ok, reason = backend.availability()
        if ok and backend.name != "numpy":
            ok, reason = _self_check(backend)
        _READINESS[backend.name] = (ok, reason)
    return _READINESS[backend.name]


def available_backends() -> List[str]:
    """Registered backends that pass the probe, best-ranked first."""
    return [name for name in registered_backends() if backend_ready(name)[0]]


def _require(name: str) -> KernelBackend:
    backend = get_backend(name)
    ok, reason = backend_ready(backend.name)
    if not ok:
        raise BackendUnavailableError(
            f"backend {backend.name!r} is unavailable here: {reason}"
        )
    return backend


def _auto_backend() -> KernelBackend:
    global _AUTO_NAME
    if _AUTO_NAME is None:
        names = available_backends()
        # "numpy" always passes its probe, so names is never empty.
        _AUTO_NAME = names[0]
    return _REGISTRY[_AUTO_NAME]


def resolve_backend(name: Optional[str] = None) -> KernelBackend:
    """Resolve the backend for one kernel call (see the module docstring).

    When kernel profiling is enabled (``REPRO_PROFILE_KERNELS`` or
    :func:`set_backend_profiler`) the resolved backend is returned
    wrapped in the timing proxy; the registry itself always holds the
    bare backends, so the self-check and probe never measure the proxy.
    """
    if name is not None:
        return _apply_profiler(_require(name))
    if _CONTEXT_STACK:
        return _apply_profiler(_require(_CONTEXT_STACK[-1]))
    if _DEFAULT_OVERRIDE is not None:
        return _apply_profiler(_require(_DEFAULT_OVERRIDE))
    env = os.environ.get(BACKEND_ENV_VAR, "").strip()
    if env:
        return _apply_profiler(_require(env))
    return _apply_profiler(_auto_backend())


def default_backend() -> KernelBackend:
    """The backend an unqualified kernel call would use right now."""
    return resolve_backend(None)


def set_default_backend(name: Optional[str]) -> None:
    """Set (or with ``None`` clear) the process-wide default backend.

    Takes precedence over ``REPRO_BACKEND``; validated immediately so a
    bad name fails at configuration time, not mid-computation.
    """
    global _DEFAULT_OVERRIDE
    if name is not None:
        name = _require(name).name
    _DEFAULT_OVERRIDE = name


@contextmanager
def use_backend(name: Optional[str]) -> Iterator[None]:
    """Scoped default backend; ``None`` inherits the ambient resolution.

    Used by the Monte-Carlo worker to honour a spec's ``backend`` field
    without threading a parameter through every runner.
    """
    if name is None:
        yield
        return
    _require(name)
    _CONTEXT_STACK.append(name)
    try:
        yield
    finally:
        _CONTEXT_STACK.pop()


def probe() -> List[dict]:
    """One status record per registered backend (``repro backends``).

    Each record carries ``name``, ``priority``, ``summary``,
    ``available`` and ``reason`` (empty when available), plus
    ``default`` marking the backend an unqualified call resolves to.
    """
    try:
        default_name = default_backend().name
    except BackendUnavailableError:
        default_name = None  # REPRO_BACKEND names an unusable backend
    records = []
    for name in registered_backends():
        backend = _REGISTRY[name]
        ok, reason = backend_ready(name)
        records.append(
            {
                "name": name,
                "priority": backend.priority,
                "summary": backend.summary,
                "available": ok,
                "reason": reason,
                "default": name == default_name,
            }
        )
    return records


# ---------------------------------------------------------------------
# Bit-identity self-check
# ---------------------------------------------------------------------
def _small_hadamard(n: int) -> np.ndarray:
    indices = np.arange(n)
    parity = np.array(
        [[bin(a & i).count("1") & 1 for i in indices] for a in range(n)],
        dtype=np.int64,
    )
    return (1 - 2 * parity).astype(np.float64)


def _self_check(backend: KernelBackend) -> Tuple[bool, str]:
    """Exact-equality comparison of every kernel against the reference."""
    ref = NumpyBackend()
    rng = np.random.default_rng(20260808)

    def same(a, b) -> bool:
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and np.array_equal(a, b)

    try:
        # Packing + popcount + Hamming (covers multi-word rows: n = 70).
        bits = rng.integers(0, 2, size=(13, 70)).astype(np.uint8)
        if not same(backend.pack_rows(bits), ref.pack_rows(bits)):
            return False, "self-check failed: pack_rows"
        if not same(backend.pack_cols(bits), ref.pack_cols(bits)):
            return False, "self-check failed: pack_cols"
        packed = ref.pack_rows(bits)
        other = ref.pack_rows(rng.integers(0, 2, size=(13, 70)).astype(np.uint8))
        if not same(backend.popcount(packed), ref.popcount(packed)):
            return False, "self-check failed: popcount"
        if int(backend.popcount(packed, axis=None)) != int(
            ref.popcount(packed, axis=None)
        ):
            return False, "self-check failed: popcount(axis=None)"
        if not same(
            backend.hamming_distance(packed, other),
            ref.hamming_distance(packed, other),
        ):
            return False, "self-check failed: hamming_distance"

        # GF(2) matmul against a random column structure.
        matrix = rng.integers(0, 2, size=(9, 5)).astype(np.uint8)
        supports = [np.flatnonzero(matrix[:, j]) for j in range(5)]
        indptr = np.zeros(6, dtype=np.int64)
        indptr[1:] = np.cumsum([s.size for s in supports])
        indices = (
            np.concatenate(supports).astype(np.int64)
            if indptr[-1]
            else np.zeros(0, dtype=np.int64)
        )
        slices = rng.integers(0, 1 << 62, size=(9, 3)).astype(np.uint64)
        if not same(
            backend.gf2_matmul(slices, indptr, indices),
            ref.gf2_matmul(slices, indptr, indices),
        ):
            return False, "self-check failed: gf2_matmul"

        # Correlation across all three pairwise-summation regimes
        # (n < 8, 8 <= n <= 128, n > 128), with an all-zero tie row.
        for n in (5, 8, 64, 200):
            signs = 1.0 - 2.0 * rng.integers(0, 2, size=(16, n)).astype(np.float64)
            values = rng.normal(0.0, 1.0, size=(7, n))
            values[3] = 0.0
            got, want = (
                backend.correlation_decode(values, signs),
                ref.correlation_decode(values, signs),
            )
            if not all(same(g, w) for g, w in zip(got, want)):
                return False, f"self-check failed: correlation_decode(n={n})"

        # Hadamard spectrum at a paper size and a recursive-regime size.
        for n in (8, 256):
            hadamard = _small_hadamard(n)
            values = rng.normal(0.0, 1.0, size=(5, n))
            values[2] = 0.0
            got, want = (
                backend.soft_spectrum_decode(values, hadamard),
                ref.soft_spectrum_decode(values, hadamard),
            )
            if not all(same(g, w) for g, w in zip(got, want)):
                return False, f"self-check failed: soft_spectrum_decode(n={n})"
    except Exception as exc:  # a crashing kernel is an unavailable backend
        return False, f"self-check raised: {type(exc).__name__}: {exc}"
    return True, ""
