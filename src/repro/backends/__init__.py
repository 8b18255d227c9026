"""Pluggable compute backends for the hot decode kernels.

The paper's thesis is that lightweight encoders win by exploiting the
cheapest parallelism the substrate offers; this package is the software
analogue one level down.  The *contract* (the decoder interfaces, the
conformance matrix, the golden vectors) is fixed; the *engine* under it
— how ``pack_rows``, the GF(2) matmul and the soft
correlation/Hadamard kernels are computed — is pluggable:

``numpy``
    The always-available reference: the vectorised bit-slicing code the
    repo has always run (:class:`~repro.backends.base.KernelBackend`).
``native``
    Single-pass C kernels compiled at first use with the system ``cc``
    (:mod:`repro.backends.native_backend`).

Every backend must be **bit-identical** to ``numpy`` — integer kernels
exactly, float kernels including NumPy's pairwise reduction order — and
the capability probe enforces that before a backend can be selected.
Select per call (``backend="native"``), per scope
(:func:`use_backend`), per process (:func:`set_default_backend` or
``REPRO_BACKEND``), or not at all and get the best available engine.
"""

from __future__ import annotations

from repro.backends.base import KernelBackend, NumpyBackend
from repro.backends.native_backend import NativeBackend
from repro.backends.registry import (
    BACKEND_ENV_VAR,
    available_backends,
    backend_ready,
    default_backend,
    get_backend,
    probe,
    register_backend,
    registered_backends,
    resolve_backend,
    set_default_backend,
    use_backend,
)

register_backend(NumpyBackend())
register_backend(NativeBackend())

__all__ = [
    "BACKEND_ENV_VAR",
    "KernelBackend",
    "NumpyBackend",
    "NativeBackend",
    "available_backends",
    "backend_ready",
    "default_backend",
    "get_backend",
    "probe",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
]
