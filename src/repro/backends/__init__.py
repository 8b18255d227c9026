"""The kernel engine behind the batched bit-packing and soft-decode paths.

The paper's encoders are fixed XOR networks over a few input bits; for
codes that short the smallest implementation is the right one, and the
same holds one level down.  Every codec op on a code with
``n <= TABLE_N_LIMIT`` is a table gather or a fixed-order NumPy
expression, and the kernels that remain — ``pack_rows``, the GF(2)
matmul of the long composite codes, the soft correlation and Hadamard
searches — run on one NumPy engine (:class:`KernelBackend`), fetched
per call through :func:`resolve_backend`.
"""

from __future__ import annotations

from repro.backends.base import KernelBackend, pairwise_scores
from repro.backends.registry import available_backends, resolve_backend

__all__ = [
    "KernelBackend",
    "available_backends",
    "pairwise_scores",
    "resolve_backend",
]
