"""Kernel-backend speedups under the bit-identity contract.

Times every pluggable kernel (:mod:`repro.backends`) on every backend
the capability probe admits — ``numpy`` (the reference) and ``native``
(compiled C) — across batch sizes 1 through 16384, and verifies on
**every compared arm at every size** that the accelerated outputs are
bit-identical to the reference (exact array equality, floats included:
the contract requires NumPy's pairwise reduction order).

This is a standalone script, not a pytest-benchmark suite, so CI can
run it as a smoke job::

    PYTHONPATH=src python benchmarks/bench_backends.py --quick

Exit status is non-zero if any backend output deviates from ``numpy``
or if, with at least one accelerated backend available, no soft
*decode* kernel (correlation, Hadamard spectrum) reaches the speedup
floor at the acceptance batch size (4096; default
floor 5x, ``REPRO_BENCH_BACKENDS_MIN_SPEEDUP`` overrides it on noisy
shared runners).  With only ``numpy`` available the script still runs
every arm against itself, so the numpy-only CI legs keep exercising the
dispatch plumbing.

``tools/bench_report.py`` imports :func:`collect_results` to emit the
machine-readable ``BENCH_7.json``.
"""

from __future__ import annotations

import argparse
import os
from typing import Dict, List, Optional

import numpy as np

from conftest import fail as _fail
from conftest import noisy_confidences
from conftest import time_best as _time
from repro.backends import available_backends, resolve_backend
from repro.coding import get_code
from repro.coding.decoders.fht import hadamard_matrix
from repro.gf2.bitpack import PackedGF2Matmul

FULL_SIZES = [1, 64, 256, 1024, 4096, 16384]
QUICK_SIZES = [1, 1024, 4096]
ACCEPTANCE_BATCH = 4096
#: The speedup floor is timing-sensitive; loaded/shared CI runners can
#: lower it via the environment instead of flaking.
ACCEPTANCE_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_BACKENDS_MIN_SPEEDUP", "5.0")
)
#: Kernels whose speedup can satisfy the acceptance floor (the soft
#: decode searches; hard decoding is a table gather with no kernel).
DECODE_KERNELS = (
    "correlation_decode",
    "soft_spectrum_decode",
)


def _same(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got, want)


def _identical(got, want) -> bool:
    """Exact equality of a kernel result (array or tuple of arrays)."""
    if isinstance(want, tuple):
        return len(got) == len(want) and all(
            _same(g, w) for g, w in zip(got, want)
        )
    return _same(got, want)


class _Arm:
    """One benchmarked kernel: per-size inputs plus the kernel call."""

    def __init__(self, kernel: str, code_name: str, make_inputs, call):
        self.kernel = kernel
        self.code_name = code_name
        self._make_inputs = make_inputs
        self._call = call

    def inputs(self, size: int):
        return self._make_inputs(size)

    def run(self, backend_name: str, inputs):
        return self._call(resolve_backend(backend_name), inputs)


def _build_arms() -> List[_Arm]:
    """The benchmarked kernels, each on the paper code that stresses it."""
    rng = np.random.default_rng(20260808)
    h84 = get_code("hamming84")
    rm13 = get_code("rm13")
    signs = 1.0 - 2.0 * h84.all_codewords.astype(np.float64)
    hadamard = hadamard_matrix(rm13.n).astype(np.float64)
    matmul = PackedGF2Matmul(h84.generator.to_array())

    def words(code, size):
        return rng.integers(0, 2, size=(size, code.n)).astype(np.uint8)

    return [
        _Arm(
            "pack_rows", "hamming84",
            lambda s: np.ascontiguousarray(words(h84, s)),
            lambda be, x: be.pack_rows(x),
        ),
        _Arm(
            "gf2_matmul", "hamming84",
            lambda s: resolve_backend("numpy").pack_cols(
                rng.integers(0, 2, size=(s, h84.k)).astype(np.uint8)
            ),
            lambda be, x: be.gf2_matmul(x, matmul._indptr, matmul._indices),
        ),
        _Arm(
            "correlation_decode", "hamming84",
            lambda s: np.ascontiguousarray(noisy_confidences(h84, s, rng)),
            lambda be, x: be.correlation_decode(x, signs),
        ),
        _Arm(
            "soft_spectrum_decode", "rm13",
            lambda s: np.ascontiguousarray(noisy_confidences(rm13, s, rng)),
            lambda be, x: be.soft_spectrum_decode(x, hadamard),
        ),
    ]


def collect_results(
    sizes: Optional[List[int]] = None,
    backends: Optional[List[str]] = None,
) -> List[Dict]:
    """Time every kernel on every backend; verify bit-identity throughout.

    Returns one record per ``(kernel, batch, backend)``::

        {"kernel": ..., "code": ..., "batch": ..., "backend": ...,
         "ns_per_frame": ..., "speedup_vs_numpy": ...}

    ``speedup_vs_numpy`` is 1.0 for the reference rows.  Any accelerated
    output that is not exactly equal to the reference fails the run.
    """
    sizes = FULL_SIZES if sizes is None else sizes
    backends = available_backends() if backends is None else backends
    if "numpy" not in backends:
        backends = backends + ["numpy"]
    # Reference last-ranked: report rows in probe order, numpy first.
    ordered = ["numpy"] + [b for b in backends if b != "numpy"]
    records: List[Dict] = []
    for arm in _build_arms():
        for size in sizes:
            inputs = arm.inputs(size)
            reference = arm.run("numpy", inputs)
            t_ref = _time(lambda: arm.run("numpy", inputs))
            for name in ordered:
                got = arm.run(name, inputs)
                if not _identical(got, reference):
                    _fail(
                        f"{arm.kernel}[{arm.code_name}] on backend "
                        f"{name!r} deviates from the numpy reference at "
                        f"batch {size} — bit-identity contract violated"
                    )
                t = t_ref if name == "numpy" else _time(
                    lambda: arm.run(name, inputs)
                )
                records.append(
                    {
                        "kernel": arm.kernel,
                        "code": arm.code_name,
                        "batch": size,
                        "backend": name,
                        "ns_per_frame": round(t * 1e9 / max(size, 1), 1),
                        "speedup_vs_numpy": round(t_ref / t, 2),
                    }
                )
    return records


def _enforce_floor(records: List[Dict]) -> None:
    """With an accelerated backend present, some decode kernel must win."""
    accelerated = [
        r
        for r in records
        if r["backend"] != "numpy"
        and r["batch"] == ACCEPTANCE_BATCH
        and r["kernel"] in DECODE_KERNELS
    ]
    if not accelerated:
        print(
            "\nno accelerated backend available — numpy reference only, "
            "speedup floor not applicable"
        )
        return
    best = max(accelerated, key=lambda r: r["speedup_vs_numpy"])
    if best["speedup_vs_numpy"] < ACCEPTANCE_SPEEDUP:
        _fail(
            f"no decode kernel reached {ACCEPTANCE_SPEEDUP}x over numpy at "
            f"batch {ACCEPTANCE_BATCH}; best was {best['kernel']} on "
            f"{best['backend']} at {best['speedup_vs_numpy']}x"
        )
    print(
        f"\nacceptance: {best['kernel']} on {best['backend']} reached "
        f"{best['speedup_vs_numpy']}x at batch {ACCEPTANCE_BATCH} "
        f"(floor {ACCEPTANCE_SPEEDUP}x)"
    )


def _render(records: List[Dict]) -> None:
    header = (
        f"{'kernel':<22} {'code':<10} {'batch':>6} {'backend':<8} "
        f"{'ns/frame':>10} {'vs numpy':>9}"
    )
    current = None
    for record in records:
        if record["kernel"] != current:
            current = record["kernel"]
            print(f"\n{header}")
            print("-" * len(header))
        print(
            f"{record['kernel']:<22} {record['code']:<10} "
            f"{record['batch']:>6} {record['backend']:<8} "
            f"{record['ns_per_frame']:>10,.1f} "
            f"{record['speedup_vs_numpy']:>8.2f}x"
        )


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke mode: batch sizes {QUICK_SIZES} only",
    )
    parser.add_argument(
        "--no-assert",
        action="store_true",
        help="report speedups without enforcing the acceptance floor",
    )
    args = parser.parse_args(argv)
    names = available_backends()
    print(
        "Kernel-backend speedups (bit-identity to numpy asserted on every "
        f"arm); available backends: {', '.join(names)}"
    )
    records = collect_results(QUICK_SIZES if args.quick else FULL_SIZES)
    _render(records)
    if not args.no_assert:
        _enforce_floor(records)
    print("\nAll backend outputs bit-identical to the numpy reference.")


if __name__ == "__main__":
    main()
