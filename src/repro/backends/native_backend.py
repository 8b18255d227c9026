"""Native (C) kernel backend, compiled on first use with the system cc.

The C source below is embedded in this module and compiled once per
source hash into a small shared library under a per-user cache
directory (``$REPRO_NATIVE_CACHE_DIR``, else ``~/.cache/repro/native``,
else the system temp dir), then loaded with :mod:`ctypes` — no build
step, no packaging, no dependencies beyond a C compiler on ``$PATH``
(``$CC``, else ``cc``, else ``gcc``/``clang``).

Bit-identity with the NumPy reference is engineered, not hoped for:

* the integer kernels (packing, popcount, XOR/Hamming, GF(2) matmul)
  are exact by nature;
* the float kernels keep the *first* extremum like NumPy's argmax and
  reduce with ``pw_sum_prod``, a line-for-line C port
  of NumPy's pairwise summation (sequential below 8 terms, 8-way
  unrolled blocks up to 128, recursive halving above — the split
  rounded down to a multiple of 8), compiled with ``-ffp-contract=off``
  so no FMA contraction can change the roundings.

The capability probe (:func:`repro.backends.registry.backend_ready`)
still verifies every kernel against the reference before this backend
can be selected, so a miscompiling toolchain degrades to ``numpy``
with a reason instead of corrupting results.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from repro.backends.base import KernelBackend

_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

/* NumPy's pairwise sum-of-products reduction, ported exactly:
 * - n < 8: sequential accumulation from 0.0;
 * - 8 <= n <= 128: eight accumulators seeded from the first block,
 *   8-wide unrolled blocks, combined ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
 *   sequential remainder;
 * - n > 128: recursive halving with the split rounded down to a
 *   multiple of 8.
 * Compiled with -ffp-contract=off so mul+add never fuses into FMA. */
static double pw_sum_prod(const double *a, const double *b, int64_t n) {
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++) res += a[i] * b[i];
        return res;
    } else if (n <= 128) {
        double r0 = a[0] * b[0], r1 = a[1] * b[1];
        double r2 = a[2] * b[2], r3 = a[3] * b[3];
        double r4 = a[4] * b[4], r5 = a[5] * b[5];
        double r6 = a[6] * b[6], r7 = a[7] * b[7];
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += a[i + 0] * b[i + 0]; r1 += a[i + 1] * b[i + 1];
            r2 += a[i + 2] * b[i + 2]; r3 += a[i + 3] * b[i + 3];
            r4 += a[i + 4] * b[i + 4]; r5 += a[i + 5] * b[i + 5];
            r6 += a[i + 6] * b[i + 6]; r7 += a[i + 7] * b[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) res += a[i] * b[i];
        return res;
    } else {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        return pw_sum_prod(a, b, n2) + pw_sum_prod(a + n2, b + n2, n - n2);
    }
}

void repro_pack_rows(const uint8_t *bits, int64_t rows, int64_t n,
                     uint64_t *out) {
    int64_t words = (n + 63) / 64;
    for (int64_t i = 0; i < rows; i++) {
        const uint8_t *row = bits + i * n;
        uint64_t *orow = out + i * words;
        for (int64_t w = 0; w < words; w++) {
            uint64_t acc = 0;
            int64_t base = w * 64;
            int64_t top = (n - base < 64) ? (n - base) : 64;
            for (int64_t t = 0; t < top; t++)
                acc |= (uint64_t)(row[base + t] & 1u) << t;
            orow[w] = acc;
        }
    }
}

/* Pack the *batch* axis: bits is (rows, n) row-major, out is
 * (n, ceil(rows/64)); bit t of out[j][w] is bits[64*w + t][j]. */
void repro_pack_cols(const uint8_t *bits, int64_t rows, int64_t n,
                     uint64_t *out) {
    int64_t words = (rows + 63) / 64;
    for (int64_t j = 0; j < n; j++) {
        uint64_t *orow = out + j * words;
        for (int64_t w = 0; w < words; w++) {
            uint64_t acc = 0;
            int64_t base = w * 64;
            int64_t top = (rows - base < 64) ? (rows - base) : 64;
            for (int64_t t = 0; t < top; t++)
                acc |= (uint64_t)(bits[(base + t) * n + j] & 1u) << t;
            orow[w] = acc;
        }
    }
}

void repro_popcount_rows(const uint64_t *packed, int64_t rows, int64_t words,
                         int64_t *out) {
    for (int64_t i = 0; i < rows; i++) {
        const uint64_t *row = packed + i * words;
        int64_t acc = 0;
        for (int64_t w = 0; w < words; w++)
            acc += __builtin_popcountll(row[w]);
        out[i] = acc;
    }
}

void repro_hamming_rows(const uint64_t *a, const uint64_t *b, int64_t rows,
                        int64_t words, int64_t *out) {
    for (int64_t i = 0; i < rows; i++) {
        const uint64_t *ra = a + i * words;
        const uint64_t *rb = b + i * words;
        int64_t acc = 0;
        for (int64_t w = 0; w < words; w++)
            acc += __builtin_popcountll(ra[w] ^ rb[w]);
        out[i] = acc;
    }
}

void repro_gf2_matmul(const uint64_t *slices, int64_t words,
                      const int64_t *indptr, const int64_t *indices,
                      int64_t n_out, uint64_t *out) {
    for (int64_t j = 0; j < n_out; j++) {
        uint64_t *orow = out + j * words;
        for (int64_t w = 0; w < words; w++) orow[w] = 0;
        for (int64_t s = indptr[j]; s < indptr[j + 1]; s++) {
            const uint64_t *srow = slices + indices[s] * words;
            for (int64_t w = 0; w < words; w++) orow[w] ^= srow[w];
        }
    }
}

void repro_correlation_decode(const double *values, int64_t batch, int64_t n,
                              const double *signs, int64_t n_codes,
                              int64_t *best_index, uint8_t *ties) {
    for (int64_t i = 0; i < batch; i++) {
        const double *row = values + i * n;
        int64_t idx = 0, cnt = 1;
        double best = pw_sum_prod(row, signs, n);
        for (int64_t c = 1; c < n_codes; c++) {
            double s = pw_sum_prod(row, signs + c * n, n);
            if (s > best) { best = s; idx = c; cnt = 1; }
            else if (s == best) cnt++;
        }
        best_index[i] = idx;
        ties[i] = cnt > 1;
    }
}

void repro_soft_spectrum_decode(const double *values, int64_t batch, int64_t n,
                                const double *hadamard, int64_t *best_index,
                                double *best_value, uint8_t *ties) {
    for (int64_t i = 0; i < batch; i++) {
        const double *row = values + i * n;
        int64_t idx = 0, cnt = 0;
        double best_mag = -1.0, bv = 0.0;
        for (int64_t a = 0; a < n; a++) {
            double s = pw_sum_prod(row, hadamard + a * n, n);
            double mag = fabs(s);
            if (mag > best_mag) { best_mag = mag; idx = a; bv = s; cnt = 1; }
            else if (mag == best_mag) cnt++;
        }
        best_index[i] = idx;
        best_value[i] = bv;
        ties[i] = (cnt > 1) || (best_mag == 0.0);
    }
}
"""

#: Must stay FMA-free (-ffp-contract=off) or pw_sum_prod stops being
#: bit-identical to NumPy on FMA-capable targets.
_CFLAGS = ["-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno"]

_i64 = ctypes.c_int64
_p = ctypes.c_void_p

_SIGNATURES = {
    "repro_pack_rows": [_p, _i64, _i64, _p],
    "repro_pack_cols": [_p, _i64, _i64, _p],
    "repro_popcount_rows": [_p, _i64, _i64, _p],
    "repro_hamming_rows": [_p, _p, _i64, _i64, _p],
    "repro_gf2_matmul": [_p, _i64, _p, _p, _i64, _p],
    "repro_correlation_decode": [_p, _i64, _i64, _p, _i64, _p, _p],
    "repro_soft_spectrum_decode": [_p, _i64, _i64, _p, _p, _p, _p],
}


def _find_compiler() -> Optional[str]:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE_DIR")
    if override:
        return Path(override)
    home = Path.home()
    try:
        home.mkdir(parents=True, exist_ok=True)
        return home / ".cache" / "repro" / "native"
    except OSError:
        return Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"


def build_native_library(compiler: str) -> Path:
    """Compile the embedded C source (cached per source/flags hash)."""
    key = hashlib.sha256(
        ("\x00".join([_C_SOURCE] + _CFLAGS + [compiler])).encode("utf-8")
    ).hexdigest()[:16]
    out_dir = _cache_dir() / key
    lib_path = out_dir / "repro_kernels.so"
    if lib_path.exists():
        return lib_path
    out_dir.mkdir(parents=True, exist_ok=True)
    src_path = out_dir / "repro_kernels.c"
    src_path.write_text(_C_SOURCE)
    tmp_path = out_dir / f"repro_kernels.{os.getpid()}.so.tmp"
    cmd = [compiler, *_CFLAGS, str(src_path), "-o", str(tmp_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(cmd)} failed:\n{proc.stderr.strip() or proc.stdout.strip()}"
        )
    # Atomic publish: concurrent first-time builders race benignly.
    os.replace(tmp_path, lib_path)
    return lib_path


def _ptr(arr: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(arr.ctypes.data)


class NativeBackend(KernelBackend):
    """C kernels compiled at first use; see the module docstring."""

    name = "native"
    priority = 20
    summary = "single-pass C kernels (system cc, compiled at first use)"

    def __init__(self):
        self._lib = None
        self._load_error: Optional[str] = None

    # ------------------------------------------------------------------
    def availability(self) -> Tuple[bool, str]:
        if self._lib is not None:
            return True, ""
        if self._load_error is not None:
            return False, self._load_error
        compiler = _find_compiler()
        if compiler is None:
            self._load_error = "no C compiler found ($CC, cc, gcc or clang)"
            return False, self._load_error
        try:
            lib_path = build_native_library(compiler)
            lib = ctypes.CDLL(str(lib_path))
            for fname, argtypes in _SIGNATURES.items():
                fn = getattr(lib, fname)
                fn.argtypes = argtypes
                fn.restype = None
        except Exception as exc:  # compile/load failure -> degrade to numpy
            self._load_error = f"native kernel build failed: {exc}"
            return False, self._load_error
        self._lib = lib
        return True, ""

    def _require_lib(self):
        if self._lib is None:
            ok, reason = self.availability()
            if not ok:
                raise RuntimeError(f"native backend unavailable: {reason}")
        return self._lib

    # ------------------------------------------------------------------
    # Bit-packing kernels
    # ------------------------------------------------------------------
    def pack_rows(self, bits: np.ndarray) -> np.ndarray:
        lib = self._require_lib()
        arr = np.ascontiguousarray(bits, dtype=np.uint8)
        rows, n = arr.shape
        if n == 0:
            return np.zeros((rows, 0), dtype=np.uint64)
        out = np.empty((rows, -(-n // 64)), dtype=np.uint64)
        lib.repro_pack_rows(_ptr(arr), rows, n, _ptr(out))
        return out

    def pack_cols(self, bits: np.ndarray) -> np.ndarray:
        lib = self._require_lib()
        arr = np.ascontiguousarray(bits, dtype=np.uint8)
        rows, n = arr.shape
        if rows == 0:
            return np.zeros((n, 0), dtype=np.uint64)
        out = np.empty((n, -(-rows // 64)), dtype=np.uint64)
        lib.repro_pack_cols(_ptr(arr), rows, n, _ptr(out))
        return out

    def popcount(
        self, packed: np.ndarray, axis: Union[int, None] = -1
    ) -> Union[np.ndarray, np.int64]:
        arr = np.asarray(packed, dtype=np.uint64)
        if axis is None:
            flat = np.ascontiguousarray(arr).reshape(1, -1)
            out = np.empty(1, dtype=np.int64)
            self._require_lib().repro_popcount_rows(
                _ptr(flat), 1, flat.shape[1], _ptr(out)
            )
            return np.int64(out[0])
        if arr.ndim >= 2 and axis in (-1, arr.ndim - 1):
            flat = np.ascontiguousarray(arr).reshape(-1, arr.shape[-1])
            out = np.empty(flat.shape[0], dtype=np.int64)
            self._require_lib().repro_popcount_rows(
                _ptr(flat), flat.shape[0], flat.shape[1], _ptr(out)
            )
            return out.reshape(arr.shape[:-1])
        return super().popcount(arr, axis=axis)

    def hamming_distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        aa = np.asarray(a, dtype=np.uint64)
        bb = np.asarray(b, dtype=np.uint64)
        if aa.shape != bb.shape or aa.ndim < 2:  # broadcast/1-D -> reference
            return super().hamming_distance(aa, bb)
        fa = np.ascontiguousarray(aa).reshape(-1, aa.shape[-1])
        fb = np.ascontiguousarray(bb).reshape(fa.shape)
        out = np.empty(fa.shape[0], dtype=np.int64)
        self._require_lib().repro_hamming_rows(
            _ptr(fa), _ptr(fb), fa.shape[0], fa.shape[1], _ptr(out)
        )
        return out.reshape(aa.shape[:-1])

    def gf2_matmul(
        self, slices: np.ndarray, indptr: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        lib = self._require_lib()
        sl = np.ascontiguousarray(slices, dtype=np.uint64)
        n_out = indptr.size - 1
        out = np.empty((n_out, sl.shape[1]), dtype=np.uint64)
        lib.repro_gf2_matmul(
            _ptr(sl), sl.shape[1], _ptr(indptr), _ptr(indices), n_out, _ptr(out)
        )
        return out

    # ------------------------------------------------------------------
    # Soft-decision decode kernels
    # ------------------------------------------------------------------
    def correlation_decode(self, values, signs):
        lib = self._require_lib()
        v = np.ascontiguousarray(values, dtype=np.float64)
        s = np.ascontiguousarray(signs, dtype=np.float64)
        batch, n = v.shape
        best_index = np.empty(batch, dtype=np.int64)
        ties = np.empty(batch, dtype=np.uint8)
        lib.repro_correlation_decode(
            _ptr(v), batch, n, _ptr(s), s.shape[0], _ptr(best_index), _ptr(ties)
        )
        return best_index, ties.astype(bool)

    def soft_spectrum_decode(self, values, hadamard):
        lib = self._require_lib()
        v = np.ascontiguousarray(values, dtype=np.float64)
        h = np.ascontiguousarray(hadamard, dtype=np.float64)
        batch, n = v.shape
        best_index = np.empty(batch, dtype=np.int64)
        best_value = np.empty(batch, dtype=np.float64)
        ties = np.empty(batch, dtype=np.uint8)
        lib.repro_soft_spectrum_decode(
            _ptr(v), batch, n, _ptr(h), _ptr(best_index), _ptr(best_value),
            _ptr(ties),
        )
        return best_index, best_value, ties.astype(bool)
