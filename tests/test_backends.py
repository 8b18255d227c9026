"""The pluggable kernel-backend layer: registry, dispatch, contract.

Covers the dispatch machinery end to end:

* registry + capability probe (``repro backends``' data source);
* the error surface — unknown names raise
  :class:`~repro.errors.UnknownBackendError`, registered-but-unusable
  backends raise :class:`~repro.errors.BackendUnavailableError`, at
  resolution time (``resolve_backend``, ``get_decoder(backend=)``,
  ``set_default_backend``, a bad ``REPRO_BACKEND``);
* resolution precedence: explicit arg > ``use_backend`` scope >
  ``set_default_backend`` > ``REPRO_BACKEND`` > auto probe;
* per-kernel bit-identity of every available backend against the NumPy
  reference on random inputs (the exhaustive matrix lives in
  ``test_conformance.py``; this is the kernel-level spot check);
* the Monte-Carlo cache: a spec's ``backend`` is part of its config
  hash, so shards checkpointed under one backend are never served to a
  run pinned to another;
* the service: ``REPRO_BACKEND`` round-trips through worker-pool forks
  and surfaces in STATS.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.backends import (
    BACKEND_ENV_VAR,
    KernelBackend,
    NumpyBackend,
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
from repro.backends import registry as backend_registry
from repro.errors import BackendError, BackendUnavailableError, UnknownBackendError

ALL_KERNELS = [
    "pack_rows",
    "pack_cols",
    "popcount",
    "hamming_distance",
    "gf2_matmul",
    "correlation_decode",
    "soft_spectrum_decode",
]


@pytest.fixture
def clean_overrides():
    """Reset the process-wide default override around a test."""
    yield
    set_default_backend(None)


def _unregister(name: str) -> None:
    backend_registry._REGISTRY.pop(name, None)
    backend_registry._READINESS.pop(name, None)
    backend_registry._AUTO_NAME = None


# ---------------------------------------------------------------------
# Registry and probe
# ---------------------------------------------------------------------
class TestRegistry:
    def test_builtin_backends_are_registered(self):
        names = registered_backends()
        assert {"numpy", "native"} <= set(names)
        # Highest auto-selection rank first.
        priorities = [get_backend(n).priority for n in names]
        assert priorities == sorted(priorities, reverse=True)

    def test_numpy_is_always_available(self):
        assert "numpy" in available_backends()
        ok, reason = backend_ready("numpy")
        assert ok and reason == ""

    def test_probe_records_shape(self):
        records = probe()
        assert [r["name"] for r in records] == registered_backends()
        for record in records:
            assert set(record) == {
                "name", "priority", "summary", "available", "reason", "default",
            }
            assert record["available"] == (record["reason"] == "")
        assert sum(r["default"] for r in records) == 1

    def test_unavailable_backends_carry_a_reason(self):
        for record in probe():
            if not record["available"]:
                assert record["reason"]

    def test_lookup_normalises_case_and_whitespace(self):
        assert get_backend(" NumPy ").name == "numpy"

    def test_replacing_a_registration_drops_the_probe_memo(self):
        class Flaky(KernelBackend):
            name = "flaky-test"
            priority = 1

            def availability(self):
                return False, "flaky by design"

        try:
            register_backend(Flaky())
            assert backend_ready("flaky-test") == (False, "flaky by design")

            class Fixed(Flaky):
                def availability(self):
                    return True, ""

            register_backend(Fixed())
            ok, _ = backend_ready("flaky-test")
            assert ok  # memo was dropped; self-check passed (pure reference)
        finally:
            _unregister("flaky-test")

    def test_self_check_failure_makes_backend_unavailable(self):
        class Wrong(NumpyBackend):
            name = "wrong-test"
            priority = 1

            def popcount(self, packed, axis=-1):
                return super().popcount(packed, axis=axis) + 1

        try:
            register_backend(Wrong())
            ok, reason = backend_ready("wrong-test")
            assert not ok
            assert "popcount" in reason
            assert "wrong-test" not in available_backends()
            with pytest.raises(BackendUnavailableError, match="popcount"):
                resolve_backend("wrong-test")
        finally:
            _unregister("wrong-test")


# ---------------------------------------------------------------------
# Error surface
# ---------------------------------------------------------------------
class TestErrors:
    def test_unknown_name_raises_with_the_registered_list(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            resolve_backend("no-such-backend")
        message = str(excinfo.value)
        assert "no-such-backend" in message and "numpy" in message

    def test_unknown_name_through_get_decoder(self):
        from repro.coding import get_code
        from repro.coding.registry import get_decoder

        with pytest.raises(UnknownBackendError):
            get_decoder(get_code("hamming74"), backend="no-such-backend")

    def test_backend_errors_share_a_base_class(self):
        assert issubclass(UnknownBackendError, BackendError)
        assert issubclass(BackendUnavailableError, BackendError)

    def test_bad_env_value_raises_at_resolution(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "no-such-backend")
        with pytest.raises(UnknownBackendError):
            resolve_backend(None)

    def test_set_default_backend_validates_immediately(self, clean_overrides):
        with pytest.raises(UnknownBackendError):
            set_default_backend("no-such-backend")


# ---------------------------------------------------------------------
# Resolution precedence
# ---------------------------------------------------------------------
class TestResolutionOrder:
    def test_explicit_argument_wins_over_scope(self):
        with use_backend("numpy"):
            assert resolve_backend("numpy").name == "numpy"
            assert resolve_backend(None).name == "numpy"

    def test_use_backend_nests_and_restores(self, clean_overrides):
        ambient = default_backend().name
        with use_backend("numpy"):
            assert default_backend().name == "numpy"
            inner = available_backends()[0]
            with use_backend(inner):
                assert default_backend().name == inner
            assert default_backend().name == "numpy"
        assert default_backend().name == ambient

    def test_use_backend_none_inherits(self):
        with use_backend("numpy"):
            with use_backend(None):
                assert default_backend().name == "numpy"

    def test_scope_beats_process_default_beats_env(
        self, monkeypatch, clean_overrides
    ):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert default_backend().name == "numpy"
        best = available_backends()[0]
        set_default_backend(best)
        assert default_backend().name == best
        with use_backend("numpy"):
            assert default_backend().name == "numpy"

    def test_auto_selects_highest_priority_available(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        set_default_backend(None)
        assert default_backend().name == available_backends()[0]


# ---------------------------------------------------------------------
# Kernel-level bit-identity (spot check on random inputs)
# ---------------------------------------------------------------------
@pytest.mark.parametrize("name", available_backends())
class TestKernelBitIdentity:
    def _pair(self, name):
        return resolve_backend(name), resolve_backend("numpy")

    def test_packing_and_popcount(self, name):
        backend, ref = self._pair(name)
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, size=(37, 130)).astype(np.uint8)
        assert np.array_equal(backend.pack_rows(bits), ref.pack_rows(bits))
        assert np.array_equal(backend.pack_cols(bits), ref.pack_cols(bits))
        packed = ref.pack_rows(bits)
        assert np.array_equal(backend.popcount(packed), ref.popcount(packed))
        assert int(backend.popcount(packed, axis=None)) == int(
            ref.popcount(packed, axis=None)
        )

    def test_distance_and_matmul(self, name):
        backend, ref = self._pair(name)
        rng = np.random.default_rng(12)
        a = rng.integers(0, 1 << 62, size=(29, 4)).astype(np.uint64)
        b = rng.integers(0, 1 << 62, size=(29, 4)).astype(np.uint64)
        assert np.array_equal(
            backend.hamming_distance(a, b), ref.hamming_distance(a, b)
        )
        matrix = rng.integers(0, 2, size=(12, 9)).astype(np.uint8)
        supports = [np.flatnonzero(matrix[:, j]) for j in range(9)]
        indptr = np.zeros(10, dtype=np.int64)
        indptr[1:] = np.cumsum([s.size for s in supports])
        indices = np.concatenate(supports).astype(np.int64)
        slices = rng.integers(0, 1 << 62, size=(12, 4)).astype(np.uint64)
        assert np.array_equal(
            backend.gf2_matmul(slices, indptr, indices),
            ref.gf2_matmul(slices, indptr, indices),
        )

    def test_decode_kernels(self, name):
        backend, ref = self._pair(name)
        rng = np.random.default_rng(13)
        from repro.coding.decoders.fht import hadamard_matrix

        # n spanning all three of numpy's pairwise-summation regimes.
        for n in (5, 64, 200):
            values = rng.normal(0.0, 1.0, size=(41, n))
            s = rng.choice([-1.0, 1.0], size=(16, n))
            for g, w in zip(
                backend.correlation_decode(values, s),
                ref.correlation_decode(values, s),
            ):
                assert np.array_equal(g, w)
        values = rng.normal(0.0, 1.0, size=(41, 8))
        hadamard = hadamard_matrix(8).astype(np.float64)
        for g, w in zip(
            backend.soft_spectrum_decode(values, hadamard),
            ref.soft_spectrum_decode(values, hadamard),
        ):
            assert np.array_equal(g, w)

    def test_empty_batches(self, name):
        backend, _ = self._pair(name)
        empty_words = np.zeros((0, 8), dtype=np.uint8)
        assert backend.pack_rows(empty_words).shape == (0, 1)
        signs = np.ones((4, 8), dtype=np.float64)
        best_index, ties = backend.correlation_decode(
            np.zeros((0, 8), dtype=np.float64), signs
        )
        assert best_index.shape == ties.shape == (0,)


# ---------------------------------------------------------------------
# Public wrappers dispatch (gf2.bitpack and decoders)
# ---------------------------------------------------------------------
class TestWrapperDispatch:
    def test_bitpack_wrappers_accept_backend(self):
        from repro.gf2.bitpack import (
            pack_cols,
            pack_rows,
            packed_hamming_distance,
            packed_matmul,
            popcount,
        )

        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=(10, 70)).astype(np.uint8)
        for name in available_backends():
            assert np.array_equal(
                pack_rows(bits, backend=name), pack_rows(bits, backend="numpy")
            )
            assert np.array_equal(
                pack_cols(bits, backend=name), pack_cols(bits, backend="numpy")
            )
            packed = pack_rows(bits)
            assert np.array_equal(
                popcount(packed, backend=name), popcount(packed, backend="numpy")
            )
            assert np.array_equal(
                packed_hamming_distance(packed, packed[::-1], backend=name),
                packed_hamming_distance(packed, packed[::-1], backend="numpy"),
            )
            matrix = rng.integers(0, 2, size=(70, 5))
            assert np.array_equal(
                packed_matmul(bits, matrix, backend=name),
                packed_matmul(bits, matrix, backend="numpy"),
            )

    def test_bitpack_wrapper_rejects_unknown_backend(self):
        from repro.gf2.bitpack import pack_rows

        with pytest.raises(UnknownBackendError):
            pack_rows(np.zeros((1, 8), dtype=np.uint8), backend="no-such")

    def test_get_decoder_pins_the_instance(self):
        from repro.coding import get_code
        from repro.coding.registry import get_decoder

        decoder = get_decoder(get_code("hamming84"), backend="numpy")
        assert decoder.backend == "numpy"
        assert get_decoder(get_code("hamming84")).backend is None

    def test_pinned_decoder_matches_reference(self):
        from repro.coding import get_code
        from repro.coding.registry import get_decoder

        code = get_code("rm13")
        rng = np.random.default_rng(8)
        confidences = rng.normal(0.0, 1.0, size=(64, code.n))
        reference = get_decoder(code, backend="numpy").decode_soft_batch_detailed(
            confidences
        )
        for name in available_backends():
            result = get_decoder(code, backend=name).decode_soft_batch_detailed(
                confidences
            )
            assert np.array_equal(result.messages, reference.messages)
            assert np.array_equal(
                result.corrected_errors, reference.corrected_errors
            )
            assert np.array_equal(
                result.detected_uncorrectable, reference.detected_uncorrectable
            )


# ---------------------------------------------------------------------
# Monte-Carlo integration: spec identity and the shard cache
# ---------------------------------------------------------------------
class TestSpecBackendIdentity:
    def _spec(self, backend=None):
        import dataclasses

        from repro.system.experiment import Fig5Config, scheme_specs

        spec = scheme_specs(Fig5Config(n_chips=4, n_messages=4, seed=7))[0]
        return dataclasses.replace(spec, backend=backend)

    def test_backend_participates_in_config_hash(self):
        assert self._spec(None).config_hash() != self._spec("numpy").config_hash()
        assert (
            self._spec("numpy").config_hash() != self._spec("native").config_hash()
        )
        assert self._spec("numpy").to_dict()["backend"] == "numpy"

    def test_cache_refuses_shards_from_another_backend(self, tmp_path):
        from repro.runtime import ResultCache
        from repro.runtime.spec import Shard

        cache = ResultCache(tmp_path)
        shard = Shard(0, 4)
        counts = np.arange(4, dtype=np.int64)
        cache.store_shard(self._spec("numpy"), shard, counts)
        assert (0, 4) in cache.load_shards(self._spec("numpy"))
        assert cache.load_shards(self._spec(None)) == {}
        assert cache.load_shards(self._spec("native")) == {}

    def test_run_shard_honours_the_spec_backend(self):
        from repro.runtime.worker import run_shard
        from repro.runtime.spec import Shard

        shard = Shard(0, 2)
        reference = run_shard(self._spec("numpy"), shard)
        for name in available_backends():
            assert np.array_equal(run_shard(self._spec(name), shard), reference)

    def test_run_shard_rejects_an_unusable_backend(self):
        from repro.runtime.worker import run_shard
        from repro.runtime.spec import Shard

        with pytest.raises(UnknownBackendError):
            run_shard(self._spec("no-such-backend"), Shard(0, 1))


# ---------------------------------------------------------------------
# Service integration: STATS and the worker pool
# ---------------------------------------------------------------------
class TestServiceBackend:
    def test_stats_reports_the_active_backend(self):
        from repro.service import DispatchCore

        with use_backend("numpy"):
            snapshot = DispatchCore().stats()
        assert snapshot["backend"] == "numpy"

    def test_env_round_trips_through_worker_pool_forks(self, monkeypatch):
        # The pool workers are separate processes; REPRO_BACKEND set in
        # the parent must reach each worker's kernel resolution and be
        # reported per worker in the STATS rollup.
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        from repro.service import CodecClient, CodecServer

        async def scenario():
            async with CodecServer(workers=2) as server:
                client = await CodecClient.connect(port=server.port)
                session = await client.open_session("hamming84")
                words = np.zeros((4, 8), dtype=np.uint8)
                await session.decode(words)
                stats = await client.stats()
                await client.close()
                return stats

        stats = asyncio.run(asyncio.wait_for(scenario(), 60.0))
        assert stats["backend"] == "numpy"
        assert len(stats["workers"]) == 2
        for worker in stats["workers"]:
            assert worker["backend"] == "numpy"
