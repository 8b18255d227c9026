"""Each (code, decoder) pair is built once per process and shared.

``repro.coding.registry.get_code`` memoises each code under its
canonical name and ``get_codec`` each decoder over it under the name
and the strategy; ``CodecSession`` and ``catalog()`` take their pair
from ``get_codec``.  These tests
pin what makes the sharing safe and bounded:

* N session opens of one code build its code and decoder once, while
  each session keeps its own injection stream;
* every client spelling of a name lands on one memo entry, and a code
  asked for alone builds no decoder;
* a refused config (unknown code, a composite given a tabulating
  strategy) caches nothing;
* no caller can write into a shared code's or decoder's arrays.
"""

import asyncio

import numpy as np
import pytest

from repro.coding import canonical_code_name, get_code, get_codec
from repro.coding import registry
from repro.coding.decoders import ExtendedHammingDecoder
from repro.errors import SessionError
from repro.service import DispatchCore, protocol
from repro.service.session import CodecSession, SessionConfig, catalog


@pytest.fixture
def memos(monkeypatch):
    """Empty code and codec memos, returned so tests can inspect the keys."""
    codes, codecs = {}, {}
    monkeypatch.setattr(registry, "_CODES", codes)
    monkeypatch.setattr(registry, "_CODECS", codecs)
    return codes, codecs


def _counted(calls, fn):
    """``fn``, appending each call's arguments to ``calls``."""

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return wrapper


class TestBuildOnce:
    def test_session_opens_build_code_and_decoder_once(self, memos, monkeypatch):
        """200 distinct-seed hamming84 opens share one code and decoder."""
        factories = registry._CODE_FACTORIES
        codes_built, decoders_built = [], []
        monkeypatch.setitem(
            factories, "hamming84", _counted(codes_built, factories["hamming84"])
        )
        monkeypatch.setattr(
            ExtendedHammingDecoder,
            "__init__",
            _counted(decoders_built, ExtendedHammingDecoder.__init__),
        )

        async def opens():
            core = DispatchCore()
            for seed in range(200):
                config = {"code": "hamming84", "p01": 0.01, "seed": seed}
                await core.dispatch(protocol.Request(
                    protocol.OP_OPEN, seed, protocol.build_json_body(config)
                ))
            return core

        core = asyncio.run(asyncio.wait_for(opens(), 60.0))
        sessions = [core.registry.get(sid) for sid in range(1, 201)]
        assert len(codes_built) == 1
        assert len(decoders_built) == 1
        assert len({id(s.code) for s in sessions}) == 1
        assert len({id(s.decoder) for s in sessions}) == 1
        # The injection streams stay per session.
        assert len({id(s._rng) for s in sessions}) == 200
        assert list(memos[0]) == ["hamming84"]
        assert list(memos[1]) == [("hamming84", None)]

    def test_catalog_builds_nothing_twice(self, memos, monkeypatch):
        built = []
        factories = registry._CODE_FACTORIES
        monkeypatch.setitem(factories, "rm13", _counted(built, factories["rm13"]))
        first = catalog()
        assert catalog() == first
        assert len(built) == 1
        assert len(memos[1]) == len(first["codes"])

    def test_decoders_of_one_code_share_it(self, memos):
        code, default = get_codec("hamming84")
        syndrome_code, syndrome = get_codec("hamming84", "syndrome")
        assert syndrome_code is code
        assert syndrome is not default
        assert get_code("hamming84") is code

    def test_a_code_alone_builds_no_decoder(self, memos):
        codes, codecs = memos
        get_code("interleaved:hamming74:8")
        assert list(codes) == ["hamming74", "interleaved:hamming74:8"]
        assert codecs == {}

    @pytest.mark.parametrize(
        "name", ["interleaved:hamming74:4", "concatenated:hamming84:hamming74"]
    )
    def test_a_composite_strategy_is_its_default_entry(self, memos, name):
        kind = name.partition(":")[0]
        assert get_codec(name, kind.upper()) is get_codec(name)
        assert list(memos[1]) == [(name, None)]


class TestCanonicalNames:
    @pytest.mark.parametrize(
        "spellings,codes",
        [
            (["hamming84", "Hamming(8,4)", "hamming-84", "HAMMING_84",
              "extended_hamming_84"], 1),
            (["rm13", "RM(1,3)", "reed-muller-13"], 1),
            # A composite's code plus one per distinct part.
            (["interleaved:hamming84:8", "interleaved:Hamming84:08",
              " Interleaved :hamming-84: 8"], 2),
            (["concatenated:hamming84:hamming74",
              "CONCATENATED:Hamming(8,4):Hamming(7,4)"], 3),
        ],
    )
    def test_spellings_share_one_entry(self, memos, spellings, codes):
        pairs = [get_codec(name) for name in spellings]
        assert all(pair is pairs[0] for pair in pairs)
        assert {canonical_code_name(name) for name in spellings} == {spellings[0]}
        assert len(memos[0]) == codes
        assert len(memos[1]) == 1

    def test_strategy_spelling_and_composite_parts_are_shared(self, memos):
        assert get_codec("rm13", "SOFT-FHT") is get_codec("RM(1,3)", "soft-fht")
        interleaved = get_code("interleaved:hamming74:4")
        assert interleaved.base_code is get_code("Hamming(7,4)")
        concatenated = get_code("concatenated:hamming84:hamming74")
        assert concatenated.outer_code is get_code("hamming84")
        assert concatenated.inner_code is get_code("hamming74")


class TestRefusedConfigsCacheNothing:
    @pytest.mark.parametrize(
        "config",
        [
            {"code": "golay"},
            {"code": "interleaved:golay:4"},
            {"code": "interleaved:hamming84:65"},
            {"code": "interleaved:hamming84:8", "decoder": "syndrome"},
            {"code": "concatenated:hamming84:hamming74", "decoder": "ml"},
        ],
    )
    def test_refused_open_raises_and_caches_nothing(self, memos, config):
        with pytest.raises(SessionError):
            CodecSession(1, SessionConfig.from_dict(config))
        assert memos == ({}, {})

    def test_refused_open_over_the_wire(self, memos):
        core = DispatchCore()
        body = protocol.build_json_body({"code": "golay"})
        with pytest.raises(SessionError):
            asyncio.run(core.dispatch(protocol.Request(protocol.OP_OPEN, 1, body)))
        assert memos == ({}, {}) and len(core.registry) == 0

    def test_failed_decoder_build_caches_nothing_under_its_key(self, memos):
        with pytest.raises(ValueError):
            get_codec("hamming84", "fht")  # FHT needs an RM(1, m) code
        with pytest.raises(KeyError):
            get_codec("hamming84", "no-such-strategy")
        assert memos[1] == {}


def _arrays_held(obj, seen=None):
    """Every ndarray reachable from a repro object's attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays_held(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for value in obj:
            yield from _arrays_held(value, seen)
    elif type(obj).__module__.startswith("repro."):
        for value in getattr(obj, "__dict__", {}).values():
            yield from _arrays_held(value, seen)
        for cls in type(obj).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                if hasattr(obj, slot):
                    yield from _arrays_held(getattr(obj, slot), seen)


class TestSharedArraysAreReadOnly:
    @pytest.mark.parametrize(
        "name,strategy",
        [
            ("hamming74", None),
            ("hamming84", None),
            ("hamming84", "syndrome"),
            ("hamming84", "ml"),
            ("rm13", None),
            ("rm13", "soft-fht"),
            ("interleaved:hamming74:4", None),
            ("concatenated:hamming84:hamming74", None),
        ],
    )
    def test_writing_into_a_shared_pair_raises(self, name, strategy):
        code, decoder = get_codec(name, strategy)
        # Fill every cache the serving path and the analyses touch.
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2, (16, code.n)).astype(np.uint8)
        code.encode_batch(rng.integers(0, 2, (16, code.k)).astype(np.uint8))
        code.syndrome_batch(words)
        code.extract_message_batch(code.encode_batch(np.eye(code.k, dtype=np.uint8)))
        decoder.decode_batch_detailed(words)
        decoder.decode_soft_batch_detailed(1.0 - 2.0 * words)
        code.minimum_distance
        if code.k <= 16:
            code.all_codewords
            code.weight_distribution
        if code.n - code.k <= 8:
            code.coset_leaders
        arrays = list(_arrays_held(code)) + list(_arrays_held(decoder))
        assert len(arrays) >= 5
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0
