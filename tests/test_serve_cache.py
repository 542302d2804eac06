"""Serve cache tests: content-addressed key properties, the two-tier
ResultCache, and the canonical VectorizerConfig serialization contract.

Satellites covered here:

* property-based cache-key tests — any change to IR text (modulo
  canonical whitespace), target, config field, or artifact hash changes
  the key; identical requests hit and replay byte-identical bytes;
* the VectorizerConfig canonical-serialization regression — adding a
  dataclass field without registering it in ``_CANONICAL_FIELDS`` makes
  every serialization (and therefore every cache key) fail loudly.
"""

import dataclasses
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.frontend import compile_c
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.obs.counters import Counters
from repro.serve.cache import (
    ResultCache,
    cache_key,
    current_artifact_hash,
)
from repro.serve.protocol import canonicalize_source
from repro.vectorizer.context import VectorizerConfig

_C_SRC = "void f(int* a, int* b) { a[0] = b[0] + b[1]; }"
_ARTIFACT = "a" * 64


def _ir() -> str:
    return print_function(compile_c(_C_SRC)[0])


# -- cache-key properties ----------------------------------------------


def test_key_is_sha256_hex():
    key = cache_key(_ir(), "avx2", VectorizerConfig(), _ARTIFACT)
    assert len(key) == 64
    int(key, 16)  # hex


def test_key_deterministic_across_calls():
    config = VectorizerConfig(beam_width=8)
    assert cache_key(_ir(), "avx2", config, _ARTIFACT) == \
        cache_key(_ir(), "avx2", VectorizerConfig(beam_width=8),
                  _ARTIFACT)


def test_whitespace_and_spelling_insensitive_via_canonicalization():
    """Reformatted source canonicalizes to the same IR text, so the
    same key; genuinely different programs get different keys."""
    base, _ = canonicalize_source(_C_SRC, "c")
    spaced, _ = canonicalize_source(
        "void  f( int* a,\n   int* b )\n{\n  a[ 0 ] = b[0]   + b[1]; }",
        "c",
    )
    assert base == spaced
    # Round-tripping canonical IR through the IR lang is stable too.
    again, _ = canonicalize_source(base, "ir")
    assert again == base
    different, _ = canonicalize_source(
        "void f(int* a, int* b) { a[0] = b[0] + b[2]; }", "c"
    )
    assert different != base


def test_any_input_dimension_changes_the_key():
    config = VectorizerConfig(beam_width=8)
    base = cache_key(_ir(), "avx2", config, _ARTIFACT)
    other_ir = print_function(compile_c(
        "void f(int* a, int* b) { a[0] = b[0] * b[1]; }")[0])
    assert cache_key(other_ir, "avx2", config, _ARTIFACT) != base
    assert cache_key(_ir(), "sse4", config, _ARTIFACT) != base
    assert cache_key(_ir(), "avx2", config, "b" * 64) != base


@given(st.sampled_from(VectorizerConfig._CANONICAL_FIELDS),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_config_field_feeds_the_key(field_name, raw):
    """Perturbing ANY config field (including booleans) moves the key."""
    config = VectorizerConfig()
    base = cache_key("func f() {\n}\n", "avx2", config, _ARTIFACT)
    current = getattr(config, field_name)
    if isinstance(current, bool):
        new_value = not current
    elif isinstance(current, str):
        # String-valued fields (e.g. ``bound``): the key hashes the
        # canonical serialization, not the validated enum, so any
        # distinct string must move it.
        new_value = current + "x" * (1 + raw % 5)
    else:
        new_value = current + 1 + raw
    setattr(config, field_name, new_value)
    assert cache_key("func f() {\n}\n", "avx2", config, _ARTIFACT) != base


@given(st.text(min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_ir_text_feeds_the_key(tail):
    base = cache_key(_C_SRC, "avx2", VectorizerConfig(), _ARTIFACT)
    extended = cache_key(_C_SRC + tail, "avx2", VectorizerConfig(),
                         _ARTIFACT)
    assert extended != base


def test_key_has_no_concatenation_ambiguity():
    """The key separates its parts: moving a suffix from the IR to the
    target (or vice versa) must not collide."""
    a = cache_key("irX", "avx2", VectorizerConfig(), _ARTIFACT)
    b = cache_key("ir", "Xavx2", VectorizerConfig(), _ARTIFACT)
    assert a != b


# -- canonical config serialization ------------------------------------


def test_config_canonical_dict_round_trip():
    config = VectorizerConfig(beam_width=3, exact=True)
    again = VectorizerConfig.from_canonical_dict(config.canonical_dict())
    assert again == config
    # JSON form is deterministic and key-sorted.
    text = config.canonical_json()
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              separators=(",", ":"))


def test_config_covers_every_dataclass_field():
    declared = {f.name for f in dataclasses.fields(VectorizerConfig)}
    assert declared == set(VectorizerConfig._CANONICAL_FIELDS)


def test_config_serializer_fails_loudly_on_new_field():
    """The regression the satellite demands: a field added to the
    dataclass without updating _CANONICAL_FIELDS must raise, not
    silently drop out of cache keys."""
    drifted = dataclasses.make_dataclass(
        "DriftedConfig",
        [("shiny_new_knob", int, dataclasses.field(default=7))],
        bases=(VectorizerConfig,),
    )
    with pytest.raises(RuntimeError, match="shiny_new_knob"):
        drifted().canonical_dict()
    with pytest.raises(RuntimeError):
        drifted().canonical_json()


def test_config_from_canonical_rejects_unknown_and_mistyped():
    with pytest.raises(ValueError, match="no_such_knob"):
        VectorizerConfig.from_canonical_dict({"no_such_knob": 1})
    with pytest.raises(ValueError, match="beam_width"):
        VectorizerConfig.from_canonical_dict({"beam_width": "wide"})
    with pytest.raises(ValueError, match="beam_width"):
        VectorizerConfig.from_canonical_dict({"beam_width": True})
    with pytest.raises(ValueError, match="exact"):
        VectorizerConfig.from_canonical_dict({"exact": 1})


def test_current_artifact_hash_is_stable_and_hexish():
    first = current_artifact_hash()
    assert first == current_artifact_hash()
    assert len(first) == 64


# -- ResultCache -------------------------------------------------------


def test_memory_roundtrip_and_counters():
    cache = ResultCache(memory_entries=8)
    counters = Counters()
    assert cache.get("k" * 64, counters) is None
    assert counters["serve.cache_misses"] == 1
    cache.put("k" * 64, b"body-bytes", counters)
    assert cache.get("k" * 64, counters) == b"body-bytes"
    assert counters["serve.cache_hits"] == 1
    assert counters["serve.cache_memory_hits"] == 1


def test_lru_evicts_least_recently_used():
    cache = ResultCache(memory_entries=2)
    counters = Counters()
    cache.put("a" * 64, b"A", counters)
    cache.put("b" * 64, b"B", counters)
    assert cache.get("a" * 64, counters) == b"A"  # refresh 'a'
    cache.put("c" * 64, b"C", counters)           # evicts 'b'
    assert counters["serve.cache_evictions"] == 1
    assert cache.get("b" * 64, counters) is None
    assert cache.get("a" * 64, counters) == b"A"
    assert cache.get("c" * 64, counters) == b"C"


def test_disk_tier_survives_memory_clear(tmp_path):
    cache = ResultCache(disk_dir=str(tmp_path), memory_entries=4)
    counters = Counters()
    cache.put("d" * 64, b"persisted", counters)
    cache.clear_memory()
    assert cache.get("d" * 64, counters) == b"persisted"
    assert counters["serve.cache_disk_hits"] == 1
    # A fresh cache object over the same directory (restart) also hits.
    reborn = ResultCache(disk_dir=str(tmp_path), memory_entries=4)
    assert reborn.get("d" * 64, counters) == b"persisted"


def test_corrupted_disk_entry_detected_and_evicted(tmp_path):
    cache = ResultCache(disk_dir=str(tmp_path), memory_entries=4)
    counters = Counters()
    key = "e" * 64
    cache.put(key, b"the-true-body", counters)
    cache.clear_memory()
    path = cache.entry_path(key)
    with open(path, "r") as handle:
        entry = json.load(handle)
    entry["body"] = entry["body"][:-4] + "EVIL"
    with open(path, "w") as handle:
        json.dump(entry, handle)
    assert cache.get(key, counters) is None
    assert counters["serve.cache_corrupt_evictions"] == 1
    assert not os.path.exists(path)  # evicted, not left to fail again
    # After recompute the entry is healthy again.
    cache.put(key, b"the-true-body", counters)
    cache.clear_memory()
    assert cache.get(key, counters) == b"the-true-body"


def test_garbage_disk_entry_is_a_miss_not_a_crash(tmp_path):
    cache = ResultCache(disk_dir=str(tmp_path), memory_entries=4)
    counters = Counters()
    key = "f" * 64
    with open(cache.entry_path(key), "w") as handle:
        handle.write("not json at all {{{")
    assert cache.get(key, counters) is None
    assert counters["serve.cache_corrupt_evictions"] == 1


def test_key_mismatch_entry_is_evicted(tmp_path):
    """An entry renamed onto the wrong key (or a poisoned write) fails
    the embedded-key check."""
    cache = ResultCache(disk_dir=str(tmp_path), memory_entries=0)
    counters = Counters()
    cache.put("1" * 64, b"body-one", counters)
    os.rename(cache.entry_path("1" * 64), cache.entry_path("2" * 64))
    assert cache.get("2" * 64, counters) is None
    assert counters["serve.cache_corrupt_evictions"] == 1


def test_zero_memory_entries_is_disk_only(tmp_path):
    cache = ResultCache(disk_dir=str(tmp_path), memory_entries=0)
    counters = Counters()
    cache.put("9" * 64, b"disk-only", counters)
    assert len(cache) == 0
    assert cache.get("9" * 64, counters) == b"disk-only"
    assert counters["serve.cache_disk_hits"] == 1


def test_cached_bytes_identical_to_cold_compile_bytes():
    """End-to-end determinism without a server: compiling the same
    canonical request twice yields byte-identical encoded bodies, which
    is the invariant that makes byte-replay caching sound."""
    from repro.obs.counters import Counters as C
    from repro.serve.protocol import build_response_body, encode_body
    from repro.session import VectorizationSession

    ir, _name = canonicalize_source(_C_SRC, "c")
    config = VectorizerConfig(beam_width=8)
    bodies = []
    for _ in range(2):
        session = VectorizationSession(
            target="avx2", beam_width=config.beam_width,
            config=VectorizerConfig.from_canonical_dict(
                config.canonical_dict()),
        )
        counters = C()
        result = session.vectorize(parse_function(ir),
                                   counters=counters)
        body = build_response_body(
            "avx2", config, cache_key(ir, "avx2", config, _ARTIFACT),
            result, counters,
        )
        bodies.append(encode_body(body))
    assert bodies[0] == bodies[1]
