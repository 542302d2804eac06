"""Tests for size-capped LRU eviction of the on-disk cache tiers.

Covers the :mod:`repro.disklru` helpers plus their wiring into the
serve result cache (``REPRO_SERVE_CACHE_LIMIT``).  mtime is the recency
signal; tests pin mtimes explicitly so ordering never depends on
filesystem timestamp granularity.
"""

import os

import pytest

from repro.disklru import (
    disk_tier_size,
    enforce_disk_limit,
    limit_from_env,
    parse_size_limit,
)
from repro.obs import Counters
from repro.serve.cache import CACHE_LIMIT_ENV, ResultCache


def _set_mtime(path, when):
    os.utime(path, (when, when))


class TestParseSizeLimit:
    def test_plain_bytes(self):
        assert parse_size_limit("1048576") == 1048576

    def test_suffixes(self):
        assert parse_size_limit("256K") == 256 * 1024
        assert parse_size_limit("16M") == 16 * 1024 ** 2
        assert parse_size_limit("2g") == 2 * 1024 ** 3

    def test_unset_means_unlimited(self):
        assert parse_size_limit(None) is None
        assert parse_size_limit("") is None
        assert parse_size_limit("   ") is None

    def test_malformed_raises(self):
        # A typo'd limit must not silently mean "unlimited".
        with pytest.raises(ValueError):
            parse_size_limit("16MB")
        with pytest.raises(ValueError):
            parse_size_limit("lots")
        with pytest.raises(ValueError):
            parse_size_limit("-1")

    def test_env_reader(self, monkeypatch):
        monkeypatch.setenv("X_TEST_LIMIT", "4K")
        assert limit_from_env("X_TEST_LIMIT") == 4096
        monkeypatch.delenv("X_TEST_LIMIT")
        assert limit_from_env("X_TEST_LIMIT") is None


class TestEnforceDiskLimit:
    def _entry(self, tmp_path, name, body, mtime):
        path = tmp_path / f"{name}.json"
        path.write_bytes(body)
        _set_mtime(str(path), mtime)
        return str(path)

    def test_oldest_evicted_first(self, tmp_path):
        old = self._entry(tmp_path, "old", b"x" * 100, 1000)
        mid = self._entry(tmp_path, "mid", b"x" * 100, 2000)
        new = self._entry(tmp_path, "new", b"x" * 100, 3000)
        assert enforce_disk_limit(str(tmp_path), 250) == 1
        assert not os.path.exists(old)
        assert os.path.exists(mid) and os.path.exists(new)
        assert disk_tier_size(str(tmp_path)) == 200

    def test_no_limit_is_a_noop(self, tmp_path):
        self._entry(tmp_path, "a", b"x" * 100, 1000)
        assert enforce_disk_limit(str(tmp_path), None) == 0
        assert enforce_disk_limit(None, 10) == 0
        assert disk_tier_size(str(tmp_path)) == 100

    def test_cap_is_strict_even_for_one_entry(self, tmp_path):
        self._entry(tmp_path, "huge", b"x" * 1000, 1000)
        assert enforce_disk_limit(str(tmp_path), 500) == 1
        assert disk_tier_size(str(tmp_path)) == 0

    def test_non_entries_ignored(self, tmp_path):
        (tmp_path / "stray.tmp").write_bytes(b"x" * 10000)
        self._entry(tmp_path, "a", b"x" * 100, 1000)
        assert enforce_disk_limit(str(tmp_path), 200) == 0
        assert (tmp_path / "stray.tmp").exists()


class TestServeCacheEviction:
    def _entry_size(self, tmp_path, body=b"B" * 1000):
        probe = ResultCache(disk_dir=str(tmp_path / "probe"))
        probe.put("0" * 64, body)
        return probe.disk_size_bytes()

    def test_writes_evict_oldest(self, tmp_path):
        body = b"B" * 1000
        size = self._entry_size(tmp_path, body)
        cache = ResultCache(disk_dir=str(tmp_path / "c"),
                            memory_entries=0,
                            disk_limit_bytes=int(size * 2.5))
        counters = Counters()
        for i, when in ((1, 1000), (2, 2000), (3, 3000)):
            cache.put(str(i) * 64, body, counters)
            _set_mtime(cache.entry_path(str(i) * 64), when)
        # Third write pushed the tier over 2.5 entries: oldest evicted.
        cache.put("4" * 64, body, counters)
        assert counters["serve.cache_disk_evictions"] >= 1
        assert cache.get("1" * 64, counters) is None
        assert cache.get("3" * 64, counters) == body
        assert cache.disk_size_bytes() <= int(size * 2.5)

    def test_disk_hit_refreshes_recency(self, tmp_path):
        body = b"B" * 1000
        size = self._entry_size(tmp_path, body)
        cache = ResultCache(disk_dir=str(tmp_path / "c"),
                            memory_entries=0,
                            disk_limit_bytes=int(size * 2.5))
        counters = Counters()
        for i, when in ((1, 1000), (2, 2000)):
            cache.put(str(i) * 64, body, counters)
            _set_mtime(cache.entry_path(str(i) * 64), when)
        # Reading entry 1 makes it the most recent: the next write must
        # evict entry 2 instead.
        assert cache.get("1" * 64, counters) == body
        cache.put("3" * 64, body, counters)
        assert cache.get("2" * 64, counters) is None
        assert cache.get("1" * 64, counters) == body

    def test_env_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_LIMIT_ENV, "4K")
        cache = ResultCache(disk_dir=str(tmp_path))
        assert cache.disk_limit_bytes == 4096
        monkeypatch.delenv(CACHE_LIMIT_ENV)
        assert ResultCache(disk_dir=str(tmp_path)).disk_limit_bytes \
            is None

    def test_unlimited_by_default(self, tmp_path):
        cache = ResultCache(disk_dir=str(tmp_path), memory_entries=0)
        counters = Counters()
        for i in range(8):
            cache.put(str(i) * 64, b"B" * 1000, counters)
        assert cache.disk_entries() == 8
        assert counters["serve.cache_disk_evictions"] == 0
