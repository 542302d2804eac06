"""Size-capped LRU eviction for one-file-per-key disk cache tiers.

The serve result cache's disk tier (:mod:`repro.serve.cache`) stores
one JSON file per content-addressed key and, left alone, grows without
bound across runs.  This module gives it an eviction discipline:

* recency is file mtime — a disk *hit* touches the entry
  (:func:`mark_used`), so reads refresh position exactly like an
  in-memory LRU's ``move_to_end``;
* after every disk write, :func:`enforce_disk_limit` deletes
  oldest-first until the tier's total size is back under its byte cap.
  The cap is strict: a brand-new entry larger than the whole cap is
  itself deleted (the cache degrades to a miss, never to an unbounded
  directory).

Caps come from ``REPRO_SERVE_CACHE_LIMIT`` (or an explicit constructor
argument); values are bytes, with optional ``K`` / ``M`` / ``G``
suffixes (``"16M"``).  Unset or empty means unlimited, preserving the
previous behaviour.

Eviction races are benign by construction: every entry is
self-validating (schema + key + body hash), deletes of already-deleted
files are ignored, and losing an entry only ever costs a recompute.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

_SUFFIX_MULTIPLIERS = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}


def parse_size_limit(text: Optional[str]) -> Optional[int]:
    """Parse a byte-size knob: ``"1048576"``, ``"256K"``, ``"16M"``,
    ``"1G"``.  ``None`` / empty / whitespace mean "no limit" (None).

    Raises :class:`ValueError` on malformed input — a typo'd limit
    silently meaning "unlimited" is the failure mode this knob exists
    to prevent.
    """
    if text is None:
        return None
    text = text.strip()
    if not text:
        return None
    multiplier = 1
    if text[-1].upper() in _SUFFIX_MULTIPLIERS:
        multiplier = _SUFFIX_MULTIPLIERS[text[-1].upper()]
        text = text[:-1]
    try:
        value = int(text)
    except ValueError:
        raise ValueError(
            f"malformed cache size limit {text!r}; expected bytes with "
            f"an optional K/M/G suffix (e.g. '16M')"
        ) from None
    if value < 0:
        raise ValueError(f"cache size limit must be >= 0, got {value}")
    return value * multiplier


def limit_from_env(var: str) -> Optional[int]:
    """Read a size cap from the environment (None when unset/empty)."""
    return parse_size_limit(os.environ.get(var))


def mark_used(path: str) -> None:
    """Refresh an entry's recency (mtime) after a disk hit.

    Best-effort: a concurrent eviction losing the race is a no-op."""
    try:
        os.utime(path, None)
    except OSError:
        pass


def _scan(directory: str, suffix: str) -> List[Tuple[float, str, int]]:
    """All entries as (mtime, path, size), oldest first.

    Ties (filesystems with coarse mtime granularity) break by name so
    eviction order is deterministic."""
    entries = []
    for name in os.listdir(directory):
        if not name.endswith(suffix):
            continue
        path = os.path.join(directory, name)
        try:
            stat = os.stat(path)
        except OSError:
            continue  # concurrently deleted
        entries.append((stat.st_mtime, path, stat.st_size))
    entries.sort()
    return entries


def disk_tier_size(directory: Optional[str],
                   suffix: str = ".json") -> int:
    """Total bytes currently held by a tier's entries."""
    if directory is None or not os.path.isdir(directory):
        return 0
    return sum(size for _, _, size in _scan(directory, suffix))


def enforce_disk_limit(directory: Optional[str],
                       limit_bytes: Optional[int],
                       suffix: str = ".json") -> int:
    """Delete oldest entries until the tier fits ``limit_bytes``.

    Returns the number of entries evicted.  No-op (0) without a
    directory or a limit.
    """
    if directory is None or limit_bytes is None:
        return 0
    entries = _scan(directory, suffix)
    total = sum(size for _, _, size in entries)
    evicted = 0
    for _, path, size in entries:
        if total <= limit_bytes:
            break
        try:
            os.unlink(path)
        except OSError:
            pass  # lost a race; the space is freed either way
        total -= size
        evicted += 1
    return evicted
