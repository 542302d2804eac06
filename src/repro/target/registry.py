"""Cached, thread-safe target registry.

Building a whole ISA (parse + symbolic evaluation + lifting for every
instruction) is the expensive offline phase, so built targets and the
individual built instructions are memoized at module level.  Sessions
and the parallel bench harness share built targets across threads, so
cache population is guarded by a lock.

When a fresh serialized artifact is available (``repro gen``, see
:mod:`repro.target.artifact`), :func:`get_target` reconstructs targets
from it in milliseconds instead of re-running the pseudocode build; a
stale or missing artifact falls back to the pseudocode path silently.
Cold-build measurements should use the public :func:`clear_caches`
instead of poking the private cache globals.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Tuple

from repro.target.isa import TargetDesc, TargetInstruction, build_instruction
from repro.target.specs import TARGET_CONFIGS, build_spec_entries

#: Environment override for the artifact location.  An empty value (or
#: ``0``/``off``) disables artifact loading entirely.
ARTIFACT_ENV_VAR = "REPRO_TARGET_ARTIFACT"

#: The committed artifact that ships with the package.
DEFAULT_ARTIFACT_PATH = os.path.join(
    os.path.dirname(__file__), "vegen_targets.json"
)

#: Guards every mutation of the module-level caches below.
_lock = threading.RLock()

#: Built targets, keyed by (target name, canonicalize_patterns).
_cache: Dict[Tuple[str, bool], TargetDesc] = {}

#: Built instructions, keyed by (instruction name, canonicalize_patterns).
_inst_cache: Dict[Tuple[str, bool], Optional[TargetInstruction]] = {}

#: Loaded artifact document, or False once loading failed/was skipped
#: (None = not attempted yet).
_artifact_cache: Optional[object] = None


def available_targets() -> List[str]:
    """Names accepted by :func:`get_target`."""
    return sorted(TARGET_CONFIGS)


def clear_caches() -> None:
    """Reset every registry cache (built targets, built instructions,
    and the loaded artifact memo).

    Public API for cold-build measurements: the next
    :func:`get_target` call re-runs target construction from scratch.
    """
    global _artifact_cache
    with _lock:
        _cache.clear()
        _inst_cache.clear()
        _artifact_cache = None


def artifact_path() -> Optional[str]:
    """The artifact path in effect, or None when loading is disabled."""
    path = os.environ.get(ARTIFACT_ENV_VAR)
    if path is None:
        return DEFAULT_ARTIFACT_PATH
    if path.strip().lower() in ("", "0", "off", "none"):
        return None
    return path


def _artifact() -> Optional[Dict]:
    """The loaded-and-fresh artifact document, or None.

    The load attempt is memoized (including failures) so a missing or
    stale artifact costs one ``stat``/hash per process, not per call.
    Must be called with ``_lock`` held.
    """
    global _artifact_cache
    if _artifact_cache is None:
        _artifact_cache = False
        path = artifact_path()
        if path is not None and os.path.exists(path):
            from repro.target.artifact import ArtifactError, load_artifact

            try:
                doc = load_artifact(path, check_fresh=True)
                # Only the default configuration is serialized; an
                # ablation artifact is ignored rather than misapplied.
                if doc.get("canonicalize_patterns") is True:
                    _artifact_cache = doc
            except (ArtifactError, OSError, ValueError):
                _artifact_cache = False  # stale/corrupt: pseudocode build
    return _artifact_cache or None


def _build_target(name: str, canonicalize_patterns: bool) -> TargetDesc:
    """The pseudocode build path (must be called with ``_lock`` held)."""
    config = TARGET_CONFIGS[name]
    instructions = []
    for entry in build_spec_entries():
        if not entry.requires <= config.extensions:
            continue
        inst_key = (entry.name, canonicalize_patterns)
        if inst_key not in _inst_cache:
            _inst_cache[inst_key] = build_instruction(
                entry.name, entry.text, entry.requires,
                entry.inv_throughput,
                canonicalize_patterns=canonicalize_patterns,
                intrinsic=entry.intrinsic,
                header=entry.header,
                imm_operand=entry.imm_operand,
            )
        inst = _inst_cache[inst_key]
        if inst is not None:
            instructions.append(inst)
    return TargetDesc(name, config.extensions, instructions,
                      family=config.family)


def get_target(name: str, canonicalize_patterns: bool = True) -> TargetDesc:
    """Build (or fetch the cached) target description for ``name``.

    Raises ``KeyError`` for unknown target names.  Entries whose
    ``requires`` set is not covered by the target's extensions are
    filtered out; entries that fail to lift are skipped.

    A fresh serialized artifact (when present) short-circuits the whole
    pseudocode build; artifacts only cover the default
    ``canonicalize_patterns=True`` configuration, so the §6 ablation
    always uses the pseudocode path.
    """
    key = (name, canonicalize_patterns)
    cached = _cache.get(key)
    if cached is not None:
        return cached
    if name not in TARGET_CONFIGS:
        raise KeyError(
            f"unknown target {name!r}; available: "
            f"{', '.join(available_targets())}"
        )
    with _lock:
        cached = _cache.get(key)
        if cached is not None:
            return cached  # built by another thread while we waited
        target = None
        if canonicalize_patterns:
            doc = _artifact()
            if doc is not None and name in doc.get("targets", {}):
                from repro.target.artifact import target_from_artifact

                target = target_from_artifact(doc, name)
        if target is None:
            target = _build_target(name, canonicalize_patterns)
        _cache[key] = target
    return target
