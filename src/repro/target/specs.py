"""ISA-agnostic spec core: entries, target configs, and the family registry.

The "vendor manual" of the reproduction is split per ISA family: each
family module (:mod:`repro.target.specs_x86`,
:mod:`repro.target.specs_neon`) declares its targets and builds its
pseudocode spec entries, and registers itself here.  This module owns
the ISA-agnostic data model — :class:`SpecEntry`, :class:`TargetConfig`,
:class:`ISAFamily` — plus the aggregation API the registry and the
artifact generator consume (``TARGET_CONFIGS``, ``build_spec_entries``).

Supporting a new ISA is therefore pure data: write the pseudocode specs
in a new module, wrap them in an :class:`ISAFamily`, and call
:func:`register_family` (see ``examples/new_isa_extension.py`` and the
README "Adding a target" quick-start).  Nothing downstream — VIDL
lifting, pattern canonicalization, pack selection, codegen — knows
which family an instruction came from; only the C emitter
(:mod:`repro.emit`) consults the per-family conventions to render
loads, stores, and vector types.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional


@dataclass(frozen=True)
class SpecEntry:
    """One ISA entry: a named pseudocode spec plus target metadata.

    ``intrinsic`` is the real vendor intrinsic the instruction renders
    as in emitted C (``None`` for model-only entries).  It is either a
    plain function name (``_mm_madd_epi16``: operands become call
    arguments in order) or a format template with ``{i}`` operand
    placeholders for intrinsics whose argument order differs from the
    spec's (``_mm_blendv_epi8({2}, {1}, {0})``).  ``header`` names the C
    header providing it (defaulted from the owning family).
    ``imm_operand`` marks an operand position the real intrinsic takes
    as a compile-time immediate rather than a vector (NEON's
    ``vshrq_n_*`` shift counts).
    """

    name: str
    text: str
    requires: FrozenSet[str]
    inv_throughput: float
    intrinsic: Optional[str] = None
    header: Optional[str] = None
    imm_operand: Optional[int] = None


@dataclass(frozen=True)
class TargetConfig:
    """Per-target metadata: the extension set gating spec entries plus
    the ISA family the target belongs to."""

    extensions: FrozenSet[str]
    family: str


@dataclass(frozen=True)
class ISAFamily:
    """One pluggable instruction-set family.

    ``targets`` maps each target name to its extension set (entries are
    gated by ``entry.requires <= extensions``, so families do not
    partition the entry inventory — a target may combine extensions
    from several families).  ``build_entries`` is the family's whole
    "vendor manual": a zero-argument callable returning its
    :class:`SpecEntry` list, called once, at registration.  ``header``
    is the default C header for the family's intrinsics, applied to
    entries that do not name one.
    """

    name: str
    header: str
    targets: Mapping[str, FrozenSet[str]]
    build_entries: Callable[[], List[SpecEntry]]


#: Registered families, in registration order (spec entry order follows).
FAMILIES: Dict[str, ISAFamily] = {}

#: Aggregated target configurations across every registered family.
TARGET_CONFIGS: Dict[str, TargetConfig] = {}

#: Each registered family's entries (default header applied), built
#: once at registration.  ``build_spec_entries`` concatenates them, so
#: the duplicate check, the registry and the artifact's content hash
#: never rebuild the inventory.
_FAMILY_ENTRIES: Dict[str, List[SpecEntry]] = {}


def register_family(family: ISAFamily) -> None:
    """Add an ISA family to the registry.

    Validates that the family's name, target names, and entry names do
    not collide with anything already registered, then publishes its
    targets into ``TARGET_CONFIGS``.  Registering a family invalidates
    the target registry's caches (and implicitly the committed offline
    artifact, whose content hash covers the whole inventory — rerun
    ``repro gen`` to re-serialize).
    """
    if family.name in FAMILIES:
        raise ValueError(f"ISA family {family.name!r} already registered")
    clash = set(family.targets) & set(TARGET_CONFIGS)
    if clash:
        raise ValueError(
            f"family {family.name!r} redefines targets: {sorted(clash)}"
        )
    entries = [
        replace(entry, header=family.header)
        if entry.header is None and entry.intrinsic is not None else entry
        for entry in family.build_entries()
    ]
    existing = {e.name for e in build_spec_entries()}
    new_names = [e.name for e in entries]
    dup = [n for n in new_names if n in existing or new_names.count(n) > 1]
    if dup:
        raise ValueError(
            f"family {family.name!r} redefines entries: {sorted(set(dup))}"
        )
    FAMILIES[family.name] = family
    _FAMILY_ENTRIES[family.name] = entries
    for target_name, extensions in family.targets.items():
        TARGET_CONFIGS[target_name] = TargetConfig(
            extensions=frozenset(extensions), family=family.name
        )
    _clear_registry_caches()


def unregister_family(name: str) -> None:
    """Remove a registered family (test/extension hygiene)."""
    family = FAMILIES.pop(name, None)
    if family is None:
        raise KeyError(f"no registered ISA family {name!r}")
    del _FAMILY_ENTRIES[name]
    for target_name in family.targets:
        TARGET_CONFIGS.pop(target_name, None)
    _clear_registry_caches()


def _clear_registry_caches() -> None:
    # Lazy and via sys.modules: the registry imports this module, and
    # during the bootstrap registration below it may not exist yet.
    import sys

    registry = sys.modules.get("repro.target.registry")
    # getattr-guarded: the registry module may itself be mid-import (it
    # imports this module before defining clear_caches).
    clear = getattr(registry, "clear_caches", None)
    if clear is not None:
        clear()


def target_family(name: str) -> str:
    """The ISA family name a target belongs to."""
    return TARGET_CONFIGS[name].family


def build_spec_entries() -> List[SpecEntry]:
    """All ISA entries across every registered family, ungated, in
    family registration order.  The registry filters by target."""
    return [entry for entries in _FAMILY_ENTRIES.values()
            for entry in entries]


def baseline_fabs_entries() -> List[SpecEntry]:
    """Float-abs entries only the baseline ("LLVM") vectorizer gets
    (kept here for API compatibility; defined by the x86 family)."""
    from repro.target.specs_x86 import baseline_fabs_entries as _impl

    return _impl()


# --------------------------------------------------------------------------
# Bootstrap: the built-in families.  Imported at the bottom so the family
# modules can import the dataclasses above (the partial-module cycle is
# safe: everything they need is already defined).

from repro.target import specs_neon as _specs_neon  # noqa: E402
from repro.target import specs_x86 as _specs_x86  # noqa: E402

register_family(_specs_x86.FAMILY)
register_family(_specs_neon.FAMILY)
