"""Serialized target artifacts: the offline phase as a reusable file.

VeGen's architecture (Figure 3) is two-phase: an *offline* generator
turns instruction semantics into vectorization utilities, and the
compile-time vectorizer consumes them.  This module makes the offline
half's output a first-class, inspectable artifact: ``repro gen``
serializes every generated utility — the lifted VIDL operation of each
instruction, its canonical match patterns, lane bindings, and cost —
into one versioned JSON document, and :func:`target_from_artifact`
reconstructs a :class:`~repro.target.isa.TargetDesc` from it in
milliseconds, skipping pseudocode parsing and symbolic evaluation
entirely.

Staleness is detected by content hash: the artifact records a SHA-256
over the full spec inventory (:func:`spec_content_hash`), and loaders
reject any artifact whose hash does not match the current
``build_spec_entries()`` output.  Generation is deterministic — the
document contains no timestamps and is serialized with sorted keys —
so two ``repro gen`` runs over the same specs are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

from repro.ir.types import Type, parse_type
from repro.target.isa import TargetDesc, TargetInstruction, build_instruction
from repro.target.specs import (
    TARGET_CONFIGS,
    SpecEntry,
    build_spec_entries,
)
from repro.vidl.ast import (
    InstDesc,
    LaneOp,
    LaneRef,
    OpConst,
    OpExpr,
    OpNode,
    OpParam,
    Operation,
    VectorInput,
)

#: Schema identifier; bump on any breaking change to the document shape.
#: v2 adds per-target ISA-family records and per-instruction
#: real-intrinsic metadata (intrinsic name, C header, immediate-operand
#: position).
ARTIFACT_SCHEMA = "repro-target-artifact/v2"

#: Older schemas the loader still parses.  A v1 document is well-formed
#: but (by construction — the schema string is part of the content
#: hash) never fresh, so the registry falls back to the pseudocode
#: build rather than erroring on it.
COMPAT_SCHEMAS = (ARTIFACT_SCHEMA, "repro-target-artifact/v1")


class ArtifactError(ValueError):
    """Raised when an artifact is malformed, stale, or mismatched."""


# -- content hashing ---------------------------------------------------


def spec_content_hash(entries: Optional[List[SpecEntry]] = None) -> str:
    """SHA-256 over the full spec inventory (names, pseudocode text,
    gating, throughputs) plus the target configurations.

    This is the artifact's staleness key: any edit to a spec entry or a
    target's extension set changes the hash and invalidates artifacts
    generated from the old inventory.
    """
    if entries is None:
        entries = build_spec_entries()
    digest = hashlib.sha256()
    digest.update(ARTIFACT_SCHEMA.encode())
    for name in sorted(TARGET_CONFIGS):
        config = TARGET_CONFIGS[name]
        digest.update(name.encode())
        digest.update(",".join(sorted(config.extensions)).encode())
        digest.update(config.family.encode())
    for entry in entries:
        digest.update(entry.name.encode())
        digest.update(entry.text.encode())
        digest.update(",".join(sorted(entry.requires)).encode())
        digest.update(repr(entry.inv_throughput).encode())
        digest.update(repr(entry.intrinsic).encode())
        digest.update(repr(entry.header).encode())
        digest.update(repr(entry.imm_operand).encode())
    return digest.hexdigest()


# -- expression / operation (de)serialization --------------------------


def _type_to_json(ty: Type) -> str:
    return repr(ty)


def _expr_to_json(expr: OpExpr) -> Dict:
    if isinstance(expr, OpParam):
        return {"k": "param", "i": expr.index, "t": _type_to_json(expr.type)}
    if isinstance(expr, OpConst):
        return {"k": "const", "v": expr.value, "t": _type_to_json(expr.type)}
    if isinstance(expr, OpNode):
        node = {
            "k": "node",
            "o": expr.opcode,
            "t": _type_to_json(expr.type),
            "x": [_expr_to_json(child) for child in expr.operands],
        }
        if expr.attr is not None:
            node["a"] = expr.attr
        return node
    raise ArtifactError(f"unserializable expression node: {expr!r}")


def _expr_from_json(data: Dict) -> OpExpr:
    kind = data.get("k")
    if kind == "param":
        return OpParam(data["i"], parse_type(data["t"]))
    if kind == "const":
        return OpConst(data["v"], parse_type(data["t"]))
    if kind == "node":
        return OpNode(
            data["o"],
            [_expr_from_json(child) for child in data.get("x", [])],
            parse_type(data["t"]),
            attr=data.get("a"),
        )
    raise ArtifactError(f"unknown expression node kind: {kind!r}")


def _operation_to_json(op: Operation) -> Dict:
    return {
        "params": [_type_to_json(ty) for ty in op.params],
        "expr": _expr_to_json(op.expr),
    }


def _operation_from_json(data: Dict) -> Operation:
    return Operation(
        params=tuple(parse_type(t) for t in data["params"]),
        expr=_expr_from_json(data["expr"]),
    )


# -- instruction (de)serialization -------------------------------------


def _instruction_to_json(inst: TargetInstruction) -> Dict:
    """Serialize one built instruction.

    Operations are deduplicated into a per-instruction pool (``ops``):
    lane ops and match ops reference pool indices, which keeps wide
    instructions (16+ isomorphic lanes) compact.
    """
    pool: List[Dict] = []
    index_of: Dict[Tuple, int] = {}

    def intern(op: Operation) -> int:
        key = op.key()
        idx = index_of.get(key)
        if idx is None:
            idx = len(pool)
            index_of[key] = idx
            pool.append(_operation_to_json(op))
        return idx

    desc = inst.desc
    lane_ops = [
        {
            "op": intern(lane_op.operation),
            "b": [[ref.input_index, ref.lane_index]
                  for ref in lane_op.bindings],
        }
        for lane_op in desc.lane_ops
    ]
    data = {
        "cost": inst.cost,
        "requires": sorted(inst.requires),
        "spec_text": inst.spec_text,
        "inputs": [{"lanes": vin.lanes, "t": _type_to_json(vin.elem_type)}
                   for vin in desc.inputs],
        "out_t": _type_to_json(desc.out_elem_type),
        "ops": pool,
        "lane_ops": lane_ops,
        "match_ops": [intern(op) for op in inst.match_ops],
    }
    # v2 emission metadata, omitted when absent (model-only entries).
    if inst.intrinsic is not None:
        data["intrinsic"] = inst.intrinsic
    if inst.header is not None:
        data["header"] = inst.header
    if inst.imm_operand is not None:
        data["imm_operand"] = inst.imm_operand
    return data


def _instruction_from_json(name: str, data: Dict) -> TargetInstruction:
    pool = [_operation_from_json(op) for op in data["ops"]]
    lane_ops = [
        LaneOp(
            operation=pool[entry["op"]],
            bindings=tuple(LaneRef(i, l) for i, l in entry["b"]),
        )
        for entry in data["lane_ops"]
    ]
    desc = InstDesc(
        name=name,
        inputs=[VectorInput(vin["lanes"], parse_type(vin["t"]))
                for vin in data["inputs"]],
        lane_ops=lane_ops,
        out_elem_type=parse_type(data["out_t"]),
    )
    return TargetInstruction(
        name=name,
        desc=desc,
        match_ops=tuple(pool[idx] for idx in data["match_ops"]),
        cost=data["cost"],
        requires=frozenset(data["requires"]),
        spec_text=data["spec_text"],
        intrinsic=data.get("intrinsic"),
        header=data.get("header"),
        imm_operand=data.get("imm_operand"),
    )


# -- whole-artifact generation / loading -------------------------------


def generate_artifact(canonicalize_patterns: bool = True) -> Dict:
    """Run the offline phase for the whole spec inventory and serialize
    the result.

    Instructions are built once and shared across targets (the same
    dedup the registry performs in-process).  Entries that fail to lift
    are recorded under ``unliftable`` so the loader reproduces the
    registry's skipping behaviour without re-parsing anything.
    """
    from repro import __version__

    entries = build_spec_entries()
    instructions: Dict[str, Dict] = {}
    unliftable: List[str] = []
    order: List[str] = []
    for entry in entries:
        order.append(entry.name)
        built = build_instruction(
            entry.name, entry.text, entry.requires, entry.inv_throughput,
            canonicalize_patterns=canonicalize_patterns,
            intrinsic=entry.intrinsic,
            header=entry.header,
            imm_operand=entry.imm_operand,
        )
        if built is None:
            unliftable.append(entry.name)
        else:
            instructions[entry.name] = _instruction_to_json(built)
    targets = {
        name: {
            "family": config.family,
            "extensions": sorted(config.extensions),
            "entries": [entry.name for entry in entries
                        if entry.requires <= config.extensions],
        }
        for name, config in TARGET_CONFIGS.items()
    }
    return {
        "schema": ARTIFACT_SCHEMA,
        "version": __version__,
        "spec_hash": spec_content_hash(entries),
        "canonicalize_patterns": canonicalize_patterns,
        "entry_order": order,
        "unliftable": sorted(unliftable),
        "targets": targets,
        "instructions": instructions,
    }


def dumps_artifact(doc: Dict) -> str:
    """Deterministic textual form (sorted keys, no timestamps)."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write_artifact(doc: Dict, path: str) -> None:
    validate_artifact(doc)
    with open(path, "w") as handle:
        handle.write(dumps_artifact(doc))


def validate_artifact(doc: Dict, check_fresh: bool = False) -> None:
    """Raise :class:`ArtifactError` unless ``doc`` is a well-formed
    artifact (and, with ``check_fresh``, matches the current specs)."""
    if not isinstance(doc, dict):
        raise ArtifactError("artifact must be a JSON object")
    if doc.get("schema") not in COMPAT_SCHEMAS:
        raise ArtifactError(
            f"unknown artifact schema {doc.get('schema')!r}; "
            f"expected one of {COMPAT_SCHEMAS!r}"
        )
    for field in ("spec_hash", "canonicalize_patterns", "entry_order",
                  "unliftable", "targets", "instructions"):
        if field not in doc:
            raise ArtifactError(f"artifact missing field {field!r}")
    known = set(doc["instructions"]) | set(doc["unliftable"])
    missing = [n for n in doc["entry_order"] if n not in known]
    if missing:
        raise ArtifactError(
            f"artifact entries neither built nor unliftable: {missing}"
        )
    if check_fresh:
        current = spec_content_hash()
        if doc["spec_hash"] != current:
            raise ArtifactError(
                "artifact is stale: spec inventory changed since "
                f"generation (artifact hash {doc['spec_hash'][:12]}..., "
                f"current {current[:12]}...)"
            )


def load_artifact(path: str, check_fresh: bool = True) -> Dict:
    """Load and validate an artifact document from ``path``."""
    with open(path) as handle:
        doc = json.load(handle)
    validate_artifact(doc, check_fresh=check_fresh)
    return doc


def target_from_artifact(doc: Dict, name: str) -> TargetDesc:
    """Reconstruct one target from a validated artifact document.

    Instruction order follows ``entry_order`` (the spec build order), so
    the reconstructed target is pattern-for-pattern identical to a
    pseudocode build: same instruction list, same operation-index order,
    same matching behaviour.
    """
    try:
        record = doc["targets"][name]
    except KeyError:
        raise KeyError(
            f"unknown target {name!r}; artifact has: "
            f"{', '.join(sorted(doc['targets']))}"
        ) from None
    config = TARGET_CONFIGS[name]
    if isinstance(record, dict):
        gated = set(record["entries"])
        family = record.get("family", config.family)
        extensions = frozenset(record.get("extensions",
                                          config.extensions))
    else:
        # v1 documents: a bare entry-name list, no family/extensions.
        gated = set(record)
        family = config.family
        extensions = config.extensions
    unliftable = set(doc["unliftable"])
    instructions = [
        _instruction_from_json(iname, doc["instructions"][iname])
        for iname in doc["entry_order"]
        if iname in gated and iname not in unliftable
    ]
    return TargetDesc(name, extensions, instructions, family=family)
