"""The match table (§4.3).

VeGen "records the matched patterns in a match table, which records the
mapping (live-out(m), operation(m)) -> m, for each match m", so the
vectorization algorithm can enumerate candidate producers of any vector
operand in O(1) per lane (Algorithm 1).

Because commutativity can bind one (live-out, operation) pair several
ways — and the binding decides operand lane order — each table cell holds
the full list of alternative matches.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.ir.function import Function
from repro.ir.instructions import Instruction, Opcode
from repro.ir.values import Value
from repro.obs.counters import NULL_COUNTERS, Counters
from repro.patterns.matcher import Match, match_operation
from repro.vidl.ast import OpExpr, OpNode, Operation

#: Operation key type (hashable structural identity).
OpKey = Tuple


def _root_signature(expr: OpExpr):
    """Coarse index key so only plausible operations are tried per root."""
    if isinstance(expr, OpNode):
        return (expr.opcode, expr.type)
    return None


def _value_signature(value: Value):
    if isinstance(value, Instruction):
        opcode = value.opcode
        if opcode in (Opcode.ICMP,):
            return ("icmp", value.type)
        if opcode in (Opcode.FCMP,):
            return ("fcmp", value.type)
        return (opcode, value.type)
    return None


class OperationIndex:
    """The distinct canonical operations of a target, indexed by root shape."""

    def __init__(self, operations: Iterable[Operation]):
        self.operations: List[Operation] = []
        self._by_key: Dict[OpKey, Operation] = {}
        self._by_signature: Dict[object, List[Operation]] = {}
        for op in operations:
            self.add(op)

    def add(self, operation: Operation) -> Operation:
        key = operation.key()
        existing = self._by_key.get(key)
        if existing is not None:
            return existing
        self._by_key[key] = operation
        self.operations.append(operation)
        sig = _root_signature(operation.expr)
        self._by_signature.setdefault(sig, []).append(operation)
        return operation

    def candidates_for(self, value: Value) -> List[Operation]:
        return self._by_signature.get(_value_signature(value), [])

    def __len__(self) -> int:
        return len(self.operations)


class MatchTable:
    """All matches found in one function, keyed by (live-out, operation)."""

    def __init__(self, function: Function, index: OperationIndex,
                 counters: Optional[Counters] = None):
        self.function = function
        self.index = index
        self.counters = counters if counters is not None else NULL_COUNTERS
        self._table: Dict[Tuple[int, int], List[Match]] = {}
        # value id -> tuple of operation tokens the value has matches
        # for.  Producer enumeration intersects these against a shape
        # plan's per-lane token masks to discard infeasible instructions
        # without probing the table lane by lane.
        self._value_tokens: Dict[int, Tuple[int, ...]] = {}
        # Operations interned to small integer tokens.  lookup() was
        # rebuilding — and the table dict re-hashing — the recursive
        # structural key on every call, the hottest leaf of producer
        # enumeration; now each distinct Operation object pays for one
        # structural key exactly once (id-keyed, the value pins the
        # operation so its id cannot be reused), and structurally equal
        # operations map to the same token via ``_token_by_key``.
        self._op_tokens: Dict[int, Tuple[Operation, int]] = {}
        self._token_by_key: Dict[OpKey, int] = {}
        self._lane_signatures: Dict[int, Tuple[object, Tuple[int, ...]]] \
            = {}
        self._build()
        # Raw cell accessor for the producer-enumeration hot loop: call
        # with ``(value id, operation token)``; returns the match list or
        # None.  Callers that use it count their probes into
        # ``matcher.table_lookups`` in bulk, keeping the counter's
        # meaning identical to per-call lookup().
        self.probe = self._table.get

    def _operation_token(self, operation: Operation) -> int:
        entry = self._op_tokens.get(id(operation))
        if entry is not None:
            return entry[1]
        key = operation.key()
        token = self._token_by_key.setdefault(key,
                                              len(self._token_by_key))
        self._op_tokens[id(operation)] = (operation, token)
        return token

    def lane_signature(self, vinst) -> Tuple[int, ...]:
        """The per-lane operation tokens of a target instruction.

        Producer enumeration uses this as a memo key: two instructions
        with the same signature have identical per-lane match vectors
        for any operand, so their table lookups can be shared.  Cached
        by instruction identity (the value pins the instruction)."""
        entry = self._lane_signatures.get(id(vinst))
        if entry is not None:
            return entry[1]
        sig = tuple(self._operation_token(op) for op in vinst.match_ops)
        self._lane_signatures[id(vinst)] = (vinst, sig)
        return sig

    def _build(self) -> None:
        for inst in self.function.entry:
            if not inst.has_result or inst.opcode in (Opcode.GEP,
                                                      Opcode.LOAD):
                continue
            for operation in self.index.candidates_for(inst):
                matches = match_operation(operation, inst,
                                          counters=self.counters)
                if not matches:
                    continue
                key = (id(inst), self._operation_token(operation))
                self._table[key] = matches
        tokens: Dict[int, List[int]] = {}
        for vid, token in self._table:
            tokens.setdefault(vid, []).append(token)
        self._value_tokens = {vid: tuple(toks)
                              for vid, toks in tokens.items()}

    def lookup(self, value: Value, operation: Operation) -> List[Match]:
        """All matches with the given live-out implementing ``operation``."""
        self.counters.inc("matcher.table_lookups")
        return self._table.get(
            (id(value), self._operation_token(operation)), []
        )

    def tokens_for_value_id(self, vid: int) -> Tuple[int, ...]:
        """Operation tokens a value (by id) has matches for."""
        return self._value_tokens.get(vid, ())

    def all_matches(self) -> Iterator[Match]:
        """Every recorded match, in table iteration order (the bound
        provider's coverable-interior scan)."""
        for matches in self._table.values():
            yield from matches

    @property
    def num_matches(self) -> int:
        return sum(len(v) for v in self._table.values())
