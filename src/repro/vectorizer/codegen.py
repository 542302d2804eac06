"""Code generation: scheduling packs and scalars, and lowering (§4.5).

Given the selected pack set, the code generator

1. determines which scalar instructions survive (instructions covered by a
   match become dead unless some remaining scalar user needs them);
2. schedules packs and scalars together, honouring data dependences and
   memory ordering, with each pack's values grouped (such a schedule exists
   whenever the pack set is legal);
3. lowers packs in topological order, emitting gather nodes for operands
   that no pack produces directly and extract nodes for packed values with
   scalar users.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ir.dag import _may_alias
from repro.ir.function import Function
from repro.ir.instructions import (
    Instruction,
    Opcode,
    RetInst,
    StoreInst,
)
from repro.ir.values import Argument, Constant, Value
from repro.vectorizer.context import VectorizationContext
from repro.vectorizer.pack import (
    ComputePack,
    LoadPack,
    OperandVector,
    Pack,
    StorePack,
)
from repro.vectorizer.vector_ir import (
    ElementSource,
    VExtract,
    VGather,
    VLoad,
    VNode,
    VOp,
    VScalar,
    VStore,
    VectorProgram,
)
from repro.vidl.ast import DONT_CARE


class CodegenError(RuntimeError):
    """Raised when a pack set cannot be scheduled (dependence cycle)."""


def generate(ctx: VectorizationContext,
             packs: Sequence[Pack]) -> VectorProgram:
    return _Codegen(ctx, packs).run()


class _Codegen:
    def __init__(self, ctx: VectorizationContext, packs: Sequence[Pack]):
        self.ctx = ctx
        self.packs = list(packs)
        self.function: Function = ctx.function
        # value id -> (pack, lane)
        self.pack_of: Dict[int, Tuple[Pack, int]] = {}
        for pack in self.packs:
            for lane, value in enumerate(pack.values()):
                if value is not None:
                    if id(value) in self.pack_of:
                        raise CodegenError(
                            f"value {value!r} produced by two packs"
                        )
                    self.pack_of[id(value)] = (pack, lane)
        self.scalar_needed: Set[int] = set()
        self.extract_needed: Set[int] = set()

    # -- step 1: scalar liveness ------------------------------------------------

    def _collect_liveness(self) -> None:
        worklist: List[Value] = []

        def need_value(value: Value) -> None:
            """The value is needed *as a scalar* by something scalar."""
            if isinstance(value, (Constant, Argument)):
                return
            if id(value) in self.pack_of:
                self.extract_needed.add(id(value))
                return
            if id(value) not in self.scalar_needed:
                self.scalar_needed.add(id(value))
                worklist.append(value)

        packed_stores = {
            id(s) for p in self.packs if isinstance(p, StorePack)
            for s in p.stores
        }
        for inst in self.function.entry:
            if isinstance(inst, StoreInst) and id(inst) not in packed_stores:
                self.scalar_needed.add(id(inst))
                worklist.append(inst)
            if isinstance(inst, RetInst) and inst.return_value is not None:
                need_value(inst.return_value)
        # Pack operands that nothing produces need scalar elements.
        for pack in self.packs:
            for operand in pack.operands():
                for element in operand:
                    if element is DONT_CARE:
                        continue
                    if isinstance(element, (Constant, Argument)):
                        continue
                    if id(element) not in self.pack_of:
                        need_value(element)
        while worklist:
            inst = worklist.pop()
            if not isinstance(inst, Instruction):
                continue
            for op in inst.operands:
                need_value(op)

    # -- step 2: scheduling ----------------------------------------------------------

    def _schedule(self) -> List[object]:
        """Topologically order containers (packs + surviving scalars)."""
        dg = self.ctx.dep_graph
        containers: List[object] = list(self.packs)
        for inst in self.function.entry:
            if id(inst) in self.scalar_needed and \
                    id(inst) not in self.pack_of:
                containers.append(inst)

        container_of: Dict[int, object] = {}
        members: Dict[int, List[Instruction]] = {}
        for c in containers:
            if isinstance(c, Pack):
                values = [v for v in c.values() if v is not None]
            else:
                values = [c]
            members[id(c)] = values
            for v in values:
                container_of[id(v)] = c

        # Priority = earliest original index of a member.
        def priority(c) -> int:
            return min(dg.index(v) for v in members[id(c)])

        # Data edges: container needs its members' operand producers.
        edges: Dict[int, Set[int]] = {id(c): set() for c in containers}

        def add_edge(src_value: Value, dst_container) -> None:
            src = container_of.get(id(src_value))
            if src is not None and src is not dst_container:
                edges[id(dst_container)].add(id(src))

        for c in containers:
            if isinstance(c, Pack):
                for operand in c.operands():
                    for element in operand:
                        if element is DONT_CARE or isinstance(
                            element, (Constant, Argument)
                        ):
                            continue
                        add_edge(element, c)
                if isinstance(c, (LoadPack, StorePack)):
                    pass  # memory edges handled below
            else:
                for op in c.operands:
                    if isinstance(op, (Constant, Argument)):
                        continue
                    add_edge(op, c)
        # Memory edges: preserve every conflicting pair's original order.
        mem: List[Tuple[int, Instruction]] = []
        for c in containers:
            for v in members[id(c)]:
                if v.is_memory:
                    mem.append((dg.index(v), v))
        mem.sort(key=lambda pair: pair[0])
        for i, (_, a) in enumerate(mem):
            for _, b in mem[i + 1:]:
                if a.opcode == Opcode.LOAD and b.opcode == Opcode.LOAD:
                    continue
                ca, cb = container_of[id(a)], container_of[id(b)]
                if ca is cb:
                    continue
                if _may_alias(a, b):
                    edges[id(cb)].add(id(ca))

        # Kahn's algorithm, smallest original index first.
        by_id = {id(c): c for c in containers}
        indegree = {id(c): 0 for c in containers}
        dependents: Dict[int, List[int]] = {id(c): [] for c in containers}
        for dst, srcs in edges.items():
            for src in srcs:
                indegree[dst] += 1
                dependents[src].append(dst)
        import heapq

        ready = [
            (priority(by_id[cid]), cid)
            for cid, deg in indegree.items() if deg == 0
        ]
        heapq.heapify(ready)
        order: List[object] = []
        while ready:
            _, cid = heapq.heappop(ready)
            order.append(by_id[cid])
            for dst in dependents[cid]:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    heapq.heappush(ready, (priority(by_id[dst]), dst))
        if len(order) != len(containers):
            raise CodegenError("dependence cycle in selected pack set")
        return order

    # -- step 3: lowering -------------------------------------------------------------------

    def run(self) -> VectorProgram:
        counters = self.ctx.counters
        self._collect_liveness()
        order = self._schedule()
        program = VectorProgram(self.function)
        node_of_pack: Dict[int, VNode] = {}

        for container in order:
            if isinstance(container, LoadPack):
                node = program.append(
                    VLoad(container.base, container.first_offset,
                          len(container.loads), container.elem_type)
                )
                node.origin = container
                node_of_pack[id(container)] = node
            elif isinstance(container, StorePack):
                source = self._vector_operand(
                    program, node_of_pack, container.operands()[0],
                    container.elem_type,
                )
                store_node = program.append(
                    VStore(source, container.base, container.first_offset,
                           len(container.stores), container.elem_type)
                )
                store_node.origin = container
            elif isinstance(container, ComputePack):
                operands = [
                    self._vector_operand(program, node_of_pack, operand,
                                         vin.elem_type)
                    for operand, vin in zip(container.operands(),
                                            container.inst.desc.inputs)
                ]
                node = program.append(VOp(
                    container.inst, operands,
                    live_lanes=[m is not None for m in container.matches],
                ))
                node.origin = container
                node_of_pack[id(container)] = node
            else:
                program.append(VScalar(container))
                counters.inc("codegen.scalars_emitted")
            # Emit extracts for packed values with scalar users as soon as
            # the pack is lowered.
            if isinstance(container, Pack):
                counters.inc("codegen.packs_lowered")
                node = node_of_pack.get(id(container))
                if node is None:
                    continue
                for lane, value in enumerate(container.values()):
                    if value is not None and \
                            id(value) in self.extract_needed:
                        program.append(VExtract(node, lane, value))
                        counters.inc("codegen.extracts_emitted")
                        self.extract_needed.discard(id(value))
        return program

    def _vector_operand(self, program: VectorProgram,
                        node_of_pack: Dict[int, VNode],
                        operand: OperandVector, elem_type) -> VNode:
        """Resolve an operand vector: a pack's output directly if it
        produces the operand, otherwise a gather node."""
        exact = self._exact_producer(operand)
        if exact is not None and id(exact) in node_of_pack:
            return node_of_pack[id(exact)]
        sources: List[ElementSource] = []
        for element in operand:
            if element is DONT_CARE:
                sources.append(ElementSource("undef"))
            elif isinstance(element, Constant):
                sources.append(ElementSource("const", value=element))
            elif id(element) in self.pack_of:
                pack, lane = self.pack_of[id(element)]
                node = node_of_pack.get(id(pack))
                if node is None:
                    raise CodegenError(
                        "operand produced by a pack that is not yet "
                        "lowered (schedule bug)"
                    )
                sources.append(ElementSource("lane", node=node, lane=lane))
            else:
                sources.append(ElementSource("scalar", value=element))
        gather = VGather(elem_type, sources)
        self.ctx.counters.inc("codegen.gathers_emitted")
        return program.append(gather)

    def _exact_producer(self, operand: OperandVector) -> Optional[Pack]:
        candidate: Optional[Pack] = None
        for lane, element in enumerate(operand):
            if element is DONT_CARE:
                continue
            entry = self.pack_of.get(id(element))
            if entry is None:
                return None
            pack, pack_lane = entry
            if pack_lane != lane or len(pack.values()) != len(operand):
                return None
            if candidate is None:
                candidate = pack
            elif candidate is not pack:
                return None
        return candidate
