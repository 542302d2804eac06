"""Producer-pack enumeration — Algorithm 1.

Given a vector operand ``x`` (a tuple of IR values / don't-cares), find
every pack that *produces* ``x``: same lane count, and each lane either
equals the pack's lane value or is don't-care.  Compute packs are found by
consulting the match table per lane per candidate instruction; load packs
are found separately by checking contiguity (§4.4).

Deviations from the paper's pseudocode, both forced by commutativity: a
match-table cell can hold several alternative matches (the binding decides
operand lane order), so per-lane candidates are combined with a bounded
cartesian product; and combinations that bind one physical input lane to
two different values are rejected (the consistency check the paper leaves
implicit).

The enumeration result is a :class:`ProducerList`, one per operand and
context: a *pricing table* of ``(op cost, sub-operands)`` entries that the
Figure 7 recurrence reads directly, plus lazily built :class:`Pack`
objects for the callers that apply packs.  Most enumerated producers are
only ever priced, so most are never built.
"""

from __future__ import annotations

from itertools import product
from typing import List, Optional, Tuple

from repro.ir.instructions import LoadInst
from repro.ir.values import Constant
from repro.vectorizer.context import VectorizationContext
from repro.vectorizer.pack import (
    ComputePack,
    InvalidPack,
    LoadPack,
    OperandVector,
    Pack,
    compute_pack_key,
    compute_pack_lanes,
)
from repro.vidl.ast import DONT_CARE


class ProducerList:
    """The Algorithm-1 producers of one operand, in enumeration order.

    ``priced[i]`` is ``(op_cost, sub_operands)`` for producer ``i``:
    exactly ``(pack_op_cost(p), tuple(p.operands()))`` of the pack ``p``
    that :meth:`pack` builds for it, with each sub-operand interned by
    content context-wide (``VectorizationContext._interned_operands``),
    so equal sub-operands of different producers are one tuple object
    and share every id-keyed memo downstream.  Pack objects are built on
    demand, at most once per entry.

    Holds no reference to the context: the context owns the table."""

    __slots__ = ("priced", "_specs", "_packs")

    def __init__(self, priced: Tuple, specs: List):
        self.priced = priced
        # Per entry: a LoadPack (built during enumeration), or the
        # (vinst, matches) pair a ComputePack is built from.
        self._specs = specs
        self._packs: List[Optional[Pack]] = [None] * len(priced)

    def pack(self, index: int, ctx: VectorizationContext) -> Pack:
        """The pack of entry ``index``, built on first use."""
        pack = self._packs[index]
        if pack is None:
            spec = self._specs[index]
            if isinstance(spec, Pack):
                pack = spec
            else:
                # Validated during enumeration, so this cannot raise.
                pack = ComputePack(*spec)
                ctx.counters.inc("producers.packs_materialized")
            self._packs[index] = pack
        return pack

    def packs(self, ctx: VectorizationContext) -> List[Pack]:
        """Every entry's pack, in enumeration order; the same list
        object on every call."""
        if None in self._packs:
            for index in range(len(self._packs)):
                self.pack(index, ctx)
        return self._packs  # type: ignore[return-value]


def producer_table(operand: OperandVector,
                   ctx: VectorizationContext) -> ProducerList:
    """The operand's producer table (memoized per operand)."""
    key = ctx.operand_key_of(operand)
    cached = ctx._producer_cache.get(key)
    if cached is not None:
        ctx.counters.inc("producers.cache_hits")
        return cached
    ctx.counters.inc("producers.cache_misses")
    table = _enumerate(operand, ctx)
    if table.priced:
        ctx.counters.inc("producers.packs_enumerated", len(table.priced))
    ctx._producer_cache[key] = table
    return table


def producers_for_operand(operand: OperandVector,
                          ctx: VectorizationContext) -> List[Pack]:
    """All packs that produce the operand (memoized per operand)."""
    return producer_table(operand, ctx).packs(ctx)


def _enumerate(operand: OperandVector,
               ctx: VectorizationContext) -> ProducerList:
    # One pass collects the real values, flags constants, and resolves
    # the element type (mixed-type operands have no producers).
    has_const = False
    elem_type = None
    values = []
    for v in operand:
        if v is DONT_CARE:
            continue
        ty = v.type
        if elem_type is None:
            elem_type = ty
        elif elem_type != ty:
            return ProducerList((), [])
        if v.__class__ is Constant:
            has_const = True
            continue
        values.append(v)
    if not values:
        return ProducerList((), [])
    # Algorithm 1, line 1: reject operands with internally dependent values.
    if not ctx.dep_graph.independent(values):
        return ProducerList((), [])
    priced: List[Tuple] = []
    specs: List = []
    seen = set()

    load_pack = _try_load_pack(operand, ctx)
    if load_pack is not None:
        priced.append((ctx.cost_model.c_vector_load, ()))
        specs.append(load_pack)

    # Packs cannot produce constant lanes, so one constant lane rules
    # out every compute producer outright.
    if has_const:
        return ProducerList(tuple(priced), specs)

    # Feasibility prefilter over the whole shape plan at once: a plan
    # entry is viable only if every real lane's element has a match for
    # the token that entry demands at that lane.  The shape index's
    # per-(lane, token) bitmasks turn this into one AND per lane of a
    # union over the element's few tokens — on the dsp kernels ~90% of
    # plan entries die here without a single match-table probe, and
    # elements with no matches at all (loads, geps, unsupported ops)
    # zero the mask on their first lane.
    plan, lane_masks = ctx.shape_index(len(operand), elem_type)
    if not plan:
        return ProducerList(tuple(priced), specs)
    tokens_of = ctx.match_table.tokens_for_value_id
    mask_get = lane_masks.get
    feasible = (1 << len(plan)) - 1
    for lane, element in enumerate(operand):
        if element is DONT_CARE:
            continue
        lane_bits = 0
        for token in tokens_of(id(element)):
            lane_bits |= mask_get((lane, token), 0)
        feasible &= lane_bits
        if not feasible:
            return ProducerList(tuple(priced), specs)

    limit = ctx.config.max_producers_per_operand
    probe = ctx.match_table.probe
    dont_care_lane = [None]
    # Many target instructions share their per-lane operations (every
    # 4-lane add-ish vinst asks lane i for the same `add` operation).
    # The per-lane match vectors depend only on (operand, lane ops), so
    # they are memoized per lane-token signature within this enumeration
    # — feasible entries still iterate in their original plan order (the
    # mask walks LSB-first), so the producers found (and their order)
    # are unchanged.  Probes on surviving entries always hit: the
    # feasibility mask is exactly "this (value, token) cell exists".
    sig_memo: dict = {}
    probes = 0
    intern = ctx._interned_operands.setdefault
    remaining = feasible
    while remaining:
        position = (remaining & -remaining).bit_length() - 1
        remaining &= remaining - 1
        if len(priced) >= limit:
            break
        vinst, sig = plan[position]
        cell = sig_memo.get(sig)
        if cell is None:
            per_lane = []
            for lane, element in enumerate(operand):
                if element is DONT_CARE:
                    per_lane.append(dont_care_lane)
                    continue
                probes += 1
                per_lane.append(probe((id(element), sig[lane])))
            # Duplicate packs can only arise when some lane offers
            # several alternative matches (one cartesian product yields
            # two combos building the same pack); single-combo cells
            # skip the dedup key entirely.  The third flag says whether
            # any candidate match binds a constant (see the dedup below).
            multi = any(len(pl) != 1 for pl in per_lane)
            cell = (per_lane, multi, multi and any(
                value.__class__ is Constant
                for pl in per_lane for m in pl if m is not None
                for value in m.live_ins))
            sig_memo[sig] = cell
        per_lane, multi, binds_const = cell
        combos = 0
        for combo in product(*per_lane):
            combos += 1
            if combos > ctx.config.max_match_combinations:
                break
            try:
                lane_values, operands = compute_pack_lanes(vinst, combo)
            except InvalidPack:
                continue
            # No packs_independent() check: the pack's lane values are a
            # subset of the operand's real elements (probe() only returns
            # matches whose live-out IS the lane element), and subsets of
            # an independent set are independent — the entry check above
            # already proved it.
            subs = tuple([intern(op, op) for op in operands])
            if multi:
                # Pack keys compare constant lanes by value and every
                # other lane by identity.  Every candidate here has the
                # operand's own lane values, so without constant lanes
                # two candidates have equal keys exactly when their
                # operand tuples are equal: dedup on those, and build
                # the full key only when a constant is bound.
                if binds_const and any(element.__class__ is Constant
                                       for op in subs for element in op):
                    key = compute_pack_key(vinst, lane_values, operands)
                else:
                    key = (vinst.name, subs)
                if key in seen:
                    continue
                seen.add(key)
            priced.append((vinst.cost, subs))
            specs.append((vinst, combo))
            if len(priced) >= limit:
                break
    if probes:
        ctx.counters.inc("matcher.table_lookups", probes)
    return ProducerList(tuple(priced), specs)


def _try_load_pack(operand: OperandVector,
                   ctx: VectorizationContext) -> Optional[LoadPack]:
    # Contiguity is pre-checked against the dependence graph's cached
    # access locations so the (overwhelmingly common) non-contiguous
    # operands bail out without re-walking GEP chains or paying a
    # LoadPack construction + InvalidPack throw.
    location_of = ctx.dep_graph.access_location
    loads: List[LoadInst] = []
    base0 = None
    first = 0
    for lane, element in enumerate(operand):
        if not isinstance(element, LoadInst):
            return None
        base, offset = location_of(element)
        if base is None:
            return None
        if lane == 0:
            base0, first = base, offset
        elif base is not base0 or offset != first + lane:
            return None
        loads.append(element)
    if len(set(map(id, loads))) != len(loads):
        return None
    try:
        pack = LoadPack(loads)
    except InvalidPack:
        return None
    # No packs_independent() check: the loads are exactly the operand's
    # elements, whose pairwise independence _enumerate checked at entry.
    return pack
