"""Pack selection by beam search over the Figure 9 recurrence (§5.2).

A search state is the tuple ``(V, S, F)``:

* ``V`` — vector operands still to produce, as a bitmask over dense
  operand ids (bit ``i`` is the ``i``-th operand registered),
* ``S`` — scalar values still to produce (stores are included but never
  pay extraction costs),
* ``F`` — free instructions not yet decided.

Edges either add a pack (a producer of some ``v in V``, a store-seed
pack, or an affinity-seed pack) or fix an instruction as scalar; both are
legal only once every user of the affected values has been decided, which
is what keeps the final pack set acyclic.  Transition costs are the
non-recursive terms of Figure 9; states are ranked by ``g + h`` where the
heuristic ``h`` sums the Figure 7 SLP costs of ``V`` and the scalar slice
costs of ``S``.

Beam width 1 *is* the SLP heuristic; larger widths let the search keep
costly-but-ultimately-profitable packs alive (the idct4 shuffles of
Figure 12).

The search is engineered as a bounded branch-and-bound engine:

* **Per-pack transition precomputation** — everything ``_apply_pack``
  reads that does not depend on the state (produced-value bitsets, user
  bitsets, op costs, operand classification, interior covered indices)
  is computed once per pack and reused across every state of every
  iteration.  Pure caching: bit-identical by construction.
* **Seed liveness indexing** — seed packs are indexed by their produced
  bitsets, so a decided instruction kills exactly the seeds it
  invalidates; the live-seed mask is memoized per decided set and
  ``transitions`` visits only its set bits (``beam.seed_skips``).
  Rejected pack applications are additionally memoized on the masked
  free-set key (``beam.apply_reject_hits``); feasibility depends only on
  ``free & (vbits | users)``, so the memo is exact.
* **Incumbent pruning + lazy child scoring** — transition costs are
  non-negative, so a child whose ``g`` already meets the incumbent
  solved cost is dominated along with all its descendants and is dropped
  before completion, heuristic, and rollout
  (``beam.incumbent_prunes``); children are ranked by ``g + h`` first
  and only beam survivors (plus children whose ``f`` beats the
  incumbent) are completed, so completion work scales with the beam
  width instead of the branching factor.
* **Exact pass** — with ``VectorizerConfig(exact=True)`` the beam's
  incumbent seeds :func:`exhaustive_search`, a depth-first branch and
  bound that cuts each child in the order g, solved, identity memo,
  bound (``g + lb`` meets the incumbent), dominance memo; that is where
  the optimality proofs come from.  Scalar-fix children are built
  lazily: the pass computes a fix's ``(V, S, F, g)`` when it pops it and
  builds the state only if it survives the g-cut and the memo, which
  drop most of them.  The admissible lower bound ``lb`` (a fractional
  pack-cover relaxation, :mod:`repro.vectorizer.bounds`, DESIGN.md §16)
  has no other consumer, so it is built when the exact pass starts and
  a beam-only search never builds it.

The per-cell ``program_sha256`` digests committed in ``BENCH_vegen.json``
pin what the search selects (``tests/test_bench_digests.py``).
"""

from __future__ import annotations

import gc
from typing import Callable, Dict, List, Optional, Tuple

from repro.ir.instructions import Instruction, StoreInst, RetInst
from repro.ir.values import Argument, Constant
from repro.obs.counters import NULL_COUNTERS
from repro.vectorizer.bounds import MatchingLowerBound
from repro.vectorizer.context import VectorizationContext
from repro.vectorizer.pack import (
    OperandVector,
    Pack,
)
from repro.vectorizer.producers import producer_table, producers_for_operand
from repro.vectorizer.seeds import affinity_seed_tuples, store_seed_packs
from repro.vectorizer.slp import INFINITY, SLPCostEstimator
from repro.vidl.ast import DONT_CARE

#: Operand classification in the per-pack apply table: an operand with no
#: in-block elements (constants/arguments, materialized directly), a
#: broadcast operand (one scalar, splatted), or a regular operand that is
#: registered into V.
_OP_IMMEDIATE = 0
_OP_BROADCAST = 1
_OP_REGISTER = 2

#: Producers the state-aware Figure 7 estimate prices per residual
#: operand: the first this many of its Algorithm-1 producer table, in
#: enumeration order.
_ESTIMATE_PRODUCER_CAP = 12

try:
    _bit_count = int.bit_count  # Python >= 3.10: one C call
except AttributeError:  # pragma: no cover - exercised on 3.9 CI only
    def _bit_count(value: int) -> int:
        return bin(value).count("1")


def _mask_obits_fn(obits_by_id: List[int],
                   memo: Dict[int, int]) -> Callable[[int], int]:
    """``operand-id mask -> union of the produced bits of its operands``,
    over the search's dense-id table and a per-mask memo.

    The search hands this table-only function to its bound provider
    instead of a bound method: the provider then holds no reference to
    the search, and a finished search dies by refcounting."""
    def mask_obits(mask: int) -> int:
        bits = memo.get(mask)
        if bits is None:
            bits = 0
            remaining = mask
            while remaining:
                bits |= obits_by_id[(remaining & -remaining)
                                    .bit_length() - 1]
                remaining &= remaining - 1
            memo[mask] = bits
        return bits
    return mask_obits


class SearchState:
    """One search state: ``V`` as a mask over dense operand ids, ``S``
    and ``F`` as instruction bitsets, the packs chosen so far and the
    cost ``g`` paid for them.

    A plain slotted class: states are built by the hundred thousand and
    never compared or hashed (every memo key is an ``identity()``
    triple), and nothing mutates one after construction."""

    __slots__ = ("operand_mask", "scalar_bits", "free_bits", "packs", "g")

    def __init__(self, operand_mask: int, scalar_bits: int,
                 free_bits: int, packs: Tuple[Pack, ...], g: float):
        self.operand_mask = operand_mask
        self.scalar_bits = scalar_bits
        self.free_bits = free_bits
        self.packs = packs
        self.g = g

    def identity(self) -> Tuple:
        return (self.operand_mask, self.scalar_bits, self.free_bits)

    @property
    def solved(self) -> bool:
        return not self.operand_mask and self.scalar_bits == 0


class BeamSearch:
    """The beam engine over bitset states.

    A state's live-operand set ``V`` is a big-int bitmask over *dense
    operand ids* — bit ``i`` is the operand registered ``i``-th — so a
    state is three ints plus its pack tuple, ``identity()`` is an int
    triple, and every transition is mask AND/OR/ANDNOT arithmetic over
    tables built at registration time:

    * ``_ops_by_id`` / ``_obits_by_id`` — id -> operand / produced-bits
      (flat lists; one index replaces a tuple-keyed dict probe),
    * ``_member_masks`` — instruction index -> mask of operand ids whose
      lanes contain it (scalar fixes retest only those),
    * ``_inst_occ`` — instruction index -> [(operand-id bit, occurrence
      count)] (the Figure 9 costinsert term as mask tests).

    Dense ids are registration order, so LSB-first mask iteration visits
    a state's operands in the order they were first registered, never in
    an order that depends on hash values.
    """

    def __init__(self, ctx: VectorizationContext):
        self.ctx = ctx
        self.model = ctx.cost_model
        self.estimator = SLPCostEstimator(ctx)
        dg = ctx.dep_graph
        self._index = dg.index
        self._index_of = dg._index.get  # id(value) -> index or None
        self._instructions = dg.instructions
        #: Instruction index -> its bit plus its backward closure: the
        #: scalar slice each in-block operand lane contributes.
        self._inst_slices = [closure | (1 << i)
                             for i, closure in enumerate(dg._closure)]
        self._users_bits, self._inst_opnd_bits = \
            self._compute_def_use_bits()
        self._operand_bits_cache: Dict[Tuple, int] = {}
        # The dense-id operand registry (see the class docstring):
        # operand key -> dense id, plus the per-id tables.
        self._operand_ids: Dict[Tuple, int] = {}
        self._ops_by_id: List[OperandVector] = []
        self._obits_by_id: List[int] = []
        self._member_masks: List[int] = [0] * len(self._instructions)
        self._inst_occ: List[List[Tuple[int, int]]] = [
            [] for _ in self._instructions]
        # Instruction index -> scalar cost: with _inst_opnd_bits, the
        # state-independent half of a scalar fix.
        self._scalar_costs = [self.model.scalar_cost(inst)
                              for inst in self._instructions]
        # operand mask -> [operands].  A pure per-mask cache; masks
        # repeat heavily across heuristic/completion/expand calls.
        self._live_ops_memo: Dict[int, List[OperandVector]] = {}
        #: Union of the produced-bits of every operand id in a mask.
        self._mask_obits = _mask_obits_fn(self._obits_by_id, {})
        # Search-layer memos.  Every memo is exact — keys capture every
        # input the computation reads — and keys route through the
        # context's id-keyed operand_key cache: operand tuples are
        # stable objects, so the steady-state lookup never rebuilds a
        # key tuple.
        #
        # id(operand) -> (operand, operand_bits, {free & operand_bits:
        # residual}).  Masking free to the operand's own bits collapses
        # the many frees that agree on the operand's lanes onto one
        # entry; holding the operand in the value pins its id.
        self._residual_memo: Dict[int, Tuple] = {}
        # residual operand key -> (canonical residual, real-lane count,
        # raw slice bitset, estimate memo, completion-term memo): the
        # per-residual quantities the operand estimate needs, interned by
        # content so equal residuals reached through different parent
        # objects share one entry.  The two trailing dicts hang the
        # estimate/term memos directly off the interned triple:
        #   estimate memo: (free & closure, counted & closure, depth) ->
        #     (cost, bits); the estimate only ever reads free/counted
        #     inside the residual's backward closure (see
        #     _estimate_residual), so masking the key to it collapses the
        #     per-state variation that made a full-key memo useless, and
        #     interning makes the per-triple dict exactly equivalent to a
        #     global id(residual)-keyed one — minus the id in every key
        #     tuple and the one shared giant table.
        #   completion-term memo: (free & closure, counted & closure) ->
        #     (term cost, slice bits); same exactness argument.
        self._residual_info: Dict[Tuple, Tuple] = {}
        self._completion_memo: Dict[Tuple, float] = {}
        #: Transposition table: best g seen per SearchState.identity().
        #: Re-derived states (same V/S/F at equal-or-worse g) are dropped
        #: before completion/rollout — their transitions and completions
        #: are pointwise dominated, so they can never improve the search.
        self._tt: Dict[Tuple, float] = {}
        # Per-pack transition tables, keyed by pack object identity (the
        # pack is pinned inside the value, so its id can never be
        # reused).  These cache quantities that do not depend on the
        # search state, so the search path is unchanged.
        #   feasibility: (pack, vbits, users_bits, mask, reject_memo)
        self._pack_feas: Dict[int, Tuple] = {}
        #   application: (pack, op_cost, operand_entries,
        #                 interior_indices, produces_memo); built on a
        #   pack's first successful application, which is what fixes
        #   the operand registration order.
        self._pack_apply: Dict[int, Tuple] = {}
        # Candidate packs built by expand() outside the producer cache
        # (vector-load covers, sub-tuple splits): cached per operand key
        # so the pack objects are stable and the per-pack tables hit.
        self._load_packs_cache: Dict[Tuple, List[Pack]] = {}
        self._subtuple_cache: Dict[Tuple, List[Pack]] = {}
        # scalar_bits -> union of the scalar set with its backward
        # closures; children mostly share S, so this repeats heavily
        # across heuristic and completion calls.
        self._scalar_slice_memo: Dict[int, int] = {}
        #: The admissible lower-bound provider, built by lower_bound().
        self._lb: Optional[MatchingLowerBound] = None
        with ctx.tracer.span("seed_enumeration"):
            self._seed_packs = self._enumerate_seed_packs()
        (self._seed_kill_masks, self._seed_dead_mask,
         self._seed_vbits_union) = self._index_seeds()
        # free & seed-vbits union -> (alive, killed) seed-position masks.
        self._seed_live_memo: Dict[int, Tuple[int, int]] = {}

    def lower_bound(self) -> MatchingLowerBound:
        """The admissible lower-bound provider, built on first use.

        Only the exact pass prunes with it, so a beam-only search never
        builds it.  It is built over the operand tables, not the
        search, so it never points back at its owner."""
        if self._lb is None:
            mask_obits = self._mask_obits
            self._lb = MatchingLowerBound(
                self.ctx, lambda state: mask_obits(state.operand_mask))
        return self._lb

    # -- setup -------------------------------------------------------------

    def _compute_def_use_bits(self) -> Tuple[List[int], List[int]]:
        """Per instruction index: the bits of its in-block users (the
        return is no user) and of its in-block operands."""
        users = [0] * len(self._instructions)
        operands = [0] * len(self._instructions)
        dg = self.ctx.dep_graph
        for inst in self._instructions:
            i = dg.index(inst)
            for op in inst.operands:
                if dg.contains(op):
                    j = dg.index(op)
                    operands[i] |= 1 << j
                    if not isinstance(inst, RetInst):
                        users[j] |= 1 << i
        return users, operands

    def _enumerate_seed_packs(self) -> List[Pack]:
        counters = self.ctx.counters
        seeds: List[Pack] = list(store_seed_packs(self.ctx))
        counters.inc("seeds.store_packs", len(seeds))
        seen = {p.key() for p in seeds}
        for seed_tuple in affinity_seed_tuples(self.ctx):
            for pack in producers_for_operand(tuple(seed_tuple), self.ctx):
                key = pack.key()
                if key not in seen:
                    seen.add(key)
                    seeds.append(pack)
                    counters.inc("seeds.affinity_packs")
        return seeds

    def _index_seeds(self) -> Tuple[List[int], int, int]:
        """Seed liveness index: per instruction, a bitmask over seed-list
        positions whose produced values (vbits) include it.

        A seed applies only while *all* its produced instructions are
        still free, so the seeds killed by a state are exactly the union
        of the kill masks of its decided instructions
        (:meth:`_live_seeds`) — instead of one ``_apply_pack`` attempt
        per seed per state."""
        kill = [0] * len(self._instructions)
        dead = 0
        union = 0
        for pos, pack in enumerate(self._seed_packs):
            vbits = self._pack_feasibility(pack)[1]
            if vbits == 0:
                dead |= 1 << pos  # can never apply
                continue
            union |= vbits
            remaining = vbits
            while remaining:
                index = (remaining & -remaining).bit_length() - 1
                remaining &= remaining - 1
                kill[index] |= 1 << pos
        return kill, dead, union

    # -- bitset helpers ------------------------------------------------------------

    def _bits_of_values(self, values) -> int:
        index_of = self.ctx.dep_graph._index.get
        bits = 0
        for value in values:
            if value is None or value is DONT_CARE:
                continue
            i = index_of(id(value))
            if i is not None:
                bits |= 1 << i
        return bits

    def _operand_bits(self, operand: OperandVector) -> int:
        key = self.ctx.operand_key_of(operand)
        bits = self._operand_bits_cache.get(key)
        if bits is None:
            bits = self._bits_of_values(operand)
            self._operand_bits_cache[key] = bits
        return bits

    # -- dense-id registry -------------------------------------------------

    def _register_operand(self, operand: OperandVector) -> int:
        """The operand's dense id, assigned with its table rows on first
        registration."""
        key = self.ctx.operand_key_of(operand)
        opid = self._operand_ids.get(key)
        if opid is None:
            opid = len(self._ops_by_id)
            self._operand_ids[key] = opid
            obits = self._operand_bits(operand)
            self._ops_by_id.append(operand)
            self._obits_by_id.append(obits)
            opbit = 1 << opid
            member = self._member_masks
            remaining = obits
            while remaining:
                index = (remaining & -remaining).bit_length() - 1
                remaining &= remaining - 1
                member[index] |= opbit
            # Lanes outside the block (constants, arguments) are never
            # scalar-fixed, so only in-block lanes get occurrence rows.
            counts: Dict[int, int] = {}
            index_of = self._index_of
            for element in operand:
                if element is not DONT_CARE:
                    index = index_of(id(element))
                    if index is not None:
                        counts[index] = counts.get(index, 0) + 1
            occ = self._inst_occ
            for index, count in counts.items():
                occ[index].append((opbit, count))
        return opid

    def _live_operands(self, state: SearchState) -> List[OperandVector]:
        """A state's live operand vectors in registration order (LSB
        first): the iteration shared by expand, heuristic, scalar
        completion, and rollout."""
        mask = state.operand_mask
        ops = self._live_ops_memo.get(mask)
        if ops is None:
            ops = []
            ops_by_id = self._ops_by_id
            remaining = mask
            while remaining:
                bit = remaining & -remaining
                remaining ^= bit
                ops.append(ops_by_id[bit.bit_length() - 1])
            self._live_ops_memo[mask] = ops
        return ops

    # -- per-pack transition tables ----------------------------------------------------

    def _pack_feasibility(self, pack: Pack) -> Tuple:
        """(pack, vbits, users_bits, mask, reject_memo) for a pack.

        ``vbits`` and ``users_bits`` do not depend on the state, so they
        are computed once per pack object; the reject memo caches
        infeasible applications per masked free set (feasibility reads
        only ``free & (vbits | users)``, so the masked key is exact)."""
        info = self._pack_feas.get(id(pack))
        if info is None:
            vbits = self._bits_of_values(pack.values())
            users = 0
            for value in pack.values():
                if value is not None:
                    users |= self._users_bits[self._index(value)]
            info = (pack, vbits, users, vbits | users, {})
            self._pack_feas[id(pack)] = info
        return info

    def _pack_apply_info(self, pack: Pack) -> Tuple:
        """State-independent transition data, built on a pack's *first
        successful application*: that is when its operands are
        registered, so dense ids follow the order in which the search
        first applies packs."""
        info = self._pack_apply.get(id(pack))
        if info is None:
            op_cost = self.estimator.pack_op_cost(pack)
            entries = []
            for operand in pack.operands():
                obits = self._operand_bits(operand)
                if obits == 0:
                    entries.append((_OP_IMMEDIATE, 0,
                                    self._immediate_operand_cost(operand),
                                    0))
                    continue
                real = [e for e in operand if e is not DONT_CARE
                        and not isinstance(e, (Constant, Argument))]
                if len({id(e) for e in real}) == 1:
                    # Broadcast operand (§6.2 special case): produce the
                    # one scalar and splat it.
                    entries.append((_OP_BROADCAST, obits,
                                    self.model.c_broadcast, 0))
                    continue
                # The trailing element is the operand's dense-id bit.
                entries.append((_OP_REGISTER, obits,
                                self._foreign_element_cost(operand),
                                1 << self._register_operand(operand)))
            info = (pack, op_cost, tuple(entries),
                    self._interior_indices(pack), {})
            self._pack_apply[id(pack)] = info
        return info

    def _interior_indices(self, pack: Pack) -> Tuple[int, ...]:
        """Covered-but-not-produced instruction indices of a compute
        pack, highest first (users always have higher indices)."""
        from repro.vectorizer.pack import ComputePack

        if not isinstance(pack, ComputePack):
            return ()
        produced = {id(v) for v in pack.values() if v is not None}
        dg = self.ctx.dep_graph
        return tuple(sorted(
            {
                dg.index(inst)
                for inst in pack.covered_instructions()
                if id(inst) not in produced and dg.contains(inst)
            },
            reverse=True,
        ))

    # -- initial state -----------------------------------------------------------------

    def initial_state(self) -> SearchState:
        free = 0
        scalars = 0
        dg = self.ctx.dep_graph
        for inst in self._instructions:
            if isinstance(inst, RetInst):
                continue
            free |= 1 << dg.index(inst)
            if isinstance(inst, StoreInst):
                scalars |= 1 << dg.index(inst)
        terminator = self.ctx.function.entry.terminator
        if isinstance(terminator, RetInst) and \
                terminator.return_value is not None and \
                dg.contains(terminator.return_value):
            scalars |= 1 << dg.index(terminator.return_value)
        return SearchState(0, scalars, free, (), 0.0)

    # -- transitions -------------------------------------------------------------------

    def expand(self, state: SearchState) -> List[SearchState]:
        """Every child of ``state``: the pack children of
        :meth:`transitions`, then its scalar fixes applied."""
        children, fixes = self.transitions(state)
        for index in fixes:
            mask, scalars, free, g = self._fix_transition(state, index)
            children.append(SearchState(mask, scalars, free, state.packs, g))
        return children

    def transitions(self, state: SearchState
                    ) -> Tuple[List[SearchState], List[int]]:
        """``state``'s outgoing transitions, in generation order: the
        pack children (built now — a pack's first successful application
        registers its operands, which fixes the dense operand ids) and
        the instruction indices of its scalar fixes, which the caller
        applies when it needs them (:meth:`_fix_transition`).  Together
        they hold at most ``max_transitions_per_state`` children."""
        counters = self.ctx.counters
        counters.inc("beam.states_expanded")
        children: List[SearchState] = []
        seen_packs = set()
        limit = self.ctx.config.max_transitions_per_state

        candidate_packs: List[Pack] = []
        for operand in self._live_operands(state):
            candidate_packs.extend(producers_for_operand(operand, self.ctx))
            candidate_packs.extend(self._load_packs_for(operand))
            candidate_packs.extend(self._subtuple_packs_for(operand))

        for pack in candidate_packs:
            if len(children) >= limit:
                break
            pkey = pack.key()
            if pkey in seen_packs:
                continue
            seen_packs.add(pkey)
            child = self._apply_pack(state, pack)
            if child is not None:
                children.append(child)

        # Seed packs, filtered through the liveness index: only seeds
        # that no decided instruction has killed reach _apply_pack, in
        # enumeration order — the skip is a pure filter, so the children
        # produced (and their order) are unchanged.  beam.seed_skips
        # counts the killed positions before the transition-limit break.
        alive, killed = self._live_seeds(state.free_bits)
        seed_packs = self._seed_packs
        while alive:
            low = alive & -alive
            pos = low.bit_length() - 1
            if len(children) >= limit:
                killed &= low - 1
                break
            alive ^= low
            pack = seed_packs[pos]
            pkey = pack.key()
            if pkey in seen_packs:
                continue
            seen_packs.add(pkey)
            child = self._apply_pack(state, pack)
            if child is not None:
                children.append(child)
        if killed:
            counters.inc("beam.seed_skips", _bit_count(killed))

        fixes = self._scalar_fix_candidates(state)
        room = limit - len(children)
        if len(fixes) > room:
            del fixes[room:]
        counters.inc("beam.children_generated", len(children) + len(fixes))
        return children, fixes

    def _live_seeds(self, free_bits: int) -> Tuple[int, int]:
        """``(alive, killed)`` seed-position masks under a free set.

        A seed is killed once any of its produced instructions is
        decided (or if it can never apply); the masks depend on ``free``
        only through the union of the seeds' produced bits, so they are
        memoized on that masked key."""
        key = free_bits & self._seed_vbits_union
        cached = self._seed_live_memo.get(key)
        if cached is None:
            killed = self._seed_dead_mask
            decided = self._seed_vbits_union & ~key
            kill_masks = self._seed_kill_masks
            while decided:
                index = (decided & -decided).bit_length() - 1
                decided &= decided - 1
                killed |= kill_masks[index]
            alive = ((1 << len(self._seed_packs)) - 1) & ~killed
            cached = (alive, killed)
            self._seed_live_memo[key] = cached
        return cached

    def _load_packs_for(self, operand: OperandVector) -> List[Pack]:
        key = self.ctx.operand_key_of(operand)
        cached = self._load_packs_cache.get(key)
        if cached is None:
            cached = self._load_packs_uncached(operand)
            self._load_packs_cache[key] = cached
        return cached

    def _load_packs_uncached(self, operand: OperandVector) -> List[Pack]:
        """Vector loads covering an operand's load elements even when the
        operand is a permutation, duplication, or interleaving of them —
        the gather then becomes a cheap one- or two-source shuffle (the
        vpunpck pattern of Figure 12)."""
        from repro.ir.instructions import LoadInst
        from repro.vectorizer.pack import InvalidPack, LoadPack

        by_base: Dict[int, Dict[int, object]] = {}
        location_of = self.ctx.dep_graph.access_location
        for element in operand:
            if not isinstance(element, LoadInst):
                continue
            base, offset = location_of(element)
            if base is None:
                continue
            by_base.setdefault(id(base), {})[offset] = element
        packs: List[Pack] = []
        for offsets_map in by_base.values():
            offsets = sorted(offsets_map)
            run: List[object] = []
            prev = None
            for offset in offsets + [None]:
                if prev is not None and offset == prev + 1:
                    run.append(offsets_map[offset])
                else:
                    if len(run) >= 2 and tuple(run) != tuple(operand):
                        try:
                            packs.append(LoadPack(run))
                        except InvalidPack:
                            pass
                    run = [offsets_map[offset]] if offset is not None \
                        else []
                prev = offset
        return packs

    def _subtuple_packs_for(self, operand: OperandVector) -> List[Pack]:
        key = self.ctx.operand_key_of(operand)
        cached = self._subtuple_cache.get(key)
        if cached is None:
            cached = self._subtuple_packs_uncached(operand)
            self._subtuple_cache[key] = cached
        return cached

    def _subtuple_packs_uncached(self,
                                 operand: OperandVector) -> List[Pack]:
        """Producers for homogeneous sub-tuples of a mixed-shape operand.

        An operand like idct4's [e+o, e+o, e-o, e-o, ...] has no single
        producer, but its add positions and sub positions each do; packing
        them separately costs one shuffle on the consumer side (§5's
        costshuffle term) and is how the Figure 12 code comes about.
        """
        groups: Dict[Tuple, List] = {}
        for element in operand:
            if isinstance(element, Instruction) and element.has_result:
                key = (element.opcode, element.type,
                       getattr(element, "pred", None))
                groups.setdefault(key, []).append(element)
        if len(groups) < 2:
            return []  # homogeneous operands are handled by producers()
        lane_counts = set(self.ctx.target.vector_lane_counts)
        packs: List[Pack] = []
        for members in groups.values():
            distinct = list(dict.fromkeys(members))
            if len(distinct) in lane_counts and len(distinct) >= 2:
                packs.extend(
                    producers_for_operand(tuple(distinct), self.ctx)
                )
        return packs

    def _apply_pack(self, state: SearchState,
                    pack: Pack) -> Optional[SearchState]:
        _, vbits, users, fmask, reject = self._pack_feasibility(pack)
        if vbits == 0:
            return None
        free_bits = state.free_bits
        masked = free_bits & fmask
        if masked in reject:
            self.ctx.counters.inc("beam.apply_reject_hits")
            return None
        if (vbits & free_bits) != vbits:
            reject[masked] = True
            return None  # some produced value already decided
        if users & free_bits:
            reject[masked] = True
            return None  # an undecided user remains (Fig. 9 side cond.)

        (_, op_cost, entries, interior,
         produces_memo) = self._pack_apply_info(pack)
        free_after = free_bits & ~vbits
        delta = op_cost
        # costextract(p, S): store packs never pay extraction.
        if not pack.is_store:
            delta += self.model.c_extract * _bit_count(
                vbits & state.scalar_bits
            )
        # costshuffle(p, V): every live operand that overlaps but is not
        # exactly produced by this pack needs a shuffle.  The produced
        # operand needs no special case: if a live operand *is* the
        # produced vector, _produces answers True and the memo result is
        # False.  produces_memo is keyed by dense id.
        c_shuffle = self.model.c_shuffle
        ops_by_id = self._ops_by_id
        obits_by_id = self._obits_by_id
        new_mask = 0
        remaining = state.operand_mask
        while remaining:
            bit = remaining & -remaining
            remaining ^= bit
            opid = bit.bit_length() - 1
            obits = obits_by_id[opid]
            if obits & free_after:
                new_mask |= bit  # still unresolved
            if obits & vbits:
                needs_shuffle = produces_memo.get(opid)
                if needs_shuffle is None:
                    needs_shuffle = not self._produces(pack,
                                                       ops_by_id[opid])
                    produces_memo[opid] = needs_shuffle
                if needs_shuffle:
                    delta += c_shuffle

        scalar_additions = 0
        for kind, obits, cost, opbit in entries:
            delta += cost
            if kind == _OP_BROADCAST:
                scalar_additions |= obits
            elif kind == _OP_REGISTER:
                new_mask |= opbit

        scalars_after = (state.scalar_bits | scalar_additions) & ~vbits
        # §5.2 / Figure 9 note: a pack like pmaddwd replaces multiple IR
        # instructions; interior instructions covered by its matches become
        # dead code and leave F — unless something still needs them as
        # scalars (an undecided user, membership in S, or an element of a
        # live vector operand).
        if interior:
            free_after = self._drop_dead_covered(
                interior, free_after, scalars_after, new_mask
            )
        return SearchState(
            new_mask,
            scalars_after,
            free_after,
            state.packs + (pack,),
            state.g + delta,
        )

    def _drop_dead_covered(self, interior: Tuple[int, ...],
                           free_bits: int, scalar_bits: int,
                           op_mask: int) -> int:
        needed = scalar_bits | self._mask_obits(op_mask)
        users_bits = self._users_bits
        for index in interior:
            bit = 1 << index
            if not (free_bits & bit) or (needed & bit):
                continue
            if users_bits[index] & free_bits:
                continue
            free_bits &= ~bit
        return free_bits

    def _produces(self, pack: Pack, operand: OperandVector) -> bool:
        """§4.4: pack produces operand if same size and lanes match or are
        don't-care."""
        values = pack.values()
        if len(values) != len(operand):
            return False
        for lane, element in zip(values, operand):
            if element is DONT_CARE:
                continue
            if lane is not element:
                return False
        return True

    def _immediate_operand_cost(self, operand: OperandVector) -> float:
        """Operand with no in-block elements: constants and/or arguments."""
        real = [e for e in operand if e is not DONT_CARE]
        if not real:
            return 0.0
        if all(isinstance(e, Constant) for e in real):
            return self.model.c_vector_const
        if len({id(e) for e in real}) == 1:
            return self.model.c_broadcast
        return self.model.c_insert * len(
            [e for e in real if not isinstance(e, Constant)]
        )

    def _foreign_element_cost(self, operand: OperandVector) -> float:
        """Insertion cost for operand elements that can never be produced
        by packs or scalar fixes (function arguments)."""
        count = sum(1 for e in operand if isinstance(e, Argument))
        return self.model.c_insert * count

    def _scalar_fix_candidates(self, state: SearchState) -> List[int]:
        needed = (state.scalar_bits
                  | self._mask_obits(state.operand_mask)) & state.free_bits
        result = []
        users_bits = self._users_bits
        free = state.free_bits
        while needed:
            index = (needed & -needed).bit_length() - 1
            needed &= needed - 1
            if users_bits[index] & free:
                continue  # users not yet decided
            result.append(index)
        return result

    def _fix_transition(self, state: SearchState,
                        index: int) -> Tuple[int, int, int, float]:
        """``(V, S, F, g)`` of the child that fixes instruction ``index``
        as scalar, without building it."""
        bit = 1 << index
        free_after = state.free_bits & ~bit
        # costinsert(i, V): occurrence lists are per instruction, so only
        # operands actually containing the instruction are touched.
        mask = state.operand_mask
        occurrences = 0
        for opbit, count in self._inst_occ[index]:
            if mask & opbit:
                occurrences += count
        delta = self._scalar_costs[index] + self.model.c_insert * occurrences
        # Only operands whose lanes contain the fixed instruction can
        # become fully decided by this transition.
        new_mask = mask
        affected = mask & self._member_masks[index]
        obits_by_id = self._obits_by_id
        while affected:
            opbit = affected & -affected
            affected ^= opbit
            if not (obits_by_id[opbit.bit_length() - 1] & free_after):
                new_mask ^= opbit
        # Uses are decided before defs, so every operand of a just-fixed
        # instruction is still free; mask defensively anyway.
        scalars_after = ((state.scalar_bits & ~bit)
                         | self._inst_opnd_bits[index]) & free_after
        return new_mask, scalars_after, free_after, state.g + delta

    # -- heuristic ----------------------------------------------------------------------

    def heuristic(self, state: SearchState) -> float:
        """g + h state evaluation (§5.2), with two corrections that keep
        the estimate from decaying toward the all-scalar cost:

        * already-decided instructions never count (they were paid for at
          decision time), so operand estimates use the *residual* lanes
          and slices are masked to F;
        * scalar slices shared between S and several operands are counted
          once (a running ``counted`` bitset), since producing a value
          once feeds every insert that needs it.
        """
        free = state.free_bits
        counted = self._expand_scalar_slices(state.scalar_bits) & free
        h = self.estimator.cost_of_bits(counted)
        # The per-operand loop below is _residual_entry and the
        # depth-3 estimate-memo probe inlined (hot-path hit rates are
        # >95% on the probe-bound kernels, so the two call frames per
        # operand were pure overhead).
        #
        # The loop also computes the scalar-completion total as a fused
        # by-product: _scalar_completion_uncached walks the same live
        # operands resolving the same residual triples, differing only in
        # which per-operand term it accumulates (the completion term vs.
        # the estimate) and therefore in its counted chain.  Running the
        # two counted chains side by side here — both seeded from the
        # same scalar-slice base — produces exactly the value
        # _scalar_completion_uncached would, so the completion memo can
        # be filled for free before _complete ever asks.  Nearly every
        # scored child is completed (f almost always beats the
        # incumbent), so the fused term probes replace, not add to, the
        # later completion walk.
        residual_memo = self._residual_memo
        residual_info = self._residual_info
        operand_key_of = self.ctx.operand_key_of
        c_insert = self.model.c_insert
        cost_of_bits = self.estimator.cost_of_bits
        comp = h
        counted_c = counted
        for operand in self._live_operands(state):
            entry = residual_memo.get(id(operand))
            if entry is None:
                entry = (operand, self._operand_bits(operand), {})
                residual_memo[id(operand)] = entry
            masked = free & entry[1]
            triple = entry[2].get(masked)
            if triple is None:
                uncached = self._residual_operand_uncached(operand, free)
                rkey = operand_key_of(uncached)
                triple = residual_info.get(rkey)
                if triple is None:
                    triple = self._residual_triple(uncached)
                    residual_info[rkey] = triple
                entry[2][masked] = triple
            raw_bits = triple[2]
            fraw = free & raw_bits
            ekey = (fraw, counted & raw_bits, 3)
            cached = triple[3].get(ekey)
            if cached is None:
                cached = self._estimate_residual(triple[0], triple[1],
                                                 raw_bits, free, counted, 3)
                triple[3][ekey] = cached
            h += cached[0]
            counted |= cached[1]
            term_key = (fraw, counted_c & raw_bits)
            term = triple[4].get(term_key)
            if term is None:
                term = (
                    c_insert * triple[1]
                    + cost_of_bits(fraw & ~counted_c),
                    fraw,
                )
                triple[4][term_key] = term
            comp += term[0]
            counted_c |= term[1]
        self._completion_memo[state.identity()] = comp
        return h

    def _estimate_residual(self, residual: OperandVector, real: int,
                           raw_bits: int, free: int, counted: int,
                           depth: int):
        """State-aware operand cost: like the Figure 7 recurrence, but
        slices are masked to still-free instructions and deduplicated
        against already-counted work — without this, everything already
        vectorized below an operand is double-charged and deep pack
        structures (idct4's pmaddwd layer) look unprofitable.

        Callers memoize it on ``(free & closure, counted & closure,
        depth)`` in the residual's triple, where *closure* is the
        residual's raw backward-slice bitset.  Every quantity the
        recursion reads lives inside that closure: slices are subsets of
        it, and producer sub-operands are dependencies of the residual's
        values, so their own closures are contained in it.  Masking
        ``free``/``counted`` down to the closure is therefore exact — and
        it is what makes the memo hit: a full ``(free, counted)`` key
        almost never repeats across states (measured ~3% on dsp_sbc),
        the masked key does.  (Keying on the operand's closure instead —
        skipping residual construction on a hit — was tried and measured
        slower: the operand closure is a superset of the residual's, and
        the finer ``free`` masking costs more hit rate than the skipped
        residual probes buy.)"""
        slice_bits = raw_bits & free
        best = (
            self.model.c_insert * max(real, 0)
            + self.estimator.cost_of_bits(slice_bits & ~counted)
        )
        best_bits = slice_bits
        if real == 0:
            return min(best, self.model.c_vector_const), 0
        if depth <= 0:
            return best, best_bits
        # Priced from the producer table (op costs and interned
        # sub-operands: no Pack objects).  Leaf sub-operands — most of
        # them — go through _leaf_estimate; the others through
        # _residual_entry and the estimate-memo probe inlined, same as
        # the heuristic's operand loop.
        sub_depth = depth - 1
        leaf_estimate = self._leaf_estimate if sub_depth == 0 else None
        residual_memo = self._residual_memo
        residual_info = self._residual_info
        operand_key_of = self.ctx.operand_key_of
        priced = producer_table(residual, self.ctx).priced
        for cost, subs in priced[:_ESTIMATE_PRODUCER_CAP]:
            sub_counted = counted
            for sub in subs:
                if leaf_estimate is not None:
                    sub_cost, sub_bits = leaf_estimate(sub, free,
                                                       sub_counted)
                else:
                    entry = residual_memo.get(id(sub))
                    if entry is None:
                        entry = (sub, self._operand_bits(sub), {})
                        residual_memo[id(sub)] = entry
                    masked = free & entry[1]
                    triple = entry[2].get(masked)
                    if triple is None:
                        uncached = self._residual_operand_uncached(sub,
                                                                   free)
                        rkey = operand_key_of(uncached)
                        triple = residual_info.get(rkey)
                        if triple is None:
                            triple = self._residual_triple(uncached)
                            residual_info[rkey] = triple
                        entry[2][masked] = triple
                    sub_raw = triple[2]
                    memo_key = (free & sub_raw, sub_counted & sub_raw,
                                sub_depth)
                    cached = triple[3].get(memo_key)
                    if cached is None:
                        cached = self._estimate_residual(
                            triple[0], triple[1], sub_raw,
                            free, sub_counted, sub_depth
                        )
                        triple[3][memo_key] = cached
                    sub_cost, sub_bits = cached
                cost += sub_cost
                sub_counted |= sub_bits
                if cost >= best:
                    break
            if cost < best:
                best = cost
                best_bits = sub_counted & ~counted
        return best, best_bits

    def _leaf_estimate(self, operand: OperandVector, free: int,
                       counted: int):
        """The depth-0 estimate of ``operand`` (``_estimate_residual`` on
        its residual) without the residual.  A leaf needs only the residual's real-lane count
        and slice bits, which the operand's lanes give directly through
        the per-instruction slice table: no residual tuple, operand key
        or memo triple is built.  Leaves are not memoized: a memo on
        ``free & operand bits`` missed on 97.5% of leaf lookups on
        dsp_sbc/neon128, the heaviest bench cell."""
        index_of = self._index_of
        slices = self._inst_slices
        real = 0
        raw = 0
        for element in operand:
            if element is DONT_CARE:
                continue
            i = index_of(id(element))
            if i is None:
                if not isinstance(element, (Constant, Argument)):
                    real += 1  # stays in every residual
            elif (free >> i) & 1:
                real += 1
                raw |= slices[i]
        slice_bits = raw & free
        cost = self.model.c_insert * real + self.estimator.cost_of_bits(
            slice_bits & ~counted)
        if real == 0:
            return min(cost, self.model.c_vector_const), 0
        return cost, slice_bits

    def _residual_entry(self, operand: OperandVector,
                        free_bits: int) -> Tuple:
        """(residual, real-lane count, raw slice bitset) for an operand
        under a free set, in a single memo probe.

        All three quantities depend on ``free`` only through the
        operand's own lane bits, so the per-operand memo is keyed on
        that mask; the triple itself is interned per residual identity
        (the unchanged-residual case collapses every mask that agrees
        on the operand's lanes onto one entry)."""
        entry = self._residual_memo.get(id(operand))
        if entry is None:
            entry = (operand, self._operand_bits(operand), {})
            self._residual_memo[id(operand)] = entry
        masked = free_bits & entry[1]
        cached = entry[2].get(masked)
        if cached is None:
            residual = self._residual_operand_uncached(operand, free_bits)
            # Canonicalize by *content*: sub-operands of different packs
            # are distinct tuple objects with equal operand keys, and a
            # per-object residual would give each its own estimate-memo
            # universe.  Interning the triple per residual key makes
            # every id(residual)-keyed memo downstream content-shared.
            # Exact: the operand key distinguishes instruction lanes by
            # identity and constant lanes by value, which is everything
            # the estimate reads.
            rkey = self.ctx.operand_key_of(residual)
            cached = self._residual_info.get(rkey)
            if cached is None:
                cached = self._residual_triple(residual)
                self._residual_info[rkey] = cached
            entry[2][masked] = cached
        return cached

    def _residual_triple(self, residual: OperandVector) -> Tuple:
        real = sum(
            1 for e in residual
            if e is not DONT_CARE
            and not isinstance(e, (Constant, Argument))
        )
        raw_bits = self.estimator.scalar_slice_bits(residual)
        # Trailing dicts: per-residual estimate and completion-term
        # memos (see the _residual_info comment for the key layout).
        return (residual, real, raw_bits, {}, {})

    def _residual_operand_uncached(self, operand: OperandVector,
                                   free_bits: int) -> OperandVector:
        # Constants/arguments/don't-cares are never in the dependence
        # graph's index, so one index probe subsumes the kind checks.
        index_of = self.ctx.dep_graph._index.get
        residual = []
        changed = False
        for element in operand:
            i = None if element is DONT_CARE else index_of(id(element))
            if i is not None and not (free_bits & (1 << i)):
                residual.append(DONT_CARE)
                changed = True
            else:
                residual.append(element)
        return tuple(residual) if changed else operand

    def _expand_scalar_slices(self, scalar_bits: int) -> int:
        cached = self._scalar_slice_memo.get(scalar_bits)
        if cached is not None:
            return cached
        dg = self.ctx.dep_graph
        bits = 0
        remaining = scalar_bits
        while remaining:
            index = (remaining & -remaining).bit_length() - 1
            remaining &= remaining - 1
            bits |= (1 << index) | dg._closure[index]
        self._scalar_slice_memo[scalar_bits] = bits
        return bits

    # -- scalar completion -------------------------------------------------------------

    def _scalar_completion(self, state: SearchState) -> float:
        """Cost of finishing the state with scalar instructions only: fix
        every still-needed value and insert operand elements.  Turns any
        state into a solved state in one jump, so the beam is an anytime
        search rather than needing one transition per instruction.

        The completion cost is a pure function of the state's identity
        (V, S, F), so it is memoized on it."""
        identity = state.identity()
        cached = self._completion_memo.get(identity)
        if cached is not None:
            self.ctx.counters.inc("slp.estimate_hits")
            return cached
        total = self._scalar_completion_uncached(state)
        self._completion_memo[identity] = total
        return total

    def _scalar_completion_uncached(self, state: SearchState) -> float:
        free = state.free_bits
        counted = self._expand_scalar_slices(state.scalar_bits) & free
        total = self.estimator.cost_of_bits(counted)
        c_insert = self.model.c_insert
        cost_of_bits = self.estimator.cost_of_bits
        # _residual_entry and the per-operand term memo probe inlined
        # (same discipline as the heuristic loop).
        # Per-operand terms are memoized on the closure-masked key (same
        # exactness argument as _estimate_residual: everything the term
        # reads is inside the residual's backward closure).  Argument
        # lanes are excluded from the insert count: they were already
        # paid for by _foreign_element_cost when the operand entered V
        # (they can never be produced or scalar-fixed), so charging
        # c_insert again here double-counts them — this mirrors the
        # residual lane accounting of _residual_entry (Figure 9's
        # costinsert only covers instructions fixed as scalars).
        residual_memo = self._residual_memo
        residual_info = self._residual_info
        operand_key_of = self.ctx.operand_key_of
        for operand in self._live_operands(state):
            entry = residual_memo.get(id(operand))
            if entry is None:
                entry = (operand, self._operand_bits(operand), {})
                residual_memo[id(operand)] = entry
            masked = free & entry[1]
            triple = entry[2].get(masked)
            if triple is None:
                uncached = self._residual_operand_uncached(operand, free)
                rkey = operand_key_of(uncached)
                triple = residual_info.get(rkey)
                if triple is None:
                    triple = self._residual_triple(uncached)
                    residual_info[rkey] = triple
                entry[2][masked] = triple
            raw_bits = triple[2]
            fraw = free & raw_bits
            term_key = (fraw, counted & raw_bits)
            term = triple[4].get(term_key)
            if term is None:
                term = (
                    c_insert * triple[1]
                    + cost_of_bits(fraw & ~counted),
                    fraw,
                )
                triple[4][term_key] = term
            total += term[0]
            counted |= term[1]
        return total

    def _complete(self, state: SearchState) -> SearchState:
        return SearchState(
            0, 0, state.free_bits, state.packs,
            state.g + self._scalar_completion(state),
        )

    def _rollout(self, state: SearchState, max_steps: int = 96,
                 incumbent: Optional[float] = None
                 ) -> Optional[SearchState]:
        """Complete a state by greedily following the Figure 7 recurrence:
        repeatedly apply the best producer pack of some live operand (the
        SLP heuristic as a completion policy), then finish scalar.

        Without this, best-solved tracking undervalues partial states
        whose remaining work has good producers, and the beam converges
        to near-scalar solutions.

        ``incumbent`` (the incumbent cost, when the beam calls it) stops
        the rollout — returning None — once ``g`` meets it: transition
        and completion costs are non-negative, so the finished rollout
        could never be kept."""
        current = state
        for _ in range(max_steps):
            if incumbent is not None and current.g >= incumbent:
                self.ctx.counters.inc("beam.incumbent_prunes")
                return None
            progressed = False
            for operand in self._live_operands(current):
                residual = self._residual_entry(operand,
                                                current.free_bits)[0]
                pack = self.estimator.best_producer(residual)
                if pack is None:
                    continue
                child = self._apply_pack(current, pack)
                if child is not None:
                    current = child
                    progressed = True
                    break
            if not progressed:
                # No whole-operand producer: try splitting a mixed-shape
                # operand into homogeneous sub-tuples (idct4's interleaved
                # add/sub layer).  A bad choice is harmless — the rollout
                # result is only kept if it beats the incumbent.
                for operand in self._live_operands(current):
                    residual = self._residual_entry(operand,
                                                    current.free_bits)[0]
                    for pack in self._subtuple_packs_for(residual)[:4]:
                        child = self._apply_pack(current, pack)
                        if child is not None:
                            current = child
                            progressed = True
                            break
                    if progressed:
                        break
            if not progressed:
                break
        return self._complete(current)

    # -- main loop ----------------------------------------------------------------------

    def run(self, beam_width: int,
            patience: Optional[int] = None) -> SearchState:
        if patience is None:
            patience = self.ctx.config.patience
        counters = self.ctx.counters
        state = self.initial_state()
        candidates = [state]
        best_solved = self._complete(state)  # the all-scalar solution
        stale = 0
        for _ in range(self.ctx.config.max_steps):
            if not candidates:
                break
            counters.inc("beam.iterations")
            children: Dict[Tuple, SearchState] = {}
            improved = False
            for parent in candidates:
                if parent.g >= best_solved.g:
                    # Dominated parent: transition costs are
                    # non-negative, so every descendant is too.
                    counters.inc("beam.incumbent_prunes")
                    continue
                for child in self.expand(parent):
                    if child.solved:
                        if child.g < best_solved.g:
                            best_solved = child
                            improved = True
                        continue
                    if child.g >= best_solved.g:
                        # Incumbent (branch-and-bound) pruning: drop the
                        # child before completion, heuristic, and
                        # rollout — it can never improve the incumbent.
                        counters.inc("beam.incumbent_prunes")
                        continue
                    key = child.identity()
                    # Transposition table: a state with this same
                    # (V, S, F) was already generated at equal or better
                    # g — this re-derivation's completions, rollouts,
                    # and transitions are all pointwise dominated, so
                    # drop it before scoring.
                    seen_g = self._tt.get(key)
                    if seen_g is not None and seen_g <= child.g:
                        counters.inc("beam.tt_hits")
                        continue
                    self._tt[key] = child.g
                    children[key] = child
            scored = []
            for child in children.values():
                h = self.heuristic(child)
                if h == INFINITY:
                    continue
                # Tie-break equal f-scores toward states that have
                # made more vectorization progress.
                scored.append((child.g + h, -len(child.packs), child))
            scored.sort(key=lambda item: (item[0], item[1]))
            if len(scored) > beam_width:
                counters.inc("beam.candidates_pruned",
                             len(scored) - beam_width)
            candidates = [c for _, _, c in scored[:beam_width]]
            # Lazy child completion: only beam survivors — plus any
            # child whose f = g + h still beats the incumbent (h
            # under-estimates the scalar completion, so every child
            # whose completion could win is covered) — are
            # completed.  Completion work scales with the beam
            # width, not the branching factor.
            for rank, (f, _, child) in enumerate(scored):
                if rank >= beam_width and f >= best_solved.g:
                    continue
                completed = self._complete(child)
                if completed.g < best_solved.g:
                    best_solved = completed
                    improved = True
            # Rollout completion of the surviving candidates: greedy SLP
            # extension finds full solutions long before the beam walks
            # there step by step.
            for candidate in candidates:
                if candidate.g >= best_solved.g:
                    counters.inc("beam.incumbent_prunes")
                    continue
                counters.inc("beam.rollouts")
                rolled = self._rollout(candidate,
                                       incumbent=best_solved.g)
                if rolled is not None and rolled.g < best_solved.g:
                    best_solved = rolled
                    improved = True
            # Sound early exit: transition costs are non-negative, so no
            # open candidate can ever beat a solved state whose g is
            # already <= every open g.
            if not candidates or best_solved.g <= min(
                c.g for c in candidates
            ):
                break
            if improved:
                counters.inc("beam.solved_improvements")
            stale = 0 if improved else stale + 1
            if stale >= patience:
                break
        return best_solved


def exhaustive_search(search: BeamSearch,
                      incumbent: Optional[SearchState] = None,
                      node_budget: Optional[int] = None,
                      memo: Optional[Dict[Tuple, float]] = None,
                      counters=None) -> Tuple[SearchState, bool, int]:
    """Run a search's transition system to exhaustion (branch and bound).

    An iterative depth-first traversal replicating the classic recursive
    formulation's visit order exactly: entry work (node accounting,
    scalar completion, incumbent update) happens when a state is pushed;
    child pruning is evaluated lazily against the *evolving* incumbent
    as each child is popped, in this order:

    1. **g** — ``g`` already meets the incumbent (costs only grow);
    2. **solved** — a solved child that passed (1) becomes the incumbent;
    3. **memo** — the identity memo already holds the same ``(V, S, F)``
       at no greater ``g`` (``beam.exact_tt_hits``);
    4. **bound** — the provable total ``g + lb`` meets the incumbent
       (``beam.bound_prunes``); a child that survives is stored in the
       memo;
    5. **dominance** — an explored state dominates it (below).

    Returns ``(best, proved, nodes)``:

    * ``best`` — the cheapest solved state found; with ``proved`` True
      it is the exact optimum of the transition system.
    * ``proved`` — False when ``node_budget`` stopped the traversal
      first (``best`` is then just the best incumbent).
    * ``nodes`` — states visited.

    Nearly every child is a scalar fix, and most of those are cut by
    (1)–(4), so fix children are built lazily: a frame holds its
    parent's pack children (built by :meth:`BeamSearch.transitions`) and
    the indices of its scalar fixes, a fix's ``(V, S, F, g)`` is
    computed when it is popped, and its :class:`SearchState` is built
    only once it passes the g-cut and the memo.  Likewise the completed
    incumbent is built only when it beats ``best``.  The states entered,
    their order and every cut are the same as with eager children.

    ``incumbent`` (typically the beam's solved state) is the starting
    incumbent, so the result is never worse than it.  The traversal uses a
    fresh identity memo by default: the beam's transposition table also
    holds states whose subtrees were beam-width-pruned without
    exploration, so reusing it here would unsoundly skip them.

    The traversal prunes with the search's admissible lower bound
    (:meth:`BeamSearch.lower_bound`, :mod:`repro.vectorizer.bounds`),
    built here on the search's first exact pass: a branch is cut once
    its provable total ``g + lb`` meets the incumbent — the completion
    of every descendant costs at least that.  A dominance memo cuts
    lane-permutation/duplication variants: a state is dominated by an
    earlier-explored one with the same ``S`` and ``F``, a subset of its
    ``V``, equal still-free operand-demand bits, and no greater ``g`` —
    every completion of the dominated state then mirrors to a
    no-more-expensive completion of the dominator (the obits-equality
    side condition keeps dead-interior drops, fix candidates, and
    needed sets identical along the mirrored sequences, so the mirror
    is always legal).
    """
    if memo is None:
        memo = {}
    if counters is None:
        counters = NULL_COUNTERS
    lb_total = search.lower_bound().provable_total
    fix_transition = search._fix_transition
    # Dominance memo: (S, F) -> [(V, obits(V) & F, g)] of explored
    # states, capped per class.
    dom: Dict[Tuple[int, int], List[Tuple]] = {}
    root = search.initial_state()
    best = search._complete(root)
    if incumbent is not None and incumbent.g < best.g:
        best = incumbent
    nodes = 0
    proved = True
    tt_hits = 0
    bound_prunes = 0
    # Stack frames are [parent, pack children, fix indices, next-index];
    # mutated in place.
    stack: List[List] = []

    def _enter(state: SearchState) -> bool:
        nonlocal nodes, best
        if node_budget is not None and nodes >= node_budget:
            return False
        nodes += 1
        total = state.g + search._scalar_completion(state)
        if total < best.g:
            best = SearchState(0, 0, state.free_bits, state.packs, total)
        stack.append([state, *search.transitions(state), 0])
        return True

    if _enter(root):
        while stack:
            frame = stack[-1]
            parent, children, fixes, index = frame
            if index < len(children):
                child = children[index]
                operand_mask = child.operand_mask
                scalar_bits = child.scalar_bits
                free_bits = child.free_bits
                g = child.g
            elif index < len(children) + len(fixes):
                child = None
                operand_mask, scalar_bits, free_bits, g = fix_transition(
                    parent, fixes[index - len(children)])
            else:
                stack.pop()
                continue
            frame[3] = index + 1
            if g >= best.g:
                continue  # branch and bound: costs only grow
            if not operand_mask and not scalar_bits:
                # Solved, and g < best.g checked above.
                best = child if child is not None else SearchState(
                    0, 0, free_bits, parent.packs, g)
                continue
            key = (operand_mask, scalar_bits, free_bits)
            seen = memo.get(key)
            if seen is not None and seen <= g:
                tt_hits += 1
                continue
            if child is None:
                child = SearchState(operand_mask, scalar_bits, free_bits,
                                    parent.packs, g)
            # Sound subtree cut: every completion below costs at least
            # ceil(g + lb) (totals are integral), and meeting the
            # incumbent (adoption needs strict <) makes the subtree
            # worthless.
            if lb_total(child, g) >= best.g:
                bound_prunes += 1
                continue
            memo[key] = g
            if _dominance_cut(search, dom, child, counters):
                continue
            if not _enter(child):
                proved = False
                break
    else:
        proved = False
    # Counted in locals, so the child loop pays no counter calls.
    if tt_hits:
        counters.inc("beam.exact_tt_hits", tt_hits)
    if bound_prunes:
        counters.inc("beam.bound_prunes", bound_prunes)
    return best, proved, nodes


#: Explored states remembered per (S, F) dominance class; a small cap
#: keeps the subset scan O(1) per child.
_DOMINANCE_CLASS_CAP = 12


def _dominance_cut(search: BeamSearch, dom: Dict, state: SearchState,
                   counters) -> bool:
    """Cut ``state`` if an explored state dominates it.

    Dominator requirements (all four; see ``exhaustive_search``'s
    docstring for the mirroring argument): same scalar set ``S``, same
    free set ``F``, ``V`` a subset of the state's, *equal* still-free
    operand-demand bits ``obits(V) & F``, and no greater ``g``.  V-subset
    alone is unsound — extra live operands can change which interiors
    drop dead downstream, making the free sets diverge — but with the
    demand bits equal the dominated state's every legal transition
    sequence is legal for the dominator at pointwise no-greater cost
    (fewer shuffle/insert terms, identical drops).  Undominated states
    are remembered (capped) for later children of the class."""
    v = state.operand_mask
    obits = search._mask_obits(v) & state.free_bits
    key = (state.scalar_bits, state.free_bits)
    entries = dom.get(key)
    if entries is None:
        dom[key] = [(v, obits, state.g)]
        return False
    g = state.g
    for v0, ob0, g0 in entries:
        if g0 <= g and ob0 == obits and (v0 & v) == v0:
            counters.inc("beam.bound_dominance_cuts")
            return True
    if len(entries) < _DOMINANCE_CLASS_CAP:
        entries.append((v, obits, g))
    return False


def select_packs(ctx: VectorizationContext) -> Tuple[List[Pack], float]:
    """Run pack selection; returns (packs, estimated cost of the block).

    An empty pack list means "leave the block scalar".

    With ``config.exact`` the beam is followed by the exhaustive
    branch-and-bound pass (seeded with the beam's incumbent, so never
    worse).

    Allocation discipline: the cyclic garbage collector is paused for
    the duration of the search, which allocates millions of
    short-lived tuples, states and memo entries (generation-0 scans
    were measured at ~15-25% of search wall time on the heaviest
    kernels).  None of it is cyclic garbage: the search owns its
    estimator, bound provider and memos, and none of them refers back
    to the search.  So the search's whole working set — the search
    object, its memos, and the search-only caches on the context
    (:meth:`VectorizationContext.release_search_caches`) — is freed by
    refcounting before the collector is re-enabled, and no collection
    ever has to trace it.  Pausing changes nothing about the result."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # The search lives only in _run_search's frame: by the time it
        # returns, every object the search allocated is freed.
        packs, cost = _run_search(ctx)
    finally:
        ctx.release_search_caches()
        if was_enabled:
            gc.enable()
    return list(packs), cost


def _run_search(ctx: VectorizationContext
                ) -> Tuple[Tuple[Pack, ...], float]:
    """The beam (plus the exact pass when configured) on a fresh search;
    ``(packs, cost)`` of the selected state, or None."""
    config = ctx.config
    counters = ctx.counters
    search = BeamSearch(ctx)
    solved = search.run(config.beam_width)
    if config.exact:
        counters.inc("beam.exact_runs")
        beam_g = solved.g
        solved, proved, nodes = exhaustive_search(
            search,
            incumbent=solved,
            node_budget=config.exact_node_budget,
            counters=counters,
        )
        counters.inc("beam.exact_nodes", nodes)
        counters.inc("beam.exact_proved" if proved
                     else "beam.exact_budget_exhausted")
        if solved.g < beam_g:
            counters.inc("beam.exact_improvements")
    return solved.packs, solved.g
