"""Shared compile-time state for one vectorization run."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Dict, Mapping, Optional, Tuple

from repro.ir.dag import DependenceGraph
from repro.ir.function import Function
from repro.machine.costs import CostModel
from repro.obs.counters import NULL_COUNTERS, Counters
from repro.obs.trace import NULL_TRACER
from repro.patterns.match_table import MatchTable
from repro.target.isa import TargetDesc
from repro.vectorizer.pack import operand_key

#: Default node budget for one exhaustive branch-and-bound pass
#: (``VectorizerConfig.exact_node_budget`` / ``repro vectorize
#: --exact-budget``).  Sized for a one-shot proof of a single compile;
#: the bench's per-cell gap pass uses the much smaller
#: :data:`repro.obs.bench.DEFAULT_GAP_NODE_BUDGET` — see the field
#: docstring below for why the two differ.
DEFAULT_EXACT_NODE_BUDGET = 400_000


@dataclass
class VectorizerConfig:
    """User-facing knobs of the vectorizer."""

    #: Beam width; 1 is exactly the SLP heuristic (§5.2).
    beam_width: int = 64
    #: Maximum beam iterations (safety bound; normally terminates earlier).
    max_steps: int = 512
    #: Cap on producer packs enumerated per operand (Algorithm 1 fan-out).
    max_producers_per_operand: int = 48
    #: Cap on match combinations tried per candidate instruction (so one
    #: commutativity-happy instruction cannot crowd out the others).
    max_match_combinations: int = 4
    #: Cap on affinity seed packs (§5.1 "top k" enumeration).
    seed_packs_per_value: int = 2
    #: Cap on transitions expanded per beam state.
    max_transitions_per_state: int = 48
    #: Beam iterations without improvement before giving up.
    patience: int = 48
    #: Enable search-layer memoization: operand-estimate/slice-cost
    #: memos and the transposition table on ``SearchState.identity()``.
    #: Off reproduces the unmemoized search exactly (differential-tested:
    #: the selected packs and costs are identical either way).
    memoize: bool = True
    #: Enable incumbent (branch-and-bound) pruning and lazy child
    #: scoring in the beam search.  Transition costs are non-negative,
    #: so a child whose ``g`` already meets the best solved cost — and
    #: every descendant of it — can never improve the returned solution;
    #: such children are dropped before completion, heuristic, and
    #: rollout, and only beam survivors (plus children whose ``f = g+h``
    #: beats the incumbent) are completed.  The returned cost is never
    #: worse than the unpruned search's (differential-tested on every
    #: bundled kernel and target); ``prune=False`` restores the
    #: exhaustive scoring path of the unpruned search exactly.
    prune: bool = True
    #: Run the search on the bitset-native state representation: a
    #: state's live-operand set is a big-int bitmask over dense operand
    #: ids (assigned at registry time) instead of a frozenset of operand
    #: keys, and every transition becomes precomputed mask AND/OR/ANDNOT
    #: batches over the per-pack tables.  The bitset engine explores the
    #: identical state sequence — dense ids are registration order, so
    #: LSB-first mask iteration reproduces the legacy engine's
    #: registration-ordered key iteration exactly — and is
    #: differential-tested bit-identical on every bundled kernel and
    #: target (``tests/test_bitset_differential.py``); ``bitset=False``
    #: restores the frozenset-keyed legacy engine.
    bitset: bool = True
    #: Lower-bound provider for incumbent pruning, in both the beam's
    #: gates and the exhaustive pass.  ``"matching"`` (default) charges
    #: every provably-still-needed instruction its cheapest amortized
    #: pack-or-scalar production cost — a true admissible bound
    #: (:mod:`repro.vectorizer.bounds`, DESIGN.md §16) that lets the
    #: exhaustive pass prove optimality on the heavy kernels and lets
    #: the beam skip provably-outside-the-beam heuristic calls.  All
    #: beam-path consumers are identity-preserving (``h >= lb``
    #: pointwise, so every new skip is of work whose result could not
    #: have been kept): packs and costs are bit-identical to
    #: ``"slp"``, which disables the provider and keeps the pure
    #: SLP-heuristic engine as the differential oracle
    #: (``tests/test_bound_differential.py``).  Note this field is part
    #: of the canonical config, so serve/warm cache keys change with it
    #: — deliberate, same as every other knob.
    bound: str = "matching"
    #: After the beam finishes, run the incumbent branch-and-bound to
    #: exhaustion under the admissible bound (seeded with the beam's
    #: solved state, so the result is never worse than the beam's) and
    #: return the provably optimal pack set — the Figure 9 recurrence
    #: solved exactly rather than heuristically.  Bounded by
    #: ``exact_node_budget``; when the budget is exhausted the best
    #: incumbent found so far is returned and the run is flagged
    #: (``beam.exact_budget_exhausted``).
    exact: bool = False
    #: Node budget for the exhaustive pass (states visited); exhaustion
    #: returns the incumbent instead of a proof of optimality.  The
    #: default (:data:`DEFAULT_EXACT_NODE_BUDGET`) sizes a *one-shot*
    #: ``--exact`` compile, where proving one cell is the whole point;
    #: ``repro bench --gap-budget`` deliberately runs the same pass at a
    #: small fraction of it (:data:`repro.obs.bench.DEFAULT_GAP_NODE_BUDGET`)
    #: because the bench's gap pass re-proves every one of the 132 cells
    #: on each run and only reports, never returns, the result.
    exact_node_budget: int = DEFAULT_EXACT_NODE_BUDGET
    #: Warm-start the incumbent from a previous run's final cost, looked
    #: up in the content-addressed warm cost cache
    #: (:mod:`repro.vectorizer.warm`, keyed like the serve cache:
    #: canonical IR x target x canonical config x artifact hash, plus
    #: the cost model).  Provably identity-preserving: the beam stops
    #: early only once its incumbent already equals the cached final
    #: cost (every later improvement is strictly ``<``, so the returned
    #: state could never change), and the exhaustive pass prunes only
    #: strictly-above-bound branches.  Off by default so counter-shape
    #: differential contracts are unperturbed; only node counts and
    #: ``beam.warmstart_*`` counters may differ when enabled.
    warm_start: bool = False

    # -- canonical serialization ---------------------------------------
    #
    # The compile server keys its content-addressed result cache on (among
    # other things) the full configuration, and reports the effective
    # configuration on /metrics.  Both need a *canonical* form: stable
    # field ordering, no reliance on dataclass declaration order or dict
    # iteration.  ``_CANONICAL_FIELDS`` is the explicit contract; adding a
    # dataclass field without registering it here makes every
    # serialization call raise, so a cache key can never silently ignore
    # a new knob (regression-tested in tests/test_serve_cache.py).

    _CANONICAL_FIELDS = (
        "beam_width",
        "max_steps",
        "max_producers_per_operand",
        "max_match_combinations",
        "seed_packs_per_value",
        "max_transitions_per_state",
        "patience",
        "memoize",
        "prune",
        "bitset",
        "bound",
        "exact",
        "exact_node_budget",
        "warm_start",
    )

    def canonical_dict(self) -> Dict[str, object]:
        """All knobs as ``{name: value}`` in ``_CANONICAL_FIELDS`` order.

        Raises ``RuntimeError`` when the dataclass fields and the
        canonical contract have drifted apart, in either direction.
        """
        declared = tuple(f.name for f in fields(self))
        if set(declared) != set(self._CANONICAL_FIELDS):
            extra = sorted(set(declared) - set(self._CANONICAL_FIELDS))
            gone = sorted(set(self._CANONICAL_FIELDS) - set(declared))
            raise RuntimeError(
                "VectorizerConfig fields drifted from the canonical "
                f"serialization contract (unregistered: {extra}, "
                f"stale: {gone}); update "
                "VectorizerConfig._CANONICAL_FIELDS deliberately — "
                "this changes every serve cache key"
            )
        return {name: getattr(self, name)
                for name in self._CANONICAL_FIELDS}

    def canonical_json(self) -> str:
        """Deterministic JSON form used in cache keys and /metrics."""
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_canonical_dict(cls, data: Mapping[str, object]
                            ) -> "VectorizerConfig":
        """Build a config from a (possibly partial) canonical dict.

        Unknown keys raise ``ValueError`` — a client sending a knob this
        build does not know must fail loudly, not compile under silently
        different settings.
        """
        unknown = sorted(set(data) - set(cls._CANONICAL_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown VectorizerConfig fields: {', '.join(unknown)}"
            )
        config = cls()
        for name, value in data.items():
            expected = type(getattr(config, name))
            if not isinstance(value, expected) or \
                    isinstance(value, bool) is not \
                    isinstance(getattr(config, name), bool):
                raise ValueError(
                    f"VectorizerConfig.{name} expects "
                    f"{expected.__name__}, got {type(value).__name__}"
                )
            setattr(config, name, value)
        config.canonical_dict()  # re-assert the contract
        return config


class VectorizationContext:
    """Bundles the function, its analyses, the target, and the costs."""

    def __init__(self, function: Function, target: TargetDesc,
                 cost_model: Optional[CostModel] = None,
                 config: Optional[VectorizerConfig] = None,
                 tracer=None, counters: Optional[Counters] = None):
        self.function = function
        self.target = target
        self.cost_model = cost_model or CostModel()
        self.config = config or VectorizerConfig()
        # Observability is off by default: the null singletons make every
        # span/counter site a single no-op call.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.counters = counters if counters is not None else NULL_COUNTERS
        with self.tracer.span("dep_graph"):
            self.dep_graph = DependenceGraph(function)
        with self.tracer.span("match_table"):
            self.match_table = MatchTable(function,
                                          target.operation_index,
                                          counters=self.counters)
        # The search-only caches below are what pack selection hangs on
        # the context; release_search_caches() drops them all once
        # select_packs is done, so they die by refcounting.
        #
        # operand key -> ProducerList (repro.vectorizer.producers).
        self._producer_cache: Dict[Tuple, object] = {}
        # Producer sub-operands interned by content (tuple equality is
        # element identity): one tuple object per distinct sub-operand,
        # so id-keyed memos downstream share entries across producers.
        self._interned_operands: Dict[Tuple, Tuple] = {}
        # id-keyed operand_key cache.  Operand tuples are overwhelmingly
        # stable objects (precomputed on cached Pack instances, interned
        # in the beam's operand registry and residual memo), so keying by
        # object identity turns every repeated operand_key() build — the
        # single hottest call in the PR 2 profile — into one dict probe.
        # Values hold the tuple itself: a live tuple's id can never be
        # reused, which is what makes id-keying sound.
        self._operand_key_cache: Dict[int, Tuple] = {}
        # (lanes, elem_type) -> tuple of (vinst, lane-token signature)
        # pairs, in the target's instruction order.  Producer enumeration
        # walks this plan for every distinct operand of a shape; building
        # it once per shape hoists the per-instruction signature lookups
        # out of the hot loop.
        self._shape_plans: Dict[Tuple, Tuple] = {}
        # (lanes, elem_type) -> (plan, lane_token_masks) where
        # ``lane_token_masks[(lane, token)]`` is a bitmask over plan
        # indices whose signature demands ``token`` at ``lane``.
        # Producer enumeration ANDs per-lane mask unions to find the
        # feasible plan entries in O(lanes) dict probes instead of
        # probing the match table per (instruction, lane) cell.
        self._shape_indexes: Dict[Tuple, Tuple] = {}

    def release_search_caches(self) -> None:
        """Drop the caches only pack selection reads (producer tables,
        interned operands, operand keys, shape plans)."""
        self._producer_cache = {}
        self._interned_operands = {}
        self._operand_key_cache = {}
        self._shape_plans = {}
        self._shape_indexes = {}

    def shape_plan(self, lanes: int, elem_type) -> Tuple:
        """(vinst, signature) pairs for one operand shape, cached."""
        key = (lanes, elem_type)
        plan = self._shape_plans.get(key)
        if plan is None:
            lane_signature = self.match_table.lane_signature
            plan = tuple(
                (vinst, lane_signature(vinst))
                for vinst in self.target.instructions_for_shape(lanes,
                                                                elem_type)
            )
            self._shape_plans[key] = plan
        return plan

    def shape_index(self, lanes: int, elem_type) -> Tuple:
        """``(plan, lane_token_masks)`` for one operand shape, cached."""
        key = (lanes, elem_type)
        index = self._shape_indexes.get(key)
        if index is None:
            plan = self.shape_plan(lanes, elem_type)
            masks: Dict[Tuple[int, int], int] = {}
            for position, (_vinst, sig) in enumerate(plan):
                bit = 1 << position
                for lane, token in enumerate(sig):
                    cell = (lane, token)
                    masks[cell] = masks.get(cell, 0) | bit
            index = (plan, masks)
            self._shape_indexes[key] = index
        return index

    def operand_key_of(self, operand) -> Tuple:
        """``operand_key(operand)``, cached by tuple identity."""
        entry = self._operand_key_cache.get(id(operand))
        if entry is not None:
            return entry[1]
        key = operand_key(operand)
        self._operand_key_cache[id(operand)] = (operand, key)
        return key

    @property
    def instructions(self):
        return self.dep_graph.instructions
