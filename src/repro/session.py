"""Reusable vectorization sessions: the compile-time phase as a service.

A :class:`VectorizationSession` amortizes everything that does not
depend on the particular function being vectorized — target
resolution (the offline artifact or pseudocode build), the pass
pipeline, the configuration — across many ``vectorize()`` calls, and
adds a :meth:`VectorizationSession.vectorize_many` batch API.  The
CLI, the baseline vectorizer, and ``repro bench`` all route through
sessions; the module-level :func:`repro.vectorizer.vectorize` is a
one-shot session.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Sequence, Union

from repro.machine.costs import CostModel
from repro.obs.counters import NULL_COUNTERS, Counters
from repro.obs.trace import NULL_TRACER
from repro.passes import PassPipeline, PipelineState, default_passes
from repro.target.isa import TargetDesc
from repro.target.registry import get_target
from repro.vectorizer.context import VectorizerConfig
from repro.vectorizer.pipeline import VectorizationResult, clone_function


class VectorizationSession:
    """Shared state for vectorizing many functions against one target.

    Parameters mirror :func:`repro.vectorizer.vectorize`; a session
    fixes them once and reuses the resolved target description and the
    built pass pipeline for every call.  Sessions are cheap to create
    (target construction is registry-cached and artifact-backed) but
    reusing one makes the sharing explicit and keeps batch call sites
    (CLI files with many functions, the bench matrix) uniform.
    """

    def __init__(
        self,
        target: Union[str, TargetDesc] = "avx2",
        beam_width: Optional[int] = None,
        canonicalize_patterns: bool = True,
        canonicalize_input: bool = True,
        reassociate: bool = False,
        cost_model: Optional[CostModel] = None,
        config: Optional[VectorizerConfig] = None,
        sanitize: bool = False,
        verify: bool = False,
        pipeline: Optional[PassPipeline] = None,
    ):
        self._target_spec = target
        self._target_desc: Optional[TargetDesc] = (
            target if isinstance(target, TargetDesc) else None
        )
        self._trace_target_build = not isinstance(target, TargetDesc)
        #: An explicit ``beam_width`` wins; else the config's; else 64.
        self.beam_width = (
            beam_width if beam_width is not None
            else config.beam_width if config is not None
            else 64
        )
        self.canonicalize_patterns = canonicalize_patterns
        self.canonicalize_input = canonicalize_input
        self.reassociate = reassociate
        self.cost_model = cost_model
        self.config = config
        self.sanitize = sanitize
        self.verify = verify
        self.pipeline = pipeline if pipeline is not None else PassPipeline(
            default_passes(
                canonicalize_input=canonicalize_input,
                reassociate=reassociate,
                sanitize=sanitize,
                verify=verify,
            )
        )

    @property
    def target(self) -> TargetDesc:
        """The resolved target description (built/loaded on first use)."""
        if self._target_desc is None:
            self._target_desc = get_target(
                self._target_spec,
                canonicalize_patterns=self.canonicalize_patterns,
            )
        return self._target_desc

    def _resolve_config(self) -> VectorizerConfig:
        if self.config is None:
            return VectorizerConfig(beam_width=self.beam_width)
        # A copy: the session's width never writes the caller's config.
        return dataclasses.replace(self.config, beam_width=self.beam_width)

    def vectorize(self, function, tracer=None,
                  counters: Optional[Counters] = None
                  ) -> VectorizationResult:
        """Vectorize one straight-line function.

        The input function is never mutated; a canonicalized working
        copy is returned in the result.  Behaviour, span structure, and
        output are identical to the historical monolithic
        ``vectorize()`` (differential-tested).
        """
        obs_on = tracer is not None or counters is not None
        if tracer is None:
            tracer = NULL_TRACER
        if counters is None:
            counters = NULL_COUNTERS
        with tracer.span("vectorize", function=function.name,
                         beam_width=self.beam_width) as root_span:
            if self._trace_target_build:
                # First use of a target builds its whole description
                # (the offline phase: artifact load, or pseudocode ->
                # VIDL -> patterns); later uses hit the registry cache.
                # Traced so bench wall times are attributable.
                with tracer.span("target_build"):
                    target_desc = self.target
            else:
                target_desc = self.target
            if root_span is not None:
                root_span.meta["target"] = target_desc.name
            work = clone_function(function)
            state = PipelineState(
                work, target_desc,
                cost_model=self.cost_model,
                config=self._resolve_config(),
                tracer=tracer, counters=counters,
            )
            self.pipeline.run(state)
            if state.program is None:
                # Custom pipelines may omit codegen; complete the run so
                # every result carries a costed program.
                from repro.passes import CodegenPass

                CodegenPass().run(state)
            result = VectorizationResult(
                function=work,
                program=state.program,
                packs=state.packs,
                scalar_cost=state.scalar_cost,
                cost=state.cost,
                estimated_cost=state.estimated_cost,
                diagnostics=state.diagnostics,
                verification=state.verification,
                target=target_desc,
            )
            if obs_on:
                result.trace = root_span  # None when only counters on
                result.counters = counters if counters.enabled else None
        return result

    def vectorize_many(self, functions: Iterable, tracer=None,
                       counters: Optional[Counters] = None,
                       counters_list: Optional[Sequence[Counters]] = None,
                       ) -> List[VectorizationResult]:
        """Vectorize a batch of functions, sharing the session's target
        and pipeline; results are returned in input order.

        ``counters_list`` gives each function its own
        :class:`~repro.obs.counters.Counters` registry (one per input,
        same order) instead of the shared ``counters`` — the compile
        server batches requests through here and must report per-request
        counters that are identical whether or not a request rode a
        batch.
        """
        if counters_list is not None:
            functions = list(functions)
            if len(counters_list) != len(functions):
                raise ValueError(
                    f"counters_list has {len(counters_list)} entries "
                    f"for {len(functions)} functions"
                )
            return [self.vectorize(fn, tracer=tracer, counters=ctrs)
                    for fn, ctrs in zip(functions, counters_list)]
        return [self.vectorize(fn, tracer=tracer, counters=counters)
                for fn in functions]

    def __repr__(self) -> str:
        target = (self._target_desc.name if self._target_desc is not None
                  else self._target_spec)
        return (f"<VectorizationSession target={target} "
                f"beam_width={self.beam_width} "
                f"passes=[{', '.join(self.pipeline.names)}]>")


def vectorize_many(
    functions: Sequence,
    target: Union[str, TargetDesc] = "avx2",
    **session_kwargs,
) -> List[VectorizationResult]:
    """Batch entry point: one session, many functions."""
    session = VectorizationSession(target=target, **session_kwargs)
    return session.vectorize_many(functions)
