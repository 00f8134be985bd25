"""Typed, composable stages of the per-kernel optimization pipeline.

The monolithic ``optimize_loop_body`` of early versions is decomposed into
five stages, each a small object that reads and writes well-known slots of
a shared :class:`StageContext`:

========== ===================== ==========================================
stage      requires              provides
========== ===================== ==========================================
frontend   ``body``              ``ssa`` (normalized AST, SSA form)
egraph     ``ssa``               ``egraph``, ``root_of``, ``store_class_of``
saturate   ``egraph``            ``report.runner`` (when the variant saturates)
extract    ``egraph``            ``extraction``
codegen    ``extraction``        ``report.optimized`` (``body`` rewritten)
========== ===================== ==========================================

:func:`run_stages` executes a stage list over a context, verifies the
``requires`` contract, and records per-stage wall-clock times in
``ctx.stage_times``; the classic report fields (``ssa_codegen_time``,
``saturation_time``, ``extraction_time``) are derived from those times so
the staged pipeline reports exactly what the monolithic one did.

Adding a stage is three steps: subclass :class:`Stage` (set ``name``,
``requires`` and ``run``), splice an instance into a stage tuple, and pass
that tuple to ``optimize_loop_body(stages=...)`` or
``optimize_ast(stages=...)``.  Sessions and the service always run the
default tuple, which is what their cache key assumes.  Stages are
stateless — per-kernel state lives only in the context — so one stage
instance can serve any number of concurrent kernels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.codegen.generator import CodeGenerator, count_ast_stats
from repro.cost import AccSaturatorCostModel
from repro.egraph.egraph import EGraph
from repro.egraph.extract import ExtractionResult, extract_best, resolve_result
from repro.egraph.runner import (
    AnytimeExtraction,
    CancellationToken,
    IterationCallback,
    Runner,
    StopReason,
)
from repro.frontend import cast as C
from repro.frontend.normalize import normalize_blocks
from repro.rules import constant_folding_analysis, ruleset_by_name
from repro.saturator.config import SaturatorConfig
from repro.saturator.report import KernelReport
from repro.ssa import KernelSSA, build_ssa

__all__ = [
    "CodegenStage",
    "DEFAULT_STAGES",
    "EGraphBuildStage",
    "ExtractionStage",
    "FaultHook",
    "FrontendStage",
    "SaturationCancelled",
    "SaturationStage",
    "Stage",
    "StageContext",
    "StageError",
    "run_stages",
]

#: Fault-injection hook: called with a site name (``"stage:<name>"`` from
#: :func:`run_stages`; the cache and service layers use their own site
#: names).  A no-op in production; the fault harness raises from it.
FaultHook = Callable[[str], None]


class StageError(RuntimeError):
    """A stage ran before one of its required artifacts was produced."""


class SaturationCancelled(RuntimeError):
    """The cancellation token was explicitly cancelled mid-saturation."""


@dataclass
class StageContext:
    """Mutable state threaded through the stage pipeline for one kernel."""

    #: Body of the innermost parallel loop (mutated by code generation).
    body: C.Block
    config: SaturatorConfig
    name: str = "kernel"
    #: Per-kernel statistics, named after the kernel: each stage replaces
    #: this frozen report with a copy that adds its fields, so it is
    #: complete after every stage.
    report: KernelReport = field(init=False)
    # -- artifacts -----------------------------------------------------------
    ssa: Optional[KernelSSA] = None
    egraph: Optional[EGraph] = None
    #: SSA id -> e-class of the assignment's value / its store expression.
    root_of: Dict[int, int] = field(default_factory=dict)
    store_class_of: Dict[int, int] = field(default_factory=dict)
    extraction: Optional[ExtractionResult] = None
    #: Progress hook handed to the saturation loop (see
    #: :class:`~repro.egraph.runner.Runner`); not part of the cache
    #: fingerprint — it observes the run, it never changes its outcome.
    on_iteration: Optional[IterationCallback] = None
    #: Cooperative cancellation/deadline token threaded into the
    #: saturation loop; like ``on_iteration`` it is not part of the cache
    #: fingerprint — a degraded result is never cached (see
    #: :meth:`~repro.session.session.OptimizationSession.run_detailed`).
    cancellation: Optional[CancellationToken] = None
    #: Fault-injection hook called at stage boundaries (``"stage:<name>"``);
    #: ``None`` in production.  See :mod:`repro.service.faults`.
    fault_hook: Optional[FaultHook] = None
    #: Optional :class:`repro.obs.Tracer` — strictly observational, like
    #: ``on_iteration``: never part of the cache fingerprint; traced and
    #: untraced runs produce byte-identical artifacts.
    tracer: Optional[object] = None
    #: Parent span id for this kernel's stage spans (set by the caller);
    #: :func:`run_stages` re-points it at each running stage's span so the
    #: saturation loop's iteration spans nest under ``stage:saturate``.
    trace_span: Optional[str] = None
    #: The anytime-extraction hook the saturation loop ran with (set by
    #: :class:`SaturationStage`); its ``best_result`` is the best in-loop
    #: snapshot, whose class ids are canonical at the iteration that
    #: produced it, so consumers rebase them with
    #: :func:`~repro.egraph.extract.resolve_result`.
    anytime: Optional[AnytimeExtraction] = None
    #: Wall-clock seconds per stage name (accumulated by :func:`run_stages`).
    stage_times: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.report = KernelReport(name=self.name)


class Stage:
    """One step of the pipeline; subclasses override :meth:`run`."""

    #: Stage name (also the cache-key stage component and timing key).
    name: str = "stage"
    #: Context attributes that must be non-None before this stage runs.
    requires: Tuple[str, ...] = ()

    def run(self, ctx: StageContext) -> None:
        raise NotImplementedError

    def check(self, ctx: StageContext) -> None:
        for attr in self.requires:
            if getattr(ctx, attr) is None:
                raise StageError(
                    f"stage {self.name!r} requires {attr!r}, which no earlier "
                    f"stage produced"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.name!r}>"


class FrontendStage(Stage):
    """Normalize the loop body and build its SSA form."""

    name = "frontend"
    requires = ("body",)

    def run(self, ctx: StageContext) -> None:
        normalize_blocks(ctx.body)
        original = count_ast_stats(ctx.body)
        ctx.ssa = build_ssa(ctx.body)
        ctx.report = replace(
            ctx.report,
            original=original,
            assignments=ctx.ssa.num_assignments,
            groups=len(ctx.ssa.groups),
        )


class EGraphBuildStage(Stage):
    """Pack every SSA assignment into a fresh e-graph (this alone is CSE).

    The SSA builder shares sub-terms by object identity, mostly *across*
    assignments (a later statement's term contains the earlier statement's
    value term itself, not a copy), so one identity memo serves every
    :meth:`~repro.egraph.egraph.EGraph.add_term` call of the kernel: the
    build interns each distinct term object once and is linear in the SSA
    DAG, not in the trees it spells.  The memo is a local of this method —
    it is never stored on the e-graph or the context, so it is neither
    pickled nor cached.
    """

    name = "egraph"
    requires = ("ssa",)

    def run(self, ctx: StageContext) -> None:
        analysis = (
            constant_folding_analysis() if ctx.config.constant_folding else None
        )
        egraph = EGraph(analysis)
        interned: Dict[int, Tuple[object, int]] = {}
        for info in ctx.ssa.all_assignments():
            if info.term is None:
                continue
            ctx.root_of[info.ssa_id] = egraph.add_term(info.term, interned)
            if info.store_term is not None:
                ctx.store_class_of[info.ssa_id] = egraph.add_term(
                    info.store_term, interned
                )
        egraph.rebuild()
        ctx.egraph = egraph


class SaturationStage(Stage):
    """Equality saturation (CSE+SAT / ACCSAT variants only).

    The saturation loop is driven by the rule scheduler named in
    ``config.scheduler``; with ``config.anytime_extraction`` the runner
    additionally extracts in-loop every ``config.anytime_interval``
    iterations and stops on a ``config.plateau_patience`` cost plateau.
    The hook is kept in ``ctx.anytime`` for :class:`ExtractionStage`.

    A :attr:`~repro.egraph.runner.StopReason.DEADLINE` stop — the job's
    deadline or the ``time_limit`` budget — **degrades**: the loop stopped
    at an iteration boundary with the e-graph canonical, so extraction and
    codegen proceed normally and the artifact is byte-identical to an
    iteration-limit stop at that boundary, only flagged
    ``report.degraded`` (and never cached).  A cancelled run raises
    :class:`SaturationCancelled`.
    """

    name = "saturate"
    requires = ("egraph",)

    def run(self, ctx: StageContext) -> None:
        config = ctx.config
        saturated = {}
        if config.variant.saturate:
            rules = ruleset_by_name(config.ruleset)
            anytime = None
            if config.anytime_extraction:
                roots = list(ctx.root_of.values())
                if roots:
                    anytime = AnytimeExtraction(
                        roots=roots,
                        cost_model=AccSaturatorCostModel(),
                        method=config.extraction,
                        interval=config.anytime_interval,
                        patience=config.plateau_patience,
                        time_limit=config.extraction_time_limit,
                    )
            runner = Runner(
                ctx.egraph, rules, config.limits,
                scheduler=config.scheduler,
                anytime=anytime,
                on_iteration=ctx.on_iteration,
                cancellation=ctx.cancellation,
                tracer=ctx.tracer,
                trace_parent=ctx.trace_span,
            )
            runner_report = runner.run()
            ctx.anytime = anytime
            stop = runner_report.stop_reason
            if stop is StopReason.CANCELLED:
                raise SaturationCancelled(
                    f"kernel {ctx.name!r} cancelled mid-saturation"
                )
            saturated = {
                "runner": runner_report,
                "degraded": stop is StopReason.DEADLINE,
            }
        ctx.report = replace(
            ctx.report,
            egraph_nodes=len(ctx.egraph),
            egraph_classes=ctx.egraph.num_classes,
            **saturated,
        )


class ExtractionStage(Stage):
    """Extract the minimum-cost DAG under the paper's cost model.

    When the saturation loop ran with anytime extraction (``ctx.anytime``),
    the stage reuses the hook's last in-loop result if the e-graph's
    version has not moved since it was taken — the loop stopped right
    after an evaluation — instead of extracting again, and it also
    considers the **best in-loop snapshot**: greedy DAG extraction can
    regress as the e-graph grows, so the selection at an earlier
    iteration boundary may beat the final one.  The snapshot is rebased
    onto the final e-graph (class ids re-resolved against later merges —
    :func:`~repro.egraph.extract.resolve_result`) and shipped whenever its
    re-priced DAG cost strictly beats the final extraction; a snapshot the
    merges invalidated falls back to the final extraction.  Both
    candidates are pure functions of (source, config), so the choice
    between them is too.
    """

    name = "extract"
    requires = ("egraph",)

    def run(self, ctx: StageContext) -> None:
        config = ctx.config
        cost_model = AccSaturatorCostModel()
        roots = list(ctx.root_of.values())
        anytime = ctx.anytime
        # the extraction time this stage spends; a reused result costs none
        spent = 0.0
        if roots:
            final = None if anytime is None else anytime.result_at(ctx.egraph)
            if final is None:
                final = extract_best(
                    ctx.egraph,
                    roots,
                    cost_model,
                    config.extraction,
                    config.extraction_time_limit,
                )
                spent = final.elapsed
            ctx.extraction = final
            if anytime is not None and anytime.best_result is not None:
                best = resolve_result(
                    ctx.egraph, anytime.best_result, roots, cost_model
                )
                if best is not None and best.dag_cost < final.dag_cost - 1e-12:
                    ctx.extraction = best
        else:
            ctx.extraction = ExtractionResult({}, {}, 0.0, 0.0, config.extraction)
        runner = ctx.report.runner
        if runner is not None:
            # complete the runner's search/apply/rebuild phase profile with
            # the extraction time so one report carries the full breakdown:
            # the runner already timed its in-loop evaluations, including
            # the one a reused result came from, so only a fresh final
            # extraction adds here (when the anytime snapshot wins, the
            # final extraction still ran, and its time is what is added)
            runner = replace(runner, extract_time=runner.extract_time + spent)
        ctx.report = replace(
            ctx.report, extracted_cost=ctx.extraction.dag_cost, runner=runner
        )


class CodegenStage(Stage):
    """Regenerate the loop body from the extracted selection."""

    name = "codegen"
    requires = ("egraph", "extraction", "ssa")

    def run(self, ctx: StageContext) -> None:
        optimized = CodeGenerator(
            ctx.egraph,
            ctx.extraction,
            ctx.ssa,
            ctx.root_of,
            ctx.store_class_of,
            bulk_load=ctx.config.variant.bulk_load,
            temp_prefix=ctx.config.temp_prefix,
        ).generate()
        ctx.report = replace(ctx.report, optimized=optimized)


#: The paper's pipeline, in order (§III steps 1-3 plus code generation).
DEFAULT_STAGES: Tuple[Stage, ...] = (
    FrontendStage(),
    EGraphBuildStage(),
    SaturationStage(),
    ExtractionStage(),
    CodegenStage(),
)


def run_stages(
    ctx: StageContext, stages: Optional[Sequence[Stage]] = None
) -> StageContext:
    """Run *stages* (default: the full pipeline) over *ctx*, timing each.

    After the run the classic report timing fields are derived from the
    per-stage times: ``saturation_time`` and ``extraction_time`` map to
    their stages, every other stage (frontend, e-graph build, codegen, any
    custom stage) counts toward ``ssa_codegen_time`` — the same accounting
    the paper uses for its "SSA/codegen" vs "saturation" split.
    """

    tracer = ctx.tracer
    trace_parent = ctx.trace_span
    for stage in (DEFAULT_STAGES if stages is None else stages):
        stage.check(ctx)
        if ctx.fault_hook is not None:
            ctx.fault_hook(f"stage:{stage.name}")
        span = None
        if tracer is not None:
            # span names reuse the fault-hook site strings (the
            # ``stage:`` prefix family of repro.obs.sites), and the
            # running stage's span becomes ``ctx.trace_span`` so child
            # work (the saturation loop's iteration spans) nests under it
            span = tracer.span(
                f"stage:{stage.name}", parent=trace_parent, kernel=ctx.name
            )
            ctx.trace_span = span.span_id
        t0 = time.perf_counter()
        try:
            stage.run(ctx)
        except BaseException as exc:
            if span is not None:
                span.end(error=type(exc).__name__)
                ctx.trace_span = trace_parent
            raise
        elapsed = time.perf_counter() - t0
        if span is not None:
            span.end()
            ctx.trace_span = trace_parent
        ctx.stage_times[stage.name] = ctx.stage_times.get(stage.name, 0.0) + elapsed

    times = ctx.stage_times
    ctx.report = replace(
        ctx.report,
        # a variant that never ran the saturation loop reports exactly
        # 0.0, not the microseconds of stage overhead
        saturation_time=(
            times.get(SaturationStage.name, 0.0)
            if ctx.report.runner is not None
            else 0.0
        ),
        extraction_time=times.get(ExtractionStage.name, 0.0),
        ssa_codegen_time=sum(
            elapsed
            for name, elapsed in times.items()
            if name not in (SaturationStage.name, ExtractionStage.name)
        ),
    )
    return ctx
