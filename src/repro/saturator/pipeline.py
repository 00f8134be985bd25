"""The per-kernel optimization pipeline (paper §III, steps 1–3).

The pipeline is a composition of the typed stages defined in
:mod:`repro.session.stages` — frontend/SSA, e-graph build, saturation,
extraction, code generation — run over a :class:`StageContext` that
carries the per-kernel artifacts between them.  :func:`optimize_loop_body`
is the classic entry point: it builds the context, runs the default stage
tuple (or a caller-supplied one, which is how new stages are spliced in),
and returns the generated-kernel summary plus the per-kernel report.

Whole-source callers that want artifact caching should go through
:class:`repro.session.OptimizationSession` (concurrent ones through
:class:`repro.service.OptimizationService`); this module stays the single
place where the stage order is defined for a cold run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.codegen.generator import GeneratedKernel
from repro.egraph.extract import ExtractionMemo
from repro.egraph.runner import CancellationToken, IterationCallback
from repro.frontend import cast as C
from repro.frontend.normalize import normalize_blocks
from repro.saturator.config import SaturatorConfig
from repro.saturator.kernel import ParallelKernel
from repro.saturator.report import KernelReport

if TYPE_CHECKING:  # pragma: no cover - imported lazily to break the cycle
    from repro.session.stages import FaultHook, Stage

__all__ = ["optimize_kernel", "optimize_loop_body"]


def optimize_loop_body(
    body: C.Block,
    config: Optional[SaturatorConfig] = None,
    name: str = "kernel",
    stages: Optional[Sequence["Stage"]] = None,
    extraction_memo: Optional[ExtractionMemo] = None,
    on_iteration: Optional[IterationCallback] = None,
    cancellation: Optional[CancellationToken] = None,
    fault_hook: Optional["FaultHook"] = None,
    tracer=None,
    trace_parent=None,
) -> Tuple[GeneratedKernel, KernelReport]:
    """Optimize the body of one innermost parallel loop, in place.

    Returns the generated-kernel summary and the per-kernel report.  The
    *body* block is mutated (right-hand sides rewritten, temporaries
    inserted); callers that need the original must clone it first.

    ``stages`` overrides the default stage tuple (see
    :data:`repro.session.stages.DEFAULT_STAGES`); ``extraction_memo``
    shares extraction DP state across repeated runs on one e-graph;
    ``on_iteration`` streams per-iteration saturation progress (see
    :class:`~repro.egraph.runner.Runner`); ``cancellation`` threads a
    deadline/cancel token into the saturation loop; ``fault_hook`` is the
    fault-injection hook called at stage boundaries.
    """

    # deferred: repro.session.stages imports this package's config/report
    # modules, and importing either package must not require the other to
    # be fully initialized
    from repro.session.stages import StageContext, run_stages

    ctx = StageContext(
        body=body,
        config=config or SaturatorConfig(),
        name=name,
        extraction_memo=extraction_memo,
        on_iteration=on_iteration,
        cancellation=cancellation,
        fault_hook=fault_hook,
        tracer=tracer,
        trace_span=trace_parent,
    )
    run_stages(ctx, stages)
    return ctx.generated, ctx.report


def optimize_kernel(
    kernel: ParallelKernel,
    config: Optional[SaturatorConfig] = None,
    stages: Optional[Sequence["Stage"]] = None,
    on_iteration: Optional[IterationCallback] = None,
    cancellation: Optional[CancellationToken] = None,
    fault_hook: Optional["FaultHook"] = None,
    tracer=None,
    trace_parent=None,
) -> Tuple[GeneratedKernel, KernelReport]:
    """Optimize one discovered kernel in place (see :func:`optimize_loop_body`)."""

    config = config or SaturatorConfig()
    normalize_blocks(kernel.innermost)
    return optimize_loop_body(
        kernel.body, config, kernel.name, stages,
        on_iteration=on_iteration,
        cancellation=cancellation,
        fault_hook=fault_hook,
        tracer=tracer,
        trace_parent=trace_parent,
    )
