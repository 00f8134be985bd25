"""Whole-source driver: parse, optimize every kernel, regenerate C."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.frontend import cast as C
from repro.frontend.lexer import LexerError
from repro.frontend.normalize import normalize_blocks
from repro.frontend.parser import ParseError, parse, parse_statement
from repro.frontend.printer import print_c
from repro.saturator.config import SaturatorConfig
from repro.saturator.kernel import find_parallel_kernels
from repro.saturator.pipeline import optimize_loop_body
from repro.saturator.report import OptimizationResult

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.egraph.runner import CancellationToken, IterationCallback
    from repro.session.stages import FaultHook, Stage

__all__ = ["optimize_source", "optimize_ast"]


def optimize_ast(
    root: C.Node,
    config: Optional[SaturatorConfig] = None,
    name_prefix: str = "kernel",
    stages: Optional[Sequence["Stage"]] = None,
    on_iteration: Optional["IterationCallback"] = None,
    cancellation: Optional["CancellationToken"] = None,
    fault_hook: Optional["FaultHook"] = None,
    tracer=None,
    trace_parent=None,
) -> OptimizationResult:
    """Optimize every kernel found under *root*, mutating the AST.

    ``on_iteration`` streams per-iteration saturation progress from every
    kernel's runner, in kernel order (see
    :class:`~repro.egraph.runner.Runner`); ``cancellation`` is shared by
    every kernel's saturation loop — once tripped, each remaining kernel
    either degrades to its anytime snapshot or raises (see
    :class:`~repro.session.stages.SaturationStage`).
    """

    config = config or SaturatorConfig()
    normalize_blocks(root)
    kernels = find_parallel_kernels(root, name_prefix)
    reports = []
    for kernel in kernels:
        kernel_span = None
        if tracer is not None:
            kernel_span = tracer.span(
                "kernel", parent=trace_parent, name=kernel.name
            )
        try:
            report = optimize_loop_body(
                kernel.body, config, kernel.name, stages,
                on_iteration=on_iteration,
                cancellation=cancellation,
                fault_hook=fault_hook,
                tracer=tracer,
                trace_parent=None if kernel_span is None else kernel_span.span_id,
            )
        except BaseException as exc:
            if kernel_span is not None:
                kernel_span.end(error=type(exc).__name__)
            raise
        if kernel_span is not None:
            kernel_span.end(
                extracted_cost=report.extracted_cost,
                degraded=report.degraded,
            )
        reports.append(report)
    return OptimizationResult(
        code=print_c(root),
        kernels=reports,
        variant=config.variant.value,
    )


def optimize_source(
    source: str,
    config: Optional[SaturatorConfig] = None,
    name_prefix: str = "kernel",
    on_iteration: Optional["IterationCallback"] = None,
    cancellation: Optional["CancellationToken"] = None,
    fault_hook: Optional["FaultHook"] = None,
    tracer=None,
    trace_parent=None,
) -> OptimizationResult:
    """Optimize OpenACC/OpenMP C *source* and return the regenerated code.

    The input may be a whole translation unit (functions and globals) or a
    bare statement/loop nest, which is how the benchmark suite stores its
    kernels.  Only the frontend's own error types trigger the
    bare-statement retry — anything else (an analysis bug, a pipeline
    crash) propagates so real defects are never masked by the fallback.
    """

    config = config or SaturatorConfig()
    root: C.Node
    try:
        root = parse(source)
        if not root.decls:
            root = parse_statement(source)
    except (LexerError, ParseError):
        root = parse_statement(source)
    return optimize_ast(
        root, config, name_prefix,
        on_iteration=on_iteration,
        cancellation=cancellation,
        fault_hook=fault_hook,
        tracer=tracer,
        trace_parent=trace_parent,
    )
