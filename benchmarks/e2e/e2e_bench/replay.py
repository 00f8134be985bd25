"""``optimize_source`` replayed from outside, one span per layer boundary.

The traced compile rounds cannot see inside ``optimize_source``, so they
call the same public functions it calls, in the same order, and time each
call.  The result must be byte-identical to ``optimize_source`` (the check
phase and the smoke test compare them); if the driver gains a step this
replay lacks, that comparison is what fails.
"""

from __future__ import annotations

from typing import Tuple

from repro.frontend.lexer import LexerError
from repro.frontend.normalize import normalize_blocks
from repro.frontend.parser import ParseError, parse, parse_statement
from repro.frontend.printer import print_c
from repro.saturator import OptimizationResult, SaturatorConfig
from repro.saturator.kernel import find_parallel_kernels
from repro.session.stages import DEFAULT_STAGES, StageContext

from e2e_bench.spans import Recorder

__all__ = ["STAGE_SPAN", "replay_optimize_source"]

#: Pipeline stage name -> span name (layer = module that does the work;
#: the ``frontend`` stage is block normalisation plus the SSA build).
STAGE_SPAN = {
    "frontend": "ssa.build",
    "egraph": "egraph.build",
    "saturate": "egraph.saturate",
    "extract": "extract.select",
    "codegen": "codegen.generate",
}


def replay_optimize_source(
    source: str,
    config: SaturatorConfig,
    name_prefix: str,
    recorder: Recorder,
    request: str,
) -> Tuple[OptimizationResult, int]:
    """Staged replay; returns the result and the e-nodes after the build stage."""

    build_nodes = 0
    with recorder.span("frontend.parse", request):
        try:
            root = parse(source)
            if not root.decls:
                root = parse_statement(source)
        except (LexerError, ParseError):
            root = parse_statement(source)
    with recorder.span("frontend.normalize", request):
        normalize_blocks(root)
    with recorder.span("saturator.find_kernels", request):
        kernels = find_parallel_kernels(root, name_prefix)
    reports = []
    for kernel in kernels:
        with recorder.span("frontend.normalize", request):
            normalize_blocks(kernel.innermost)
        ctx = StageContext(body=kernel.body, config=config, name=kernel.name)
        for stage in DEFAULT_STAGES:
            stage.check(ctx)
            with recorder.span(STAGE_SPAN[stage.name], request):
                stage.run(ctx)
            if stage.name == "egraph":
                build_nodes += len(ctx.egraph)
        reports.append(ctx.report)
    with recorder.span("frontend.print", request):
        code = print_c(root)
    result = OptimizationResult(
        code=code, kernels=reports, variant=config.variant.value
    )
    return result, build_nodes
