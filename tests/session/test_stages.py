"""Stage composition: contracts, timing, and extensibility."""

import pytest

from repro.frontend import parse_statement
from repro.saturator import SaturatorConfig, Variant, find_parallel_kernels
from repro.saturator.pipeline import optimize_loop_body
from repro.session import (
    DEFAULT_STAGES,
    CodegenStage,
    EGraphBuildStage,
    ExtractionStage,
    FrontendStage,
    SaturationStage,
    Stage,
    StageContext,
    StageError,
    run_stages,
)

SOURCE = """
#pragma acc parallel loop gang
for (int i = 0; i < n; i++) {
#pragma acc loop vector
  for (int j = 0; j < m; j++) {
    out[i][j] = a * in[i][j] + b * in[i][j];
  }
}
"""


def _body():
    root = parse_statement(SOURCE)
    return find_parallel_kernels(root)[0].body


def _context(variant=Variant.ACCSAT):
    return StageContext(body=_body(), config=SaturatorConfig(variant=variant))


class TestDefaultPipeline:
    def test_stage_names_and_order(self):
        assert [s.name for s in DEFAULT_STAGES] == [
            "frontend", "egraph", "saturate", "extract", "codegen",
        ]

    def test_run_stages_fills_every_artifact_and_timing(self):
        ctx = run_stages(_context())
        assert ctx.ssa is not None
        assert ctx.egraph is not None
        assert ctx.extraction is not None
        assert ctx.report.optimized.temporaries > 0
        assert set(ctx.stage_times) == {s.name for s in DEFAULT_STAGES}
        report = ctx.report
        assert report.saturation_time == ctx.stage_times["saturate"]
        assert report.extraction_time == ctx.stage_times["extract"]
        expected = sum(
            t for name, t in ctx.stage_times.items()
            if name not in ("saturate", "extract")
        )
        assert report.ssa_codegen_time == pytest.approx(expected)

    def test_non_saturating_variant_reports_zero_saturation_time(self):
        ctx = run_stages(_context(Variant.CSE))
        assert ctx.report.runner is None
        assert ctx.report.saturation_time == 0.0
        assert ctx.report.egraph_nodes > 0  # bookkeeping still recorded


class TestContracts:
    def test_stage_requires_check(self):
        ctx = _context()
        with pytest.raises(StageError, match="requires 'ssa'"):
            run_stages(ctx, [EGraphBuildStage()])

    def test_codegen_requires_extraction(self):
        ctx = _context()
        with pytest.raises(StageError):
            run_stages(ctx, [FrontendStage(), EGraphBuildStage(), CodegenStage()])


class _CountClasses(Stage):
    """A custom stage splicing diagnostics between saturation and extraction."""

    name = "count-classes"
    requires = ("egraph",)

    def __init__(self):
        self.seen = []

    def run(self, ctx):
        self.seen.append(ctx.egraph.num_classes)


class TestExtensibility:
    def test_custom_stage_runs_in_sequence_and_is_timed(self):
        probe = _CountClasses()
        stages = (
            FrontendStage(),
            EGraphBuildStage(),
            SaturationStage(),
            probe,
            ExtractionStage(),
            CodegenStage(),
        )
        ctx = run_stages(_context(), stages)
        assert probe.seen and probe.seen[0] == ctx.report.egraph_classes
        assert "count-classes" in ctx.stage_times
        # custom stages count toward the SSA/codegen bucket
        assert ctx.report.ssa_codegen_time >= ctx.stage_times["count-classes"]

    def test_optimize_loop_body_accepts_a_stage_list(self):
        probe = _CountClasses()
        stages = DEFAULT_STAGES[:3] + (probe,) + DEFAULT_STAGES[3:]
        report = optimize_loop_body(_body(), SaturatorConfig(), stages=stages)
        assert probe.seen
        assert report.optimized.loads > 0

    def test_stageless_call_matches_default_stage_tuple(self):
        r1 = optimize_loop_body(_body(), SaturatorConfig())
        r2 = optimize_loop_body(_body(), SaturatorConfig(), stages=DEFAULT_STAGES)
        assert r1.optimized == r2.optimized
        assert r1.extracted_cost == r2.extracted_cost


class _RecordExtractTime(Stage):
    """A probe between saturation and extraction: the runner's extract time."""

    name = "record-extract-time"
    requires = ("egraph",)

    def __init__(self):
        self.seen = []

    def run(self, ctx):
        self.seen.append(ctx.report.runner.extract_time)


class TestExtractPhaseTime:
    def test_reused_anytime_result_adds_no_extract_time(self, monkeypatch):
        """The runner already timed the in-loop evaluation the final
        extraction reuses; the extraction stage must not count it again."""

        from repro.session import stages as stages_module

        calls = []
        extract_best = stages_module.extract_best
        monkeypatch.setattr(
            stages_module, "extract_best",
            lambda *args, **kw: calls.append(args) or extract_best(*args, **kw),
        )
        config = SaturatorConfig(anytime_extraction=True, plateau_patience=1)
        probe = _RecordExtractTime()
        stages = (
            FrontendStage(),
            EGraphBuildStage(),
            SaturationStage(),
            probe,
            ExtractionStage(),
        )
        ctx = run_stages(
            StageContext(body=_body(), config=config, name="k"), stages
        )
        assert probe.seen[0] > 0.0
        assert ctx.report.runner.extract_time == probe.seen[0]
        # the loop evaluated at its last iteration (interval 1), so the
        # stage reused that result instead of extracting again
        assert ctx.report.runner.iterations[-1].extracted_cost is not None
        assert calls == []
