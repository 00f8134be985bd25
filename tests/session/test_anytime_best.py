"""Best-result anytime codegen: a plateau stop ships the best-seen selection.

The runner snapshots the best in-loop ``ExtractionResult`` (not just its
cost); the extraction stage rebases it onto the final e-graph and ships it
when it beats the final greedy extraction.  Greedy DAG extraction can
regress as the e-graph grows, so without the snapshot a plateau stop could
generate *worse* code than the loop had already proven reachable.
"""

import pytest

from repro.benchsuite.npb.lu import LU_JACLD_SOURCE
from repro.cost import AccSaturatorCostModel
from repro.egraph import EGraph, ExtractionResult, Runner, RunnerLimits, extract_best
from repro.egraph.language import op, sym
from repro.egraph.runner import AnytimeExtraction
from repro.rules import default_ruleset
from repro.saturator import SaturatorConfig, Variant, optimize_source
from repro.session import MemoryCache, OptimizationSession
from repro.session import stages as stages_module
from repro.session.stages import (
    EGraphBuildStage,
    ExtractionStage,
    FrontendStage,
    SaturationStage,
    StageContext,
    run_stages,
)

ANYTIME_CONFIG = SaturatorConfig(
    variant=Variant.CSE_SAT,
    limits=RunnerLimits(1500, 5, 300.0),
    anytime_extraction=True,
    plateau_patience=2,
)

KERNEL = (
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = b[i] * c[i] + b[i] * c[i] + c[i]; }"
)


def _bench_egraph():
    eg = EGraph()
    term = op("+", op("*", sym("a"), sym("b")), op("*", sym("a"), sym("b")))
    root = eg.add_term(term)
    eg.rebuild()
    return eg, root


class TestRunnerSnapshot:
    def test_keep_best_records_the_best_in_loop_result(self):
        eg, root = _bench_egraph()
        hook = AnytimeExtraction(
            roots=[root], cost_model=AccSaturatorCostModel(),
            interval=1, patience=10**6,
        )
        runner = Runner(eg, default_ruleset(), RunnerLimits(500, 4, 300.0),
                        anytime=hook)
        report = runner.run()
        costs = [it.extracted_cost for it in report.iterations
                 if it.extracted_cost is not None]
        assert costs, "anytime extraction must have evaluated"
        assert hook.best_result is not None
        assert hook.best_result.dag_cost == min(costs)

    def test_snapshot_resets_between_runs(self):
        eg, root = _bench_egraph()
        hook = AnytimeExtraction(
            roots=[root], cost_model=AccSaturatorCostModel(),
            interval=1, patience=10**6,
        )
        runner = Runner(eg, default_ruleset(), RunnerLimits(500, 4, 300.0),
                        anytime=hook)
        runner.run()
        first = hook.best_result
        assert first is not None
        runner2 = Runner(eg, default_ruleset(), RunnerLimits(500, 1, 300.0),
                         anytime=hook)
        runner2.run()
        assert hook.best_result is not first or hook.best_result is None


def _staged_context(config):
    from repro.frontend.parser import parse_statement
    from repro.frontend.normalize import normalize_blocks
    from repro.saturator.kernel import find_parallel_kernels

    root = parse_statement(KERNEL)
    normalize_blocks(root)
    kernel = find_parallel_kernels(root)[0]
    return StageContext(body=kernel.body, config=config, name="k")


class TestExtractionStageSelection:
    def test_snapshot_ships_when_it_beats_the_final_extraction(self, monkeypatch):
        ctx = _staged_context(ANYTIME_CONFIG)
        run_stages(ctx, (FrontendStage(), EGraphBuildStage(), SaturationStage()))
        assert ctx.anytime.best_result is not None

        sentinel = ExtractionResult({}, -1.0, 0.0, "dag-greedy")

        def fake_resolve(egraph, result, roots, cost_model):
            assert result is ctx.anytime.best_result
            return sentinel

        monkeypatch.setattr(stages_module, "resolve_result", fake_resolve)
        ExtractionStage().run(ctx)
        assert ctx.extraction is sentinel
        assert ctx.report.extracted_cost == -1.0

    def test_final_extraction_kept_when_snapshot_resolution_fails(self, monkeypatch):
        ctx = _staged_context(ANYTIME_CONFIG)
        run_stages(ctx, (FrontendStage(), EGraphBuildStage(), SaturationStage()))
        monkeypatch.setattr(
            stages_module, "resolve_result", lambda *args: None
        )
        ExtractionStage().run(ctx)
        assert ctx.extraction is not None
        assert ctx.extraction.dag_cost == ctx.report.extracted_cost

    def test_final_extraction_kept_when_it_is_at_least_as_good(self):
        ctx = _staged_context(ANYTIME_CONFIG)
        run_stages(ctx, (FrontendStage(), EGraphBuildStage(), SaturationStage(),
                         ExtractionStage()))
        costs = [it.extracted_cost
                 for it in ctx.report.runner.iterations
                 if it.extracted_cost is not None]
        # the shipped cost is never worse than the best the loop observed
        assert ctx.report.extracted_cost <= min(costs) + 1e-9


class TestEndToEnd:
    @pytest.mark.parametrize("source", [KERNEL, LU_JACLD_SOURCE])
    def test_shipped_cost_never_worse_than_the_loop_best(self, source):
        result = optimize_source(source, ANYTIME_CONFIG)
        for kernel in result.kernels:
            costs = [it.extracted_cost for it in kernel.runner.iterations
                     if it.extracted_cost is not None]
            if costs:
                assert kernel.extracted_cost <= min(costs) + 1e-9

    def test_anytime_pipeline_is_deterministic(self):
        first = optimize_source(LU_JACLD_SOURCE, ANYTIME_CONFIG)
        second = optimize_source(LU_JACLD_SOURCE, ANYTIME_CONFIG)
        assert first.code == second.code
        assert [k.extracted_cost for k in first.kernels] == [
            k.extracted_cost for k in second.kernels
        ]

    def test_anytime_cache_hit_equals_cold_run(self):
        session = OptimizationSession(config=ANYTIME_CONFIG, cache=MemoryCache())
        cold = session.run(LU_JACLD_SOURCE)
        hit = session.run(LU_JACLD_SOURCE)
        assert session.cache.stats.hits == 1
        assert hit.code == cold.code
        assert [k.extracted_cost for k in hit.kernels] == [
            k.extracted_cost for k in cold.kernels
        ]
