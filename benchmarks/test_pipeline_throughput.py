"""Micro-benchmarks of the pipeline stages themselves.

These are engineering benchmarks (not paper figures): they track the cost
of e-graph saturation, extraction and code generation on a representative
kernel so regressions in the reproduction's own performance are visible.
"""

from repro.benchsuite.npb.lu import LU_JACLD_SOURCE
from repro.cost import DEFAULT_COST_MODEL
from repro.egraph import EGraph, Runner, RunnerLimits, extract_best
from repro.egraph.language import op, sym
from repro.frontend import parse_statement
from repro.frontend.normalize import normalize_blocks
from repro.rules import constant_folding_analysis, default_ruleset
from repro.saturator import SaturatorConfig, Variant, optimize_source
from repro.ssa import build_ssa


def test_bench_parse_and_ssa(benchmark):
    from repro.saturator import find_parallel_kernels

    def run():
        root = parse_statement(LU_JACLD_SOURCE)
        normalize_blocks(root)
        kernel = find_parallel_kernels(root)[0]
        return build_ssa(kernel.body)

    ssa = benchmark(run)
    assert ssa.num_assignments > 5


def test_bench_saturation_runner(benchmark):
    def build():
        eg = EGraph(constant_folding_analysis())
        term = sym("x0")
        for i in range(1, 7):
            term = op("+", term, op("*", sym(f"a{i}"), sym(f"b{i}")))
        root = eg.add_term(term)
        return eg, root

    def run():
        eg, root = build()
        Runner(eg, default_ruleset(), RunnerLimits(2000, 5, 5.0)).run()
        return eg, root

    eg, _ = benchmark(run)
    assert len(eg) > 10


def test_bench_rule_search(benchmark):
    """Micro-benchmark of the e-matching engine alone: search every rule of
    the default set against a saturated e-graph (no apply/rebuild)."""

    eg = EGraph(constant_folding_analysis())
    term = sym("x0")
    for i in range(1, 7):
        term = op("+", term, op("*", sym(f"a{i}"), sym(f"b{i}")))
    eg.add_term(term)
    Runner(eg, default_ruleset(), RunnerLimits(2000, 5, 5.0)).run()
    rules = default_ruleset()

    def run():
        return sum(len(rule.search_rows(eg)) for rule in rules)

    total = benchmark(run)
    assert total > 100


def test_bench_extraction(benchmark):
    eg = EGraph(constant_folding_analysis())
    term = sym("x0")
    for i in range(1, 7):
        term = op("+", term, op("*", sym(f"a{i}"), sym(f"b{i}")))
    root = eg.add_term(term)
    Runner(eg, default_ruleset(), RunnerLimits(2000, 5, 5.0)).run()

    result = benchmark(extract_best, eg, [root], DEFAULT_COST_MODEL, "dag-greedy")
    assert result.dag_cost > 0


def test_bench_full_pipeline_accsat(benchmark):
    config = SaturatorConfig(variant=Variant.ACCSAT, limits=RunnerLimits(2000, 4, 5.0))
    result = benchmark(optimize_source, LU_JACLD_SOURCE, config)
    assert result.kernels[0].optimized.temporaries > 0
