"""Ablation — rule-set and extraction-method sensitivity (DESIGN.md §5).

Not a table in the paper, but it quantifies two design choices the paper
discusses: restricting the rule set to Table I (larger sets blow up the
e-graph, §V-A) and extracting with an exact ILP versus a greedy heuristic
(§IV-B).
"""

import pytest

from repro.benchsuite.npb.bt import BT_JACOBIAN_SOURCE
from repro.egraph.runner import RunnerLimits
from repro.saturator import SaturatorConfig, Variant, optimize_source

LIMITS = RunnerLimits(2000, 4, 5.0)


@pytest.mark.parametrize("ruleset", ["none", "fma-only", "reassoc-only", "default", "extended"])
def test_ablation_ruleset_size(benchmark, ruleset):
    config = SaturatorConfig(variant=Variant.CSE_SAT, ruleset=ruleset, limits=LIMITS)
    result = benchmark(optimize_source, BT_JACOBIAN_SOURCE, config)
    report = result.kernels[0]
    print(f"\nruleset={ruleset:13s} e-nodes={report.egraph_nodes:6d} "
          f"cost={report.extracted_cost:8.0f} instr={report.optimized.instructions}")
    assert report.egraph_nodes > 0


@pytest.mark.parametrize("extraction", ["dag-greedy", "ilp"])
def test_ablation_extraction_method(benchmark, extraction):
    source = """
#pragma acc parallel loop gang
for (i = 0; i < n; i++) {
#pragma acc loop vector
  for (j = 0; j < m; j++) {
    t1 = a[i][j] * b[i][j];
    c[i][j] = t1 + a[i][j] * d[i][j];
    e[i][j] = t1 - b[i][j] * d[i][j];
  }
}
"""
    config = SaturatorConfig(variant=Variant.ACCSAT, extraction=extraction, limits=LIMITS)
    result = benchmark(optimize_source, source, config)
    report = result.kernels[0]
    print(f"\nextraction={extraction:10s} cost={report.extracted_cost:8.0f} "
          f"time={report.extraction_time * 1e3:6.1f} ms")
    assert report.extracted_cost > 0
