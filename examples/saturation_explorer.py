#!/usr/bin/env python3
"""Explore the e-graph machinery directly: rules, saturation, extraction.

A lower-level tour of the substrate underneath the pipeline: build an
e-graph by hand, watch it saturate under the Table I rule set, and compare
the two extraction methods (greedy DAG / ILP) under the paper's cost
model.

Usage::

    python examples/saturation_explorer.py
"""

from repro.cost import DEFAULT_COST_MODEL
from repro.egraph import EGraph, Runner, RunnerLimits, extract_best, extract_terms
from repro.egraph.language import op, sym
from repro.rules import constant_folding_analysis, default_ruleset, ruleset_by_name


def main() -> None:
    # the running example of the paper's Figure 1:
    #   B = D + E;  C = E + D;  A = B * C + A_in
    egraph = EGraph(constant_folding_analysis())
    b = egraph.add_term(op("+", sym("D"), sym("E")))
    c = egraph.add_term(op("+", sym("E"), sym("D")))
    a = egraph.add_term(op("+", op("*", op("+", sym("D"), sym("E")),
                                 op("+", sym("E"), sym("D"))),
                         sym("A_in")))

    print(f"initial e-graph: {len(egraph)} e-nodes, {egraph.num_classes} e-classes")
    print(f"B and C equal before saturation? {egraph.is_equal(b, c)}")

    report = Runner(egraph, default_ruleset(), RunnerLimits(10_000, 10, 10.0)).run()
    print(f"saturation: {report.summary()}")
    print(f"B and C equal after saturation?  {egraph.is_equal(b, c)}")
    print()

    for method in ("dag-greedy", "ilp"):
        result = extract_best(egraph, [a, b, c], DEFAULT_COST_MODEL, method)
        terms = extract_terms(egraph, result.choices, [a])
        print(f"extraction [{method:10s}]  DAG cost {result.dag_cost:7.1f}  "
              f"A := {terms[a]}")
    print()

    # rule-set ablation: how much does each family of rules grow the e-graph?
    for name in ("none", "fma-only", "reassoc-only", "default", "extended"):
        egraph = EGraph(constant_folding_analysis())
        root = egraph.add_term(
            op("+", sym("x"), op("*", sym("y"), op("+", sym("z"), op("*", sym("x"), sym("y")))))
        )
        report = Runner(egraph, ruleset_by_name(name), RunnerLimits(5000, 8, 5.0)).run()
        best = extract_best(egraph, [root], DEFAULT_COST_MODEL, "dag-greedy")
        print(f"ruleset {name:13s}: {len(egraph):5d} e-nodes, "
              f"stop={report.stop_reason.value:10s} best cost {best.dag_cost:6.1f}")


if __name__ == "__main__":
    main()
