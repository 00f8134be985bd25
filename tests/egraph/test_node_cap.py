"""The node limit is enforced per match row.

Contracts pinned here:

* **Bounded overshoot**: the apply loop returns right after the first row
  that leaves the e-graph above ``node_limit``, so the count the apply
  phase hands to ``rebuild`` never exceeds the limit by more than the
  operator-node count of the largest right-hand side — under every
  scheduler.
* **Stop at the tripping boundary**: the iteration that tripped finishes
  (rebuild, ``on_iteration``) and the run stops with ``NODE_LIMIT`` even
  when rebuild's congruence merges shrank the e-graph back under the
  limit; a deadline expired at that boundary still wins.
* **Stamp pinning**: the truncated rule's incremental-scan stamp is not
  advanced, and no later rule is applied.
* **The paper's limits**: ``olbm_collide``, the corpus kernel that hits
  the limit, stops with at most 10 000 e-nodes.
"""

import pytest

from repro.benchsuite.registry import get_benchmark
from repro.egraph.egraph import EGraph
from repro.egraph.language import op, sym
from repro.egraph.pattern import Pattern
from repro.egraph.rewrite import rewrite
from repro.egraph.runner import (
    CancellationToken,
    Runner,
    RunnerLimits,
    StopReason,
)
from repro.rules import default_ruleset
from repro.saturator import SaturatorConfig, Variant, optimize_source


class _RecordingEGraph(EGraph):
    """Records the node count each ``rebuild`` starts from."""

    def __init__(self) -> None:
        super().__init__()
        self.pre_rebuild = []

    def rebuild(self) -> int:
        self.pre_rebuild.append(len(self))
        return super().rebuild()


def _operator_nodes(node) -> int:
    if not isinstance(node, Pattern):
        return 0
    return 1 + sum(_operator_nodes(child) for child in node.children)


def _sum_chain(eg):
    term = op("+", sym("s0"), sym("s1"))
    for i in range(40):
        term = op("+", term, op("*", sym(f"a{i}"), sym(f"b{i % 7}")))
    eg.add_term(term)
    eg.rebuild()
    eg.pre_rebuild.clear()
    return eg


@pytest.mark.parametrize("scheduler", ["simple", "backoff:200:2", "match-budget:64"])
@pytest.mark.parametrize("node_limit", [300, 1000, 2500])
def test_pre_rebuild_count_overshoots_by_at_most_one_row(scheduler, node_limit):
    rules = default_ruleset()
    slack = max(_operator_nodes(rule.applier) for rule in rules)
    eg = _sum_chain(_RecordingEGraph())
    report = Runner(
        eg, rules, RunnerLimits(node_limit=node_limit, iter_limit=20),
        scheduler=scheduler,
    ).run()
    assert report.stop_reason is StopReason.NODE_LIMIT
    assert max(eg.pre_rebuild) > node_limit  # the cap did trip
    assert max(eg.pre_rebuild) <= node_limit + slack
    assert len(eg.pre_rebuild) == len(report.iterations)


def _collapse_graph():
    """70 e-nodes.  ``p=>q`` merges ten ``p``/``q`` pairs without adding a
    node, which makes ten ``g`` parents congruent; ``w=>z`` then adds one
    node per row; ``v=>u`` could add ten more."""

    eg = EGraph()
    for i in range(10):
        eg.add_term(op("g", op("p", sym(f"a{i}"))))
        eg.add_term(op("g", op("q", sym(f"a{i}"))))
        eg.add_term(op("w", sym(f"b{i}")))
    eg.rebuild()
    assert len(eg) == 70
    rules = [
        rewrite("p=>q", "(p ?x)", "(q ?x)"),
        rewrite("w=>z", "(w ?x)", "(z ?x)"),
        rewrite("v=>u", "(w ?x)", "(u ?x)"),
    ]
    return eg, rules


def test_trip_then_shrink_still_stops_at_the_tripping_boundary():
    eg, rules = _collapse_graph()
    seen = []
    report = Runner(
        eg, rules, RunnerLimits(node_limit=75, iter_limit=10),
        on_iteration=seen.append,
    ).run()
    # w=>z trips on its sixth row (76 e-nodes); rebuild's congruence
    # merges then drop ten g-nodes
    assert report.stop_reason is StopReason.NODE_LIMIT
    assert len(report.iterations) == len(seen) == 1
    assert report.egraph_nodes == 66 < 75
    assert report.rule_stats["w=>z"].applied == 6
    assert report.rule_stats["v=>u"].applied == 0


def test_deadline_at_the_tripping_boundary_wins():
    eg, rules = _collapse_graph()
    token = CancellationToken()
    report = Runner(
        eg, rules, RunnerLimits(node_limit=75, iter_limit=10),
        on_iteration=lambda row: token.expire(), cancellation=token,
    ).run()
    assert report.stop_reason is StopReason.DEADLINE
    assert len(report.iterations) == 1
    assert report.egraph_nodes == 66


def test_truncated_rule_keeps_its_stamp_pinned():
    eg, rules = _collapse_graph()
    scan_version = eg.version
    runner = Runner(eg, rules, RunnerLimits(node_limit=75, iter_limit=10))
    report = runner.run()
    assert report.rule_stats["v=>u"].matches == 10
    # p=>q ran to completion; w=>z was cut after six rows and v=>u never
    # applied: both keep the first-scan stamp, so a later scan re-finds
    # every match they left
    assert runner._last_scan == [scan_version, -1, -1]


def test_reaching_the_limit_exactly_is_not_a_trip():
    eg, rules = _collapse_graph()
    # the three rules take the graph to exactly 90 e-nodes before rebuild
    report = Runner(eg, rules, RunnerLimits(node_limit=90, iter_limit=10)).run()
    assert report.stop_reason is StopReason.SATURATED
    assert report.egraph_nodes == 80


def test_olbm_collide_stops_at_the_paper_node_limit():
    spec = get_benchmark("olbm").kernels[0]
    config = SaturatorConfig(
        variant=Variant.ACCSAT, limits=RunnerLimits(10_000, 10, 300.0)
    )
    (kernel,) = optimize_source(spec.source, config, "olbm_olbm_collide").kernels
    assert kernel.runner.stop_reason is StopReason.NODE_LIMIT
    assert kernel.runner.egraph_nodes <= 10_000
    assert kernel.egraph_nodes <= 10_000
