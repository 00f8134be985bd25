"""Tests for rewrite rules and the saturation runner."""

import pytest

from repro.egraph.egraph import EGraph
from repro.egraph.language import num, op, sym
from repro.egraph.rewrite import rewrite
from repro.egraph.runner import Runner, RunnerLimits, StopReason
from repro.rules import constant_folding_analysis, default_ruleset


class TestRewrite:
    def test_fma_rule_merges_classes(self):
        eg = EGraph()
        root = eg.add_term(op("+", sym("a"), op("*", sym("b"), sym("c"))))
        rule = rewrite("fma1", "(+ ?a (* ?b ?c))", "(fma ?a ?b ?c)")
        applied = rule.run(eg)
        eg.rebuild()
        assert applied == 1
        assert eg.lookup_term(op("fma", sym("a"), sym("b"), sym("c"))) == eg.find(root)

    def test_rule_with_guard_filters_matches(self):
        eg = EGraph()
        eg.add_term(op("+", sym("a"), sym("b")))
        rule = rewrite(
            "comm-guarded", "(+ ?a ?b)", "(+ ?b ?a)",
            guard=lambda egraph, eclass, subst: False,
        )
        assert rule.run(eg) == 0

    def test_dynamic_applier(self):
        eg = EGraph()
        root = eg.add_term(op("*", sym("x"), num(2)))

        def double_to_add(egraph, eclass, subst):
            return egraph.add_term(op("+", sym("x"), sym("x")))

        rule = rewrite("double-to-add", "(* x 2)", double_to_add)
        assert rule.run(eg) == 1
        eg.rebuild()
        assert eg.lookup_term(op("+", sym("x"), sym("x"))) == eg.find(root)

    def test_search_limit_truncates_deterministically(self):
        eg = EGraph()
        for i in range(4):
            eg.add_term(op("+", sym(f"a{i}"), sym(f"b{i}")))
        eg.rebuild()
        rule = rewrite("comm", "(+ ?a ?b)", "(+ ?b ?a)")
        full = rule.search(eg)
        assert len(full) == 4
        # the capped search returns the first `limit` of the same order
        assert rule.search(eg, limit=2) == full[:2]
        assert rule.search(eg, limit=10) == full
        assert rule.search(eg, limit=0) == []

    def test_search_limit_applies_after_guard(self):
        eg = EGraph()
        for i in range(4):
            eg.add_term(op("+", sym(f"a{i}"), sym(f"b{i}")))
        eg.rebuild()
        seen = []

        def guard(egraph, eclass, subst):
            seen.append(eclass)
            return len(seen) % 2 == 0  # veto every other match

        rule = rewrite("comm-guarded", "(+ ?a ?b)", "(+ ?b ?a)", guard=guard)
        capped = rule.search(eg, limit=1)
        assert len(capped) == 1
        # the cap counts post-guard survivors, not raw matches
        assert len(seen) == 4

    def test_applier_variable_unbound_by_searcher_is_rejected(self):
        # at construction, naming rule and variable — not a KeyError on
        # the first match inside a run
        with pytest.raises(ValueError, match=r"'grow'.*\?c"):
            rewrite("grow", "(+ ?a ?b)", "(+ ?a (* ?b ?c))")
        with pytest.raises(ValueError, match=r"'pick'.*\?c"):
            rewrite("pick", "(+ ?a ?b)", "?c")

    def test_rule_application_is_idempotent_once_present(self):
        eg = EGraph()
        eg.add_term(op("+", sym("a"), op("*", sym("b"), sym("c"))))
        rule = rewrite("fma1", "(+ ?a (* ?b ?c))", "(fma ?a ?b ?c)")
        rule.run(eg)
        eg.rebuild()
        assert rule.run(eg) == 0  # already equal, nothing new to merge


class TestRunner:
    def test_saturation_reached_on_small_input(self):
        eg = EGraph(constant_folding_analysis())
        eg.add_term(op("+", sym("a"), op("*", sym("b"), sym("c"))))
        report = Runner(eg, default_ruleset(), RunnerLimits(5000, 10, 5.0)).run()
        assert report.stop_reason is StopReason.SATURATED
        assert report.num_iterations >= 1
        eg.check_invariants()

    def test_node_limit_stops_runner(self):
        eg = EGraph()
        # a deep sum over many symbols saturates slowly under reassociation
        term = sym("x0")
        for i in range(1, 10):
            term = op("+", term, sym(f"x{i}"))
        eg.add_term(term)
        report = Runner(eg, default_ruleset(), RunnerLimits(node_limit=50, iter_limit=20,
                                                            time_limit=10.0)).run()
        assert report.stop_reason is StopReason.NODE_LIMIT

    def test_iteration_limit(self):
        eg = EGraph()
        term = sym("x0")
        for i in range(1, 8):
            term = op("+", term, sym(f"x{i}"))
        eg.add_term(term)
        report = Runner(eg, default_ruleset(), RunnerLimits(10_000_000, 2, 30.0)).run()
        assert report.num_iterations <= 2

    def test_rules_carry_no_per_run_state(self):
        """One ruleset list serves any number of runs, unchanged."""

        def micro_egraph():  # the engine benchmark's micro workload
            term = sym("x0")
            for i in range(1, 7):
                term = op("+", term, op("*", sym(f"a{i}"), sym(f"b{i}")))
            eg = EGraph(constant_folding_analysis())
            eg.add_term(term)
            return eg

        def counters(report):
            return {
                name: (rs.matches, rs.applied, rs.searches)
                for name, rs in report.rule_stats.items()
            }

        rules = default_ruleset()
        limits = RunnerLimits(2000, 5, 300.0)
        before = [dict(vars(rule)) for rule in rules]
        first = Runner(micro_egraph(), rules, limits).run()
        assert [dict(vars(rule)) for rule in rules] == before
        second = Runner(micro_egraph(), rules, limits).run()
        assert counters(first) == counters(second)

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            RunnerLimits(node_limit=0).validate()
        with pytest.raises(ValueError):
            RunnerLimits(iter_limit=0).validate()

    def test_commutativity_discovers_cse(self):
        """The motivating example: B = D + E and C = E + D become equal."""

        eg = EGraph()
        b = eg.add_term(op("+", sym("D"), sym("E")))
        c = eg.add_term(op("+", sym("E"), sym("D")))
        assert not eg.is_equal(b, c)
        Runner(eg, default_ruleset(), RunnerLimits(iter_limit=5)).run()
        assert eg.is_equal(b, c)

    def test_report_summary_mentions_stop_reason(self):
        eg = EGraph()
        eg.add_term(op("+", sym("a"), sym("b")))
        report = Runner(eg, default_ruleset(), RunnerLimits(iter_limit=3)).run()
        assert report.stop_reason.value in report.summary()


class TestConstantFolding:
    def test_arithmetic_is_folded(self):
        eg = EGraph(constant_folding_analysis())
        root = eg.add_term(op("+", op("*", num(2), num(3)), num(4)))
        eg.rebuild()
        assert eg.lookup_term(num(10)) == eg.find(root)

    def test_division_by_zero_not_folded(self):
        eg = EGraph(constant_folding_analysis())
        root = eg.add_term(op("/", num(1), num(0)))
        eg.rebuild()
        assert eg.data_of(root) is None

    def test_integer_division_truncates_toward_zero(self):
        eg = EGraph(constant_folding_analysis())
        root = eg.add_term(op("/", num(-7), num(2)))
        eg.rebuild()
        assert eg.lookup_term(num(-3)) == eg.find(root)

    def test_folding_propagates_through_merges(self):
        eg = EGraph(constant_folding_analysis())
        x = eg.add_term(sym("x"))
        expr = eg.add_term(op("+", sym("x"), num(1)))
        eg.merge(x, eg.add_term(num(4)))
        eg.rebuild()
        assert eg.lookup_term(num(5)) == eg.find(expr)
