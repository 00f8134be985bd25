"""Tests for rewrite rules and the saturation runner."""

import pytest

from repro.egraph import pattern as pattern_mod
from repro.egraph.egraph import EGraph
from repro.egraph.language import num, op, sym
from repro.egraph.pattern import (
    CompiledPattern,
    Pattern,
    compile_pattern,
    compile_row_applier,
    parse_pattern,
)
from repro.egraph.rewrite import Rewrite, rewrite
from repro.egraph.runner import Runner, RunnerLimits, StopReason
from repro.rules import constant_folding_analysis, default_ruleset, ruleset_by_name
from repro.saturator import SaturatorConfig, Variant, optimize_source


def _search_and_apply(rule, eg):
    """One full search + apply of *rule* (rebuild is the caller's job)."""

    return rule.apply_rows(eg, rule.search_rows(eg))


class TestRewrite:
    def test_fma_rule_merges_classes(self):
        eg = EGraph()
        root = eg.add_term(op("+", sym("a"), op("*", sym("b"), sym("c"))))
        rule = rewrite("fma1", "(+ ?a (* ?b ?c))", "(fma ?a ?b ?c)")
        applied = _search_and_apply(rule, eg)
        eg.rebuild()
        assert applied == 1
        assert eg.lookup_term(op("fma", sym("a"), sym("b"), sym("c"))) == eg.find(root)

    def test_callable_applier_is_rejected(self):
        # a rule is pattern => pattern; anything else fails at construction
        with pytest.raises(TypeError, match=r"'r'.*Pattern"):
            rewrite("r", "(+ ?a ?b)", lambda eg, c, s: c)

    def test_guard_keyword_is_rejected(self):
        with pytest.raises(TypeError):
            rewrite("r", "(+ ?a ?b)", "(+ ?b ?a)", guard=lambda eg, c, s: True)

    def test_unparsed_applier_is_rejected(self):
        # the constructor takes patterns; only rewrite() parses text
        with pytest.raises(TypeError, match=r"'r'.*Pattern.*str"):
            Rewrite("r", parse_pattern("(+ ?a ?b)"), "(+ ?b ?a)")

    def test_one_search_call_and_one_apply_call(self):
        """A rule searches with search_rows and applies with apply_rows;
        the dict-substitution pipeline beside them is gone."""

        rule = rewrite("comm", "(+ ?a ?b)", "(+ ?b ?a)")
        for name in ("search", "apply", "run", "guard", "bidirectional"):
            assert not hasattr(rule, name), name
        assert not hasattr(Pattern, "search")
        assert not hasattr(CompiledPattern, "search")
        assert not hasattr(CompiledPattern, "instantiate")
        assert not hasattr(pattern_mod._InstantiatorCodegen, "build")
        assert hasattr(pattern_mod._InstantiatorCodegen, "build_batch")

    def test_ruleset_compiles_one_instantiator_per_applier(self):
        """Searchers are join atoms only: building a ruleset generates
        exactly one apply loop per distinct right-hand side."""

        compiled = []
        original = pattern_mod._InstantiatorCodegen._compile

        def counting(self, lines, name):
            compiled.append(name)
            return original(self, lines, name)

        compile_pattern.cache_clear()
        compile_row_applier.cache_clear()
        pattern_mod._InstantiatorCodegen._compile = counting
        try:
            rules = ruleset_by_name("default")
        finally:
            pattern_mod._InstantiatorCodegen._compile = original
        appliers = {(rule.applier, rule._compiled.vars) for rule in rules}
        assert len(compiled) == len(appliers)

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
        _search_and_apply(rule, eg)
        eg.rebuild()
        assert _search_and_apply(rule, eg) == 0  # already equal, nothing new to merge


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

    def test_runner_takes_no_incremental_flag(self):
        with pytest.raises(TypeError):
            Runner(EGraph(), default_ruleset(), RunnerLimits(), incremental=False)

    def test_every_rule_searches_from_its_last_scan(self):
        """Each scan after a rule's first passes the version stamp of its
        previous complete scan: search is always incremental."""

        calls = []

        class Recording(Rewrite):
            def search_rows(self, egraph, since=None):
                calls.append((self.name, since, egraph.version))
                return super().search_rows(egraph, since)

        eg = EGraph()
        eg.add_term(op("+", sym("a"), op("*", sym("b"), sym("c"))))
        rules = [
            Recording(r.name, r.searcher, r.applier) for r in default_ruleset()
        ]
        report = Runner(eg, rules, RunnerLimits(5000, 10, 30.0)).run()
        assert report.num_iterations >= 2
        last = {}
        for name, since, version in calls:
            assert since == last.get(name, -1), name
            last[name] = version
        assert all(
            rs.incremental_searches == rs.searches - 1
            for rs in report.rule_stats.values()
        )

    def test_invalid_limits_rejected(self):
        # limits check themselves when they are built
        with pytest.raises(ValueError, match="node_limit"):
            RunnerLimits(node_limit=0)
        with pytest.raises(ValueError, match="iter_limit"):
            RunnerLimits(iter_limit=0)
        with pytest.raises(ValueError, match="time_limit"):
            RunnerLimits(time_limit=-0.0)
        # NaN fails every comparison, so it must not slip past the check
        nan = float("nan")
        with pytest.raises(ValueError, match="node_limit"):
            RunnerLimits(node_limit=nan)
        with pytest.raises(ValueError, match="iter_limit"):
            RunnerLimits(iter_limit=nan)
        with pytest.raises(ValueError, match="time_limit"):
            RunnerLimits(time_limit=nan)

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

    @pytest.mark.parametrize(
        "dividend, divisor, remainder",
        [
            (num(9007199254740993), 2, 1),  # 2**53 + 1: not a double
            (op("*", num(3037000499), num(3037000499)), 10, 1),
            (num(-7), 3, -1),  # C: the remainder takes the dividend's sign
            (num(7), -3, 1),
            (num(-9007199254740993), 2, -1),
        ],
    )
    def test_integer_remainder_is_exact_and_truncates_toward_zero(
        self, dividend, divisor, remainder
    ):
        eg = EGraph(constant_folding_analysis())
        root = eg.add_term(op("%", dividend, num(divisor)))
        eg.rebuild()
        assert eg.data_of(root) == remainder
        assert eg.lookup_term(num(remainder)) == eg.find(root)

    def test_folded_remainder_reaches_generated_code(self):
        source = (
            "void k(long *a, int n) {\n  int i;\n#pragma acc parallel loop\n"
            "  for (i = 0; i < n; i++)\n    a[i] = 9007199254740993 % 2;\n}\n"
        )
        code = optimize_source(source, SaturatorConfig(variant=Variant.ACCSAT)).code
        assert "a[i] = 1;" in code

    def test_folding_propagates_through_merges(self):
        eg = EGraph(constant_folding_analysis())
        x = eg.add_term(sym("x"))
        expr = eg.add_term(op("+", sym("x"), num(1)))
        eg.merge(x, eg.add_term(num(4)))
        eg.rebuild()
        assert eg.lookup_term(num(5)) == eg.find(expr)
