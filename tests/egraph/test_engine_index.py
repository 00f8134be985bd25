"""Tests for the incremental e-matching engine.

Covers the invariants the fast engine layers on top of the classic
e-graph (O(1) node count, every synced row's root is its class's
canonical id), the equivalence of compiled/incremental search with the
naive backtracking matcher, and the saturation profiler.
"""

import dataclasses
import json
import random
import time

import pytest

from repro.egraph import EGraph, Runner, RunnerLimits, RunnerReport, StopReason
from repro.egraph import columns
from repro.egraph.egraph import ENode
from repro.egraph.language import num, op, sym
from repro.egraph.pattern import compile_pattern, parse_pattern
from repro.egraph.rewrite import Rewrite, rewrite
from repro.rules import constant_folding_analysis, default_ruleset

PATTERNS = [
    "(+ ?a (* ?b ?c))",
    "(- ?a (* ?b ?c))",
    "(+ ?a ?b)",
    "(* ?a ?b)",
    "(+ ?a ?a)",
    "(fma ?a ?b ?c)",
    "(+ (* ?a ?b) (* ?a ?c))",
    "(* x0 2)",
]


def naive_rows(pattern, eg):
    """The reference matcher's matches as flat ``(class, v0, ..)`` rows."""

    names = pattern.variables()
    return [
        (cid, *[subst[name] for name in names])
        for cid, subst in pattern.search_naive(eg)
    ]


class _FullScan(Rewrite):
    """A rule that ignores its incremental stamp: every scan is full."""

    def search_rows(self, egraph, since=None):
        return super().search_rows(egraph)


class _SlowSearch(Rewrite):
    """A rule whose every search sleeps first (a slow search phase)."""

    delay = 0.06

    def search_rows(self, egraph, since=None):
        time.sleep(self.delay)
        return super().search_rows(egraph, since)


def _representative_egraph():
    """A saturated-ish e-graph over a dot-product-style kernel term."""

    eg = EGraph(constant_folding_analysis())
    term = op("*", sym("x0"), num(2))
    for i in range(1, 5):
        term = op("+", term, op("*", sym(f"a{i}"), sym(f"b{i}")))
    eg.add_term(term)
    Runner(eg, default_ruleset(), RunnerLimits(600, 3, 5.0)).run()
    return eg


class TestOpIndexInvariants:
    def test_randomized_add_merge_rebuild_interleavings(self):
        """check_invariants (incl. the synced row roots and node-count cache)
        holds after arbitrary add/merge/rebuild sequences."""

        rng = random.Random(20240728)
        ops = ["+", "*", "-", "f"]
        for _ in range(25):
            eg = EGraph()
            ids = [eg.add(ENode("sym", (), f"s{i}")) for i in range(4)]
            for step in range(60):
                action = rng.random()
                if action < 0.55 or len(ids) < 2:
                    k = rng.choice([0, 1, 2])
                    children = tuple(
                        eg.find(rng.choice(ids)) for _ in range(k)
                    )
                    ids.append(eg.add(ENode(rng.choice(ops), children)))
                elif action < 0.85:
                    eg.merge(rng.choice(ids), rng.choice(ids))
                else:
                    eg.rebuild()
            eg.rebuild()
            eg.check_invariants()

    def test_len_is_cached_and_correct(self):
        eg = _representative_egraph()
        assert len(eg) == sum(len(eg.nodes_of(c)) for c in eg.class_ids())

    def test_op_rows_exact_after_rebuild(self):
        """The rows the relational matcher scans for an operator (its live
        column rows, canonicalised through the roots snapshot) are exactly
        the canonical e-nodes with that operator, one row each."""

        eg = _representative_egraph()
        roots = eg._np_roots()
        for opname in ("+", "*", "sym", "num", "fma"):
            owners = [cid for cid, n in eg.canonical_nodes() if n.op == opname]
            rows = eg.store.op_rows(eg._op_ids[opname])
            rows = rows[columns.as_uint8(eg.store.alive)[rows] != 0]
            found = roots[columns.as_int64(eg.store.cls)[rows]]
            assert len(found) == len(owners)
            assert {int(c) for c in found} == set(owners)

    def test_parent_stamped_below_child_is_caught(self):
        """After rebuild every alive row's synced class is canonical; a row
        whose class lags a union would let an incremental search skip a
        changed match, so check_invariants rejects it."""

        eg = EGraph()
        a = eg.add_term(sym("a"))
        b = eg.add_term(sym("b"))
        eg.add_term(op("+", sym("a"), sym("b")))
        eg.rebuild()
        eg.check_invariants()
        store = eg.store
        row = store.keys.index(eg.keys_of(b)[0])
        assert eg.merge(a, b) == a  # b's row changes class root
        eg.rebuild()
        eg.check_invariants()
        assert store.cls[row] == a
        assert store.touch[row] == eg.version
        store.cls[row] = b  # plant the pre-union class
        with pytest.raises(AssertionError, match="synced to class"):
            eg.check_invariants()

    def test_copy_preserves_engine_state(self):
        eg = _representative_egraph()
        dup = eg.copy()
        dup.check_invariants()
        assert len(dup) == len(eg)
        assert set(dup.canonical_nodes()) == set(eg.canonical_nodes())
        assert dup.store.cls == eg.store.cls
        assert dup.store.touch == eg.store.touch


class TestSearchEquivalence:
    def test_indexed_search_equals_naive_on_default_ruleset(self):
        """Compiled relational search == naive matcher, for every rule of
        the paper's rule set over a representative kernel e-graph."""

        eg = _representative_egraph()
        for rule in default_ruleset():
            assert rule.search_rows(eg) == naive_rows(rule.searcher, eg), rule.name

    def test_extra_pattern_shapes(self):
        eg = _representative_egraph()
        for text in PATTERNS:
            pattern = parse_pattern(text)
            assert compile_pattern(pattern).search_rows(eg) == naive_rows(
                pattern, eg
            ), text

    def test_incremental_search_finds_exactly_the_new_matches(self):
        eg = EGraph()
        eg.add_term(op("+", sym("a"), sym("b")))
        eg.rebuild()
        rule = rewrite("comm", "(+ ?a ?b)", "(+ ?b ?a)")
        first = rule.search_rows(eg, since=-1)
        assert len(first) == 1
        stamp = eg.version
        # nothing touched since -> nothing to report
        assert rule.search_rows(eg, since=stamp) == []
        # grow the graph; only the new class is scanned, and found
        eg.add_term(op("+", sym("c"), sym("d")))
        eg.rebuild()
        fresh = rule.search_rows(eg, since=stamp)
        assert len(fresh) == 1
        assert set(rule.search_rows(eg, since=None)) == set(first) | set(fresh)

    def test_touch_propagates_to_ancestors(self):
        """A new match at an unchanged root row is found through the
        changed row below it, and the old match there is not re-found."""

        eg = EGraph()
        root = eg.add_term(op("*", op("+", sym("a"), sym("b")), sym("c")))
        inner = eg.add_term(op("+", sym("a"), sym("b")))
        eg.rebuild()
        rule = rewrite("mul-of-sum", "(* (+ ?x ?y) ?z)", "(* ?z (+ ?x ?y))")
        assert len(rule.search_rows(eg, since=-1)) == 1
        stamp = eg.version
        # a merge that re-keys nothing above: the root row is unchanged
        eg.merge(eg.add_term(sym("b")), eg.add_term(sym("e")))
        eg.rebuild()
        assert rule.search_rows(eg, since=stamp) == []
        # the `+` child class gains `(+ d e)`: one new match rooted at the
        # unchanged `*` row, through the new `+` row — and only that one
        stamp = eg.version
        assert eg.merge(inner, eg.add_term(op("+", sym("d"), sym("e")))) == inner
        eg.rebuild()
        d, e, c = (eg.find(eg.add_term(sym(name))) for name in "dec")
        assert rule.search_rows(eg, since=stamp) == [(eg.find(root), d, e, c)]
        assert len(rule.search_rows(eg, since=-1)) == 2


class TestRunnerEquivalence:
    def test_incremental_runner_matches_full_runner(self):
        """Indexed + incremental saturation produces the same e-graph and
        report trajectory as full rescans."""

        def run(incremental):
            eg = EGraph(constant_folding_analysis())
            term = op("*", sym("x0"), num(2))
            for i in range(1, 5):
                term = op("+", term, op("*", sym(f"a{i}"), sym(f"b{i}")))
            eg.add_term(term)
            rules = default_ruleset()
            if not incremental:
                rules = [_FullScan(r.name, r.searcher, r.applier) for r in rules]
            report = Runner(eg, rules, RunnerLimits(600, 4, 10.0)).run()
            return eg, report

        eg_inc, rep_inc = run(True)
        eg_full, rep_full = run(False)
        assert rep_inc.stop_reason == rep_full.stop_reason
        assert len(eg_inc) == len(eg_full)
        assert eg_inc.num_classes == eg_full.num_classes
        assert [it.applied for it in rep_inc.iterations] == [
            it.applied for it in rep_full.iterations
        ]
        eg_inc.check_invariants()


class TestWorkCounters:
    def test_summed_matches_and_unions_are_pinned(self):
        """Exact work counters of one default-config saturation (NPB EP's
        ``ep_rng`` kernel, which saturates).  A search that re-finds old
        matches fails here by count, not by timing: the class-stamp delta
        this engine replaced matched 667 rows for 124 unions, one of them
        a redundant union a re-found row minted."""

        from repro.benchsuite.npb.ep import EP
        from repro.saturator import SaturatorConfig, optimize_source

        spec = next(k for k in EP.kernels if k.name == "ep_rng")
        result = optimize_source(spec.source, SaturatorConfig())
        runners = [kernel.runner for kernel in result.kernels]
        assert [r.stop_reason for r in runners] == [StopReason.SATURATED]
        stats = runners[0].rule_stats.values()
        assert sum(rs.matches for rs in stats) == 348
        assert sum(rs.applied for rs in stats) == 123


class TestProfiler:
    def _report(self) -> RunnerReport:
        eg = EGraph(constant_folding_analysis())
        eg.add_term(op("+", sym("a"), op("*", sym("b"), sym("c"))))
        return Runner(eg, default_ruleset(), RunnerLimits(500, 4, 5.0)).run()

    def test_per_rule_stats_collected(self):
        report = self._report()
        assert set(report.rule_stats) == {r.name for r in default_ruleset()}
        fma = report.rule_stats["fma1"]
        assert fma.searches >= 1
        assert fma.matches >= 1
        assert fma.applied >= 1
        assert fma.search_time >= 0.0
        total_applied = sum(rs.applied for rs in report.rule_stats.values())
        assert total_applied == report.total_applied

    def test_report_round_trips_to_json(self):
        """``as_dict`` is plain JSON data: it survives a dump/load unchanged."""

        report = self._report()
        data = report.as_dict()
        assert data["stop_reason"] == report.stop_reason.value
        restored = json.loads(json.dumps(data, indent=2))
        assert restored == data
        assert StopReason(restored["stop_reason"]) is report.stop_reason

    def test_kernel_report_includes_runner_profile(self):
        from repro.benchsuite.npb.cg import CG
        from repro.saturator import SaturatorConfig, optimize_source

        spec = CG.kernels[0]
        result = optimize_source(
            spec.source, SaturatorConfig(limits=RunnerLimits(500, 2, 5.0))
        )
        data = result.kernels[0].as_dict()
        assert data["runner"] is not None
        assert "rule_stats" in data["runner"]
        json.dumps(data)  # fully serialisable

    def test_phase_breakdown_round_trips(self):
        """search/apply/rebuild phases aggregate the iteration rows, and
        the phase split — including the pipeline-attached extract time —
        appears in ``as_dict`` and survives a JSON round trip."""

        report = self._report()
        phases = report.phase_times
        assert set(phases) == {"search", "apply", "rebuild", "extract"}
        assert phases["search"] == sum(it.search_time for it in report.iterations)
        assert phases["apply"] == sum(it.apply_time for it in report.iterations)
        assert phases["rebuild"] == sum(it.rebuild_time for it in report.iterations)
        assert phases["extract"] == 0.0  # bare Runner: no extraction attached

        report = dataclasses.replace(report, extract_time=0.125)
        assert report.as_dict()["phase_times"] == dict(phases, extract=0.125)
        restored = json.loads(json.dumps(report.as_dict()))
        assert restored["phase_times"]["extract"] == 0.125

    def test_pipeline_attaches_extract_time_to_runner(self):
        from repro.benchsuite.npb.cg import CG
        from repro.saturator import SaturatorConfig, optimize_source

        spec = CG.kernels[0]
        result = optimize_source(
            spec.source, SaturatorConfig(limits=RunnerLimits(500, 2, 5.0))
        )
        kernel = result.kernels[0]
        assert kernel.runner.extract_time > 0.0
        assert kernel.as_dict()["runner"]["phase_times"]["extract"] == (
            kernel.runner.extract_time
        )


class TestTimeLimits:
    def test_time_limit_stops_at_an_iteration_boundary(self):
        """A slow search phase is a deadline at the next iteration
        boundary: the iteration it slowed completes, no further one runs."""

        eg = EGraph()
        for i in range(4):
            eg.add_term(op("+", sym(f"a{i}"), sym(f"b{i}")))
        rule = _SlowSearch("slow-comm", parse_pattern("(+ ?a ?b)"), parse_pattern("(+ ?b ?a)"))
        report = Runner(eg, [rule], RunnerLimits(10_000, 50, 0.05)).run()
        assert report.stop_reason is StopReason.DEADLINE
        assert report.num_iterations == 1
        assert report.iterations[0].applied == 4
        assert report.total_time < 1.0

    def test_zero_iterations_when_budget_already_blown(self):
        eg = EGraph()
        eg.add_term(op("+", sym("a"), sym("b")))
        limits = RunnerLimits(10_000, 5, 1e-9)
        report = Runner(eg, default_ruleset(), limits).run()
        assert report.stop_reason is StopReason.DEADLINE
        assert report.num_iterations == 0
