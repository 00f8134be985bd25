"""Rule schedulers, anytime extraction, and plateau-based early stopping."""

import json
import time

import pytest

from repro.cost import DEFAULT_COST_MODEL
from repro.egraph import (
    AnytimeExtraction,
    BackoffScheduler,
    EGraph,
    MatchBudgetScheduler,
    Runner,
    RunnerLimits,
    RunnerReport,
    SimpleScheduler,
    StopReason,
    extract_best,
    make_scheduler,
)
from repro.egraph.language import num, op, sym
from repro.egraph.pattern import parse_pattern
from repro.egraph.rewrite import Rewrite, rewrite
from repro.rules import constant_folding_analysis, default_ruleset


def _sum_chain(n: int):
    term = sym("x0")
    for i in range(1, n):
        term = op("+", term, sym(f"x{i}"))
    return term


def _bench_term():
    term = sym("x0")
    for i in range(1, 7):
        term = op("+", term, op("*", sym(f"a{i}"), sym(f"b{i}")))
    return term


def _run(scheduler, limits=RunnerLimits(2000, 5, 300.0), term=None):
    eg = EGraph(constant_folding_analysis())
    root = eg.add_term(term if term is not None else _bench_term())
    report = Runner(eg, default_ruleset(), limits, scheduler=scheduler).run()
    return eg, root, report


def _outcome(report: RunnerReport):
    return (
        report.stop_reason,
        report.egraph_nodes,
        report.egraph_classes,
        [it.applied for it in report.iterations],
        {name: (rs.matches, rs.applied, rs.searches)
         for name, rs in report.rule_stats.items()},
    )


class TestMakeScheduler:
    def test_spellings(self):
        assert isinstance(make_scheduler(None), SimpleScheduler)
        assert isinstance(make_scheduler("simple"), SimpleScheduler)
        backoff = make_scheduler("backoff:64:3")
        assert isinstance(backoff, BackoffScheduler)
        assert (backoff.match_limit, backoff.ban_length) == (64, 3)
        assert make_scheduler("backoff").match_limit == 1000
        budget = make_scheduler("match-budget:17")
        assert isinstance(budget, MatchBudgetScheduler)
        assert budget.budget == 17

    def test_existing_scheduler_passes_through(self):
        scheduler = BackoffScheduler(10, 2)
        assert make_scheduler(scheduler) is scheduler

    @pytest.mark.parametrize(
        "spec", ["", "bogus", "backoff:1:2:3", "backoff:x", "match-budget:0:1"]
    )
    def test_rejects_bad_spellings(self, spec):
        with pytest.raises(ValueError):
            make_scheduler(spec)

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            BackoffScheduler(match_limit=0)
        with pytest.raises(ValueError):
            BackoffScheduler(ban_length=0)
        with pytest.raises(ValueError):
            MatchBudgetScheduler(budget=0)


class TestSimpleScheduler:
    def test_identical_to_default_runner(self):
        """The scheduler seam must not change the classic loop at all:
        same stop reason, same truncated e-graph, same per-rule stats."""

        _, _, baseline = _run(None)
        _, _, explicit = _run(SimpleScheduler())
        _, _, spelled = _run("simple")
        assert baseline.stop_reason is StopReason.NODE_LIMIT
        assert _outcome(baseline) == _outcome(explicit) == _outcome(spelled)
        assert explicit.scheduler == "simple"


class TestBackoffScheduler:
    def test_exploding_rule_gets_banned(self):
        eg, _, report = _run(BackoffScheduler(match_limit=8, ban_length=1),
                             limits=RunnerLimits(100_000, 6, 300.0))
        scheduler = BackoffScheduler(match_limit=8, ban_length=1)
        eg2 = EGraph(constant_folding_analysis())
        eg2.add_term(_bench_term())
        Runner(eg2, default_ruleset(), RunnerLimits(100_000, 6, 300.0),
               scheduler=scheduler).run()
        assert scheduler.stats_dict(), "some rule must trip the tiny threshold"
        # a banned rule searched fewer times than the iteration count
        searched = [rs.searches for rs in report.rule_stats.values()]
        assert min(searched) < report.num_iterations

    def test_no_premature_saturation_while_banned(self):
        """An applied==0 iteration with live bans must not stop the run:
        the banned rule's matches may still union something later."""

        # one exploding rule (commutativity everywhere) and nothing else:
        # iteration 0 finds many matches -> banned, batch dropped, 0 unions
        rules = [rewrite("comm", "(+ ?a ?b)", "(+ ?b ?a)")]
        eg = EGraph()
        eg.add_term(_sum_chain(6))
        runner = Runner(
            eg, rules, RunnerLimits(100_000, 10, 300.0),
            scheduler=BackoffScheduler(match_limit=2, ban_length=1),
        )
        report = runner.run()
        assert report.iterations[0].applied == 0
        assert report.stop_reason is not StopReason.ITER_LIMIT or \
            report.num_iterations == 10
        # the rule eventually fired: the commuted spellings exist
        assert report.total_applied > 0
        # and the run did NOT report saturation on the empty first iteration
        assert report.num_iterations > 1

    def test_reaches_the_same_fixpoint_as_simple(self):
        """Backoff delays work but drops none of it: on a workload the
        simple scheduler saturates, backoff saturates to the same e-graph
        (possibly over more iterations)."""

        limits = RunnerLimits(100_000, 40, 300.0)
        term = _sum_chain(4)
        eg_simple, root_s, rep_simple = _run(None, limits, term)
        eg_backoff, root_b, rep_backoff = _run(
            BackoffScheduler(match_limit=4, ban_length=1), limits, term
        )
        assert rep_simple.stop_reason is StopReason.SATURATED
        assert rep_backoff.stop_reason is StopReason.SATURATED
        assert rep_backoff.num_iterations >= rep_simple.num_iterations
        # the discovered equivalences agree (node counts may differ by
        # transient RHS spellings — application order decides which
        # spellings get hashconsed on the way to the fixpoint)
        assert eg_simple.num_classes == eg_backoff.num_classes
        cost_s = extract_best(eg_simple, [root_s], DEFAULT_COST_MODEL).dag_cost
        cost_b = extract_best(eg_backoff, [root_b], DEFAULT_COST_MODEL).dag_cost
        assert cost_s == cost_b
        eg_backoff.check_invariants()


class TestMatchBudgetScheduler:
    def test_window_rotates_through_the_match_order(self):
        scheduler = MatchBudgetScheduler(2)
        rule = rewrite("comm", "(+ ?a ?b)", "(+ ?b ?a)")
        scheduler.reset([rule])
        batch = [(i, {}) for i in range(5)]

        first, complete = scheduler.admit(0, 0, rule, batch)
        assert (first, complete) == (batch[0:2], False)
        second, _ = scheduler.admit(1, 0, rule, batch)
        assert second == batch[2:4]
        third, _ = scheduler.admit(2, 0, rule, batch)
        assert third == batch[4:5] + batch[0:1]  # wraps around

        # a batch within budget commits fully and resets the rotation
        small, complete = scheduler.admit(3, 0, rule, batch[:2])
        assert (small, complete) == (batch[:2], True)
        assert scheduler.admit(4, 0, rule, batch)[0] == batch[0:2]

    def test_truncation_does_not_lose_matches(self):
        """Capped batches pin the incremental-scan stamp, so dropped
        matches are re-found: the run saturates to the simple scheduler's
        exact fixpoint, just over more iterations."""

        limits = RunnerLimits(100_000, 150, 300.0)
        term = _sum_chain(4)
        eg_simple, root_s, rep_simple = _run(None, limits, term)
        eg_budget, root_b, rep_budget = _run(MatchBudgetScheduler(2), limits, term)
        assert rep_simple.stop_reason is StopReason.SATURATED
        # the zero-union streak eventually spans a full window rotation,
        # which certifies saturation even though every batch was truncated
        assert rep_budget.stop_reason is StopReason.SATURATED
        assert eg_simple.num_classes == eg_budget.num_classes
        cost_s = extract_best(eg_simple, [root_s], DEFAULT_COST_MODEL).dag_cost
        cost_b = extract_best(eg_budget, [root_b], DEFAULT_COST_MODEL).dag_cost
        assert cost_s == cost_b

    def test_runs_are_reproducible(self):
        outcomes = {
            _outcome(_run(MatchBudgetScheduler(5), RunnerLimits(500, 6, 300.0))[2])[:3]
            for _ in range(3)
        }
        assert len(outcomes) == 1


class TestAnytimeExtraction:
    def test_records_cost_trajectory_at_interval_boundaries(self):
        eg = EGraph(constant_folding_analysis())
        root = eg.add_term(_bench_term())
        anytime = AnytimeExtraction(
            roots=[root], cost_model=DEFAULT_COST_MODEL, interval=2, patience=99
        )
        report = Runner(eg, default_ruleset(), RunnerLimits(2000, 5, 300.0),
                        anytime=anytime).run()
        for it in report.iterations:
            if (it.index + 1) % 2 == 0:
                assert it.extracted_cost is not None
            else:
                assert it.extracted_cost is None
        assert report.extracted_cost is not None
        assert report.extract_time > 0.0

    def test_plateau_stops_early_with_matching_cost(self):
        """On the bench term the extracted cost stops improving before the
        budget runs out: anytime mode stops with COST_PLATEAU in fewer
        iterations, at the cost the full run would have reached."""

        limits = RunnerLimits(2000, 5, 300.0)
        eg_full, root_full, rep_full = _run(None, limits)
        full_cost = extract_best(eg_full, [root_full], DEFAULT_COST_MODEL).dag_cost

        eg = EGraph(constant_folding_analysis())
        root = eg.add_term(_bench_term())
        anytime = AnytimeExtraction(
            roots=[root], cost_model=DEFAULT_COST_MODEL, interval=1, patience=2
        )
        report = Runner(eg, default_ruleset(), limits, anytime=anytime).run()
        assert report.stop_reason is StopReason.COST_PLATEAU
        assert report.num_iterations < rep_full.num_iterations
        assert report.extracted_cost == full_cost

    def test_extraction_never_mutates_the_egraph(self):
        eg = EGraph(constant_folding_analysis())
        root = eg.add_term(_bench_term())
        anytime = AnytimeExtraction(
            roots=[root], cost_model=DEFAULT_COST_MODEL, interval=1, patience=99
        )
        report = Runner(eg, default_ruleset(), RunnerLimits(2000, 5, 300.0),
                        anytime=anytime).run()
        # outcome identical to a run without the hook
        eg2, _, rep2 = _run(None)
        assert (report.stop_reason, report.egraph_nodes, report.egraph_classes) == (
            rep2.stop_reason, rep2.egraph_nodes, rep2.egraph_classes
        )
        eg.check_invariants()

    def test_memo_is_created_and_reusable(self):
        eg = EGraph(constant_folding_analysis())
        root = eg.add_term(_bench_term())
        anytime = AnytimeExtraction(
            roots=[root], cost_model=DEFAULT_COST_MODEL, interval=1, patience=99
        )
        assert anytime.last is None
        Runner(eg, default_ruleset(), RunnerLimits(2000, 3, 300.0),
               anytime=anytime).run()
        assert anytime.last is not None
        version, result = anytime.last
        # the final e-graph version matches the last in-loop evaluation, so
        # the hook hands that very result back
        assert version == eg.version
        assert anytime.result_at(eg) is result
        # growth moves the version: the slot no longer answers
        eg.add_term(op("*", sym("fresh_a"), sym("fresh_b")))
        eg.rebuild()
        assert anytime.result_at(eg) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            Runner(
                EGraph(), [], anytime=AnytimeExtraction(
                    roots=[], cost_model=DEFAULT_COST_MODEL, interval=0
                )
            )
        with pytest.raises(ValueError):
            Runner(
                EGraph(), [], anytime=AnytimeExtraction(
                    roots=[], cost_model=DEFAULT_COST_MODEL, patience=0
                )
            )


class TestPipelineIntegration:
    def test_anytime_pipeline_final_extraction_is_a_result_hit(self, monkeypatch):
        from repro.benchsuite.npb.cg import CG
        from repro.saturator import SaturatorConfig, optimize_source
        from repro.session import stages

        calls = []
        monkeypatch.setattr(
            stages, "extract_best", lambda *args: calls.append(args)
        )
        config = SaturatorConfig(
            limits=RunnerLimits(2000, 6, 300.0),
            anytime_extraction=True,
            plateau_patience=2,
        )
        result = optimize_source(CG.kernels[0].source, config)
        kernel = result.kernels[0]
        assert kernel.runner is not None
        assert kernel.runner.iterations[-1].extracted_cost is not None
        # the loop stopped right after an evaluation (interval 1), so the
        # extraction stage reused that result instead of extracting again
        assert calls == []
        assert kernel.extracted_cost > 0

    def test_scheduler_spelling_flows_through_config(self):
        from repro.benchsuite.npb.cg import CG
        from repro.saturator import SaturatorConfig, optimize_source

        config = SaturatorConfig(
            limits=RunnerLimits(500, 3, 300.0), scheduler="backoff:32:2"
        )
        result = optimize_source(CG.kernels[0].source, config)
        assert result.kernels[0].runner.scheduler == "backoff"

    def test_bad_scheduler_spelling_fails_fast(self):
        from repro.benchsuite.npb.cg import CG
        from repro.saturator import SaturatorConfig, optimize_source

        with pytest.raises(ValueError):
            optimize_source(
                CG.kernels[0].source, SaturatorConfig(scheduler="bogus")
            )


class TestSearchPhaseBlownBudget:
    def test_slow_search_finishes_its_iteration_then_stops_at_the_boundary(self):
        """A search phase that alone blows the budget is never cut short:
        the iteration applies and rebuilds, the rule's scan stamp advances
        to the committed scan, and the run stops with DEADLINE at the
        boundary — the state an iteration-limit stop there would leave
        (the pipeline ships it degraded; see tests/session/test_time_budget.py)."""

        eg = EGraph()
        eg.add_term(op("+", sym("a"), sym("b")))
        scanned_at = eg.version

        class SlowSearch(Rewrite):
            def search_rows(self, egraph, since=None):
                time.sleep(0.03)
                return super().search_rows(egraph, since)

        rules = [
            SlowSearch("slow-comm", parse_pattern("(+ ?a ?b)"), parse_pattern("(+ ?b ?a)"))
        ]
        runner = Runner(eg, rules, RunnerLimits(10_000, 10, 0.01))
        report = runner.run()

        assert report.stop_reason is StopReason.DEADLINE
        assert report.num_iterations == 1
        row = report.iterations[0]
        assert row.applied == 1
        assert row.search_time > 0.0
        stats = report.rule_stats["slow-comm"]
        assert stats.matches == 1 and stats.applied == 1
        # the complete batch was committed, so the stamp advanced
        assert runner._last_scan == [scanned_at]


class TestReportBackCompat:
    """The report dict is what the CLI, ``saturator/report.py`` and the
    engine bench read: the fields the scheduler and anytime extraction
    added must keep surviving its JSON round trip."""

    def test_new_fields_round_trip(self):
        eg = EGraph(constant_folding_analysis())
        root = eg.add_term(_bench_term())
        anytime = AnytimeExtraction(
            roots=[root], cost_model=DEFAULT_COST_MODEL, interval=1, patience=2
        )
        report = Runner(eg, default_ruleset(), RunnerLimits(2000, 8, 300.0),
                        scheduler="match-budget:64", anytime=anytime).run()
        restored = json.loads(json.dumps(report.as_dict()))
        assert restored == report.as_dict()
        assert restored["scheduler"] == report.scheduler == "match-budget"
        assert [it["extracted_cost"] for it in restored["iterations"]] == [
            it.extracted_cost for it in report.iterations
        ]
        assert any(it.extracted_cost is not None for it in report.iterations)

    def test_cost_plateau_stop_reason_round_trips(self):
        assert StopReason("cost_plateau") is StopReason.COST_PLATEAU
        report = RunnerReport(StopReason.COST_PLATEAU)
        restored = json.loads(json.dumps(report.as_dict()))
        assert restored["stop_reason"] == "cost_plateau"
        assert StopReason(restored["stop_reason"]) is StopReason.COST_PLATEAU


class TestSearchHasNoLimit:
    def test_scheduler_has_no_search_limit_hook(self):
        """Schedulers cut a batch only after the search (``admit``); no
        hook caps the search itself."""

        from repro.egraph.schedule import RuleScheduler

        assert not hasattr(RuleScheduler, "search_limit")
        eg = EGraph()
        eg.add_term(op("+", sym("a"), sym("b")))
        rule = rewrite("comm", "(+ ?a ?b)", "(+ ?b ?a)")
        with pytest.raises(TypeError):
            rule.search_rows(eg, limit=1)
        with pytest.raises(TypeError):
            rule._compiled.search_rows(eg, None, 1)
