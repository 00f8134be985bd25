"""Extraction reuse: the anytime hook's last result, and nothing else.

Extraction keeps one memo: :class:`~repro.egraph.runner.AnytimeExtraction`
records ``(e-graph version, result)`` for its latest evaluation and hands
that result back through ``result_at`` while the version has not moved.
Everything else is recomputed: every :meth:`DagExtractor.extract` builds
its tree DP (:meth:`_DPState.build`) from scratch.  The contracts under
test:

* at an unchanged version the hook returns the *identical* result object
  and builds no tree DP; slots of different hooks never mix;
* after any growth (new terms, saturation steps) every extraction — and
  every tree-DP table — equals a cold one built on the same e-graph;
* a hook carried to another e-graph or cost model serves nothing stale
  (``Runner.run`` empties its slot).
"""

import random

import pytest

from repro.cost import AccSaturatorCostModel, CostWeights
from repro.egraph import (
    AnytimeExtraction,
    DagExtractor,
    EGraph,
    Runner,
    RunnerLimits,
    StopReason,
    extract_best,
)
from repro.egraph import extract as extract_module
from repro.egraph.extract import _DPState
from repro.egraph.language import num, op, sym
from repro.rules import default_ruleset


@pytest.fixture
def builds(monkeypatch):
    """Count ``_DPState.build`` calls (the e-graph version of each)."""

    calls = []
    build = extract_module._DPState.build

    def counted(egraph, cost_function):
        calls.append(egraph.version)
        return build(egraph, cost_function)

    monkeypatch.setattr(extract_module._DPState, "build", staticmethod(counted))
    return calls


def _model():
    return AccSaturatorCostModel()


def _hook(roots, **kwargs):
    kwargs.setdefault("cost_model", _model())
    return AnytimeExtraction(roots=roots, interval=1, patience=10**6, **kwargs)


def _fma_chain(n):
    term = sym("x0")
    for i in range(1, n):
        term = op("+", term, op("*", sym(f"a{i}"), sym(f"b{i}")))
    return term


def _random_term(rng, depth=0):
    if depth > 3 or rng.random() < 0.3:
        return rng.choice([sym(f"v{rng.randrange(4)}"), num(rng.randrange(3))])
    operator = rng.choice(["+", "*", "-"])
    return op(operator, _random_term(rng, depth + 1), _random_term(rng, depth + 1))


def _tree_table(eg):
    """The tree DP of a cold build: ``{class: (tree cost, chosen key)}``."""

    return _DPState.build(eg, _model()).best


def _assert_same_extraction(kept, fresh):
    assert kept.dag_cost == fresh.dag_cost
    assert kept.choices == fresh.choices
    assert set(kept.terms) == set(fresh.terms)
    for root, term in fresh.terms.items():
        assert kept.terms[root] == term


class TestResultMemo:
    """The hook's ``(version, result)`` slot."""

    def test_unchanged_egraph_returns_the_cached_result_object(self, builds):
        eg = EGraph()
        root = eg.add_term(op("+", op("*", sym("a"), sym("b")), sym("c")))
        eg.rebuild()
        hook = _hook([root])
        report = Runner(eg, default_ruleset(), RunnerLimits(5000, 30, 300.0),
                        anytime=hook).run()

        # the saturating iteration changed nothing: its evaluation was a reuse
        assert report.stop_reason is StopReason.SATURATED
        assert report.iterations[-1].applied == 0
        evaluations = [it for it in report.iterations if it.extracted_cost is not None]
        assert len(builds) == len(evaluations) - 1

        version, result = hook.last
        assert version == eg.version
        before = len(builds)
        assert hook.result_at(eg) is result
        assert hook.result_at(eg) is result
        assert len(builds) == before

    def test_different_roots_and_methods_do_not_collide(self):
        eg = EGraph()
        r1 = eg.add_term(_fma_chain(4))
        r2 = eg.add_term(op("*", sym("p"), sym("q")))
        eg.rebuild()
        rules = default_ruleset()
        limits = RunnerLimits(5000, 30, 300.0)
        dag = _hook([r1])
        Runner(eg, rules, limits, anytime=dag).run()
        # the e-graph is saturated: this run moves no version, yet the
        # second hook extracts its own roots with its own method
        ilp = _hook([r1, r2], method="ilp")
        Runner(eg, rules, limits, anytime=ilp).run()

        dag_result, ilp_result = dag.result_at(eg), ilp.result_at(eg)
        assert dag.last[0] == ilp.last[0] == eg.version
        assert dag_result is not ilp_result
        assert dag_result.method == "dag-greedy" and ilp_result.method == "ilp"
        assert {eg.find(c) for c in dag_result.terms} == {eg.find(r1)}
        assert set(ilp_result.terms) >= {eg.find(r1), eg.find(r2)}

    def test_ilp_results_are_keyed_by_time_limit(self, monkeypatch):
        # the budget keys no slot: every fresh evaluation solves under the
        # hook's own time limit, and plain calls never share a result
        eg = EGraph()
        root = eg.add_term(op("+", op("*", sym("a"), sym("b")), sym("c")))
        eg.rebuild()
        model = _model()
        long_run = extract_best(eg, [root], model, "ilp", time_limit=30.0)
        short_run = extract_best(eg, [root], model, "ilp", time_limit=1.0)
        again = extract_best(eg, [root], model, "ilp", time_limit=30.0)
        assert len({id(long_run), id(short_run), id(again)}) == 3
        assert long_run.method == short_run.method == again.method == "ilp"
        assert long_run.dag_cost == short_run.dag_cost == again.dag_cost

        budgets = []
        init = extract_module.ILPExtractor.__init__

        def recording(self, egraph, cost_function, time_limit=30.0):
            budgets.append(time_limit)
            init(self, egraph, cost_function, time_limit)

        monkeypatch.setattr(extract_module.ILPExtractor, "__init__", recording)
        hook = _hook([root], method="ilp", time_limit=1.5)
        report = Runner(eg, default_ruleset(), RunnerLimits(5000, 30, 300.0),
                        anytime=hook).run()
        assert report.stop_reason is StopReason.SATURATED
        assert budgets and set(budgets) == {1.5}
        # the saturating iteration reused the slot instead of solving again
        evaluations = [it for it in report.iterations if it.extracted_cost is not None]
        assert len(budgets) == len(evaluations) - 1

    def test_result_cache_invalidated_by_egraph_growth(self):
        eg = EGraph()
        root = eg.add_term(_fma_chain(4))
        eg.rebuild()
        hook = _hook([root])
        Runner(eg, default_ruleset(), RunnerLimits(5000, 30, 300.0),
               anytime=hook).run()
        first = hook.result_at(eg)
        assert first is not None
        eg.add_term(op("+", sym("new"), sym("new2")))
        eg.rebuild()
        assert hook.result_at(eg) is None
        second = extract_best(eg, [root], _model())
        assert second is not first
        # the root's extraction is unaffected by the unrelated term
        assert second.dag_cost == first.dag_cost


class TestIncrementalRefresh:
    """After growth everything is rebuilt, and equals a cold build."""

    def test_refresh_after_saturation_matches_cold_extraction(self, builds):
        eg = EGraph()
        root = eg.add_term(_fma_chain(6))
        eg.rebuild()
        hook = _hook([root])
        report = Runner(eg, default_ruleset(), RunnerLimits(1500, 2, 300.0),
                        anytime=hook).run()
        assert all(it.applied for it in report.iterations)
        # every iteration grew the e-graph: one fresh build per evaluation,
        # each at a newer version
        assert len(builds) == len(report.iterations)
        assert builds == sorted(set(builds))
        assert builds[-1] == eg.version

        kept = hook.result_at(eg)
        fresh = DagExtractor(eg, _model()).extract([root])
        _assert_same_extraction(kept, fresh)

    def test_changed_egraph_recomputes_the_table_exactly(self, builds):
        eg = EGraph()
        root = eg.add_term(_fma_chain(6))
        eg.rebuild()
        model = _model()
        extractor = DagExtractor(eg, model)
        extractor.extract([root])
        assert builds == [eg.version]
        assert len(extractor._state.best) == eg.num_classes

        # same version, same roots: the table is built again, never reused
        extractor.extract([root])
        assert builds == [eg.version, eg.version]

        # growth moves the version: one whole-graph build, exact
        grown = eg.add_term(op("*", sym("fresh_a"), sym("fresh_b")))
        eg.rebuild()
        kept = extractor.extract([root, grown])
        assert builds[-1] == eg.version and len(builds) == 3
        assert len(extractor._state.best) == eg.num_classes
        assert extractor._state.best == _tree_table(eg)
        _assert_same_extraction(kept, extract_best(eg, [root, grown], _model()))

    @pytest.mark.parametrize("method", ["tree", "dag-greedy"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_growth_keeps_memo_exact(self, method, seed):
        # one long-lived extractor across growth steps, checked per step
        # against cold builds: its tree-DP table ("tree") and its greedy
        # DAG selection ("dag-greedy")
        rng = random.Random(seed)
        eg = EGraph()
        extractor = DagExtractor(eg, _model())
        roots = []
        rules = default_ruleset()
        for step in range(4):
            for _ in range(2):
                roots.append(eg.add_term(_random_term(rng)))
            eg.rebuild()
            if step % 2:
                Runner(eg, rules, RunnerLimits(800, 1, 300.0)).run()
            kept = extractor.extract(roots)
            if method == "tree":
                assert extractor._state.best == _tree_table(eg)
            else:
                _assert_same_extraction(kept, extract_best(eg, roots, _model()))

    def test_tree_best_costs_stay_consistent_after_refresh(self):
        eg = EGraph()
        root = eg.add_term(_fma_chain(5))
        eg.rebuild()
        before, _ = _tree_table(eg)[eg.find(root)]
        Runner(eg, default_ruleset(), RunnerLimits(1000, 2, 300.0)).run()
        extractor = DagExtractor(eg, _model())
        extractor.extract([root])
        after, _ = extractor._state.best[eg.find(root)]
        assert after == _tree_table(eg)[eg.find(root)][0]
        # saturation only adds alternatives: the tree optimum cannot rise
        assert after <= before


class TestMemoRebinding:
    """A hook carried to another e-graph or cost model serves nothing stale."""

    def test_memo_rebinds_on_different_egraph(self):
        eg1 = EGraph()
        r1 = eg1.add_term(op("+", sym("a"), sym("b")))
        eg1.rebuild()
        hook = _hook([r1])
        Runner(eg1, [], RunnerLimits(100, 3, 300.0), anytime=hook).run()
        stale = hook.last[1]

        # same construction over other symbols: the versions coincide, so
        # only the per-run reset keeps eg1's result from being served
        eg2 = EGraph()
        r2 = eg2.add_term(op("+", sym("c"), sym("d")))
        eg2.rebuild()
        assert eg2.version == hook.last[0]
        hook.roots = [r2]
        Runner(eg2, [], RunnerLimits(100, 3, 300.0), anytime=hook).run()
        kept = hook.result_at(eg2)
        assert kept is not stale
        _assert_same_extraction(kept, extract_best(eg2, [r2], _model()))

    def test_memo_rebinds_on_different_cost_weights(self):
        eg = EGraph()
        root = eg.add_term(op("+", op("*", sym("a"), sym("b")), sym("c")))
        eg.rebuild()
        rules = default_ruleset()
        limits = RunnerLimits(5000, 30, 300.0)
        hook = _hook([root])
        Runner(eg, rules, limits, anytime=hook).run()
        first = hook.result_at(eg)

        # saturated: the second run moves no version, but new weights
        hook.cost_model = AccSaturatorCostModel(CostWeights(compute=1.0))
        Runner(eg, rules, limits, anytime=hook).run()
        second = hook.result_at(eg)
        assert second is not first
        assert first.dag_cost != second.dag_cost
        fresh = extract_best(
            eg, [root], AccSaturatorCostModel(CostWeights(compute=1.0))
        )
        assert second.dag_cost == fresh.dag_cost
