"""Memoized extraction: DP-table reuse and recompute-on-change soundness.

The contract under test: extraction through a shared
:class:`ExtractionMemo` is *exact* — after any sequence of e-graph growth
(new terms, saturation steps), a memoized extraction returns the same
choices, terms and DAG cost as a cold extractor built from scratch.
"""

import random

import pytest

from repro.cost import AccSaturatorCostModel, CostWeights
from repro.egraph import (
    DagExtractor,
    EGraph,
    ExtractionMemo,
    Runner,
    RunnerLimits,
    TreeExtractor,
    extract_best,
)
from repro.egraph.language import num, op, sym
from repro.rules import default_ruleset


def _model():
    return AccSaturatorCostModel()


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


def _assert_same_extraction(memoized, fresh):
    assert memoized.dag_cost == fresh.dag_cost
    assert memoized.choices == fresh.choices
    assert set(memoized.terms) == set(fresh.terms)
    for root, term in fresh.terms.items():
        assert memoized.terms[root] == term


class TestResultMemo:
    def test_unchanged_egraph_returns_the_cached_result_object(self):
        eg = EGraph()
        root = eg.add_term(_fma_chain(5))
        eg.rebuild()
        memo = ExtractionMemo()
        model = _model()
        first = extract_best(eg, [root], model, "dag-greedy", memo=memo)
        second = extract_best(eg, [root], model, "dag-greedy", memo=memo)
        assert second is first
        assert memo.result_hits == 1

    def test_different_roots_and_methods_do_not_collide(self):
        eg = EGraph()
        r1 = eg.add_term(_fma_chain(4))
        r2 = eg.add_term(op("*", sym("p"), sym("q")))
        eg.rebuild()
        memo = ExtractionMemo()
        model = _model()
        dag = extract_best(eg, [r1], model, "dag-greedy", memo=memo)
        tree = extract_best(eg, [r1], model, "tree", memo=memo)
        both = extract_best(eg, [r1, r2], model, "dag-greedy", memo=memo)
        assert memo.result_hits == 0
        assert dag.method == "dag-greedy" and tree.method == "tree"
        assert set(both.terms) >= {eg.find(r1), eg.find(r2)}

    def test_ilp_results_are_keyed_by_time_limit(self):
        eg = EGraph()
        root = eg.add_term(op("+", op("*", sym("a"), sym("b")), sym("c")))
        eg.rebuild()
        memo = ExtractionMemo()
        model = _model()
        extract_best(eg, [root], model, "ilp", time_limit=30.0, memo=memo)
        extract_best(eg, [root], model, "ilp", time_limit=1.0, memo=memo)
        assert memo.result_hits == 0  # different budgets never share a slot
        again = extract_best(eg, [root], model, "ilp", time_limit=30.0, memo=memo)
        assert memo.result_hits == 1
        assert again.method == "ilp"

    def test_result_cache_invalidated_by_egraph_growth(self):
        eg = EGraph()
        root = eg.add_term(_fma_chain(4))
        eg.rebuild()
        memo = ExtractionMemo()
        model = _model()
        first = extract_best(eg, [root], model, "dag-greedy", memo=memo)
        eg.add_term(op("+", sym("new"), sym("new2")))
        eg.rebuild()
        second = extract_best(eg, [root], model, "dag-greedy", memo=memo)
        assert second is not first
        # the root's extraction is unaffected by the unrelated term
        assert second.dag_cost == first.dag_cost


class TestIncrementalRefresh:
    def test_refresh_after_saturation_matches_cold_extraction(self):
        eg = EGraph()
        root = eg.add_term(_fma_chain(6))
        eg.rebuild()
        memo = ExtractionMemo()
        model = _model()
        extract_best(eg, [root], model, "dag-greedy", memo=memo)
        assert memo.full_builds == 1

        Runner(eg, default_ruleset(), RunnerLimits(1500, 2, 5.0)).run()
        memoized = extract_best(eg, [root], model, "dag-greedy", memo=memo)
        fresh = DagExtractor(eg, _model()).extract([root])
        assert memo.refreshes == 1
        _assert_same_extraction(memoized, fresh)

    def test_changed_egraph_recomputes_the_table_exactly(self):
        eg = EGraph()
        root = eg.add_term(_fma_chain(6))
        eg.rebuild()
        memo = ExtractionMemo()
        model = _model()
        extract_best(eg, [root], model, "tree", memo=memo)
        assert (memo.full_builds, memo.recomputed_classes) == (1, eg.num_classes)

        # same version, different roots: a result miss served by the table
        TreeExtractor(eg, model, memo).best_cost(root)
        assert memo.reused_classes == eg.num_classes
        assert (memo.full_builds, memo.refreshes) == (1, 0)

        # any growth moves the version: one whole-graph recompute, exact
        before = memo.recomputed_classes
        grown = eg.add_term(op("*", sym("fresh_a"), sym("fresh_b")))
        eg.rebuild()
        memoized = extract_best(eg, [root, grown], model, "tree", memo=memo)
        assert (memo.full_builds, memo.refreshes) == (1, 1)
        assert memo.recomputed_classes - before == eg.num_classes
        _assert_same_extraction(
            memoized, extract_best(eg, [root, grown], _model(), "tree")
        )

    @pytest.mark.parametrize("method", ["tree", "dag-greedy"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_growth_keeps_memo_exact(self, method, seed):
        rng = random.Random(seed)
        eg = EGraph()
        memo = ExtractionMemo()
        model = _model()
        roots = []
        rules = default_ruleset()
        for step in range(4):
            for _ in range(2):
                roots.append(eg.add_term(_random_term(rng)))
            eg.rebuild()
            if step % 2:
                Runner(eg, rules, RunnerLimits(800, 1, 2.0)).run()
            memoized = extract_best(eg, roots, model, method, memo=memo)
            fresh = extract_best(eg, roots, _model(), method)
            _assert_same_extraction(memoized, fresh)

    def test_tree_best_costs_stay_consistent_after_refresh(self):
        eg = EGraph()
        root = eg.add_term(_fma_chain(5))
        eg.rebuild()
        memo = ExtractionMemo()
        model = _model()
        TreeExtractor(eg, model, memo).best_cost(root)
        Runner(eg, default_ruleset(), RunnerLimits(1000, 2, 5.0)).run()
        memoized_cost = TreeExtractor(eg, model, memo).best_cost(root)
        fresh_cost = TreeExtractor(eg, _model()).best_cost(root)
        assert memoized_cost == fresh_cost


class TestMemoRebinding:
    def test_memo_rebinds_on_different_egraph(self):
        memo = ExtractionMemo()
        model = _model()
        eg1 = EGraph()
        r1 = eg1.add_term(_fma_chain(4))
        eg1.rebuild()
        extract_best(eg1, [r1], model, "dag-greedy", memo=memo)

        eg2 = EGraph()
        r2 = eg2.add_term(op("+", sym("a"), sym("b")))
        eg2.rebuild()
        memoized = extract_best(eg2, [r2], model, "dag-greedy", memo=memo)
        fresh = extract_best(eg2, [r2], _model(), "dag-greedy")
        _assert_same_extraction(memoized, fresh)
        assert memo.full_builds == 2

    def test_memo_rebinds_on_different_cost_weights(self):
        eg = EGraph()
        root = eg.add_term(op("+", op("*", sym("a"), sym("b")), sym("c")))
        eg.rebuild()
        memo = ExtractionMemo()
        cheap_mul = AccSaturatorCostModel(CostWeights(compute=1.0))
        default = _model()
        first = extract_best(eg, [root], default, "tree", memo=memo)
        second = extract_best(eg, [root], cheap_mul, "tree", memo=memo)
        assert memo.full_builds == 2
        assert first.dag_cost != second.dag_cost
        fresh = extract_best(eg, [root], AccSaturatorCostModel(CostWeights(compute=1.0)), "tree")
        assert second.dag_cost == fresh.dag_cost
