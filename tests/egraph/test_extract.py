"""Tests for cost-based extraction (tree DP, greedy DAG, ILP)."""

import pytest

from repro.cost import AccSaturatorCostModel, DEFAULT_COST_MODEL
from repro.egraph.egraph import EGraph
from repro.egraph.extract import (
    DagExtractor,
    ExtractionError,
    ILPExtractor,
    _DPState,
    extract_best,
)
from repro.egraph.language import num, op, sym
from repro.egraph.runner import Runner, RunnerLimits
from repro.rules import constant_folding_analysis, default_ruleset


def saturated_graph(term):
    eg = EGraph(constant_folding_analysis())
    root = eg.add_term(term)
    Runner(eg, default_ruleset(), RunnerLimits(5000, 8, 5.0)).run()
    return eg, root


def tree_best(eg, root):
    """``(tree cost, chosen key)`` of *root*'s class in the tree DP."""

    return _DPState.build(eg, DEFAULT_COST_MODEL).best[eg.find(root)]


class TestTreeExtractor:
    """The tree DP (:class:`_DPState`) that seeds the greedy DAG selection."""

    def test_extracts_cheapest_equivalent(self):
        eg, root = saturated_graph(op("+", sym("a"), op("*", sym("b"), sym("c"))))
        _, key = tree_best(eg, root)
        assert eg.op_names[key[0]] == "fma"  # one op (10) beats add+mul (20)

    def test_cost_of_leaf(self):
        eg = EGraph()
        root = eg.add_term(sym("x"))
        assert tree_best(eg, root)[0] == 1.0

    def test_constant_has_zero_cost(self):
        eg = EGraph(constant_folding_analysis())
        root = eg.add_term(op("+", num(1), num(2)))
        eg.rebuild()
        assert tree_best(eg, root)[0] == 0.0

    def test_missing_class_raises(self):
        eg = EGraph()
        eg.add_term(sym("x"))
        with pytest.raises((KeyError, IndexError)):
            eg.nodes_of(999)


class TestDagExtractor:
    def test_shared_subexpression_counted_once(self):
        shared = op("*", sym("a"), sym("b"))
        eg = EGraph()
        r1 = eg.add_term(op("+", shared, sym("c")))
        r2 = eg.add_term(op("-", shared, sym("d")))
        result = DagExtractor(eg, DEFAULT_COST_MODEL).extract([r1, r2])
        # tree cost would count the multiply twice; DAG cost only once
        tree_cost = sum(
            DEFAULT_COST_MODEL.term_cost(t) for t in (result.terms[r1], result.terms[r2])
        )
        assert result.dag_cost < tree_cost

    def test_terms_keyed_by_requested_roots(self):
        eg, root = saturated_graph(op("+", sym("a"), op("*", sym("b"), sym("c"))))
        result = DagExtractor(eg, DEFAULT_COST_MODEL).extract([root])
        assert root in result.terms

    def test_extraction_is_deterministic(self):
        eg, root = saturated_graph(op("+", op("*", sym("a"), sym("b")), op("*", sym("c"), sym("d"))))
        r1 = DagExtractor(eg, DEFAULT_COST_MODEL).extract([root])
        r2 = DagExtractor(eg, DEFAULT_COST_MODEL).extract([root])
        assert r1.terms[root] == r2.terms[root]
        assert r1.dag_cost == r2.dag_cost


class TestILPExtractor:
    def test_ilp_matches_or_beats_greedy(self):
        eg, root = saturated_graph(
            op("+", op("*", sym("a"), sym("b")), op("+", sym("c"), op("*", sym("a"), sym("b"))))
        )
        greedy = DagExtractor(eg, DEFAULT_COST_MODEL).extract([root])
        exact = ILPExtractor(eg, DEFAULT_COST_MODEL).extract([root])
        assert exact.dag_cost <= greedy.dag_cost + 1e-9

    def test_ilp_selects_fma(self):
        eg, root = saturated_graph(op("+", sym("a"), op("*", sym("b"), sym("c"))))
        result = ILPExtractor(eg, DEFAULT_COST_MODEL).extract([root])
        assert result.terms[root].op == "fma"

    def test_multiple_roots_share_classes(self):
        shared = op("*", sym("x"), sym("y"))
        eg = EGraph()
        r1 = eg.add_term(op("+", shared, num(1)))
        r2 = eg.add_term(op("+", shared, num(2)))
        result = ILPExtractor(eg, DEFAULT_COST_MODEL).extract([r1, r2])
        mul_classes = [
            cid for cid, key in result.choices.items() if eg.op_names[key[0]] == "*"
        ]
        assert len(mul_classes) == 1

    @pytest.mark.parametrize(
        "zz, aa, expected",
        [
            (op("zz", sym("x")), op("aa", sym("x")), "(aa x)"),
            (op("zz", sym("a"), sym("b")), op("aa", sym("b"), sym("a")), "(aa b a)"),
        ],
        ids=["unary", "binary"],
    )
    def test_equal_cost_tie_follows_op_names_not_op_ids(self, zz, aa, expected):
        """``zz`` is interned first, so op-id order is the reverse of name
        order; the candidate order is name-based and the solver keeps
        returning the ``aa`` node (an op-id order returns ``zz``)."""

        eg = EGraph()
        root = eg.add_term(zz)
        eg.merge(root, eg.add_term(aa))
        eg.rebuild()
        assert eg.op_names.index("zz") < eg.op_names.index("aa")
        result = ILPExtractor(eg, _Flat()).extract([root])
        assert str(result.terms[root]) == expected
        assert result.dag_cost == 1.0 + len(zz.children)


class _Flat:
    """Every node costs 1: all spellings of a class tie."""

    def op_cost(self, op, payload):
        return 1.0


class TestFacade:
    def test_extract_best_dispatches(self):
        eg, root = saturated_graph(op("+", sym("a"), op("*", sym("b"), sym("c"))))
        for method in ("dag-greedy", "ilp"):
            result = extract_best(eg, [root], DEFAULT_COST_MODEL, method)
            assert result.method == method
            assert root in result.terms

    def test_unknown_method_rejected(self):
        eg = EGraph()
        root = eg.add_term(sym("x"))
        with pytest.raises(ValueError):
            extract_best(eg, [root], DEFAULT_COST_MODEL, "annealing")

    def test_tree_is_not_a_method(self):
        """The tree DP only seeds ``dag-greedy``; it is not user-facing."""

        eg = EGraph()
        root = eg.add_term(sym("x"))
        with pytest.raises(ValueError):
            extract_best(eg, [root], DEFAULT_COST_MODEL, "tree")

    def test_extracted_term_cost_matches_model(self):
        """The reported DAG cost equals re-pricing the selected choices."""

        eg, root = saturated_graph(op("+", sym("a"), op("*", sym("b"), sym("c"))))
        result = extract_best(eg, [root], DEFAULT_COST_MODEL, "dag-greedy")
        repriced = sum(
            DEFAULT_COST_MODEL.op_cost(eg.op_names[key[0]], eg.payloads[key[1]])
            for key in result.choices.values()
        )
        assert result.dag_cost == pytest.approx(repriced)
