"""Tests for the paper's cost model (§V-B)."""

import pytest

from repro.cost import AccSaturatorCostModel, CostWeights, DEFAULT_COST_MODEL, OpClass, classify_op
from repro.egraph.language import num, op, sym


class TestClassification:
    @pytest.mark.parametrize(
        "op_name,expected",
        [
            ("num", OpClass.CONSTANT),
            ("sym", OpClass.VARIABLE),
            ("phi", OpClass.PHI),
            ("phi-loop", OpClass.PHI),
            ("+", OpClass.COMPUTE),
            ("fma", OpClass.COMPUTE),
            ("load", OpClass.EXPENSIVE),
            ("store", OpClass.EXPENSIVE),
            ("/", OpClass.EXPENSIVE),
            ("%", OpClass.EXPENSIVE),
            ("call", OpClass.EXPENSIVE),
            ("cast", OpClass.STRUCTURAL),
        ],
    )
    def test_operator_classes(self, op_name, expected):
        assert classify_op(op_name) is expected


class TestPaperWeights:
    def test_paper_cost_values(self):
        model = DEFAULT_COST_MODEL
        assert model.op_cost("num", 1.0) == 0.0
        assert model.op_cost("sym", "x") == 1.0
        assert model.op_cost("phi", "p") == 1.0
        assert model.op_cost("*", None) == 10.0
        assert model.op_cost("load", "a[{0}]") == 100.0
        assert model.op_cost("/", None) == 100.0
        assert model.op_cost("call", "sqrt") == 100.0

    def test_custom_weights(self):
        model = AccSaturatorCostModel(CostWeights(compute=3.0, expensive=7.0))
        assert model.op_cost("+", None) == 3.0
        assert model.op_cost("load", "a") == 7.0

    def test_term_cost_counts_every_occurrence(self):
        shared = op("*", sym("a"), sym("b"))
        term = op("+", shared, shared)
        model = DEFAULT_COST_MODEL
        # + (10), two * (20), four syms (4) = 34
        assert model.term_cost(term) == 34.0

    def test_term_dag_cost_counts_shared_once(self):
        shared = op("*", sym("a"), sym("b"))
        term = op("+", shared, shared)
        # + (10), one * (10), two syms (2) = 22
        assert DEFAULT_COST_MODEL.term_dag_cost(term) == 22.0

    def test_fma_cheaper_than_mul_plus_add(self):
        model = DEFAULT_COST_MODEL
        fused = model.term_cost(op("fma", sym("a"), sym("b"), sym("c")))
        split = model.term_cost(op("+", sym("a"), op("*", sym("b"), sym("c"))))
        assert fused < split
