"""Unit tests for the e-graph core (hashcons, merge, congruence closure)."""

from repro.egraph.egraph import EGraph, ENode
from repro.egraph.language import num, op, sym
from repro.rules import constant_folding_analysis


class TestAdd:
    def test_hashcons_deduplicates_identical_nodes(self):
        eg = EGraph()
        a1 = eg.add_term(op("+", sym("x"), sym("y")))
        a2 = eg.add_term(op("+", sym("x"), sym("y")))
        assert eg.find(a1) == eg.find(a2)

    def test_different_terms_get_different_classes(self):
        eg = EGraph()
        a = eg.add_term(op("+", sym("x"), sym("y")))
        b = eg.add_term(op("*", sym("x"), sym("y")))
        assert eg.find(a) != eg.find(b)

    def test_payload_distinguishes_leaves(self):
        eg = EGraph()
        assert eg.find(eg.add_leaf("sym", "x")) != eg.find(eg.add_leaf("sym", "y"))
        assert eg.find(eg.add_leaf("num", 1)) != eg.find(eg.add_leaf("num", 2))

    def test_len_counts_enodes(self):
        eg = EGraph()
        eg.add_term(op("+", sym("x"), num(1)))
        assert len(eg) == 3
        assert eg.num_classes == 3


class TestMergeAndRebuild:
    def test_merge_unifies_classes(self):
        eg = EGraph()
        a = eg.add_term(sym("a"))
        b = eg.add_term(sym("b"))
        eg.merge(a, b)
        eg.rebuild()
        assert eg.is_equal(a, b)
        eg.check_invariants()

    def test_congruence_closure_merges_parents(self):
        """f(a) and f(b) must merge once a = b (upward congruence)."""

        eg = EGraph()
        a, b = eg.add_term(sym("a")), eg.add_term(sym("b"))
        fa = eg.add(ENode("f", (a,)))
        fb = eg.add(ENode("f", (b,)))
        assert not eg.is_equal(fa, fb)
        eg.merge(a, b)
        eg.rebuild()
        assert eg.is_equal(fa, fb)
        eg.check_invariants()

    def test_nested_congruence(self):
        eg = EGraph()
        a, b = eg.add_term(sym("a")), eg.add_term(sym("b"))
        ga = eg.add(ENode("g", (eg.add(ENode("f", (a,))),)))
        gb = eg.add(ENode("g", (eg.add(ENode("f", (b,))),)))
        eg.merge(a, b)
        eg.rebuild()
        assert eg.is_equal(ga, gb)

    def test_key_view_drops_a_spelling_retired_without_a_merge(self):
        """A sweep can retire a row whose canonical spelling already sits
        in the same class: no merge and no append, so the graph's stamp
        does not move.  A class's keys read before that rebuild must not
        survive it."""

        eg = EGraph()
        a, b, c = (eg.add_term(sym(name)) for name in "abc")
        fa = eg.add(ENode("+", (a, c)))
        fb = eg.add(ENode("+", (b, c)))
        eg.merge(fa, fb)
        eg.merge(a, b)
        assert len(eg.keys_of(fa)) == 2  # both spellings, before the sweep
        stamp = (eg.version, len(eg.store), eg.store.epoch)
        eg.rebuild()
        assert (eg.version, len(eg.store), eg.store.epoch) == stamp
        assert eg.nodes_of(fa) == {ENode("+", (eg.find(a), c))}
        eg.check_invariants()

    def test_union_terms_convenience(self):
        eg = EGraph()
        eg.union_terms(op("+", sym("a"), sym("b")), op("+", sym("b"), sym("a")))
        assert eg.equivalent_terms(
            op("+", sym("a"), sym("b")), op("+", sym("b"), sym("a"))
        )

    def test_lookup_term_does_not_grow_graph(self):
        eg = EGraph()
        eg.add_term(op("+", sym("x"), sym("y")))
        before = len(eg)
        assert eg.lookup_term(op("*", sym("x"), sym("y"))) is None
        assert len(eg) == before

    def test_copy_is_independent(self):
        eg = EGraph()
        a = eg.add_term(sym("a"))
        b = eg.add_term(sym("b"))
        dup = eg.copy()
        eg.merge(a, b)
        eg.rebuild()
        assert eg.is_equal(a, b)
        assert not dup.is_equal(a, b)
        dup.check_invariants()

    def test_version_increases_on_changes(self):
        eg = EGraph()
        v0 = eg.version
        a = eg.add_term(sym("a"))
        assert eg.version > v0
        b = eg.add_term(sym("b"))
        v1 = eg.version
        eg.merge(a, b)
        assert eg.version > v1


class TestAnalysisRepair:
    """Rebuild repairs analysis data only after a merge that changes it
    (egg's did-change rule): ``None`` is the bottom, so a merge of two
    bottom classes queues nothing."""

    def test_merging_two_bottom_classes_queues_nothing(self):
        eg = EGraph(constant_folding_analysis())
        x, y = eg.add_term(sym("x")), eg.add_term(sym("y"))
        parent = eg.add_term(op("*", sym("x"), sym("y")))
        eg.rebuild()
        assert eg._analysis_dirty == []
        eg.merge(x, y)
        assert eg._analysis_dirty == []
        assert eg.data[eg.find(x)] is None
        eg.rebuild()
        assert eg.data[eg.find(parent)] is None
        eg.check_invariants()

    def test_a_merge_with_a_constant_queues_the_survivor_either_way(self):
        # equal sizes keep the first argument as the survivor: the bottom
        # class survives in one order, the constant one in the other
        for bottom_first in (True, False):
            eg = EGraph(constant_folding_analysis())
            x, four = eg.add_term(sym("x")), eg.add_term(num(4))
            total = eg.add_term(op("+", sym("x"), num(1)))
            eg.rebuild()
            root = eg.merge(x, four) if bottom_first else eg.merge(four, x)
            assert eg._analysis_dirty == [root]
            assert eg.data[root] == 4
            eg.rebuild()
            assert eg.lookup_term(num(5)) == eg.find(total)
