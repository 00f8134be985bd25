"""Rebasing extraction snapshots onto a mutated e-graph (resolve_result).

The anytime best-result snapshot freezes class ids at the iteration that
produced it; later merges re-canonicalize or collapse those classes.
``resolve_result`` must re-key the selection, price it as a DAG under the
current partition, and refuse (return None) when merges made the
selection cyclic or incomplete.
"""

from repro.egraph import EGraph, extract_best, resolve_result
from repro.egraph.language import op, sym


class _OpCost:
    """Cost per operator name (leaves default to 1)."""

    def __init__(self, table=None):
        self.table = table or {}

    def op_cost(self, op, payload):
        return float(self.table.get(op, 1.0))


def test_unchanged_egraph_round_trips():
    eg = EGraph()
    root = eg.add_term(op("+", sym("x"), sym("y")))
    eg.rebuild()
    cost = _OpCost({"+": 2.0})
    result = extract_best(eg, [root], cost)
    resolved = resolve_result(eg, result, [root], cost)
    assert resolved is not None
    assert resolved.dag_cost == result.dag_cost
    assert resolved.terms[root] == result.terms[root]
    assert set(resolved.choices) == set(result.choices)


def test_merge_of_two_selected_classes_collapses_to_the_cheaper_choice():
    eg = EGraph()
    x = eg.add_term(sym("x"))
    y = eg.add_term(sym("y"))
    root = eg.add_term(op("+", sym("x"), sym("y")))
    eg.rebuild()
    cost = _OpCost({"+": 2.0})
    snapshot = extract_best(eg, [root], cost)
    assert snapshot.dag_cost == 4.0  # + (2) + x (1) + y (1)

    # later iteration discovers x == y
    eg.merge(x, y)
    eg.rebuild()
    resolved = resolve_result(eg, snapshot, [root], cost)
    assert resolved is not None
    # the collapsed class is paid once now
    assert resolved.dag_cost == 3.0
    assert set(resolved.choices) == {eg.find(root), eg.find(x)}
    # the rebuilt term spells both children through the kept choice
    term = resolved.terms[root]
    assert term.op == "+"
    assert term.children[0] == term.children[1]


def test_root_merged_into_child_yields_none_when_selection_turns_cyclic():
    eg = EGraph()
    inner = eg.add_term(op("g", sym("x")))
    root = eg.add_term(op("f", op("g", sym("x"))))
    eg.rebuild()
    # make f irresistibly cheap so the collision keeps the cyclic spelling
    cost = _OpCost({"f": 0.0, "g": 5.0})
    snapshot = extract_best(eg, [root], cost)

    eg.merge(root, inner)  # f(g(x)) == g(x): root class absorbs its child
    eg.rebuild()
    resolved = resolve_result(eg, snapshot, [root], cost)
    # keeping f's node makes the class its own child -> cyclic -> refused
    assert resolved is None


def test_root_merged_into_child_resolves_when_acyclic_choice_wins():
    eg = EGraph()
    inner = eg.add_term(op("g", sym("x")))
    root = eg.add_term(op("f", op("g", sym("x"))))
    eg.rebuild()
    # g is cheaper, so after the merge the collision keeps g(x) — acyclic
    cost = _OpCost({"f": 5.0, "g": 1.0})
    snapshot = extract_best(eg, [root], cost)

    eg.merge(root, inner)
    eg.rebuild()
    resolved = resolve_result(eg, snapshot, [root], cost)
    assert resolved is not None
    assert resolved.terms[root].op == "g"
    assert resolved.dag_cost == 2.0  # g (1) + x (1)


def test_snapshot_stays_valid_as_the_graph_grows_around_it():
    eg = EGraph()
    root = eg.add_term(op("*", op("+", sym("a"), sym("b")), sym("c")))
    eg.rebuild()
    cost = _OpCost({"*": 3.0, "+": 2.0})
    snapshot = extract_best(eg, [root], cost)

    # unrelated growth and a merge that only re-canonicalizes ids
    extra = eg.add_term(op("+", sym("b"), sym("a")))
    plus = eg.add_term(op("+", sym("a"), sym("b")))
    eg.merge(extra, plus)
    eg.rebuild()
    resolved = resolve_result(eg, snapshot, [root], cost)
    assert resolved is not None
    assert resolved.dag_cost == snapshot.dag_cost
    assert resolved.terms[root] == snapshot.terms[root]


def test_collapsed_equal_cost_tie_follows_op_names_not_op_ids():
    """``zz`` is interned before ``aa``, so op-id order is the reverse of
    name order.  When the two equal-cost selected classes collapse, the
    ``(cost, op name, str(payload), children)`` tie-break keeps ``aa`` for
    both children (an op-id order keeps ``zz``)."""

    eg = EGraph()
    zz = eg.add_term(op("zz", sym("x")))
    aa = eg.add_term(op("aa", sym("x")))
    root = eg.add_term(op("f", op("zz", sym("x")), op("aa", sym("x"))))
    eg.rebuild()
    assert eg.op_names.index("zz") < eg.op_names.index("aa")
    cost = _OpCost()
    snapshot = extract_best(eg, [root], cost)

    eg.merge(zz, aa)
    eg.rebuild()
    resolved = resolve_result(eg, snapshot, [root], cost)
    assert resolved is not None
    assert str(resolved.terms[root]) == "(f (aa x) (aa x))"
    assert resolved.dag_cost == 3.0  # f + aa + x
