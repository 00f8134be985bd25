"""``EGraph.add_term`` on shared terms: linear in the DAG, identical to the tree.

SSA terms share sub-terms by object identity, so a term with a few dozen
distinct nodes can spell a tree of millions.  The build must intern every
distinct term object once, and what it builds must be exactly what walking
the unshared tree would have built: same class ids, same hashcons content in
the same insertion order (which later match and extraction orders hang on).
"""

import time

from hypothesis import given, settings, strategies as st

from repro.egraph.egraph import EGraph
from repro.egraph.language import Term
from repro.rules import constant_folding_analysis


def doubling_tower(levels):
    term = Term.sym("x")
    for _ in range(levels):
        term = Term("+", (term, term))
    return term


def test_forty_levels_of_sharing_build_in_linear_time():
    term = doubling_tower(40)  # 2**41 - 1 tree nodes, 41 distinct
    egraph = EGraph()
    started = time.perf_counter()
    root = egraph.add_term(term)
    assert time.perf_counter() - started < 1.0
    assert len(egraph.hashcons) == len(egraph) == 41
    assert egraph.find(root) == 40  # ids are allocated post-order


def test_one_memo_shares_across_calls_and_keeps_its_terms_alive():
    shared = doubling_tower(30)
    egraph = EGraph()
    memo = {}
    first = egraph.add_term(Term("neg", (shared,)), memo)
    second = egraph.add_term(Term("*", (shared, shared)), memo)
    assert len(egraph.hashcons) == 31 + 2
    assert (first, second) == (31, 32)
    # every entry holds its term, so no id() in the table can be recycled
    assert all(id(term) == key for key, (term, _) in memo.items())
    assert memo[id(shared)] == (shared, 30)


def test_memo_hit_returns_the_canonical_class():
    egraph = EGraph()
    memo = {}
    x, y = Term.sym("x"), Term.sym("y")
    ix, iy = egraph.add_term(x, memo), egraph.add_term(y, memo)
    root = egraph.merge(ix, iy)
    egraph.rebuild()
    assert egraph.add_term(x, memo) == egraph.add_term(y, memo) == root


# --------------------------------------------------------------- property

_LEAVES = [Term.sym("a"), Term.sym("b"), Term.num(2), Term.num(3), Term.num(0.5)]
_OPS = [("+", 2), ("*", 2), ("-", 2), ("neg", 1), ("fma", 3), ("load", 2)]


@st.composite
def shared_dags(draw):
    """A few root terms over one pool of nodes, shared by identity."""

    pool = [draw(st.sampled_from(_LEAVES)) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(1, 9))):
        operator, arity = draw(st.sampled_from(_OPS))
        children = tuple(
            pool[draw(st.integers(0, len(pool) - 1))] for _ in range(arity)
        )
        pool.append(Term(operator, children))
    count = draw(st.integers(1, 3))
    return [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(count)]


def unshared(term):
    """The same tree with a fresh object at every occurrence."""

    return Term(term.op, tuple(unshared(c) for c in term.children), term.payload)


def observable(egraph):
    return (
        list(egraph.hashcons.items()),
        len(egraph),
        egraph.num_classes,
        list(egraph.op_names),
        list(egraph.payloads),
    )


@settings(max_examples=150, deadline=None)
@given(shared_dags(), st.booleans())
def test_memoised_build_equals_the_tree_walk(roots, folding):
    def fresh():
        return EGraph(constant_folding_analysis() if folding else None)

    shared_graph, tree_graph = fresh(), fresh()
    memo = {}
    shared_ids = [shared_graph.add_term(root, memo) for root in roots]
    tree_ids = [tree_graph.add_term(unshared(root)) for root in roots]

    assert [shared_graph.find(i) for i in shared_ids] == [
        tree_graph.find(i) for i in tree_ids
    ]
    assert observable(shared_graph) == observable(tree_graph)
    shared_graph.rebuild()
    tree_graph.rebuild()
    assert observable(shared_graph) == observable(tree_graph)
