"""The tree DP as column kernels: exactness against the worklist it replaced.

``_DPState.build`` computes the tree extractor's ``{class id: (cost, key)}``
table with numpy passes over the alive ``ColumnStore`` rows.  The worklist
relaxation it replaced (a dict-of-tuples index over every e-node, one
``op_cost`` call per e-node) is kept here as the *reference*, and a hypothesis property pins the two equal — cost bit for
bit, chosen key exactly — on random e-graphs built to stress every clause
of the tie-break: merges that create cycles and self-referential classes,
extraction before ``rebuild`` (stale spellings), zero-cost operators,
commuted equal-cost nodes, arity >= 3, fractional prices (float sums are
order-sensitive) and payload twins ``1`` / ``1.0`` / ``"1"``.

Two planted mutants (the sort without the distinct-children key; payloads
ranked by id instead of by ``str``) must fail the property, and a
work-counter gate asserts that extraction and code generation on the
BT-jacobian e-graph construct no ``ENode`` at all and price each distinct
``(op, payload)`` pair at most once; a second one that they construct no
``Term`` over the corpus x 4 variants.  Planted cyclic selections must
still be refused by ``DagExtractor.extract`` and ``resolve_result``.
"""

from collections import Counter
from typing import Dict, Set, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.benchsuite.npb.bt import BT_JACOBIAN_SOURCE
from repro.cost import CostModel
from repro.egraph import extract
from repro.egraph.egraph import EGraph, ENode
from repro.egraph.extract import DagExtractor, ExtractionError, _DPState
from repro.egraph.language import Term
from repro.egraph.runner import RunnerLimits
from repro.saturator import SaturatorConfig, Variant, optimize_source


# ---------------------------------------------------------------------------
# Reference: the worklist DP the column kernel replaced
# ---------------------------------------------------------------------------


def _reference_table(egraph: EGraph, cost_function) -> Dict[int, tuple]:
    """``{class id: (tree cost, key)}`` by worklist relaxation over e-nodes.

    The deleted ``_DPState._index`` / ``_relax``, verbatim but for the
    price call (``op_cost`` on the key's op and payload) and one thing: a
    class's keys are visited in hashcons order instead of set iteration
    order.  The visit order only ever mattered for a *full* tie —
    two payload twins (``1`` and ``"1"``: equal ``str``, distinct ids)
    under one operator over the same children — where the first key seen
    wins; the kernel's stable sort resolves that case by row order, i.e.
    hashcons order.
    """

    find = egraph.uf.find
    class_nodes: Dict[int, list] = {}
    dependents: Dict[int, Set[int]] = {}
    for cid in egraph.class_ids():
        entries = []
        for key in egraph.keys_of(cid):  # ascending row == hashcons order
            children = tuple(find(c) for c in key[2:])
            cost = cost_function.op_cost(
                egraph.op_names[key[0]], egraph.payloads[key[1]]
            )
            child_set = set(children)
            entries.append(
                (key, cost, children, 1 if cid in child_set else 0, len(child_set))
            )
            for child in child_set:
                dependents.setdefault(child, set()).add(cid)
        class_nodes[cid] = entries

    def key_order(key):
        return (
            egraph.op_names[key[0]], egraph._payload_sort[key[1]][0], key[2:]
        )

    best: Dict[int, Tuple[float, tuple]] = {}
    tie: Dict[int, tuple] = {}
    pending = set(class_nodes)
    while pending:
        cid = pending.pop()
        entry = entry_tie = None
        for key, base_cost, children, self_ref, n_distinct in class_nodes[cid]:
            total = base_cost
            feasible = True
            for child in children:
                child_best = best.get(child)
                if child_best is None:
                    feasible = False
                    break
                total += child_best[0]
            if not feasible:
                continue
            cand_tie = (self_ref, n_distinct, key_order(key))
            if entry is None or total < entry[0] or (
                total == entry[0] and cand_tie < entry_tie
            ):
                entry = (total, key)
                entry_tie = cand_tie
        if entry is None:
            continue
        current = best.get(cid)
        if current is None or entry[0] < current[0] or (
            entry[0] == current[0] and entry_tie < tie[cid]
        ):
            improved_cost = current is None or entry[0] < current[0]
            best[cid] = entry
            tie[cid] = entry_tie
            if improved_cost:
                pending.update(dependents.get(cid, ()))
    return best


# ---------------------------------------------------------------------------
# Random e-graphs
# ---------------------------------------------------------------------------

#: Leaf payload pool; ids are handed out in first-use order, which the
#: steps randomise, so ``str`` order and id order disagree (``"10" < "9"``).
_PAYLOADS = [9, 10, 1, 1.0, "1", "x", 2.5, "10"]

#: (operator, takes a payload) — ``id`` is a zero-cost wrapper, ``f`` the
#: wide operator, ``call`` carries a payload above the leaves.
_OPS = [("+", False), ("*", False), ("id", False), ("f", False), ("call", True)]


class _Price:
    """Fractional, payload-sensitive prices: a function of (op, payload)."""

    BY_OP = {"num": 0.0, "sym": 1.0, "+": 0.1, "*": 0.7, "id": 0.0, "f": 2.5}

    def op_cost(self, op: str, payload) -> float:
        if op == "call":
            return 1.3 if isinstance(payload, float) else 0.3
        return self.BY_OP[op]


_pick = st.integers(0, 10 ** 6)
_add = st.tuples(
    st.just("add"),
    st.integers(0, len(_OPS) - 1),
    _pick,
    st.lists(_pick, min_size=1, max_size=4),
)
_merge = st.tuples(st.just("merge"), _pick, _pick)
_steps = st.lists(
    # adds and merges listed twice: one_of draws uniformly, and the
    # tie-break only has work to do in graphs with a few dozen nodes
    st.one_of(
        st.tuples(st.just("leaf"), st.sampled_from(["num", "sym"]), _pick),
        _add,
        _add,
        st.tuples(st.just("commute"), _pick),
        _merge,
        _merge,
        st.tuples(st.just("rebuild")),
        st.tuples(st.just("check")),
    ),
    min_size=15,
    max_size=60,
)


def _assert_kernel_matches_reference(egraph: EGraph) -> None:
    cost = _Price()
    got = _DPState.build(egraph, cost).best
    want = _reference_table(egraph, cost)
    assert set(got) == set(want), "feasible class sets differ"
    for cid, entry in want.items():
        assert got[cid] == entry, f"class {cid}: kernel {got[cid]} != {entry}"


def _run_steps(steps) -> None:
    eg = EGraph()
    ids = [eg.add_leaf("sym", "s")]
    binary = []  # (op, payload, child class a, child class b) per binary add
    for step in steps:
        kind = step[0]
        if kind == "leaf":
            ids.append(eg.add_leaf(step[1], _PAYLOADS[step[2] % len(_PAYLOADS)]))
        elif kind == "add":
            name, has_payload = _OPS[step[1]]
            payload = _PAYLOADS[step[2] % len(_PAYLOADS)] if has_payload else None
            picks = step[3][:2] if name in ("+", "*") else step[3]
            if name == "id":
                picks = picks[:1]
            children = tuple(ids[p % len(ids)] for p in picks)
            ids.append(eg.add(ENode(name, children, payload)))
            if len(children) == 2:
                binary.append((name, payload) + children)
        elif kind == "commute":
            if binary:
                name, payload, a, b = binary[step[1] % len(binary)]
                eg.merge(
                    eg.add(ENode(name, (a, b), payload)),
                    eg.add(ENode(name, (b, a), payload)),
                )
        elif kind == "merge":
            eg.merge(ids[step[1] % len(ids)], ids[step[2] % len(ids)])
        elif kind == "rebuild":
            eg.rebuild()
            eg.check_invariants()
        else:
            # deliberately also *before* rebuild: stale spellings in the rows
            _assert_kernel_matches_reference(eg)
    _assert_kernel_matches_reference(eg)
    eg.rebuild()
    _assert_kernel_matches_reference(eg)


#: ``(+ b b)`` and ``(+ a b)`` in one class at equal cost: the distinct-
#: children count picks ``(+ b b)``, the key order alone ``(+ a b)``.
_SHARING_KILLER = [
    ("leaf", "sym", 5),
    ("leaf", "sym", 4),
    ("add", 0, 0, [2, 2]),
    ("add", 0, 0, [1, 2]),
    ("merge", 3, 4),
]

#: ``num 9`` interned before ``num 10`` and merged: ``"10" < "9"`` picks
#: 10, id order picks 9.
_PAYLOAD_ORDER_KILLER = [("leaf", "num", 0), ("leaf", "num", 1), ("merge", 1, 2)]


@settings(max_examples=150, deadline=None)
@given(_steps)
@example(_SHARING_KILLER)
@example(_PAYLOAD_ORDER_KILLER)
# a class that references itself, a wide node over one class, twins under
# one operator over different children
@example([("add", 2, 0, [0]), ("merge", 0, 1), ("check",), ("add", 3, 0, [1, 1, 0, 1])])
@example([
    ("leaf", "num", 2), ("leaf", "num", 4),
    ("add", 4, 2, [2]), ("add", 4, 4, [1]), ("merge", 3, 4),
])
def test_column_dp_equals_reference_worklist_dp(steps):
    _run_steps(steps)


def test_mutant_without_distinct_children_key_is_killed(monkeypatch):
    real = np.lexsort

    def without_n_distinct(keys):
        # the kernel's keys end (.., n_distinct, self_ref, class)
        return real(keys[:-3] + keys[-2:])

    monkeypatch.setattr(extract.np, "lexsort", without_n_distinct)
    with pytest.raises(AssertionError, match="kernel"):
        test_column_dp_equals_reference_worklist_dp()


def test_mutant_ranking_payloads_by_id_is_killed(monkeypatch):
    monkeypatch.setattr(
        extract, "_dense_ranks", lambda texts: np.arange(len(texts), dtype=np.int64)
    )
    with pytest.raises(AssertionError, match="kernel"):
        test_column_dp_equals_reference_worklist_dp()


# ---------------------------------------------------------------------------
# Degenerate graphs
# ---------------------------------------------------------------------------


def test_empty_graph_has_an_empty_table():
    assert _DPState.build(EGraph(), _Price()).best == {}


def test_leaf_only_graph_has_no_child_column():
    eg = EGraph()
    x, nine, ten = eg.add_leaf("sym", "x"), eg.add_leaf("num", 9), eg.add_leaf("num", 10)
    eg.merge(nine, ten)
    eg.store.flush()
    assert eg.store.child == []
    _assert_kernel_matches_reference(eg)
    best = _DPState.build(eg, _Price()).best
    assert best[x] == (1.0, eg._intern_node(ENode("sym", (), "x")))
    assert best[eg.find(nine)] == (0.0, eg._intern_node(ENode("num", (), 10)))


def test_class_without_a_finite_term_is_absent():
    class _Unaffordable(_Price):
        def op_cost(self, op, payload):
            return float("inf") if op == "f" else super().op_cost(op, payload)

    eg = EGraph()
    x = eg.add_leaf("sym", "x")
    wide = eg.add(ENode("f", (x, x, x)))
    above = eg.add(ENode("id", (wide,)))
    eg.rebuild()
    best = _DPState.build(eg, _Unaffordable()).best
    assert set(best) == {x}
    with pytest.raises(ExtractionError):
        DagExtractor(eg, _Unaffordable()).extract([above])


# ---------------------------------------------------------------------------
# Work counters
# ---------------------------------------------------------------------------


def test_extraction_builds_no_enode_and_prices_each_pair_once(monkeypatch):
    """From ``extract_best`` through code generation, keys are the only node
    representation: no ``ENode`` is constructed (the memoised boundary
    views built one per selected node and one probe per priced pair), and
    ``op_cost`` runs at most once per distinct ``(op, payload)`` pair."""

    from repro.session import stages

    built = []
    priced = Counter()
    seen = {}
    real_init, real_price = ENode.__init__, CostModel.op_cost
    real_extract = stages.extract_best

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    def price(self, op, payload=None):
        priced[(op, type(payload).__name__, payload)] += 1
        return real_price(self, op, payload)

    def counted_extract(egraph, roots, *args, **kwargs):
        # count from here to the end of the run: extraction, then codegen
        monkeypatch.setattr(ENode, "__init__", counting_init)
        monkeypatch.setattr(CostModel, "op_cost", price)
        seen["egraph"] = egraph
        return real_extract(egraph, roots, *args, **kwargs)

    monkeypatch.setattr(stages, "extract_best", counted_extract)
    config = SaturatorConfig(
        variant=Variant.CSE_SAT, limits=RunnerLimits(2000, 4, 300.0)
    )
    result = optimize_source(BT_JACOBIAN_SOURCE, config)

    assert result.code and result.kernels
    assert built == []
    assert priced and max(priced.values()) == 1
    egraph = seen["egraph"]
    assert len(priced) == len({key[:2] for key in egraph.hashcons})
    # the gate means something: the graph is far larger than its pairs
    assert len(priced) < len(egraph) // 4


def test_extraction_and_codegen_build_no_term(monkeypatch):
    """Extraction hands node keys to code generation and builds no ``Term``
    (terms exist only on request, :func:`extract.extract_terms`): over the
    corpus x 4 variants, ``ExtractionStage`` and ``CodegenStage`` construct
    none, while the SSA builder before them constructs thousands."""

    from repro.benchsuite.registry import NPB_BENCHMARKS, SPEC_ACC_BENCHMARKS
    from repro.session import stages

    built = Counter()
    counting = []
    real_init = Term.__init__

    def counting_init(self, *args, **kwargs):
        built[counting[-1] if counting else None] += 1
        real_init(self, *args, **kwargs)

    def counted(stage_cls):
        real_run = stage_cls.run

        def run(self, ctx):
            counting.append(self.name)
            try:
                real_run(self, ctx)
            finally:
                counting.pop()

        monkeypatch.setattr(stage_cls, "run", run)

    monkeypatch.setattr(Term, "__init__", counting_init)
    counted(stages.ExtractionStage)
    counted(stages.CodegenStage)
    sources = dict.fromkeys(
        spec.source for bench in NPB_BENCHMARKS + SPEC_ACC_BENCHMARKS for spec in bench.kernels
    )
    for variant in Variant:
        config = SaturatorConfig(variant=variant, limits=RunnerLimits(10_000, 10, 300.0))
        for source in sources:
            assert optimize_source(source, config).kernels
    assert built["extract"] == 0 and built["codegen"] == 0
    # the gate means something: the count sees the SSA builder's terms
    assert built[None] > 10_000


class _Unit:
    def op_cost(self, op, payload):
        return 1.0


def _two_cycle():
    """An e-graph whose classes A = {f(X)} and X = {x, g(A)} admit the
    cyclic selection ``A -> f(X), X -> g(A)``; returns (graph, A, X, that
    selection)."""

    eg = EGraph()
    x = eg.add_leaf("sym", "x")
    a = eg.add(ENode("f", (x,)))
    ga = eg.add(ENode("g", (a,)))
    eg.merge(x, ga)
    eg.rebuild()
    a, x = eg.find(a), eg.find(x)
    (key_f,) = eg.keys_of(a)
    key_g = next(k for k in eg.keys_of(x) if eg.op_names[k[0]] == "g")
    return eg, a, x, {a: key_f, x: key_g}


def test_planted_cyclic_tree_selection_is_refused(monkeypatch):
    """A DP table that selects a cycle (the column kernel never does; this
    one is planted) makes ``DagExtractor.extract`` raise, not return it."""

    eg, a, x, cycle = _two_cycle()
    real_build = _DPState.build

    def planted(egraph, cost_function):
        state = real_build(egraph, cost_function)
        state.best[x] = (state.best[x][0], cycle[x])
        return state

    monkeypatch.setattr(_DPState, "build", staticmethod(planted))
    with pytest.raises(ExtractionError, match="cyclic"):
        DagExtractor(eg, _Unit()).extract([a])


def test_planted_cyclic_snapshot_is_not_resolved():
    eg, a, x, cycle = _two_cycle()
    snapshot = extract.ExtractionResult(cycle, 2.0, 0.0, "dag-greedy")
    assert extract.resolve_result(eg, snapshot, [a], _Unit()) is None
    with pytest.raises(ExtractionError, match="cyclic"):
        extract.extract_terms(eg, cycle, [a])
    # the acyclic selection of the same graph resolves
    acyclic = dict(cycle)
    acyclic[x] = eg._intern_node(ENode("sym", (), "x"))
    snapshot = extract.ExtractionResult(acyclic, 2.0, 0.0, "dag-greedy")
    assert extract.resolve_result(eg, snapshot, [a], _Unit()) is not None
    assert str(extract.extract_terms(eg, acyclic, [a])[a]) == "(f x)"
