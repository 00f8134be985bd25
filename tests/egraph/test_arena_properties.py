"""Property tests pinning the arena e-graph core to a reference model.

The flat interned representation (``(op_id, payload_id, *child_ids)`` keys,
batched rebuild, ENode values built on demand) must be observationally
identical to a straightforward e-graph: randomized interleavings of add /
merge / rebuild / extract are mirrored into a naive reference implementation that
recomputes congruence closure by whole-graph fixpoint, and the two are
compared on

* the **equivalence partition** over every added class id (congruence
  closure finds exactly the same equalities),
* the **canonical node multiset** (same operators/payloads/child classes,
  up to the id renaming between the two implementations),
* **extraction**: per-root minimum tree costs match a reference DP exactly,
  and the arena's extracted term is well-formed with the cost it claims.

An analysis arm runs :class:`ConstantFoldingAnalysis` over integer ``num``
leaves and ``+`` / ``*`` nodes against a reference that computes each
class's constant as a naive least fixpoint (merging in the ``num`` leaf
``modify`` adds) and compares the partition and every class's constant.
A planted rebuild that skips the analysis pass over parent rows fails it.

``check_invariants`` (hashcons coherence, interning table consistency,
O(1) node count, every synced row's class canonical) runs after every
rebuild.
"""

import copy

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.egraph.analysis import ConstantFoldingAnalysis
from repro.egraph.egraph import EGraph, ENode
from repro.egraph.extract import _DPState
from repro.egraph.language import Term


# ---------------------------------------------------------------------------
# Reference implementation: naive congruence closure + naive tree DP
# ---------------------------------------------------------------------------


class RefEGraph:
    """A deliberately simple e-graph: no hashcons upkeep, no worklists.

    Nodes are ``(op, payload-type, payload, child...)`` tuples over *ref*
    class ids; congruence closure is restored by running "merge everything
    congruent" to a fixpoint over all node pairs.  Quadratic and slow —
    which is the point: it is obviously correct.
    """

    def __init__(self):
        self.parent = []
        self.nodes = {}  # canonical spelling -> class id (after closure)
        self.pending = []  # (spelling, class) added since the last closure

    # -- union-find ----------------------------------------------------------

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def _union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
        return self.find(ra)

    # -- operations mirrored from the arena ----------------------------------

    def _spell(self, op, payload, children):
        return (op, type(payload).__name__, payload) + tuple(
            self.find(c) for c in children
        )

    def add(self, op, payload, children):
        spelling = self._spell(op, payload, children)
        known = self._lookup(spelling)
        if known is not None:
            return known
        cid = len(self.parent)
        self.parent.append(cid)
        self.pending.append((spelling, cid))
        return cid

    def _lookup(self, spelling):
        for known, kid in list(self.nodes.items()) + self.pending:
            if known == spelling:
                return self.find(kid)
        return None

    def merge(self, a, b):
        self._union(a, b)

    def rebuild(self):
        """Whole-graph congruence closure by fixpoint."""

        entries = list(self.nodes.items()) + self.pending
        self.pending = []
        changed = True
        while changed:
            changed = False
            respelled = {}
            for spelling, cid in entries:
                head = spelling[:3]
                canon = head + tuple(self.find(c) for c in spelling[3:])
                other = respelled.get(canon)
                if other is None:
                    respelled[canon] = self.find(cid)
                elif self.find(other) != self.find(cid):
                    self._union(other, cid)
                    changed = True
            entries = list(respelled.items())
        self.nodes = dict(entries)

    # -- queries --------------------------------------------------------------

    def canonical_nodes(self):
        """Multiset of canonical nodes as (op, payload type, payload, kids)."""

        return sorted(
            spelling[:3] + tuple(self.find(c) for c in spelling[3:])
            for spelling in self.nodes
        )

    def tree_costs(self, cost_of_op):
        """Min tree cost per canonical class, by naive whole-graph fixpoint."""

        best = {}
        changed = True
        while changed:
            changed = False
            for spelling, cid in self.nodes.items():
                cid = self.find(cid)
                total = cost_of_op(spelling[0])
                feasible = True
                for child in spelling[3:]:
                    child_cost = best.get(self.find(child))
                    if child_cost is None:
                        feasible = False
                        break
                    total += child_cost
                if feasible and total < best.get(cid, float("inf")):
                    best[cid] = total
                    changed = True
        return best


class _OpCost:
    """Tiny cost model for the property tests (op-dependent, payload-free)."""

    COSTS = {"sym": 1.0, "f": 2.0, "+": 10.0, "*": 10.0, "-": 10.0}

    @classmethod
    def op_cost(cls, op: str, payload=None) -> float:
        return cls.COSTS.get(op, 5.0)


# ---------------------------------------------------------------------------
# The interleaving property
# ---------------------------------------------------------------------------

_OPS = ["+", "*", "-", "f"]

#: One step of the randomized interleaving:
#: ("add", op index, arity, child picks) / ("merge", pick, pick) /
#: ("rebuild",) / ("extract", pick)
_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(0, len(_OPS) - 1),
            st.integers(0, 2),
            st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
        ),
        st.tuples(st.just("merge"), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
        st.tuples(st.just("rebuild")),
        st.tuples(st.just("extract"), st.integers(0, 10 ** 6)),
    ),
    min_size=1,
    max_size=40,
)


def _compare_partitions(eg: EGraph, ref: RefEGraph, ids, ref_ids):
    """Both implementations must equate exactly the same pairs of adds."""

    n = len(ids)
    for i in range(n):
        for j in range(i + 1, n):
            assert eg.is_equal(ids[i], ids[j]) == (
                ref.find(ref_ids[i]) == ref.find(ref_ids[j])
            ), f"equivalence of adds #{i} and #{j} diverges"


def _compare_nodes(eg: EGraph, ref: RefEGraph, ids, ref_ids):
    """Canonical node multisets agree modulo the class-id renaming."""

    # build the (partial) id bijection from the paired add handles
    rename = {}
    for a, r in zip(ids, ref_ids):
        rename[eg.find(a)] = ref.find(r)
    arena = sorted(
        (node.op, type(node.payload).__name__, node.payload)
        + tuple(rename[eg.find(c)] for c in node.children)
        for _, node in eg.canonical_nodes()
    )
    assert arena == ref.canonical_nodes()


def _tree_term(eg, best, cid):
    """The minimum-tree-cost term of *cid*'s class, read off the DP table."""

    key = best[eg.find(cid)][1]
    children = tuple(_tree_term(eg, best, key[i]) for i in range(2, len(key)))
    return Term(eg.op_names[key[0]], children, eg.payloads[key[1]])


@settings(max_examples=60, deadline=None)
@given(_steps)
def test_arena_matches_reference_under_interleavings(steps):
    eg = EGraph()
    ref = RefEGraph()
    cost = _OpCost()

    ids = []      # arena class id per add, in op order
    ref_ids = []  # reference class id per add, same order
    seeded = [
        (eg.add(ENode("sym", (), f"s{i}")), ref.add("sym", f"s{i}", ()))
        for i in range(3)
    ]
    for a, r in seeded:
        ids.append(a)
        ref_ids.append(r)

    dirty = False
    for step in steps:
        kind = step[0]
        if kind == "add":
            _, op_index, arity, picks = step
            chosen = [picks[k % 2] % len(ids) for k in range(arity)]
            op = _OPS[op_index]
            a = eg.add(ENode(op, tuple(eg.find(ids[c]) for c in chosen)))
            r = ref.add(op, None, tuple(ref_ids[c] for c in chosen))
            ids.append(a)
            ref_ids.append(r)
            dirty = True
        elif kind == "merge":
            _, x, y = step
            i, j = x % len(ids), y % len(ids)
            eg.merge(ids[i], ids[j])
            ref.merge(ref_ids[i], ref_ids[j])
            dirty = True
        elif kind == "rebuild":
            eg.rebuild()
            ref.rebuild()
            eg.check_invariants()
            dirty = False
        else:  # extract
            if dirty:
                # both engines only promise closure after an explicit rebuild
                continue
            _, x = step
            i = x % len(ids)
            expected = ref.tree_costs(_OpCost.op_cost).get(ref.find(ref_ids[i]))
            if expected is None:
                continue
            best = _DPState.build(eg, cost).best
            assert best[eg.find(ids[i])][0] == expected
            term = _tree_term(eg, best, ids[i])
            # the extracted term is well-formed and priced consistently
            assert sum(_OpCost.op_cost(t.op) for t in term.walk()) == expected

    eg.rebuild()
    ref.rebuild()
    eg.check_invariants()
    _compare_partitions(eg, ref, ids, ref_ids)
    _compare_nodes(eg, ref, ids, ref_ids)

    # final extraction comparison on every class with a finite cost
    expected_costs = ref.tree_costs(_OpCost.op_cost)
    best = _DPState.build(eg, cost).best
    for i, (a, r) in enumerate(zip(ids, ref_ids)):
        expected = expected_costs.get(ref.find(r))
        if expected is None:
            continue
        assert best[eg.find(a)][0] == expected, f"tree cost of add #{i}"


# ---------------------------------------------------------------------------
# The analysis arm: constant folding == a naive least fixpoint
# ---------------------------------------------------------------------------

_FOLD = {"+": lambda a, b: a + b, "*": lambda a, b: a * b}
_FOLD_OPS = sorted(_FOLD)
#: Constants are kept small so a chain of squarings cannot blow up.
_BOUND = 10 ** 6


class _Unfoldable(Exception):
    """The drawn step would give a class two constants, or a huge one."""


class RefConstEGraph(RefEGraph):
    """:class:`RefEGraph` plus constant folding by whole-graph fixpoint."""

    def constants(self):
        """class -> constant, the least fixpoint over every node."""

        const = {}
        changed = True
        while changed:
            changed = False
            for spelling, cid in self.nodes.items():
                op, payload, kids = spelling[0], spelling[2], spelling[3:]
                if op == "num":
                    value = payload
                elif op in _FOLD and all(self.find(k) in const for k in kids):
                    value = _FOLD[op](*(const[self.find(k)] for k in kids))
                else:
                    continue
                if abs(value) > _BOUND:
                    raise _Unfoldable
                cid = self.find(cid)
                known = const.get(cid)
                if known is None:
                    const[cid] = value
                    changed = True
                elif known != value:
                    raise _Unfoldable
        return const

    def close(self):
        """Congruence closure plus ``modify``: every constant class holds
        its ``num`` leaf.  Returns the constants of the closed graph."""

        while True:
            self.rebuild()
            const = self.constants()
            grew = False
            for cid, value in const.items():
                leaf = self.add("num", value, ())
                if self.find(leaf) != self.find(cid):
                    self.merge(leaf, cid)
                    grew = True
            if not grew:
                return const


#: ("add", op index, (pick, pick)) / ("merge", pick, pick) / ("rebuild",)
_fold_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(0, len(_FOLD_OPS) - 1),
            st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
        ),
        st.tuples(st.just("merge"), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
        st.tuples(st.just("rebuild")),
    ),
    min_size=1,
    max_size=30,
)

#: Seed handles: ``num`` 0..3 at 0..3, non-constant ``sym`` leaves at 4, 5.
_FOLD_SEEDS = [("num", v) for v in range(4)] + [("sym", "s0"), ("sym", "s1")]


def _compare_constants(eg: EGraph, ref: RefConstEGraph, const, ids, ref_ids):
    for i, (a, r) in enumerate(zip(ids, ref_ids)):
        assert eg.data_of(a) == const.get(ref.find(r)), f"constant of add #{i}"


@settings(max_examples=60, deadline=None)
@given(_fold_steps)
# s0 == 2 makes (+ s0 1) fold to 3 only through the parent-row pass
@example([("add", _FOLD_OPS.index("+"), (4, 1)), ("merge", 4, 2), ("rebuild",)])
def test_constant_folding_matches_reference_fixpoint(steps):
    eg = EGraph(ConstantFoldingAnalysis())
    ref = RefConstEGraph()
    ids = [eg.add_leaf(op, payload) for op, payload in _FOLD_SEEDS]
    ref_ids = [ref.add(op, payload, ()) for op, payload in _FOLD_SEEDS]
    const = ref.close()

    for step in steps:
        # the reference applies the step to a copy first: a step whose
        # closure would join two different constants is skipped, so the
        # order in which the arena joins analysis data cannot matter
        trial = copy.deepcopy(ref)
        if step[0] == "add":
            _, op_index, picks = step
            a, b = (p % len(ids) for p in picks)
            added = trial.add(_FOLD_OPS[op_index], None, (ref_ids[a], ref_ids[b]))
        elif step[0] == "merge":
            i, j = step[1] % len(ids), step[2] % len(ids)
            trial.merge(ref_ids[i], ref_ids[j])
        try:
            trial_const = trial.close()
        except _Unfoldable:
            continue
        ref, const = trial, trial_const
        if step[0] == "add":
            ids.append(eg.add(ENode(_FOLD_OPS[op_index], (ids[a], ids[b]))))
            ref_ids.append(added)
        elif step[0] == "merge":
            eg.merge(ids[i], ids[j])
        else:
            eg.rebuild()
            eg.check_invariants()
            _compare_partitions(eg, ref, ids, ref_ids)
            _compare_constants(eg, ref, const, ids, ref_ids)

    eg.rebuild()
    eg.check_invariants()
    _compare_partitions(eg, ref, ids, ref_ids)
    _compare_constants(eg, ref, const, ids, ref_ids)


def _parent_rows_skipped(eg):
    """A planted mutant of ``EGraph._propagate_analysis``: it runs ``modify``
    on the dirty classes but never re-runs the analysis on their parent
    rows."""

    find = eg.uf.find
    todo = sorted({find(i) for i in eg._analysis_dirty})
    eg._analysis_dirty.clear()
    for eclass_id in todo:
        eg.analysis.modify(eg, eclass_id)


def test_skipped_parent_rows_are_caught(monkeypatch):
    """The analysis arm kills a rebuild without the parent-row pass."""

    monkeypatch.setattr(EGraph, "_propagate_analysis", _parent_rows_skipped)
    with pytest.raises(AssertionError, match=r"of adds? #"):
        test_constant_folding_matches_reference_fixpoint()
