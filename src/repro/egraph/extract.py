"""Extraction of optimal terms from a saturated e-graph.

The paper extracts "the lowest-cost expression that contains all the
e-classes of assignments ... with common e-classes being counted only once"
using linear programming (CBC).  This module provides the two methods of
:func:`extract_best`, both over one tree DP:

* :class:`DagExtractor` (``"dag-greedy"``, the default) — per-class
  tree-optimal choices from the DP, costed as a DAG (each selected e-class
  counted once) and improved by a sharing-aware local search: the paper's
  common-subexpression-aware objective under a greedy choice.
* :class:`ILPExtractor` (``"ilp"``) — the exact formulation as a 0/1
  integer program solved with ``scipy.optimize.milp``, standing in for the
  paper's CBC solver.  Cycle freedom is enforced with topological-level
  variables.

Both return an :class:`ExtractionResult`, which carries the selected node
key per e-class and the DAG cost of the selection; both refuse a cyclic
selection (:func:`_reachable_from`).  Terms are built only on request:
:func:`extract_terms` spells the selection under each root as a
:class:`~repro.egraph.language.Term`, which code generation never needs.

The tree DP runs as numpy column kernels over the e-graph's
:class:`~repro.egraph.columns.ColumnStore` rows (see :class:`_DPState`):
class and child columns are canonicalised with one gather each, rows are
priced from a per-``(op_id, payload_id)`` table, ``best[class] = min over
its rows of price + sum of best[child]`` is iterated for all classes at once
(``np.minimum.reduceat`` over class segments) until no class improves, and
equal-cost rows are ordered by one ``np.lexsort``.  Both extractors, the
DAG local search and :func:`resolve_result` work on the **interned node
keys** (``(op_id, payload_id, *child_ids)`` int tuples) the e-graph stores,
and :attr:`ExtractionResult.choices` hands those keys to code generation
unchanged; operator names and payloads are read from the e-graph's
``op_names`` / ``payloads`` tables where a name is needed.  ``op_cost`` is
called once per distinct ``(op, payload)`` pair, never per e-node.

Every extraction is computed from scratch.  The one place a result is
reused is anytime extraction
(:class:`~repro.egraph.runner.AnytimeExtraction`), which keeps its last
result with the e-graph version it was taken at.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Set, Tuple

import numpy as np

from repro.egraph import columns
from repro.egraph.egraph import EGraph, NodeKey
from repro.egraph.language import Payload, Term

__all__ = [
    "EXTRACTION_METHODS",
    "CostFunction",
    "ExtractionError",
    "ExtractionResult",
    "DagExtractor",
    "ILPExtractor",
    "extract_best",
    "extract_terms",
    "resolve_result",
]


class ExtractionError(RuntimeError):
    """Raised when no finite-cost selection exists for the requested roots."""


class CostFunction(Protocol):
    """Anything that can price a single node from its ``(op, payload)``.

    Children are not included — they are priced separately, as their own
    classes — so extraction prices each distinct ``(op, payload)`` pair of
    an e-graph once (the same call :meth:`repro.cost.CostModel.term_cost`
    makes per term node).
    """

    def op_cost(self, op: str, payload: Payload) -> float:  # pragma: no cover - protocol
        ...


@dataclass
class ExtractionResult:
    """The outcome of extraction."""

    #: Chosen node key for every e-class reachable from the roots.
    choices: Dict[int, NodeKey]
    #: DAG cost of the selection (shared e-classes counted once).
    dag_cost: float
    #: Wall-clock time spent extracting.
    elapsed: float = 0.0
    #: Extractor name ("dag-greedy", "ilp").
    method: str = ""


# ---------------------------------------------------------------------------
# Tree DP (bottom-up fixpoint, as column kernels)
# ---------------------------------------------------------------------------


class _DPState:
    """The tree-cost dynamic-programming table for one e-graph version.

    ``best`` maps every finite-cost (canonical) e-class id to its
    ``(tree cost, chosen key)`` entry.  :meth:`build` computes it as column
    kernels over the alive :class:`~repro.egraph.columns.ColumnStore` rows —
    egg's bottom-up fixpoint, iterated for all classes at once — and
    :meth:`key_cost` prices a key from the same per-``(op_id, payload_id)``
    table the kernel priced its rows from, so the DP's costs and a
    selection's reported DAG cost cannot disagree.  An unbuilt state is
    just that price table (the ILP and :func:`resolve_result` use it so).
    """

    __slots__ = ("best", "_prices", "_egraph", "_cost_function")

    def __init__(self, egraph: EGraph, cost_function: CostFunction) -> None:
        self._egraph = egraph
        self._cost_function = cost_function
        #: (op_id, payload_id) -> op_cost of that operator and payload.
        self._prices: Dict[Tuple[int, int], float] = {}
        self.best: Dict[int, Tuple[float, NodeKey]] = {}

    def key_cost(self, key: NodeKey) -> float:
        """Price of *key*'s ``(op_id, payload_id)`` head (a bare pair works)."""

        pair = key[:2]
        cost = self._prices.get(pair)
        if cost is None:
            eg = self._egraph
            cost = self._prices[pair] = self._cost_function.op_cost(
                eg.op_names[pair[0]], eg.payloads[pair[1]]
            )
        return cost

    @staticmethod
    def build(egraph: EGraph, cost_function: CostFunction) -> "_DPState":
        state = _DPState(egraph, cost_function)
        # rows grouped by canonical class, ascending row order — hashcons
        # dict order — within a class
        rows, cls, offsets = egraph._class_rows()
        if not rows.size:
            return state
        class_ids = np.flatnonzero(np.diff(offsets))
        starts = offsets[class_ids]
        store = egraph.store
        roots = egraph._np_roots()

        # canonical child slots; a -1 pad indexes the appended last entry,
        # the sentinel slot whose best cost is pinned to zero
        sentinel = len(roots)
        slot_of = np.append(roots, sentinel)
        raw = [columns.as_int64(col)[rows] for col in store.child]
        kids = slot_of[np.array(raw, dtype=np.int64).reshape(len(raw), len(rows))]

        op = columns.as_int64(store.op)[rows]
        pid = columns.as_int64(store.payload)[rows]
        n_payloads = len(egraph.payloads)
        code = op * n_payloads + pid
        used = np.flatnonzero(np.bincount(code))
        key_cost = state.key_cost
        price = np.zeros(int(used[-1]) + 1)
        price[used] = [key_cost(divmod(c, n_payloads)) for c in used.tolist()]
        base = price[code]

        # Jacobi iteration of ``best[c] = min over c's rows of base + sum of
        # best[child]`` from +inf: float addition is monotone, so it reaches
        # the same (greatest) fixpoint as any worklist order, and children
        # are added in slot order so the sums are the worklist's bit for bit
        best = np.full(sentinel + 1, np.inf)
        best[sentinel] = 0.0
        lowest = best[class_ids]
        while True:
            total = base.copy()
            for col in best[kids]:
                total += col
            previous, lowest = lowest, np.minimum.reduceat(total, starts)
            if not np.count_nonzero(lowest < previous):
                break
            best[class_ids] = lowest

        # Per class, the minimum-cost row; equal-cost ties are broken by, in
        # order: not referencing the node's own class (a self-referential
        # choice cannot be reconstructed as a term), fewer *distinct* child
        # classes (more sharing, which the DAG objective rewards — e.g.
        # prefer ``(+ x x)`` over an equal-tree-cost chain), then the
        # deterministic key order ``(op name, str(payload), raw children)``
        # — a -1 pad sorts a prefix first, as tuple comparison does.
        cand = np.flatnonzero((total == best[cls]) & (total < np.inf))
        own = cls[cand]
        head = _run_heads(own)
        if not head.all():
            slots = kids[:, cand].T
            self_ref = (slots == own[:, None]).any(axis=1)
            slots.sort(axis=1)  # pads (the sentinel) sort last
            fresh = slots < sentinel
            fresh[:, 1:] &= slots[:, 1:] != slots[:, :-1]
            n_distinct = fresh.sum(axis=1)
            op_rank = _dense_ranks(egraph.op_names)
            payload_rank = _dense_ranks([text for text, _ in egraph._payload_sort])
            # last key is primary; the class column stays as it was (already
            # ascending), so ``own`` and ``head`` still describe ``cand``
            cand = cand[
                np.lexsort(
                    [col[cand] for col in reversed(raw)]
                    + [payload_rank[pid[cand]], op_rank[op[cand]]]
                    + [n_distinct, self_ref, own]
                )
            ]
        chosen = cand[head]
        keys = store.keys
        state.best = {
            cid: (cost, keys[row])
            for cid, cost, row in zip(
                own[head].tolist(), total[chosen].tolist(), rows[chosen].tolist()
            )
        }
        return state


def _run_heads(ids):
    """Mask of the first entry of every run of equal values in *ids*."""

    head = np.ones(len(ids), dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=head[1:])
    return head


def _dense_ranks(texts: Sequence[str]):
    """int64 array: position of each text among the sorted distinct texts."""

    rank_of = {text: rank for rank, text in enumerate(sorted(set(texts)))}
    return np.array([rank_of[text] for text in texts], dtype=np.int64)


def _reachable_from(egraph: EGraph, roots: Sequence[int], key_of) -> Set[int]:
    """Classes reachable from the roots through the selected node keys.

    Raises :class:`ExtractionError` when the selection is cyclic: a class
    reached again while its own descendants are being visited.
    """

    seen: Set[int] = set()
    on_path: Set[int] = set()
    find = egraph.uf.find
    stack = [find(r) for r in roots]
    while stack:
        cid = stack.pop()
        if cid < 0:  # ~cid: every descendant of cid is visited
            on_path.discard(~cid)
            continue
        if cid in seen:
            if cid in on_path:
                raise ExtractionError(f"cyclic selection through e-class {cid}")
            continue
        seen.add(cid)
        on_path.add(cid)
        stack.append(~cid)
        key = key_of(cid)
        for i in range(2, len(key)):
            stack.append(find(key[i]))
    return seen


def _name_order(egraph: EGraph):
    """Sort key ``(op name, str(payload), children)`` for node keys.

    Name-based on purpose: op ids are insertion-ordered, so ordering keys
    by id would change which of several equal-cost nodes wins.
    """

    op_names, payload_sort = egraph.op_names, egraph._payload_sort

    def order(key: NodeKey) -> tuple:
        return (op_names[key[0]], payload_sort[key[1]][0], key[2:])

    return order


def _dag_cost(key_cost, choices: Dict[int, NodeKey]) -> float:
    """Sum of the selected keys' prices, each e-class counted once."""

    return float(sum(map(key_cost, choices.values())))


# ---------------------------------------------------------------------------
# Greedy DAG extraction
# ---------------------------------------------------------------------------


class DagExtractor:
    """Greedy DAG extraction: tree-optimal per-class choices, DAG-costed.

    This matches the paper's objective (common e-classes counted once) under
    a greedy per-class choice; the exact optimum is available from
    :class:`ILPExtractor` and the two are compared in the ablation bench.
    Each :meth:`extract` builds the tree DP once (:meth:`_DPState.build`),
    seeds the selection with its per-class best keys, and improves it by a
    local search that runs entirely over interned keys.
    """

    def __init__(self, egraph: EGraph, cost_function: CostFunction) -> None:
        self.egraph = egraph
        self.cost_function = cost_function
        #: The tree DP of the latest :meth:`extract` (unbuilt before one).
        self._state = _DPState(egraph, cost_function)

    def extract(self, roots: Sequence[int]) -> ExtractionResult:
        start = time.perf_counter()
        egraph = self.egraph
        roots = [egraph.find(r) for r in roots]

        self._state = state = _DPState.build(egraph, self.cost_function)
        table = state.best

        def chosen(cid: int) -> NodeKey:  # canonical ids only
            entry = table.get(cid)
            if entry is None:
                raise ExtractionError(f"no finite-cost term for e-class {cid}")
            return entry[1]

        reachable = _reachable_from(egraph, roots, chosen)
        choices = {cid: table[cid][1] for cid in reachable}
        if self._improve_dag(roots, choices):
            # re-derive reachability and drop the classes no longer used
            reachable = _reachable_from(egraph, roots, choices.__getitem__)
            choices = {cid: choices[cid] for cid in reachable}

        cost = _dag_cost(state.key_cost, choices)
        return ExtractionResult(
            choices, cost, time.perf_counter() - start, "dag-greedy"
        )

    # -- DAG-aware local search ----------------------------------------------

    def _tree_level(self, cid: int, cache: Dict[int, int]) -> int:
        """Topological level of *cid* in the tree-best selection.

        Levels strictly decrease along tree-best edges, so restricting a
        candidate node's children to lower levels than its class keeps any
        selection built from them acyclic.
        """

        cached = cache.get(cid)
        if cached is not None:
            return cached
        find = self.egraph.uf.find
        tree_best = self._state.best
        stack = [(cid, False)]
        in_progress: Set[int] = set()
        while stack:
            current, expanded = stack.pop()
            if expanded:
                key = tree_best[current][1]
                lv = 0
                for i in range(2, len(key)):
                    lv = max(lv, cache[find(key[i])])
                cache[current] = lv + 1
                in_progress.discard(current)
                continue
            if current in cache:
                continue
            if current in in_progress:
                raise ExtractionError(
                    f"cyclic tree-best selection through e-class {current}"
                )
            entry = tree_best.get(current)
            if entry is None:
                raise ExtractionError(f"no finite-cost term for e-class {current}")
            in_progress.add(current)
            stack.append((current, True))
            key = entry[1]
            for i in range(2, len(key)):
                c = find(key[i])
                if c not in cache:
                    stack.append((c, False))
        return cache[cid]

    def _improve_dag(
        self, roots: Sequence[int], choices: Dict[int, NodeKey], max_passes: int = 8
    ) -> bool:
        """Savings-aware local search over the selected DAG (in place).

        Returns whether any choice was switched.

        The per-class tree-optimal selection is blind to sharing: an
        equal-tree-cost node can pull in a chain of classes used nowhere
        else while an alternative reuses classes the selection already
        pays for (the paper's CSE objective).  Starting from the greedy
        selection, repeatedly switch one class's choice when the *DAG*
        cost strictly improves — newly required classes are priced at
        their tree-best cost (an upper bound on their real marginal cost)
        and classes that become unreachable are credited via a
        reference-count cascade.  Every commit strictly decreases the DAG
        cost, and the tree-level guard keeps the selection acyclic, so the
        search terminates.
        """

        egraph = self.egraph
        if len(egraph) == egraph.num_classes:
            return False  # every class holds one node: nothing to switch to
        find = egraph.uf.find
        parent = egraph.uf._parent
        cost_of = self._state.key_cost
        key_order = _name_order(egraph)  # the DP's deterministic tie-break

        # the graph does not mutate during the local search, so canonical
        # child sets can be memoized per key for the whole call
        ch_memo: Dict[NodeKey, frozenset] = {}

        def children_of(key: NodeKey) -> frozenset:
            result = ch_memo.get(key)
            if result is None:
                tail = key[2:]
                # selection keys are canonical after rebuild; skip find()
                # unless a child id is stale (inlined UnionFind.is_root)
                for c in tail:
                    if parent[c] != c:
                        result = frozenset(find(x) for x in tail)
                        break
                else:
                    result = frozenset(tail)
                ch_memo[key] = result
            return result

        tree_best = self._state.best
        levels: Dict[int, int] = {}

        protected = set(roots)
        refs: Dict[int, int] = {cid: 0 for cid in choices}
        for key in choices.values():
            for ch in children_of(key):
                refs[ch] = refs.get(ch, 0) + 1

        #: None = full sweep; afterwards only classes whose selection
        #: neighbourhood changed in the previous pass are revisited.
        dirty: Optional[Set[int]] = None
        switched = False
        for _ in range(max_passes):
            changed_classes: Set[int] = set()
            if dirty is None:
                order = sorted(choices)
            else:
                order = sorted(c for c in dirty if c in choices)
            for cid in order:
                if cid not in choices:
                    continue  # dropped by an earlier cascade this pass
                current = choices[cid]
                cls_keys = egraph.keys_of(cid)
                if len(cls_keys) == 1:
                    # the current choice is the only node: no candidate can
                    # exist, so skip the releasable-cost cascade outright
                    continue
                try:
                    class_level = self._tree_level(cid, levels)
                except ExtractionError:
                    continue
                cur_cost = cost_of(current)
                cur_children = children_of(current)
                # Candidate-independent upper bound on the releasable cost:
                # cascade as if every current child lost its reference.
                # Excluding a candidate's reused children or counting its
                # new references only shrinks the real figure, so any
                # candidate with cost(cand) - cur_cost >= freed_ub can
                # never produce a negative delta (added_cost >= 0) and is
                # rejected before the per-candidate simulation.
                freed_ub = 0.0
                # the cascade can only free anything if some direct child
                # loses its last reference; checking that first avoids the
                # per-class dict/set allocations in the common no-op case
                # (the check is exactly the cascade's first level)
                releasable = False
                for ch in cur_children:
                    if (
                        refs.get(ch, 0) <= 1
                        and ch not in protected
                        and ch in choices
                    ):
                        releasable = True
                        break
                if releasable:
                    ub_dec: Dict[int, int] = {}
                    ub_removed: Set[int] = set()
                    process = list(cur_children)
                    for ch in process:
                        ub_dec[ch] = ub_dec.get(ch, 0) + 1
                    while process:
                        c = process.pop()
                        if c in ub_removed or c in protected or c not in choices:
                            continue
                        if refs.get(c, 0) - ub_dec.get(c, 0) > 0:
                            continue
                        ub_removed.add(c)
                        removed_key = choices[c]
                        freed_ub += cost_of(removed_key)
                        for gc in children_of(removed_key):
                            ub_dec[gc] = ub_dec.get(gc, 0) + 1
                            process.append(gc)
                threshold = cur_cost + freed_ub - 1e-9
                candidates = [
                    k
                    for k in cls_keys
                    if k != current and cost_of(k) < threshold
                ]
                if not candidates:
                    continue
                best = None
                if len(candidates) > 1:
                    candidates.sort(key=key_order)
                commit_bar = -1e-9  # tightens to the best delta as commits land
                for cand in candidates:
                    cand_children = children_of(cand)
                    if cid in cand_children:
                        continue
                    if cand_children == cur_children:
                        # same child set (commuted/reassociated spelling
                        # over the same classes — the common case in a
                        # saturated class): no class is added or freed, so
                        # the exact delta is the node-cost difference and
                        # the cascade simulation is a no-op.  The tree-level
                        # guard also holds trivially (the children already
                        # support the current choice at this level).
                        delta = cost_of(cand) - cur_cost
                        if delta < commit_bar:
                            best = (delta, cand, [], {}, {}, [])
                            commit_bar = delta
                        continue
                    # Branch-and-bound: delta = cost(cand) - cur_cost +
                    # added_cost - freed, with freed <= freed_ub and
                    # added_cost at least the node costs of cand's direct
                    # children outside the selection (the closure only adds
                    # more).  The commit rule is strictly-less-than, so a
                    # candidate whose lower bound reaches the bar can never
                    # displace the best — skip its cascade simulation.
                    added_lb = 0.0
                    feasible = True
                    for ch in cand_children:
                        if ch not in choices:
                            entry = tree_best.get(ch)
                            if entry is None:
                                feasible = False
                                break
                            added_lb += cost_of(entry[1])
                    if not feasible:
                        continue
                    if cost_of(cand) - cur_cost + added_lb - freed_ub >= commit_bar:
                        continue
                    try:
                        if any(
                            self._tree_level(ch, levels) >= class_level
                            for ch in cand_children
                        ):
                            continue
                    except ExtractionError:
                        continue

                    # classes the switch newly requires: closure over the
                    # tree-best choices of classes outside the selection
                    added: List[int] = []
                    added_set: Set[int] = set()
                    added_cost = 0.0
                    feasible = True
                    stack = [ch for ch in cand_children if ch not in choices]
                    while stack:
                        c = stack.pop()
                        if c in added_set or c in choices:
                            continue
                        entry = tree_best.get(c)
                        if entry is None:
                            feasible = False
                            break
                        added_set.add(c)
                        added.append(c)
                        added_cost += cost_of(entry[1])
                        entry_key = entry[1]
                        for i in range(2, len(entry_key)):
                            g = find(entry_key[i])
                            if g not in choices and g not in added_set:
                                stack.append(g)
                    if not feasible:
                        continue

                    # simulate the reference-count shift of the switch:
                    # +1 for classes cand newly references (and references
                    # made by added classes), -1 cascade from classes only
                    # the current choice needed
                    inc: Dict[int, int] = {}
                    for ch in cand_children - cur_children:
                        inc[ch] = inc.get(ch, 0) + 1
                    for c in added:
                        added_key = tree_best[c][1]
                        for gc in children_of(added_key):
                            inc[gc] = inc.get(gc, 0) + 1
                    dec: Dict[int, int] = {}
                    freed = 0.0
                    removed: List[int] = []
                    removed_set: Set[int] = set()
                    process = list(cur_children - cand_children)
                    for ch in process:
                        dec[ch] = dec.get(ch, 0) + 1
                    while process:
                        c = process.pop()
                        if c in removed_set or c in protected or c not in choices:
                            continue
                        if refs.get(c, 0) + inc.get(c, 0) - dec.get(c, 0) > 0:
                            continue
                        removed_set.add(c)
                        removed.append(c)
                        removed_key = choices[c]
                        freed += cost_of(removed_key)
                        for gc in children_of(removed_key):
                            dec[gc] = dec.get(gc, 0) + 1
                            process.append(gc)

                    delta = cost_of(cand) - cur_cost + added_cost - freed
                    if delta < commit_bar:
                        best = (delta, cand, added, inc, dec, removed)
                        commit_bar = delta

                if best is None:
                    continue
                _, cand, added, inc, dec, removed = best
                choices[cid] = cand
                for c in added:
                    choices[c] = tree_best[c][1]
                    refs.setdefault(c, 0)
                for c, n in inc.items():
                    refs[c] = refs.get(c, 0) + n
                for c, n in dec.items():
                    refs[c] = refs.get(c, 0) - n
                for c in removed:
                    del choices[c]
                    refs.pop(c, None)
                changed_classes.add(cid)
                changed_classes.update(added)
                changed_classes.update(inc)
                changed_classes.update(dec)
                changed_classes.update(removed)
            if not changed_classes:
                break
            switched = True
            # revisit the changed classes and every selected class whose
            # choice references one (their freed_ub / sharing opportunities
            # may have shifted)
            dirty = set(changed_classes)
            for c, key in choices.items():
                for i in range(2, len(key)):
                    if find(key[i]) in changed_classes:
                        dirty.add(c)
                        break
        return switched


def extract_terms(
    egraph: EGraph, choices: Dict[int, NodeKey], roots: Sequence[int]
) -> Dict[int, Term]:
    """The term the selection *choices* spells under each of *roots*.

    Keyed by each root as given and by its canonical class; a class shared
    by several roots or subterms is one :class:`Term` object.
    """

    memo: Dict[int, Term] = {}
    on_path: Set[int] = set()
    op_names, payloads = egraph.op_names, egraph.payloads

    def build(cid: int) -> Term:
        cid = egraph.find(cid)
        term = memo.get(cid)
        if term is not None:
            return term
        if cid in on_path:
            raise ExtractionError(f"cyclic selection through e-class {cid}")
        key = choices[cid]
        on_path.add(cid)
        children = tuple(build(key[i]) for i in range(2, len(key)))
        on_path.discard(cid)
        term = memo[cid] = Term(op_names[key[0]], children, payloads[key[1]])
        return term

    terms: Dict[int, Term] = {}
    try:
        for root in roots:
            terms[root] = terms[egraph.find(root)] = build(root)
    finally:
        del build  # the recursive closure is a cycle through the graph
    return terms


def resolve_result(
    egraph: EGraph,
    result: ExtractionResult,
    roots: Sequence[int],
    cost_function: CostFunction,
) -> Optional[ExtractionResult]:
    """Rebase a snapshot :class:`ExtractionResult` onto the current e-graph.

    An anytime-extraction snapshot (see
    :class:`~repro.egraph.runner.AnytimeExtraction`) selects e-nodes under
    the class ids that were canonical at the iteration that produced it;
    merges in later iterations may have re-canonicalized or collapsed
    those classes.  This re-keys every choice through ``find``, resolves
    collisions of collapsed classes deterministically (cheaper node first,
    then ``(op name, str(payload), children)``), re-derives reachability
    from *roots*, and re-prices the selection as a DAG under
    *cost_function*.

    Returns ``None`` when the snapshot is no longer a valid selection —
    a collapse routed a choice's children outside the selection, or made
    the selection cyclic — in which case callers should fall back to a
    fresh extraction.  Node keys themselves are never invalidated by
    merges (op and payload ids are append-only), so for a snapshot taken on
    *this* e-graph that is the only failure mode.
    """

    find = egraph.find
    key_cost = _DPState(egraph, cost_function).key_cost
    order = _name_order(egraph)

    def rank(key: NodeKey) -> tuple:
        return (key_cost(key),) + order(key)

    merged: Dict[int, NodeKey] = {}
    for cid, key in result.choices.items():
        canon = find(cid)
        other = merged.get(canon)
        # two snapshot classes collapsed into one: keep the cheaper node
        # (the selection pays each class once), tie-broken deterministically
        if other is None or rank(key) < rank(other):
            merged[canon] = key

    try:
        reachable = _reachable_from(egraph, roots, merged.__getitem__)
    except (ExtractionError, KeyError):
        return None
    choices = {cid: merged[cid] for cid in reachable}
    return ExtractionResult(
        choices, _dag_cost(key_cost, choices), result.elapsed, result.method
    )


# ---------------------------------------------------------------------------
# ILP extraction (scipy.optimize.milp)
# ---------------------------------------------------------------------------


class ILPExtractor:
    """Exact DAG-cost extraction as a 0/1 integer linear program.

    Variables: one binary *selection* variable per (e-class, e-node) pair,
    one binary *activation* variable per e-class, and one continuous
    *level* variable per e-class for cycle elimination.  Constraints:

    * every root class is active,
    * an active class selects at least one of its e-nodes,
    * a selected e-node activates every child class,
    * ``level[child] <= level[class] - 1 + M * (1 - select)`` forbids cycles.

    Objective: minimise the sum of selected e-node costs (DAG cost).
    Candidates are the classes' node keys in ``(op name, str(payload),
    children)`` order — name-based, since op ids are insertion-ordered and
    the variable order steers which of several equal-cost optima the solver
    returns.
    """

    def __init__(
        self,
        egraph: EGraph,
        cost_function: CostFunction,
        time_limit: float = 30.0,
    ) -> None:
        self.egraph = egraph
        self.cost_function = cost_function
        self.time_limit = time_limit

    def extract(self, roots: Sequence[int]) -> ExtractionResult:
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import csr_array

        start = time.perf_counter()
        egraph = self.egraph
        roots = [egraph.find(r) for r in roots]

        # Restrict the program to classes reachable from the roots through
        # *any* e-node (not just selected ones) to keep it small.
        classes = self._reachable_closure(roots)
        class_list = sorted(classes)
        class_index = {cid: i for i, cid in enumerate(class_list)}

        find = egraph.uf.find
        order = _name_order(egraph)
        node_entries: List[Tuple[int, NodeKey]] = []
        for cid in class_list:
            for key in sorted(egraph.keys_of(cid), key=order):
                if all(find(key[i]) in classes for i in range(2, len(key))):
                    node_entries.append((cid, key))
        if not node_entries:
            raise ExtractionError("no extractable nodes for the requested roots")

        n_nodes = len(node_entries)
        n_classes = len(class_list)
        # variable layout: [x_0..x_{n_nodes-1}, a_0..a_{n_classes-1}, t_0..t_{n_classes-1}]
        n_vars = n_nodes + n_classes + n_classes
        big_m = n_classes + 1

        key_cost = _DPState(egraph, self.cost_function).key_cost
        costs = np.zeros(n_vars)
        for i, (_, key) in enumerate(node_entries):
            costs[i] = key_cost(key)

        integrality = np.concatenate(
            [np.ones(n_nodes + n_classes), np.zeros(n_classes)]
        )
        lower = np.zeros(n_vars)
        upper = np.concatenate(
            [np.ones(n_nodes + n_classes), np.full(n_classes, float(n_classes))]
        )

        # the constraint matrix as (row, column, value) triplets: a dense
        # row per constraint is O(constraints x variables) memory, which
        # runs into gigabytes on the largest corpus e-graphs
        row_ids: List[int] = []
        col_ids: List[int] = []
        values: List[float] = []
        lbs: List[float] = []
        ubs: List[float] = []

        def add_row(coeffs: Dict[int, float], lb: float, ub: float) -> None:
            row = len(lbs)
            for index, value in coeffs.items():
                row_ids.append(row)
                col_ids.append(index)
                values.append(value)
            lbs.append(lb)
            ubs.append(ub)

        x_of: Dict[int, List[int]] = {cid: [] for cid in class_list}
        for i, (cid, _) in enumerate(node_entries):
            x_of[cid].append(i)

        a_index = {cid: n_nodes + class_index[cid] for cid in class_list}
        t_index = {cid: n_nodes + n_classes + class_index[cid] for cid in class_list}

        # roots are active
        for root in roots:
            add_row({a_index[root]: 1.0}, 1.0, 1.0)

        # active class selects >= 1 node: sum x - a >= 0
        for cid in class_list:
            coeffs = {i: 1.0 for i in x_of[cid]}
            coeffs[a_index[cid]] = coeffs.get(a_index[cid], 0.0) - 1.0
            add_row(coeffs, 0.0, np.inf)

        # selection implies child activation and acyclicity
        for i, (cid, key) in enumerate(node_entries):
            for j in range(2, len(key)):
                child_c = find(key[j])
                # a_child - x_i >= 0
                add_row({a_index[child_c]: 1.0, i: -1.0}, 0.0, np.inf)
                # t_child <= t_cid - 1 + M (1 - x_i)
                #  => t_child - t_cid + M x_i <= M - 1
                if child_c == cid:
                    # a self-loop can never be part of an acyclic selection
                    add_row({i: 1.0}, 0.0, 0.0)
                    continue
                add_row(
                    {t_index[child_c]: 1.0, t_index[cid]: -1.0, i: float(big_m)},
                    -np.inf,
                    float(big_m - 1),
                )

        matrix = csr_array(
            (values, (row_ids, col_ids)), shape=(len(lbs), n_vars)
        )
        constraints = LinearConstraint(matrix, np.array(lbs), np.array(ubs))
        result = milp(
            c=costs,
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(lower, upper),
            options={"time_limit": self.time_limit},
        )
        if not result.success or result.x is None:
            raise ExtractionError(f"ILP extraction failed: {result.message}")

        x = result.x[:n_nodes]
        choices: Dict[int, NodeKey] = {}
        for cid in class_list:
            chosen = None
            best_val = 0.5
            for i in x_of[cid]:
                if x[i] > best_val:
                    best_val = x[i]
                    chosen = node_entries[i][1]
            if chosen is not None:
                choices[cid] = chosen

        reachable = _reachable_from(egraph, roots, choices.__getitem__)
        choices = {cid: choices[cid] for cid in reachable}
        cost = _dag_cost(key_cost, choices)
        return ExtractionResult(
            choices, cost, time.perf_counter() - start, "ilp"
        )

    def _reachable_closure(self, roots: Sequence[int]) -> Set[int]:
        seen: Set[int] = set()
        stack = list(roots)
        egraph = self.egraph
        find = egraph.uf.find
        while stack:
            cid = find(stack.pop())
            if cid in seen:
                continue
            seen.add(cid)
            for key in egraph.keys_of(cid):
                for i in range(2, len(key)):
                    stack.append(key[i])
        return seen


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------


#: The ``method`` spellings :func:`extract_best` accepts.
EXTRACTION_METHODS = ("dag-greedy", "ilp")


def extract_best(
    egraph: EGraph,
    roots: Sequence[int],
    cost_function: CostFunction,
    method: str = "dag-greedy",
    time_limit: float = 30.0,
) -> ExtractionResult:
    """Extract the best terms for *roots* using the requested method.

    ``method`` is ``"dag-greedy"`` (default) or ``"ilp"``; ``time_limit``
    bounds only the ILP solver.
    """

    if method == "dag-greedy":
        return DagExtractor(egraph, cost_function).extract(roots)
    if method == "ilp":
        return ILPExtractor(egraph, cost_function, time_limit).extract(roots)
    raise ValueError(f"unknown extraction method {method!r}")
