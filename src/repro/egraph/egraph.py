"""The e-graph data structure with congruence closure, on a flat interned core.

The implementation follows the ``egg`` design (Willsey et al., POPL 2021)
that the paper builds on, with egglog's table rebuild (Zhang et al.,
PLDI 2023):

* e-nodes are hash-consed: a node whose children are canonical e-class ids
  appears at most once in the graph,
* :meth:`EGraph.merge` only records the union; congruence closure is
  restored lazily by :meth:`EGraph.rebuild` (deferred rebuilding), which is
  what makes batch rule application cheap.  Rebuild reads the column table
  alone: it re-keys every row with a non-root child and merges the classes
  of rows whose re-keyed spellings collide,
* e-class analyses (:mod:`repro.egraph.analysis`) propagate per-class facts
  such as constant values, enabling constant folding during saturation.

Representation
--------------

Operators and payloads are interned to small integers via per-graph symbol
tables, and each e-node *is* its canonical **key**: a plain tuple
``(op_id, payload_id, *child_ids)`` of ints, which hashes and compares at
C speed and independently of ``PYTHONHASHSEED``.

The node -> class relation lives in two places: the ``hashcons`` dict
(canonical key -> class id) and a **column table**
(:class:`~repro.egraph.columns.ColumnStore`): one row of flat parallel
int columns ``(op_id, payload_id, child0.., class_id, alive, touch)`` per
spelling ever interned, in hashcons insertion order.  A class's keys are
a view derived from the table (:meth:`EGraph.keys_of`: the alive rows
grouped by canonical class), analysis data is one list indexed by class
id (:attr:`EGraph.data`), and ``len(egraph)`` is ``len(hashcons)``.  The
rebuild sweep, the analysis repair and the relational e-matcher
(:mod:`repro.egraph.pattern`) run as batched numpy passes over the
columns.  Every vectorised ``find`` is one gather through a per-version,
fully compressed snapshot of the union-find parent array
(:meth:`EGraph._np_roots`).

Keys are the only node representation the product path sees: the
relational e-matcher, the compiled rule instantiators, the analysis hook
(:meth:`~repro.egraph.analysis.Analysis.make_key`), extraction, the cost
protocol (``op_cost(op, payload)``) and code generation read key tuples
and the ``op_names`` / ``payloads`` tables directly.  :class:`ENode` is a
plain value type built on demand, never memoised, by :meth:`EGraph.add`,
:meth:`EGraph.nodes_of`, :meth:`EGraph.nodes_by_op` and
:meth:`EGraph.canonical_nodes` — for tests, the reference matcher and user
code.

Nothing in the graph points back at it, and an analysis keeps no strong
reference to the graph it serves.  A kernel's e-graph therefore forms no
reference cycle, and reference counting frees it the moment its last
owner (the runner, the extraction result, the renderer) is dropped — when
``optimize_source`` returns, not at the collector's next pass
(``tests/egraph/test_egraph_lifecycle.py``).

Incremental e-matching (:mod:`repro.egraph.pattern`) reads the change set
off the rows: every :meth:`rebuild` ends with :meth:`_sync_row_touch`,
which stamps each row that is new or whose class root moved with the
current :attr:`version` and rewrites its class to the root.  A match all
of whose rows are unstamped since a rule's previous scan was found by that
scan, so a semi-naive join over the stamped rows finds every new match and
no old one.

Match order is defined by :meth:`EGraph._key_sort_key`: the reference
matcher walks each class's keys of one operator in that order
(:meth:`EGraph.nodes_by_op`) and the relational matcher's rank sort
reproduces it.

Determinism: every order that can influence saturation outcomes is sorted
on data that does not depend on ``PYTHONHASHSEED`` — match buckets sort by
``(child ids, str(payload), payload type)``, root candidates sort by class
id, and key tuples themselves hash seed-independently — so the full
kernel × variant sweep stays a pure function of (source, config) (see
``tests/egraph/test_determinism.py``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.egraph import columns
from repro.egraph.columns import ColumnStore
from repro.egraph.language import Payload, Term
from repro.egraph.unionfind import UnionFind

__all__ = ["ENode", "EGraph", "NodeKey"]

#: An interned e-node: ``(op_id, payload_id, *child_class_ids)``.
NodeKey = Tuple[int, ...]

_EMPTY: Tuple = ()


@dataclass(frozen=True, eq=False)
class ENode:
    """An operator applied to e-class ids (not to terms).

    A value spelling of an interned node key, for tests, the reference
    matcher and user code; the e-graph itself stores keys only.  Like
    :class:`~repro.egraph.language.Term`, equality is payload-type aware so
    integer and floating-point literals never share an e-class (C assigns
    them different division/modulo semantics).
    """

    op: str
    children: Tuple[int, ...] = ()
    payload: Payload = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ENode):
            return NotImplemented
        return (
            self.op == other.op
            and self.payload == other.payload
            and type(self.payload) is type(other.payload)
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return hash((self.op, self.payload, type(self.payload), self.children))

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        label = self.op if self.payload is None else f"{self.op}:{self.payload}"
        if not self.children:
            return label
        return f"({label} {' '.join(str(c) for c in self.children)})"


class EGraph:
    """A congruence-closed e-graph over interned node keys."""

    def __init__(self, analysis: Optional["object"] = None) -> None:
        self.uf = UnionFind()
        #: canonical key -> e-class id (union-find-equal to the class).
        self.hashcons: Dict[NodeKey, int] = {}
        #: Number of live (root) e-classes.
        self.num_classes = 0
        #: class id -> analysis data, indexed like ``uf._parent``.  Only
        #: root entries are kept fresh; readers ``find`` first.
        self.data: List[object] = []
        #: e-class ids whose analysis data changed and must be re-propagated.
        self._analysis_dirty: List[int] = []
        self.analysis = analysis
        #: Running counter of adds/merges (saturation detection and the
        #: basis of the incremental-search stamps).
        self.version = 0
        #: Stale hashcons keys can only appear after a union; lets
        #: :meth:`_sweep_stale_keys` skip its scan on merge-free rebuilds.
        self._merged_since_sweep = False
        # -- interning tables ---------------------------------------------
        #: operator name -> op id (dense, insertion order).
        self._op_ids: Dict[str, int] = {}
        #: op id -> operator name.
        self.op_names: List[str] = []
        #: (type name, payload) -> payload id.  The type name keeps the
        #: integer 1 and the float 1.0 distinct (they hash equal).
        self._payload_ids: Dict[Tuple[str, Payload], int] = {("NoneType", None): 0}
        #: payload id -> payload value.  Id 0 is always None.
        self.payloads: List[Payload] = [None]
        #: payload id -> (str(payload), type name): the deterministic
        #: bucket-sort component (same total order the object core used).
        self._payload_sort: List[Tuple[str, str]] = [("None", "NoneType")]
        #: raw payload value -> ids of every ``==``-equal interned payload
        #: (1 and 1.0 share a slot).  The e-matcher resolves pattern
        #: payload constants through this, preserving the object engine's
        #: type-insensitive ``!=`` guard.
        self._payload_eq: Dict[Payload, Tuple[int, ...]] = {None: (0,)}
        #: compiled-instantiator id -> resolved (op/payload id) tuple; ids
        #: are append-only so entries never go stale (see pattern.py).
        self._inst_consts: Dict[int, tuple] = {}
        #: (op-table size, relevant-op-id set or None) — the analysis's
        #: :meth:`~repro.egraph.analysis.Analysis.relevant_op_ids` answer,
        #: refreshed whenever new operators are interned.
        self._analysis_ops: Optional[Tuple[int, Optional[Set[int]]]] = None
        # -- column table --------------------------------------------------
        #: Flat parallel int columns, one row per hashcons spelling; kept
        #: in lockstep with every hashcons mutation (see columns.py).
        self.store = ColumnStore()
        #: ``((version, len(store), epoch), rows, owner, starts)``: the
        #: alive rows grouped by canonical class (:meth:`_class_rows`).
        self._key_view: Optional[tuple] = None
        #: (version, int64 ndarray) fully-compressed snapshot of the
        #: union-find: entry i is ``find(i)``.  One pointer-chase to
        #: fixpoint amortised across every vectorised canonicalisation at
        #: this version.
        self._roots_snapshot: Optional[tuple] = None
        #: Per-(op, arity, payload-signature) relation cache for the
        #: relational matcher, cleared when the stamp moves (pattern.py).
        self._relation_cache: Dict[tuple, tuple] = {}
        self._relation_stamp: tuple = (-1, -1)
        #: (table size, payload-id -> deterministic sort rank) cache.
        self._payload_rank: Optional[Tuple[int, array]] = None

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------

    def _intern_op(self, op: str) -> int:
        """Dense id of operator *op* (allocating one on first sight)."""

        op_id = self._op_ids.get(op)
        if op_id is None:
            op_id = len(self.op_names)
            self._op_ids[op] = op_id
            self.op_names.append(op)
        return op_id

    def _intern_payload(self, payload: Payload) -> int:
        """Dense id of *payload* (type-aware, allocating on first sight)."""

        if payload is None:
            return 0
        key = (type(payload).__name__, payload)
        pid = self._payload_ids.get(key)
        if pid is None:
            pid = len(self.payloads)
            self._payload_ids[key] = pid
            self.payloads.append(payload)
            self._payload_sort.append((str(payload), type(payload).__name__))
            # group ==-equal payloads for the matcher's payload guard
            prior = self._payload_eq.get(payload, ())
            self._payload_eq[payload] = prior + (pid,)
        return pid

    def payload_ids_matching(self, payload: Payload) -> Tuple[int, ...]:
        """Ids of every interned payload ``==``-equal to *payload*.

        Empty when no such payload exists in the graph (then no node can
        carry it, so a pattern requiring it cannot match).
        """

        return self._payload_eq.get(payload, _EMPTY)

    def _intern_node(self, enode: ENode) -> NodeKey:
        """The key of an :class:`ENode` (interning op/payload as needed)."""

        return (
            self._intern_op(enode.op),
            self._intern_payload(enode.payload),
        ) + tuple(enode.children)

    def _enode(self, key: NodeKey) -> ENode:
        """*key* spelled as an :class:`ENode` value (a fresh object)."""

        return ENode(self.op_names[key[0]], key[2:], self.payloads[key[1]])

    def _key_sort_key(self, key: NodeKey) -> Tuple:
        """Process-stable total order for keys sharing an operator.

        Identical ordering to the object core's ``(children, str(payload),
        payload type)`` — bucket order is match-application order, which
        decides *which* e-nodes exist when a node-limit stop truncates
        saturation, so it must not change across representations.
        """

        return (key[2:], self._payload_sort[key[1]])

    def _np_roots(self):
        """int64 snapshot of the union-find with ``arr[i] == find(i)``.

        Every vectorised find is a single gather (``roots[ids]``) and
        every root test the same predicate as the scalar one
        (``roots[i] == i`` iff ``i`` is a root).  Cached per
        :attr:`version`: path compression may rewrite parent entries
        without a version bump, but it only moves pointers *up* the same
        forest, so the roots stay valid until the next add or merge.
        """

        snap = self._roots_snapshot
        if snap is not None and snap[0] == self.version:
            return snap[1]
        arr = np.array(self.uf._parent, dtype=np.int64)
        out = arr[arr]
        while not np.array_equal(out, arr):
            arr = out
            out = arr[arr]
        self._roots_snapshot = (self.version, out)
        return out

    def _payload_ranks(self) -> array:
        """payload id -> rank in the deterministic payload sort order.

        The rank of pid ``p`` is the position of ``_payload_sort[p]`` in
        the sorted order of that table — the payload component of
        :meth:`_key_sort_key` reduced to one int, so vectorised bucket
        sorts can use an int column in place of the (str, type) tuple.
        Refreshed whenever the (append-only) payload table grows.
        """

        cache = self._payload_rank
        n = len(self._payload_sort)
        if cache is None or cache[0] != n:
            order = sorted(range(n), key=self._payload_sort.__getitem__)
            ranks = array("q", bytes(8 * n))
            for rank, pid in enumerate(order):
                ranks[pid] = rank
            cache = (n, ranks)
            self._payload_rank = cache
        return cache[1]

    def _live_relation_cache(self) -> Dict[tuple, tuple]:
        """The relation cache, cleared if the graph moved.

        Keyed by ``(version, interned-key count, store epoch)``: any add,
        merge, re-keying or compaction moves at least one component, so a
        cached relation is always a faithful view of the current store.
        """

        stamp = (self.version, len(self.store), self.store.epoch)
        if self._relation_stamp != stamp:
            self._relation_cache.clear()
            self._relation_stamp = stamp
        return self._relation_cache

    def _sync_row_touch(self) -> None:
        """Stamp the rows that are new or whose class root moved.

        One gather, ``roots[cls]``: where it differs from the stored
        class, or the row is fresh (``touch == -1``), the row's ``touch``
        becomes :attr:`version` and its ``cls`` the canonical class.  A
        synced row's ``cls`` is therefore its class root as of the last
        sync.  Runs at the end of every :meth:`rebuild` and lazily
        (stamp-checked) before a delta search, so a search issued without
        an intervening rebuild still sees current stamps.
        """

        store = self.store
        if store.pending:
            store.flush()
        stamp = (self.version, len(store.keys), store.epoch)
        if store.touch_stamp == stamp:
            return
        cls = columns.as_int64(store.cls)
        if len(cls):
            now = self._np_roots()[cls]
            touch = columns.as_int64(store.touch)
            moved = np.flatnonzero((now != cls) | (touch < 0))
            if len(moved):
                cls[moved] = now[moved]
                touch[moved] = self.version
        store.touch_stamp = stamp

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of (canonical) e-nodes in the graph — O(1)."""

        return len(self.hashcons)

    def find(self, eclass_id: int) -> int:
        """Canonical id of *eclass_id*."""

        return self.uf.find(eclass_id)

    def class_ids(self) -> List[int]:
        """The live (canonical) e-class ids, ascending."""

        roots = self._np_roots()
        return np.flatnonzero(roots == np.arange(len(roots))).tolist()

    def _class_rows(self) -> tuple:
        """``(rows, owner, starts)``: the alive rows grouped by class.

        One stable argsort of the alive rows by canonical class
        ``roots[cls]``: ``rows`` are the row indices, ``owner[i]`` the
        class of ``rows[i]``, and ``rows[starts[c]:starts[c + 1]]`` the
        rows of root class ``c`` in ascending row (hashcons) order; a
        merged-away id owns an empty slice.  Read-only int64 arrays, built
        lazily once per ``(version, len(store), epoch)``; the sweep, which
        can retire a row without moving that stamp, drops them.
        """

        store = self.store
        stamp = (self.version, len(store), store.epoch)
        view = self._key_view
        if view is None or view[0] != stamp:
            if store.pending:
                store.flush()
            alive = np.flatnonzero(columns.as_uint8(store.alive))
            owner = self._np_roots()[columns.as_int64(store.cls)[alive]]
            order = np.argsort(owner, kind="stable")
            starts = np.zeros(len(self.uf) + 1, dtype=np.int64)
            np.cumsum(np.bincount(owner, minlength=len(self.uf)), out=starts[1:])
            view = (stamp, alive[order], owner[order], starts)
            for arr in view[1:]:
                arr.flags.writeable = False
            self._key_view = view
        return view[1:]

    def keys_of(self, eclass_id: int) -> List[NodeKey]:
        """The interned node keys of the class of *eclass_id*, in row order."""

        rows, _, starts = self._class_rows()
        cid = self.find(eclass_id)
        keys = self.store.keys
        return [keys[row] for row in rows[starts[cid]:starts[cid + 1]].tolist()]

    def nodes_of(self, eclass_id: int) -> Set[ENode]:
        """The e-nodes contained in the class of *eclass_id* (built on demand)."""

        enode = self._enode
        return {enode(key) for key in self.keys_of(eclass_id)}

    def data_of(self, eclass_id: int) -> object:
        """Analysis data of the class of *eclass_id*."""

        return self.data[self.find(eclass_id)]

    def is_equal(self, a: int, b: int) -> bool:
        """True if the two e-class ids denote the same class."""

        return self.uf.same(a, b)

    def nodes_by_op(self, eclass_id: int, op: str) -> Sequence[ENode]:
        """The e-nodes with operator *op* in the class of *eclass_id*.

        The reference matcher's candidate bucket.  Bucket order is the
        deterministic :meth:`_key_sort_key` order — identical to the
        object core's, which keeps node-limit-truncated saturations
        reproducible across processes (the content-addressed artifact
        cache relies on same source+config => same artifact) — and the
        relational matcher's rank sort reproduces it.
        """

        op_id = self._op_ids.get(op)
        if op_id is None:
            return _EMPTY
        bucket = sorted(
            (key for key in self.keys_of(eclass_id) if key[0] == op_id),
            key=self._key_sort_key,
        )
        return [self._enode(key) for key in bucket]

    # ------------------------------------------------------------------
    # Adding
    # ------------------------------------------------------------------

    def _canon_key(self, key: NodeKey) -> NodeKey:
        """Return *key* with every child id replaced by its root."""

        parent = self.uf._parent
        n = len(key)
        i = 2
        while i < n:
            c = key[i]
            if parent[c] != c:
                find = self.uf.find
                return key[:2] + tuple([find(key[j]) for j in range(2, n)])
            i += 1
        return key

    def add_key(self, key: NodeKey) -> int:
        """Add an interned e-node key, returning its e-class (hash-consed).

        This is the arena-level hot path: the compiled rule instantiators
        and :meth:`add_term` call it directly with pre-interned ids.  The
        dominant outcome is a hashcons hit on an already-canonical key, so
        canonicalisation and the root lookup are inlined array reads.
        """

        parent = self.uf._parent
        n = len(key)
        i = 2
        while i < n:
            c = key[i]
            if parent[c] != c:
                find = self.uf.find
                key = key[:2] + tuple([find(key[j]) for j in range(2, n)])
                break
            i += 1
        existing = self.hashcons.get(key)
        if existing is not None:
            if parent[existing] == existing:
                return existing
            return self.uf.find(existing)
        return self._add_canon_miss(key)

    def _add_canon_miss(self, key: NodeKey) -> int:
        """:meth:`add_key` miss path: *key* is canonical and not interned.

        The compiled instantiators call this directly after their own
        inline canonicalisation + hashcons probe missed, skipping
        :meth:`add_key`'s redundant re-scan and re-probe.
        """

        parent = self.uf._parent
        n = len(key)
        self.version += 1
        # inline uf.make_set(): this runs once per fresh e-node and the
        # call frame is pure overhead (the parent-array contract is part
        # of UnionFind's interface)
        eclass_id = len(parent)
        parent.append(eclass_id)
        self.uf._size.append(1)
        self.num_classes += 1
        self.hashcons[key] = eclass_id
        self.store.append_new(key, eclass_id)
        data = self.data
        data.append(None)

        analysis = self.analysis
        if analysis is not None:
            # consult the analysis's relevant-op hint: for ops it can never
            # value (the dominant case under constant folding) the data is
            # None and `modify` is a no-op, so both calls can be skipped
            hint = self._analysis_ops
            if hint is None or hint[0] != len(self.op_names):
                hint = (len(self.op_names), analysis.relevant_op_ids(self))
                self._analysis_ops = hint
            if hint[1] is None or key[0] in hint[1]:
                if n > 2 and analysis.needs_all_child_data:
                    # bottom-child prefilter: the children are canonical
                    # here, so one list read each proves make_key would
                    # return bottom (and modify would be a no-op)
                    i = 2
                    while i < n:
                        if data[key[i]] is None:
                            return eclass_id
                        i += 1
                data[eclass_id] = analysis.make_key(self, key)
                analysis.modify(self, eclass_id)
        return eclass_id

    def add(self, enode: ENode) -> int:
        """Add an e-node, returning the id of its e-class (hash-consed)."""

        return self.add_key(self._intern_node(enode))

    def add_term(
        self, term: Term, memo: Optional[Dict[int, Tuple[Term, int]]] = None
    ) -> int:
        """Add a whole term; returns the e-class of its root.

        Terms are DAGs: the SSA builder shares sub-terms by object
        identity (a scalar's value term is the same object at every later
        read), so a term with a few dozen distinct nodes can spell a tree
        of millions.  Each distinct :class:`Term` *object* is therefore
        interned once — post-order, children left to right, exactly the
        order the first tree walk would reach it — and every later
        occurrence resolves to ``find`` of that class.

        *memo* is the identity table, ``id(term) -> (term, class id)``;
        the entry holds the term so its ``id`` cannot be reused while the
        table lives.  Pass one table to a series of calls whose terms
        share sub-terms *across* calls (an SSA kernel's assignments do);
        without it the sharing is honoured within this call only.  The
        table belongs to the caller and is only valid for this e-graph.
        It is keyed by identity, never by value: ``Term.__hash__`` and
        ``__eq__`` recurse over the whole tree.
        """

        if memo is None:
            memo = {}
        hit = memo.get(id(term))
        if hit is not None:
            return self.uf.find(hit[1])
        prefix = (self._intern_op(term.op), self._intern_payload(term.payload))
        child_ids = tuple([self.add_term(child, memo) for child in term.children])
        eclass_id = self.add_key(prefix + child_ids)
        memo[id(term)] = (term, eclass_id)
        return eclass_id

    def add_leaf(self, op: str, payload: Payload = None) -> int:
        """Add a leaf e-node (``num``/``sym``-style)."""

        return self.add_key((self._intern_op(op), self._intern_payload(payload)))

    # ------------------------------------------------------------------
    # Merging and rebuilding
    # ------------------------------------------------------------------

    def merge(self, a: int, b: int) -> int:
        """Assert that the classes of *a* and *b* are equal.

        The union is recorded immediately; congruence closure and hashcons
        canonicalisation are deferred to :meth:`rebuild`.
        """

        ra, rb = self.uf.find(a), self.uf.find(b)
        if ra == rb:
            return ra
        return self.merge_roots(ra, rb)

    def merge_roots(self, ra: int, rb: int) -> int:
        """Merge two classes given their *canonical* (distinct) root ids.

        The apply loop already holds both roots from its no-op check, so
        this entry point skips re-finding them.
        """

        self.version += 1
        # inline uf.union_roots (same survivor rule: larger set wins,
        # ties keep ra) — one call frame saved per union
        uf = self.uf
        size = uf._size
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        uf._parent[rb] = ra
        size[ra] += size[rb]
        self.num_classes -= 1
        self._merged_since_sweep = True
        if self.analysis is not None:
            data = self.data
            # egg's did-change rule: a merge of two bottom classes leaves
            # the data bottom, so no parent row can value differently and
            # modify is a no-op (the Analysis contract) — nothing to repair
            if data[ra] is not None or data[rb] is not None:
                data[ra] = self.analysis.join(data[ra], data[rb])
                self._analysis_dirty.append(ra)
        return ra

    def union_terms(self, a: Term, b: Term) -> int:
        """Add both terms and merge their classes (convenience for tests)."""

        ia, ib = self.add_term(a), self.add_term(b)
        root = self.merge(ia, ib)
        self.rebuild()
        return root

    def rebuild(self) -> int:
        """Restore the hashcons, congruence and analysis invariants.

        One loop over the column table (egglog's rebuild, Zhang et al.,
        PLDI 2023): :meth:`_sweep_stale_keys` re-canonicalises every alive
        row with a non-root child and merges the congruences that
        uncovers, then :meth:`_propagate_analysis` re-runs the analysis on
        the rows over classes whose data changed.  The two repeat until a
        sweep merges nothing and no analysis data is dirty.  Returns the
        number of congruence merges.  The closing :meth:`_sync_row_touch`
        stamps every row this rebuild created or moved to another class,
        which is the change set the incremental searcher joins over.
        """

        n_repairs = 0
        while True:
            merges = self._sweep_stale_keys()
            n_repairs += merges
            if self._analysis_dirty:
                self._propagate_analysis()
            if not merges and not self._analysis_dirty:
                break
        store = self.store
        if store.pending:
            store.flush()
        n_rows = len(store.keys)
        # compaction policy: reclaim once tombstones outnumber live rows
        # (>50% dead) past a floor that keeps small graphs loop-free.
        # Invisible to outcomes — live-row relative order is preserved and
        # every row-index cache is epoch-keyed — so the policy only moves
        # wall-clock.
        if n_rows >= 512 and 2 * (n_rows - sum(store.alive)) > n_rows:
            store.compact()
        # stamp the rows this rebuild created or re-rooted: one gather per
        # rebuild, amortised across every incremental search before the
        # next mutation
        self._sync_row_touch()
        return n_repairs

    def _sweep_stale_keys(self) -> int:
        """Re-key every stale row; merge the congruences that uncovers.

        A row is stale iff one of its child ids is not a union-find root;
        the predicate is evaluated over the whole child columns at once.
        Each stale key is retired (hashcons entry popped, row tombstoned)
        and its canonical spelling takes its place — unless that spelling is
        already interned, in which case the two classes are congruent and
        merge.  Ascending alive-row order is hashcons dict order (the
        store's core invariant), so merge discovery follows the dict.
        Merges stale more rows; :meth:`rebuild` sweeps again until one
        merges nothing.
        """

        if not self._merged_since_sweep:
            return 0
        self._merged_since_sweep = False
        store = self.store
        rows = store.stale_alive_rows(self._np_roots())
        if not rows.size:
            return 0
        # a retired row without a merge or an append moves no stamp
        self._key_view = None
        keys = store.keys
        alive = store.alive
        find = self.uf.find
        hashcons = self.hashcons
        merges = 0
        # every stale row was flushed, so its key's row is the index itself
        for row in rows.tolist():
            key = keys[row]
            value = hashcons.pop(key)
            alive[row] = 0
            canon = self._canon_key(key)
            prior = hashcons.get(canon)
            if prior is None:
                canon_class = find(value)
                hashcons[canon] = canon_class
                store.append_new(canon, canon_class)
            elif find(prior) != find(value):
                self.merge(prior, value)
                merges += 1
        return merges

    def _propagate_analysis(self) -> None:
        """Re-run the analysis over the rows of classes whose data changed.

        Drains one round of :attr:`_analysis_dirty`: ``modify`` on each
        dirty class in ascending canonical id, then one mask over the
        child columns finds the alive rows with a child in a dirty class,
        and ``make_key`` / ``join`` re-run on those rows in ascending row
        order.  A class whose data grows is queued for the next round.
        """

        analysis = self.analysis
        find = self.uf.find
        todo = sorted({find(i) for i in self._analysis_dirty})
        self._analysis_dirty.clear()
        for eclass_id in todo:
            analysis.modify(self, eclass_id)
        # relevant-op prefilter: for a row whose operator the analysis can
        # never value, make_key returns the bottom element (None) and
        # join(data, bottom) == data (the relevant_op_ids contract), so
        # the joined != data branch below cannot fire — skip the row
        hint = self._analysis_ops
        if hint is None or hint[0] != len(self.op_names):
            hint = (len(self.op_names), analysis.relevant_op_ids(self))
            self._analysis_ops = hint
        relevant = hint[1]
        store = self.store
        if store.pending:
            store.flush()
        roots = self._np_roots()
        # per class id: is its root dirty?  One trailing False makes a
        # -1 child pad read as clean.
        dirty = np.zeros(len(roots) + 1, dtype=bool)
        dirty[roots[todo]] = True
        dirty[:-1] = dirty[roots]
        hit = np.zeros(len(store.keys), dtype=bool)
        for col in store.child:
            hit |= dirty[columns.as_int64(col)]
        hit &= columns.as_uint8(store.alive) != 0
        if relevant is not None:
            hit &= np.isin(columns.as_int64(store.op), list(relevant))
        # plain ints only from here (the column views above were
        # temporaries): modify in a later round appends rows, which a live
        # view would make raise BufferError
        rows = np.flatnonzero(hit).tolist()
        # bottom-child prefilter: a list read per canonical child proves
        # make_key returns bottom, so the joined != data branch below
        # cannot fire — skip the canon_key / make_key / join round trip
        prefilter = analysis.needs_all_child_data
        data = self.data
        keys = store.keys
        cls_col = store.cls
        for row in rows:
            key = keys[row]
            if prefilter and any(data[find(c)] is None for c in key[2:]):
                continue
            row_class = find(cls_col[row])
            joined = analysis.join(
                data[row_class], analysis.make_key(self, self._canon_key(key))
            )
            if joined != data[row_class]:
                data[row_class] = joined
                self._analysis_dirty.append(row_class)

    # ------------------------------------------------------------------
    # Queries used by e-matching and extraction
    # ------------------------------------------------------------------

    def canonical_nodes(self) -> Iterator[Tuple[int, ENode]]:
        """Yield ``(eclass_id, enode)`` for every canonical e-node."""

        enode = self._enode
        for cid in self.class_ids():
            for key in self.keys_of(cid):
                yield cid, enode(key)

    def lookup_term(self, term: Term) -> Optional[int]:
        """Return the e-class containing *term*, or None if absent.

        Unlike :meth:`add_term` this never grows the graph (operators and
        payloads the graph has never interned simply miss).
        """

        op_id = self._op_ids.get(term.op)
        if op_id is None:
            return None
        if term.payload is None:
            payload_id = 0
        else:
            payload_id = self._payload_ids.get(
                (type(term.payload).__name__, term.payload)
            )
            if payload_id is None:
                return None
        child_ids: List[int] = []
        for child in term.children:
            cid = self.lookup_term(child)
            if cid is None:
                return None
            child_ids.append(cid)
        key = self._canon_key((op_id, payload_id) + tuple(child_ids))
        found = self.hashcons.get(key)
        return None if found is None else self.uf.find(found)

    def equivalent_terms(self, a: Term, b: Term) -> bool:
        """True if both terms are present and live in the same e-class."""

        ia, ib = self.lookup_term(a), self.lookup_term(b)
        return ia is not None and ib is not None and self.uf.same(ia, ib)

    # ------------------------------------------------------------------
    # Invariant checking (used heavily by the test-suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the hashcons/congruence invariants; raises AssertionError."""

        find = self.uf.find
        for key, eclass_id in self.hashcons.items():
            assert self._canon_key(key) == key, (
                f"hashcons key not canonical: {self._enode(key)}"
            )
            assert 0 <= eclass_id < len(self.uf), (
                f"hashcons maps to no class: {eclass_id}"
            )
        # interning tables are mutually consistent
        assert len(self.op_names) == len(self._op_ids)
        assert len(self.payloads) == len(self._payload_ids) == len(self._payload_sort)
        for op, op_id in self._op_ids.items():
            assert self.op_names[op_id] == op, f"op table corrupt at {op_id}"

        # column table: alive rows in ascending row order are exactly the
        # hashcons keys in dict iteration order (the invariant the batched
        # sweep and the relational matcher rely on), each row's columns
        # spell its key, and the per-row class is union-find-equal to the
        # dict value (a union since the last sync leaves the row holding
        # the pre-merge id — column readers canonicalise)
        store = self.store
        store.flush()
        alive_rows = [row for row in range(len(store.keys)) if store.alive[row]]
        assert [store.keys[row] for row in alive_rows] == list(self.hashcons), (
            "column store out of sync with hashcons order"
        )
        synced = store.touch_stamp == (self.version, len(store.keys), store.epoch)
        for row in alive_rows:
            key = store.keys[row]
            eclass_id = self.hashcons[key]
            assert find(store.cls[row]) == find(eclass_id), (
                f"column class {store.cls[row]} not equivalent to hashcons "
                f"value {eclass_id} for {self._enode(key)}"
            )
            assert store.op[row] == key[0]
            assert store.payload[row] == key[1]
            assert store.nchild[row] == len(key) - 2
            for i in range(len(store.child)):
                expected = key[i + 2] if i < len(key) - 2 else -1
                assert store.child[i][row] == expected
            # the row-stamp contract incremental search relies on: once
            # synced (every rebuild ends with a sync) a row's class is
            # canonical, so a row whose class did not move since a stamp
            # carries the tuple it carried then
            if synced:
                assert store.cls[row] == find(store.cls[row]), (
                    f"row {row} ({self._enode(key)}) synced to class "
                    f"{store.cls[row]}, not its root {find(store.cls[row])}"
                )

        # the derived key view partitions the hashcons by class: every
        # live class owns at least one key, and the class counter and
        # node count agree with it
        roots = self.class_ids()
        assert self.num_classes == len(roots), (
            f"class counter {self.num_classes} != {len(roots)} live classes"
        )
        owned = 0
        for cid in roots:
            keys = self.keys_of(cid)
            assert keys, f"live class {cid} holds no key"
            for key in keys:
                assert find(self.hashcons[key]) == cid, (
                    f"key view puts {self._enode(key)} in class {cid}"
                )
            owned += len(keys)
        assert len(self) == owned == len(self.hashcons)
        assert len(self.data) == len(self.uf)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def copy(self) -> "EGraph":
        """A structural copy sharing no mutable state with the original."""

        dup = EGraph(self.analysis)
        dup.uf = self.uf.copy()
        dup.hashcons = dict(self.hashcons)
        dup.num_classes = self.num_classes
        dup.data = list(self.data)
        dup._analysis_dirty = list(self._analysis_dirty)
        dup.version = self.version
        dup._merged_since_sweep = self._merged_since_sweep
        dup._op_ids = dict(self._op_ids)
        dup.op_names = list(self.op_names)
        dup._payload_ids = dict(self._payload_ids)
        dup.payloads = list(self.payloads)
        dup._payload_sort = list(self._payload_sort)
        dup._payload_eq = dict(self._payload_eq)
        dup.store = self.store.copy()
        # per-version caches (roots snapshot, key view, relations, payload ranks)
        # stay at their fresh-graph defaults and rebuild on demand; the
        # copied interning tables keep the resolved instantiator constants
        # valid
        dup._inst_consts = dict(self._inst_consts)
        return dup

    def dump(self) -> str:  # pragma: no cover - debugging helper
        lines = []
        for cid in self.class_ids():
            nodes = ", ".join(sorted(str(self._enode(k)) for k in self.keys_of(cid)))
            lines.append(f"e{cid}: {{{nodes}}}")
        return "\n".join(lines)
