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

Flat interned representation
----------------------------

Earlier versions stored every e-node as a frozen :class:`ENode` dataclass
(string operator, arbitrary payload, memoized hash in ``__dict__``), which
made the hottest loops — hashcons probes, canonicalisation, congruence
closure — churn through Python object allocation and attribute lookups.
The core now interns operators and payloads to small integers via
per-graph symbol tables, and each e-node *is* its canonical **key**: a
plain tuple ``(op_id, payload_id, *child_ids)`` of ints.  Tuples of small
ints hash and compare at C speed (and, unlike strings, independent of
``PYTHONHASHSEED``), canonicalisation is a slice-and-rebuild over ints,
and per-class node sets are sets of such tuples.  Class bookkeeping lives
in slotted :class:`EClass` records (key set and analysis data).

The node -> class relation lives in three places: the ``hashcons`` dict,
the per-class key sets, and a **column table**
(:class:`~repro.egraph.columns.ColumnStore`): one row of flat parallel
int columns ``(op_id, payload_id, child0.., class_id, alive, touch)`` per
spelling ever interned, in hashcons insertion order.  The rebuild sweep,
the analysis repair and the relational e-matcher
(:mod:`repro.egraph.pattern`) run as batched numpy passes over these
columns, without touching any order the dict core defines.  Every
vectorised ``find`` is one gather through a per-version, fully compressed
snapshot of the union-find parent array (:meth:`EGraph._np_roots`).

Keys are the only node representation the product path sees: the
relational e-matcher, the compiled rule instantiators, the analysis hook
(:meth:`~repro.egraph.analysis.Analysis.make_key`), extraction, the cost
protocol (``op_cost(op, payload)``) and code generation read key tuples
and the ``op_names`` / ``payloads`` tables directly.  :class:`ENode` is a
plain value type built on demand, never memoised, by :meth:`EGraph.add`,
:meth:`EGraph.nodes_of`, :meth:`EGraph.nodes_by_op` and
:meth:`EGraph.canonical_nodes` — for tests, the reference matcher and user
code.

Nothing in the graph points back at it: an :class:`EClass` holds only its
id, key set and analysis data, and an analysis keeps no strong reference
to the graph it serves.  A kernel's e-graph therefore forms no reference
cycle, and reference counting frees it the moment its last owner (the
runner, the extraction result, the renderer) is dropped — when
``optimize_source`` returns, not at the collector's next pass
(``tests/egraph/test_egraph_lifecycle.py``).

Incremental e-matching (:mod:`repro.egraph.pattern`) reads the change set
off the rows: every :meth:`rebuild` ends with :meth:`_sync_row_touch`,
which stamps each row that is new or whose class root moved with the
current :attr:`version` and rewrites its class to the root.  A match all
of whose rows are unstamped since a rule's previous scan was found by that
scan, so a semi-naive join over the stamped rows finds every new match and
no old one.  A cached
canonical-node count keeps ``len(egraph)`` O(1) (it is called inside the
runner's per-rule apply loop).

Match order is defined by :meth:`EGraph._key_sort_key`: the reference
matcher walks each class's keys of one operator in that order
(:meth:`EGraph.nodes_by_op`) and the relational matcher's rank sort
reproduces it.

Determinism: every order that can influence saturation outcomes is sorted
on data that does not depend on ``PYTHONHASHSEED`` — match buckets sort by
``(child ids, str(payload), payload type)`` exactly as the object core
did, root candidates sort by class id, and key tuples themselves hash
seed-independently — so the full kernel × variant sweep stays a pure
function of (source, config) (see ``tests/egraph/test_determinism.py``).
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

__all__ = ["ENode", "EClass", "EGraph", "NodeKey"]

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


class EClass:
    """A set of equal e-nodes plus their analysis data.

    Nodes are stored as interned keys (:attr:`keys`);
    :meth:`EGraph.nodes_of` spells them as :class:`ENode` values.  A class
    holds no reference to its graph, so nothing but the graph's owner
    keeps an e-graph alive and reference counting frees it.
    """

    __slots__ = ("id", "keys", "data")

    def __init__(
        self,
        eclass_id: int,
        keys: Optional[Set[NodeKey]] = None,
        data: object = None,
    ) -> None:
        self.id = eclass_id
        #: The interned e-node keys of this class.
        self.keys: Set[NodeKey] = keys if keys is not None else set()
        #: Analysis data attached to this class.
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"EClass(id={self.id}, keys={len(self.keys)})"


class EGraph:
    """A congruence-closed e-graph over interned node keys."""

    def __init__(self, analysis: Optional["object"] = None) -> None:
        self.uf = UnionFind()
        self.classes: Dict[int, EClass] = {}
        #: canonical key -> e-class id.
        self.hashcons: Dict[NodeKey, int] = {}
        #: e-class ids whose analysis data changed and must be re-propagated.
        self._analysis_dirty: List[int] = []
        self.analysis = analysis
        #: Running counter of adds/merges (saturation detection and the
        #: basis of the incremental-search stamps).
        self.version = 0
        #: Cached number of e-nodes, kept in sync so ``len`` is O(1).
        self._node_count = 0
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
        # -- columnar mirror (PR 7) ---------------------------------------
        #: Flat parallel int columns, one row per hashcons spelling; kept
        #: in lockstep with every hashcons mutation (see columns.py).
        self.store = ColumnStore()
        #: class id -> 1 while the class carries non-bottom analysis data
        #: (mirror of ``EClass.data is not None``); lets analyses with
        #: ``needs_all_child_data`` prove a make_key call returns bottom
        #: from flat byte reads.  Only canonical ids are kept fresh — a
        #: merged-away class's flag goes stale with its record.
        self._class_data = bytearray()
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

        return self._node_count

    @property
    def num_classes(self) -> int:
        """Number of live e-classes."""

        return len(self.classes)

    def find(self, eclass_id: int) -> int:
        """Canonical id of *eclass_id*."""

        return self.uf.find(eclass_id)

    def eclasses(self) -> Iterator[EClass]:
        """Iterate over the live (canonical) e-classes."""

        return iter(self.classes.values())

    def nodes_of(self, eclass_id: int) -> Set[ENode]:
        """The e-nodes contained in the class of *eclass_id* (built on demand)."""

        enode = self._enode
        return {enode(key) for key in self.keys_of(eclass_id)}

    def keys_of(self, eclass_id: int) -> Set[NodeKey]:
        """The interned node keys of the class of *eclass_id*."""

        return self.classes[self.find(eclass_id)].keys

    def data_of(self, eclass_id: int) -> object:
        """Analysis data of the class of *eclass_id*."""

        return self.classes[self.find(eclass_id)].data

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
        # inline uf.make_set() and the EClass constructor: this runs once
        # per fresh e-node and the two call frames are pure overhead (the
        # parent-array contract is part of UnionFind's interface)
        uf = self.uf
        eclass_id = len(parent)
        parent.append(eclass_id)
        uf._size.append(1)
        eclass = EClass.__new__(EClass)
        eclass.id = eclass_id
        eclass.keys = {key}
        eclass.data = None
        self.classes[eclass_id] = eclass
        self.hashcons[key] = eclass_id
        self.store.append_new(key, eclass_id)
        self._class_data.append(0)
        self._node_count += 1

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
                    # here, so one byte read each proves make_key would
                    # return bottom (and modify would be a no-op)
                    data_flag = self._class_data
                    i = 2
                    while i < n:
                        if not data_flag[key[i]]:
                            return eclass_id
                        i += 1
                eclass.data = analysis.make_key(self, key)
                if eclass.data is not None:
                    self._class_data[eclass_id] = 1
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
        root, other = ra, rb
        winner, loser = self.classes[root], self.classes[other]

        before = len(winner.keys) + len(loser.keys)
        winner.keys |= loser.keys
        self._node_count += len(winner.keys) - before
        self._merged_since_sweep = True

        if self.analysis is not None:
            winner.data = self.analysis.join(winner.data, loser.data)
            self._class_data[root] = 1 if winner.data is not None else 0
            self._analysis_dirty.append(root)

        del self.classes[other]
        return root

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
        Each stale key is retired (hashcons entry and row) and its
        canonical spelling takes its place — unless that spelling is
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
        keys_list = store.keys
        stale = [keys_list[r] for r in rows.tolist()]
        find = self.uf.find
        hashcons = self.hashcons
        classes = self.classes
        merges = 0
        for key in stale:
            value = hashcons.pop(key)
            store.kill(key)
            canon = self._canon_key(key)
            prior = hashcons.get(canon)
            if prior is None:
                canon_class = find(value)
                hashcons[canon] = canon_class
                store.append_new(canon, canon_class)
            elif find(prior) != find(value):
                self.merge(prior, value)
                merges += 1
            # the class's key set spells the node the same way the
            # hashcons does: swap the retired spelling for the canonical
            # one (a no-op growth when the canonical spelling was there)
            owner = classes[find(value)].keys
            n0 = len(owner)
            owner.discard(key)
            owner.add(canon)
            self._node_count += len(owner) - n0
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
        # bottom-child prefilter: a byte read per canonical child proves
        # make_key returns bottom, so the joined != data branch below
        # cannot fire — skip the canon_key / make_key / join round trip
        prefilter = analysis.needs_all_child_data
        data_flag = self._class_data
        classes = self.classes
        keys = store.keys
        cls_col = store.cls
        for row in rows:
            key = keys[row]
            if prefilter and not all(data_flag[find(c)] for c in key[2:]):
                continue
            row_class = find(cls_col[row])
            owner = classes[row_class]
            joined = analysis.join(
                owner.data, analysis.make_key(self, self._canon_key(key))
            )
            if joined != owner.data:
                owner.data = joined
                data_flag[row_class] = 1 if joined is not None else 0
                self._analysis_dirty.append(row_class)

    # ------------------------------------------------------------------
    # Queries used by e-matching and extraction
    # ------------------------------------------------------------------

    def canonical_nodes(self) -> Iterator[Tuple[int, ENode]]:
        """Yield ``(eclass_id, enode)`` for every canonical e-node."""

        enode = self._enode
        for eclass in self.classes.values():
            for key in eclass.keys:
                yield eclass.id, enode(key)

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

        for key, eclass_id in self.hashcons.items():
            canon = self._canon_key(key)
            assert canon == key, f"hashcons key not canonical: {self._enode(key)}"
            root = self.uf.find(eclass_id)
            assert root in self.classes, f"hashcons maps to dead class {eclass_id}"
            assert key in self.classes[root].keys, (
                f"hashcons entry {self._enode(key)} missing from class {root}"
            )
        seen: Dict[NodeKey, int] = {}
        for eclass in self.classes.values():
            assert self.uf.find(eclass.id) == eclass.id, "non-canonical class id"
            for key in eclass.keys:
                canon = self._canon_key(key)
                assert canon in self.hashcons, (
                    f"node {self._enode(key)} missing from hashcons"
                )
                prior = seen.get(canon)
                assert prior is None or prior == eclass.id, (
                    f"congruence violation: {self._enode(canon)} in classes "
                    f"{prior} and {eclass.id}"
                )
                seen[canon] = eclass.id

        # cached node count matches the ground truth
        actual = sum(len(cls.keys) for cls in self.classes.values())
        assert self._node_count == actual, (
            f"cached node count {self._node_count} != actual {actual}"
        )
        # interning tables are mutually consistent
        assert len(self.op_names) == len(self._op_ids)
        assert len(self.payloads) == len(self._payload_ids) == len(self._payload_sort)
        for op, op_id in self._op_ids.items():
            assert self.op_names[op_id] == op, f"op table corrupt at {op_id}"

        # columnar mirror: alive rows in ascending row order are exactly
        # the hashcons keys in dict iteration order (the invariant the
        # batched sweep and the relational matcher rely on), and the
        # per-row class is union-find-equal to the dict value (a union
        # since the last sync leaves the row holding the pre-merge id —
        # column readers canonicalise through the parent array)
        store = self.store
        store.flush()
        alive_keys = [
            store.keys[row] for row in range(len(store.keys)) if store.alive[row]
        ]
        assert alive_keys == list(self.hashcons), (
            "column store out of sync with hashcons order"
        )
        assert set(store.row_of) == set(self.hashcons)
        synced = store.touch_stamp == (self.version, len(store.keys), store.epoch)
        for key, eclass_id in self.hashcons.items():
            row = store.row_of[key]
            assert store.keys[row] == key
            assert self.uf.find(store.cls[row]) == self.uf.find(eclass_id), (
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
                assert store.cls[row] == self.uf.find(store.cls[row]), (
                    f"row {row} ({self._enode(key)}) synced to class "
                    f"{store.cls[row]}, not its root "
                    f"{self.uf.find(store.cls[row])}"
                )
        # the per-class flag array covers every class id and mirrors the
        # slotted record
        assert len(self._class_data) == len(self.uf)
        for eclass in self.classes.values():
            assert (self._class_data[eclass.id] != 0) == (
                eclass.data is not None
            ), f"data-flag mirror wrong for class {eclass.id}"

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def copy(self) -> "EGraph":
        """A structural copy sharing no mutable state with the original."""

        dup = EGraph(self.analysis)
        dup.uf = self.uf.copy()
        dup.hashcons = dict(self.hashcons)
        dup.classes = {}
        for cid, cls in self.classes.items():
            dup.classes[cid] = EClass(cls.id, set(cls.keys), cls.data)
        dup._analysis_dirty = list(self._analysis_dirty)
        dup.version = self.version
        dup._node_count = self._node_count
        dup._merged_since_sweep = self._merged_since_sweep
        dup._op_ids = dict(self._op_ids)
        dup.op_names = list(self.op_names)
        dup._payload_ids = dict(self._payload_ids)
        dup.payloads = list(self.payloads)
        dup._payload_sort = list(self._payload_sort)
        dup._payload_eq = dict(self._payload_eq)
        dup.store = self.store.copy()
        dup._class_data = bytearray(self._class_data)
        # per-version caches (roots snapshot, relations, payload ranks)
        # stay at their fresh-graph defaults and rebuild on demand; the
        # copied interning tables keep the resolved instantiator constants
        # valid
        dup._inst_consts = dict(self._inst_consts)
        return dup

    def dump(self) -> str:  # pragma: no cover - debugging helper
        lines = []
        for eclass in sorted(self.classes.values(), key=lambda c: c.id):
            nodes = ", ".join(sorted(str(self._enode(k)) for k in eclass.keys))
            lines.append(f"e{eclass.id}: {{{nodes}}}")
        return "\n".join(lines)
