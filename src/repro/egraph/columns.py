"""Columnar backing store for the e-graph arena.

Every e-node is a flat int tuple (its *key*); this module stores **one row
per spelling ever interned** into the hashcons, as parallel flat integer
columns

    ``(op_id, payload_id, child0.., class_id, alive, touch)``

backed by stdlib ``array('q')`` buffers.  The store is append-only — the
rebuild sweep tombstones the row of a spelling it retires (``alive[row] =
0``), never removes it — and mirrors the hashcons dict exactly:

* iterating rows in ascending order restricted to alive rows yields the
  hashcons keys **in dict iteration order** (a popped key is re-inserted
  at the end of the dict, and its re-insertion appends a fresh row), and
* ``cls[row]`` is union-find-equal to the hashcons value of
  ``keys[row]`` for alive rows (column readers canonicalise it).

With the hashcons it is the only record of the node -> class relation:
the e-graph derives each class's keys from the alive rows grouped by
canonical ``cls``.

That order invariant is what lets the rebuild sweep, the analysis repair
and the relational e-matcher run as batched column passes without
perturbing any of the deterministic orders the engine's committed
outcomes depend on (``EGraph.check_invariants`` asserts it).

``cls`` and ``touch`` are also the change set of semi-naive e-matching:
``EGraph._sync_row_touch`` rewrites ``cls[row]`` to the row's canonical
class, and ``touch[row]`` is the e-graph version at which the row was
created or its class root last changed (``-1`` before its first sync).
A row's key never changes (a re-keyed spelling is a new row), so a row
with ``touch <= s`` carries exactly the ``(class, children)`` tuple it
carried at version ``s``.

numpy is a required dependency.  The ``array`` buffers are the storage
(cheap scalar appends and in-place writes from the dict core); every
batched pass reads them zero-copy through :func:`as_int64` /
:func:`as_uint8` and runs as a numpy column kernel.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

import numpy as np

__all__ = [
    "ColumnStore",
    "RowBatch",
    "as_int64",
    "as_uint8",
]

NodeKey = Tuple[int, ...]

#: Eight ``0xff`` bytes — the two's-complement encoding of a -1 padding
#: cell in an ``array('q')`` column (used to backfill new child columns).
_PAD = b"\xff" * 8


def as_int64(buf: array):
    """Zero-copy numpy int64 view of an ``array('q')`` buffer.

    The view aliases the array's current buffer: it is invalidated by any
    subsequent append (which may reallocate), so callers take a fresh view
    per batched pass and never cache one across mutations.
    """

    if not len(buf):
        return np.empty(0, dtype=np.int64)
    return np.frombuffer(buf, dtype=np.int64, count=len(buf))


def as_uint8(buf: bytearray):
    """Zero-copy numpy uint8 view of a ``bytearray`` (same caveat)."""

    if not len(buf):
        return np.empty(0, dtype=np.uint8)
    return np.frombuffer(buf, dtype=np.uint8, count=len(buf))


class RowBatch:
    """Lazy list-of-tuples facade over an int64 match-row matrix.

    The relational matcher produces its result as one ``(n, width)``
    ndarray; materialising ``n`` Python tuples out of it costs more than
    the join itself, and the apply loop only indexes its rows.  A
    RowBatch defers the tuples: it quacks like a list of match rows
    (length, indexing, slicing, iteration, equality — all yielding plain
    int tuples) but only builds them on first such access, and slices
    pull just their window from the matrix.  ``mat`` is the backing
    matrix: ``Rewrite.apply_rows`` takes ``.tolist()`` of one fixed-size
    slice at a time (lists of Python ints, no per-row ``tuple()``).
    """

    __slots__ = ("mat", "_rows")

    def __init__(self, mat):
        self.mat = mat
        self._rows = None

    def _materialize(self) -> list:
        rows = self._rows
        if rows is None:
            # .tolist() materialises Python ints (not np.int64) — bindings
            # flow into key tuples and must hash/compare like arena ids
            rows = self._rows = list(map(tuple, self.mat.tolist()))
        return rows

    def __len__(self) -> int:
        return len(self.mat)

    def __bool__(self) -> bool:
        return len(self.mat) > 0

    def __getitem__(self, i):
        rows = self._rows
        if rows is not None:
            return rows[i]
        if isinstance(i, slice):
            return list(map(tuple, self.mat[i].tolist()))
        return tuple(self.mat[i].tolist())

    def __iter__(self):
        return iter(self._materialize())

    def __eq__(self, other):
        if isinstance(other, RowBatch):
            other = other._materialize()
        if isinstance(other, list):
            return self._materialize() == other
        return NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __repr__(self) -> str:
        return f"RowBatch({self._materialize()!r})"


class ColumnStore:
    """Append-only parallel columns mirroring the e-graph's hashcons.

    Child columns are padded with ``-1`` up to the widest arity seen so
    far; a new widest arity backfills a fresh ``-1`` column for all
    existing rows (operator vocabularies are small, so this is rare).
    ``rows_by_op`` groups row indices per operator id — the relational
    matcher's relations are slices of these groups.
    """

    __slots__ = (
        "op",
        "payload",
        "nchild",
        "cls",
        "alive",
        "child",
        "keys",
        "rows_by_op",
        "pending",
        "pending_cls",
        "touch",
        "touch_stamp",
        "epoch",
    )

    def __init__(self) -> None:
        #: Operator id per row.
        self.op = array("q")
        #: Payload id per row.
        self.payload = array("q")
        #: Child count per row (distinguishes a -1 pad from absence).
        self.nchild = array("q")
        #: E-class id per row; union-find-equal to the live hashcons entry
        #: of the row's key (readers canonicalise), and canonical as of
        #: the last ``EGraph._sync_row_touch``.
        self.cls = array("q")
        #: 1 while the row's key is in the hashcons, 0 once the rebuild
        #: sweep retired it.
        self.alive = bytearray()
        #: Child-slot columns ``child[i][row]``, ``-1``-padded.
        self.child: List[array] = []
        #: row -> the key tuple it was appended for (all rows, ever).
        self.keys: List[NodeKey] = []
        #: op id -> ascending row indices (live and dead) with that op.
        self.rows_by_op: Dict[int, array] = {}
        #: append buffer: fresh spellings not yet materialised as rows,
        #: with their class ids in :attr:`pending_cls`.  The apply phase
        #: appends thousands of fresh spellings but nothing *reads* the
        #: columns until the next rebuild/search, so :meth:`append_new`
        #: just queues and :meth:`flush` does the column writes in bulk.
        #: Queue order is hashcons insertion order.  Only the column
        #: readers (:meth:`op_rows`, :meth:`stale_alive_rows`,
        #: :meth:`copy`, the e-graph's batched passes) flush.
        self.pending: List[NodeKey] = []
        self.pending_cls: List[int] = []
        #: Per-row change stamp: the ``EGraph.version`` of the sync that
        #: first saw the row or saw its class root move (``-1`` until the
        #: first sync).  The semi-naive matcher splits each relation
        #: on it — "rows changed since stamp S" is one vector compare.
        self.touch = array("q")
        #: ``(EGraph.version, row count, epoch)`` at the last sync (-1 =
        #: never synced): an equal stamp proves the sync has nothing to do.
        self.touch_stamp = -1
        #: Bumped by :meth:`compact`: row indices handed out before a
        #: compaction are invalid after it, so caches keyed on
        #: ``(version, len(store))`` include this to survive the corner
        #: case where re-keying restores a previous length without a
        #: version bump.
        self.epoch = 0

    def __len__(self) -> int:
        return len(self.keys) + len(self.pending)

    # ------------------------------------------------------------------
    # Mutation (mirror of the hashcons insert)
    # ------------------------------------------------------------------

    def append_new(self, key: NodeKey, cls_id: int) -> None:
        """Mirror ``hashcons[key] = cls_id`` for a key known to be absent.

        Overwrites of a live key need no mirror write (see the module
        docstring), so this is the only insert.  The row itself is
        deferred to :meth:`flush` — queue order equals dict insertion
        order, so materialised row order still equals hashcons dict order.
        The matching pop is the rebuild sweep's ``alive[row] = 0``: it only
        retires flushed rows, so a queued key is never retired.
        """

        self.pending.append(key)
        self.pending_cls.append(cls_id)

    def flush(self) -> None:
        """Materialise queued :meth:`append_new` rows as columns (in bulk)."""

        batch = self.pending
        if not batch:
            return
        keys = self.keys
        keys.extend(batch)
        self.op.extend([key[0] for key in batch])
        self.payload.extend([key[1] for key in batch])
        ncs = [len(key) - 2 for key in batch]
        self.nchild.extend(ncs)
        self.cls.extend(self.pending_cls)
        self.alive.extend(b"\x01" * len(batch))
        self.touch.frombytes(_PAD * len(batch))  # -1 = not yet synced
        child = self.child
        widest = max(ncs)
        if widest > len(child):
            base = len(keys) - len(batch)
            for _ in range(len(child), widest):
                child.append(array("q", _PAD * base))
        for i, col in enumerate(child):
            col.extend([key[i + 2] if ncs[j] > i else -1 for j, key in enumerate(batch)])
        rows_by_op = self.rows_by_op
        row = len(keys) - len(batch)
        for key in batch:
            op_id = key[0]
            bucket = rows_by_op.get(op_id)
            if bucket is None:
                rows_by_op[op_id] = array("q", (row,))
            else:
                bucket.append(row)
            row += 1
        self.pending = []
        self.pending_cls = []

    # ------------------------------------------------------------------
    # Batched passes (numpy column kernels)
    # ------------------------------------------------------------------

    def stale_alive_rows(self, roots):
        """Ascending indices of alive rows with a non-root child id.

        *roots* is the union-find as an int64 ndarray with
        ``roots[i] == find(i)`` (``EGraph._np_roots``).  The predicate per
        row is exactly the scalar sweep's: some child ``c`` is not a root
        (``roots[c] != c``).  Ascending row order equals hashcons dict
        order (the store's core invariant), so handing these rows to the
        sweep preserves its merge-discovery order bit for bit.
        """

        if self.pending:
            self.flush()
        alive = as_uint8(self.alive) != 0
        stale = np.zeros(len(self.keys), dtype=bool)
        for col in self.child:
            c = as_int64(col)
            present = c >= 0
            safe = np.where(present, c, 0)
            stale |= present & (roots[safe] != safe)
        stale &= alive
        return np.flatnonzero(stale)

    def op_rows(self, op_id: int):
        """int64 view of the (live and dead) row indices with *op_id*."""

        if self.pending:
            self.flush()
        bucket = self.rows_by_op.get(op_id)
        if bucket is None:
            return None
        return as_int64(bucket)

    # ------------------------------------------------------------------

    def compact(self) -> int:
        """Drop dead (tombstoned) rows, renumbering the live ones.

        Live rows keep their relative order, which is the hashcons dict
        order — the store's core invariant — so every deterministic order
        derived from ascending live rows is unchanged.  Row *indices* do
        change: :attr:`epoch` is bumped so index-keyed caches (the
        relation cache) can tell, and the per-row :attr:`cls` and
        :attr:`touch` columns are compacted in the same pass, so every row
        keeps its change stamp.  Pending appends are flushed first — a
        compaction halfway through an append buffer would otherwise
        interleave old and new rows.  Returns the number of rows dropped.
        """

        if self.pending:
            self.flush()
        alive = self.alive
        dead = len(alive) - sum(alive)
        if not dead:
            return 0
        keep = [row for row, a in enumerate(alive) if a]
        self.op = array("q", [self.op[r] for r in keep])
        self.payload = array("q", [self.payload[r] for r in keep])
        self.nchild = array("q", [self.nchild[r] for r in keep])
        self.cls = array("q", [self.cls[r] for r in keep])
        self.touch = array("q", [self.touch[r] for r in keep])
        self.child = [array("q", [col[r] for r in keep]) for col in self.child]
        keys = self.keys
        self.keys = [keys[r] for r in keep]
        self.alive = bytearray(b"\x01" * len(keep))
        rows_by_op = {}
        for row, key in enumerate(self.keys):
            bucket = rows_by_op.get(key[0])
            if bucket is None:
                rows_by_op[key[0]] = array("q", (row,))
            else:
                bucket.append(row)
        self.rows_by_op = rows_by_op
        self.epoch += 1
        # row indices moved: the next sync re-checks every row (the cls
        # and touch columns travelled with them, so it rewrites nothing)
        self.touch_stamp = -1
        return dead

    # ------------------------------------------------------------------

    def copy(self) -> "ColumnStore":
        """Independent structural copy (tuples/ints are shared, buffers not)."""

        if self.pending:
            self.flush()
        dup = ColumnStore.__new__(ColumnStore)
        dup.op = array("q", self.op)
        dup.payload = array("q", self.payload)
        dup.nchild = array("q", self.nchild)
        dup.cls = array("q", self.cls)
        dup.alive = bytearray(self.alive)
        dup.child = [array("q", col) for col in self.child]
        dup.keys = list(self.keys)
        dup.rows_by_op = {op: array("q", rows) for op, rows in self.rows_by_op.items()}
        dup.pending = []
        dup.pending_cls = []
        dup.touch = array("q", self.touch)
        dup.touch_stamp = self.touch_stamp
        dup.epoch = self.epoch
        return dup
