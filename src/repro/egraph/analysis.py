"""E-class analyses.

An analysis attaches a small lattice value to every e-class and keeps it
consistent across merges (egg's "e-class analysis" mechanism).  ACC
Saturator uses a single analysis: constant folding over integer and
floating-point arithmetic (paper §V-A), which both shrinks expressions and
lets the cost model treat folded subtrees as free.
"""

from __future__ import annotations

import math
import weakref
from typing import Optional, Union

from repro.egraph.egraph import EGraph, NodeKey

__all__ = ["Analysis", "ConstantFoldingAnalysis"]

Number = Union[int, float]


class Analysis:
    """Interface for e-class analyses (egg-style ``make_key`` / ``join`` / ``modify``).

    ``None`` is the lattice bottom: ``join(x, None)`` must equal ``x``,
    :meth:`modify` must be a no-op on a bottom-valued class, and
    :meth:`make_key` may read its child classes' data but not their ids.
    A merge of two bottom classes therefore changes nothing an analysis
    sees, and ``EGraph.merge_roots`` queues no repair for it (egg's
    did-change rule).
    """

    #: Set True to promise that for any key *with children*,
    #: :meth:`make_key` returns the bottom element (None) whenever some
    #: child class's data is None.  The e-graph then proves the bottom
    #: result from one ``EGraph.data`` read per child and skips the
    #: make/join/modify round trip entirely — both on class creation and
    #: during rebuild's analysis repair.  The skip also elides
    #: :meth:`modify`, so (as with :meth:`relevant_op_ids`) ``modify``
    #: must be a no-op on a bottom-valued class, and ``join(x, None)``
    #: must equal ``x``.
    needs_all_child_data = False

    def make_key(self, egraph: EGraph, key: NodeKey) -> object:
        """Compute the analysis value of a freshly added node key.

        egg's ``make``, over the interned key ``(op_id, payload_id,
        *child_ids)``: the operator name is ``egraph.op_names[key[0]]``, the
        payload ``egraph.payloads[key[1]]`` and the child classes
        ``key[2:]``.  ``EGraph.add_key`` calls it on every class creation
        and rebuild calls it again for every row with a child in a class
        whose data changed.
        """

        raise NotImplementedError

    def relevant_op_ids(self, egraph: EGraph):
        """Op ids whose nodes can carry a non-bottom :meth:`make_key` value.

        ``EGraph.add_key`` skips the :meth:`make_key` call (the class data
        stays None, exactly what the call would have returned) for ops
        outside this set, and ``EGraph._propagate_analysis`` skips table rows
        with such ops during rebuild — which additionally requires
        ``join(x, None) == x`` (None must be the lattice bottom), since
        the skipped make/join round trip would otherwise have been
        ``data = join(data, None)``.  Return None — the default — to be
        called for every op.  Called whenever the graph has interned new
        operators since the previous query, so implementations may compute
        the set from the current ``op_names`` table.
        """

        return None

    def join(self, a: object, b: object) -> object:
        """Combine the values of two classes being merged."""

        raise NotImplementedError

    def modify(self, egraph: EGraph, eclass_id: int) -> None:
        """Optionally mutate the e-graph based on a class's value."""


class ConstantFoldingAnalysis(Analysis):
    """Track the constant value of an e-class, if it has one.

    The analysis value is either ``None`` (not a constant) or a Python
    ``int`` / ``float``.  When a class is found to be constant, ``modify``
    injects the corresponding ``num`` leaf into the class so extraction can
    select the folded literal, mirroring egg's canonical constant-folding
    example and the paper's "constant folding of arithmetic operations with
    integer and floating-point numbers".
    """

    #: A foldable node is constant only if *every* child is (make_key
    #: bails on the first non-numeric child); ``num`` leaves have no
    #: children, so the promise is vacuous for them.
    needs_all_child_data = True

    #: Operators folded by the analysis.
    _FOLDABLE = {"+", "-", "*", "/", "%", "neg", "fma",
                 "<", ">", "<=", ">=", "==", "!=", "min", "max"}

    def __init__(self, fold_division: bool = True) -> None:
        self.fold_division = fold_division
        #: (weak ref to the egraph, #ops interned, num op id, foldable
        #: op-id set) — the interned view of ``_FOLDABLE`` for the graph
        #: this analysis last served, rebuilt whenever the graph interns a
        #: new operator.  The graph holds its analysis, so a strong
        #: reference here would be a cycle that keeps every served graph
        #: alive until the collector runs.
        self._opid_cache: Optional[tuple] = None

    # -- helpers -------------------------------------------------------------

    def _fold(self, op: str, args: list[Number]) -> Optional[Number]:
        try:
            if op == "+":
                return args[0] + args[1]
            if op == "-":
                return args[0] - args[1]
            if op == "*":
                return args[0] * args[1]
            if op == "/":
                if not self.fold_division or args[1] == 0:
                    return None
                if isinstance(args[0], int) and isinstance(args[1], int):
                    # C integer division truncates toward zero
                    quotient = abs(args[0]) // abs(args[1])
                    sign = 1 if (args[0] >= 0) == (args[1] >= 0) else -1
                    return sign * quotient
                return args[0] / args[1]
            if op == "%":
                if args[1] == 0 or not all(isinstance(a, int) for a in args):
                    return None
                # C's remainder takes the dividend's sign; exact on ints
                remainder = abs(args[0]) % abs(args[1])
                return -remainder if args[0] < 0 else remainder
            if op == "neg":
                return -args[0]
            if op == "fma":
                return args[0] + args[1] * args[2]
            if op == "min":
                return min(args)
            if op == "max":
                return max(args)
            if op in ("<", ">", "<=", ">=", "==", "!="):
                table = {
                    "<": args[0] < args[1],
                    ">": args[0] > args[1],
                    "<=": args[0] <= args[1],
                    ">=": args[0] >= args[1],
                    "==": args[0] == args[1],
                    "!=": args[0] != args[1],
                }
                return int(table[op])
        except (OverflowError, ValueError):  # pragma: no cover - defensive
            return None
        return None

    # -- Analysis interface ---------------------------------------------------

    def relevant_op_ids(self, egraph: EGraph):
        """Only ``num`` and the foldable operators produce non-None data."""

        cache = self._refresh_opid_cache(egraph)
        relevant = set(cache[3])
        if cache[2] >= 0:
            relevant.add(cache[2])
        return relevant

    def _refresh_opid_cache(self, egraph: EGraph) -> tuple:
        names = egraph.op_names
        cache = self._opid_cache
        if cache is None or cache[0]() is not egraph or cache[1] != len(names):
            cache = (
                weakref.ref(egraph),
                len(names),
                egraph._op_ids.get("num", -1),
                {i for i, op in enumerate(names) if op in self._FOLDABLE},
            )
            self._opid_cache = cache
        return cache

    def make_key(self, egraph: EGraph, key: NodeKey) -> Optional[Number]:
        # runs on every class creation, so the "not foldable" dominant case
        # must be integer set membership on op ids (no string hashing)
        cache = self._refresh_opid_cache(egraph)
        op_id = key[0]
        if op_id == cache[2]:
            return egraph.payloads[key[1]]  # type: ignore[return-value]
        if len(key) == 2 or op_id not in cache[3]:
            return None
        op = egraph.op_names[op_id]
        args: list[Number] = []
        data = egraph.data
        find = egraph.uf.find
        for i in range(2, len(key)):
            value = data[find(key[i])]
            if not isinstance(value, (int, float)):
                return None
            args.append(value)
        folded = self._fold(op, args)
        if isinstance(folded, float) and (math.isnan(folded) or math.isinf(folded)):
            return None
        return folded

    def join(self, a: Optional[Number], b: Optional[Number]) -> Optional[Number]:
        if a is None:
            return b
        if b is None:
            return a
        # Two constants claimed for the same class: they must agree (up to FP
        # noise introduced by reassociation); keep the first deterministically.
        return a

    def modify(self, egraph: EGraph, eclass_id: int) -> None:
        value = egraph.data_of(eclass_id)
        if not isinstance(value, (int, float)):
            return
        literal = egraph.add_leaf("num", value)
        if not egraph.is_equal(literal, eclass_id):
            egraph.merge(literal, eclass_id)
