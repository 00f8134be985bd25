"""The code generator: rewrite kernel statements from an extracted e-graph.

For every straight-line group of the kernel's SSA form the generator walks
the group's schedule of temporaries (lazy or bulk-load policy, §VI;
:func:`~repro.codegen.bulkload.schedule_group`) and emits as it goes:

* each temporary the schedule reaches becomes a ``double _vN = ...;``
  declaration whose value is built straight from the selected node keys
  (:class:`~repro.codegen.tempvars.ClassRenderer`), numbered kernel-wide in
  declaration order;
* each original assignment the schedule reaches gets its right-hand side
  replaced by a reference to its root temporary (or an inline expression
  for trivial right-hand sides), compound assignments becoming plain ``=``.

The emitted statements replace the group's slice of its block.  Loop
structure, branches and every ``#pragma`` line are left untouched — the
structural guarantee that lets the output compile with NVHPC, GCC and
Clang alike in the paper.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

from repro.codegen.bulkload import schedule_group
from repro.codegen.tempvars import ClassRenderer, Template
from repro.egraph.egraph import EGraph, NodeKey
from repro.egraph.extract import ExtractionResult
from repro.frontend import cast as C
from repro.records import record
from repro.ssa.form import AssignmentInfo, KernelSSA, StraightLineGroup

__all__ = ["KernelCodeStats", "CodeGenerator"]


@record
class KernelCodeStats:
    """Operation counts of a kernel body (per loop-body execution)."""

    loads: int = 0
    stores: int = 0
    flops: int = 0
    fmas: int = 0
    divs: int = 0
    calls: int = 0
    temporaries: int = 0
    int_ops: int = 0

    @property
    def instructions(self) -> int:
        """Total dynamic instruction estimate (one per counted operation)."""

        return (
            self.loads + self.stores + self.flops + self.fmas
            + self.divs + self.calls + self.int_ops
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "loads": self.loads,
            "stores": self.stores,
            "flops": self.flops,
            "fmas": self.fmas,
            "divs": self.divs,
            "calls": self.calls,
            "int_ops": self.int_ops,
            "temporaries": self.temporaries,
            "instructions": self.instructions,
        }


_FLOP_OPS = {"+", "-", "*", "neg", "min", "max"}
_INT_OPS = {"<<", ">>", "&", "|", "^", "%", "~", "!",
            "<", ">", "<=", ">=", "==", "!=", "&&", "||"}
#: Operator name -> the :class:`KernelCodeStats` field it counts toward.
_OP_FIELD = {
    "load": "loads", "store": "stores", "fma": "fmas", "/": "divs",
    "call": "calls",
    **dict.fromkeys(_FLOP_OPS, "flops"),
    **dict.fromkeys(_INT_OPS, "int_ops"),
}


class CodeGenerator:
    """Rewrite a kernel body in place from an extraction result."""

    def __init__(
        self,
        egraph: EGraph,
        extraction: ExtractionResult,
        ssa: KernelSSA,
        root_of: Dict[int, int],
        store_class_of: Dict[int, int],
        bulk_load: bool = False,
        temp_prefix: str = "_v",
    ) -> None:
        """
        ``root_of`` maps an assignment's ``ssa_id`` to the e-class of its
        right-hand side; ``store_class_of`` maps the ``ssa_id`` of store
        assignments to the e-class of their ``store`` term.
        """

        self.egraph = egraph
        self.extraction = extraction
        self.ssa = ssa
        self.root_of = root_of
        self.store_class_of = store_class_of
        self.bulk_load = bulk_load
        self.temp_prefix = temp_prefix
        self._templates: Dict[str, Template] = {}
        #: Operation counts of the generated code, by :class:`KernelCodeStats`
        #: field; ``"temporaries"`` is also the kernel-wide counter that
        #: numbers the temporaries.
        self._counts: Counter = Counter()

    # ------------------------------------------------------------------

    def generate(self) -> KernelCodeStats:
        """Rewrite every group in place; returns the generated code's counts."""

        # blocks in first-seen order; the groups of a block are spliced
        # back to front so that earlier groups' indices stay valid
        by_block: Dict[int, List[StraightLineGroup]] = {}
        for group in self.ssa.groups:
            by_block.setdefault(id(group.block), []).append(group)
        for groups in by_block.values():
            for group in sorted(groups, key=lambda g: g.start_index, reverse=True):
                self._generate_group(group)
        return KernelCodeStats(**self._counts)

    # ------------------------------------------------------------------

    def _generate_group(self, group: StraightLineGroup) -> None:
        if not group.assignments:
            return

        egraph = self.egraph
        counts = self._counts
        renderer = ClassRenderer(
            egraph, self.extraction.choices, templates=self._templates
        )
        root_classes: List[int] = []
        store_stmt_of: Dict[int, int] = {}
        for position, info in enumerate(group.assignments):
            root = egraph.find(self.root_of[info.ssa_id])
            root_classes.append(root)
            renderer.mark_index_classes(root)
            store_class = self.store_class_of.get(info.ssa_id)
            if store_class is not None:
                store_stmt_of[egraph.find(store_class)] = position

        new_stmts: List[C.Stmt] = []

        def declare(cid: int) -> None:
            value = renderer.build_definition(cid)
            name = renderer.names[cid] = f"{self.temp_prefix}{counts['temporaries']}"
            counts["temporaries"] += 1
            new_stmts.append(C.Decl("double", name, value))
            self._count_node(renderer.choices[cid])

        def statement(position: int) -> None:
            info = group.assignments[position]
            self._rewrite_statement(info, renderer.build(root_classes[position]))
            new_stmts.append(info.stmt)
            if info.is_store:
                counts["stores"] += 1

        schedule_group(
            renderer, root_classes, store_stmt_of, self.bulk_load, declare, statement
        )
        group.block.stmts[group.start_index : group.end_index] = new_stmts

    # ------------------------------------------------------------------

    def _rewrite_statement(self, info: AssignmentInfo, rhs: C.Expr) -> None:
        stmt = info.stmt
        if isinstance(stmt, C.Decl):
            stmt.init = rhs
            return
        if isinstance(stmt, C.ExprStmt):
            expr = stmt.expr
            if isinstance(expr, C.Assign):
                expr.op = "="
                expr.value = rhs
                return
            if isinstance(expr, C.UnaryOp) and expr.op in ("++", "--"):
                stmt.expr = C.Assign("=", expr.operand, rhs, expr.line)
                return
        raise TypeError(f"cannot rewrite statement {type(stmt).__name__}")

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def _count_node(self, key: NodeKey) -> None:
        field = _OP_FIELD.get(self.egraph.op_names[key[0]])
        if field is not None:
            self._counts[field] += 1


def count_ast_stats(node: C.Node) -> KernelCodeStats:
    """Operation counts of a kernel body as written in the source.

    This is the honest "original code" baseline: each textual occurrence of
    an array access or arithmetic operation counts once (what a compiler
    that performs no CSE at all would execute per innermost iteration).
    """

    counts: Counter = Counter()

    def visit(node_: C.Node, in_store_target: bool = False) -> None:
        if isinstance(node_, C.ArraySub):
            # only the outermost subscript of a chain is one memory access
            counts["stores" if in_store_target else "loads"] += 1
            base = node_
            while isinstance(base, C.ArraySub):
                visit(base.index, False)
                base = base.base
            return
        if isinstance(node_, C.Assign):
            target_is_memory = isinstance(node_.target, (C.ArraySub, C.Member)) or (
                isinstance(node_.target, C.UnaryOp) and node_.target.op == "*"
            )
            if node_.op != "=":
                # compound assignment re-reads the target
                visit(node_.target, False)
                field = _OP_FIELD.get(node_.op[:-1])
                if field is not None:
                    counts[field] += 1
            visit(node_.target, target_is_memory)
            visit(node_.value, False)
            return
        if isinstance(node_, C.BinOp):
            field = _OP_FIELD.get(node_.op)
            if field is not None:
                counts[field] += 1
            visit(node_.lhs, False)
            visit(node_.rhs, False)
            return
        if isinstance(node_, C.UnaryOp):
            if node_.op == "-":
                counts["flops"] += 1
            visit(node_.operand, False)
            return
        if isinstance(node_, C.Call):
            counts["calls"] += 1
            for arg in node_.args:
                visit(arg, False)
            return
        for child in node_.children():
            visit(child, False)

    visit(node)
    return KernelCodeStats(**counts)
