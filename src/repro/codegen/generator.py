"""The code generator: rewrite kernel statements from an extracted e-graph.

For every straight-line group of the kernel's SSA form the generator

1. schedules temporaries for the selected e-classes of the group's
   assignments (lazy or bulk-load policy, §VI),
2. builds the AST of each temporary's defining expression straight from
   the selected node keys (:class:`~repro.codegen.tempvars.ClassRenderer`),
3. splices ``double _vN = ...;`` declarations into the group's block, and
4. replaces each original assignment's right-hand side with a reference to
   its root temporary (or an inline expression for trivial right-hand
   sides), converting compound assignments to plain ``=``.

Loop structure, branches and every ``#pragma`` line are left untouched —
the structural guarantee that lets the output compile with NVHPC, GCC and
Clang alike in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.codegen.bulkload import ScheduleItem, schedule_group
from repro.codegen.tempvars import ClassRenderer, TempAllocator, Template
from repro.egraph.egraph import EGraph, NodeKey
from repro.egraph.extract import ExtractionResult
from repro.frontend import cast as C
from repro.records import record
from repro.ssa.form import AssignmentInfo, KernelSSA, StraightLineGroup

__all__ = ["KernelCodeStats", "GeneratedKernel", "CodeGenerator"]


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


@dataclass
class GeneratedKernel:
    """Result of code generation for one kernel."""

    #: The (mutated) loop body block.
    body: C.Block
    stats: KernelCodeStats
    #: Number of temporaries inserted per group.
    temps_per_group: List[int] = field(default_factory=list)
    #: True if the bulk-load policy was used.
    bulk_load: bool = False


_FLOP_OPS = {"+", "-", "*", "neg", "min", "max"}
_INT_OPS = {"<<", ">>", "&", "|", "^", "%", "~", "!",
            "<", ">", "<=", ">=", "==", "!=", "&&", "||"}


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
        self._next_temp_index = 0
        self._templates: Dict[str, Template] = {}
        self.stats = KernelCodeStats()

    # ------------------------------------------------------------------

    def generate(self) -> GeneratedKernel:
        """Rewrite every group; returns the generated-kernel summary."""

        temps_per_group: List[int] = []

        # groups in the same block must be spliced back-to-front so that
        # earlier groups' indices stay valid
        by_block: Dict[int, List[StraightLineGroup]] = {}
        block_of: Dict[int, C.Block] = {}
        for group in self.ssa.groups:
            by_block.setdefault(id(group.block), []).append(group)
            block_of[id(group.block)] = group.block

        for block_key, groups in by_block.items():
            block = block_of[block_key]
            for group in sorted(groups, key=lambda g: g.start_index, reverse=True):
                n_temps = self._generate_group(block, group)
                temps_per_group.append(n_temps)

        self.stats.temporaries = sum(temps_per_group)
        return GeneratedKernel(
            body=self.ssa.body,
            stats=self.stats,
            temps_per_group=temps_per_group,
            bulk_load=self.bulk_load,
        )

    # ------------------------------------------------------------------

    def _generate_group(self, block: C.Block, group: StraightLineGroup) -> int:
        if not group.assignments:
            return 0

        allocator = TempAllocator(self.temp_prefix, self._next_temp_index)
        renderer = ClassRenderer(
            self.egraph, self.extraction.choices, allocator, templates=self._templates
        )

        root_classes: List[int] = []
        for info in group.assignments:
            root = self.egraph.find(self.root_of[info.ssa_id])
            root_classes.append(root)
            renderer.mark_index_classes(root)

        store_stmt_of: Dict[int, int] = {}
        for position, info in enumerate(group.assignments):
            store_class = self.store_class_of.get(info.ssa_id)
            if store_class is not None:
                store_stmt_of[self.egraph.find(store_class)] = position

        schedule = schedule_group(renderer, root_classes, store_stmt_of, self.bulk_load)

        # Build in schedule order, producing the new statement list.
        renderer.available_temps = set()
        new_stmts: List[C.Stmt] = []
        n_temps = 0
        for item in schedule:
            if item.kind == "temp":
                cid = self.egraph.find(item.eclass)
                value = renderer.build_definition(cid)
                decl = C.Decl("double", allocator.name_for(cid), value)
                new_stmts.append(decl)
                renderer.available_temps.add(cid)
                self._count_node(renderer.node_of(cid))
                n_temps += 1
            else:
                info = group.assignments[item.position]
                root = root_classes[item.position]
                self._rewrite_statement(info, renderer.build(root))
                new_stmts.append(info.stmt)
                self._count_statement(info)

        block.stmts[group.start_index : group.end_index] = new_stmts
        self._next_temp_index = allocator.next_index
        return n_temps

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
        op = self.egraph.op_names[key[0]]
        if op == "load":
            self.stats.loads += 1
        elif op == "store":
            self.stats.stores += 1
        elif op == "fma":
            self.stats.fmas += 1
        elif op == "/":
            self.stats.divs += 1
        elif op == "call":
            self.stats.calls += 1
        elif op in _FLOP_OPS:
            self.stats.flops += 1
        elif op in _INT_OPS:
            self.stats.int_ops += 1

    def _count_statement(self, info: AssignmentInfo) -> None:
        if info.is_store:
            self.stats.stores += 1


def count_ast_stats(node: C.Node) -> KernelCodeStats:
    """Operation counts of a kernel body as written in the source.

    This is the honest "original code" baseline: each textual occurrence of
    an array access or arithmetic operation counts once (what a compiler
    that performs no CSE at all would execute per innermost iteration).
    """

    stats = KernelCodeStats()

    def visit(node_: C.Node, in_store_target: bool = False) -> None:
        if isinstance(node_, C.ArraySub):
            # only the outermost subscript of a chain is one memory access
            if in_store_target:
                stats.stores += 1
            else:
                stats.loads += 1
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
                if node_.op[:-1] == "/":
                    stats.divs += 1
                elif node_.op[:-1] in _FLOP_OPS:
                    stats.flops += 1
                elif node_.op[:-1] in _INT_OPS:
                    stats.int_ops += 1
            visit(node_.target, target_is_memory)
            visit(node_.value, False)
            return
        if isinstance(node_, C.BinOp):
            if node_.op == "/":
                stats.divs += 1
            elif node_.op in _FLOP_OPS:
                stats.flops += 1
            elif node_.op in _INT_OPS:
                stats.int_ops += 1
            visit(node_.lhs, False)
            visit(node_.rhs, False)
            return
        if isinstance(node_, C.UnaryOp):
            if node_.op == "-":
                stats.flops += 1
            visit(node_.operand, False)
            return
        if isinstance(node_, C.Call):
            stats.calls += 1
            for arg in node_.args:
                visit(arg, False)
            return
        for child in node_.children():
            visit(child, False)

    visit(node)
    return stats
