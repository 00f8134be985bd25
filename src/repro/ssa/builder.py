"""SSA construction from the body of an innermost parallel loop.

The builder walks the statements of the loop body in program order and
maintains an *environment* mapping every scalar variable to the term that
currently holds its value and every array to its current *version* term.

* A scalar assignment ``x = e`` binds ``x`` to the term of ``e`` — later
  reads of ``x`` therefore share the e-class of ``e`` (this is exactly the
  "assign both the ID and the expression to the same e-class" step of the
  paper).
* An array store ``A[i] = e`` creates a new version term
  ``store(A_version, i, e)``; loads of ``A`` performed afterwards refer to
  the new version and therefore can never be reordered above the store.
* ``if`` joins bind every variable modified in either branch to a gated φ
  term ``phi(cond, then_value, else_value)``.
* Loops bind every loop-carried variable to an opaque loop value while the
  body is processed (so no value from before the loop leaks into the body)
  and to a ``phi-loop(cond, body_value, init_value)`` term afterwards.

Statements that are not simple assignments (nested loops, branches, calls
with unknown effects) end the current straight-line group; their bodies are
processed recursively so their assignments are optimized too.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

from repro.egraph.language import Term
from repro.frontend import cast as C
from repro.ssa.form import AssignmentInfo, KernelSSA, StraightLineGroup

__all__ = ["SSABuilder", "build_ssa", "expression_to_term"]


class _Env:
    """The SSA environment: current value/version term per name."""

    def __init__(self) -> None:
        self.scalars: Dict[str, Term] = {}
        self.arrays: Dict[str, Term] = {}

    def scalar(self, name: str) -> Term:
        return self.scalars.get(name, Term.sym(name))

    def array(self, name: str) -> Term:
        # auto-register so that barriers (unknown calls) can later invalidate
        # every array the kernel has touched
        return self.arrays.setdefault(name, Term.sym(name))

    def copy(self) -> "_Env":
        dup = _Env()
        dup.scalars = dict(self.scalars)
        dup.arrays = dict(self.arrays)
        return dup


class SSABuilder:
    """Build the :class:`KernelSSA` form of a loop body."""

    def __init__(self) -> None:
        self.env = _Env()
        self.groups: List[StraightLineGroup] = []
        self.phis: Dict[str, Term] = {}
        self._ssa_counter = 0
        self._phi_counter = 0
        self._loop_counter = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def build(self, body: C.Block) -> KernelSSA:
        """Build SSA for the given loop body block."""

        start = time.perf_counter()
        self._process_block(body, depth=0)
        ssa = KernelSSA(
            body=body,
            groups=self.groups,
            phis=self.phis,
            num_assignments=self._ssa_counter,
            build_time=time.perf_counter() - start,
        )
        return ssa

    # ------------------------------------------------------------------
    # Statement walking
    # ------------------------------------------------------------------

    def _process_block(self, block: C.Block, depth: int) -> None:
        current: Optional[StraightLineGroup] = None

        def close_group() -> None:
            nonlocal current
            if current is not None and current.assignments:
                self.groups.append(current)
            current = None

        for index, stmt in enumerate(block.stmts):
            inner = stmt
            # Directives never carry assignments themselves; the guarded
            # statement (if any) is control flow and is processed below.
            if isinstance(inner, C.Pragma):
                close_group()
                if inner.stmt is not None:
                    self._process_control(inner.stmt, depth)
                continue

            info = self._try_assignment(inner, block, index)
            if info is not None:
                if current is None:
                    current = StraightLineGroup(block, index, [], depth)
                current.assignments.append(info)
                continue

            close_group()
            self._process_control(inner, depth)

        close_group()

    def _process_control(self, stmt: C.Stmt, depth: int) -> None:
        """Handle a non-assignment statement (control flow or barrier)."""

        if isinstance(stmt, C.Block):
            self._process_block(stmt, depth + 1)
            return
        if isinstance(stmt, C.If):
            self._process_if(stmt, depth)
            return
        if isinstance(stmt, (C.For, C.While, C.DoWhile)):
            self._process_loop(stmt, depth)
            return
        if isinstance(stmt, C.Pragma):
            if stmt.stmt is not None:
                self._process_control(stmt.stmt, depth)
            return
        if isinstance(stmt, C.Decl):
            # declaration without a modelled initializer: fresh unknown
            # value; an initializer with side effects is a barrier too
            if stmt.init is not None and not _is_pure(stmt.init):
                self._barrier(stmt)
            self.env.scalars[stmt.name] = Term.sym(stmt.name)
            return
        if isinstance(stmt, C.ExprStmt):
            # a call or other expression the builder does not model
            self._barrier(stmt)
            return
        # return / break / continue / anything else: nothing to track
        return

    # ------------------------------------------------------------------
    # if / loops
    # ------------------------------------------------------------------

    def _process_if(self, stmt: C.If, depth: int) -> None:
        cond_term = self._safe_expr_term(stmt.cond)
        before = self.env.copy()

        self._process_branch(stmt.then, depth)
        env_then = self.env

        self.env = before.copy()
        if stmt.otherwise is not None:
            self._process_branch(stmt.otherwise, depth)
        env_else = self.env

        merged = _Env()
        merged.scalars = dict(before.scalars)
        merged.arrays = dict(before.arrays)
        for name in set(env_then.scalars) | set(env_else.scalars) | set(before.scalars):
            t_then = env_then.scalars.get(name, Term.sym(name))
            t_else = env_else.scalars.get(name, Term.sym(name))
            if t_then == t_else:
                if name in env_then.scalars:
                    merged.scalars[name] = t_then
                continue
            merged.scalars[name] = self._make_phi("phi", name, cond_term, t_then, t_else)
        for name in set(env_then.arrays) | set(env_else.arrays) | set(before.arrays):
            t_then = env_then.arrays.get(name, Term.sym(name))
            t_else = env_else.arrays.get(name, Term.sym(name))
            if t_then == t_else:
                if name in env_then.arrays:
                    merged.arrays[name] = t_then
                continue
            merged.arrays[name] = self._make_phi("phi", name, cond_term, t_then, t_else)
        self.env = merged

    def _process_branch(self, stmt: C.Stmt, depth: int) -> None:
        if isinstance(stmt, C.Block):
            self._process_block(stmt, depth + 1)
        else:
            self._process_block(C.Block([stmt], stmt.line), depth + 1)

    def _process_loop(self, stmt: C.Stmt, depth: int) -> None:
        self._loop_counter += 1
        serial = self._loop_counter

        if isinstance(stmt, C.For):
            init, cond, body = stmt.init, stmt.cond, stmt.body
        elif isinstance(stmt, C.While):
            init, cond, body = None, stmt.cond, stmt.body
        else:  # DoWhile
            init, cond, body = None, stmt.cond, stmt.body

        # values of loop-carried variables before the loop
        init_env = self.env.copy()

        scalars, arrays = _assigned_names(stmt)

        # while the body runs, loop-carried values are opaque
        for name in scalars:
            self.env.scalars[name] = Term.sym(f"{name}@loop{serial}")
        for name in arrays:
            self.env.arrays[name] = Term.sym(f"{name}@loop{serial}")

        cond_term = (
            self._safe_expr_term(cond) if cond is not None else Term.sym(f"@loopcond{serial}")
        )

        # the init clause runs once before the body; process it so that any
        # declared induction variable is known inside the body
        if isinstance(init, C.Decl) and init.init is not None and _is_pure(init.init):
            self.env.scalars[init.name] = Term.sym(f"{init.name}@loop{serial}")
        elif isinstance(init, C.ExprStmt):
            pass  # the assigned variable is already opaque via scalars above

        self._process_branch(body, depth)

        # after the loop: loop-carried variables hold a loop φ
        for name in scalars:
            body_value = self.env.scalars.get(name, Term.sym(f"{name}@loop{serial}"))
            init_value = init_env.scalar(name)
            self.env.scalars[name] = self._make_phi(
                "phi-loop", name, cond_term, body_value, init_value
            )
        for name in arrays:
            body_value = self.env.arrays.get(name, Term.sym(f"{name}@loop{serial}"))
            init_value = init_env.array(name)
            self.env.arrays[name] = self._make_phi(
                "phi-loop", name, cond_term, body_value, init_value
            )

    def _make_phi(self, op: str, name: str, cond: Term, a: Term, b: Term) -> Term:
        self._phi_counter += 1
        payload = f"{name}@{op}{self._phi_counter}"
        term = Term(op, (cond, a, b), payload)
        self.phis[payload] = term
        return term

    def _barrier(self, stmt: C.Stmt) -> None:
        """Conservative barrier for a statement left as written.

        Forget every array version (a call may write anywhere) and rebind
        every scalar *stmt* assigns to a fresh opaque symbol, which renders
        as the runtime variable: ``x = y = a[i];`` is not modelled, so
        afterwards ``x`` and ``y`` hold whatever the statement left there,
        not their previous terms.
        """

        self._loop_counter += 1
        serial = self._loop_counter
        for name in list(self.env.arrays):
            self.env.arrays[name] = Term.sym(f"{name}@barrier{serial}")
        for name in _assigned_names(stmt)[0]:
            self.env.scalars[name] = Term.sym(f"{name}@barrier{serial}")

    # ------------------------------------------------------------------
    # Assignments
    # ------------------------------------------------------------------

    def _try_assignment(
        self, stmt: C.Stmt, block: C.Block, index: int
    ) -> Optional[AssignmentInfo]:
        """Return an AssignmentInfo if *stmt* is a simple assignment."""

        try:
            return self._try_assignment_inner(stmt, index)
        except _UnsupportedExpression:
            return None

    def _try_assignment_inner(self, stmt: C.Stmt, index: int) -> Optional[AssignmentInfo]:
        if isinstance(stmt, C.Decl):
            if stmt.init is None or not _is_pure(stmt.init) or stmt.array_dims:
                return None
            term = self.expr_term(stmt.init)
            self.env.scalars[stmt.name] = term
            return self._record(stmt, index, stmt.name, [], term, False, True, stmt.name)

        if isinstance(stmt, C.ExprStmt):
            expr = stmt.expr
            if isinstance(expr, C.Assign) and _is_pure(expr.value) and C.is_lvalue(expr.target):
                return self._assignment_from(expr, stmt, index)
            if (
                isinstance(expr, C.UnaryOp)
                and expr.op in ("++", "--")
                and isinstance(expr.operand, C.Ident)
            ):
                name = expr.operand.name
                delta = Term.num(1)
                op = "+" if expr.op == "++" else "-"
                term = Term(op, (self.env.scalar(name), delta))
                self.env.scalars[name] = term
                return self._record(stmt, index, name, [], term, False, False, name)
        return None

    def _assignment_from(
        self, assign: C.Assign, stmt: C.Stmt, index: int
    ) -> Optional[AssignmentInfo]:
        target = assign.target
        value_term = self.expr_term(assign.value)

        if isinstance(target, C.Ident) or (
            isinstance(target, C.Member) and isinstance(target.base, C.Ident)
        ):
            name = _scalar_name(target)
            if assign.op != "=":
                old = self.env.scalar(name)
                value_term = Term(assign.op[:-1], (old, value_term))
            self.env.scalars[name] = value_term
            return self._record(stmt, index, name, [], value_term, False, False, name)

        # array / pointer / member-of-element store
        try:
            template, base_name, index_terms = self._access_path(target)
        except _UnsupportedExpression:
            return None
        version = self.env.array(base_name)
        if assign.op != "=":
            old_load = Term("load", (version, *index_terms), template)
            value_term = Term(assign.op[:-1], (old_load, value_term))
        store = Term("store", (version, *index_terms, value_term), template)
        self.env.arrays[base_name] = store
        info = self._record(stmt, index, template, list(index_terms), value_term, True, False, None)
        info.store_term = store
        return info

    def _record(
        self,
        stmt: C.Stmt,
        index: int,
        template: str,
        indices: List[Term],
        term: Term,
        is_store: bool,
        is_decl: bool,
        var_name: Optional[str],
    ) -> AssignmentInfo:
        info = AssignmentInfo(
            stmt=stmt,
            stmt_index=index,
            lhs_template=template,
            lhs_indices=indices,
            term=term,
            ssa_id=self._ssa_counter,
            is_store=is_store,
            is_decl=is_decl,
            var_name=var_name,
        )
        self._ssa_counter += 1
        return info

    # ------------------------------------------------------------------
    # Expressions -> terms
    # ------------------------------------------------------------------

    def _safe_expr_term(self, expr: C.Expr) -> Term:
        """expr_term with a fallback opaque symbol for unsupported inputs."""

        try:
            return self.expr_term(expr)
        except _UnsupportedExpression:
            self._phi_counter += 1
            return Term.sym(f"@opaque{self._phi_counter}")

    def expr_term(self, expr: C.Expr) -> Term:
        """Convert a pure expression into its SSA term under the current env."""

        if isinstance(expr, C.Number):
            return Term.num(expr.value)
        if isinstance(expr, C.StringLit):
            return Term.sym(expr.value)
        if isinstance(expr, C.Ident):
            return self.env.scalar(expr.name)
        if isinstance(expr, C.Member) and isinstance(expr.base, C.Ident):
            return self.env.scalar(_scalar_name(expr))
        if isinstance(expr, (C.ArraySub, C.Member)) or (
            isinstance(expr, C.UnaryOp) and expr.op == "*" and not expr.postfix
        ):
            template, base_name, index_terms = self._access_path(expr)
            version = self.env.array(base_name)
            return Term("load", (version, *index_terms), template)
        if isinstance(expr, C.UnaryOp):
            operand = self.expr_term(expr.operand)
            if expr.op == "-":
                return Term("neg", (operand,))
            if expr.op == "+":
                return operand
            if expr.op == "!":
                return Term("!", (operand,))
            if expr.op == "~":
                return Term("~", (operand,))
            if expr.op == "&":
                return Term("addr", (operand,))
            raise _UnsupportedExpression(f"unary {expr.op}")
        if isinstance(expr, C.BinOp):
            if expr.op == ",":
                # comma: value of the right side (left side must be pure here)
                return self.expr_term(expr.rhs)
            return Term(expr.op, (self.expr_term(expr.lhs), self.expr_term(expr.rhs)))
        if isinstance(expr, C.Ternary):
            return Term(
                "ternary",
                (self.expr_term(expr.cond), self.expr_term(expr.then), self.expr_term(expr.otherwise)),
            )
        if isinstance(expr, C.Call):
            if not isinstance(expr.func, C.Ident):
                # ``ops.f(x)`` / ``(*fp)(x)``: no name to render the call by
                raise _UnsupportedExpression("indirect call")
            return Term(
                "call", tuple(self.expr_term(a) for a in expr.args), expr.func.name
            )
        if isinstance(expr, C.Cast):
            return Term("cast", (self.expr_term(expr.operand),), expr.type_name)
        raise _UnsupportedExpression(type(expr).__name__)

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------

    def _access_path(self, expr: C.Expr) -> Tuple[str, str, Tuple[Term, ...]]:
        """Return (printable template, base array name, index terms).

        The template contains ``{k}`` placeholders for the index terms, in
        order, e.g. ``lhsZ[{0}][{1}][{2}]`` or ``kValues[{0}].Kx``.
        """

        indices: List[Term] = []

        def visit(node: C.Expr) -> str:
            if isinstance(node, C.Ident):
                return node.name
            if isinstance(node, C.Member):
                sep = "->" if node.arrow else "."
                return f"{visit(node.base)}{sep}{node.field_name}"
            if isinstance(node, C.ArraySub):
                base = visit(node.base)
                placeholder = len(indices)
                indices.append(self.expr_term(node.index))
                return f"{base}[{{{placeholder}}}]"
            if isinstance(node, C.UnaryOp) and node.op == "*" and not node.postfix:
                return f"(*{visit(node.operand)})"
            raise _UnsupportedExpression(type(node).__name__)

        template = visit(expr)
        base_name = _base_name(expr)
        return template, base_name, tuple(indices)


class _UnsupportedExpression(Exception):
    """Internal marker for expressions outside the supported subset."""


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _scalar_name(expr: C.Expr) -> str:
    if isinstance(expr, C.Ident):
        return expr.name
    if isinstance(expr, C.Member) and isinstance(expr.base, C.Ident):
        sep = "->" if expr.arrow else "."
        return f"{expr.base.name}{sep}{expr.field_name}"
    raise _UnsupportedExpression(type(expr).__name__)


def _base_name(expr: C.Expr) -> str:
    """The leftmost identifier of an access path (array identity)."""

    node = expr
    while True:
        if isinstance(node, C.Ident):
            return node.name
        if isinstance(node, (C.ArraySub, C.Member)):
            node = node.base
            continue
        if isinstance(node, C.UnaryOp):
            node = node.operand
            continue
        raise _UnsupportedExpression(type(node).__name__)


def _is_pure(expr: C.Expr) -> bool:
    """True if evaluating *expr* has no side effects we track."""

    for node in C.walk(expr):
        if isinstance(node, C.Assign):
            return False
        if isinstance(node, C.UnaryOp) and node.op in ("++", "--"):
            return False
    return True


def _assigned_names(stmt: C.Stmt) -> Tuple[Set[str], Set[str]]:
    """Scalar and array names assigned anywhere inside *stmt*."""

    scalars: Set[str] = set()
    arrays: Set[str] = set()

    def note_target(target: C.Expr) -> None:
        if isinstance(target, C.Ident):
            scalars.add(target.name)
        elif isinstance(target, C.Member) and isinstance(target.base, C.Ident):
            try:
                scalars.add(_scalar_name(target))
            except _UnsupportedExpression:
                pass
        else:
            try:
                arrays.add(_base_name(target))
            except _UnsupportedExpression:
                pass

    for node in C.walk(stmt):
        if isinstance(node, C.Assign):
            note_target(node.target)
        elif isinstance(node, C.UnaryOp) and node.op in ("++", "--"):
            note_target(node.operand)
        elif isinstance(node, C.Decl):
            scalars.add(node.name)
    return scalars, arrays


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def build_ssa(body: C.Block) -> KernelSSA:
    """Build the SSA form of an innermost-parallel-loop body."""

    return SSABuilder().build(body)


def expression_to_term(expr: C.Expr) -> Term:
    """Convert a standalone pure expression to a term (empty environment)."""

    return SSABuilder().expr_term(expr)
