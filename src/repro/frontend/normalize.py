"""AST normalisation used before SSA construction.

The only transformation is structural: every loop body and branch of an
``if`` becomes a :class:`~repro.frontend.cast.Block`, so that later passes
(SSA construction and temporary-variable insertion) always have a real
statement list to splice generated declarations into.  The printed code is
semantically identical; only braces are added.  The walk visits statements
only: an expression can never contain a statement, so it is never entered.
"""

from __future__ import annotations

from repro.frontend import cast as C

__all__ = ["normalize_blocks"]


def _as_block(stmt: C.Stmt) -> C.Block:
    if isinstance(stmt, C.Block):
        return stmt
    return C.Block([stmt], getattr(stmt, "line", 0))


def normalize_blocks(node: C.Node) -> C.Node:
    """Wrap loop/branch bodies in blocks, in place; returns *node*.

    Children are normalised exactly once, *before* their parent wraps them:
    a freshly created wrapper block only ever contains an
    already-normalised statement, so no re-descent is needed (re-recursing
    into wrapped bodies used to make this pass exponential in loop
    nesting depth).
    """

    for child in node.children():
        if not isinstance(child, C.Expr):
            normalize_blocks(child)

    if isinstance(node, C.If):
        node.then = _as_block(node.then)
        if node.otherwise is not None:
            node.otherwise = _as_block(node.otherwise)
    elif isinstance(node, (C.For, C.While, C.DoWhile)):
        node.body = _as_block(node.body)
    return node
