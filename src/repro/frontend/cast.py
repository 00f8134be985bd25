"""Abstract syntax tree for the C subset used by directive-based GPU kernels.

The node set intentionally covers the language features that appear in the
OpenACC / OpenMP C versions of the NAS Parallel Benchmarks and SPEC ACCEL:
scalar and array declarations, compound assignments, ``for`` / ``while`` /
``do-while`` / ``if`` statements, multi-dimensional array subscripts, struct
member access, pointer dereference, casts, ternary expressions, and calls to
math intrinsics.  Directives are attached to statements as :class:`Pragma`
nodes wrapping a parsed :class:`repro.frontend.pragma.Directive`.

Every node is a small dataclass.  Nodes are mutable (the optimizer replaces
right-hand sides in place) but :func:`clone` produces deep copies when a pass
needs to preserve the original program, e.g. for the semantics-equivalence
check performed by :mod:`repro.interp.verify`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Union

__all__ = [
    "Node",
    "Expr",
    "Stmt",
    "Number",
    "StringLit",
    "Ident",
    "ArraySub",
    "Member",
    "UnaryOp",
    "BinOp",
    "Ternary",
    "Call",
    "Cast",
    "Assign",
    "Decl",
    "ExprStmt",
    "Block",
    "If",
    "For",
    "While",
    "DoWhile",
    "Return",
    "Break",
    "Continue",
    "Pragma",
    "FuncDef",
    "TranslationUnit",
    "clone",
    "walk",
    "ASSIGN_OPS",
    "BINARY_OPS",
    "UNARY_OPS",
    "COMPARISON_OPS",
]


#: Assignment operators recognised by the parser and the SSA builder.
ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^=")

#: Binary operators in the expression grammar (excluding assignment).
BINARY_OPS = (
    "+", "-", "*", "/", "%",
    "<<", ">>",
    "<", ">", "<=", ">=", "==", "!=",
    "&", "|", "^", "&&", "||",
)

#: Comparison operators (useful to the rule writers and the interpreter).
COMPARISON_OPS = ("<", ">", "<=", ">=", "==", "!=")

#: Prefix unary operators.
UNARY_OPS = ("-", "+", "!", "~", "*", "&", "++", "--")


class Node:
    """Base class of every AST node."""

    #: Source line of the first token of this node (0 when synthesised).
    line: int = 0
    #: The fields that hold a child node, ``None`` or a list of nodes: those
    #: whose annotation names a node class (set per class).
    _child_fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._child_fields = tuple(
            name for name, annotation in cls.__dict__.get("__annotations__", {}).items()
            if any(word in annotation for word in ("Expr", "Stmt", "Node", "Block"))
        )

    def children(self) -> List["Node"]:
        """The direct child nodes, in source order."""
        out: List[Node] = []
        for name in self._child_fields:
            value = getattr(self, name)
            if type(value) is list:
                out.extend(value)
            elif value is not None:
                out.append(value)
        return out


class Expr(Node):
    """Base class for expression nodes."""


class Stmt(Node):
    """Base class for statement nodes."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Number(Expr):
    """A numeric literal.

    ``text`` preserves the literal exactly as written (including suffixes)
    so the printer round-trips the user spelling; ``value`` is the parsed
    Python value used by constant folding and the interpreter; ``is_float``
    distinguishes integer from floating-point literals.
    """

    text: str
    value: Union[int, float]
    is_float: bool = False
    line: int = 0

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return self.text


@dataclass
class StringLit(Expr):
    """A string literal (only appears as a call argument in kernels)."""

    value: str
    line: int = 0


@dataclass
class Ident(Expr):
    """A variable (or function name in a call position)."""

    name: str
    line: int = 0

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return self.name


@dataclass
class ArraySub(Expr):
    """An array subscript ``base[index]``.

    Multi-dimensional accesses such as ``a[i][j][k]`` nest :class:`ArraySub`
    nodes with the outermost subscript at the root.
    """

    base: Expr
    index: Expr
    line: int = 0


@dataclass
class Member(Expr):
    """A struct member access ``base.field`` or ``base->field``."""

    base: Expr
    field_name: str
    arrow: bool = False
    line: int = 0


@dataclass
class UnaryOp(Expr):
    """A prefix or postfix unary operation."""

    op: str
    operand: Expr
    postfix: bool = False
    line: int = 0


@dataclass
class BinOp(Expr):
    """A binary operation ``lhs op rhs``."""

    op: str
    lhs: Expr
    rhs: Expr
    line: int = 0


@dataclass
class Ternary(Expr):
    """The conditional expression ``cond ? then : otherwise``."""

    cond: Expr
    then: Expr
    otherwise: Expr
    line: int = 0


@dataclass
class Call(Expr):
    """A function call ``func(args...)``."""

    func: Expr
    args: list[Expr] = field(default_factory=list)
    line: int = 0


@dataclass
class Cast(Expr):
    """A C cast ``(type) expr``."""

    type_name: str
    operand: Expr
    line: int = 0


@dataclass
class Assign(Expr):
    """An assignment expression ``target op value`` with ``op`` in ASSIGN_OPS."""

    op: str
    target: Expr
    value: Expr
    line: int = 0


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Decl(Stmt):
    """A declaration of one variable, e.g. ``double tmp = 0.0;``.

    Multi-declarator statements (``int i, j;``) are split into consecutive
    :class:`Decl` nodes by the parser.  ``array_dims`` holds the declared
    extents for local array declarations (``double q[5];``).
    """

    type_name: str
    name: str
    init: Optional[Expr] = None
    array_dims: list[Expr] = field(default_factory=list)
    qualifiers: tuple[str, ...] = ()
    line: int = 0


@dataclass
class ExprStmt(Stmt):
    """An expression statement (usually an assignment or a call)."""

    expr: Expr
    line: int = 0


@dataclass
class Block(Stmt):
    """A compound statement ``{ ... }``."""

    stmts: list[Stmt] = field(default_factory=list)
    line: int = 0


@dataclass
class If(Stmt):
    """An ``if`` statement with optional ``else`` branch."""

    cond: Expr
    then: Stmt
    otherwise: Optional[Stmt] = None
    line: int = 0


@dataclass
class For(Stmt):
    """A ``for`` loop.

    ``init`` may be a declaration (``for (int i = 0; ...)``) or an
    expression statement; either may be ``None`` for degenerate loops.
    """

    init: Optional[Stmt]
    cond: Optional[Expr]
    step: Optional[Expr]
    body: Stmt
    line: int = 0


@dataclass
class While(Stmt):
    """A ``while`` loop."""

    cond: Expr
    body: Stmt
    line: int = 0


@dataclass
class DoWhile(Stmt):
    """A ``do { } while (cond);`` loop."""

    body: Stmt
    cond: Expr
    line: int = 0


@dataclass
class Return(Stmt):
    """A ``return`` statement."""

    value: Optional[Expr] = None
    line: int = 0


@dataclass
class Break(Stmt):
    """A ``break`` statement."""

    line: int = 0


@dataclass
class Continue(Stmt):
    """A ``continue`` statement."""

    line: int = 0


@dataclass
class Pragma(Stmt):
    """A ``#pragma`` directive attached to the statement that follows it.

    ``directive`` is the parsed OpenACC/OpenMP form (or ``None`` for pragmas
    of other families, which are carried through verbatim via ``text``).
    """

    text: str
    directive: Optional["object"] = None
    stmt: Optional[Stmt] = None
    line: int = 0


@dataclass
class FuncDef(Node):
    """A function definition (kernels are typically wrapped in one)."""

    return_type: str
    name: str
    params: list[tuple[str, str]] = field(default_factory=list)
    body: Block = field(default_factory=Block)
    line: int = 0


@dataclass
class TranslationUnit(Node):
    """A whole parsed source file: a list of declarations and functions."""

    decls: list[Node] = field(default_factory=list)
    line: int = 0


# ---------------------------------------------------------------------------
# Utilities
# ---------------------------------------------------------------------------


def clone(node: Node) -> Node:
    """Return a deep copy of *node* (and its entire subtree)."""

    return copy.deepcopy(node)


def walk(node: Node) -> Iterator[Node]:
    """Yield *node* and every descendant in pre-order."""

    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        children = node.children()
        if children:
            children.reverse()
            stack += children


def collect(node: Node, kind: type) -> list[Node]:
    """Return every descendant of *node* (inclusive) of the given class."""

    return [n for n in walk(node) if isinstance(n, kind)]


def is_lvalue(node: Node) -> bool:
    """Return True if *node* may appear on the left of an assignment."""

    if isinstance(node, (Ident, ArraySub, Member)):
        return True
    if isinstance(node, UnaryOp) and node.op == "*" and not node.postfix:
        return True
    return False
