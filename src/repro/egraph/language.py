"""The term language shared by the e-graph, the rules, and the extractors.

A :class:`Term` is an ordinary operator tree: an operator name, an optional
payload (the numeric value of a literal or the name of a symbol), and child
terms.  Terms are what the SSA builder produces from kernel statements, what
patterns are written in, and what extraction returns to the code generator.

Operator vocabulary used by the ACC Saturator pipeline
-------------------------------------------------------

===========  ==============================================================
operator     meaning
===========  ==============================================================
``num``      numeric literal; payload is an ``int`` or ``float``
``sym``      free variable (kernel input); payload is the variable name
``+ - * /``  arithmetic; ``%`` is modulo
``neg``      unary minus
``fma``      fused multiply-add ``fma(a, b, c) = a + b * c``
``load``     array load ``load(array, index...)``
``store``    array store ``store(array, index..., value)``
``call``     function call; payload is the callee name
``phi``      gated φ node ``phi(cond, true_value, false_value)``
``phi-loop`` loop φ node ``phi-loop(cond, body_value, init_value)``
``cmp?``     comparisons keep their C spelling (``<`` ``<=`` ``==`` ...)
``cast``     C cast; payload is the type name
``member``   struct member access; payload is the field name
``ternary``  C conditional expression
===========  ==============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple, Union

__all__ = ["Term", "num", "sym", "op"]

Payload = Union[int, float, str, None]


@dataclass(frozen=True, eq=False)
class Term:
    """An immutable operator tree.

    Equality and hashing are payload-*type*-aware: the integer literal ``1``
    and the floating-point literal ``1.0`` are different terms, because C
    gives them different semantics (``1/3`` is 0, ``1.0/3.0`` is not).
    """

    op: str
    children: Tuple["Term", ...] = ()
    payload: Payload = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return (
            self.op == other.op
            and self.payload == other.payload
            and type(self.payload) is type(other.payload)
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return hash((self.op, self.payload, type(self.payload).__name__, self.children))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def num(value: Union[int, float]) -> "Term":
        """A numeric literal term."""

        return Term("num", (), value)

    @staticmethod
    def sym(name: str) -> "Term":
        """A free-variable (symbol) term."""

        return Term("sym", (), name)

    @staticmethod
    def call(name: str, *args: "Term") -> "Term":
        """A function-call term with callee *name*."""

        return Term("call", tuple(args), name)

    # -- queries -------------------------------------------------------------

    def walk(self) -> Iterator["Term"]:
        """Yield this term and all descendants, pre-order."""

        yield self
        for child in self.children:
            yield from child.walk()

    def size(self) -> int:
        """Total number of nodes in the tree."""

        return 1 + sum(child.size() for child in self.children)

    def depth(self) -> int:
        """Height of the tree (a leaf has depth 1)."""

        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def symbols(self) -> set:
        """The set of free-variable names occurring in the term."""

        return {t.payload for t in self.walk() if t.op == "sym"}

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if self.op == "num":
            return repr(self.payload)
        if self.op == "sym":
            return str(self.payload)
        label = self.op if self.payload is None else f"{self.op}:{self.payload}"
        if not self.children:
            return f"({label})"
        inner = " ".join(str(c) for c in self.children)
        return f"({label} {inner})"


def num(value: Union[int, float]) -> Term:
    """Shorthand for :meth:`Term.num`."""

    return Term.num(value)


def sym(name: str) -> Term:
    """Shorthand for :meth:`Term.sym`."""

    return Term.sym(name)


def op(name: str, *children: Term, payload: Payload = None) -> Term:
    """Build an operator term."""

    return Term(name, tuple(children), payload)
