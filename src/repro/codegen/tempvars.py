"""Selected e-classes as C expression ASTs, through their temporaries.

Every selected e-node that performs real work (a load, an arithmetic
operation, a call ...) gets a temporary variable ``_vN`` holding its value
(paper §VI-A, cf. Listing 3 of the paper); :meth:`ClassRenderer.is_temp_class`
says which.  Leaves (constants, symbols), φ nodes (whose value is simply
the variable they merge), stores (performed by the original statements)
and e-classes only used as array indices are built inline instead.

:class:`ClassRenderer` builds :mod:`repro.frontend.cast` nodes directly —
exactly the tree the parser would return for the class's C text.  A class
whose temporary is already declared (``ClassRenderer.names``, filled by the
code generator as it declares them) builds as its name.  The text form
(:meth:`ClassRenderer.render_definition`) survives only as the bulk-load
tie-break key, the paper's "sorted by static index".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, Set, Tuple

from repro.egraph.egraph import EGraph, NodeKey
from repro.frontend import cast as C
from repro.frontend.parser import make_number, parse_expression

__all__ = ["ClassRenderer", "RenderError", "TEMP_OPS"]


#: Binary operators of the C grammar: built as a ``BinOp`` of two classes.
_BINARY_OPS = frozenset(C.BINARY_OPS)

#: Operators whose e-classes are materialised into temporaries.
TEMP_OPS = frozenset(
    {"load", "+", "-", "*", "/", "%", "neg", "fma", "call", "ternary",
     "min", "max", "<<", ">>", "&", "|", "^"}
)


def _strip_ssa_suffix(name: str) -> str:
    """``tmp@loop1`` / ``b@phi3`` → the runtime variable name (``tmp`` / ``b``)."""

    return name.split("@", 1)[0]


def _format_number(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    text = repr(float(value))
    return text


class RenderError(ValueError):
    """A selected node has no C spelling (e.g. an opaque ``@opaqueN`` leaf)."""


#: A runtime variable: an identifier, or a ``.`` / ``->`` member path of them.
_NAME_PATH_RE = re.compile(r"[A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*", re.ASCII)
_MEMBER_SEP_RE = re.compile(r"(\.|->)")
#: A string or character literal, as the lexer spells one.
_LITERAL_RE = re.compile(r""""(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*'""")


def _name_node(name: str) -> C.Expr:
    """The expression parsing the runtime name of leaf *name* yields."""

    text = _strip_ssa_suffix(name)
    if _NAME_PATH_RE.fullmatch(text):
        head, *path = _MEMBER_SEP_RE.split(text)
        node: C.Expr = C.Ident(head)
        for sep, field_name in zip(path[::2], path[1::2]):
            node = C.Member(node, field_name, sep == "->")
        return node
    if _LITERAL_RE.fullmatch(text):
        return C.StringLit(text)
    raise RenderError(f"leaf {name!r} is neither a C name nor a literal")


def _number_node(value) -> C.Expr:
    """The expression parsing :func:`_format_number` of *value* yields."""

    text = _format_number(value)
    negative = text.startswith("-")
    if negative:
        text = text[1:]
    # ``repr`` spells the non-finite floats ``inf`` / ``nan``: identifiers
    node = C.Ident(text) if text.isalpha() else make_number(text)
    return C.UnaryOp("-", node) if negative else node


#: A parsed load template and its slot identifier -> index-operand position.
Template = Tuple[C.Expr, Dict[str, int]]


def _parse_template(template: str) -> Template:
    """Parse a load payload such as ``lhsZ[{0}][{1}]`` once.

    Each ``{k}`` becomes an identifier the template itself cannot contain
    (its prefix is not a substring of the template), so the tree is the
    access path with every index slot marked for substitution.
    """

    prefix = "_slot"
    while prefix in template:
        prefix += "_"
    names = [f"{prefix}{k}" for k in range(template.count("{"))]
    tree = parse_expression(template.format(*names))
    for node in C.walk(tree):
        node.line = 0
    return tree, {name: k for k, name in enumerate(names)}


@dataclass
class ClassRenderer:
    """Build the C expressions of e-classes of an extraction result.

    *choices* maps each selected class to its node key ``(op_id,
    payload_id, *child_ids)``; names and payloads are read from the
    e-graph's ``op_names`` / ``payloads`` tables.
    """

    egraph: EGraph
    choices: Dict[int, NodeKey]
    #: Class -> name of each temporary declared so far in the group being
    #: generated; such a class builds (and renders) as its name.
    names: Dict[int, str] = field(default_factory=dict)
    #: E-classes that must never be rendered through a temp (index contexts).
    inline_only: Set[int] = field(default_factory=set)
    #: Parsed load templates by payload text; a code generator shares one
    #: dict across its groups, so each template is parsed once per kernel.
    templates: Dict[str, Template] = field(default_factory=dict)

    # ------------------------------------------------------------------

    def is_temp_class(self, eclass_id: int) -> bool:
        """True if this class is materialised as a temporary variable."""

        eclass_id = self.egraph.uf.find(eclass_id)
        if eclass_id in self.inline_only:
            return False
        key = self.choices.get(eclass_id)
        if key is None:
            return False
        return self.egraph.op_names[key[0]] in TEMP_OPS

    # ------------------------------------------------------------------

    def render(self, eclass_id: int) -> str:
        """Render the value of an e-class as a C expression.

        Classes whose temp is already declared render as the temp name;
        everything else renders structurally (inline).
        """

        eclass_id = self.egraph.uf.find(eclass_id)
        name = self.names.get(eclass_id)
        return self.render_definition(eclass_id) if name is None else name

    def render_definition(self, eclass_id: int) -> str:
        """Render the defining expression of an e-class (one node deep,
        children rendered through :meth:`render`)."""

        eclass_id = self.egraph.uf.find(eclass_id)
        key = self.choices.get(eclass_id)
        if key is None:
            raise KeyError(f"e-class {eclass_id} has no selected node")
        return self._render_node(key)

    # ------------------------------------------------------------------

    def _render_node(self, key: NodeKey) -> str:
        op = self.egraph.op_names[key[0]]
        payload = self.egraph.payloads[key[1]]
        children = key[2:]
        if op == "num":
            return _format_number(payload)
        if op == "sym":
            return _strip_ssa_suffix(str(payload))
        if op in ("phi", "phi-loop"):
            return _strip_ssa_suffix(str(payload))
        if op == "load":
            template = str(payload)
            index_text = [self.render(c) for c in children[1:]]
            return template.format(*index_text)
        if op == "store":
            # value of a store is the stored value (used only when a load
            # forwards from a store of the same location)
            return self.render(children[-1])
        if op == "neg":
            return f"(- {self.render(children[0])})"
        if op == "fma":
            a, b, c = (self.render(child) for child in children)
            return f"({a} + {b} * {c})"
        if op == "call":
            args = ", ".join(self.render(c) for c in children)
            return f"{payload}({args})"
        if op == "cast":
            return f"(({payload})({self.render(children[0])}))"
        if op == "ternary":
            cond, then, other = (self.render(c) for c in children)
            return f"({cond} ? {then} : {other})"
        if op == "member":
            return f"{self.render(children[0])}.{payload}"
        if op == "addr":
            return f"(&{self.render(children[0])})"
        if op in ("min", "max"):
            a, b = (self.render(c) for c in children)
            return f"(({a}) {'<' if op == 'min' else '>'} ({b}) ? ({a}) : ({b}))"
        if op in ("!", "~"):
            return f"({op}{self.render(children[0])})"
        if len(children) == 2:
            lhs, rhs = (self.render(c) for c in children)
            return f"({lhs} {op} {rhs})"
        raise RenderError(f"cannot render {op!r} node over classes {children}")

    # ------------------------------------------------------------------

    def build(self, eclass_id: int) -> C.Expr:
        """The AST of :meth:`render`: a fresh tree on every call, so no node
        object is ever spliced into the kernel twice."""

        eclass_id = self.egraph.uf.find(eclass_id)
        name = self.names.get(eclass_id)
        if name is not None:
            return C.Ident(name)
        key = self.choices.get(eclass_id)
        if key is None:
            raise KeyError(f"e-class {eclass_id} has no selected node")
        return self._build_node(key)

    def build_definition(self, eclass_id: int) -> C.Expr:
        """The AST of :meth:`render_definition` (equal to parsing it)."""

        eclass_id = self.egraph.uf.find(eclass_id)
        key = self.choices.get(eclass_id)
        if key is None:
            raise KeyError(f"e-class {eclass_id} has no selected node")
        return self._build_node(key)

    def _build_node(self, key: NodeKey) -> C.Expr:
        op = self.egraph.op_names[key[0]]
        builder = _BUILDERS.get(op)
        if builder is not None:
            return builder(self, self.egraph.payloads[key[1]], key[2:])
        if len(key) == 4 and op in _BINARY_OPS:
            return C.BinOp(op, self.build(key[2]), self.build(key[3]))
        raise RenderError(f"cannot render {op!r} node over classes {key[2:]}")

    def _build_load(self, template: str, children: Sequence[int]) -> C.Expr:
        parsed = self.templates.get(template)
        if parsed is None:
            parsed = self.templates[template] = _parse_template(template)
        tree, slots = parsed
        return self._instantiate(tree, slots, children[1:])

    def _instantiate(
        self, node: C.Expr, slots: Dict[str, int], index: Sequence[int]
    ) -> C.Expr:
        """A fresh copy of template *node* with its slots built from *index*."""

        if type(node) is C.Ident and node.name in slots:
            return self.build(index[slots[node.name]])
        dup = object.__new__(type(node))
        fields = dup.__dict__
        fields.update(node.__dict__)
        for name in node._child_fields:
            value = fields[name]
            if type(value) is list:
                fields[name] = [self._instantiate(v, slots, index) for v in value]
            elif value is not None:
                fields[name] = self._instantiate(value, slots, index)
        return dup

    # ------------------------------------------------------------------

    def mark_index_classes(self, roots: Sequence[int]) -> None:
        """Mark classes used in array-index position as inline-only.

        Index expressions must stay integer-typed, so they never go through
        the ``double`` temporaries; this walks the selected DAG under
        *roots*, each class once, and collects every class reachable
        through an index operand of a ``load`` or ``store``.
        """

        seen: Set[int] = set()

        def mark_subtree(cid: int) -> None:
            cid = self.egraph.uf.find(cid)
            if cid in self.inline_only:
                return
            self.inline_only.add(cid)
            key = self.choices.get(cid)
            if key is None:
                return
            # a load's / store's version operand carries no generated code
            op = self.egraph.op_names[key[0]]
            children = key[3:] if op in ("load", "store") else key[2:]
            for child in children:
                mark_subtree(child)

        def visit(cid: int) -> None:
            cid = self.egraph.uf.find(cid)
            if cid in seen:
                return
            seen.add(cid)
            key = self.choices.get(cid)
            if key is None:
                return
            op = self.egraph.op_names[key[0]]
            if op in ("phi", "phi-loop"):
                # φ values render as a variable name; their operands are not
                # rendered as part of this expression
                return
            if op in ("load", "store"):
                index_children = key[3:-1] if op == "store" else key[3:]
                for child in index_children:
                    mark_subtree(child)
                if op == "store":
                    visit(key[-1])
                # the version operand (children[0]) carries no generated code
                return
            for child in key[2:]:
                visit(child)

        try:
            for root in roots:
                visit(root)
        finally:
            # both walks call themselves through their closure cells: a
            # cycle through the renderer (and its e-graph) until released
            del visit, mark_subtree


def _min_max(test: str, renderer: ClassRenderer, a: int, b: int) -> C.Expr:
    build = renderer.build
    return C.Ternary(C.BinOp(test, build(a), build(b)), build(a), build(b))


#: Op name -> ``(renderer, payload, child classes) -> AST`` of its node; a
#: binary operator of the C grammar has none (:meth:`ClassRenderer._build_node`).
_BUILDERS: Dict[str, Callable[[ClassRenderer, object, Tuple[int, ...]], C.Expr]] = {
    "num": lambda r, payload, kids: _number_node(payload),
    "sym": lambda r, payload, kids: _name_node(str(payload)),
    "phi": lambda r, payload, kids: _name_node(str(payload)),
    "phi-loop": lambda r, payload, kids: _name_node(str(payload)),
    "load": lambda r, payload, kids: r._build_load(str(payload), kids),
    "store": lambda r, payload, kids: r.build(kids[-1]),
    "neg": lambda r, payload, kids: C.UnaryOp("-", r.build(kids[0])),
    "fma": lambda r, payload, kids: C.BinOp(
        "+", r.build(kids[0]), C.BinOp("*", r.build(kids[1]), r.build(kids[2]))
    ),
    "call": lambda r, payload, kids: C.Call(
        _name_node(str(payload)), [r.build(c) for c in kids]
    ),
    "cast": lambda r, payload, kids: C.Cast(str(payload), r.build(kids[0])),
    "ternary": lambda r, payload, kids: C.Ternary(*map(r.build, kids)),
    "member": lambda r, payload, kids: C.Member(r.build(kids[0]), str(payload)),
    "addr": lambda r, payload, kids: C.UnaryOp("&", r.build(kids[0])),
    "min": lambda r, payload, kids: _min_max("<", r, *kids),
    "max": lambda r, payload, kids: _min_max(">", r, *kids),
    "!": lambda r, payload, kids: C.UnaryOp("!", r.build(kids[0])),
    "~": lambda r, payload, kids: C.UnaryOp("~", r.build(kids[0])),
}
