"""Codegen builds the AST it splices: exactness against the text it replaced.

``ClassRenderer.build`` / ``build_definition`` construct
:mod:`repro.frontend.cast` nodes straight from the selected e-nodes.  The
generator used to render each class to C text and re-parse it; that text
(``render_definition``, still the bulk-load sort key) parsed back is the
*reference* here:

* every selected class of every straight-line group, over the 34-kernel
  corpus x 4 variants, builds to exactly the parse of its rendering
  (ignoring source lines), both fully inline and with every temporary
  available;
* the number leaf equals the parse of ``_format_number(v)`` (hypothesis);
* no node object appears twice in a generated kernel AST (``optimize_ast``
  hands back the mutated AST, so shared subtrees would alias);
* a leaf with no C spelling is a typed :class:`RenderError`, never an
  empty or invalid identifier.

Work-counter gates pin what the change removed: one ``tokenize`` per source
plus at most one per distinct (kernel, load template), and a
statement-only ``normalize_blocks`` walk.
"""

import math

import pytest
from hypothesis import example, given, strategies as st

import repro.codegen.generator as generator_module
import repro.frontend.normalize as normalize_module
import repro.frontend.parser as parser_module
from repro.benchsuite.registry import NPB_BENCHMARKS, SPEC_ACC_BENCHMARKS
from repro.codegen.tempvars import (
    ClassRenderer,
    RenderError,
    _format_number,
    _name_node,
    _number_node,
)
from repro.cost import DEFAULT_COST_MODEL
from repro.egraph.egraph import EGraph, ENode
from repro.egraph.extract import extract_best
from repro.egraph.language import num, op, sym
from repro.egraph.runner import RunnerLimits
from repro.frontend import cast as C
from repro.frontend.lexer import LexerError
from repro.frontend.parser import ParseError, parse, parse_expression, parse_statement
from repro.saturator import SaturatorConfig, Variant, optimize_source
from repro.saturator.driver import optimize_ast
from repro.saturator.pipeline import optimize_loop_body
from repro.session import stages as stages_module
from repro.session.stages import DEFAULT_STAGES, CodegenStage, Stage

#: The paper's limits, as in the golden corpus gate.
LIMITS = RunnerLimits(10_000, 10, 300.0)


def corpus():
    """``(request name, source)`` of the 34 distinct benchmark sources."""

    seen = {}
    for bench in NPB_BENCHMARKS + SPEC_ACC_BENCHMARKS:
        for spec in bench.kernels:
            seen.setdefault(spec.source, f"{bench.name}_{spec.name}")
    return [(name, source) for source, name in seen.items()]


def parsed(text: str) -> C.Expr:
    """``parse_expression(text)`` with every source line zeroed."""

    tree = parse_expression(text)
    for node in C.walk(tree):
        node.line = 0
    return tree


def parse_source(source: str) -> C.Node:
    """The AST ``optimize_source`` optimizes (whole unit or bare statement)."""

    try:
        root = parse(source)
        if root.decls:
            return root
    except (LexerError, ParseError):
        pass
    return parse_statement(source)


def _rendered_classes(renderer: ClassRenderer, root: int):
    """Selected classes a build of *root* reaches, in first-visit order."""

    seen = {}
    stack = [root]
    while stack:
        cid = renderer.egraph.find(stack.pop())
        if cid in seen:
            continue
        key = renderer.choices[cid]
        op_name = renderer.egraph.op_names[key[0]]
        seen[cid] = None
        if op_name == "load":
            stack.extend(key[3:])
        elif op_name == "store":
            stack.append(key[-1])
        elif op_name not in ("phi", "phi-loop"):
            stack.extend(key[2:])
    return list(seen)


class CheckBuildStage(Stage):
    """Before codegen: every reachable class builds to the parse of its text."""

    name = "check-build"
    requires = ("egraph", "extraction", "ssa")

    def __init__(self, checked):
        self.checked = checked

    def run(self, ctx):
        templates = {}
        for group in ctx.ssa.groups:
            renderer = ClassRenderer(
                ctx.egraph, ctx.extraction.choices, templates=templates
            )
            classes = []
            for info in group.assignments:
                classes.extend(_rendered_classes(renderer, ctx.root_of[info.ssa_id]))
            temps = {
                cid: f"_v{cid}" for cid in classes if renderer.is_temp_class(cid)
            }
            for names in ({}, temps):
                renderer.names = names
                for cid in classes:
                    expected = parsed(renderer.render_definition(cid))
                    assert renderer.build_definition(cid) == expected, (
                        ctx.name, renderer.render_definition(cid)
                    )
                    self.checked.append(cid)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.name)
def test_corpus_builds_equal_parse_of_render_and_share_no_node(variant):
    config = SaturatorConfig(variant=variant, limits=LIMITS)
    checked = []
    stages = DEFAULT_STAGES[:-1] + (CheckBuildStage(checked), DEFAULT_STAGES[-1])
    for name, source in corpus():
        root = parse_source(source)
        optimize_ast(root, config, name, stages)
        seen = set()
        for node in C.walk(root):
            assert id(node) not in seen, (name, node)
            seen.add(id(node))
    assert len(checked) > 1000


_INDEX = op("load", sym("idx"), sym("i"), payload="idx[{0}]")

#: One term per builder branch the corpus never selects (it selects only
#: load, arithmetic, fma, neg, call, ``<``, store, sym, num and phi-loop).
OPERATOR_TERMS = [
    op("min", sym("a"), op("+", sym("b"), num(1))),
    op("max", num(-2), sym("b")),
    op("cast", op("/", sym("n"), num(2)), payload="double"),
    op("ternary", op("<", sym("a"), sym("b")), num(1.5), num(-0.0)),
    op("member", op("load", sym("s"), sym("i"), payload="s[{0}]"), payload="f"),
    op("addr", sym("x")),
    op("!", op("&&", sym("p"), sym("q"))),
    op("~", op("<<", sym("m"), num(3))),
    op("call", sym("x"), num(2), payload="pow"),
    op("neg", op("neg", num(-3))),
    op("fma", sym("a"), sym("b"), op("-", sym("c"), num(-1))),
    op("+", op("phi", sym("c"), sym("x"), sym("y"), payload="x@phi1"), sym('"fmt"')),
    op("*", sym("p->f.g"), sym("t@loop2")),
    op("load", sym("kValues"), _INDEX, payload="kValues[{0}].Kx"),
    op("load", sym("p"), op("load", sym("q"), payload="(*q)"), payload="(*p)[{0}]"),
    op("store", sym("a"), sym("i"), op("%", sym("k"), num(4)), payload="a[{0}]"),
]


@pytest.mark.parametrize("term", OPERATOR_TERMS, ids=str)
def test_every_operator_builds_to_the_parse_of_its_rendering(term):
    eg = EGraph()
    root = eg.add_term(term)
    eg.rebuild()
    extraction = extract_best(eg, [root], DEFAULT_COST_MODEL, "dag-greedy")
    renderer = ClassRenderer(eg, extraction.choices)
    built = renderer.build_definition(root)
    assert built == parsed(renderer.render_definition(root))
    ids = [id(node) for node in C.walk(built)]
    assert len(ids) == len(set(ids))


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


@given(st.one_of(
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
))
@example(0)
@example(-7)
@example(-0.0)
@example(1e-05)
@example(1e+300)
@example(-1e+300)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(True)
@example(False)
def test_number_leaf_equals_parse_of_its_spelling(value):
    assert _number_node(value) == parsed(_format_number(value))


@pytest.mark.parametrize("name", [
    "x", "_v12", "s.f", "p->f", "p->f.g", '"fmt %d\\n"', "'c'",
])
def test_name_leaf_equals_parse_of_its_spelling(name):
    assert _name_node(name) == parsed(name)


@pytest.mark.parametrize("name", ["", "1x", "a b", "a.", "->f", "a[0]", "x+y"])
def test_bad_leaf_name_is_a_render_error(name):
    with pytest.raises(RenderError):
        _name_node(name)


def _renderer_with_opaque_x(term):
    eg = EGraph()
    root = eg.add_term(term)
    eg.rebuild()
    extraction = extract_best(eg, [root], DEFAULT_COST_MODEL, "dag-greedy")
    extraction.choices[eg.find(eg.lookup_term(sym("x")))] = eg._intern_node(
        ENode("sym", (), "@opaque3")
    )
    return ClassRenderer(eg, extraction.choices), root


def test_injected_opaque_symbol_is_a_render_error_where_reparse_failed():
    """``@opaque3`` strips to ``""``: ``(1 + )`` raised ``ParseError``."""

    renderer, root = _renderer_with_opaque_x(op("+", num(1), sym("x")))
    with pytest.raises(ParseError):
        parse_expression(renderer.render_definition(root))
    with pytest.raises(RenderError, match="@opaque3"):
        renderer.build_definition(root)


def test_injected_opaque_left_operand_is_a_render_error_not_a_unary_plus():
    """``( + 1)`` re-parsed silently as ``+1``; the builder refuses it."""

    renderer, root = _renderer_with_opaque_x(op("+", sym("x"), num(1)))
    assert parse_expression(renderer.render_definition(root)).op == "+"
    with pytest.raises(RenderError, match="@opaque3"):
        renderer.build_definition(root)


def test_generator_raises_render_error_for_an_injected_opaque_choice():
    class InjectOpaque(Stage):
        name = "inject"
        requires = ("extraction",)

        def run(self, ctx):
            eg, choices = ctx.egraph, ctx.extraction.choices
            for cid, key in choices.items():
                if eg.op_names[key[0]] == "sym" and eg.payloads[key[1]] == "b":
                    choices[cid] = eg._intern_node(ENode("sym", (), "@opaque3"))

    body = parse_statement("{ out[i] = a[i] * b + a[i] * b; }")
    stages = DEFAULT_STAGES[:-1] + (InjectOpaque(), CodegenStage())
    with pytest.raises(RenderError):
        optimize_loop_body(body, SaturatorConfig(variant=Variant.CSE), "k", stages)


def test_load_templates_use_slot_names_the_template_lacks():
    load = op("load", sym("_slot0"), sym("i"), payload="_slot0[{0}]")
    eg = EGraph()
    root = eg.add_term(load)
    eg.rebuild()
    extraction = extract_best(eg, [root], DEFAULT_COST_MODEL, "dag-greedy")
    renderer = ClassRenderer(eg, extraction.choices)
    assert renderer.build(root) == parsed("_slot0[i]")
    assert renderer.build(root) is not renderer.build(root)


# ---------------------------------------------------------------------------
# Work-counter gates (a CSE corpus pass)
# ---------------------------------------------------------------------------


def test_generator_no_longer_reparses():
    assert not hasattr(generator_module, "parse_expression")


def test_cse_pass_tokenizes_each_source_and_template_once(monkeypatch):
    """1 427 ``tokenize`` calls per CSE pass when codegen re-parsed its text
    (34 sources + 1 393 rendered expressions)."""

    calls = []
    real_tokenize = parser_module.tokenize
    monkeypatch.setattr(
        parser_module, "tokenize", lambda src: calls.append(src) or real_tokenize(src)
    )
    templates = []
    real_generator = stages_module.CodeGenerator

    class CountingGenerator(real_generator):
        def __init__(self, egraph, extraction, *args, **kwargs):
            super().__init__(egraph, extraction, *args, **kwargs)
            templates.append(len({
                egraph.payloads[key[1]]
                for key in extraction.choices.values()
                if egraph.op_names[key[0]] == "load"
            }))

    monkeypatch.setattr(stages_module, "CodeGenerator", CountingGenerator)
    config = SaturatorConfig(variant=Variant.CSE, limits=LIMITS)
    sources = corpus()
    for name, source in sources:
        optimize_source(source, config, name)
    assert len(calls) <= len(sources) + sum(templates)
    assert sum(templates) < 200


def test_cse_pass_normalize_walk_visits_statements_only(monkeypatch):
    """22 518 recursive ``normalize_blocks`` calls per CSE pass when the
    walk also descended into every expression node."""

    calls = []
    real_normalize = normalize_module.normalize_blocks

    def counting(node):
        calls.append(node)
        return real_normalize(node)

    # the walk recurses through the module global; entry-point callers hold
    # their own reference and are not counted
    monkeypatch.setattr(normalize_module, "normalize_blocks", counting)
    config = SaturatorConfig(variant=Variant.CSE, limits=LIMITS)
    for name, source in corpus():
        optimize_source(source, config, name)
    assert 0 < len(calls) <= 1200
    assert not any(isinstance(node, C.Expr) for node in calls)
