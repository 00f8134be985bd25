"""``cast.walk`` and ``Node.children`` against the reflective walk they replaced.

The reference visits every dataclass field of a node that holds a node or a
list / tuple of nodes, recursively, in field order; ``walk`` must yield the
same node objects in the same pre-order on every corpus AST, as parsed and
as rewritten by the optimizer.
"""

import dataclasses

from repro.benchsuite.registry import NPB_BENCHMARKS, SPEC_ACC_BENCHMARKS
from repro.frontend import cast as C
from repro.frontend.parser import parse, parse_statement
from repro.saturator import SaturatorConfig, Variant
from repro.saturator.driver import optimize_ast


def reference_children(node):
    out = []
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        for item in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(item, C.Node):
                out.append(item)
    return out


def reference_walk(node):
    yield node
    for child in reference_children(node):
        yield from reference_walk(child)


def corpus_asts():
    sources = dict.fromkeys(
        spec.source for bench in NPB_BENCHMARKS + SPEC_ACC_BENCHMARKS for spec in bench.kernels
    )
    for source in sources:
        for optimized in (False, True):
            tree = parse(source)
            if not tree.decls:
                tree = parse_statement(source)
            if optimized:
                optimize_ast(tree, SaturatorConfig(variant=Variant.CSE_BULK))
            yield tree


def test_walk_is_the_reflective_pre_order_on_every_corpus_ast():
    trees = 0
    for tree in corpus_asts():
        expected = list(reference_walk(tree))
        actual = list(C.walk(tree))
        assert len(actual) == len(expected)
        assert all(a is b for a, b in zip(actual, expected))
        for node in actual:
            assert [id(c) for c in node.children()] == [
                id(c) for c in reference_children(node)
            ]
        trees += 1
    assert trees == 68


def test_walk_has_no_depth_limit():
    node = C.Ident("x")
    for _ in range(5000):
        node = C.BinOp("+", node, C.Number("1", 1))
    nodes = list(C.walk(node))
    assert len(nodes) == 10001
    assert nodes[0] is node and type(nodes[-1]) is C.Number
