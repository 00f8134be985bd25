"""Unit tests for the temp-var renderer, the scheduler and temp numbering."""

import re

from repro.codegen.bulkload import schedule_group
from repro.codegen.tempvars import ClassRenderer
from repro.cost import DEFAULT_COST_MODEL
from repro.egraph.egraph import EGraph
from repro.egraph.extract import extract_best
from repro.egraph.language import num, op, sym
from repro.frontend import parse_statement, print_c
from repro.saturator import SaturatorConfig, Variant
from repro.saturator.pipeline import optimize_loop_body


def build(terms):
    eg = EGraph()
    roots = [eg.add_term(t) for t in terms]
    eg.rebuild()
    extraction = extract_best(eg, roots, DEFAULT_COST_MODEL, "dag-greedy")
    renderer = ClassRenderer(eg, extraction.choices)
    return eg, roots, renderer


def schedule(renderer, roots, store_stmt_of, bulk_load):
    """Run one group's schedule; returns its callback calls in order:
    ``("temp", class)`` per ``declare`` and ``("stmt", i)`` per ``statement``.
    """

    calls = []

    def declare(cid):
        renderer.names[cid] = f"_t{len(renderer.names)}"
        calls.append(("temp", cid))

    schedule_group(
        renderer, [renderer.egraph.find(r) for r in roots], store_stmt_of,
        bulk_load, declare, lambda position: calls.append(("stmt", position)),
    )
    return calls


def is_load(renderer, cid):
    eg = renderer.egraph
    return eg.op_names[renderer.choices[cid][0]] == "load"


class TestKernelWideNumbering:
    """Temporaries are numbered once per kernel, in declaration order."""

    SOURCE = """
    {
      x = a[i] * b[i];
      if (c[i] > 0.0) {
        y = d[i] * e[i] + x;
      }
      out[i] = x + f[i] * g[i];
    }
    """

    def declared(self, variant):
        body = parse_statement(self.SOURCE)
        report = optimize_loop_body(body, SaturatorConfig(variant=variant), "k")
        numbers = [int(n) for n in re.findall(r"double _v(\d+) =", print_c(body))]
        return numbers, report.optimized.temporaries

    def test_each_name_is_declared_once_and_counted(self):
        for variant in (Variant.CSE, Variant.CSE_BULK):
            numbers, temporaries = self.declared(variant)
            assert sorted(numbers) == list(range(temporaries))

    def test_groups_of_a_block_are_numbered_back_to_front(self):
        # the outer block's second group (``out[i] = ...``) is generated
        # first, then its first group, then the ``if`` block's group
        numbers, _ = self.declared(Variant.CSE)
        assert numbers == [7, 8, 9, *range(10, 17), *range(0, 7)]


class TestRenderer:
    def test_leaves_render_inline(self):
        eg, roots, renderer = build([op("+", sym("x"), num(2))])
        root = eg.find(roots[0])
        assert renderer.render_definition(root) == "(x + 2)"

    def test_load_renders_through_template(self):
        load = op("load", sym("a"), sym("i"), sym("j"), payload="a[{0}][{1}]")
        eg, roots, renderer = build([load])
        assert renderer.render(eg.find(roots[0])) == "a[i][j]"

    def test_ssa_suffixes_stripped(self):
        eg, roots, renderer = build([op("+", sym("tmp@loop1"), num(1))])
        assert renderer.render_definition(eg.find(roots[0])) == "(tmp + 1)"

    def test_declared_temp_referenced_by_name(self):
        shared = op("*", sym("a"), sym("b"))
        eg, roots, renderer = build([op("+", shared, sym("c"))])
        renderer.names[eg.lookup_term(shared)] = "_v7"
        root = eg.find(roots[0])
        assert renderer.render_definition(root) == "(_v7 + c)"
        assert print_c(renderer.build_definition(root)) == "_v7 + c"

    def test_is_temp_class_excludes_leaves_and_phis(self):
        phi = op("phi", sym("c"), sym("x"), sym("y"), payload="x@phi1")
        eg, roots, renderer = build([op("+", phi, sym("z"))])
        assert not renderer.is_temp_class(eg.lookup_term(phi))
        assert not renderer.is_temp_class(eg.lookup_term(sym("z")))
        assert renderer.is_temp_class(eg.find(roots[0]))


class TestScheduler:
    """The scheduler's callback order is the emitted statement order."""

    def loads_ab(self):
        load_a = op("load", sym("a"), sym("i"), payload="a[{0}]")
        load_b = op("load", sym("b"), sym("i"), payload="b[{0}]")
        eg, roots, renderer = build([op("+", load_a, num(1)), op("*", load_b, num(2))])
        classes = [eg.find(eg.lookup_term(t)) for t in (load_a, load_b)]
        return eg, roots, renderer, classes

    def test_lazy_schedule_places_temps_before_use(self):
        eg, roots, renderer, (a, b) = self.loads_ab()
        r0, r1 = (eg.find(r) for r in roots)
        assert schedule(renderer, roots, {}, bulk_load=False) == [
            ("temp", a), ("temp", r0), ("stmt", 0),
            ("temp", b), ("temp", r1), ("stmt", 1),
        ]

    def test_bulk_schedule_hoists_all_loads_first(self):
        eg, roots, renderer, (a, b) = self.loads_ab()
        r0, r1 = (eg.find(r) for r in roots)
        assert schedule(renderer, roots, {}, bulk_load=True) == [
            ("temp", a), ("temp", b),
            ("temp", r0), ("stmt", 0), ("temp", r1), ("stmt", 1),
        ]

    def test_each_class_is_declared_once_and_then_built_by_name(self):
        shared = op("*", sym("a"), sym("b"))
        eg, roots, renderer = build([op("+", shared, num(1)), op("-", shared, num(2))])
        calls = schedule(renderer, roots, {}, bulk_load=False)
        temps = [cid for kind, cid in calls if kind == "temp"]
        assert len(temps) == len(set(temps)) == 3
        assert renderer.render_definition(eg.find(roots[1])) == (
            f"({renderer.names[eg.lookup_term(shared)]} - 2)"
        )

    def test_bulk_loads_sorted_by_static_index(self):
        loads = [op("load", sym("a"), num(k), payload="a[{0}]") for k in (3, 1, 2)]
        eg, roots, renderer = build([op("+", op("+", loads[0], loads[1]), loads[2])])
        calls = schedule(renderer, roots, {}, bulk_load=True)
        declared = [cid for kind, cid in calls if kind == "temp"]
        renderer.names.clear()
        rendered = [
            renderer.render_definition(cid) for cid in declared
            if is_load(renderer, cid)
        ]
        assert rendered == ["a[1]", "a[2]", "a[3]"]
        assert all(is_load(renderer, cid) for cid in declared[:3])

    def test_load_depending_on_store_waits_for_it(self):
        store = op("store", sym("a"), sym("i"), sym("x"), payload="a[{0}]")
        load_after = op("load", store, sym("i"), payload="a[{0}]")
        eg = EGraph()
        r0 = eg.add_term(sym("x"))          # statement 0 defines the stored value
        store_class = eg.add_term(store)
        r1 = eg.add_term(op("+", load_after, num(1)))
        eg.rebuild()
        extraction = extract_best(eg, [r0, store_class, r1], DEFAULT_COST_MODEL)
        renderer = ClassRenderer(eg, extraction.choices)
        load_class = eg.find(eg.lookup_term(load_after))
        calls = schedule(
            renderer, [r0, r1], {eg.find(store_class): 0}, bulk_load=True
        )
        assert calls == [
            ("stmt", 0), ("temp", load_class), ("temp", eg.find(r1)), ("stmt", 1),
        ]
