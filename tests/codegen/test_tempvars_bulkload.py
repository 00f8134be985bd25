"""Unit tests for the temp-var renderer and the bulk-load scheduler."""

from repro.codegen.bulkload import ScheduleItem, schedule_group
from repro.codegen.tempvars import ClassRenderer, TempAllocator
from repro.cost import DEFAULT_COST_MODEL
from repro.egraph.egraph import EGraph
from repro.egraph.extract import extract_best
from repro.egraph.language import num, op, sym


def build(terms):
    eg = EGraph()
    roots = [eg.add_term(t) for t in terms]
    eg.rebuild()
    extraction = extract_best(eg, roots, DEFAULT_COST_MODEL, "dag-greedy")
    renderer = ClassRenderer(eg, extraction.choices, TempAllocator())
    return eg, roots, renderer


class TestTempAllocator:
    def test_names_are_stable_per_class(self):
        alloc = TempAllocator()
        assert alloc.name_for(5) == "_v0"
        assert alloc.name_for(7) == "_v1"
        assert alloc.name_for(5) == "_v0"
        assert len(alloc) == 2

    def test_first_index_offsets_numbering(self):
        alloc = TempAllocator(first_index=10)
        assert alloc.name_for(1) == "_v10"
        assert alloc.next_index == 11


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

    def test_available_temp_referenced_by_name(self):
        shared = op("*", sym("a"), sym("b"))
        eg, roots, renderer = build([op("+", shared, sym("c"))])
        mul_class = eg.lookup_term(shared)
        renderer.available_temps.add(mul_class)
        name = renderer.temps.name_for(mul_class)
        assert name in renderer.render_definition(eg.find(roots[0]))

    def test_is_temp_class_excludes_leaves_and_phis(self):
        phi = op("phi", sym("c"), sym("x"), sym("y"), payload="x@phi1")
        eg, roots, renderer = build([op("+", phi, sym("z"))])
        assert not renderer.is_temp_class(eg.lookup_term(phi))
        assert not renderer.is_temp_class(eg.lookup_term(sym("z")))
        assert renderer.is_temp_class(eg.find(roots[0]))


class TestScheduler:
    def test_lazy_schedule_places_temps_before_use(self):
        load_a = op("load", sym("a"), sym("i"), payload="a[{0}]")
        load_b = op("load", sym("b"), sym("i"), payload="b[{0}]")
        eg, roots, renderer = build([op("+", load_a, num(1)), op("*", load_b, num(2))])
        schedule = schedule_group(renderer, [eg.find(r) for r in roots], {}, bulk_load=False)
        kinds = [item.kind for item in schedule]
        # temps for statement 0 come before statement 0, same for statement 1
        first_stmt = kinds.index("stmt")
        assert "temp" in kinds[:first_stmt]
        assert kinds.count("stmt") == 2

    def test_bulk_schedule_hoists_all_loads_first(self):
        load_a = op("load", sym("a"), sym("i"), payload="a[{0}]")
        load_b = op("load", sym("b"), sym("i"), payload="b[{0}]")
        eg, roots, renderer = build([op("+", load_a, num(1)), op("*", load_b, num(2))])
        schedule = schedule_group(renderer, [eg.find(r) for r in roots], {}, bulk_load=True)
        load_positions = [
            index for index, item in enumerate(schedule)
            if item.kind == "temp" and eg.op_names[renderer.node_of(item.eclass)[0]] == "load"
        ]
        first_stmt = [i for i, item in enumerate(schedule) if item.kind == "stmt"][0]
        assert all(pos < first_stmt for pos in load_positions)

    def test_bulk_loads_sorted_by_static_index(self):
        loads = [op("load", sym("a"), num(k), payload="a[{0}]") for k in (3, 1, 2)]
        eg, roots, renderer = build([op("+", op("+", loads[0], loads[1]), loads[2])])
        schedule = schedule_group(renderer, [eg.find(roots[0])], {}, bulk_load=True)
        rendered = [
            renderer.render_definition(item.eclass)
            for item in schedule
            if item.kind == "temp" and eg.op_names[renderer.node_of(item.eclass)[0]] == "load"
        ]
        assert rendered == sorted(rendered)

    def test_load_depending_on_store_waits_for_it(self):
        store = op("store", sym("a"), sym("i"), sym("x"), payload="a[{0}]")
        load_after = op("load", store, sym("i"), payload="a[{0}]")
        eg = EGraph()
        r0 = eg.add_term(sym("x"))          # statement 0 defines the stored value
        store_class = eg.add_term(store)
        r1 = eg.add_term(op("+", load_after, num(1)))
        eg.rebuild()
        extraction = extract_best(eg, [r0, store_class, r1], DEFAULT_COST_MODEL)
        renderer = ClassRenderer(eg, extraction.choices, TempAllocator())
        schedule = schedule_group(
            renderer,
            [eg.find(r0), eg.find(r1)],
            {eg.find(store_class): 0},
            bulk_load=True,
        )
        load_class = eg.find(eg.lookup_term(load_after))
        load_pos = [i for i, s in enumerate(schedule) if s.kind == "temp" and s.eclass == load_class]
        stmt0_pos = [i for i, s in enumerate(schedule) if s.kind == "stmt" and s.position == 0]
        assert load_pos and stmt0_pos
        assert load_pos[0] > stmt0_pos[0]
