"""Tests for pattern parsing and e-matching."""

from repro.egraph.egraph import EGraph
from repro.egraph.language import num, op, sym
from repro.egraph.pattern import Pattern, PatternVar, compile_pattern, parse_pattern


def naive_rows(pattern, eg):
    """The reference matcher's matches as flat ``(class, v0, ..)`` rows."""

    names = pattern.variables()
    return [
        (cid, *[subst[name] for name in names])
        for cid, subst in pattern.search_naive(eg)
    ]


def search_rows(pattern, eg):
    """The relational engine's rows, checked against the reference."""

    rows = compile_pattern(pattern).search_rows(eg)
    assert rows == naive_rows(pattern, eg)
    return list(rows)


class TestParsing:
    def test_parse_variables_and_operators(self):
        pattern = parse_pattern("(+ ?a (* ?b ?c))")
        assert pattern.op == "+"
        assert isinstance(pattern.children[0], PatternVar)
        assert pattern.children[1].op == "*"
        assert pattern.variables() == ["a", "b", "c"]

    def test_parse_numbers_and_symbols(self):
        pattern = parse_pattern("(* x 2)")
        assert pattern.children[0].op == "sym"
        assert pattern.children[1].op == "num"
        assert pattern.children[1].payload == 2

    def test_parse_payload_atom(self):
        pattern = parse_pattern("(call:sqrt ?x)")
        assert pattern.op == "call"
        assert pattern.payload == "sqrt"


class TestMatching:
    def test_simple_match_binds_variables(self):
        eg = EGraph()
        root = eg.add_term(op("+", sym("x"), op("*", sym("y"), sym("z"))))
        rows = search_rows(parse_pattern("(+ ?a (* ?b ?c))"), eg)
        assert any(row[0] == eg.find(root) for row in rows)
        row = [r for r in rows if r[0] == eg.find(root)][0]
        assert row[1] == eg.find(eg.add_term(sym("x")))  # ?a

    def test_repeated_variable_requires_same_class(self):
        eg = EGraph()
        eg.add_term(op("+", sym("x"), sym("x")))
        eg.add_term(op("+", sym("x"), sym("y")))
        assert len(search_rows(parse_pattern("(+ ?a ?a)"), eg)) == 1

    def test_no_match_for_absent_operator(self):
        eg = EGraph()
        eg.add_term(op("+", sym("x"), sym("y")))
        assert search_rows(parse_pattern("(/ ?a ?b)"), eg) == []

    def test_match_within_merged_class(self):
        eg = EGraph()
        a = eg.add_term(op("+", sym("x"), sym("y")))
        b = eg.add_term(op("*", sym("x"), sym("y")))
        eg.merge(a, b)
        eg.rebuild()
        plus = search_rows(parse_pattern("(+ ?a ?b)"), eg)
        times = search_rows(parse_pattern("(* ?a ?b)"), eg)
        assert {m[0] for m in plus} == {m[0] for m in times}

    def test_instantiate_adds_term(self):
        eg = EGraph()
        root = eg.add_term(op("+", sym("x"), op("*", sym("y"), sym("z"))))
        pattern = parse_pattern("(+ ?a (* ?b ?c))")
        _, subst = pattern.search_naive(eg)[0]
        new_class = parse_pattern("(fma ?a ?b ?c)").instantiate(eg, subst)
        assert eg.lookup_term(op("fma", sym("x"), sym("y"), sym("z"))) == eg.find(new_class)

    def test_from_term_matches_only_exact(self):
        eg = EGraph()
        eg.add_term(op("+", sym("x"), num(1)))
        ground = Pattern.from_term(op("+", sym("x"), num(1)))
        assert len(search_rows(ground, eg)) == 1
        other = Pattern.from_term(op("+", sym("x"), num(2)))
        assert search_rows(other, eg) == []
