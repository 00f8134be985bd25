"""Unit tests for the recursive-descent parser."""

import pytest

from repro.frontend import cast as C
from repro.frontend.parser import ParseError, parse, parse_expression, parse_statement


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expression("a + b * c")
        assert isinstance(expr, C.BinOp) and expr.op == "+"
        assert isinstance(expr.rhs, C.BinOp) and expr.rhs.op == "*"

    def test_parentheses_override_precedence(self):
        expr = parse_expression("(a + b) * c")
        assert isinstance(expr, C.BinOp) and expr.op == "*"
        assert isinstance(expr.lhs, C.BinOp) and expr.lhs.op == "+"

    def test_unary_minus_binds_tighter_than_mul(self):
        expr = parse_expression("-a * b")
        assert isinstance(expr, C.BinOp) and expr.op == "*"
        assert isinstance(expr.lhs, C.UnaryOp) and expr.lhs.op == "-"

    def test_multidim_array_subscript(self):
        expr = parse_expression("a[i][j][k]")
        assert isinstance(expr, C.ArraySub)
        assert isinstance(expr.base, C.ArraySub)
        assert isinstance(expr.base.base, C.ArraySub)
        assert isinstance(expr.base.base.base, C.Ident)

    def test_member_access_dot_and_arrow(self):
        dot = parse_expression("s.field")
        arrow = parse_expression("p->field")
        assert isinstance(dot, C.Member) and not dot.arrow
        assert isinstance(arrow, C.Member) and arrow.arrow

    def test_call_with_arguments(self):
        expr = parse_expression("pow(x, 2.0)")
        assert isinstance(expr, C.Call)
        assert isinstance(expr.func, C.Ident) and expr.func.name == "pow"
        assert len(expr.args) == 2

    def test_ternary(self):
        expr = parse_expression("a > 0 ? b : c")
        assert isinstance(expr, C.Ternary)

    def test_cast(self):
        expr = parse_expression("(double)x")
        assert isinstance(expr, C.Cast) and expr.type_name == "double"

    def test_cast_vs_parenthesised_expression(self):
        expr = parse_expression("(x) + 1")
        assert isinstance(expr, C.BinOp) and expr.op == "+"

    def test_assignment_right_associative(self):
        expr = parse_expression("a = b = c")
        assert isinstance(expr, C.Assign)
        assert isinstance(expr.value, C.Assign)

    def test_compound_assignment(self):
        expr = parse_expression("x += y * 2")
        assert isinstance(expr, C.Assign) and expr.op == "+="

    def test_number_values(self):
        assert parse_expression("42").value == 42
        assert parse_expression("3.5").value == 3.5
        assert parse_expression("1e3").value == 1000.0
        assert parse_expression("0.f").is_float

    def test_logical_operators(self):
        expr = parse_expression("a && b || c")
        assert isinstance(expr, C.BinOp) and expr.op == "||"

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("a + b extra")


#: C's binary operators, loosest level first (written out here, not read
#: from the parser, so the table under test cannot vouch for itself).
LEVELS = [
    ["||"], ["&&"], ["|"], ["^"], ["&"], ["==", "!="],
    ["<", ">", "<=", ">="], ["<<", ">>"], ["+", "-"], ["*", "/", "%"],
]


def ident(name, line=1):
    return C.Ident(name, line)


def binop(op, lhs, rhs, line=1):
    return C.BinOp(op, lhs, rhs, line)


A, B, D, E = ident("a"), ident("b"), ident("c"), ident("d")


class TestBinaryPrecedenceTable:
    """Exact ASTs (dataclass equality, ``line`` fields included)."""

    @pytest.mark.parametrize("loose_level", range(len(LEVELS) - 1))
    def test_adjacent_levels_nest_the_tighter_operator(self, loose_level):
        for loose in LEVELS[loose_level]:
            for tight in LEVELS[loose_level + 1]:
                assert parse_expression(f"a {loose} b {tight} c") == binop(
                    loose, A, binop(tight, B, D)
                )
                assert parse_expression(f"a {tight} b {loose} c") == binop(
                    loose, binop(tight, A, B), D
                )

    @pytest.mark.parametrize("level", range(len(LEVELS)))
    def test_every_level_is_left_associative(self, level):
        for first in LEVELS[level]:
            for second in LEVELS[level]:
                assert parse_expression(f"a {first} b {second} c") == binop(
                    second, binop(first, A, B), D
                )

    @pytest.mark.parametrize("source, expected", [
        ("a - b - c", binop("-", binop("-", A, B), D)),
        ("a / b * c", binop("*", binop("/", A, B), D)),
        ("a < b == c", binop("==", binop("<", A, B), D)),
        ("a | b ^ c & d", binop("|", A, binop("^", B, binop("&", D, E)))),
        ("a * b + c * d", binop("+", binop("*", A, B), binop("*", D, E))),
        ("a || b && c | d", binop("||", A, binop("&&", B, binop("|", D, E)))),
        ("a << b + c < d", binop("<", binop("<<", A, binop("+", B, D)), E)),
        # the loosest operator still binds tighter than ``?:``
        ("a || b ? c : d", C.Ternary(binop("||", A, B), D, E, 1)),
        ("a + (b ? c : d) * a", binop(
            "+", A, binop("*", C.Ternary(B, D, E, 1), A))),
        ("a ? b : c ? d : a", C.Ternary(A, B, C.Ternary(D, E, A, 1), 1)),
        ("a = b + c", C.Assign("=", A, binop("+", B, D), 1)),
        ("a + b, c", binop(",", binop("+", A, B), D)),
        # cast vs parenthesised expression
        ("(double)a * b", binop("*", C.Cast("double", A, 1), B)),
        ("(a) * b", binop("*", A, B)),
        ("(a) - b", binop("-", A, B)),
        ("(double)(a + b)", C.Cast("double", binop("+", A, B), 1)),
        ("-(unsigned int)a % b", binop(
            "%", C.UnaryOp("-", C.Cast("unsigned int", A, 1), False, 1), B)),
        # unary and postfix bind tighter than every binary operator
        ("-a * !b", binop(
            "*", C.UnaryOp("-", A, False, 1), C.UnaryOp("!", B, False, 1))),
        ("a++ + ++b", binop(
            "+", C.UnaryOp("++", A, True, 1), C.UnaryOp("++", B, False, 1))),
        ("a[b] * c.d", binop(
            "*", C.ArraySub(A, B, 1), C.Member(D, "d", False, 1))),
        ("a->b(c, d) / a", binop(
            "/", C.Call(C.Member(A, "b", True, 1), [D, E], 1), A)),
    ])
    def test_hand_cases(self, source, expected):
        assert parse_expression(source) == expected

    def test_operator_nodes_carry_the_line_of_their_operator(self):
        expr = parse_expression("a\n  + b\n  * c\n  - d")
        assert expr == binop(
            "-",
            binop("+", ident("a", 1), binop("*", ident("b", 2), ident("c", 3), 3), 2),
            ident("d", 4),
            4,
        )

    def test_look_ahead_past_the_last_token_sees_eof(self):
        # ``(`` is the last token: the cast check peeks one past the end
        with pytest.raises(ParseError, match="expected expression"):
            parse_expression("a + (")


class TestStatements:
    def test_for_loop_with_declaration_init(self):
        stmt = parse_statement("for (int i = 0; i < n; i++) x = i;")
        assert isinstance(stmt, C.For)
        assert isinstance(stmt.init, C.Decl)
        assert stmt.cond is not None and stmt.step is not None

    def test_if_else(self):
        stmt = parse_statement("if (a > b) x = 1; else x = 2;")
        assert isinstance(stmt, C.If)
        assert stmt.otherwise is not None

    def test_while_and_do_while(self):
        assert isinstance(parse_statement("while (x) x = x - 1;"), C.While)
        assert isinstance(parse_statement("do x = x - 1; while (x);"), C.DoWhile)

    def test_block_with_declarations(self):
        stmt = parse_statement("{ double a = 1.0; int i; a = a + i; }")
        assert isinstance(stmt, C.Block)
        assert isinstance(stmt.stmts[0], C.Decl)
        assert stmt.stmts[0].init is not None

    def test_multi_declarator_split(self):
        stmt = parse_statement("{ int i, j, k; }")
        decls = [s for s in stmt.stmts if isinstance(s, C.Decl)]
        assert [d.name for d in decls] == ["i", "j", "k"]

    def test_array_declaration(self):
        stmt = parse_statement("{ double q[5]; }")
        decl = stmt.stmts[0]
        assert isinstance(decl, C.Decl) and len(decl.array_dims) == 1

    def test_break_continue_return(self):
        block = parse_statement("{ break; continue; return x; }")
        assert isinstance(block.stmts[0], C.Break)
        assert isinstance(block.stmts[1], C.Continue)
        assert isinstance(block.stmts[2], C.Return)

    def test_pragma_attaches_to_following_loop(self):
        stmt = parse_statement("#pragma acc loop vector\nfor (i = 0; i < n; i++) x = i;")
        assert isinstance(stmt, C.Pragma)
        assert isinstance(stmt.stmt, C.For)


class TestTranslationUnit:
    def test_function_definition(self):
        unit = parse("void foo(double *a, int n) { a[0] = n; }")
        assert len(unit.decls) == 1
        func = unit.decls[0]
        assert isinstance(func, C.FuncDef)
        assert func.name == "foo"
        assert len(func.params) == 2

    def test_global_declaration(self):
        unit = parse("double alpha = 1.5;")
        assert isinstance(unit.decls[0], C.Decl)

    def test_kernel_with_pragma_at_top_level(self):
        unit = parse(
            "#pragma acc parallel loop\nfor (int i = 0; i < n; i++) a[i] = b[i];"
        )
        assert isinstance(unit.decls[0], C.Pragma)
        assert isinstance(unit.decls[0].stmt, C.For)

    def test_parse_error_reports_location(self):
        with pytest.raises(ParseError):
            parse("void foo( {")
