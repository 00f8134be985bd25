"""Recursive-descent parser for the C subset + OpenACC/OpenMP pragmas.

The grammar intentionally covers what directive-based HPC kernels need:

* global and local declarations (scalars, arrays, pointers),
* function definitions,
* ``for`` / ``while`` / ``do-while`` / ``if`` / ``break`` / ``continue`` /
  ``return`` statements,
* the full C expression grammar (assignment, ternary, logical, bitwise,
  relational, shift, additive, multiplicative, casts, unary, postfix),
* ``#pragma acc`` / ``#pragma omp`` directives attached to the following
  statement.

The parser produces the AST defined in :mod:`repro.frontend.cast`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.frontend import cast as C
from repro.frontend.lexer import Token, TokenKind, tokenize
from repro.frontend.pragma import parse_pragma

__all__ = [
    "ParseError", "Parser", "make_number", "parse", "parse_expression", "parse_statement",
]


class ParseError(ValueError):
    """Raised when the token stream does not match the grammar."""

    def __init__(self, message: str, token: Token) -> None:
        super().__init__(f"line {token.line}:{token.column}: {message} (got {token.text!r})")
        self.token = token


#: Keywords that may begin a type specifier.
TYPE_KEYWORDS = {
    "void", "char", "short", "int", "long", "float", "double",
    "signed", "unsigned", "size_t", "ssize_t", "int32_t", "int64_t",
    "uint32_t", "uint64_t", "bool", "_Bool",
}

#: Qualifiers that may precede or follow a type specifier.
TYPE_QUALIFIERS = {"const", "static", "restrict", "__restrict", "__restrict__",
                   "volatile", "register", "inline", "extern"}

#: Statement keywords (so declaration detection does not misfire).
STATEMENT_KEYWORDS = {"if", "else", "for", "while", "do", "return", "break",
                      "continue", "switch", "case", "default", "goto", "struct"}


class Parser:
    """Parse a token stream into the AST of :mod:`repro.frontend.cast`."""

    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.index = 0
        #: Names introduced by struct declarations; treated as type names.
        self.struct_types: set[str] = set()

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        # ``_advance`` never steps past EOF, so only a look-ahead can
        # overshoot; it then sees the EOF token
        try:
            return self.tokens[self.index + offset]
        except IndexError:
            return self.tokens[-1]

    def _at_end(self) -> bool:
        return self.tokens[self.index].kind is TokenKind.EOF

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind is not TokenKind.EOF:
            self.index += 1
        return token

    def _check(self, text: str) -> bool:
        token = self.tokens[self.index]
        return token.text == text and (
            token.kind is TokenKind.PUNCT or token.kind is TokenKind.IDENT
        )

    def _match(self, text: str) -> bool:
        if self._check(text):
            self._advance()
            return True
        return False

    def _expect(self, text: str) -> Token:
        if not self._check(text):
            raise ParseError(f"expected {text!r}", self._peek())
        return self._advance()

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self._peek())

    # ------------------------------------------------------------------
    # Type detection
    # ------------------------------------------------------------------

    def _is_type_start(self, offset: int = 0) -> bool:
        token = self._peek(offset)
        if token.kind is not TokenKind.IDENT:
            return False
        if token.text in STATEMENT_KEYWORDS:
            return token.text == "struct"
        return (
            token.text in TYPE_KEYWORDS
            or token.text in TYPE_QUALIFIERS
            or token.text in self.struct_types
        )

    def _parse_type_name(self) -> tuple[str, tuple[str, ...]]:
        """Parse a type specifier; returns (type text, qualifiers)."""

        qualifiers: List[str] = []
        words: List[str] = []
        while True:
            token = self._peek()
            if token.kind is TokenKind.IDENT and token.text in TYPE_QUALIFIERS:
                qualifiers.append(self._advance().text)
                continue
            if token.kind is TokenKind.IDENT and token.text == "struct":
                self._advance()
                tag = self._expect_ident()
                words.append(f"struct {tag}")
                self.struct_types.add(tag)
                continue
            if token.kind is TokenKind.IDENT and (
                token.text in TYPE_KEYWORDS or token.text in self.struct_types
            ):
                words.append(self._advance().text)
                continue
            break
        while self._check("*"):
            self._advance()
            words.append("*")
        if not words:
            raise self._error("expected type name")
        return " ".join(words), tuple(qualifiers)

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise self._error("expected identifier")
        return self._advance().text

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def parse_translation_unit(self) -> C.TranslationUnit:
        """Parse an entire source file."""

        unit = C.TranslationUnit()
        while not self._at_end():
            token = self._peek()
            if token.kind is TokenKind.PRAGMA:
                unit.decls.append(self._parse_pragma_stmt(top_level=True))
                continue
            if self._is_type_start():
                node = self._parse_function_or_declaration()
                if isinstance(node, list):
                    unit.decls.extend(node)
                else:
                    unit.decls.append(node)
                continue
            raise self._error("expected declaration or function definition")
        return unit

    def _parse_function_or_declaration(self):
        start = self.index
        type_name, qualifiers = self._parse_type_name()
        name = self._expect_ident()
        if self._check("("):
            return self._parse_function_rest(type_name, name)
        # plain declaration(s); rewind is unnecessary because declarators
        # continue from the current position.
        return self._parse_declaration_rest(type_name, qualifiers, name)

    def _parse_function_rest(self, return_type: str, name: str) -> C.FuncDef:
        line = self._peek().line
        self._expect("(")
        params: List[tuple[str, str]] = []
        if not self._check(")"):
            while True:
                if self._check("void") and self._peek(1).text == ")":
                    self._advance()
                    break
                ptype, _ = self._parse_type_name()
                pname = ""
                if self._peek().kind is TokenKind.IDENT:
                    pname = self._advance().text
                # array parameter suffixes: double a[][N]
                while self._check("["):
                    depth_text = ["["]
                    self._advance()
                    while not self._check("]"):
                        depth_text.append(self._advance().text)
                    self._advance()
                    depth_text.append("]")
                    ptype += "".join(depth_text)
                params.append((ptype, pname))
                if not self._match(","):
                    break
        self._expect(")")
        if self._match(";"):
            # forward declaration: model as a FuncDef with empty body
            return C.FuncDef(return_type, name, params, C.Block(), line)
        body = self._parse_block()
        return C.FuncDef(return_type, name, params, body, line)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def parse_statement(self) -> C.Stmt:
        """Parse one statement (including any attached pragma)."""

        token = self._peek()

        if token.kind is TokenKind.PRAGMA:
            return self._parse_pragma_stmt()

        if self._check("{"):
            return self._parse_block()
        if self._check("if"):
            return self._parse_if()
        if self._check("for"):
            return self._parse_for()
        if self._check("while"):
            return self._parse_while()
        if self._check("do"):
            return self._parse_do_while()
        if self._check("return"):
            line = self._advance().line
            value = None
            if not self._check(";"):
                value = self.parse_expression()
            self._expect(";")
            return C.Return(value, line)
        if self._check("break"):
            line = self._advance().line
            self._expect(";")
            return C.Break(line)
        if self._check("continue"):
            line = self._advance().line
            self._expect(";")
            return C.Continue(line)
        if self._check(";"):
            line = self._advance().line
            return C.Block([], line)
        if self._is_type_start() and self._peek(1).kind is TokenKind.IDENT:
            decls = self._parse_declaration()
            if len(decls) == 1:
                return decls[0]
            return C.Block(list(decls), decls[0].line)

        expr = self.parse_expression()
        self._expect(";")
        return C.ExprStmt(expr, getattr(expr, "line", token.line))

    def _parse_pragma_stmt(self, top_level: bool = False) -> C.Pragma:
        token = self._advance()
        directive = parse_pragma(token.text)
        pragma = C.Pragma(token.text, directive, None, token.line)
        nxt = self._peek()
        needs_stmt = not top_level or nxt.kind is TokenKind.PRAGMA or self._check("{") \
            or self._check("for") or self._check("while") or self._check("if")
        if needs_stmt and not self._at_end():
            pragma.stmt = self.parse_statement()
        return pragma

    def _parse_block(self) -> C.Block:
        line = self._expect("{").line
        stmts: List[C.Stmt] = []
        while not self._check("}"):
            if self._at_end():
                raise self._error("unterminated block")
            stmt = self.parse_statement()
            # flatten multi-declarator splits that came back as a bare Block
            if isinstance(stmt, C.Block) and stmt.stmts and all(
                isinstance(s, C.Decl) for s in stmt.stmts
            ):
                stmts.extend(stmt.stmts)
            else:
                stmts.append(stmt)
        self._expect("}")
        return C.Block(stmts, line)

    def _parse_if(self) -> C.If:
        line = self._expect("if").line
        self._expect("(")
        cond = self.parse_expression()
        self._expect(")")
        then = self.parse_statement()
        otherwise = None
        if self._check("else"):
            self._advance()
            otherwise = self.parse_statement()
        return C.If(cond, then, otherwise, line)

    def _parse_for(self) -> C.For:
        line = self._expect("for").line
        self._expect("(")
        init: Optional[C.Stmt] = None
        if not self._check(";"):
            if self._is_type_start():
                decls = self._parse_declaration()
                init = decls[0] if len(decls) == 1 else C.Block(list(decls), line)
            else:
                expr = self.parse_expression()
                self._expect(";")
                init = C.ExprStmt(expr, line)
        else:
            self._advance()
        cond = None
        if not self._check(";"):
            cond = self.parse_expression()
        self._expect(";")
        step = None
        if not self._check(")"):
            step = self.parse_expression()
        self._expect(")")
        body = self.parse_statement()
        return C.For(init, cond, step, body, line)

    def _parse_while(self) -> C.While:
        line = self._expect("while").line
        self._expect("(")
        cond = self.parse_expression()
        self._expect(")")
        body = self.parse_statement()
        return C.While(cond, body, line)

    def _parse_do_while(self) -> C.DoWhile:
        line = self._expect("do").line
        body = self.parse_statement()
        self._expect("while")
        self._expect("(")
        cond = self.parse_expression()
        self._expect(")")
        self._expect(";")
        return C.DoWhile(body, cond, line)

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def _parse_declaration(self) -> List[C.Decl]:
        type_name, qualifiers = self._parse_type_name()
        name = self._expect_ident()
        return self._parse_declaration_rest(type_name, qualifiers, name)

    def _parse_declaration_rest(
        self, type_name: str, qualifiers: tuple[str, ...], first_name: str
    ) -> List[C.Decl]:
        decls: List[C.Decl] = []
        name = first_name
        while True:
            line = self._peek().line
            dims: List[C.Expr] = []
            while self._check("["):
                self._advance()
                if self._check("]"):
                    dims.append(C.Number("0", 0, False, line))
                else:
                    dims.append(self.parse_expression())
                self._expect("]")
            init = None
            if self._match("="):
                init = self.parse_assignment()
            decls.append(C.Decl(type_name, name, init, dims, qualifiers, line))
            if self._match(","):
                # subsequent declarators may add their own pointer stars
                extra_ptr = ""
                while self._check("*"):
                    self._advance()
                    extra_ptr += "*"
                name = self._expect_ident()
                if extra_ptr:
                    decls[-1] = decls[-1]  # keep prior; stars apply to the next decl
                    type_name_next = type_name + " " + extra_ptr
                else:
                    type_name_next = type_name
                type_name = type_name_next if extra_ptr else type_name
                continue
            break
        self._expect(";")
        return decls

    # ------------------------------------------------------------------
    # Expressions (recursive descent; precedence climbing for binary operators)
    # ------------------------------------------------------------------

    def parse_expression(self) -> C.Expr:
        """Parse a full expression including the comma operator."""

        expr = self.parse_assignment()
        while self._check(","):
            # comma operator: keep the right-most value, but preserve both
            # sides in evaluation order by nesting BinOp(",", lhs, rhs).
            line = self._advance().line
            rhs = self.parse_assignment()
            expr = C.BinOp(",", expr, rhs, line)
        return expr

    def parse_assignment(self) -> C.Expr:
        expr = self._parse_ternary()
        token = self._peek()
        if token.kind is TokenKind.PUNCT and token.text in C.ASSIGN_OPS:
            op = self._advance().text
            value = self.parse_assignment()
            return C.Assign(op, expr, value, token.line)
        return expr

    def _parse_ternary(self) -> C.Expr:
        cond = self._parse_binary(0)
        if self._check("?"):
            line = self._advance().line
            then = self.parse_assignment()
            self._expect(":")
            otherwise = self.parse_assignment()
            return C.Ternary(cond, then, otherwise, line)
        return cond

    #: Binary operator precedence levels, loosest first.
    _PRECEDENCE: List[List[str]] = [
        ["||"],
        ["&&"],
        ["|"],
        ["^"],
        ["&"],
        ["==", "!="],
        ["<", ">", "<=", ">="],
        ["<<", ">>"],
        ["+", "-"],
        ["*", "/", "%"],
    ]
    #: Operator spelling -> its level in :attr:`_PRECEDENCE`.
    _LEVEL_OF: Dict[str, int] = {
        op: level for level, ops in enumerate(_PRECEDENCE) for op in ops
    }

    def _parse_binary(self, min_level: int) -> C.Expr:
        """Precedence climbing: one operand, then every operator at
        *min_level* or tighter.  The right operand of an operator takes
        only strictly tighter ones, which makes every level
        left-associative."""

        expr = self._parse_cast()
        level_of = self._LEVEL_OF
        while True:
            token = self.tokens[self.index]
            if token.kind is not TokenKind.PUNCT:
                return expr
            level = level_of.get(token.text)
            if level is None or level < min_level:
                return expr
            self.index += 1
            rhs = self._parse_binary(level + 1)
            expr = C.BinOp(token.text, expr, rhs, token.line)

    def _parse_cast(self) -> C.Expr:
        if self._check("(") and self._is_type_start(1):
            # lookahead to confirm the closing paren follows a type
            save = self.index
            line = self._advance().line  # "("
            try:
                type_name, _ = self._parse_type_name()
                self._expect(")")
                operand = self._parse_cast()
                return C.Cast(type_name, operand, line)
            except ParseError:
                self.index = save
        return self._parse_unary()

    def _parse_unary(self) -> C.Expr:
        token = self._peek()
        if token.kind is TokenKind.PUNCT and token.text in ("-", "+", "!", "~", "*", "&"):
            self._advance()
            operand = self._parse_cast()
            return C.UnaryOp(token.text, operand, False, token.line)
        if token.kind is TokenKind.PUNCT and token.text in ("++", "--"):
            self._advance()
            operand = self._parse_unary()
            return C.UnaryOp(token.text, operand, False, token.line)
        return self._parse_postfix()

    def _parse_postfix(self) -> C.Expr:
        expr = self._parse_primary()
        while True:
            token = self.tokens[self.index]
            if token.kind is not TokenKind.PUNCT:
                return expr
            text = token.text
            if text == "[":
                self.index += 1
                index = self.parse_expression()
                self._expect("]")
                expr = C.ArraySub(expr, index, token.line)
            elif text == "(":
                self.index += 1
                args: List[C.Expr] = []
                if not self._check(")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self._match(","):
                            break
                self._expect(")")
                expr = C.Call(expr, args, token.line)
            elif text == "." or text == "->":
                self.index += 1
                name = self._expect_ident()
                expr = C.Member(expr, name, text == "->", token.line)
            elif text == "++" or text == "--":
                self.index += 1
                expr = C.UnaryOp(text, expr, True, token.line)
            else:
                return expr

    def _parse_primary(self) -> C.Expr:
        token = self._peek()
        if token.kind is TokenKind.NUMBER:
            self._advance()
            return make_number(token.text, token.line)
        if token.kind is TokenKind.STRING or token.kind is TokenKind.CHAR:
            self._advance()
            return C.StringLit(token.text, token.line)
        if token.kind is TokenKind.IDENT:
            self._advance()
            return C.Ident(token.text, token.line)
        if self._check("("):
            self._advance()
            expr = self.parse_expression()
            self._expect(")")
            return expr
        raise self._error("expected expression")


def make_number(text: str, line: int = 0) -> C.Number:
    """Build a Number node from a numeric literal, preserving its spelling."""

    stripped = text.rstrip("fFlLuU")
    is_float = (
        "." in stripped
        or (("e" in stripped or "E" in stripped) and not stripped.lower().startswith("0x"))
        or text.rstrip("lLuU").endswith(("f", "F"))
    )
    if stripped.lower().startswith("0x"):
        value: int | float = int(stripped, 16)
        is_float = False
    elif is_float:
        value = float(stripped)
    else:
        value = int(stripped)
    return C.Number(text, value, is_float, line)


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def parse(source: str) -> C.TranslationUnit:
    """Parse a whole source file into a :class:`TranslationUnit`."""

    return Parser(tokenize(source)).parse_translation_unit()


def parse_statement(source: str) -> C.Stmt:
    """Parse a single statement (useful for kernels given as loop nests)."""

    parser = Parser(tokenize(source))
    stmt = parser.parse_statement()
    if not parser._at_end():
        # Allow trailing statements by wrapping them into a block.
        stmts = [stmt]
        while not parser._at_end():
            stmts.append(parser.parse_statement())
        return C.Block(stmts, stmts[0].line)
    return stmt


def parse_expression(source: str) -> C.Expr:
    """Parse a single expression."""

    parser = Parser(tokenize(source))
    expr = parser.parse_expression()
    if not parser._at_end():
        raise parser._error("trailing tokens after expression")
    return expr
