"""C + OpenACC/OpenMP frontend.

This subpackage provides the source-language substrate of the reproduction:
a lexer, a recursive-descent parser, an abstract syntax tree (AST) for the C
subset exercised by the NPB / SPEC ACCEL kernels, a directive (``#pragma``)
parser for OpenACC and OpenMP, and a C printer able to regenerate compilable
source from (possibly optimized) ASTs.

The public entry points are :func:`parse` / :func:`parse_expression` and
:func:`print_c`.
"""

from repro.frontend.cast import (
    ArraySub,
    Assign,
    BinOp,
    Block,
    Break,
    Call,
    Cast,
    Continue,
    Decl,
    DoWhile,
    ExprStmt,
    For,
    FuncDef,
    Ident,
    If,
    Member,
    Node,
    Number,
    Pragma,
    Return,
    StringLit,
    Ternary,
    TranslationUnit,
    UnaryOp,
    While,
    clone,
    walk,
)
from repro.frontend.lexer import LexerError, Token, TokenKind, tokenize
from repro.frontend.parser import ParseError, Parser, parse, parse_expression, parse_statement
from repro.frontend.pragma import (
    Directive,
    DirectiveClause,
    DirectiveKind,
    parse_pragma,
)
from repro.frontend.printer import CPrinter, print_c, print_expr

__all__ = [
    "ArraySub",
    "Assign",
    "BinOp",
    "Block",
    "Break",
    "Call",
    "Cast",
    "Continue",
    "CPrinter",
    "Decl",
    "Directive",
    "DirectiveClause",
    "DirectiveKind",
    "DoWhile",
    "ExprStmt",
    "For",
    "FuncDef",
    "Ident",
    "If",
    "LexerError",
    "Member",
    "Node",
    "Number",
    "ParseError",
    "Parser",
    "Pragma",
    "Return",
    "StringLit",
    "Ternary",
    "Token",
    "TokenKind",
    "TranslationUnit",
    "UnaryOp",
    "While",
    "clone",
    "parse",
    "parse_expression",
    "parse_pragma",
    "parse_statement",
    "print_c",
    "print_expr",
    "tokenize",
    "walk",
]
