"""C source regeneration from the AST.

The printer preserves directives verbatim (ACC Saturator never rewrites
``#pragma`` lines) and keeps loop / branch structure identical to the input,
which is the central structural guarantee of the paper: only the sequential
statements inside the innermost parallel loops change.
"""

from __future__ import annotations

from typing import List

from repro.frontend import cast as C

__all__ = ["CPrinter", "print_c", "print_expr"]


#: Operator precedence used for minimal-parenthesis printing.
_PREC = {
    ",": 1,
    "=": 2, "+=": 2, "-=": 2, "*=": 2, "/=": 2, "%=": 2,
    "<<=": 2, ">>=": 2, "&=": 2, "|=": 2, "^=": 2,
    "?:": 3,
    "||": 4,
    "&&": 5,
    "|": 6,
    "^": 7,
    "&": 8,
    "==": 9, "!=": 9,
    "<": 10, ">": 10, "<=": 10, ">=": 10,
    "<<": 11, ">>": 11,
    "+": 12, "-": 12,
    "*": 13, "/": 13, "%": 13,
    "cast": 14,
    "unary": 14,
    "postfix": 15,
    "primary": 16,
}


class CPrinter:
    """Render AST nodes back into C source text."""

    def __init__(self, indent: str = "  ") -> None:
        self.indent_unit = indent

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def expr(self, node: C.Expr, parent_prec: int = 0) -> str:
        """Render an expression, inserting parentheses only when needed."""

        # the common leaves: primaries, never parenthesised
        if type(node) is C.Ident:
            return node.name
        if type(node) is C.Number:
            return node.text
        text, prec = self._expr_prec(node)
        if prec < parent_prec:
            return f"({text})"
        return text

    def _expr_prec(self, node: C.Expr) -> tuple[str, int]:
        if isinstance(node, C.BinOp):
            prec = _PREC.get(node.op, 12)
            lhs = self.expr(node.lhs, prec)
            rhs = self.expr(node.rhs, prec + 1)
            return f"{lhs} {node.op} {rhs}", prec
        if isinstance(node, C.Number):
            return node.text, _PREC["primary"]
        if isinstance(node, C.StringLit):
            return node.value, _PREC["primary"]
        if isinstance(node, C.Ident):
            return node.name, _PREC["primary"]
        if isinstance(node, C.ArraySub):
            base = self.expr(node.base, _PREC["postfix"])
            return f"{base}[{self.expr(node.index)}]", _PREC["postfix"]
        if isinstance(node, C.Member):
            base = self.expr(node.base, _PREC["postfix"])
            sep = "->" if node.arrow else "."
            return f"{base}{sep}{node.field_name}", _PREC["postfix"]
        if isinstance(node, C.Call):
            func = self.expr(node.func, _PREC["postfix"])
            args = ", ".join(self.expr(arg, _PREC[","] + 1) for arg in node.args)
            return f"{func}({args})", _PREC["postfix"]
        if isinstance(node, C.UnaryOp):
            if node.postfix:
                operand = self.expr(node.operand, _PREC["postfix"])
                return f"{operand}{node.op}", _PREC["postfix"]
            operand = self.expr(node.operand, _PREC["unary"])
            space = " " if node.op in ("-", "+") and operand.startswith(node.op) else ""
            return f"{node.op}{space}{operand}", _PREC["unary"]
        if isinstance(node, C.Cast):
            operand = self.expr(node.operand, _PREC["cast"])
            return f"({node.type_name}){operand}", _PREC["cast"]
        if isinstance(node, C.Ternary):
            prec = _PREC["?:"]
            cond = self.expr(node.cond, prec + 1)
            then = self.expr(node.then, prec)
            other = self.expr(node.otherwise, prec)
            return f"{cond} ? {then} : {other}", prec
        if isinstance(node, C.Assign):
            prec = _PREC["="]
            target = self.expr(node.target, prec + 1)
            value = self.expr(node.value, prec)
            return f"{target} {node.op} {value}", prec
        raise TypeError(f"cannot print expression node {type(node).__name__}")

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def stmt(self, node: C.Stmt, depth: int = 0) -> str:
        """Render a statement (with trailing newline)."""

        pad = self.indent_unit * depth

        if isinstance(node, C.Block):
            lines = [f"{pad}{{\n"]
            for inner in node.stmts:
                lines.append(self.stmt(inner, depth + 1))
            lines.append(f"{pad}}}\n")
            return "".join(lines)
        if isinstance(node, C.Decl):
            return f"{pad}{self._decl_text(node)}\n"
        if isinstance(node, C.ExprStmt):
            return f"{pad}{self.expr(node.expr)};\n"
        if isinstance(node, C.If):
            text = f"{pad}if ({self.expr(node.cond)})\n"
            text += self._nested(node.then, depth)
            if node.otherwise is not None:
                text += f"{pad}else\n"
                text += self._nested(node.otherwise, depth)
            return text
        if isinstance(node, C.For):
            init = ""
            if isinstance(node.init, C.Decl):
                init = self._decl_text(node.init).rstrip(";") + ";"
            elif isinstance(node.init, C.ExprStmt):
                init = self.expr(node.init.expr) + ";"
            elif node.init is None:
                init = ";"
            else:
                init = ";"
            cond = f" {self.expr(node.cond)}" if node.cond is not None else ""
            step = f" {self.expr(node.step)}" if node.step is not None else ""
            text = f"{pad}for ({init}{cond};{step})\n"
            text += self._nested(node.body, depth)
            return text
        if isinstance(node, C.While):
            text = f"{pad}while ({self.expr(node.cond)})\n"
            text += self._nested(node.body, depth)
            return text
        if isinstance(node, C.DoWhile):
            text = f"{pad}do\n"
            text += self._nested(node.body, depth)
            text += f"{pad}while ({self.expr(node.cond)});\n"
            return text
        if isinstance(node, C.Return):
            if node.value is None:
                return f"{pad}return;\n"
            return f"{pad}return {self.expr(node.value)};\n"
        if isinstance(node, C.Break):
            return f"{pad}break;\n"
        if isinstance(node, C.Continue):
            return f"{pad}continue;\n"
        if isinstance(node, C.Pragma):
            text = f"{pad}{node.text}\n" if node.text.startswith("#") else f"{pad}#pragma {node.text}\n"
            if node.stmt is not None:
                text += self.stmt(node.stmt, depth)
            return text
        raise TypeError(f"cannot print statement node {type(node).__name__}")

    def _nested(self, node: C.Stmt, depth: int) -> str:
        """Render a nested statement; blocks keep the parent indent."""

        if isinstance(node, C.Block):
            return self.stmt(node, depth)
        return self.stmt(node, depth + 1)

    def _decl_text(self, node: C.Decl) -> str:
        quals = " ".join(node.qualifiers)
        prefix = f"{quals} " if quals else ""
        dims = "".join(f"[{self.expr(dim)}]" for dim in node.array_dims)
        text = f"{prefix}{node.type_name} {node.name}{dims}"
        if node.init is not None:
            text += f" = {self.expr(node.init)}"
        return text + ";"

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def translation_unit(self, unit: C.TranslationUnit) -> str:
        parts: List[str] = []
        for decl in unit.decls:
            if isinstance(decl, C.FuncDef):
                parts.append(self.func_def(decl))
            elif isinstance(decl, C.Stmt):
                parts.append(self.stmt(decl, 0))
            else:
                raise TypeError(f"cannot print top-level node {type(decl).__name__}")
        return "\n".join(parts)

    def func_def(self, func: C.FuncDef) -> str:
        params = ", ".join(
            f"{ptype} {pname}".strip() for ptype, pname in func.params
        ) or "void"
        header = f"{func.return_type} {func.name}({params})\n"
        if not func.body.stmts:
            return header.rstrip("\n") + ";\n"
        return header + self.stmt(func.body, 0)


def print_c(node: C.Node, indent: str = "  ") -> str:
    """Render any AST node (translation unit, statement or expression)."""

    printer = CPrinter(indent)
    if isinstance(node, C.TranslationUnit):
        return printer.translation_unit(node)
    if isinstance(node, C.FuncDef):
        return printer.func_def(node)
    if isinstance(node, C.Stmt):
        return printer.stmt(node)
    if isinstance(node, C.Expr):
        return printer.expr(node)
    raise TypeError(f"cannot print node {type(node).__name__}")


def print_expr(node: C.Expr) -> str:
    """Render an expression node to C text."""

    return CPrinter().expr(node)
