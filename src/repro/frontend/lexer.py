"""Tokenizer for the C subset + ``#pragma`` lines.

The lexer is line-aware so that preprocessor-style directives (``#pragma``)
can be captured as single tokens including continuation lines ending in a
backslash, which is how OpenACC kernels commonly spell long directives::

    #pragma acc parallel loop gang num_gangs(ksize-1)\\
            num_workers(4) vector_length(32)

Comments (``//`` and ``/* */``) are skipped.  Numeric literals keep their
original spelling so the printer can round-trip suffixes such as ``0.f``.

Scanning is one compiled alternation applied at successive offsets — one
regex match per token, blanks and comments included — and line/column are
computed from offsets, so the cost is linear in the source with no
per-character Python work.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator, List, Tuple

__all__ = ["TokenKind", "Token", "Lexer", "LexerError", "tokenize"]


class LexerError(ValueError):
    """Raised when the input contains a character sequence we cannot lex."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column

    def __reduce__(self):
        # rebuild from the constructor's arguments, so the error keeps its
        # type when a process-service worker ships it back
        return (type(self), (self.message, self.line, self.column))


class TokenKind(enum.Enum):
    """Classification of a lexical token."""

    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    CHAR = "char"
    PUNCT = "punct"
    PRAGMA = "pragma"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position."""

    kind: TokenKind
    text: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.column})"


#: Punctuators, longest first so the alternation below is maximal munch.
_PUNCTUATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "~", "&", "|", "^",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", "?", ".",
]

#: One ``match`` per token: the skipped text (blanks and complete
#: comments), then exactly one alternative.  Every position matches one
#: (``stray`` takes any character, ``\Z`` the end), so the engine never
#: backtracks into the skipped span.  ``open`` is what needs more than a
#: pattern: a directive line, or a literal / block comment left unclosed.
_TOKEN_RE = re.compile(
    r"""
    (?: [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ )*
    (?:
        (?P<number>
            0[xX][0-9a-fA-F]+[uUlL]*            # hexadecimal
          | (?:\d+\.\d*|\.\d+|\d+)              # decimal / float mantissa
            (?:[eE][+-]?\d+)?                   # optional exponent
            [fFlLuU]*                           # optional suffixes
        )
      | (?P<ident>  [A-Za-z_][A-Za-z0-9_]* )
      | (?P<string> "(?:\\.|[^"\\\n])*" )
      | (?P<char>   '(?:\\.|[^'\\\n])*' )
      | (?P<open>   [\#"'] | /\* )
      | (?P<punct>  """ + "|".join(re.escape(p) for p in _PUNCTUATORS) + r""" )
      | (?P<stray>  . )
      | \Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)

#: Groups of :data:`_TOKEN_RE` whose match is the whole token.
_KIND_OF_GROUP = {
    "number": TokenKind.NUMBER,
    "ident": TokenKind.IDENT,
    "punct": TokenKind.PUNCT,
    "string": TokenKind.STRING,
    "char": TokenKind.CHAR,
}

#: How far an unclosed literal reaches: up to a newline, the end of the
#: source, or a final backslash with nothing left to escape.
_UNCLOSED_LITERAL_RE = re.compile(r"""(["'])(?:\\.|(?!\1)[^\\\n])*""", re.DOTALL)


def _error_at(source: str, offset: int, message: str) -> LexerError:
    """A :class:`LexerError` positioned at *offset* of *source*."""

    line_start = source.rfind("\n", 0, offset) + 1
    return LexerError(message, source.count("\n", 0, offset) + 1, offset - line_start + 1)


def _scan_pragma(source: str, start: int) -> Tuple[str, int]:
    """The directive starting at *start*: (text, offset after its last line).

    Lines ending in a backslash continue the directive; the pieces are
    joined with single spaces, backslashes and surrounding blanks dropped.
    """

    pieces: List[str] = []
    pos = start
    while True:
        newline = source.find("\n", pos)
        stop = len(source) if newline < 0 else newline
        segment = source[pos:stop].rstrip()
        pos = stop if newline < 0 else stop + 1
        if not segment.endswith("\\"):
            pieces.append(segment)
            return " ".join(piece.strip() for piece in pieces), pos
        pieces.append(segment[:-1])


class Lexer:
    """Convert C source text into a stream of :class:`Token`."""

    def __init__(self, source: str) -> None:
        self.source = source

    def tokens(self) -> Iterator[Token]:
        """Yield every token in the source, terminated by an EOF token."""

        source = self.source
        match = _TOKEN_RE.match
        kind_of = _KIND_OF_GROUP
        pos = 0  # where the next match starts
        counted = 0  # newlines before this offset are in line / line_start
        line = 1
        line_start = 0

        while True:
            m = match(source, pos)
            group = m.lastgroup
            pos = m.end()
            text = m.group(group) if group is not None else ""
            start = pos - len(text)
            # the span since the previous token's start: that token itself
            # (a continued directive spans lines) and the skipped text
            newlines = source.count("\n", counted, start)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", counted, start) + 1
            counted = start
            column = start - line_start + 1

            kind = kind_of.get(group)
            if kind is None:
                if group is None:
                    yield Token(TokenKind.EOF, "", line, column)
                    return
                if group == "stray":
                    raise LexerError(f"unexpected character {text!r}", line, column)
                if text == "/*":
                    raise _error_at(source, len(source), "unterminated block comment")
                if text != "#":
                    stop = _UNCLOSED_LITERAL_RE.match(source, start).end()
                    if not source.startswith("\n", stop):
                        stop = len(source)
                    raise _error_at(source, stop, "unterminated string literal")
                kind = TokenKind.PRAGMA
                text, pos = _scan_pragma(source, start)
            yield Token(kind, text, line, column)


def tokenize(source: str) -> List[Token]:
    """Tokenize *source* and return the full token list (including EOF)."""

    return list(Lexer(source).tokens())
