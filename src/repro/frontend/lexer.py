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
from typing import List, NamedTuple, Tuple

__all__ = ["TokenKind", "Token", "LexerError", "tokenize"]


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


class Token(NamedTuple):
    """A single lexical token with its source position."""

    kind: TokenKind
    text: str
    line: int
    column: int


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

#: Token kind by ``m.lastindex`` of :data:`_TOKEN_RE` (a group is named
#: after its kind): ``None`` at the end and for ``open`` / ``stray``,
#: whose match is not a whole token.
_KIND_OF_GROUP = {None: None, **{
    index: next((k for k in TokenKind if k.value == name), None)
    for name, index in _TOKEN_RE.groupindex.items()
}}
_STRAY = _TOKEN_RE.groupindex["stray"]

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


def tokenize(source: str) -> List[Token]:
    """Tokenize *source* and return the full token list (including EOF)."""

    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without the generated __new__ frame
    find = source.find
    kind_of = _KIND_OF_GROUP
    # the offset of the first newline not yet counted; ``% none`` maps
    # find's -1 to len(source), where no token starts past it
    none = len(source) + 1
    newline = find("\n") % none
    line = 1
    line_start = 0
    pos = 0
    while True:
        # one scan from *pos*, restarted after each directive
        for m in _TOKEN_RE.finditer(source, pos):
            index = m.lastindex
            text = m[index] if index is not None else ""
            start = m.end() - len(text)
            # count the newlines before this token: in the skipped text or
            # in the previous token (a continued directive spans lines)
            while newline < start:
                line += 1
                line_start = newline + 1
                newline = find("\n", line_start) % none
            kind = kind_of[index]
            if kind is not None:
                append(new(Token, (kind, text, line, start - line_start + 1)))
                continue
            column = start - line_start + 1
            if index is None:
                append(new(Token, (TokenKind.EOF, "", line, column)))
                return tokens
            if index == _STRAY:
                raise LexerError(f"unexpected character {text!r}", line, column)
            if text == "/*":
                raise _error_at(source, len(source), "unterminated block comment")
            if text != "#":
                stop = _UNCLOSED_LITERAL_RE.match(source, start).end()
                if not source.startswith("\n", stop):
                    stop = len(source)
                raise _error_at(source, stop, "unterminated string literal")
            text, pos = _scan_pragma(source, start)
            append(new(Token, (TokenKind.PRAGMA, text, line, column)))
            break
