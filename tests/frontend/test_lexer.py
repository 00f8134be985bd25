"""Unit tests for the lexer."""

import hashlib

import pytest

from repro.benchsuite.registry import NPB_BENCHMARKS, SPEC_ACC_BENCHMARKS
from repro.frontend.lexer import LexerError, Token, TokenKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source) if t.kind is not TokenKind.EOF]


def texts(source):
    return [t.text for t in tokenize(source) if t.kind is not TokenKind.EOF]


class TestBasicTokens:
    def test_identifiers_and_numbers(self):
        assert texts("foo bar42 _x") == ["foo", "bar42", "_x"]
        assert kinds("foo 42") == [TokenKind.IDENT, TokenKind.NUMBER]

    def test_float_literals_keep_spelling(self):
        assert texts("0.f 1.0e-3 3.14 1e10") == ["0.f", "1.0e-3", "3.14", "1e10"]

    def test_hex_literal(self):
        assert texts("0xFF") == ["0xFF"]

    def test_integer_suffixes(self):
        assert texts("42u 42UL 7L") == ["42u", "42UL", "7L"]

    def test_multichar_punctuators_are_maximal_munch(self):
        assert texts("a<<=b") == ["a", "<<=", "b"]
        assert texts("a->b") == ["a", "->", "b"]
        assert texts("i++ + ++j") == ["i", "++", "+", "++", "j"]

    def test_all_punctuators_tokenize(self):
        source = "+ - * / % << >> < > <= >= == != & | ^ && || = += -= *= /= ( ) [ ] { } , ; : ? ."
        assert all(k is TokenKind.PUNCT for k in kinds(source))

    def test_string_and_char_literals(self):
        tokens = tokenize('"hello" \'c\'')
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[1].kind is TokenKind.CHAR

    def test_eof_always_last(self):
        assert tokenize("")[-1].kind is TokenKind.EOF
        assert tokenize("x")[-1].kind is TokenKind.EOF


class TestComments:
    def test_line_comment_skipped(self):
        assert texts("a // comment\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* multi\nline */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexerError):
            tokenize("a /* oops")


class TestPragmas:
    def test_pragma_is_single_token(self):
        tokens = tokenize("#pragma acc parallel loop gang\nfor (;;) x;")
        assert tokens[0].kind is TokenKind.PRAGMA
        assert tokens[0].text == "#pragma acc parallel loop gang"

    def test_pragma_backslash_continuation(self):
        source = "#pragma acc parallel loop gang num_gangs(4)\\\n  vector_length(32)\nx;"
        tokens = tokenize(source)
        assert tokens[0].kind is TokenKind.PRAGMA
        assert "vector_length(32)" in tokens[0].text
        assert "\\" not in tokens[0].text

    def test_line_numbers_tracked(self):
        tokens = tokenize("a\nb\n  c")
        a, b, c = tokens[0], tokens[1], tokens[2]
        assert (a.line, b.line, c.line) == (1, 2, 3)
        assert c.column == 3


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexerError):
            tokenize("a @ b")

    def test_unterminated_string(self):
        with pytest.raises(LexerError):
            tokenize('"never closed')


def stream(source):
    return [(t.kind.name, t.text, t.line, t.column) for t in tokenize(source)]


class TestExactStreams:
    """``(kind, text, line, column)`` pinned against the character-loop
    lexer this scanner replaced (the corpus-wide golden is in
    ``tests/integration/test_golden_corpus.py``)."""

    def test_maximal_munch(self):
        assert stream("a<<=b") == [
            ("IDENT", "a", 1, 1), ("PUNCT", "<<=", 1, 2), ("IDENT", "b", 1, 5),
            ("EOF", "", 1, 6),
        ]
        assert stream("i++ + ++j") == [
            ("IDENT", "i", 1, 1), ("PUNCT", "++", 1, 2), ("PUNCT", "+", 1, 5),
            ("PUNCT", "++", 1, 7), ("IDENT", "j", 1, 9), ("EOF", "", 1, 10),
        ]
        assert stream("a.b...c->d x>>=1>>2")[:-1] == [
            ("IDENT", "a", 1, 1), ("PUNCT", ".", 1, 2), ("IDENT", "b", 1, 3),
            ("PUNCT", "...", 1, 4), ("IDENT", "c", 1, 7), ("PUNCT", "->", 1, 8),
            ("IDENT", "d", 1, 10), ("IDENT", "x", 1, 12), ("PUNCT", ">>=", 1, 13),
            ("NUMBER", "1", 1, 16), ("PUNCT", ">>", 1, 17), ("NUMBER", "2", 1, 19),
        ]

    def test_number_spellings(self):
        assert stream(".5 1. 0.f 1e10 0xFFul") == [
            ("NUMBER", ".5", 1, 1), ("NUMBER", "1.", 1, 4), ("NUMBER", "0.f", 1, 7),
            ("NUMBER", "1e10", 1, 11), ("NUMBER", "0xFFul", 1, 16), ("EOF", "", 1, 22),
        ]
        # an exponent needs digits: ``1e+`` is the number 1, then ``e``, ``+``
        assert stream("1.e3f .5e-2L 1e+ 08") == [
            ("NUMBER", "1.e3f", 1, 1), ("NUMBER", ".5e-2L", 1, 7),
            ("NUMBER", "1", 1, 14), ("IDENT", "e", 1, 15), ("PUNCT", "+", 1, 16),
            ("NUMBER", "08", 1, 18), ("EOF", "", 1, 20),
        ]

    def test_carriage_returns_are_blanks_that_take_a_column(self):
        assert stream("a\r\nb\r\n  c") == [
            ("IDENT", "a", 1, 1), ("IDENT", "b", 2, 1), ("IDENT", "c", 3, 3),
            ("EOF", "", 3, 4),
        ]

    def test_comment_containing_stars(self):
        assert stream("x /* a * b ** / c */ y /**/ z") == [
            ("IDENT", "x", 1, 1), ("IDENT", "y", 1, 22), ("IDENT", "z", 1, 29),
            ("EOF", "", 1, 30),
        ]
        # ``/*/`` does not close itself
        with pytest.raises(LexerError):
            tokenize("/*/ x")

    def test_pragma_continuations_keep_the_line_count(self):
        source = (
            "#pragma acc parallel loop gang \\\n"
            "    num_gangs(4) \\\n"
            "  vector_length(32)\n"
            "for (;;) x;"
        )
        assert stream(source) == [
            ("PRAGMA", "#pragma acc parallel loop gang num_gangs(4) vector_length(32)", 1, 1),
            ("IDENT", "for", 4, 1), ("PUNCT", "(", 4, 5), ("PUNCT", ";", 4, 6),
            ("PUNCT", ";", 4, 7), ("PUNCT", ")", 4, 8), ("IDENT", "x", 4, 10),
            ("PUNCT", ";", 4, 11), ("EOF", "", 4, 12),
        ]

    def test_pragma_edges(self):
        assert stream("  #pragma omp simd\n") == [
            ("PRAGMA", "#pragma omp simd", 1, 3), ("EOF", "", 2, 1),
        ]
        # a continuation with nothing after it joins an empty piece
        assert stream("#pragma acc loop \\") == [
            ("PRAGMA", "#pragma acc loop ", 1, 1), ("EOF", "", 1, 19),
        ]

    def test_escaped_quotes_and_escaped_newline(self):
        assert stream('f("a\\"b", \'\\\'\', "")  g') == [
            ("IDENT", "f", 1, 1), ("PUNCT", "(", 1, 2), ("STRING", '"a\\"b"', 1, 3),
            ("PUNCT", ",", 1, 9), ("CHAR", "'\\''", 1, 11), ("PUNCT", ",", 1, 15),
            ("STRING", '""', 1, 17), ("PUNCT", ")", 1, 19), ("IDENT", "g", 1, 22),
            ("EOF", "", 1, 23),
        ]
        assert stream('"two\\\nlines" x') == [
            ("STRING", '"two\\\nlines"', 1, 1), ("IDENT", "x", 2, 8), ("EOF", "", 2, 9),
        ]


class TestErrorPositions:
    @pytest.mark.parametrize("source, message, line, column", [
        ("a @ b", "unexpected character '@'", 1, 3),
        ("x\n  $", "unexpected character '$'", 2, 3),
        ("\f", "unexpected character '\\x0c'", 1, 1),
        # an unclosed literal is reported where the scan gave up: at the
        # newline, at the end, or past a final backslash
        ('"never closed', "unterminated string literal", 1, 14),
        ('a\n "abc\nd"', "unterminated string literal", 2, 6),
        ("'x", "unterminated string literal", 1, 3),
        ('"abc\\', "unterminated string literal", 1, 6),
        ('"a\\\nb', "unterminated string literal", 2, 2),
        # an unclosed comment is reported at the end of the source
        ("a /* oops", "unterminated block comment", 1, 10),
        ("a\n/* x\n y", "unterminated block comment", 3, 3),
    ])
    def test_message_line_and_column(self, source, message, line, column):
        with pytest.raises(LexerError) as caught:
            tokenize(source)
        assert str(caught.value) == f"line {line}:{column}: {message}"
        assert (caught.value.line, caught.value.column) == (line, column)


#: Sources the lexer refuses: every error input of the tests above.
ERROR_INPUTS = (
    "a @ b", "x\n  $", "\f", '"never closed', 'a\n "abc\nd"', "'x", '"abc\\',
    '"a\\\nb', "a /* oops", "a\n/* x\n y", "/*/ x",
)

#: SHA-256 of every corpus token ``(kind, text, line, column)`` and every
#: :data:`ERROR_INPUTS` error ``(message, line, column)``, one per line.
TOKEN_GOLDEN = "396f87a22e7f3fba9574fa5a44507aa4bb7d8e203c938e97bb070c5a9123bcfa"


def token_digest():
    sources = dict.fromkeys(
        spec.source for bench in NPB_BENCHMARKS + SPEC_ACC_BENCHMARKS for spec in bench.kernels
    )
    assert len(sources) == 34
    lines = [repr(row) for source in sources for row in stream(source)]
    for source in ERROR_INPUTS:
        with pytest.raises(LexerError) as caught:
            tokenize(source)
        lines.append(repr((caught.value.message, caught.value.line, caught.value.column)))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_corpus_tokens_and_errors_match_golden():
    assert token_digest() == TOKEN_GOLDEN
