"""The shared tokenizer: token kinds, source positions and fixture counts."""

import pytest

from tagmap import SpecSyntaxError
from tagmap.lexer import tokenize

from oracles import FIXTURES
from support import doubling_ratios


def _scan(source):
    return [(t.type, t.text, t.span.line, t.span.column) for t in tokenize(source)]


def test_positions_across_comments_tabs_and_crlf():
    source = "# header\r\nfeature case\r\n\tvalues nom, gen.\r\n"
    assert _scan(source) == [
        ("NAME", "feature", 2, 1),
        ("NAME", "case", 2, 9),
        # a tab counts as one column
        ("NAME", "values", 3, 2),
        ("NAME", "nom", 3, 9),
        ("COMMA", ",", 3, 12),
        ("NAME", "gen", 3, 14),
        ("DOT", ".", 3, 17),
        ("EOF", "", 4, 1),
    ]


@pytest.mark.parametrize("text, kind", [
    ("<<", "OUTOF"), (">>", "INTO"), ("=>", "ARROW"), ("!=", "NEQ"),
    ("=", "EQ"), ("!", "BANG"), ("&", "AMP"), ("|", "PIPE"),
    ("(", "LPAREN"), (")", "RPAREN"), ("[", "LBRACKET"), ("]", "RBRACKET"),
    ("{", "LBRACE"), ("}", "RBRACE"), (",", "COMMA"), (".", "DOT"),
    ("42", "NUMBER"), ("_a-b$1", "NAME"),
])
def test_every_token_kind(text, kind):
    assert _scan(f" {text} ") == [(kind, text, 1, 2), ("EOF", "", 1, len(text) + 3)]


def test_longest_operator_wins():
    assert [t.type for t in tokenize("a!=b=>c<<d>>e!c")] == [
        "NAME", "NEQ", "NAME", "ARROW", "NAME", "OUTOF", "NAME", "INTO",
        "NAME", "BANG", "NAME", "EOF"]


def test_quoted_value():
    single, double, name, eof = tokenize("'VB$' \"a b\" VB")
    assert (single.type, single.text, single.value) == ("QUOTED", "'VB$'", "VB$")
    assert (double.type, double.text, double.value) == ("QUOTED", '"a b"', "a b")
    assert (name.type, name.value) == ("NAME", "VB")
    assert (double.span.line, double.span.column) == (1, 7)
    assert eof.value == ""


def test_empty_source_is_one_eof_token():
    assert _scan("") == [("EOF", "", 1, 1)]


def test_line_ends_after_a_quoted_value_and_a_comment():
    assert _scan("a\r\n\t'b c' # x\n") == [
        ("NAME", "a", 1, 1), ("QUOTED", "'b c'", 2, 2), ("EOF", "", 3, 1)]


@pytest.mark.parametrize("source, char, line, column", [
    ("# note\n  x @", "@", 2, 5),
    ("a\n'b\nc'", "'", 2, 1),
    ("ok # '\n\t\t;", ";", 2, 3),
])
def test_unexpected_character(source, char, line, column):
    with pytest.raises(SpecSyntaxError) as exc:
        tokenize(source)
    (d,) = exc.value.diagnostics
    assert d.kind == "syntax"
    assert d.message == f"unexpected character {char!r}"
    assert (d.span.line, d.span.column) == (line, column)


@pytest.mark.parametrize("name, count", [
    ("eagles-en.tagset", 187), ("upenn.rules", 832)])
def test_fixture_token_counts(name, count):
    tokens = tokenize((FIXTURES / name).read_text())
    assert len(tokens) == count
    assert tokens[-1].type == "EOF"


def test_tokenize_is_linear_in_the_input_length():
    # the rules fixture repeated 4, 8 and 16 times: 11-47 kB, 3-13k tokens
    text = (FIXTURES / "upenn.rules").read_text()
    ratios = doubling_ratios(tokenize, [text * n for n in (4, 8, 16)])
    assert all(r < 3 for r in ratios), ratios
