"""The shared tokenizer: token kinds, source positions and fixture counts,
and agreement with the former per-token scan on random sources."""

import pytest
from hypothesis import example, given, settings, strategies as st

from tagmap import SpecSyntaxError
from tagmap.lexer import tokenize
from tagmap.specexpr import parse_spec

from oracles import FIXTURES, oracle_tokenize
from support import doubling_ratios


def _scan(source):
    tokens = tokenize(source)
    return list(zip(tokens.kinds, tokens.texts, tokens.lines, tokens.columns))


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
    assert tokenize("a!=b=>c<<d>>e!c").kinds == [
        "NAME", "NEQ", "NAME", "ARROW", "NAME", "OUTOF", "NAME", "INTO",
        "NAME", "BANG", "NAME", "EOF"]


def test_quoted_value():
    single, double, name, eof = _scan("'VB$' \"a b\" VB")
    assert single[:2] == ("QUOTED", "'VB$'")
    assert double[:2] == ("QUOTED", '"a b"')
    assert name[:2] == ("NAME", "VB")
    assert double[2:] == (1, 7)
    assert eof[1] == ""
    # parsers unwrap a quoted value
    assert parse_spec("pos = 'VB$'").value == "VB$"
    assert parse_spec('pos = "a b"').value == "a b"


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
    assert tokens.kinds[-1] == "EOF"


def test_tokenize_is_linear_in_the_input_length():
    # the rules fixture repeated 4, 8 and 16 times: 11-47 kB, 3-13k tokens
    text = (FIXTURES / "upenn.rules").read_text()
    ratios = doubling_ratios(tokenize, [text * n for n in (4, 8, 16)])
    assert all(r < 3 for r in ratios), ratios


# sources drawn from the token alphabet, blanks and line ends, plus what is
# lexically tricky: CRLF, tabs and form feeds, comments, lone and unterminated
# quotes, non-ASCII letters, and '$' and '-' inside and at the start of names
_PIECES = st.sampled_from([
    "a", "VB", "PP$", "x-y", "_1", "0", "42", "'a b'", '"c d"', "'#'",
    "<<", ">>", "=>", "!=", "=", "!", "&", "|", "(", ")", "[", "]", "{", "}",
    ",", ".", "<", ">", " ", "  ", "\t", "\r", "\n", "\r\n", "\f", "#",
    "# note", "'", '"', "'open", "é", "ß", "名", "$", "-", "@", ";"])
_SOURCES = st.one_of(
    st.lists(_PIECES, max_size=30).map("".join),
    st.text(alphabet="aZ_9$-'\"#=!<>&|()[]{},. \t\r\n\fé@", max_size=40))


def _outcome(scan, source):
    try:
        return scan(source)
    except SpecSyntaxError as exc:
        return exc.diagnostics


@given(_SOURCES)
@example("'VB'# comment\r\n\tx")
@example("a 'b\nc' d")
@example("ok\f")
@example("na\u00efve")
@settings(max_examples=400, deadline=None)
def test_columns_match_the_per_token_scan(source):
    # the same (kind, text, line, column) list, or the same first error
    assert _outcome(_scan, source) == _outcome(oracle_tokenize, source)
