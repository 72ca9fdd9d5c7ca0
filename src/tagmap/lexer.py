"""Tokenizer and token cursor shared by the tagset, rule-file and
spec-expression parsers.

All three surface languages use one token alphabet: names, numbers, quoted
strings and a small punctuation set.  ``#`` starts a comment running to the
end of the line.  Input is whitespace-insensitive apart from the line and
column of each token, which diagnostics report.  :func:`tokenize` scans the
source in one regular-expression pass; comments and quoted strings stop at a
newline, so only whitespace moves the line forward.  Each parser walks its
tokens with one :class:`TokenCursor`, whose expectations fail with
:class:`SpecSyntaxError`.
"""
from __future__ import annotations

import re
from typing import NamedTuple, NoReturn

from .diagnostics import Span, SpecSyntaxError, error

# Longer operators first so max-munch works: '!=' before '!', '=>' before '='.
_TOKEN_RE = re.compile(
    r"""
      (?P<WS>      [ \t\r\n]+           )
    | (?P<COMMENT> \#[^\n]*             )
    | (?P<QUOTED>  '[^'\n]*' | "[^"\n]*")
    | (?P<NUMBER>  [0-9]+               )
    | (?P<NAME>    [A-Za-z_][A-Za-z0-9_$-]* )
    | (?P<OUTOF>   <<                   )
    | (?P<INTO>    >>                   )
    | (?P<ARROW>   =>                   )
    | (?P<NEQ>     !=                   )
    | (?P<EQ>      =                    )
    | (?P<BANG>    !                    )
    | (?P<AMP>     &                    )
    | (?P<PIPE>    \|                   )
    | (?P<LPAREN>  \(                   )
    | (?P<RPAREN>  \)                   )
    | (?P<LBRACKET>\[                   )
    | (?P<RBRACKET>\]                   )
    | (?P<LBRACE>  \{                   )
    | (?P<RBRACE>  \}                   )
    | (?P<COMMA>   ,                    )
    | (?P<DOT>     \.                   )
    | (?P<BAD>     .                    )
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    type: str
    text: str
    span: Span

    @property
    def value(self) -> str:
        """Token payload: quoted tokens are unwrapped, others verbatim."""
        if self.type == "QUOTED":
            return self.text[1:-1]
        return self.text


def tokenize(source: str) -> list[Token]:
    """Scan ``source`` into tokens, ending with a synthetic EOF token.

    Raises :class:`SpecSyntaxError` on a character outside the alphabet.
    """
    tokens: list[Token] = []
    line, line_start = 1, 0      # line number and the offset where it starts
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "WS":
            newline = source.rfind("\n", m.start(), m.end())
            if newline >= 0:
                line += m.group().count("\n")
                line_start = newline + 1
        elif kind == "BAD":
            raise SpecSyntaxError([
                error("syntax", f"unexpected character {m.group()!r}",
                      Span(line, m.start() - line_start + 1))])
        elif kind != "COMMENT":
            tokens.append(Token(kind, m.group(), Span(line, m.start() - line_start + 1)))
    tokens.append(Token("EOF", "", Span(line, len(source) - line_start + 1)))
    return tokens


class TokenCursor:
    """A position in a token list ending with EOF; it never moves past EOF."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.cur = tokens[0]         # the token at ``pos``

    def advance(self) -> Token:
        tok = self.cur
        if tok.type != "EOF":
            self.pos += 1
            self.cur = self.tokens[self.pos]
        return tok

    def expect(self, type_: str, what: str) -> Token:
        """Consume a token of ``type_``; ``what`` names it in the error."""
        if self.cur.type != type_:
            self._fail(what)
        return self.advance()

    def keyword(self, word: str) -> Token:
        """Consume the name ``word``."""
        if self.cur.type != "NAME" or self.cur.text != word:
            self._fail(repr(word))
        return self.advance()

    def _fail(self, what: str) -> NoReturn:
        raise SpecSyntaxError([
            error("syntax", f"expected {what}, found {self.cur.text or 'end of input'!r}",
                  self.cur.span)])
