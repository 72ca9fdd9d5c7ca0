"""Tokenizer and token cursor shared by the tagset, rule-file and
spec-expression parsers.

All three surface languages use one token alphabet: names, numbers, quoted
strings and a small punctuation set.  ``#`` starts a comment running to the
end of the line.  Input is whitespace-insensitive apart from line/column
tracking for diagnostics.  Each parser walks its tokens with one
:class:`TokenCursor`, whose expectations fail with :class:`SpecSyntaxError`.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NoReturn

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
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
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
    line, col = 1, 1
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise SpecSyntaxError([
                error("syntax", f"unexpected character {source[pos]!r}", Span(line, col))
            ])
        kind = m.lastgroup or ""
        text = m.group()
        newlines = text.count("\n")
        if newlines:
            end_line = line + newlines
            end_col = len(text) - text.rfind("\n")
        else:
            end_line = line
            end_col = col + len(text)
        if kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, text, Span(line, col, end_line, end_col - 1)))
        line, col = end_line, end_col
        pos = m.end()
    tokens.append(Token("EOF", "", Span(line, col)))
    return tokens


class TokenCursor:
    """A position in a token list ending with EOF; it never moves past EOF."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "EOF":
            self.pos += 1
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
