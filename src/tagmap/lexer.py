"""Tokenizer and token cursor shared by the tagset, rule-file and
spec-expression parsers.

All three surface languages use one token alphabet: names, numbers, quoted
strings and a small punctuation set.  ``#`` starts a comment running to the
end of the line.  Input is whitespace-insensitive apart from the line and
column of each token, which diagnostics report.  :func:`tokenize` scans the
source line by line, one regular-expression match per token; comments and
quoted strings end with their line, so a token's line is the index of the
line it is on and its column its offset there.  Each parser walks its
tokens with one :class:`TokenCursor`, whose expectations fail with
:class:`SpecSyntaxError`.
"""
from __future__ import annotations

import re
from typing import NamedTuple, NoReturn

from .diagnostics import Span, SpecSyntaxError, error

# One match per token: the blanks before it, then the token.  The commonest
# tokens are tried first, and longer operators before their prefixes, so
# max-munch works: '!=' before '!', '=>' before '='.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r]*
    (?:
      (?P<NAME>    [A-Za-z_][A-Za-z0-9_$-]* )
    | (?P<NUMBER>  [0-9]+               )
    | (?P<QUOTED>  '[^']*' | "[^"]*"    )
    | (?P<COMMENT> \#.*                 )
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
    | (?P<BAD>     [^ \t\r]             )
    )
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
    new = tuple.__new__
    lines = source.split("\n")
    for number, line in enumerate(lines, 1):
        # blanks at the end of a line precede no token; a match tried at each
        # of them would scan the rest of them again
        for m in _TOKEN_RE.finditer(line.rstrip(" \t\r")):
            kind = m.lastgroup
            if kind == "COMMENT":
                break
            span = new(Span, (number, m.start(kind) + 1))
            if kind == "BAD":
                raise SpecSyntaxError([
                    error("syntax", f"unexpected character {m[kind]!r}", span)])
            tokens.append(new(Token, (kind, m[kind], span)))
    tokens.append(Token("EOF", "", Span(len(lines), len(lines[-1]) + 1)))
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
