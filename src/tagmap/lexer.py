"""Tokenizer and token cursor shared by the tagset, rule-file and
spec-expression parsers.

All three surface languages use one token alphabet: names, numbers, quoted
strings and a small punctuation set.  ``#`` starts a comment running to the
end of the line.  Input is whitespace-insensitive apart from the line and
column of each token, which diagnostics report.  :func:`tokenize` scans the
source line by line, one regular-expression match per token; no token
spans lines, so its line is its line's index and its column its offset
there.  Tokens are kept as columns, not records: parallel lists of kinds,
texts, lines and columns, walked by index with one :class:`TokenCursor`,
which builds a :class:`Span` only where a parser stores or reports one.
"""
from __future__ import annotations

import re
from typing import NoReturn

from .diagnostics import Span, SpecSyntaxError, error

# One match per token: the blanks before it, then a mark (punctuation, the
# longer operators before their prefixes, so max-munch works: '!=' before
# '!', '=>' before '='), a word (a name, a number or a quoted value), or any
# other character: a comment if it is '#', else one outside the alphabet.
_TOKEN_RE = re.compile(r"""([ \t\r]*)(?:(<<|>>|=>|!=|[=!&|()\[\]{},.])
                                    |([A-Za-z_][A-Za-z0-9_$-]*|[0-9]+|'[^']*'|"[^"]*")
                                    |(\#.*|[^ \t\r]))""", re.VERBOSE)
# a word's kind by its first character, a mark's by its text
_LEADS = {**dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_",
                          "NAME"),
          **dict.fromkeys("0123456789", "NUMBER"), "'": "QUOTED", '"': "QUOTED"}
_MARKS = {"<<": "OUTOF", ">>": "INTO", "=>": "ARROW", "!=": "NEQ", "=": "EQ",
          "!": "BANG", "&": "AMP", "|": "PIPE", "(": "LPAREN", ")": "RPAREN",
          "[": "LBRACKET", "]": "RBRACKET", "{": "LBRACE", "}": "RBRACE",
          ",": "COMMA", ".": "DOT"}


def tokenize(source: str) -> TokenCursor:
    """Scan ``source`` into token columns, ending with an EOF token, and
    return a cursor at the first token; its length is the number of tokens.

    Raises :class:`SpecSyntaxError` on a character outside the alphabet.
    """
    kinds, texts, lines, columns = [], [], [], []
    rows = source.split("\n")
    for number, line in enumerate(rows, 1):
        column = 1
        # blanks at the end of a line precede no token; a match tried at each
        # of them would scan the rest of them again
        for blanks, mark, word, other in _TOKEN_RE.findall(line.rstrip(" \t\r")):
            column += len(blanks)
            if word:
                kind, text = _LEADS[word[0]], word
            elif mark:
                kind, text = _MARKS[mark], mark
            elif other[0] == "#":
                break
            else:
                raise SpecSyntaxError([error("syntax", f"unexpected character "
                                             f"{other!r}", Span(number, column))])
            kinds.append(kind)
            texts.append(text)
            lines.append(number)
            columns.append(column)
            column += len(text)
    kinds.append("EOF")
    texts.append("")
    lines.append(len(rows))
    columns.append(len(rows[-1]) + 1)
    return TokenCursor(kinds, texts, lines, columns)


class TokenCursor:
    """A position ``pos`` in a source's tokens, kept as parallel columns
    that end with a synthetic EOF token: each token's kind, its text, and
    its 1-based line and column.  It never moves past EOF."""

    def __init__(self, kinds: list[str], texts: list[str], lines: list[int],
                 columns: list[int]) -> None:
        self.kinds, self.texts = kinds, texts
        self.lines, self.columns = lines, columns
        self.end = len(kinds) - 1           # the EOF token's index
        self.pos = 0

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def kind(self) -> str:
        return self.kinds[self.pos]

    @property
    def text(self) -> str:
        return self.texts[self.pos]

    def span(self, i: int | None = None) -> Span:
        """The position of the token ``i``, the current one by default."""
        i = self.pos if i is None else i
        return tuple.__new__(Span, (self.lines[i], self.columns[i]))

    def advance(self) -> int:
        """Step past the current token, unless it is EOF; its index."""
        i = self.pos
        if i < self.end:
            self.pos = i + 1
        return i

    def expect(self, kind: str, what: str) -> str:
        """Consume a token of ``kind``, not EOF, and return its text; ``what``
        names it in the error."""
        i = self.pos
        if self.kinds[i] != kind:
            self.fail(f"expected {what}, found {self.text or 'end of input'!r}")
        self.pos = i + 1
        return self.texts[i]

    def keyword(self, word: str) -> None:
        """Consume the name ``word`` (no other kind of token has its text)."""
        if self.text != word:
            self.fail(f"expected {word!r}, found {self.text or 'end of input'!r}")
        self.pos += 1

    def fail(self, message: str, at: int | None = None) -> NoReturn:
        """Raise a syntax error at the token ``at``, by default the current."""
        raise SpecSyntaxError([error("syntax", message, self.span(at))])
