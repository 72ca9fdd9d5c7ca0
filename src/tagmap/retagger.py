"""Retag a physically tagged corpus with standard readings.

Input formats:

* ``slash``: whitespace-separated ``word/TAG`` tokens, any number per line;
  the split is at the last slash, so ``1/2/CD`` reads as word ``1/2``;
* ``tsv``: one token per line as ``word<TAB>TAG``; blank lines separate
  sentences and are skipped.

Output is one tab-separated record per token: word, tag, standard reading,
provenance (``coverage`` rule or ``exception`` lexicon) and flags. A token
whose reading denotes more than one terminal class is flagged
``underspecified``; a token whose tag has no rule at all is flagged ``hole``
and retains no reading.
"""
from __future__ import annotations

import re
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from .diagnostics import Diagnostic, Span, error
from .maprules import RuleSet


class CorpusToken(NamedTuple):
    word: str
    tag: str
    line: int = 0


class RetagRecord(NamedTuple):
    token: CorpusToken
    reading: str | None
    provenance: str                 # "coverage", "exception" or "-"
    flags: tuple[str, ...] = ()

    def render(self) -> str:
        return "\t".join([
            self.token.word,
            self.token.tag,
            self.reading or "-",
            self.provenance,
            ",".join(self.flags) or "-",
        ])


class RetagSummary:
    """Counts over a retag run.  ``notes`` maps a tag to the note of the rule
    set's ``note`` line; each is printed once, in the order the tags are
    first retagged."""

    def __init__(self, notes: dict[str, str] | None = None) -> None:
        self.tokens = self.exceptions = self.underspecified = 0
        self.holes = self.malformed = 0
        self.holes_by_tag: dict[str, int] = {}
        self.notes = {} if notes is None else notes
        self.noted: dict[str, str] = {}

    def add(self, item: "RetagRecord | Diagnostic") -> None:
        if isinstance(item, Diagnostic):
            self.malformed += 1
            return
        self.tokens += 1
        tag = item.token.tag
        if item.provenance == "exception":
            self.exceptions += 1
        if "underspecified" in item.flags:
            self.underspecified += 1
        if "hole" in item.flags:
            self.holes += 1
            self.holes_by_tag[tag] = self.holes_by_tag.get(tag, 0) + 1
        if tag in self.notes and tag not in self.noted:
            self.noted[tag] = self.notes[tag]

    def render(self) -> str:
        holes = f"# holes: {self.holes}"
        if self.holes_by_tag:
            per_tag = ", ".join(f"{t}: {n}"
                                for t, n in sorted(self.holes_by_tag.items()))
            holes += f" ({per_tag})"
        lines = [
            f"# tokens: {self.tokens}",
            f"# exceptions: {self.exceptions}",
            f"# underspecified: {self.underspecified}",
            holes,
            f"# malformed: {self.malformed}",
        ]
        lines += [f"# note: {n}" for n in self.noted.values()]
        return "\n".join(lines)


def parse_corpus_line(text: str, lineno: int,
                      fmt: str = "slash") -> list[CorpusToken] | Diagnostic:
    """Tokens of one corpus line, or a diagnostic if the line is malformed."""
    if fmt == "tsv":
        stripped = text.rstrip("\r\n")
        if not stripped.strip():
            return []
        parts = stripped.split("\t")
        if len(parts) < 2 or not parts[0] or not parts[1]:
            return error("malformed-line",
                         f"expected word<TAB>tag, got {stripped!r}",
                         Span(lineno, 1))
        return [CorpusToken(parts[0], parts[1], lineno)]
    if fmt != "slash":
        raise ValueError(f"unknown corpus format {fmt!r}")
    tokens = []
    for piece in text.split():
        word, sep, tag = piece.rpartition("/")
        if not sep or not word or not tag:
            # str.split() and \S share one blank test (str.isspace), so the
            # piece is the match after the tokens read so far
            found = next(islice(re.finditer(r"\S+", text), len(tokens), None))
            return error("malformed-token",
                         f"token {piece!r} has no word/TAG split",
                         Span(lineno, found.start() + 1))
        tokens.append(CorpusToken(word, tag, lineno))
    return tokens


def retag_token(rules: RuleSet, token: CorpusToken) -> RetagRecord:
    found = rules.lookup(token.tag, token.word)
    if found is None:
        return RetagRecord(token, None, "-", ("hole",))
    provenance = "exception" if found.words else "coverage"
    flags = ("underspecified",) if found.typed.denotation.bit_count() > 1 else ()
    return RetagRecord(token, found.reading, provenance, flags)


def retag_lines(rules: RuleSet, lines: Iterable[str],
                fmt: str = "slash") -> Iterator[RetagRecord | Diagnostic]:
    """Retag a corpus line stream, yielding records and malformed-line
    diagnostics in input order."""
    for lineno, line in enumerate(lines, start=1):
        parsed = parse_corpus_line(line, lineno, fmt)
        if isinstance(parsed, Diagnostic):
            yield parsed
            continue
        for token in parsed:
            yield retag_token(rules, token)
