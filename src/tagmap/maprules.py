"""Coverage rules and the exception lexicon for one physical tag inventory.

A rules file has the shape::

    mapping <name> for tagset <graph-name>
    tags T1, T2, ...
    [pos = 'T1'] => <spec> .
    [w1, w2] << [pos = 'T2'] >> <spec> .
    note T1 "<text>" .

A coverage rule assigns a standard reading to every occurrence of a physical
tag; an exception entry is the same kind of rule restricted to the listed
words under that tag, which it reroutes to a different reading.  Both are a
:class:`Rule`, an exception entry one with ``words``, and
:meth:`RuleSet.lookup` finds the one that gives a token its reading.  A
note, at most one per inventory tag, is printed once in a retag summary when
the tag first occurs.  Parsing collects every diagnostic it can before
failing.
"""
from __future__ import annotations

from functools import cached_property
from operator import attrgetter

from .diagnostics import (
    CompileError,
    Diagnostic,
    Span,
    SpecSyntaxError,
    SpecTypeError,
    compare_by,
    error,
    warning,
)
from .lexer import TokenCursor, tokenize
from .specexpr import (
    Atom,
    TypedSpec,
    parse_spec_at,
    render_spec,
    typecheck,
)
from .typegraph import POS_FEATURE, TypeGraph


class Rule:
    """The reading of a physical tag: a coverage rule when ``words`` is
    empty, else an exception entry for those words under the tag.

    Immutable and compared without ``span``, like the NamedTuple records,
    but a plain class, so that :attr:`reading` can be cached on it."""

    def __init__(self, tag: str, typed: TypedSpec, words: tuple[str, ...] = (),
                 span: Span = Span(1, 1)) -> None:
        vars(self).update(tag=tag, typed=typed, words=words, span=span)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete {name!r} of a Rule")

    __delattr__ = __setattr__
    __eq__, __ne__, __hash__ = compare_by(attrgetter("tag", "typed", "words"))

    @cached_property
    def reading(self) -> str:
        return render_spec(self.typed.expr)


class RuleSet:
    """A compiled mapping: inventory, coverage rules and exception lexicon."""

    def __init__(self, name: str, graph: TypeGraph,
                 coverage: dict[str, Rule], exceptions: tuple[Rule, ...],
                 tag_spans: dict[str, Span],
                 warnings: list[Diagnostic] | None = None,
                 notes: dict[str, str] | None = None) -> None:
        self.name = name
        self.graph = graph
        self.tag_spans = tag_spans      # each inventory tag's position
        self.inventory = tuple(tag_spans)
        self.coverage = coverage
        self.exceptions = exceptions
        self.warnings = [] if warnings is None else warnings
        self.notes = {} if notes is None else notes     # tag -> note
        self.word_index: dict[tuple[str, str], Rule] = {}
        by_tag: dict[str, list[Rule]] = {}
        for entry in self.exceptions:
            for w in entry.words:
                self.word_index[(w, entry.tag)] = entry
            by_tag.setdefault(entry.tag, []).append(entry)
        self._by_tag = {tag: tuple(entries) for tag, entries in by_tag.items()}

    def exceptions_for(self, tag: str) -> tuple[Rule, ...]:
        return self._by_tag.get(tag, ())

    def lookup(self, tag: str, word: str | None = None) -> Rule | None:
        """The rule that gives ``word`` occurring with ``tag`` its reading,
        or None for a definition hole; an exception entry for the word takes
        precedence over the tag's coverage rule."""
        if word is not None:
            entry = self.word_index.get((word, tag))
            if entry is not None:
                return entry
        return self.coverage.get(tag)


def parse_rules(source: str, graph: TypeGraph) -> RuleSet:
    """Parse and typecheck a rules file against ``graph``."""
    c = tokenize(source)
    diags: list[Diagnostic] = []
    warns: list[Diagnostic] = []

    try:
        name, at, target = _parse_header(c)
    except SpecSyntaxError as exc:
        raise CompileError(exc.diagnostics) from None
    if target != graph.name:
        diags.append(error(
            "tagset-mismatch",
            f"rules target tagset {target!r} but were compiled against "
            f"{graph.name!r}", at))
    tags = _parse_inventory(c, diags)

    coverage: dict[str, Rule] = {}
    entries: list[Rule] = []
    notes: dict[str, str] = {}
    seen_rule: set[str] = set()
    seen_word: set[tuple[str, str]] = set()

    while c.kind != "EOF":
        is_note = c.text == "note"
        if not is_note and c.kind != "LBRACKET":
            diags.append(error("syntax", f"expected a rule, found {c.text!r}",
                               c.span()))
            _skip_to_rule(c)
            continue
        try:
            if is_note:
                _parse_note(c, tags, notes, diags)
            else:
                _parse_rule(c, graph, tags, coverage, entries,
                            seen_rule, seen_word, diags)
        except SpecSyntaxError as exc:
            diags.extend(exc.diagnostics)
            _sync(c)

    for entry in entries:
        rule = coverage.get(entry.tag)
        if rule is None:
            warns.append(warning(
                "exception-without-coverage",
                f"exception entry for tag {entry.tag} which has no coverage rule",
                entry.span))
        elif rule.typed.denotation == entry.typed.denotation:
            warns.append(warning(
                "redundant-exception",
                f"exception reading for {'|'.join(entry.words)} under "
                f"{entry.tag} equals the tag's coverage reading", entry.span))

    if any(d.severity == "error" for d in diags):
        raise CompileError(diags + warns)
    return RuleSet(name=name, graph=graph, coverage=coverage,
                   exceptions=tuple(entries), tag_spans=tags,
                   warnings=warns, notes=notes)


def _parse_header(c: TokenCursor) -> tuple[str, Span, str]:
    """The mapping's name, and its target tagset's position and name."""
    c.keyword("mapping")
    name = c.expect("NAME", "a mapping name")
    c.keyword("for")
    c.keyword("tagset")
    return name, c.span(), c.expect("NAME", "a tagset name")


def _parse_inventory(c: TokenCursor,
                     diags: list[Diagnostic]) -> dict[str, Span]:
    """The inventory's tags, in order, with the position of each."""
    if c.text != "tags":
        diags.append(error("syntax", "expected a tags header", c.span()))
        return {}
    c.advance()
    tags: dict[str, Span] = {}
    while True:
        span = c.span()
        try:
            tag = c.expect("NAME", "a tag name")
        except SpecSyntaxError as exc:
            # keep the tags read so far and resume at the next rule or note
            diags.extend(exc.diagnostics)
            _skip_to_rule(c)
            break
        if tag in tags:
            diags.append(error("duplicate-tag",
                               f"tag {tag} listed twice in the inventory", span))
        tags.setdefault(tag, span)
        if c.kind != "COMMA":
            break
        c.advance()
    return tags


def _skip_to_rule(c: TokenCursor) -> None:
    # skip to the start of the next rule or note
    while c.kind not in ("LBRACKET", "EOF") and c.text != "note":
        c.advance()


def _sync(c: TokenCursor) -> None:
    # skip to just past the next rule terminator, or to the end
    while c.kinds[c.advance()] not in ("DOT", "EOF"):
        pass


def _parse_rule(c: TokenCursor, graph: TypeGraph, tags: dict[str, Span],
                coverage: dict[str, Rule], entries: list[Rule],
                seen_rule: set[str], seen_word: set[tuple[str, str]],
                diags: list[Diagnostic]) -> None:
    start = c.span()
    # a word list is a bracketed comma or ']'-terminated run of names; a rule
    # head is a bracketed spec
    words: tuple[str, ...] = ()
    if (c.kinds[c.pos + 1] == "NAME"
            and c.kinds[c.pos + 2] in ("COMMA", "RBRACKET")):
        words = _parse_words(c)
        c.expect("OUTOF", "'<<'")
    tag = _parse_tag_head(c, diags)
    if words:
        c.expect("INTO", "'>>'")
    else:
        c.expect("ARROW", "'=>'")
    target = parse_spec_at(c)
    c.expect("DOT", "'.'")
    if tag is None:
        return
    if tags and tag not in tags:
        diags.append(error("unknown-tag",
                           f"tag {tag} is not in the inventory", start))
    if not words:
        if tag in seen_rule:
            diags.append(error("duplicate-rule",
                               f"tag {tag} already has a coverage rule", start))
            return
        seen_rule.add(tag)
    try:
        typed = typecheck(target, graph)
    except SpecTypeError as exc:
        diags.extend(exc.diagnostics)
        return
    for w in words:
        if (w, tag) in seen_word:
            diags.append(error(
                "duplicate-word",
                f"word {w!r} under tag {tag} already has an exception entry",
                start))
        seen_word.add((w, tag))
    rule = Rule(tag, typed, words, start)
    if words:
        entries.append(rule)
    else:
        coverage[tag] = rule


def _parse_note(c: TokenCursor, tags: dict[str, Span],
                notes: dict[str, str], diags: list[Diagnostic]) -> None:
    start = c.span()
    c.keyword("note")
    tag = c.expect("NAME", "a tag name")
    text = c.expect("QUOTED", "a quoted note")[1:-1]
    c.expect("DOT", "'.'")
    if tags and tag not in tags:
        diags.append(error("unknown-tag",
                           f"tag {tag} is not in the inventory", start))
    elif tag in notes:
        diags.append(error("duplicate-note",
                           f"tag {tag} already has a note", start))
    else:
        notes[tag] = text


def _parse_words(c: TokenCursor) -> tuple[str, ...]:
    c.expect("LBRACKET", "'['")
    words = [c.expect("NAME", "a word")]
    while c.kind == "COMMA":
        c.advance()
        words.append(c.expect("NAME", "a word"))
    c.expect("RBRACKET", "']'")
    return tuple(words)


def _parse_tag_head(c: TokenCursor, diags: list[Diagnostic]) -> str | None:
    """Parse ``[pos = '<TAG>']`` and return the tag, or record a diagnostic."""
    start = c.pos
    head = parse_spec_at(c)
    if (isinstance(head, Atom) and head.feature == POS_FEATURE
            and head.op == "=" and head.quoted):
        return head.value
    diags.append(error("malformed-rule", "rule head must name one physical tag, "
                       "as in [pos = 'NN']", c.span(start)))
    return None
