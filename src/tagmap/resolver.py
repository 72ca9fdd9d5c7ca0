"""Resolve an abstract query into physical tag patterns.

Given a well-typed specification with denotation S, resolution decides for
every physical tag whether and how its occurrences can realise classes in S:

* a tag whose coverage denotation meets S is retrieved outright; exception
  words whose rerouted reading misses S entirely are excluded from it with a
  ``word !=`` constraint;
* a tag whose coverage misses S but that carries exception words rerouted
  into S is retrieved for exactly those words with a ``word =`` constraint;
* everything a retrieved tag can additionally mean outside S is reported as
  anticipated noise, rendered as a minimal cover; rerouted words retrieved
  with residual readings outside S are reported the same way per word list;
* classes of S no emitted pattern can reach are reported as uncovered.
"""
from __future__ import annotations

from dataclasses import dataclass

from .maprules import RuleSet
from .specexpr import SpecExpr, TypedSpec, compile_spec, typecheck
from .typegraph import CoverNode, minimal_cover, render_cover


@dataclass(frozen=True)
class TagPattern:
    """One disjunct of the physical query: a tag, optionally word-constrained."""

    tag: str
    op: str | None = None          # None, "=" or "!="
    words: tuple[str, ...] = ()

    def render(self) -> str:
        if self.op is None:
            return f'pos = "{self.tag}"'
        return f'(pos = "{self.tag}" & word {self.op} "{"|".join(self.words)}")'


@dataclass(frozen=True)
class NoiseNote:
    """Readings outside the query that a pattern will nevertheless retrieve."""

    tag: str
    cover: tuple[CoverNode, ...]
    words: tuple[str, ...] = ()    # empty: whole-tag noise

    def render(self) -> str:
        scope = f"{self.tag} ({'|'.join(self.words)})" if self.words else self.tag
        return f"WARN noise {scope}: {render_cover(self.cover)}"


@dataclass(frozen=True)
class Resolution:
    query: TypedSpec
    patterns: tuple[TagPattern, ...]
    noise: tuple[NoiseNote, ...]
    uncovered: tuple[CoverNode, ...]

    def render(self) -> str:
        lines = [_render_patterns(self.patterns)]
        lines += [n.render() for n in self.noise]
        if self.uncovered:
            lines.append(f"WARN uncovered: {render_cover(self.uncovered)}")
        return "\n".join(lines)


def resolve(rules: RuleSet, query: TypedSpec | SpecExpr | str) -> Resolution:
    if isinstance(query, str):
        query = compile_spec(query, rules.graph)
    elif not isinstance(query, TypedSpec):
        query = typecheck(query, rules.graph)
    g = rules.graph
    s = query.denotation

    patterns: list[TagPattern] = []
    noise: list[NoiseNote] = []
    reachable = 0
    for tag in rules.inventory:
        rule = rules.coverage.get(tag)
        entries = rules.exceptions_for(tag)
        hits = [e for e in entries if e.typed.denotation & s]
        if rule is not None and rule.typed.denotation & s:
            excluded = _entry_words(e for e in entries
                                    if not e.typed.denotation & s)
            patterns.append(TagPattern(tag, "!=" if excluded else None,
                                       excluded))
            reachable |= rule.typed.denotation
            outside = rule.typed.denotation & ~s
            if outside:
                noise.append(NoiseNote(tag, minimal_cover(outside, g)))
        elif hits:
            patterns.append(TagPattern(tag, "=", _entry_words(hits)))
        for e in hits:
            reachable |= e.typed.denotation
            residue = e.typed.denotation & ~s
            if residue:
                noise.append(NoiseNote(tag, minimal_cover(residue, g), e.words))

    missing = s & ~reachable
    uncovered = minimal_cover(missing, g) if missing else ()
    return Resolution(query=query, patterns=tuple(patterns),
                      noise=tuple(noise), uncovered=uncovered)


def _entry_words(entries) -> tuple[str, ...]:
    return tuple(dict.fromkeys(w for e in entries for w in e.words))


def _render_patterns(patterns: tuple[TagPattern, ...]) -> str:
    if not patterns:
        return "[]"
    return "[(" + "|".join(p.render() for p in patterns) + ")]"
