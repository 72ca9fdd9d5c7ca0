"""References that check the program's outputs.

Class sets are frozensets of class keys ``(leaf, frozenset(assignment))``.
The fixture reference is the test suite's brute-force oracle
(``tests/oracles.py``, imported read-only).  The ladder reference evaluates
expressions over the generator's explicit class list.  Query resolution is
checked against ``oracles.oracle_resolve``, which is plain set algebra and
works on either.  Rendered covers are parsed back (the surface grammar is
shared with the program, as in the oracles) and must denote exactly the set
they stand for.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from tagmap.diagnostics import SpecTypeError
from tagmap.specexpr import And, Atom, Not, SpecExpr, parse_spec

import oracles

ClassSet = frozenset
# ladder covers are large and rarely repeat; a bounded cache keeps memory flat
_CACHE_LIMIT = 2048


@dataclass
class Reference:
    """Ground truth for one tagset and rule set."""

    universe: ClassSet
    rules: oracles.OracleRules
    denote_text: Callable[[str], ClassSet]
    well_typed: Callable[[str], bool]

    def __post_init__(self) -> None:
        self._denoted: dict[str, ClassSet] = {}
        self._typed: dict[str, bool] = {}

    def denote(self, text: str) -> ClassSet:
        got = self._denoted.get(text)
        if got is None:
            if len(self._denoted) >= _CACHE_LIMIT:
                self._denoted.clear()
            got = self._denoted[text] = self.denote_text(text)
        return got

    def typed(self, text: str) -> bool:
        got = self._typed.get(text)
        if got is None:
            got = self._typed[text] = self.well_typed(text)
        return got


def fixture_reference() -> Reference:
    universe = oracles.oracle_universe()
    keys = frozenset(oracles.class_key(leaf, a) for leaf, a in universe)
    return Reference(keys, oracles.oracle_rules(),
                     lambda text: oracles.oracle_denote(text, universe),
                     oracles.oracle_well_typed)


class ClassEvaluator:
    """Closed-world evaluation over an explicit class list, by bitsets built
    class by class."""

    def __init__(self, classes, leaf_paths: dict[str, tuple[str, ...]]):
        self.keys = [oracles.class_key(leaf, a) for leaf, a in classes]
        self.full = (1 << len(classes)) - 1
        self.node: dict[str, int] = {}
        self.atom: dict[tuple[str, str], int] = {}
        self.domain: dict[str, int] = {}
        for i, (leaf, assignment) in enumerate(classes):
            bit = 1 << i
            for n in leaf_paths[leaf]:
                self.node[n] = self.node.get(n, 0) | bit
            for f, v in assignment.items():
                self.atom[(f, v)] = self.atom.get((f, v), 0) | bit
                self.domain[f] = self.domain.get(f, 0) | bit

    def mask(self, e: SpecExpr, negate: bool = False) -> int:
        """Denotation of an expression with ``feature=value`` atoms only, as
        the generator and the program's covers write them."""
        if isinstance(e, Atom):
            positive = (e.op == "=") != negate
            if e.feature == "pos":
                m = self.node.get(e.value, 0)
                return m if positive else self.full & ~m
            m = self.atom.get((e.feature, e.value), 0)
            return m if positive else self.domain.get(e.feature, 0) & ~m
        if isinstance(e, Not):
            return self.mask(e.child, not negate)
        left, right = self.mask(e.left, negate), self.mask(e.right, negate)
        if isinstance(e, And) != negate:
            return left & right
        return left | right

    def keyset(self, mask: int) -> ClassSet:
        return frozenset(k for i, k in enumerate(self.keys) if mask >> i & 1)

    def denote(self, text: str) -> ClassSet:
        return self.keyset(self.mask(parse_spec(text)))

    def well_typed(self, text: str) -> bool:
        for disjunct in oracles.oracle_dnf(parse_spec(text)):
            m = self.full
            for atom in disjunct:
                m &= self.mask(atom)
            if not m:
                return False
        return True


def ladder_reference(classes, leaves: tuple[str, ...], rules) -> Reference:
    """``rules`` is a ``gen.LadderRules``; its conjunctions are evaluated here."""
    ev = ClassEvaluator(classes, {leaf: ("root", leaf) for leaf in leaves})

    def conj_set(conj) -> ClassSet:
        m = ev.full
        for f, v in conj:
            m &= ev.mask(Atom(f, "=", v))
        return ev.keyset(m)

    orules = oracles.OracleRules(
        inventory=rules.inventory,
        coverage={tag: conj_set(c) for tag, c in rules.coverage.items()},
        coverage_text={},
        exceptions=tuple((w, tag, conj_set(c)) for w, tag, c in rules.exceptions))
    return Reference(ev.keyset(ev.full), orules, ev.denote, ev.well_typed)


# -- checks --------------------------------------------------------------------


def _cover_union(cover) -> int:
    m = 0
    for node in cover:
        m |= node.mask
    return m


def check_query(ref: Reference, graph, text: str, outcome, rendered: str
                ) -> list[str]:
    """Problems with one query's outcome (a ``Resolution`` or the
    ``CompileError`` it raised) and its rendering; empty when correct."""
    if not ref.typed(text):
        if hasattr(outcome, "patterns"):
            return [f"ill-typed query accepted: {text}"]
        if not isinstance(outcome, SpecTypeError) or \
                not rendered.startswith("error [ill-typed]"):
            return [f"ill-typed query failed with {outcome!r}: {text}"]
        return []
    if not hasattr(outcome, "patterns"):
        return [f"well-typed query rejected ({outcome}): {text}"]
    problems = []
    keys = lambda mask: oracles.mask_keys(graph, mask)    # noqa: E731
    s = ref.denote(text)
    if keys(outcome.query.denotation) != s:
        problems.append(f"denotation differs: {text}")
    want = oracles.oracle_resolve(ref.rules, s)
    got_patterns = tuple((p.tag, p.op, p.words) for p in outcome.patterns)
    if got_patterns != want.patterns:
        problems.append(f"patterns {got_patterns} != {want.patterns}: {text}")
    want_noise = {(tag, ()): cls for tag, cls in want.noise.items()}
    want_noise.update(want.word_noise)
    got_noise = {(n.tag, n.words): keys(_cover_union(n.cover))
                 for n in outcome.noise}
    if got_noise != want_noise:
        problems.append(f"noise differs: {text}")
    if keys(_cover_union(outcome.uncovered)) != want.uncovered:
        problems.append(f"uncovered differs: {text}")

    lines = rendered.split("\n")
    expected_lines = 1 + len(outcome.noise) + bool(outcome.uncovered)
    if len(lines) != expected_lines:
        return problems + [f"{len(lines)} output lines, want {expected_lines}: {text}"]
    for note, line in zip(outcome.noise, lines[1:]):
        scope = f"{note.tag} ({'|'.join(note.words)})" if note.words else note.tag
        prefix = f"WARN noise {scope}: "
        key = (note.tag, note.words)
        if not line.startswith(prefix) or (
                ref.denote(line[len(prefix):]) != want_noise.get(key)):
            problems.append(f"noise line does not re-denote: {line!r}: {text}")
    if outcome.uncovered:
        prefix = "WARN uncovered: "
        line = lines[-1]
        if not line.startswith(prefix) or (
                ref.denote(line[len(prefix):]) != want.uncovered):
            problems.append(f"uncovered line does not re-denote: {line!r}: {text}")
    return problems


_ASSIGN_RE = re.compile(r"^(\S+) -> (.+) \[(\d+) class(?:es)?\]$")
_WARN_RE = re.compile(r"^WARN \[([a-z_]+)\] (.*)$")
_OVERLAP_RE = re.compile(r"^tags (\S+) and (\S+) overlap on (.+)$")
_TARGET_RE = re.compile(r"^no physical tag reaches (.+) \[(\d+) class(?:es)?\]$")


def check_explain(ref: Reference, text: str) -> list[str]:
    """Problems with a ``render_explain`` output; empty when correct."""
    r = ref.rules
    problems = []
    lines = text.split("\n")
    covered = sorted(r.coverage)
    for tag, line in zip(covered, lines):
        m = _ASSIGN_RE.match(line)
        if not m or m.group(1) != tag:
            problems.append(f"bad assignment line {line!r}, want tag {tag}")
            continue
        want = r.coverage[tag]
        if ref.denote(m.group(2)) != want or int(m.group(3)) != len(want):
            problems.append(f"assignment does not re-denote: {line!r}")
    warns = [_WARN_RE.match(line) for line in lines[len(covered):]]
    if not all(warns):
        return problems + ["unparsable warning lines"]
    by_kind: dict[str, list[str]] = {}
    for m in warns:
        by_kind.setdefault(m.group(1), []).append(m.group(2))

    holes = [t for t in r.inventory if t not in r.coverage]
    got = by_kind.pop("definition_hole_source", [])
    if len(got) != len(holes) or not all(
            msg.startswith(f"tag {t} ") for t, msg in zip(holes, got)):
        problems.append(f"source holes {got}, want {holes}")

    reached = frozenset().union(*r.coverage.values(),
                                *(into for _, _, into in r.exceptions))
    missing = ref.universe - reached
    got = by_kind.pop("definition_hole_target", [])
    m = _TARGET_RE.match(got[0]) if len(got) == 1 else None
    if missing and not (m and ref.denote(m.group(1)) == missing
                        and int(m.group(2)) == len(missing)):
        problems.append(f"target hole {got} does not re-denote")
    elif not missing and got:
        problems.append(f"unexpected target hole {got}")

    tags = [t for t in r.inventory if t in r.coverage]
    pairs = [(a, b) for i, a in enumerate(tags) for b in tags[i + 1:]
             if r.coverage[a] & r.coverage[b]]
    got = by_kind.pop("nondisjunctive", [])
    if len(got) != len(pairs):
        problems.append(f"{len(got)} overlaps, want {len(pairs)}")
    for (a, b), msg in zip(pairs, got):
        m = _OVERLAP_RE.match(msg)
        if not m or (m.group(1), m.group(2)) != (a, b) or (
                ref.denote(m.group(3)) != r.coverage[a] & r.coverage[b]):
            problems.append(f"overlap line does not re-denote: {msg!r}")
    by_kind.pop("hierarchical", None)
    if by_kind:
        problems.append(f"unexpected warning kinds {sorted(by_kind)}")
    return problems


class RetagReference:
    """Expected reading, provenance and flags of every corpus token."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.coverage = ref.rules.coverage
        self.lexicon = {(w, tag): into for words, tag, into in ref.rules.exceptions
                        for w in words}
        self._reading_ok: dict[tuple[str, ClassSet], bool] = {}

    def exception_pairs(self) -> list[tuple[str, str]]:
        return sorted(self.lexicon)

    def expect(self, word: str, tag: str) -> tuple[str, ClassSet]:
        into = self.lexicon.get((word, tag))
        if into is not None:
            return "exception", into
        return "coverage", self.coverage[tag]

    def check_record(self, word: str, tag: str, record: str) -> str | None:
        fields = record.split("\t")
        provenance, want = self.expect(word, tag)
        flags = "underspecified" if len(want) > 1 else "-"
        if len(fields) != 5 or fields[:2] != [word, tag] or \
                fields[3] != provenance or fields[4] != flags:
            return f"record {record!r}, want {word}/{tag} {provenance} {flags}"
        key = (fields[2], want)
        ok = self._reading_ok.get(key)
        if ok is None:
            ok = self._reading_ok[key] = self.ref.denote(fields[2]) == want
        return None if ok else f"reading {fields[2]!r} of {word}/{tag} is wrong"

    def check_output(self, lines, output, stderr: str) -> list[str]:
        """Compare ``retag`` output lines with the generator's corpus ``lines``."""
        problems: list[str] = []
        records = (r.rstrip("\n") for r in output)
        tally = {"tokens": 0, "exceptions": 0, "underspecified": 0,
                 "holes": 0, "malformed": 0}
        for line in lines:
            if line.malformed:
                tally["malformed"] += 1
                continue
            for word, tag in line.tokens:
                provenance, want = self.expect(word, tag)
                tally["tokens"] += 1
                tally["exceptions"] += provenance == "exception"
                tally["underspecified"] += len(want) > 1
                problem = self.check_record(word, tag, next(records, ""))
                if problem and len(problems) < 10:
                    problems.append(problem)
        for key, want in tally.items():
            got = next(records, "")
            if got != f"# {key}: {want}":
                problems.append(f"summary line {got!r}, want '# {key}: {want}'")
        rest = [r for r in records if r]
        if any(not r.startswith("# note: ") for r in rest):
            problems.append(f"unexpected trailing output {rest[:3]}")
        reported = sum(1 for r in stderr.splitlines()
                       if r.startswith("error [malformed-"))
        if reported != tally["malformed"]:
            problems.append(f"{reported} malformed-line diagnostics, "
                            f"want {tally['malformed']}")
        return problems
