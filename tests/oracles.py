"""Independent reference implementations backing the test suite.

Nothing here reuses the package's set machinery. Universes are rebuilt by
brute-force generate-and-filter over explicit value products, for the
hand-entered fixture graph and for any compiled graph's leaves and
features, denotations by per-class evaluation of the expression tree, rule
denotations from a regex scrape of the rules fixture, query resolution by
plain set algebra over frozensets, the atom, feature and node masks of a
compiled universe by or-ing in its classes one at a time, and conjunctive
cover descriptions by a class-by-class scan of a compiled universe over the
full product of feature choices, with the primes of a mask filtered from
that full table and its minimum cover found by trying every combination of
them, and written out by the former recursive factoring.
Expression trees come from the package parser (the surface grammar is
shared); every semantic step is recomputed from first principles, and a
run of one operator is read down its left spine by the oracles' own loop.
Specifications are rendered by the former renderer, whose ``_child`` kept
a flag for a run's first operand.
The retag command line is kept in its former read-all form, which shares
the per-token retagger with the package and checks only the streaming I/O.
The overlap and containment checks of a mapping tree are kept in their
former pairwise form, every tag against every other; they share cover
rendering with the package and check only how candidates are found.
Tokens come from the lexer's former scan, one record per token.
"""
from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from pathlib import Path

from tagmap.diagnostics import Diagnostic, Span, SpecSyntaxError, error, warning
from tagmap.retagger import RetagSummary, retag_lines
from tagmap.specexpr import And, Atom, BareAtom, Not, Or, SpecExpr, parse_spec
from tagmap.typegraph import minimal_cover, render_cover

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "tagmap" / "fixtures"

# Hand-entered copy of the fixture graph. Deliberately independent data
# entry: a divergence from the .tagset file is a test failure, not a sync
# problem to patch up.

LEAF_PATHS: dict[str, tuple[str, ...]] = {
    "v": ("root", "v"),
    "n": ("root", "nom", "n"),
    "pron": ("root", "nom", "pron"),
    "adj": ("root", "mod", "adj"),
    "adv": ("root", "mod", "adv"),
    "det": ("root", "det"),
    "conj": ("root", "conj"),
    "prep": ("root", "prep"),
    "numeral": ("root", "numeral"),
    "prt": ("root", "prt"),
    "intj": ("root", "intj"),
    "ex": ("root", "ex"),
    "fw": ("root", "fw"),
    "ls": ("root", "ls"),
    "posm": ("root", "posm"),
    "sym": ("root", "sym"),
    "to": ("root", "to"),
    "wadv": ("root", "wadv"),
}

ALL_NODES = sorted({n for path in LEAF_PATHS.values() for n in path})


@dataclass(frozen=True)
class OracleFeature:
    name: str
    home: str
    values: tuple[str, ...]
    conditions: tuple[tuple[str, str], ...] = ()   # disjunctive


FEATURES: tuple[OracleFeature, ...] = (
    OracleFeature("vtype", "v", ("aux", "con", "prim")),
    OracleFeature("vform", "v", ("fin", "inf", "part")),
    OracleFeature("mood", "v", ("ind", "subj", "imp"), (("vform", "fin"),)),
    OracleFeature("tense", "v", ("past", "pres"),
                  (("mood", "ind"), ("vform", "part"))),
    OracleFeature("pers", "v", ("1", "2", "3"), (("vform", "fin"),)),
    OracleFeature("ntype", "n", ("common", "prop", "mass")),
    OracleFeature("num", "n", ("sg", "pl"),
                  (("ntype", "common"), ("ntype", "prop"))),
    OracleFeature("case", "nom", ("gen", "ngen")),
    OracleFeature("antec", "pron", ("prs", "nprs")),
    OracleFeature("type", "pron", ("personal", "indef", "wh")),
    OracleFeature("degree", "mod", ("abs", "comp", "sup")),
    OracleFeature("dtype", "det", ("art", "pre", "dwh")),
    OracleFeature("ctype", "conj", ("coord", "subord")),
)

VALUE_OWNER = {v: f.name for f in FEATURES for v in f.values}

ClassKey = tuple[str, frozenset]


def class_key(leaf: str, assignment: dict[str, str]) -> ClassKey:
    return leaf, frozenset(assignment.items())


def oracle_universe() -> list[tuple[str, dict[str, str]]]:
    """Every maximal consistent assignment, by brute-force enumeration.

    For each leaf, every combination of (value | unset) over the leaf's
    potentially appropriate features is generated, then filtered: a feature
    must be set iff its appropriateness condition holds under the full
    assignment.
    """
    classes: list[tuple[str, dict[str, str]]] = []
    for leaf, path in LEAF_PATHS.items():
        feats = [f for f in FEATURES if f.home in path]
        options = [(None, *f.values) for f in feats]
        for combo in itertools.product(*options):
            assignment = {f.name: v for f, v in zip(feats, combo)
                          if v is not None}
            ok = True
            for f, v in zip(feats, combo):
                applicable = (not f.conditions
                              or any(assignment.get(cf) == cv
                                     for cf, cv in f.conditions))
                if applicable != (v is not None):
                    ok = False
                    break
            if ok:
                classes.append((leaf, assignment))
    return classes


def oracle_universe_keys() -> frozenset[ClassKey]:
    return frozenset(class_key(leaf, a) for leaf, a in oracle_universe())


def root_path(graph, node: str) -> tuple[str, ...]:
    """The path from the root of ``graph`` down to ``node``, inclusive, read
    off the parent links."""
    path = []
    while node is not None:
        path.append(node)
        node = graph._parents[node]
    return tuple(reversed(path))


def oracle_enumerate(graph) -> list[tuple[str, tuple, int]]:
    """(leaf, assignment, index) of every terminal class of any compiled
    ``graph``, by brute force.

    For each leaf in document order, every combination of (unset | value)
    over the features homed on its root path is generated and kept when a
    feature is set exactly where some atom of its guard holds (always, when
    unguarded).  A leaf's classes are sorted by the positions of their
    values, earliest feature first and unset before any value.
    """
    classes: list[tuple[str, tuple]] = []
    for leaf in graph.leaves:
        path = root_path(graph, leaf)
        feats = [f for f in graph.features if f.home in path]
        kept = []
        for combo in itertools.product(*[(None, *f.values) for f in feats]):
            assignment = {f.name: v for f, v in zip(feats, combo)
                          if v is not None}
            if all((not f.conditions
                    or any(assignment.get(cf) == cv for cf, cv in f.conditions))
                   == (v is not None) for f, v in zip(feats, combo)):
                kept.append(combo)
        kept.sort(key=lambda combo: [-1 if v is None else f.values.index(v)
                                     for f, v in zip(feats, combo)])
        classes += [(leaf, tuple((f.name, v) for f, v in zip(feats, combo)
                                 if v is not None)) for combo in kept]
    return [(leaf, assignment, i) for i, (leaf, assignment) in enumerate(classes)]


# -- per-class expression evaluation ----------------------------------------


def resolve_bare(name: str) -> tuple[str, str]:
    """(feature, value) form of a bare atom, 'pos' for hierarchy nodes."""
    if name in ALL_NODES:
        return "pos", name
    return VALUE_OWNER[name], name


def oracle_operands(e: And | Or) -> list[SpecExpr]:
    """The operands of the run of one operator at ``e``, from the left:
    the right child of each node down its left spine, then the first node
    of another type, gathered in a loop so that a run of any length is read
    without recursion."""
    kind, rights = type(e), []
    while type(e) is kind:
        e, right = e
        rights.append(right)
    return [e, *reversed(rights)]


def eval_spec(e: SpecExpr, leaf: str, assignment: dict[str, str]) -> bool:
    if isinstance(e, BareAtom):
        f, v = resolve_bare(e.name)
        return eval_spec(Atom(f, "=", v), leaf, assignment)
    if isinstance(e, Atom):
        if e.feature == "pos":
            inside = e.value in LEAF_PATHS[leaf]
            return inside if e.op == "=" else not inside
        if e.feature not in assignment:
            return False
        if e.op == "=":
            return assignment[e.feature] == e.value
        return assignment[e.feature] != e.value
    if isinstance(e, And):
        return all(eval_spec(x, leaf, assignment) for x in oracle_operands(e))
    if isinstance(e, Or):
        return any(eval_spec(x, leaf, assignment) for x in oracle_operands(e))
    if isinstance(e, Not):
        return eval_neg(e.child, leaf, assignment)
    raise AssertionError(e)


def eval_neg(e: SpecExpr, leaf: str, assignment: dict[str, str]) -> bool:
    """Structural negation: pushed through connectives, flipped at atoms."""
    if isinstance(e, BareAtom):
        f, v = resolve_bare(e.name)
        return eval_neg(Atom(f, "=", v), leaf, assignment)
    if isinstance(e, Atom):
        flipped = Atom(e.feature, "!=" if e.op == "=" else "=", e.value)
        return eval_spec(flipped, leaf, assignment)
    if isinstance(e, And):
        return any(eval_neg(x, leaf, assignment) for x in oracle_operands(e))
    if isinstance(e, Or):
        return all(eval_neg(x, leaf, assignment) for x in oracle_operands(e))
    if isinstance(e, Not):
        return eval_spec(e.child, leaf, assignment)
    raise AssertionError(e)


def oracle_denote(spec: SpecExpr | str,
                  universe=None) -> frozenset[ClassKey]:
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if universe is None:
        universe = oracle_universe()
    return frozenset(class_key(leaf, a) for leaf, a in universe
                     if eval_spec(spec, leaf, a))


# -- independent normal forms -------------------------------------------------


def oracle_nnf(e: SpecExpr, negate: bool = False) -> SpecExpr:
    if isinstance(e, BareAtom):
        f, v = resolve_bare(e.name)
        return oracle_nnf(Atom(f, "=", v), negate)
    if isinstance(e, Atom):
        if not negate:
            return e
        return Atom(e.feature, "!=" if e.op == "=" else "=", e.value)
    if isinstance(e, Not):
        return oracle_nnf(e.child, not negate)
    kind = (Or if isinstance(e, And) else And) if negate else type(e)
    return functools.reduce(kind, [oracle_nnf(x, negate) for x in oracle_operands(e)])


def oracle_dnf(e: SpecExpr) -> list[list[Atom]]:
    e = oracle_nnf(e)

    def walk(x: SpecExpr) -> list[list[Atom]]:
        if isinstance(x, Atom):
            return [[x]]
        if isinstance(x, Or):
            return [d for y in oracle_operands(x) for d in walk(y)]
        if isinstance(x, And):
            first, *rest = oracle_operands(x)
            disjuncts = walk(first)
            for y in rest:
                right = walk(y)
                disjuncts = [l + r for l in disjuncts for r in right]
            return disjuncts
        raise AssertionError(x)

    return walk(e)


def oracle_well_typed(spec: SpecExpr | str) -> bool:
    """Accept iff every DNF disjunct denotes at least one class."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    universe = oracle_universe()
    for disjunct in oracle_dnf(spec):
        conj = disjunct[0]
        for atom in disjunct[1:]:
            conj = And(conj, atom)
        if not oracle_denote(conj, universe):
            return False
    return True


# -- specifications rendered in the former form ----------------------------------

_PRECEDENCE = {Or: 1, And: 2, Not: 3}


def oracle_render_spec(e: SpecExpr) -> str:
    """``render_spec`` in the package's former form: ``_child`` wraps an
    operand in parentheses when its precedence is below its parent's, or
    equal to it and the operand is not the first of its run."""
    return f"[{_render_expr(e)}]"


def _render_expr(e: SpecExpr) -> str:
    if isinstance(e, (Atom, BareAtom)):
        return e.render()
    if isinstance(e, Not):
        return "!" + _child(e.child, 3)
    prec = _PRECEDENCE[type(e)]
    first, *rest = oracle_operands(e)
    return (" & " if type(e) is And else " | ").join(
        [_child(first, prec, left=True)] + [_child(r, prec) for r in rest])


def _child(e: SpecExpr, parent_prec: int, left: bool = False) -> str:
    text = _render_expr(e)
    prec = _PRECEDENCE.get(type(e), 4)
    # same-precedence right children keep their parentheses: '&' and '|'
    # associate to the left, so a right-nested tree must stay explicit
    if prec < parent_prec or (prec == parent_prec and not left):
        return f"({text})"
    return text


# -- tokens, one record per token -------------------------------------------

# The lexer's former form: one named group per token kind, one match object
# and one (kind, text, line, column) record per token.
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


def oracle_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """Each token of ``source`` as (kind, text, line, column), ending with
    EOF; raises the lexer's :class:`SpecSyntaxError` at the first character
    outside the alphabet."""
    tokens = []
    lines = source.split("\n")
    for number, line in enumerate(lines, 1):
        for m in _TOKEN_RE.finditer(line.rstrip(" \t\r")):
            kind = m.lastgroup
            if kind == "COMMENT":
                break
            if kind == "BAD":
                raise SpecSyntaxError([error(
                    "syntax", f"unexpected character {m[kind]!r}",
                    Span(number, m.start(kind) + 1))])
            tokens.append((kind, m[kind], number, m.start(kind) + 1))
    tokens.append(("EOF", "", len(lines), len(lines[-1]) + 1))
    return tokens


# -- rules fixture, scraped independently -------------------------------------

_COVERAGE_RE = re.compile(r"^\[pos = '([^']+)'\]\s*=>\s*(.*)\.\s*$")
_EXCEPTION_RE = re.compile(
    r"^\[([^\]]+)\]\s*<<\s*\[pos = '([^']+)'\]\s*>>\s*(.*)\.\s*$")


@dataclass(frozen=True)
class OracleRules:
    inventory: tuple[str, ...]
    coverage: dict[str, frozenset]                    # tag -> denotation keys
    coverage_text: dict[str, str]
    exceptions: tuple[tuple[tuple[str, ...], str, frozenset], ...]


def oracle_rules(path: Path | None = None) -> OracleRules:
    text = (path or FIXTURES / "upenn.rules").read_text()
    universe = oracle_universe()
    inventory: list[str] = []
    in_tags = False
    coverage: dict[str, frozenset] = {}
    coverage_text: dict[str, str] = {}
    exceptions = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.startswith("tags ") or (in_tags and line.startswith(" ")):
            in_tags = True
            chunk = line[5:] if line.startswith("tags ") else line
            inventory += [t.strip() for t in chunk.split(",") if t.strip()]
            continue
        in_tags = False
        m = _COVERAGE_RE.match(line)
        if m:
            tag, spec = m.group(1), m.group(2).strip()
            coverage[tag] = oracle_denote(spec, universe)
            coverage_text[tag] = spec
            continue
        m = _EXCEPTION_RE.match(line)
        if m:
            words = tuple(w.strip() for w in m.group(1).split(","))
            tag, spec = m.group(2), m.group(3).strip()
            exceptions.append((words, tag, oracle_denote(spec, universe)))
    return OracleRules(tuple(inventory), coverage, coverage_text,
                       tuple(exceptions))


# -- query resolution by set algebra -------------------------------------------


@dataclass(frozen=True)
class OracleResolution:
    patterns: tuple[tuple[str, str | None, tuple[str, ...]], ...]
    noise: dict[str, frozenset]                       # per included tag
    word_noise: dict[tuple[str, tuple[str, ...]], frozenset]
    uncovered: frozenset


def oracle_resolve(rules: OracleRules, s: frozenset) -> OracleResolution:
    patterns = []
    noise: dict[str, frozenset] = {}
    word_noise: dict[tuple[str, tuple[str, ...]], frozenset] = {}
    reachable: frozenset = frozenset()
    for tag in rules.inventory:
        cov = rules.coverage.get(tag, frozenset())
        entries = [(w, t, into) for w, t, into in rules.exceptions if t == tag]
        hits = [(w, into) for w, _, into in entries if into & s]
        if cov & s:
            excluded: list[str] = []
            for w, _, into in entries:
                if not into & s:
                    excluded += [x for x in w if x not in excluded]
            patterns.append((tag, "!=", tuple(excluded)) if excluded
                            else (tag, None, ()))
            reachable |= cov
            if cov - s:
                noise[tag] = cov - s
        elif hits:
            merged: list[str] = []
            for w, _ in hits:
                merged += [x for x in w if x not in merged]
            patterns.append((tag, "=", tuple(merged)))
        for w, into in hits:
            reachable |= into
            if into - s:
                word_noise[(tag, w)] = into - s
    return OracleResolution(tuple(patterns), noise, word_noise,
                            s - reachable)


def key_of(terminal) -> ClassKey:
    return (terminal.leaf, frozenset(terminal.assignment))


def mask_keys(graph, mask: int) -> frozenset:
    return frozenset(key_of(t) for t in graph.classes(mask))


def oracle_masks(graph) -> tuple[dict, dict, dict]:
    """The masks of every atom, feature and hierarchy node of ``graph``, or-ed
    together one bit at a time from a scan of its universe, class by class:
    an atom's mask holds the classes assigning it, a feature's the classes
    assigning it any value and a node's the classes of the leaves below it."""
    atoms = {(f.name, v): 0 for f in graph.features for v in f.values}
    features = {f.name: 0 for f in graph.features}
    nodes = {n: 0 for n in graph.nodes}
    for t in graph.universe:
        bit = 1 << t.index
        for f, v in t.assignment:
            atoms[(f, v)] |= bit
            features[f] |= bit
        for n in root_path(graph, t.leaf):
            nodes[n] |= bit
    return atoms, features, nodes


# -- conjunctive descriptions by per-class scan ----------------------------------


def _has(terminal, feature: str, value: str) -> bool:
    return dict(terminal.assignment).get(feature) == value


def oracle_cover_node(graph, mask: int) -> tuple:
    """(node, atoms, mask, implied_node, sort_key) of ``mask``, class by class.

    The node is the longest common prefix of the classes' root paths, the
    atoms are the features holding one value in every class, in declaration
    order.
    """
    classes = [t for t in graph.universe if mask >> t.index & 1]
    if not classes:
        raise ValueError("cannot describe the empty class set")
    paths = [root_path(graph, t.leaf) for t in classes]
    node = "root"
    for steps in zip(*paths):
        if len(set(steps)) > 1:
            break
        node = steps[0]
    atoms = []
    for f in graph.features:
        vals = {dict(t.assignment).get(f.name) for t in classes}
        if len(vals) == 1 and None not in vals:
            atoms.append((f.name, vals.pop()))
    denoted = sum(1 << t.index for t in graph.universe
                  if all(_has(t, f, v) for f, v in atoms))
    implied = bool(atoms) and denoted == mask
    positions = {f.name: i for i, f in enumerate(graph.features)}
    key = (len(atoms), graph.nodes.index(node),
           tuple((positions[f], graph.features[positions[f]].values.index(v))
                 for f, v in atoms))
    return node, tuple(atoms), mask, implied, key


def oracle_cover_candidates(graph) -> list[tuple]:
    """Descriptions of every non-empty conjunction of a node and at most one
    value per appropriate feature, from the full product of the choices."""
    masks = set()
    for node in graph.nodes:
        path = root_path(graph, node)
        under = [t for t in graph.universe if node in root_path(graph, t.leaf)]
        feats = [f for f in graph.features if f.home in path]
        for combo in itertools.product(*[(None, *f.values) for f in feats]):
            mask = sum(1 << t.index for t in under
                       if all(v is None or _has(t, f.name, v)
                              for f, v in zip(feats, combo)))
            if mask:
                masks.add(mask)
    return sorted((oracle_cover_node(graph, m) for m in masks),
                  key=lambda c: c[4])


@functools.lru_cache(maxsize=8)
def _candidate_table(graph) -> tuple[tuple, ...]:
    return tuple(oracle_cover_candidates(graph))


def oracle_primes(graph, mask: int) -> list[tuple]:
    """Descriptions of the prime conjunctions inside ``mask``, in sort-key
    order: every candidate of the full table whose mask lies inside
    ``mask`` and strictly inside no other such candidate's."""
    inside = [c for c in _candidate_table(graph) if c[2] & ~mask == 0]
    return [c for c in inside
            if not any(o[2] != c[2] and c[2] & ~o[2] == 0 for o in inside)]


def oracle_minimal_cover(graph, mask: int) -> list[tuple]:
    """The canonical minimum cover of ``mask``: the fewest of its
    :func:`oracle_primes` whose masks unite to ``mask``, and of those covers
    the one whose sorted sort keys are lexicographically least.

    Combinations of the sort-key ordered primes are tried smallest size
    first, each size in lexicographic order, so the first one that covers
    is the answer.
    """
    primes = oracle_primes(graph, mask) if mask else []
    for size in range(len(primes) + 1):
        for combo in itertools.combinations(primes, size):
            if functools.reduce(lambda m, c: m | c[2], combo, 0) == mask:
                return list(combo)
    raise AssertionError("the primes of a mask cover it")



def oracle_render_cover(cover) -> str:
    """A cover rendered in the package's former recursive form: one row of
    conjuncts per node, and ``_factor`` pulling out the conjuncts that every
    row holds and handing the rest to ``_factor_groups``, which groups the
    rows by first conjunct and factors each group, one call deeper per
    factored level."""
    if not cover:
        return ""
    return _factor([
        (() if c.atoms and c.implied_node else (f"pos={c.node}",))
        + tuple(f"{f}={v}" for f, v in c.atoms) for c in cover])


def _factor(units: list[tuple[str, ...]]) -> str:
    if len(units) == 1:
        return " & ".join(units[0])
    common = [u for u in units[0] if all(u in rest for rest in units[1:])]
    if common:
        rest = [tuple(u for u in row if u not in common) for row in units]
        return " & ".join(common) + " & (" + _factor_groups(rest) + ")"
    return _factor_groups(units)


def _factor_groups(units: list[tuple[str, ...]]) -> str:
    groups: dict[str, list[tuple[str, ...]]] = {}
    for row in units:
        groups.setdefault(row[0], []).append(row)
    return " | ".join(_factor(rows) for rows in groups.values())

# -- consistency checks, every pair of tags -------------------------------------


def oracle_nondisjoint(rules) -> list[Diagnostic]:
    """The ``nondisjunctive`` warnings of ``rules``: every pair of coverage
    denotations that meet, in inventory order of the first tag, then of the
    second."""
    g = rules.graph
    out = []
    covered = [t for t in rules.inventory if t in rules.coverage]
    for i, a in enumerate(covered):
        ra = rules.coverage[a]
        for b in covered[i + 1:]:
            rb = rules.coverage[b]
            shared = ra.typed.denotation & rb.typed.denotation
            if shared:
                out.append(warning(
                    "nondisjunctive",
                    f"tags {a} and {b} overlap on "
                    f"{render_cover(minimal_cover(shared, g))}",
                    max(ra.span, rb.span)))
    return out


def oracle_hierarchical(rules, assignments) -> list[Diagnostic]:
    """The ``hierarchical`` warnings of ``rules``: for each cover node of each
    tag, the other tags with a cover node strictly inside it, every node
    tested against every other."""
    out = []
    covered = [t for t in rules.inventory if t in rules.coverage]
    for outer in covered:
        for node in assignments[outer]:
            inner = [t for t in covered
                     if t != outer
                     and any(c.mask != node.mask and c.mask & ~node.mask == 0
                             for c in assignments[t])]
            if inner:
                out.append(warning(
                    "hierarchical",
                    f"covering node {node.render()} of tag {outer} strictly "
                    f"contains coverage of {', '.join(inner)}",
                    rules.coverage[outer].span))
    return out


# -- retag command line, read all at once ---------------------------------------


def oracle_retag_cli(rules, corpus: Path, fmt: str = "slash",
                     output: Path | None = None,
                     strict: bool = False) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of ``tagmap retag`` as it ran before it
    streamed: the corpus is read and split in one piece, and every record is
    held until the whole body is written, to ``output`` when given."""
    summary = RetagSummary(notes=rules.notes)
    records: list[str] = []
    err = ""
    for item in retag_lines(rules, corpus.read_text().splitlines(), fmt):
        summary.add(item)
        if isinstance(item, Diagnostic):
            err += item.render() + "\n"
        else:
            records.append(item.render())
    body = "\n".join(records + [summary.render()]) + "\n"
    if output is not None:
        output.write_text(body)
        body = ""
    if summary.holes:
        code = 1
    elif summary.malformed and strict:
        code = 2
    else:
        code = 0
    return code, body, err
