"""Boolean specification expressions over a type graph.

Grammar (``[...]`` around the whole expression is optional)::

    spec   := '[' expr ']' | expr
    expr   := term ('|' term)*
    term   := factor ('&' factor)*
    factor := '!' factor | '(' expr ')' | atom
    atom   := NAME (('=' | '!=') (NAME | NUMBER | QUOTED))?

A bare name resolves through the graph's value index: it is either a
hierarchy node (shorthand for ``pos=<node>``) or a feature value (shorthand
for ``<feature>=<value>``); global name uniqueness makes this unambiguous.

Denotations are closed-world sets of terminal classes, materialised as
bitsets over the graph universe:

* ``f=v`` denotes the classes in which ``f`` is appropriate and equals ``v``;
* ``f!=v`` the classes in which ``f`` is appropriate and differs from ``v``;
* negation is pushed to the atoms structurally (``!(a & b)`` means
  ``!a | !b``), so on an atom it complements within the feature's
  appropriateness domain and De Morgan's laws hold by construction;
* ``&`` intersects and ``|`` unites.

An expression is well-typed when every disjunct of its disjunctive normal
form denotes at least one terminal class; a single contradictory disjunct
rejects the whole specification.  One fold walks an expression for both
:func:`typecheck` and :func:`denote`: it resolves each name, pushes negation
down and combines the atoms with the algebra it is given.  :func:`typecheck`
gives it the DNF, every disjunct with its mask: ``&`` pairs each disjunct on
its left with each on its right and intersects their masks, ``|``
concatenates.  :func:`denote` gives it the masks alone, with ``&`` and ``|``
as bitwise and and or.  The way back, from a set of classes to a
description, is :func:`tagmap.typegraph.minimal_cover`.
"""
from __future__ import annotations

from itertools import accumulate
from operator import and_, iadd, or_
from typing import Callable, NamedTuple, TypeVar

from .diagnostics import (Diagnostic, Span, SpecTypeError, compare_by,
                          compare_first, error)
from .lexer import TokenCursor, tokenize
from .typegraph import POS_FEATURE, TypeGraph


class Atom(NamedTuple):
    feature: str
    op: str                      # "=" or "!="
    value: str
    quoted: bool = False         # value was a quoted literal (physical tag)
    span: Span = Span(1, 1)      # not compared

    __eq__, __ne__, __hash__ = compare_first(4)

    def render(self) -> str:
        value = f"'{self.value}'" if self.quoted else self.value
        return f"{self.feature}{self.op}{value}"


class BareAtom(NamedTuple):
    name: str
    span: Span = Span(1, 1)      # not compared

    __eq__, __ne__, __hash__ = compare_first(1)

    def render(self) -> str:
        return self.name


def _run_repr(e: And | Or) -> str:
    first, *rest = _operands(e)
    return (f"{type(e).__name__}(left=" * len(rest) + repr(first)
            + "".join([f", right={x!r})" for x in rest]))


class And(NamedTuple):
    left: "SpecExpr"
    right: "SpecExpr"

    __eq__, __ne__, __hash__ = compare_by(lambda e: tuple(_operands(e)))
    __repr__ = _run_repr        # the NamedTuple default text, in one loop


class Or(NamedTuple):
    left: "SpecExpr"
    right: "SpecExpr"

    __eq__, __ne__, __hash__ = compare_by(lambda e: tuple(_operands(e)))
    __repr__ = _run_repr


class Not(NamedTuple):
    child: "SpecExpr"

    __eq__, __ne__, __hash__ = compare_first(1)


SpecExpr = Atom | BareAtom | And | Or | Not
T = TypeVar("T")
# a record from its fields, without its class's keyword-handling __new__
_new = tuple.__new__


# -- parsing ---------------------------------------------------------------


def parse_spec(text: str) -> SpecExpr:
    """Parse one specification expression, consuming the entire input."""
    c = tokenize(text)
    e = parse_spec_at(c)
    if c.kind != "EOF":
        c.fail(f"unexpected trailing input {c.text!r}")
    return e


def parse_spec_at(c: TokenCursor) -> SpecExpr:
    if c.kind != "LBRACKET":
        return _parse_expr(c, 0)[0]
    c.advance()
    e, _ = _parse_expr(c, 0)
    c.expect("RBRACKET", "']'")
    return e


# The parsers below return each subtree with its height, the number of
# '!' nodes and runs of '&' or '|' on its longest path, and take the number
# of open parentheses around it. A run of one operator, 'a & b & c', is one
# level however many operands it has: its nodes form a left spine, which
# every later walk follows in a loop. Both are capped: parsing recurses three
# frames per parenthesis, and each later walk one per level of height: the
# one fold that resolves names, pushes negation down and builds the DNF for
# ``typecheck`` or the mask for ``denote``, rendering, '==' and 'hash'. So
# every tree the parser accepts stays inside the default recursion limit.
# Rendering parenthesises nested negations, '!!a' as '!(!a)', which stays
# within the cap as well.
MAX_SPEC_DEPTH = 150


def _deeper(level: int, c: TokenCursor, at: int) -> int:
    # one level more, or past the cap a syntax error at the token ``at``
    if level >= MAX_SPEC_DEPTH:
        c.fail(f"expression nested deeper than {MAX_SPEC_DEPTH} levels", at)
    return level + 1


def _parse_expr(c: TokenCursor, depth: int) -> tuple[SpecExpr, int]:
    # '|' builds an Or of '&' terms, one level above the tallest of them,
    # which past the cap is an error at the first '|'
    e, height = _parse_term(c, depth)
    first = c.pos
    while c.kinds[c.pos] == "PIPE":
        c.advance()
        right, right_height = _parse_term(c, depth)
        e, height = _new(Or, (e, right)), max(height, right_height)
    return e, height if c.pos == first else _deeper(height, c, first)


def _parse_term(c: TokenCursor, depth: int) -> tuple[SpecExpr, int]:
    # '&' builds an And of factors, as '|' does of terms
    e, height = _parse_factor(c, depth)
    first = c.pos
    while c.kinds[c.pos] == "AMP":
        c.advance()
        right, right_height = _parse_factor(c, depth)
        e, height = _new(And, (e, right)), max(height, right_height)
    return e, height if c.pos == first else _deeper(height, c, first)


def _parse_factor(c: TokenCursor, depth: int) -> tuple[SpecExpr, int]:
    kinds, texts, i = c.kinds, c.texts, c.pos
    if kinds[i] == "NAME":
        # an atom, read off the columns: a name, and for a comparison its
        # operator and value
        op = kinds[i + 1]
        if op != "EQ" and op != "NEQ":
            c.pos = i + 1
            return _new(BareAtom, (texts[i], c.span(i))), 0
        c.pos = i + 2
        if kinds[i + 2] not in ("NAME", "NUMBER", "QUOTED"):
            c.fail("expected a value after the comparison")
        c.pos, value, quoted = i + 3, texts[i + 2], kinds[i + 2] == "QUOTED"
        return _new(Atom, (texts[i], "=" if op == "EQ" else "!=",
                           value[1:-1] if quoted else value, quoted, c.span(i))), 0
    # a run of '!' is read in a loop, so its length costs no recursion
    bangs: list[int] = []
    while c.kinds[c.pos] == "BANG":
        _deeper(len(bangs), c, c.pos)
        bangs.append(c.advance())
    if c.kind == "LPAREN":
        paren = c.advance()
        e, height = _parse_expr(c, _deeper(depth, c, paren))
        c.expect("RPAREN", "')'")
    elif c.kind == "NAME":
        e, height = _parse_factor(c, depth)
    else:
        c.fail(f"expected an atom, found {c.text or 'end of input'!r}")
    for op in reversed(bangs):
        e, height = Not(e), _deeper(height, c, op)
    return e, height


def _operands(e: And | Or) -> list[SpecExpr]:
    """The operands, from the left, of the run of one operator at ``e``,
    read down the left spine of its nodes in a loop."""
    kind, operands = type(e), []
    while type(e) is kind:
        operands.append(e.right)
        e = e.left
    operands.append(e)
    operands.reverse()
    return operands


# -- rendering --------------------------------------------------------------

_PREC = {Or: 1, And: 2, Not: 3}


def render_spec(e: SpecExpr) -> str:
    """Canonical bracketed form; reparsing yields a structurally equal AST."""
    return f"[{render_expr(e)}]"


def render_expr(e: SpecExpr, outer: int = 0) -> str:
    """``e`` as text, in parentheses when it is an operand of an operator
    of precedence ``outer`` that binds at least as tightly as its own.  A
    run's first operand never has the run's operator, so this keeps
    'a & (b & c)' and '!(!a)' explicit: '&' and '|' associate to the left."""
    kind = type(e)
    if kind is Not:
        text = "!" + render_expr(e.child, 3)
    elif kind is And or kind is Or:
        prec = _PREC[kind]
        text = (" & " if kind is And else " | ").join(
            [render_expr(x, prec) for x in _operands(e)])
    else:
        return e.render()
    return f"({text})" if _PREC[kind] <= outer else text


# -- typing and denotation ---------------------------------------------------


class TypedSpec(NamedTuple):
    """A well-typed specification with its materialised denotation."""

    expr: SpecExpr
    denotation: int = 0
    dnf: tuple[tuple[Atom, ...], ...] = ()      # not compared

    __eq__, __ne__, __hash__ = compare_first(2)


def typecheck(e: SpecExpr, g: TypeGraph) -> TypedSpec:
    """Resolve, normalise and check ``e``; raise :class:`SpecTypeError` if any
    disjunctive-normal-form disjunct is unsatisfiable in ``g``."""
    diags: list[Diagnostic] = []
    # the DNF as (conjunction, mask) pairs: '&' pairs each disjunct on its
    # left with each on its right, until a name fails to resolve; '|'
    # concatenates in place, since the walk builds every list afresh
    pairs = _walk(e, g, False, diags,
                  lambda atom, g: [] if atom is None else [((atom,), _atom_mask(atom, g))],
                  lambda left, right: [] if diags else [
                      (lc + rc, lm & rm) for lc, lm in left for rc, rm in right],
                  iadd)
    if diags:
        raise SpecTypeError(diags)
    union = 0
    for disjunct, mask in pairs:
        if mask == 0:
            rendered = " & ".join(a.render() for a in disjunct)
            core = tuple(a.render() for a in _conflict_core(disjunct, g))
            if not diags:
                first = rendered, core
            diags.append(error(
                "ill-typed",
                f"unsatisfiable disjunct [{rendered}]: "
                f"{' and '.join(core)} cannot hold together",
                disjunct[0].span))
        union |= mask
    if diags:
        raise SpecTypeError(diags, *first)
    return TypedSpec(e, union, tuple([disjunct for disjunct, _ in pairs]))


def compile_spec(text: str, g: TypeGraph) -> TypedSpec:
    """Parse and typecheck in one step."""
    return typecheck(parse_spec(text), g)


def denote(e: SpecExpr, g: TypeGraph) -> int:
    """Denotation bitset of ``e`` without the satisfiability requirement."""
    diags: list[Diagnostic] = []
    mask = _walk(e, g, False, diags, _atom_mask, and_, or_)
    if diags:
        raise SpecTypeError(diags)
    return mask


def _walk(e: SpecExpr, g: TypeGraph, negated: bool, diags: list[Diagnostic],
          leaf: Callable[[Atom | None, TypeGraph], T],
          meet: Callable[[T, T], T], join: Callable[[T, T], T]) -> T:
    """Fold ``e``, pushing negation down: each atom, resolved and flipped
    under a negation, goes to ``leaf`` (as ``None`` once the reason it does
    not resolve is in ``diags``; the walk goes on, so every one is reported),
    each '&' to ``meet`` and each '|' to ``join``, swapped under a negation."""
    kind = type(e)
    if kind is And or kind is Or:
        combine = meet if (kind is And) != negated else join
        first, *rest = _operands(e)
        result = _walk(first, g, negated, diags, leaf, meet, join)
        for x in rest:
            result = combine(result, _walk(x, g, negated, diags, leaf, meet, join))
        return result
    if kind is Not:
        return _walk(e.child, g, not negated, diags, leaf, meet, join)
    return leaf(_resolve_atom(e, g, negated, diags), g)


def _resolve_atom(e: Atom | BareAtom, g: TypeGraph, negated: bool,
                  diags: list[Diagnostic]) -> Atom | None:
    """``e`` with its name resolved and its comparison flipped under a
    negation, or ``None`` after appending the reason it does not resolve."""
    if type(e) is BareAtom:
        feature = POS_FEATURE if g.is_node(e.name) else g.value_index.get(e.name)
        if feature is None:
            diags.append(error("unknown-name",
                               f"{e.name!r} is neither a hierarchy node nor a feature value",
                               e.span))
            return None
        e = _new(Atom, (feature, "=", e.name, False, e.span))
    elif e.quoted:
        diags.append(error("unknown-value",
                           f"quoted value {e.value!r} is a physical tag and cannot "
                           "appear in a standard-tagset specification", e.span))
        return None
    elif e.feature == POS_FEATURE:
        if not g.is_node(e.value):
            diags.append(error("unknown-value",
                               f"{e.value!r} is not a hierarchy node", e.span))
            return None
    elif (decl := g.feature_map.get(e.feature)) is None:
        diags.append(error("unknown-feature",
                           f"unknown feature {e.feature!r}", e.span))
        return None
    elif e.value not in decl.values:
        diags.append(error("unknown-value",
                           f"{e.value!r} is not a value of feature {e.feature!r}",
                           e.span))
        return None
    if negated:
        return _new(Atom, (e.feature, "!=" if e.op == "=" else "=", e.value,
                           False, e.span))
    return e


def _atom_mask(atom: Atom | None, g: TypeGraph) -> int:
    """The classes ``atom`` holds in, none for an atom that did not resolve."""
    if atom is None:
        return 0
    if atom.feature == POS_FEATURE:
        mask = g.node_mask(atom.value)
        return mask if atom.op == "=" else g.full_mask & ~mask
    mask = g.atom_mask(atom.feature, atom.value)
    if atom.op == "=":
        return mask
    return g.feature_mask(atom.feature) & ~mask


def _conflict_core(disjunct: tuple[Atom, ...], g: TypeGraph) -> tuple[Atom, ...]:
    """Minimal subset of an unsatisfiable conjunction that stays unsatisfiable:
    each atom is kept when those kept before it and all after it meet."""
    masks = [_atom_mask(a, g) for a in disjunct]
    after = list(accumulate(reversed(masks), and_, initial=g.full_mask))[::-1]
    kept, core = g.full_mask, []
    for atom, mask, rest in zip(disjunct, masks, after[1:]):
        if kept & rest:
            kept &= mask
            core.append(atom)
    return tuple(core)
