"""How the package's records compare, hash, freeze and construct.

Positions, class indices, masks and other derived fields stay out of
equality and hashing, a record equals only records of its own type, and the
immutable records refuse assignment.
"""
import dataclasses
import importlib
import pkgutil

import pytest

import tagmap
from tagmap import (
    CorpusToken,
    Diagnostic,
    FeatureDecl,
    MTree,
    RetagRecord,
    RetagSummary,
    Rule,
    RuleSet,
    Span,
    TerminalClass,
    TypedSpec,
    parse_spec,
)
from tagmap.specexpr import And, Atom, BareAtom, Not, Or
from tagmap.typegraph import CoverNode

A, B = BareAtom("a"), BareAtom("b")
TYPED = TypedSpec(A, 1)

# (record, a record equal to it that differs only in fields left out of
# equality, a record unequal to it, a field to assign to)
EQUAL_AND_UNEQUAL = {
    "Diagnostic": (Diagnostic("error", "syntax", "m", Span(2, 3)),
                   Diagnostic("error", "syntax", "m", Span(2, 3)),
                   Diagnostic("error", "syntax", "m", Span(2, 4)), "kind"),
    "FeatureDecl": (FeatureDecl("f", "root", ("v",), span=Span(1, 9)),
                    FeatureDecl("f", "root", ("v",), span=Span(4, 2)),
                    FeatureDecl("f", "root", ("w",)), "values"),
    "TerminalClass": (TerminalClass("n", (("f", "v"),), 0),
                      TerminalClass("n", (("f", "v"),), 7),
                      TerminalClass("n", (("f", "w"),), 0), "leaf"),
    "CoverNode": (CoverNode("n", (("f", "v"),), mask=1, implied_node=True,
                            sort_key=(1,)),
                  CoverNode("n", (("f", "v"),), mask=6),
                  CoverNode("m", (("f", "v"),), mask=1), "mask"),
    "Atom": (Atom("f", "=", "v", span=Span(1, 2)),
             Atom("f", "=", "v", span=Span(3, 4)),
             Atom("f", "!=", "v"), "op"),
    "BareAtom": (BareAtom("a", Span(1, 2)), BareAtom("a", Span(5, 5)),
                 BareAtom("b", Span(1, 2)), "name"),
    "And": (And(A, B), And(BareAtom("a", Span(2, 2)), B), And(B, A), "left"),
    "Or": (Or(A, B), Or(A, BareAtom("b", Span(9, 9))), Or(A, A), "right"),
    "Not": (Not(A), Not(BareAtom("a", Span(3, 1))), Not(B), "child"),
    "TypedSpec": (TypedSpec(A, 3, ((Atom("pos", "=", "a"),),)),
                  TypedSpec(A, 3), TypedSpec(A, 2), "denotation"),
    "Rule": (Rule("NN", TYPED, (), Span(4, 1)), Rule("NN", TYPED, (), Span(8, 1)),
             Rule("NN", TYPED, ("w",), Span(4, 1)), "words"),
    "CorpusToken": (CorpusToken("w", "NN", 3), CorpusToken("w", "NN", 3),
                    CorpusToken("w", "NN", 4), "tag"),
    "RetagRecord": (RetagRecord(CorpusToken("w", "NN"), "[a]", "coverage"),
                    RetagRecord(CorpusToken("w", "NN"), "[a]", "coverage"),
                    RetagRecord(CorpusToken("w", "NN"), "[a]", "coverage",
                                ("underspecified",)), "flags"),
}


def test_parsed_spec_equals_the_same_nodes_without_spans():
    parsed = parse_spec("[!(a & pos=b) | f != 'x']")
    built = Or(Not(And(BareAtom("a"), Atom("pos", "=", "b"))),
               Atom("f", "!=", "x", quoted=True))
    assert parsed == built
    assert hash(parsed) == hash(built)
    assert parsed.right.span != built.right.span


def test_and_is_not_or():
    assert And(A, B) != Or(A, B)
    assert not And(A, B) == Or(A, B)
    assert Not(A) != (A,)
    assert Atom("f", "=", "v") != ("f", "=", "v", False, Span(1, 1))


@pytest.mark.parametrize("name", EQUAL_AND_UNEQUAL)
def test_hash_agrees_with_equality(name):
    record, same, other, _ = EQUAL_AND_UNEQUAL[name]
    assert record == same and not record != same
    assert hash(record) == hash(same)
    assert record != other and not record == other
    assert len({record, same, other}) == 2


@pytest.mark.parametrize("op", ["&", "|"])
def test_a_long_run_compares_and_hashes_without_recursion(op):
    # 2,000 operands are one level of a parsed specification; '==' and
    # 'hash' read the run in a loop, as the parser and the walks do
    text = f" {op} ".join(["a", "b"] * 1000)
    run, same, other = parse_spec(text), parse_spec(text), parse_spec(text + f" {op} a")
    assert run == same and not run != same
    assert hash(run) == hash(same)
    assert run != other and not run == other
    assert len({run, same, other}) == 2
    typed = TypedSpec(run, 1), TypedSpec(same, 1, ((A,),)), TypedSpec(other, 1)
    assert typed[0] == typed[1] != typed[2] and len(set(typed)) == 2
    rules = Rule("NN", typed[0]), Rule("NN", typed[1], span=Span(2, 1)), Rule("NN", typed[2])
    assert rules[0] == rules[1] != rules[2] and len(set(rules)) == 2


def test_records_differing_only_in_span_are_equal():
    assert (FeatureDecl("f", "root", ("v",), (("g", "w"),), Span(1, 1))
            == FeatureDecl("f", "root", ("v",), (("g", "w"),), Span(7, 3)))
    assert Rule("NN", TYPED, span=Span(1, 1)) == Rule("NN", TYPED, span=Span(2, 5))


@pytest.mark.parametrize("name", EQUAL_AND_UNEQUAL)
def test_frozen_records_refuse_assignment(name):
    record, _, other, attr = EQUAL_AND_UNEQUAL[name]
    before = getattr(record, attr)
    with pytest.raises(AttributeError):
        setattr(record, attr, getattr(other, attr))
    assert getattr(record, attr) is before


def test_rule_reading_is_cached_on_a_frozen_rule(rules):
    rule = rules.coverage["NN"]
    assert rule.reading == "[n & (common & sg | mass)]"
    assert rule.reading is rule.reading


def test_keyword_constructors(rules):
    assert CoverNode("v", (), mask=1).mask == 1
    assert RetagSummary(notes={"NN": "n"}).notes == {"NN": "n"}
    assert RetagSummary().noted == {}
    copy = RuleSet(name=rules.name, graph=rules.graph, coverage=rules.coverage,
                   exceptions=rules.exceptions, tag_spans=rules.tag_spans)
    assert copy.warnings == [] and copy.notes == {}
    assert copy.inventory == rules.inventory
    assert copy.word_index == rules.word_index
    assert copy.lookup("NN") is rules.coverage["NN"]
    tree = MTree(rules=copy, assignments={})
    assert tree.diagnostics == [] and tree.unreachable == ()


def test_only_the_resolver_records_are_dataclasses():
    # ``@dataclass`` generates and compiles methods for every class it
    # decorates, which the command line paid on each start; the package's
    # other records are NamedTuples or plain classes.  The resolver's stay
    # dataclasses: ``perfbench/test_perfbench.py`` copies ``Resolution`` and
    # ``NoiseNote`` with ``dataclasses.replace``.
    found = set()
    for info in pkgutil.iter_modules(tagmap.__path__, "tagmap."):
        module = importlib.import_module(info.name)
        found |= {f"{module.__name__}.{name}" for name, value in vars(module).items()
                  if isinstance(value, type) and value.__module__ == module.__name__
                  and dataclasses.is_dataclass(value)}
    assert found == {"tagmap.resolver.TagPattern", "tagmap.resolver.NoiseNote",
                     "tagmap.resolver.Resolution"}
