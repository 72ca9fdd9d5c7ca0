"""Hierarchy compilation and terminal-class enumeration."""

import inspect
import random
import sys
import time
import tracemalloc
from collections import Counter
from functools import cache, reduce
from hashlib import sha256
from itertools import islice
from operator import and_, or_

import gen
import pytest
import ref
from hypothesis import assume, example, given, seed, settings, strategies as st

from tagmap import (
    CompileError,
    TypeGraph,
    build_mtree,
    cli,
    compile_spec,
    minimal_cover,
    parse_rules,
    parse_tagset_definition,
    render_cover,
    render_explain,
    resolve,
    typegraph,
)

from inputs import (guarded_chain, guarded_two_leaf_tagset, nested_tagset,
                    strategy, two_leaf_tagset)
from oracles import (
    FIXTURES,
    key_of,
    oracle_cover_candidates,
    oracle_cover_node,
    oracle_enumerate,
    oracle_masks,
    oracle_minimal_cover,
    oracle_primes,
    oracle_render_cover,
    oracle_universe,
    oracle_universe_keys,
    root_path,
)
from support import doubling_ratios, time_limit

RESTRICTED = """
tagset toy
hierarchy { v }
feature vtype for v { con, prim }
feature vform for v { fin, inf, part }
feature mood for v when vform = fin { ind, subj, imp }
feature tense for v when mood = ind or vform = part { past, pres }
"""


def test_universe_size_and_content(graph):
    assert len(graph.universe) == 89
    assert frozenset(key_of(t) for t in graph.universe) == oracle_universe_keys()


def test_per_leaf_counts(graph):
    got = Counter(t.leaf for t in graph.universe)
    want = Counter(leaf for leaf, _ in oracle_universe())
    assert got == want
    assert got["v"] == 45 and got["pron"] == 12 and got["n"] == 10


def test_leaf_blocks_in_document_order(graph):
    # classes come out grouped by leaf, leaves in source order
    seq = [t.leaf for t in graph.universe]
    blocks = [seq[0]]
    for leaf in seq[1:]:
        if leaf != blocks[-1]:
            blocks.append(leaf)
    assert tuple(blocks) == graph.leaves


def test_within_leaf_declaration_order(graph):
    """Within one leaf the classes follow value declaration order.

    Appropriateness only ever looks at earlier features, so two classes that
    agree on a prefix have the same features set in that prefix; comparing
    padded value-index vectors is therefore a total order that must match
    the enumeration.
    """
    for leaf in graph.leaves:
        feats = [f for f in graph.features if f.home in root_path(graph, leaf)]

        def vector(t):
            assigned = dict(t.assignment)
            return tuple(
                f.values.index(assigned[f.name]) if f.name in assigned else -1
                for f in feats
            )

        block = [t for t in graph.universe if t.leaf == leaf]
        assert [vector(t) for t in block] == sorted(vector(t) for t in block)


def test_first_and_last_class_render(graph):
    assert graph.universe[0].render() == (
        "[pos=v & vtype=aux & vform=fin & mood=ind & tense=past & pers=1]"
    )
    assert graph.universe[-1].render() == "[pos=wadv]"


def test_indices_are_positional(graph):
    assert [t.index for t in graph.universe] == list(range(89))
    assert graph.full_mask == (1 << 89) - 1


def test_class_render_round_trips_through_spec_compiler(graph):
    for t in graph.universe:
        assert compile_spec(t.render(), graph).denotation == 1 << t.index


def test_enumeration_is_deterministic():
    src = (FIXTURES / "eagles-en.tagset").read_text()
    a = parse_tagset_definition(src)
    b = parse_tagset_definition(src)
    assert [t.render() for t in a.universe] == [t.render() for t in b.universe]
    assert a.nodes == b.nodes


def test_universe_is_the_full_mask(graph):
    assert graph.classes(graph.full_mask) == graph.universe
    assert sum(1 << t.index for t in graph.universe) == graph.full_mask


def test_set_up_queries_and_covers_build_no_class_records(monkeypatch, capsys,
                                                          tmp_path):
    # the universe tuple is built on first read, and only tests and
    # ``classes`` read it: set-up, queries and cover searches read a class's
    # atoms from its leaf's digit columns
    ladder = gen.ladder_rules(random.Random(1))
    sessions = [
        ((FIXTURES / "eagles-en.tagset").read_text(),
         (FIXTURES / "upenn.rules").read_text(),
         ["vtype = con & vform = inf | vtype = prim & tense = past",
          "v & !(vform = fin)", "n | pron"]),
        (gen.ladder_tagset(), ladder.text,
         # one query of each shape, disjunctions of up to three conjunctions
         list(islice(gen.ladder_queries(random.Random(1)),
                     len(gen.LADDER_SHAPES)))),
    ]
    for tagset, rules_text, queries in sessions:
        g = parse_tagset_definition(tagset)
        rules = parse_rules(rules_text, g)
        render_explain(build_mtree(rules))
        for query in queries:
            resolve(rules, query).render()
        assert len(g._cover_cache) > 1
        assert "universe" not in vars(g)
    graphs = []

    def parse(source):
        graphs.append(parse_tagset_definition(source))
        return graphs[-1]

    monkeypatch.setattr(cli, "parse_tagset_definition", parse)
    (tmp_path / "ladder.tagset").write_text(gen.ladder_tagset())
    (tmp_path / "ladder.rules").write_text(ladder.text)
    for tagset, rules_path in [
            (FIXTURES / "eagles-en.tagset", FIXTURES / "upenn.rules"),
            (tmp_path / "ladder.tagset", tmp_path / "ladder.rules")]:
        assert cli.main(["compile", "--tagset", str(tagset),
                         "--rules", str(rules_path)]) == 0
    assert capsys.readouterr().out.split("\n")[:2] == [
        "tags: 36, classes: 89, warnings: 0",
        f"tags: {len(ladder.inventory)}, classes: 2187, warnings: 10"]
    assert ["universe" in vars(g) for g in graphs] == [False, False]


def test_ladder_compile_peak_memory():
    # 59,049 classes over three leaves with the same features: a record per
    # class built with the masks peaked at 14.5 MB under tracemalloc, the
    # records built after one expansion shared by the leaves at 8.7 MB, that
    # expansion's assignment tuples with the digits at 2.9 to 3.1 MB, and
    # the digits alone at 0.86 MB
    source = gen.ladder_tagset(9)
    tracemalloc.start()
    try:
        parse_tagset_definition(source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 1024 * 1024


def test_restricted_graph_has_fourteen_classes():
    g = parse_tagset_definition(RESTRICTED)
    assert len(g.universe) == 14
    # 2 vtype x (inf + part x 2 tense + fin x (ind x 2 tense + subj + imp))
    want = set()
    for vt in ("con", "prim"):
        want.add(frozenset({("vtype", vt), ("vform", "inf")}))
        for tn in ("past", "pres"):
            want.add(frozenset({("vtype", vt), ("vform", "part"), ("tense", tn)}))
            want.add(frozenset({("vtype", vt), ("vform", "fin"),
                                ("mood", "ind"), ("tense", tn)}))
        for m in ("subj", "imp"):
            want.add(frozenset({("vtype", vt), ("vform", "fin"), ("mood", m)}))
    assert {frozenset(t.assignment) for t in g.universe} == want


def test_single_feature_graph():
    g = parse_tagset_definition(
        "tagset toy hierarchy { v } feature vtype for v { aux, con, prim }")
    assert [t.render() for t in g.universe] == [
        "[pos=v & vtype=aux]", "[pos=v & vtype=con]", "[pos=v & vtype=prim]"]


def test_bare_root_graph():
    g = parse_tagset_definition("tagset nil hierarchy { }")
    assert len(g.universe) == 1
    assert g.universe[0].leaf == "root"
    assert g.universe[0].assignment == ()
    assert g.universe[0].render() == "[pos=root]"


def test_appropriate_features(graph):
    def names(node):
        return [f.name for f in graph.features_at(node)]

    assert names("v") == ["vtype", "vform", "mood", "tense", "pers"]
    assert names("n") == ["ntype", "num", "case"]
    # declaration order, so the inherited case feature sorts first
    assert names("pron") == ["case", "antec", "type"]
    assert names("adj") == ["degree"]
    assert names("prep") == []
    assert names("root") == []


def test_features_at_an_unknown_node_is_an_error(graph):
    with pytest.raises(ValueError, match="unknown hierarchy node 'nosuch'"):
        graph.features_at("nosuch")


def test_a_trailing_comma_ends_a_value_list():
    g = parse_tagset_definition(
        "tagset t hierarchy { a } feature f for root { x, y, }")
    assert [t.render() for t in g.universe] == ["[pos=a & f=x]", "[pos=a & f=y]"]


def test_node_masks_partition_by_leaf(graph):
    union = 0
    for leaf in graph.leaves:
        m = graph.node_mask(leaf)
        assert m & union == 0
        union |= m
    assert union == graph.full_mask == graph.node_mask("root")


def test_mask_classes_round_trip(graph):
    m = graph.node_mask("pron") | graph.atom_mask("vtype", "aux")
    assert sum(1 << t.index for t in graph.classes(m)) == m


BAD = [
    ("tagset t hierarchy { v n v }", "duplicate-node"),
    ("tagset t hierarchy { pos }", "name-collision"),
    ("tagset t hierarchy { v n } feature n for v { a, b }", "name-collision"),
    ("tagset t hierarchy { v } feature pos for v { a, b }", "name-collision"),
    ("tagset t hierarchy { v } feature gender for v { m, f } "
     "feature gender for v { m2, f2 }", "duplicate-feature"),
    ("tagset t hierarchy { v } feature num for x { sg, pl }", "dangling-home"),
    ("tagset t hierarchy { v } feature num for v { sg, sg }", "duplicate-value"),
    ("tagset t hierarchy { v } feature vform for v { fin, inf } "
     "feature mood for v { fin }", "ambiguous-value"),
    ("tagset t hierarchy { v n } feature num for v { n, sg }", "name-collision"),
    ("tagset t hierarchy { v } feature mood for v when vform = fin { ind } "
     "feature vform for v { fin, inf }", "appropriateness"),
    ("tagset t hierarchy { v } feature mood for v when ghost = fin { ind }",
     "appropriateness"),
    ("tagset t hierarchy { v } feature vform for v { fin, inf } "
     "feature mood for v when vform = xyz { ind }", "appropriateness"),
    ("tagset t hierarchy { v } feature x for v { x }", "name-collision"),
    ("tagset t hierarchy { v ", "syntax"),
    ("tagset t hierarchy { v } feature num for v { }", "syntax"),
    ("tagset t hierarchy { v } junk", "syntax"),
]


@pytest.mark.parametrize("source,kind", BAD)
def test_definition_errors(source, kind):
    with pytest.raises(CompileError) as exc:
        parse_tagset_definition(source)
    assert kind in {d.kind for d in exc.value.diagnostics}
    assert all(d.severity == "error" for d in exc.value.diagnostics
               if d.kind == kind)


def test_errors_are_collected_not_first_only():
    source = ("tagset t hierarchy { v } "
              "feature num for x { sg, pl } "
              "feature deg for v { abs, abs }")
    with pytest.raises(CompileError) as exc:
        parse_tagset_definition(source)
    kinds = {d.kind for d in exc.value.diagnostics}
    assert {"dangling-home", "duplicate-value"} <= kinds


@pytest.mark.parametrize("source,rendered", [
    ("tagset t hierarchy { v n v } feature", [
        "error [duplicate-node] at 1:26: duplicate hierarchy node 'v'",
        "error [syntax] at 1:37: expected feature name, found 'end of input'"]),
    ("tagset t hierarchy { v n v } feature f for v when g = { a }", [
        "error [duplicate-node] at 1:26: duplicate hierarchy node 'v'",
        "error [syntax] at 1:55: expected condition value"]),
    ("tagsets t", ["error [syntax] at 1:1: expected 'tagset', found 'tagsets'"]),
])
def test_syntax_error_keeps_earlier_diagnostics(source, rendered):
    with pytest.raises(CompileError) as exc:
        parse_tagset_definition(source)
    assert [d.render() for d in exc.value.diagnostics] == rendered


@pytest.mark.parametrize("source,rendered", [
    # the syntax error ends the parse, and the node was reported before it
    ("tagset t hierarchy { pos a }\nfeature f for a {", [
        "error [name-collision] at 1:22: 'pos' is reserved for the position "
        "pseudo-feature",
        "error [syntax] at 2:18: expected feature value"]),
    ("tagset t hierarchy { a pos a }", [
        "error [name-collision] at 1:24: 'pos' is reserved for the position "
        "pseudo-feature",
        "error [duplicate-node] at 1:28: duplicate hierarchy node 'a'"]),
])
def test_a_reserved_node_is_reported_at_its_token(source, rendered):
    with pytest.raises(CompileError) as exc:
        parse_tagset_definition(source)
    assert [d.render() for d in exc.value.diagnostics] == rendered


def test_diagnostic_positions_point_into_source():
    with pytest.raises(CompileError) as exc:
        parse_tagset_definition("tagset t\nhierarchy { v n v }")
    d = exc.value.diagnostics[0]
    assert d.span.line == 2
    assert "v" in d.message


# -- conjunctive descriptions --------------------------------------------------


def _described(c):
    return c.node, c.atoms, c.mask, c.implied_node, c.sort_key


GRAPHS = {
    "fixture": parse_tagset_definition((FIXTURES / "eagles-en.tagset").read_text()),
    "restricted": parse_tagset_definition(RESTRICTED),
}


def _masks(g):
    few = st.sets(st.integers(0, len(g.universe) - 1), min_size=1, max_size=4)
    return st.one_of(st.integers(1, g.full_mask),
                     few.map(lambda bits: sum(1 << b for b in bits)))


@pytest.mark.parametrize("name", sorted(GRAPHS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_cover_node_matches_class_scan(name, data):
    g = GRAPHS[name]
    mask = data.draw(_masks(g))
    assert _described(g.cover_node(mask)) == oracle_cover_node(g, mask)


def test_cover_node_rejects_the_empty_mask(graph):
    with pytest.raises(ValueError):
        graph.cover_node(0)


def test_fixture_candidates_match_product_enumeration(graph):
    assert len(graph.cover_candidates) == 224
    assert [_described(c) for c in graph.cover_candidates] == \
        oracle_cover_candidates(graph)


# nested hierarchies of up to 5 nodes and up to 4 features, some of them
# guarded by a disjunction of earlier feature values
TAGSETS = strategy(nested_tagset, nodes=(0, 5), features=(0, 4)).map(
    lambda drawn: drawn[0])


@given(TAGSETS)
@settings(max_examples=80, deadline=None)
def test_cover_candidates_match_product_enumeration(source):
    g = parse_tagset_definition(source)
    assert [_described(c) for c in g.cover_candidates] == \
        oracle_cover_candidates(g)
    for node in g.nodes:
        path = root_path(g, node)
        assert g.features_at(node) == tuple(f for f in g.features
                                            if f.home in path)


def _assert_masks_match(g):
    atoms, features, nodes = oracle_masks(g)
    assert {a: g.atom_mask(*a) for a in atoms} == atoms
    assert {f: g.feature_mask(f) for f in features} == features
    assert {n: g.node_mask(n) for n in nodes} == nodes


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_masks_match_class_scan(name):
    _assert_masks_match(GRAPHS[name])


@given(TAGSETS)
@settings(max_examples=80, deadline=None)
def test_masks_match_class_scan_on_random_tagsets(source):
    _assert_masks_match(parse_tagset_definition(source))


@given(TAGSETS)
# a one-value feature between multi-value ones that every class takes
@example(two_leaf_tagset("f0 { x, y }", "f1 { w }", "f2 { p, q, r }"))
# a multi-value feature guarded by an atom that a later feature spread
@example(two_leaf_tagset("f0 { x, y }", "f1 { p, q }",
                         "f2 when f0 = x { s, t }"))
# taker steps, one-value and multi-value, then features that every class
# takes, the last a one-value one
@example(two_leaf_tagset("f0 { x, y }", "f1 when f0 = y { w }",
                         "f2 when f1 = w { u }", "f3 when f1 = w { s, t }",
                         "f4 { p, q }", "f5 { z }"))
# a guard that holds in every class, though no one atom of it does
@example(two_leaf_tagset("f0 { x, y }", "f1 when f0 = x or f0 = y { p, q }",
                         "f2 { s, t }"))
# a one-value feature that every class takes, then a guard that only some
# classes hold; a one-value taker step; then one-value and multi-value
# features that every class takes
@example(two_leaf_tagset("f0 { w }", "f1 { x, y }", "f2 when f1 = x { s }",
                         "f3 { z }", "f4 { p, q }"))
# a guard held everywhere, so every class takes the feature, then a taker
# step whose guard a later feature spread
@example(two_leaf_tagset("f0 { w }", "f1 { x, y }", "f2 when f0 = w { p, q }",
                         "f3 when f1 = y { s, t }"))
# one-value features alone that every class takes, after a one-value taker
# step, then a guard that only some classes hold, read as it was written
@example(two_leaf_tagset("f0 { x, y }", "f1 when f0 = x { p }", "f2 { w }",
                         "f3 { z }", "f4 when f1 = p { s, t }"))
# a one-value feature guarded by a one-value atom every class holds,
# between multi-value features that every class takes
@example(two_leaf_tagset("f0 { x, y }", "f1 { w }", "f2 when f1 = w { u }",
                         "f3 { p, q }", "f4 when f3 = p { s, t }"))
# guards that read atoms spread by different factors since,
# one of them around a taker step
@example(two_leaf_tagset("f0 { x, y }", "f1 { p, q, r }",
                         "f2 when f0 = x { s, t }", "f3 { u, v }",
                         "f4 when f1 = q or f3 = v { m, n }"))
@settings(max_examples=80, deadline=None)
def test_universe_matches_brute_force_on_random_tagsets(source):
    g = parse_tagset_definition(source)
    assert [(t.leaf, t.assignment, t.index) for t in g.universe] == \
        oracle_enumerate(g)
    _assert_masks_match(g)


@given(source=st.one_of(TAGSETS, strategy(guarded_two_leaf_tagset)),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_classes_read_from_the_leaves_match_the_universe(source, data):
    g = parse_tagset_definition(source)
    read = [g._class_at(i) for i in range(g.full_mask.bit_length())]
    assert "universe" not in vars(g)
    assert read == [(leaf, assignment) for leaf, assignment, _ in
                    oracle_enumerate(g)]
    for _ in range(3):
        mask = data.draw(_masks(g))
        assert g.classes(mask) == tuple(t for t in g.universe
                                        if mask >> t.index & 1)


@pytest.mark.parametrize("n_features", [5, 6])
def test_ladder_universe_matches_the_benchmark_classes(n_features):
    g = parse_tagset_definition(gen.ladder_tagset(n_features))
    assert [(t.leaf, dict(t.assignment)) for t in g.universe] == \
        gen.ladder_classes(n_features)
    assert [[f for f, _ in t.assignment] for t in g.universe] == \
        [[f"f{i}" for i in range(n_features)]] * len(g.universe)
    _assert_masks_match(g)


def _assert_primes_match(g, mask):
    """Each class of ``mask`` has, in order, the full table's primes of
    ``mask`` that contain it."""
    expected = oracle_primes(g, mask)
    for t in g.classes(mask):
        assert [_described(c) for c in g.primes_containing(t.index, mask)] == \
            [c for c in expected if c[2] >> t.index & 1]


@pytest.mark.parametrize("name", sorted(GRAPHS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_primes_match_full_table(name, data):
    g = GRAPHS[name]
    mask = data.draw(_masks(g))
    _assert_primes_match(g, mask)


@pytest.mark.parametrize("name", sorted(GRAPHS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_primes_of_candidate_unions_match_full_table(name, data):
    # unions of a few candidates are the masks rules and queries denote
    g = GRAPHS[name]
    picks = data.draw(st.lists(st.sampled_from(g.cover_candidates),
                               min_size=1, max_size=4))
    mask = 0
    for c in picks:
        mask |= c.mask
    _assert_primes_match(g, mask)


@given(source=TAGSETS, data=st.data())
@settings(max_examples=80, deadline=None)
def test_primes_match_full_table_on_random_tagsets(source, data):
    g = parse_tagset_definition(source)
    mask = data.draw(_masks(g))
    _assert_primes_match(g, mask)


def _assert_conjunctions_are_their_own_primes(g):
    for c in g.cover_candidates:
        _assert_primes_match(g, c.mask)
        for t in g.classes(c.mask):
            assert [p.mask for p in g.primes_containing(t.index, c.mask)] == \
                [c.mask]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_every_conjunction_is_its_own_only_prime(name):
    _assert_conjunctions_are_their_own_primes(GRAPHS[name])


@given(TAGSETS)
@settings(max_examples=80, deadline=None)
def test_every_conjunction_is_its_own_only_prime_on_random_tagsets(source):
    _assert_conjunctions_are_their_own_primes(parse_tagset_definition(source))


def test_the_full_mask_is_its_own_prime(graph):
    for t in graph.universe:
        assert [c.render() for c in
                graph.primes_containing(t.index, graph.full_mask)] == ["pos=root"]


def test_primes_share_one_description_per_mask(graph):
    mask = graph.node_mask("v") | graph.node_mask("n")
    verb = graph.classes(graph.node_mask("v"))[0].index
    noun = graph.classes(graph.node_mask("n"))[0].index
    first = graph.primes_containing(verb, mask)
    again = graph.primes_containing(verb, mask)
    assert [c.render() for c in first] == ["pos=v"]
    assert [c.render() for c in graph.primes_containing(noun, mask)] == ["pos=n"]
    assert first[0] is again[0]
    # the description is shared between the classes of one prime too
    other = graph.classes(graph.node_mask("v"))[-1].index
    assert graph.primes_containing(other, mask)[0] is first[0]


def test_primes_of_a_described_prime_build_no_cover_node(monkeypatch):
    # once a prime is described, searching its class's primes again builds
    # no description: an ancestor's closure is read as a mask
    g = parse_tagset_definition((FIXTURES / "eagles-en.tagset").read_text())
    built, real = [], typegraph.CoverNode

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(typegraph, "CoverNode", counting)
    target = g.node_mask("v") & ~g.atom_mask("vform", "inf")
    low = (target & -target).bit_length() - 1
    first = g.primes_containing(low, target)
    del built[:]
    assert g.primes_containing(low, target) == first
    assert built == []


# -- minimum covers ------------------------------------------------------------


LADDER = parse_tagset_definition(gen.ladder_tagset(2))


def _assert_canonical_cover(g, mask):
    assert [_described(c) for c in minimal_cover(mask, g)] == \
        oracle_minimal_cover(g, mask)


@given(mask=st.one_of(
    st.integers(1, LADDER.full_mask),
    # dense masks, the full one less a few classes, have the most primes
    st.sets(st.integers(0, len(LADDER.universe) - 1), min_size=1, max_size=5)
    .map(lambda bits: LADDER.full_mask & ~sum(1 << b for b in bits))))
# the first cover found depth-first has 8 primes, the minimum 7
@example(mask=8453607)
@settings(max_examples=150, deadline=None)
def test_cover_is_canonical_on_ladder_masks(mask):
    _assert_canonical_cover(LADDER, mask)


@pytest.mark.parametrize("name", sorted(GRAPHS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_cover_is_canonical_on_candidate_unions(name, data):
    g = GRAPHS[name]
    picks = data.draw(st.lists(st.sampled_from(g.cover_candidates),
                               min_size=1, max_size=3))
    mask = 0
    for c in picks:
        mask |= c.mask
    _assert_canonical_cover(g, mask)


@given(source=TAGSETS, data=st.data())
@settings(max_examples=150, deadline=None)
def test_cover_is_canonical_on_random_tagsets(source, data):
    # guarded features and nested hierarchies; the oracle tries every
    # combination of primes, so the universe is kept small
    g = parse_tagset_definition(source)
    assume(len(g.universe) <= 20)
    _assert_canonical_cover(g, data.draw(st.integers(1, g.full_mask)))


@given(source=TAGSETS, data=st.data())
@settings(max_examples=80, deadline=None)
def test_conjunction_cover_is_its_one_prime_on_random_tagsets(source, data):
    # a node and at most one value per appropriate feature; the mask such a
    # conjunction denotes is answered without the search
    g = parse_tagset_definition(source)
    node = data.draw(st.sampled_from(g.nodes))
    mask = g.node_mask(node)
    for f in g.features_at(node):
        value = data.draw(st.sampled_from((None, *f.values)))
        if value is not None:
            mask &= g.atom_mask(f.name, value)
    assume(mask)
    _assert_canonical_cover(g, mask)
    assert [c.mask for c in minimal_cover(mask, g)] == [mask]


def test_cover_ties_go_to_the_least_sort_keys():
    # two covers of six primes; the one whose sorted keys come first wins
    mask = LADDER.full_mask & ~(1 << 9 | 1 << 12 | 1 << 25)
    _assert_canonical_cover(LADDER, mask)
    assert render_cover(minimal_cover(mask, LADDER)) == (
        "pos=l0 | f1=v1_2 | pos=l1 & f0=v0_2 | pos=l2 & f1=v1_0"
        " | f0=v0_0 & f1=v1_1 | f0=v0_1 & f1=v1_1")


# the graphs whose covers are rendered against the recursive oracle, the
# guarded chain built only when its example runs
RENDER_GRAPHS = {
    "fixture": lambda: GRAPHS["fixture"],
    "ladder 3": lambda: parse_tagset_definition(gen.ladder_tagset(3)),
    "ladder 4": lambda: parse_tagset_definition(gen.ladder_tagset(4)),
    "guarded chain 250": lambda: parse_tagset_definition(guarded_chain(250)[0]),
}


@cache
def _render_graph(name):
    return RENDER_GRAPHS[name]()


@st.composite
def _candidate_unions(draw):
    """A graph's name and one to six of its conjunctions, each a node and
    its atoms, drawn from its candidate table."""
    name = draw(st.sampled_from(["fixture", "ladder 3", "ladder 4"]))
    picks = st.sampled_from(_render_graph(name).cover_candidates)
    return name, tuple((c.node, c.atoms)
                       for c in draw(st.lists(picks, min_size=1, max_size=6)))


@given(case=_candidate_unions())
# the hole of a chain of 250 guarded features, every f<i>=a<i> and the
# class of every middle value: 249 factored groups, one inside the next
@example(case=("guarded chain 250",
               tuple(("root", ((f"f{i}", f"a{i}"),)) for i in range(250))
               + (("root", (("f249", "b249"),)),)))
@settings(max_examples=200, deadline=None)
@seed(31)
def test_render_cover_matches_the_recursive_oracle(case):
    name, conjunctions = case
    g = _render_graph(name)
    mask = 0
    for node, atoms in conjunctions:
        mask |= reduce(and_, (g.atom_mask(f, v) for f, v in atoms),
                       g.node_mask(node))
    cover = minimal_cover(mask, g)
    # the renderer keeps the groups it has still to write in a list, while
    # the oracle recurses three frames per factored level
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        rendered = render_cover(cover)
        sys.setrecursionlimit(limit + 3 * len(cover))
        assert rendered == oracle_render_cover(cover)
    finally:
        sys.setrecursionlimit(limit)
    assert [c.render() for c in cover] == [oracle_render_cover((c,)) for c in cover]


# -- size limits ---------------------------------------------------------------


def _one_value_features(n):
    return "tagset wide hierarchy { a b }\n" + "\n".join(
        f"feature f{i} for root {{ v{i} }}" for i in range(n))


def test_forty_one_value_features_compile_promptly():
    # the full product of (unset | value) choices has 2**40 members
    with time_limit(10):
        g = parse_tagset_definition(_one_value_features(40))
    assert len(g.universe) == 2
    assert [c.render() for c in g.cover_candidates] == [
        " & ".join(f"f{i}=v{i}" for i in range(40)),
        "pos=a & " + " & ".join(f"f{i}=v{i}" for i in range(40)),
        "pos=b & " + " & ".join(f"f{i}=v{i}" for i in range(40)),
    ]


def test_seven_feature_ladder_compiles_within_a_second():
    # the full candidate table of this tagset has 4**7 conjunctions per node
    with time_limit(1):
        g = parse_tagset_definition(gen.ladder_tagset(7))
    assert len(g.universe) == 3 * 3 ** 7


def test_nine_feature_ladder_compiles_in_time_linear_in_its_classes():
    # 59,049 classes; or-ing every class's bit into universe-wide masks one
    # at a time took about 1 s here, writing each mask as a numeral and
    # converting it once about 0.2 s
    with time_limit(1):
        g = parse_tagset_definition(gen.ladder_tagset(9))
    assert len(g.universe) == 3 ** 10
    assert g.atom_mask("f8", "v8_2").bit_count() == 3 ** 9


def test_conjunction_cover_on_eight_feature_ladder_is_prompt():
    # a cover search that walks every conjunction of the root straddling
    # this mask visits about 4**7 states, 0.7 s here
    g = parse_tagset_definition(gen.ladder_tagset(8))
    spec = compile_spec("[f4=v4_2 & f5=v5_0]", g)
    with time_limit(0.1):
        cover = minimal_cover(spec.denotation, g)
    assert render_cover(cover) == "f4=v4_2 & f5=v5_0"


def test_union_cover_on_eight_feature_ladder_is_prompt():
    # the straddling conjunctions of a union number about 4**7 per node; the
    # primes of each class the cover search branches on are a few
    g = parse_tagset_definition(gen.ladder_tagset(8))
    spec = compile_spec("[pos=l0 | f1=v1_0]", g)
    with time_limit(0.05):
        cover = minimal_cover(spec.denotation, g)
    assert render_cover(cover) == "pos=l0 | f1=v1_0"


def test_union_cover_on_deep_chain_is_prompt():
    # hierarchy { b1 a1 { b2 a2 { ... } } } with a one-value feature homed at
    # every a<i>: a search from the root over the atoms of features homed
    # below it visits every increasing subset of them, about 2**28 states
    depth = 30
    source = ("tagset chain hierarchy { "
              + " ".join(f"b{i} a{i} {{" for i in range(1, depth + 1))
              + " }" * depth + " }\n"
              + "\n".join(f"feature g{i} for a{i} {{ w{i} }}"
                          for i in range(1, depth + 1)))
    g = parse_tagset_definition(source)
    mask = g.node_mask("b1") | g.node_mask("a30")
    with time_limit(0.25):
        cover = minimal_cover(mask, g)
    assert render_cover(cover) == "pos=b1 | " + " & ".join(
        f"g{i}=w{i}" for i in range(1, depth + 1))


def test_cover_of_a_guarded_chain_is_prompt():
    # 40 three-value features, each appropriate only under the middle value
    # of the one before: every class holding f<i>=a<i> is its own prime.  A
    # prime search adding atoms in declaration order took 3.9 s with 22
    # features on a shared 2-core VM, and doubled with each feature more;
    # branching on the lowest class outside, 2 ms with 40
    n = 40
    g = parse_tagset_definition(guarded_chain(n)[0])
    mask = reduce(or_, (g.atom_mask(f"f{i}", f"a{i}") for i in range(n)))
    with time_limit(0.5):
        cover = minimal_cover(mask, g)
    assert sorted(c.mask for c in cover) == sorted(
        g.atom_mask(f"f{i}", f"a{i}") for i in range(n))


def test_cover_of_many_primes_needs_no_recursion():
    # every other class of a 2,400-value feature over two leaves: the cover
    # is one prime per value kept, more than a search that recursed once per
    # chosen prime could stack, and its rendering is one flat run of '|',
    # one level however long, so it reads back in
    g = parse_tagset_definition(
        "tagset wide hierarchy { a b }\nfeature f for root { "
        + ", ".join(f"v{i}" for i in range(2400)) + " }")
    mask = sum(1 << i for i in range(0, len(g.universe), 2))
    cover = minimal_cover(mask, g)
    assert len(cover) == 1200
    rendered = render_cover(cover)
    assert rendered == " | ".join(f"f=v{i}" for i in range(0, 2400, 2))
    assert compile_spec(rendered, g).denotation == mask


# the digest of each rendered cover is that of the search before it excluded
# the primes already branched on, which reached every cover in 28 s and 1.6 s
@pytest.mark.parametrize("seed, size, digest", [
    (1, 473, "e748c7db58e0d43ace26b801f42d55bdf351d773e7288104133fa2c57a797c51"),
    (2, 461, "f8941aeec73e9c6c9254a7487cafc113395c9b8e82b1871e5aa275e2e6c64743"),
], ids=["seed1", "seed2"])
def test_sparse_random_ladder_cover_is_prompt(seed, size, digest):
    # about 30% of the 2,187 classes of the six-feature ladder; a search
    # that reaches one set of primes in every order of its choices takes
    # seconds
    g = parse_tagset_definition(gen.ladder_tagset())
    rng = random.Random(seed)
    mask = sum(1 << i for i in range(len(g.universe)) if rng.random() < 0.3)
    with time_limit(0.5):
        cover = minimal_cover(mask, g)
    assert len(cover) == size
    assert reduce(or_, (c.mask for c in cover)) == mask
    assert sha256(render_cover(cover).encode()).hexdigest() == digest


def test_ladder_query_noise_covers_are_prompt():
    # query 11 of the benchmark's seed-1 ladder stream: one of its noise
    # masks has 24 primes, which a search without exclusion reached as
    # 41,455 complete covers in 1.75 s
    rules_gen = gen.ladder_rules(random.Random("1:rules"))
    g = parse_tagset_definition(gen.ladder_tagset())
    rules = parse_rules(rules_gen.text, g)
    text = next(islice(gen.ladder_queries(random.Random("1:stream")), 11, None))
    assert text == "(f4=v4_2 & f2=v2_1) | (f3=v3_2 & f5=v5_2)"
    with time_limit(1):
        res = resolve(rules, text)
    reference = ref.ladder_reference(gen.ladder_classes(), gen.LADDER_LEAVES,
                                     rules_gen)
    assert ref.check_query(reference, g, text, res, res.render()) == []


def test_many_features_compile_one_class_per_leaf():
    g = parse_tagset_definition(_one_value_features(1100))
    assert [t.leaf for t in g.universe] == ["a", "b"]
    assert all(len(t.assignment) == 1100 for t in g.universe)


def test_universe_bound_counts_classes_across_leaves(monkeypatch):
    # leaf a has 4 classes (h applies only where f=x) and leaf b 12; b
    # alone fits under 15, but not beside a
    source = ("tagset t hierarchy { a b }\nfeature f for root { x, y, z }\n"
              "feature h for root when f=x { p, q }\n"
              "feature g for b { u, v, w }\n")
    monkeypatch.setattr(typegraph, "MAX_CLASSES", 16)
    assert len(parse_tagset_definition(source).universe) == 16
    monkeypatch.setattr(typegraph, "MAX_CLASSES", 15)
    with pytest.raises(CompileError) as exc:
        parse_tagset_definition(source)
    assert [d.render() for d in exc.value.diagnostics] == [
        "error [universe-too-large] at 4:9: feature 'g' takes the tagset "
        "past 15 terminal classes"]


def test_universe_bound_counts_a_shared_expansion(monkeypatch):
    # sibling leaves a and b share one expansion of 4 classes (h applies
    # only where f=x); b's does not fit in the 3 that a leaves under 7, and
    # is expanded again to name the feature that takes it past
    source = ("tagset t hierarchy { a b }\nfeature f for root { x, y, z }\n"
              "feature h for root when f=x { p, q }\n")
    monkeypatch.setattr(typegraph, "MAX_CLASSES", 8)
    g = parse_tagset_definition(source)
    a, b = ([t.assignment for t in g.classes(g.node_mask(leaf))]
            for leaf in "ab")
    assert a == b and len(a) == 4
    monkeypatch.setattr(typegraph, "MAX_CLASSES", 7)
    with pytest.raises(CompileError) as exc:
        parse_tagset_definition(source)
    assert [d.render() for d in exc.value.diagnostics] == [
        "error [universe-too-large] at 3:9: feature 'h' takes the tagset "
        "past 7 terminal classes"]


def test_universe_bound_counts_leaves_without_features(monkeypatch):
    # leaves a and b fill the bound of 2, so c's one class is one too many;
    # a leaf keeps no span, so the error has no position
    monkeypatch.setattr(typegraph, "MAX_CLASSES", 2)
    with pytest.raises(CompileError) as exc:
        parse_tagset_definition("tagset t hierarchy { a b c }\n")
    assert [d.render() for d in exc.value.diagnostics] == [
        "error [universe-too-large]: leaf 'c' takes the tagset past 2 "
        "terminal classes"]


def test_universe_bound_reports_the_first_feature_of_a_leaf_past_it(
        monkeypatch):
    # leaves a and b fill the bound of 2, so c's first feature is reported
    # by the expansion that has no room left
    monkeypatch.setattr(typegraph, "MAX_CLASSES", 2)
    with pytest.raises(CompileError) as exc:
        parse_tagset_definition("tagset t hierarchy { a b c }\n"
                                "feature f for c { x, y }\n")
    assert [d.render() for d in exc.value.diagnostics] == [
        "error [universe-too-large] at 2:9: feature 'f' takes the tagset "
        "past 2 terminal classes"]


def test_nine_feature_ladder_is_within_the_universe_bound():
    g = parse_tagset_definition(gen.ladder_tagset(9))
    assert len(g.universe) == 3 ** 10


def test_six_thousand_one_value_features_expand_in_linear_time():
    # one leaf, a two-value feature, then 6,000 one-value features with a
    # guarded one in the middle: copying each class's partial assignment at
    # every feature took 95 to 175 ms here to build the graph, adding each
    # run of one-value features in one copy 11 to 28 ms.  A one-value
    # feature that every class takes keeps no step, and its atom is written
    # as one digit, tiled at the end.  The fastest of seven builds is
    # bounded, so that a spell of load cannot fail it.
    n = 6000
    ones = [(f"f{i}", f"v{i}") for i in range(n)]
    source = ("tagset wide\nhierarchy { a }\nfeature r for root { x, y }\n"
              + "".join(f"feature {f} for root {{ {v} }}\n" for f, v in ones[:n // 2])
              + "feature g for root when r=x { w }\n"
              + "".join(f"feature {f} for root {{ {v} }}\n" for f, v in ones[n // 2:]))
    g = parse_tagset_definition(source)
    took = []
    for _ in range(7):
        with time_limit(2):
            start = time.perf_counter()
            again = TypeGraph(g.name, {"root": None, "a": "root"}, g.features)
            took.append(time.perf_counter() - start)
    assert min(took) < 0.05, took
    for graph in (g, again):
        assert [(t.leaf, t.assignment, t.index) for t in graph.universe] == [
            ("a", (("r", "x"), *ones[:n // 2], ("g", "w"), *ones[n // 2:]), 0),
            ("a", (("r", "y"), *ones), 1)]


def test_guarded_chain_of_one_value_features_expands_in_linear_time():
    # each of 6,000 one-value features guarded by the one before: copying
    # the partial assignment at every guarded feature took 0.9 to 1.2 s on
    # a shared 2-core VM, holding back each one whose guard an atom held
    # already satisfies 23 to 29 ms
    n = 6000
    ones = [(f"f{i}", f"v{i}") for i in range(n)]
    source = ("tagset chain\nhierarchy { a }\nfeature f0 for root { v0 }\n"
              + "".join(f"feature f{i} for root when f{i - 1}=v{i - 1} {{ v{i} }}\n"
                        for i in range(1, n)))
    g = parse_tagset_definition(source)
    with time_limit(0.25):
        again = TypeGraph(g.name, {"root": None, "a": "root"}, g.features)
    for graph in (g, again):
        assert [(t.leaf, t.assignment, t.index) for t in graph.universe] == [
            ("a", tuple(ones), 0)]


def _guarded_chain(n):
    """``n`` one-value features, each guarded by the one before, the first
    by an atom that holds in one class of two."""
    return ("tagset chain\nhierarchy { a }\nfeature r for root { x, y }\n"
            "feature f0 for root when r=x { v0 }\n"
            + "".join(f"feature f{i} for root when f{i - 1}=v{i - 1} {{ v{i} }}\n"
                      for i in range(1, n)))


def test_guarded_chain_from_a_partial_guard_compiles_in_linear_time():
    # copying each taking class's partial assignment at every feature, and
    # scanning it for the guard, took 108, 313 and 979 ms to parse and
    # compile 1,500, 3,000 and 6,000 features on a shared 2-core VM; adding
    # the chain's atoms in one copy, 46, 95 and 189 ms
    assert [(t.assignment, t.index) for t in
            parse_tagset_definition(_guarded_chain(3)).universe] == [
        ((("r", "x"), ("f0", "v0"), ("f1", "v1"), ("f2", "v2")), 0),
        ((("r", "y"),), 1)]
    ratios = doubling_ratios(parse_tagset_definition,
                             [_guarded_chain(n) for n in (1500, 3000, 6000)],
                             repeats=5)
    assert all(r < 2.5 for r in ratios), ratios


def _digits_spread(monkeypatch, sources):
    """The digits that ``typegraph._spread``, the one helper that spreads
    an atom's digits through later features, writes to compile each of
    ``sources``."""
    spread, counts = typegraph._spread, []

    def counting(*args):
        digits = spread(*args)
        counts[-1] += len(digits)
        return digits

    monkeypatch.setattr(typegraph, "_spread", counting)
    for source in sources:
        counts.append(0)
        parse_tagset_definition(source)
    return counts


def test_a_guarded_chain_spreads_each_atom_once(monkeypatch):
    # the counter twin of the guarded-chain compile: its 3n atoms of 2n + 1
    # digits are each spread once, so the work is quadratic, where
    # re-spreading every atom at each guarded feature made it cubic
    counts = _digits_spread(monkeypatch, [guarded_chain(n)[0] for n in (100, 200, 400)])
    assert counts[0] and all(b <= 4.5 * a for a, b in zip(counts, counts[1:])), counts


def test_guarded_chain_from_a_partial_guard_spreads_linear_work(monkeypatch):
    # the counter twin of the doubling test above, on the same chains
    counts = _digits_spread(monkeypatch, [_guarded_chain(n) for n in (1500, 3000, 6000)])
    assert counts[0] and all(b <= 2.2 * a for a, b in zip(counts, counts[1:])), counts


def _held_guards(guarded):
    """A one-value feature and nine three-value ones over three leaves,
    each of the nine guarded by the one-value atom when ``guarded``."""
    guard = " when g = w" if guarded else ""
    return ("tagset held\nhierarchy { a b c }\nfeature g for root { w }\n"
            + "".join(f"feature f{i} for root{guard} {{ x{i}, y{i}, z{i} }}\n"
                      for i in range(9)))


def test_a_guard_every_class_holds_leaves_the_run_pending():
    # a guard on a one-value atom that every class holds lets every class
    # take the feature; flushing a pending run at each of the nine guards built
    # the guarded graph 3 to 4 times slower than the unguarded one on a
    # shared 2-core VM, skipping the flush about as fast, and reading the
    # atom at the spread it has grown to about as fast again
    parents = {"root": None, "a": "root", "b": "root", "c": "root"}
    unguarded, guarded = (parse_tagset_definition(_held_guards(held))
                          for held in (False, True))
    assert guarded.full_mask == unguarded.full_mask == (1 << 3 ** 10) - 1
    assert all(guarded.atom_mask(f.name, v) == unguarded.atom_mask(f.name, v)
               for f in unguarded.features for v in f.values)
    ratio, = doubling_ratios(
        lambda g: TypeGraph(g.name, parents, g.features),
        [unguarded, guarded])
    assert ratio < 2, ratio


def test_compile_time_is_linear_in_the_number_of_classes():
    # one leaf and 12, 13 and 14 two-value features: 4,096 to 16,384 classes
    sources = ["tagset twos\nhierarchy { a }\n" + "".join(
        f"feature f{i} for root {{ x{i}, y{i} }}\n" for i in range(k))
        for k in (12, 13, 14)]
    ratios = doubling_ratios(parse_tagset_definition, sources)
    assert all(r < 3 for r in ratios), ratios


def test_classes_is_linear_in_the_universe():
    # the full masks of 6,561, 19,683 and 59,049 classes: shifting the whole
    # mask once per class read ratios of 5.9 to 12.2 and 6.8 to 7.4 on a
    # shared 2-core VM, reading its binary numeral once 2.5 to 3.0 and 2.9
    # to 3.3
    graphs = [parse_tagset_definition(gen.ladder_tagset(n)) for n in (7, 8, 9)]
    g = graphs[0]
    mask = g.atom_mask("f0", "v0_1") | g.node_mask("l2")
    assert g.classes(mask) == tuple(t for t in g.universe if mask >> t.index & 1)
    assert g.classes(0) == ()
    ratios = doubling_ratios(lambda g: g.classes(g.full_mask), graphs)
    assert all(r < 5 for r in ratios), ratios


def test_deep_hierarchy_memory_is_linear_in_depth():
    # a chain with a one-value feature homed at every node: storing every
    # root path, or every node's feature tuple, costs depth**2 / 2
    # references, 35 to 40 MB (linear storage keeps about 4 MB), and a cover
    # search that walks the root path of every node for its features, or
    # filters the class's atoms afresh at every ancestor, takes time
    # quadratic in the depth, 0.4 to 0.8 s here
    depth = 3000
    source = ("tagset deep hierarchy { "
              + " ".join(f"n{i} {{" for i in range(depth))
              + " }" * depth + " }\nfeature f for root { a, b }\n"
              + "\n".join(f"feature g{i} for n{i} {{ w{i} }}"
                          for i in range(depth)))
    tracemalloc.start()
    try:
        g = parse_tagset_definition(source)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 5 * 1024 * 1024
    # 4 to 9 ms here when only the leaf's features are looked up, and only
    # at the ancestors searched
    with time_limit(0.25):
        cover = minimal_cover(g.atom_mask("f", "a"), g)
    # the one class with f=a has every one-value feature, so its
    # description lists them all
    assert [c.mask for c in cover] == [g.atom_mask("f", "a")]
    assert render_cover(cover).startswith("f=a & g0=w0 & g1=w1 & ")
    assert root_path(g, "n2999") == ("root", *(f"n{i}" for i in range(depth)))
    assert [f.name for f in g.features_at("n2999")] == [
        "f", *(f"g{i}" for i in range(depth))]
    assert [f.name for f in g.features_at("n0")] == ["f", "g0"]
