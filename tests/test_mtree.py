"""Mapping-tree construction, diagnostics and the explain view."""

import re
from collections import Counter
from functools import reduce
from hashlib import sha256
from operator import or_

import gen
import pytest
from hypothesis import example, given, settings

from tagmap import (
    build_mtree,
    compile_spec,
    mtree,
    parse_rules,
    parse_tagset_definition,
    render_cover,
    render_explain,
)

from inputs import ladder_rule_set, positional_rules, strategy
from oracles import (
    FIXTURES,
    oracle_hierarchical,
    oracle_nondisjoint,
)
from support import doubling_ratios, time_limit

RULES_SRC = (FIXTURES / "upenn.rules").read_text()


def variant(*, drop_rules=(), drop_tags=(), drop_words=(), replace=(), add=""):
    src = RULES_SRC
    lines = []
    for line in src.splitlines():
        if any(line.startswith(f"[pos = '{t}']") for t in drop_rules):
            continue
        if any(w in line for w in drop_words):
            continue
        lines.append(line)
    src = "\n".join(lines)
    for tag in drop_tags:
        src = re.sub(rf"{re.escape(tag)}, ", "", src, count=1)
    for old, new in replace:
        src = src.replace(old, new)
    return src + add


def test_clean_fixture_has_no_diagnostics(tree):
    assert tree.diagnostics == []
    assert tree.unreachable == ()


def test_assignments_cover_each_denotation_exactly(tree, rules):
    assert set(tree.assignments) == set(rules.inventory)
    for tag, cover in tree.assignments.items():
        union = 0
        for node in cover:
            union |= node.mask
        assert union == rules.coverage[tag].typed.denotation, tag


def test_vb_assignment_renders_factored(tree):
    assert render_cover(tree.assignments["VB"]) == (
        "vtype=con & (vform=inf | vform=fin & (mood=subj | mood=imp))")


def test_coverage_partition_counts(rules, graph):
    """89 = 15 exception-only classes + 74 singly covered + 0 shared.

    Only coverage rules enter the count; the primary-verb classes reached
    through the lexicon alone sit in the zero bucket by construction.
    """
    counts = Counter(min(2, sum(rule.typed.denotation >> t.index & 1
                                for rule in rules.coverage.values()))
                     for t in graph.universe)
    assert (counts[0], counts[1], counts[2]) == (15, 74, 0)


def _tree(graph, src):
    return build_mtree(parse_rules(src, graph))


def _kinds(tree):
    out = {}
    for d in tree.diagnostics:
        out[d.kind] = out.get(d.kind, 0) + 1
    return out


def test_missing_rule_reports_source_hole(graph):
    t = _tree(graph, variant(drop_rules=("SYM",)))
    assert _kinds(t) == {"definition_hole_source": 1, "definition_hole_target": 1}
    src = next(d for d in t.diagnostics if d.kind == "definition_hole_source")
    assert src.message == (
        "tag SYM has no coverage rule; its occurrences have no standard reading")
    assert all(d.severity == "warning" for d in t.diagnostics)


def test_unreached_classes_report_target_hole(graph):
    src = variant(drop_rules=("PP$", "PP", "WP$", "WP"),
                  drop_tags=("PP", "PP$", "WP", "WP$"),
                  drop_words=("anybody",),
                  replace=[("[det & art | pron & indef]", "[det & art]")])
    t = _tree(graph, src)
    assert _kinds(t) == {"definition_hole_target": 1}
    d = t.diagnostics[0]
    assert d.message == "no physical tag reaches pos=pron [12 classes]"
    rendered = render_cover(t.unreachable)
    assert rendered == "pos=pron"
    assert compile_spec(f"[{rendered}]", graph).denotation == graph.node_mask("pron")


def test_target_hole_counts_lexicon_reach(tree):
    # the clean fixture's 15 primary-verb classes are lexicon-only, yet the
    # tree stays quiet: reachability includes exception readings
    assert all(d.kind != "definition_hole_target" for d in tree.diagnostics)


def test_overlapping_rules_report_nondisjoint(graph):
    src = variant(replace=[("tags CC,", "tags NNX, CC,")],
                  add="\n[pos = 'NNX'] => [mass].\n")
    t = _tree(graph, src)
    assert _kinds(t) == {"nondisjunctive": 1}
    assert t.diagnostics[0].message == "tags NNX and NN overlap on ntype=mass"


def test_equal_denotations_are_not_hierarchical(graph):
    # NNX duplicates part of NN exactly; overlap yes, strict containment no
    src = variant(replace=[("tags CC,", "tags NNX, CC,")],
                  add="\n[pos = 'NNX'] => [mass].\n")
    t = _tree(graph, src)
    assert all(d.kind != "hierarchical" for d in t.diagnostics)


def test_subsuming_rule_reports_hierarchical(graph):
    src = variant(replace=[("tags CC,", "tags VBX, CC,")],
                  add="\n[pos = 'VBX'] => [vtype = con & vform = part].\n")
    t = _tree(graph, src)
    assert _kinds(t) == {"nondisjunctive": 2, "hierarchical": 1}
    h = next(d for d in t.diagnostics if d.kind == "hierarchical")
    assert h.message == ("covering node vtype=con & vform=part of tag VBX "
                         "strictly contains coverage of VBG, VBN")
    overlaps = [d.message for d in t.diagnostics if d.kind == "nondisjunctive"]
    assert overlaps == [
        "tags VBX and VBG overlap on vtype=con & vform=part & tense=pres",
        "tags VBX and VBN overlap on vtype=con & vform=part & tense=past",
    ]


def test_diagnostics_grouped_by_kind(graph):
    src = variant(drop_rules=("SYM",),
                  replace=[("tags CC,", "tags VBX, CC,")],
                  add="\n[pos = 'VBX'] => [vtype = con & vform = part].\n")
    t = _tree(graph, src)
    order = [d.kind for d in t.diagnostics]
    assert order == sorted(order, key=["definition_hole_source",
                                       "definition_hole_target",
                                       "nondisjunctive",
                                       "hierarchical"].index)


def test_empty_rule_set(graph):
    t = _tree(graph, "mapping x for tagset eagles-en\ntags AA\n")
    assert _kinds(t) == {"definition_hole_source": 1, "definition_hole_target": 1}
    assert render_cover(t.unreachable) == "pos=root"
    target = next(d for d in t.diagnostics if d.kind == "definition_hole_target")
    assert target.message == "no physical tag reaches pos=root [89 classes]"


def test_whole_subtree_rule_assigns_single_node(graph):
    t = _tree(graph, "mapping x for tagset eagles-en\ntags VV\n"
                     "[pos = 'VV'] => [pos = v].\n")
    assert len(t.assignments["VV"]) == 1
    assert render_cover(t.assignments["VV"]) == "pos=v"
    assert all(d.kind != "hierarchical" for d in t.diagnostics)


def test_explain_lists_every_tag_alphabetically(tree):
    lines = render_explain(tree).splitlines()
    assert len(lines) == 36
    heads = [l.split(" -> ")[0] for l in lines]
    assert heads == sorted(heads)
    assert lines[0] == "CC -> ctype=coord [1 class]"
    assert "VB -> vtype=con & (vform=inf | vform=fin & (mood=subj | mood=imp)) " \
           "[7 classes]" in lines
    assert "MD -> vtype=aux [15 classes]" in lines
    assert "DT -> type=indef | dtype=art [5 classes]" in lines
    assert "NN -> ntype=mass | ntype=common & num=sg [4 classes]" in lines
    assert "IN -> pos=prep | ctype=subord [2 classes]" in lines


def test_explain_appends_warnings(graph):
    t = _tree(graph, variant(drop_rules=("SYM",)))
    lines = render_explain(t).splitlines()
    assert len(lines) == 35 + 2
    assert lines[-2].startswith("WARN [definition_hole_source]")
    assert lines[-1].startswith("WARN [definition_hole_target]")


def test_explain_deterministic(rules):
    a = render_explain(build_mtree(rules))
    b = render_explain(build_mtree(rules))
    assert a == b


def test_plural_rendering(graph):
    t = _tree(graph, "mapping x for tagset eagles-en\ntags AA, BB\n"
                     "[pos = 'AA'] => [ctype = coord].\n"
                     "[pos = 'BB'] => [conj].\n")
    txt = render_explain(t)
    assert "AA -> ctype=coord [1 class]" in txt
    assert "BB -> pos=conj [2 classes]" in txt


def test_warnings_point_at_their_source(graph):
    t = _tree(graph, "mapping x for tagset eagles-en\n"
                     "tags AA, VBX, VBG\n"
                     "[pos = 'VBX'] => [vtype = con & vform = part].\n"
                     "[pos = 'VBG'] => [vtype = con & vform = part & tense = pres].\n")
    # the source hole at its inventory entry, the overlap at the later of
    # the two rules, the hierarchical warning at the outer tag's rule, and
    # the target hole, which has no one source, at no position
    assert [(d.kind, d.span) for d in t.diagnostics] == [
        ("definition_hole_source", (2, 6)),
        ("definition_hole_target", None),
        ("nondisjunctive", (4, 1)),
        ("hierarchical", (3, 1)),
    ]
    assert t.diagnostics[1].render().startswith(
        "warning [definition_hole_target]: no physical tag reaches ")


# -- the overlap and containment checks against every pair of tags ----------

LADDERS = {n: parse_tagset_definition(gen.ladder_tagset(n)) for n in (2, 3, 4)}


@given(strategy(ladder_rule_set))
@settings(max_examples=200, deadline=None)
# two tags with equal denotations: they overlap, but neither contains the other
@example(case=(2, "mapping random for tagset ladder\ntags T0, T1\n"
               "[pos = 'T1'] => [pos = l0 & f0 = v0_0].\n"
               "[pos = 'T0'] => [f0 = v0_0 & pos = l0].\n"))
# a two-node cover whose nodes contain different tags, one of them two tags
# listed in the inventory before the outer one
@example(case=(2, "mapping random for tagset ladder\n"
               "tags T3, T0, T1, T2\n"
               "[pos = 'T2'] => [pos = l1 & f0 = v0_1 & f1 = v1_2].\n"
               "[pos = 'T0'] => [(pos = l0 & f0 = v0_0) | (pos = l1 & f0 = v0_1)].\n"
               "[pos = 'T3'] => [pos = l0 & f0 = v0_0 & f1 = v1_1].\n"
               "[pos = 'T1'] => [pos = l0 & f0 = v0_0 & f1 = v1_0].\n"))
# two tags whose two-node covers meet in two pairs of nodes, which is one
# overlap, and a third tag inside a node of one of them
@example(case=(2, "mapping random for tagset ladder\n"
               "tags T2, T1, T0\n"
               "[pos = 'T1'] => [(pos = l0 & f1 = v1_0) | (pos = l1 & f1 = v1_1)].\n"
               "[pos = 'T0'] => [(pos = l0 & f0 = v0_0) | (pos = l1 & f0 = v0_1)].\n"
               "[pos = 'T2'] => [pos = l0 & f0 = v0_0 & f1 = v1_2].\n"))
def test_overlap_and_containment_checks_match_every_pair(case):
    n, src = case
    graph = LADDERS[n]
    tree = build_mtree(parse_rules(src, graph))
    got = [d.render() for d in tree.diagnostics
           if d.kind in ("nondisjunctive", "hierarchical")]
    want = [d.render() for d in oracle_nondisjoint(tree.rules)
            + oracle_hierarchical(tree.rules, tree.assignments)]
    assert got == want
    coverage = tree.rules.coverage
    assert list(tree.assignments) == [
        tag for tag in tree.rules.inventory if tag in coverage]
    for tag, cover in tree.assignments.items():
        assert reduce(or_, (c.mask for c in cover)) == \
            coverage[tag].typed.denotation


# -- positional tagsets of thousands of tags ----------------------------------

SIX = parse_tagset_definition(gen.ladder_tagset(6))
SEVEN = parse_tagset_definition(gen.ladder_tagset(7))


def test_positional_tags_check_promptly():
    # 2,187 disjoint full conjunctions over the 6,561 classes of the seven-
    # feature ladder; testing every tag's cover against every other's took
    # 2.5 s here
    rules = parse_rules(positional_rules(7, 6), SEVEN)
    assert len(rules.inventory) == 2187
    with time_limit(0.5):
        tree = build_mtree(rules)
    assert tree.diagnostics == []


def test_nested_and_sparse_positional_tags_check_promptly():
    # the 2,187 tags above plus 117 coarser ones nested above them and 12
    # sparse ones across them; every pair took 3.2 s here.  The digest is
    # of the warnings the pairwise checks gave.
    rules = parse_rules(positional_rules(7, 6, coarse=(1, 2, 3),
                                         sparse=(1, 2)), SEVEN)
    assert len(rules.inventory) == 2316
    with time_limit(1):
        tree = build_mtree(rules)
    assert Counter(d.kind for d in tree.diagnostics) == {
        "nondisjunctive": 21285, "hierarchical": 120}
    rendered = "\n".join(d.render() for d in tree.diagnostics)
    assert sha256(rendered.encode()).hexdigest() == (
        "710daa47ea9d237dd098946188d36c204fcc2ac22823349b42b0886c5525c190")


def test_tree_building_is_linear_in_the_number_of_tags():
    # 81, 243 and 729 full conjunctions over the 2,187 classes of the six-
    # feature ladder: each size is three times the last, so linear reads
    # about 3 and quadratic about 9
    ratios = doubling_ratios(build_mtree, [
        parse_rules(positional_rules(6, k), SIX) for k in (3, 4, 5)])
    assert all(r < 5 for r in ratios), ratios


def test_tree_building_reads_linear_masks_in_the_number_of_tags(monkeypatch):
    # the work twin of the test above: the neighbour scan reads each mask
    # once and once more per pair it tests, where testing every pair would
    # add n(n - 1)/2 reads
    reads = []

    class Counted(list):
        def __getitem__(self, i):
            reads[-1] += 1
            return super().__getitem__(i)

    scan = mtree._meeting_pairs
    monkeypatch.setattr(mtree, "_meeting_pairs", lambda masks: scan(Counted(masks)))
    for k in (3, 4, 5):
        rules = parse_rules(positional_rules(6, k), SIX)
        reads.append(0)
        build_mtree(rules)
    assert all(b / a < 5 for a, b in zip(reads, reads[1:])), reads
