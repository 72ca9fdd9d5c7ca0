"""Abstract-query resolution into physical tag patterns."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from tagmap import (
    SpecTypeError,
    compile_spec,
    denote,
    parse_rules,
    parse_spec,
    render_cover,
    resolve,
)

from oracles import FIXTURES, mask_keys, oracle_denote, oracle_resolve, oracle_rules

FLAGSHIP = "[vtype = con & vform = inf | vtype = prim & tense = past]"


def test_flagship_query_patterns_and_noise(rules):
    res = resolve(rules, FLAGSHIP)
    assert res.render() == (
        '[((pos = "VB" & word != "be|do|have")'
        '|(pos = "VBD" & word = "was|were|had|did")'
        '|(pos = "VBN" & word = "been|had|done"))]\n'
        "WARN noise VB: vtype=con & vform=fin & (mood=subj | mood=imp)")
    assert res.uncovered == ()


def test_flagship_noise_re_denotes_exactly(rules, graph):
    res = resolve(rules, FLAGSHIP)
    (note,) = res.noise
    assert note.tag == "VB" and note.words == ()
    m = compile_spec(f"[{render_cover(note.cover)}]", graph).denotation
    s = compile_spec(FLAGSHIP, graph).denotation
    assert m == rules.coverage["VB"].typed.denotation & ~s


def test_indefinite_pronoun_query(rules):
    res = resolve(rules, "[pos = pron & type = indef]")
    assert res.render() == (
        '[(pos = "DT"|(pos = "NN" & word = "anybody|nothing|something|anything"))]\n'
        "WARN noise DT: dtype=art")


def test_exact_tag_needs_no_constraint_or_noise(rules):
    res = resolve(rules, "[n & common & pl]")
    assert res.render() == '[(pos = "NNS")]'
    assert res.noise == () and res.uncovered == ()


def test_exception_only_retrieval(rules):
    # no coverage rule touches primary verbs; all three patterns are
    # word-restricted retrievals through the lexicon
    res = resolve(rules, "[vtype = prim & mood = ind]")
    assert res.render() == (
        '[((pos = "VBD" & word = "was|were|had|did")'
        '|(pos = "VBP" & word = "am|are|do|have")'
        '|(pos = "VBZ" & word = "is|does|has"))]')


def test_word_level_noise(rules):
    res = resolve(rules, "[vtype = prim & tense = past & pers = 1]")
    assert res.render() == (
        '[((pos = "VBD" & word = "was|were|had|did"))]\n'
        "WARN noise VBD (was|were|had|did): "
        "vtype=prim & vform=fin & mood=ind & tense=past & (pers=2 | pers=3)")


def test_unmatchable_query_renders_empty(graph):
    src = (FIXTURES / "upenn.rules").read_text()
    for tag in ("PP$", "PP", "WP$", "WP"):
        src = "\n".join(l for l in src.splitlines()
                        if not l.startswith(f"[pos = '{tag}']"))
    src = re.sub(r"PP\$?, |WP\$?, ", "", src)
    src = src.replace("[det & art | pron & indef]", "[det & art]")
    src = "\n".join(l for l in src.splitlines() if "anybody" not in l)
    holey = parse_rules(src, graph)
    res = resolve(holey, "[pos = pron]")
    assert res.patterns == ()
    assert res.render() == "[]\nWARN uncovered: pos=pron"
    assert compile_spec(f"[{render_cover(res.uncovered)}]", graph).denotation == (
        graph.node_mask("pron"))


def test_ill_typed_query_raises(rules):
    with pytest.raises(SpecTypeError):
        resolve(rules, "[pos = v & case = gen]")


def test_accepts_compiled_input(rules, graph):
    ts = compile_spec(FLAGSHIP, graph)
    assert resolve(rules, ts).render() == resolve(rules, FLAGSHIP).render()


QUERIES = [
    FLAGSHIP,
    "[pos = pron & type = indef]",
    "[n & common & pl]",
    "[vtype = prim & mood = ind]",
    "[vtype = prim & tense = past & pers = 1]",
    "[vtype = aux]",
    "[case = gen]",
    "[mod]",
    "[pos = det | pos = conj]",
    "[!(vtype = aux) & vform = fin]",
    "[num = pl]",
    "[tense = pres]",
]


@pytest.mark.parametrize("query", QUERIES)
def test_resolution_matches_oracle(query, rules, graph):
    res = resolve(rules, query)
    want = oracle_resolve(oracle_rules(), oracle_denote(query))
    assert [(p.tag, p.op, p.words) for p in res.patterns] == list(want.patterns)
    got_noise = {}
    for n in res.noise:
        key = (n.tag, n.words) if n.words else n.tag
        cover_mask = compile_spec(f"[{render_cover(n.cover)}]", graph).denotation
        got_noise[key] = mask_keys(graph, cover_mask)
    want_noise = dict(want.noise)
    want_noise.update(want.word_noise)
    assert got_noise == want_noise
    if res.uncovered:
        unc = compile_spec(f"[{render_cover(res.uncovered)}]", graph).denotation
        assert mask_keys(graph, unc) == want.uncovered
    else:
        assert want.uncovered == frozenset()


@pytest.mark.parametrize("query", QUERIES)
def test_patterns_follow_inventory_order(query, rules):
    res = resolve(rules, query)
    tags = [p.tag for p in res.patterns]
    assert len(set(tags)) == len(tags)
    order = {t: i for i, t in enumerate(rules.inventory)}
    assert tags == sorted(tags, key=order.__getitem__)


def test_inclusion_is_intersection_nonempty(rules, graph):
    s = denote(parse_spec("[case = gen]"), graph)
    included = {p.tag for p in resolve(rules, "[case = gen]").patterns if p.op != "="}
    for tag in rules.inventory:
        overlaps = rules.coverage[tag].typed.denotation & s != 0
        assert (tag in included) == overlaps, tag


def test_widening_query_keeps_patterns(rules):
    # S1 under S2: every pattern tag survives, constraints may only relax
    narrow = {p.tag for p in resolve(rules, "[vform = part]").patterns}
    wide = {p.tag for p in resolve(rules, "[vform = part | vform = inf]").patterns}
    assert narrow <= wide


def test_equal_denotations_resolve_identically(rules, graph):
    a = resolve(rules, "[pos = pron & type = indef]")
    ts = compile_spec("[pos = pron & type = indef]", graph)
    rebuilt = " | ".join(
        " & ".join(f"{x.feature}{x.op}{x.value}" for x in d) for d in ts.dnf)
    b = resolve(rules, f"[{rebuilt}]")
    assert a.render().splitlines()[0] == b.render().splitlines()[0]
    assert [(n.tag, n.words) for n in a.noise] == [(n.tag, n.words) for n in b.noise]


def test_excluded_words_never_reappear(rules):
    res = resolve(rules, FLAGSHIP)
    for p in res.patterns:
        if p.op == "!=":
            entries = rules.exceptions_for(p.tag)
            excluded = set(p.words)
            for e in entries:
                if set(e.words) & excluded:
                    assert excluded >= set(e.words)


GRAPH_Q = None


def _rules():
    from tagmap import parse_tagset_definition
    g = parse_tagset_definition((FIXTURES / "eagles-en.tagset").read_text())
    return g, parse_rules((FIXTURES / "upenn.rules").read_text(), g)


G_RANDOM, R_RANDOM = _rules()
_O_RULES = oracle_rules()
_FEATURE_ATOMS = [f"{f.name} = {v}"
                  for f in G_RANDOM.features for v in f.values]
_NODE_ATOMS = [f"pos = {n}" for n in G_RANDOM.nodes if n != "root"]


@given(st.lists(st.sampled_from(_FEATURE_ATOMS + _NODE_ATOMS),
                min_size=1, max_size=3))
@settings(max_examples=120, deadline=None)
def test_random_union_queries_match_oracle(parts):
    query = "[" + " | ".join(parts) + "]"
    res = resolve(R_RANDOM, query)
    want = oracle_resolve(_O_RULES, oracle_denote(query))
    assert [(p.tag, p.op, p.words) for p in res.patterns] == list(want.patterns)
