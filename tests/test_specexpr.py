"""Specification expressions: grammar, typing, denotation, covers."""

import functools
import inspect
import sys

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from tagmap import (
    SpecSyntaxError,
    SpecTypeError,
    compile_spec,
    denote,
    minimal_cover,
    parse_spec,
    render_cover,
    render_spec,
    typecheck,
)
from tagmap.specexpr import MAX_SPEC_DEPTH, And, Atom, BareAtom, Not, Or

from inputs import spec_atom, spec_expr, spec_names, strategy
from oracles import (
    eval_spec,
    mask_keys,
    oracle_denote,
    oracle_dnf,
    oracle_render_spec,
    oracle_universe,
)

A = Atom
B = BareAtom


def test_atom_shapes():
    assert parse_spec("[vform = fin]") == A("vform", "=", "fin")
    assert parse_spec("[pers != 3]") == A("pers", "!=", "3")
    assert parse_spec("[mass]") == B("mass")
    assert parse_spec("n") == B("n")  # brackets are optional


def test_quoted_value_parses_as_physical_tag():
    e = parse_spec('[pos = "VB"]')
    assert e == A("pos", "=", "VB", quoted=True)
    assert e.quoted


def test_conjunction_left_associative():
    e = parse_spec("[pos = v & vtype = aux & pers = 3]")
    assert e == And(And(A("pos", "=", "v"), A("vtype", "=", "aux")),
                    A("pers", "=", "3"))


def test_or_binds_weaker_than_and():
    e = parse_spec("[fin | inf & part]")
    assert e == Or(B("fin"), And(B("inf"), B("part")))


def test_negation_binds_tightest():
    assert parse_spec("[!fin & inf]") == And(Not(B("fin")), B("inf"))
    assert parse_spec("[!!fin]") == Not(Not(B("fin")))
    assert parse_spec("[!(fin & inf)]") == Not(And(B("fin"), B("inf")))


def test_parentheses_group():
    e = parse_spec("[n & ( common & sg | mass )]")
    assert e == And(B("n"), Or(And(B("common"), B("sg")), B("mass")))


SYNTAX_ERRORS = [
    "[pos = & v]",
    "[fin |]",
    "[(fin]",
    "[fin",
    "[]",
    "",
    "[fin inf]",
    "fin]",
    "[fin & ]",
    "[= fin]",
]


@pytest.mark.parametrize("text", SYNTAX_ERRORS)
def test_syntax_errors(text):
    with pytest.raises(SpecSyntaxError) as exc:
        parse_spec(text)
    assert exc.value.diagnostics
    assert exc.value.diagnostics[0].kind == "syntax"


def test_syntax_error_position():
    with pytest.raises(SpecSyntaxError) as exc:
        parse_spec("[pos = & v]")
    span = exc.value.diagnostics[0].span
    assert span.line == 1
    assert span.column == "[pos = & v]".index("&") + 1


def test_render_is_compact():
    assert render_spec(parse_spec("[ n & ( common & sg | mass ) ]")) == (
        "[n & (common & sg | mass)]")
    assert render_spec(parse_spec("[pos = v]")) == "[pos=v]"
    assert render_spec(parse_spec("[pers != 3]")) == "[pers!=3]"


def test_render_keeps_association():
    assert render_spec(parse_spec("[fin | inf | part]")) == "[fin | inf | part]"
    assert render_spec(parse_spec("[fin | (inf | part)]")) == "[fin | (inf | part)]"
    assert render_spec(parse_spec("[!(fin & inf) & part]")) == "[!(fin & inf) & part]"


def _graph():
    # session graph fixture is not visible to hypothesis strategies, so the
    # module keeps one cached copy for strategy construction
    from pathlib import Path
    from tagmap import parse_tagset_definition
    from oracles import FIXTURES
    return parse_tagset_definition((FIXTURES / "eagles-en.tagset").read_text())


GRAPH = _graph()
NAMES = spec_names(GRAPH)
ATOMS = strategy(spec_atom, NAMES)
EXPRS = strategy(spec_expr, NAMES)


@given(EXPRS)
def test_render_parse_round_trip(e):
    assert parse_spec(render_spec(e)) == e


@given(EXPRS)
@example(parse_spec("!!n"))
@example(parse_spec("n & (sg & mass)"))
@example(parse_spec("(n | v) & !(sg | (mass | v)) | (adj | (v & fin))"))
@settings(max_examples=300)
@seed(32)
def test_render_matches_the_former_renderer(e):
    # the former renderer passed a run's first operand a flag that never
    # changed the output: that operand never has the run's own operator
    assert render_spec(e) == oracle_render_spec(e)


# 2,000-operand runs of '&' and '|', each operand a nested expression.  They
# are not @examples of the property tests: hypothesis takes the repr of
# every explicit example, and a NamedTuple's repr recurses once per node.
@pytest.mark.parametrize("text", [
    " & ".join(["n", "!(mass | v)"] * 1000),
    " | ".join(["n & sg", "(v | adj)"] * 1000),
], ids=["conjuncts", "disjuncts"])
def test_a_long_run_matches_the_oracles(text):
    e = parse_spec(text)
    assert render_spec(e) == oracle_render_spec(e) == f"[{text}]"
    assert list(map(list, typecheck(e, GRAPH).dnf)) == oracle_dnf(e)
    assert mask_keys(GRAPH, denote(e, GRAPH)) == frozenset(
        (leaf, frozenset(a.items())) for leaf, a in oracle_universe()
        if eval_spec(e, leaf, a))


@given(EXPRS)
@settings(max_examples=300)
def test_denotation_matches_oracle(e):
    got = mask_keys(GRAPH, denote(e, GRAPH))
    want = frozenset(
        ("root", frozenset()) if False else (leaf, frozenset(a.items()))
        for leaf, a in oracle_universe()
        if eval_spec(e, leaf, a)
    )
    assert got == want


@given(EXPRS, EXPRS)
@settings(max_examples=200)
def test_de_morgan_at_denotation(a, b):
    d = functools.partial(denote, g=GRAPH)
    assert d(Not(And(a, b))) == d(Or(Not(a), Not(b)))
    assert d(Not(Or(a, b))) == d(And(Not(a), Not(b)))
    assert d(Not(Not(a))) == d(a)


def test_closed_world_flip_every_atom(graph):
    # f=v and f!=v split the feature's applicability domain exactly
    for f in graph.features:
        dom = graph.feature_mask(f.name)
        for v in f.values:
            eq = denote(A(f.name, "=", v), graph)
            ne = denote(A(f.name, "!=", v), graph)
            assert eq & ne == 0
            assert eq | ne == dom
            assert eq  # every declared value is realized somewhere


def test_negation_is_not_set_complement(graph):
    # !(vform=inf) keeps only classes where vform applies at all
    m = denote(Not(A("vform", "=", "inf")), graph)
    assert m == denote(A("vform", "!=", "inf"), graph)
    assert m | denote(A("vform", "=", "inf"), graph) == graph.feature_mask("vform")
    assert m != graph.full_mask & ~denote(A("vform", "=", "inf"), graph)
    assert denote(parse_spec("[!!case = gen]"), graph) == (
        denote(parse_spec("[case = gen]"), graph))


def test_tautology_within_feature_domain(graph):
    m = denote(parse_spec("[vform = inf | vform != inf]"), graph)
    assert m == graph.feature_mask("vform") == graph.node_mask("v")


def test_contradiction_denotes_empty(graph):
    assert denote(parse_spec("[pers = 3 & pers != 3]"), graph) == 0


def test_bare_names_resolve(graph):
    assert denote(parse_spec("[n]"), graph) == graph.node_mask("n")
    assert denote(parse_spec("[mass]"), graph) == graph.atom_mask("ntype", "mass")
    assert denote(parse_spec("[nom]"), graph) == (
        graph.node_mask("n") | graph.node_mask("pron"))


def test_pos_not_equals(graph):
    m = denote(parse_spec("[pos != v]"), graph)
    assert m == graph.full_mask & ~graph.node_mask("v")


def test_typecheck_accepts_and_counts(graph):
    # pers=3 survives under ind (twice, for tense), subj and imp
    ts = compile_spec("[pos = v & vtype = aux & pers = 3]", graph)
    assert ts.denotation.bit_count() == 4
    assert mask_keys(graph, ts.denotation) == oracle_denote(render_spec(ts.expr))


def test_typecheck_rejects_inapplicable_feature(graph):
    with pytest.raises(SpecTypeError) as exc:
        compile_spec("[pos = v & (vform = fin | case != gen)]", graph)
    err = exc.value
    assert err.disjunct == "pos=v & case!=gen"
    assert set(err.conflict) == {"pos=v", "case!=gen"}
    msg = err.diagnostics[0].message
    assert "pos=v" in msg and "case!=gen" in msg


def test_typecheck_rejects_same_feature_twice(graph):
    with pytest.raises(SpecTypeError):
        compile_spec("[vform = fin & vform = inf]", graph)


def test_typecheck_accepts_sibling_variant(graph):
    ts = compile_spec("[pos = nom & case != gen]", graph)
    assert ts.denotation == denote(parse_spec("[case = ngen]"), graph)


def test_every_disjunct_must_be_satisfiable(graph):
    # one dead disjunct poisons the whole spec even if another one works
    with pytest.raises(SpecTypeError):
        compile_spec("[mass | vform = fin & vform = inf]", graph)


def test_typecheck_collects_all_dead_disjuncts(graph):
    with pytest.raises(SpecTypeError) as exc:
        compile_spec("[pers = 1 & pers = 2 | sg & mass]", graph)
    assert len(exc.value.diagnostics) == 2


def test_unknown_names_are_type_errors(graph):
    for text, needle in [
        ("[banana]", "banana"),
        ("[gender = m]", "gender"),
        ("[vform = banana]", "banana"),
        ('[pos = "VB"]', "VB"),
    ]:
        with pytest.raises(SpecTypeError) as exc:
            compile_spec(text, graph)
        assert needle in exc.value.diagnostics[0].message


def test_an_unknown_pos_value_is_reported_at_its_atom(graph):
    with pytest.raises(SpecTypeError) as exc:
        compile_spec("[pos = nosuch]", graph)
    assert [d.render() for d in exc.value.diagnostics] == [
        "error [unknown-value] at 1:2: 'nosuch' is not a hierarchy node"]


@pytest.mark.parametrize("text, expected", [
    ("[!(foo & !(v | bar)) | baz]",
     [("unknown-name", 1, 4), ("unknown-name", 1, 16), ("unknown-name", 1, 24)]),
    ("[pos = v &\n\t!(foo | mood = bar)]",
     [("unknown-name", 2, 4), ("unknown-value", 2, 10)]),
])
@pytest.mark.parametrize("check", [typecheck, denote])
def test_name_errors_in_source_order_under_negation(graph, check, text, expected):
    with pytest.raises(SpecTypeError) as exc:
        check(parse_spec(text), graph)
    assert [(d.kind, d.span.line, d.span.column)
            for d in exc.value.diagnostics] == expected


def test_negated_atom_keeps_its_name_position(graph):
    with pytest.raises(SpecTypeError) as exc:
        compile_spec("[!(case = gen)\n & pos = v]", graph)
    (d,) = exc.value.diagnostics
    assert (d.kind, d.span.line, d.span.column) == ("ill-typed", 1, 4)
    assert exc.value.disjunct == "case!=gen & pos=v"


def test_dnf_preserves_denotation(graph):
    for text in [
        "[!(vtype = aux & vform = fin)]",
        "[n & ( common & sg | mass )]",
        "[!(n & sg) & nom]",
        "[pers != 3 & !(mood = subj | mood = imp)]",
        "[vtype = con & vform = inf | vtype = prim & tense = past]",
    ]:
        ts = compile_spec(text, graph)
        rebuilt = 0
        for disjunct in ts.dnf:
            conj = graph.full_mask
            for atom in disjunct:
                conj &= denote(atom, graph)
            assert conj, f"unsatisfiable disjunct survived typecheck in {text}"
            rebuilt |= conj
        assert rebuilt == ts.denotation


@given(EXPRS)
@settings(max_examples=300, deadline=None)
def test_dnf_keeps_the_oracle_order(e):
    universe = oracle_universe()
    want = oracle_dnf(e)
    dead = ["unsatisfiable disjunct [" + " & ".join(a.render() for a in d) + "]"
            for d in want
            if not oracle_denote(functools.reduce(And, d), universe)]
    try:
        got = typecheck(e, GRAPH)
    except SpecTypeError as exc:
        assert dead
        assert [d.message.split(":")[0] for d in exc.diagnostics] == dead
        assert all(d.kind == "ill-typed" for d in exc.diagnostics)
    else:
        assert not dead
        assert list(map(list, got.dnf)) == want


def test_typed_spec_classes_sorted_by_index(graph):
    ts = compile_spec("[pos = pron | vtype = aux]", graph)
    idx = [t.index for t in graph.classes(ts.denotation)]
    assert idx == sorted(idx)


# -- minimal covers ----------------------------------------------------------


def test_cover_of_whole_node(graph):
    cover = minimal_cover(graph.node_mask("v"), graph)
    assert render_cover(cover) == "pos=v"
    assert len(cover) == 1


def test_cover_of_empty_mask(graph):
    assert minimal_cover(0, graph) == ()
    assert render_cover(()) == ""


def test_cover_factoring(graph):
    m = denote(parse_spec("[vtype = con & (vform = inf | mood = subj | mood = imp)]"),
               graph)
    assert render_cover(minimal_cover(m, graph)) == (
        "vtype=con & (vform=inf | vform=fin & (mood=subj | mood=imp))")


def test_cover_exactness_and_irredundancy(graph):
    masks = [
        graph.node_mask("pron"),
        graph.atom_mask("ntype", "mass") | graph.atom_mask("dtype", "art"),
        denote(parse_spec("[vtype = prim & tense = past]"), graph),
        denote(parse_spec("[mod | conj]"), graph),
        graph.node_mask("v") & ~graph.atom_mask("vtype", "aux"),
    ]
    for m in masks:
        cover = minimal_cover(m, graph)
        union = 0
        for node in cover:
            union |= node.mask
        assert union == m
        for dropped in range(len(cover)):
            partial = 0
            for j, node in enumerate(cover):
                if j != dropped:
                    partial |= node.mask
            assert partial != m


def test_cover_round_trips_through_compiler(graph):
    for text in ["[pos = pron]", "[mass | dtype = art]",
                 "[vtype = con & vform = fin & (mood = subj | mood = imp)]"]:
        m = denote(parse_spec(text), graph)
        rendered = render_cover(minimal_cover(m, graph))
        assert compile_spec(f"[{rendered}]", graph).denotation == m


def test_cover_deterministic(graph):
    m = denote(parse_spec("[v & !(vtype = aux)]"), graph)
    first = render_cover(minimal_cover(m, graph))
    for _ in range(5):
        assert render_cover(minimal_cover(m, graph)) == first


@given(st.lists(ATOMS, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_cover_exact_on_random_unions(atom_list):
    m = 0
    for a in atom_list:
        m |= denote(a, GRAPH)
    cover = minimal_cover(m, GRAPH)
    union = 0
    for node in cover:
        union |= node.mask
    assert union == m


# -- nesting depth ---------------------------------------------------------------

# expressions of nesting depth k, the deepest the parser accepts at
# k = MAX_SPEC_DEPTH and rejects at k = MAX_SPEC_DEPTH + 1
_DEPTH_SHAPES = {
    "parentheses": lambda k: "(" * k + "n" + ")" * k,
    "negations": lambda k: "!" * k + "n",
    "conjuncts": lambda k: " & ".join(["n"] * (k + 1)),
    "disjuncts": lambda k: " | ".join(["n"] * (k + 1)),
    "nested-negations": lambda k: "!(" * (k - 1) + "!n" + ")" * (k - 1),
    "right-nested": lambda k: "(n & " * k + "n" + ")" * k,
}


@pytest.mark.parametrize("shape", _DEPTH_SHAPES.values(), ids=_DEPTH_SHAPES)
def test_deepest_spec_stays_inside_the_recursion_limit(graph, shape):
    # leave at least half of the default limit to the callers
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 500)
    try:
        e = parse_spec(shape(MAX_SPEC_DEPTH))
        assert typecheck(e, graph).dnf
        assert parse_spec(render_spec(e)) == e
    finally:
        sys.setrecursionlimit(limit)


# a flat run of one operator is one level, however many operands it has
_FLAT_RUNS = ("conjuncts", "disjuncts")


@pytest.mark.parametrize("name", _DEPTH_SHAPES)
def test_one_level_deeper_is_a_syntax_error(name):
    text = _DEPTH_SHAPES[name](MAX_SPEC_DEPTH + 1)
    if name in _FLAT_RUNS:
        # the run parses; under MAX_SPEC_DEPTH - 1 negations it is at the
        # cap, and under one more, one level deeper
        run = f"({_DEPTH_SHAPES[name](2000)})"
        assert parse_spec(text) and parse_spec("!" * (MAX_SPEC_DEPTH - 1) + run)
        text = "!" * MAX_SPEC_DEPTH + run
    with pytest.raises(SpecSyntaxError) as exc:
        parse_spec(text)
    (d,) = exc.value.diagnostics
    assert d.kind == "syntax"
    assert d.message == f"expression nested deeper than {MAX_SPEC_DEPTH} levels"


def test_a_flat_run_keeps_its_meaning_and_rendering(graph):
    # 2,000 operands are one level: the fold and rendering follow the run
    # in a loop, so neither nears the recursion limit
    conjuncts = " & ".join(["n", "sg"] * 1000)
    disjuncts = " | ".join(f"pos={n}" for n in graph.nodes[1:] * 100)
    for text, mask in ((conjuncts, graph.node_mask("n") & graph.atom_mask("num", "sg")),
                       (disjuncts, graph.full_mask)):
        e = parse_spec(text)
        assert render_spec(e) == f"[{text}]"
        assert denote(e, graph) == compile_spec(text, graph).denotation == mask


@pytest.mark.parametrize("text, column", [
    ("(" * 1200 + "n" + ")" * 1200, MAX_SPEC_DEPTH + 1),
    ("!" * 3000 + "n", MAX_SPEC_DEPTH + 1),
    # a run one level too deep is reported at its first operator, however
    # far on its tallest operand is
    (" & ".join(["n"] * 2000) + " & " + "!" * MAX_SPEC_DEPTH + "n", 3),
], ids=["parentheses", "negations", "conjuncts"])
def test_depth_error_points_at_the_first_token_too_deep(text, column):
    with pytest.raises(SpecSyntaxError) as exc:
        parse_spec(text)
    assert exc.value.diagnostics[0].span.column == column
