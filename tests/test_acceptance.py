"""End-to-end acceptance checks.

One test per criterion; the conftest hook prints a PASS/FAIL line for each
at the end of the run.
"""

import random
import re
import subprocess
import sys
import time

import pytest

from tagmap import (
    SpecTypeError,
    build_mtree,
    compile_spec,
    denote,
    parse_rules,
    parse_tagset_definition,
    render_cover,
    resolve,
    render_spec,
    retag_lines,
)
from tagmap.specexpr import Atom

from inputs import spec_expr, spec_names
from oracles import (
    FIXTURES,
    mask_keys,
    oracle_denote,
    oracle_resolve,
    oracle_rules,
    oracle_universe,
    oracle_well_typed,
)

FLAGSHIP = "[(vtype=con & vform=inf) | (vtype=prim & tense=past)]"
FLAGSHIP_PATTERNS = (
    '[((pos = "VB" & word != "be|do|have")'
    '|(pos = "VBD" & word = "was|were|had|did")'
    '|(pos = "VBN" & word = "been|had|done"))]')


def normalized(s: str) -> str:
    return re.sub(r"\s+", "", s)


def test_criterion_1_end_to_end_query(graph, rules):
    started = time.monotonic()
    res = resolve(rules, FLAGSHIP)
    rendered = res.render()
    lines = rendered.splitlines()

    assert normalized(lines[0]) == normalized(FLAGSHIP_PATTERNS)
    assert len(lines) == 2 and lines[1].startswith("WARN noise VB: ")

    # the advertised noise must re-denote to exactly the finite
    # subjunctive/imperative content-verb classes
    (note,) = res.noise
    noise_mask = compile_spec(f"[{render_cover(note.cover)}]", graph).denotation
    finite_sm = denote(compile_spec(
        "[vtype = con & vform = fin & (mood = subj | mood = imp)]", graph).expr,
        graph)
    assert noise_mask == finite_sm
    assert mask_keys(graph, noise_mask) == oracle_denote(
        "[vtype = con & vform = fin & (mood = subj | mood = imp)]")
    assert res.uncovered == ()
    assert time.monotonic() - started < 1.0


def test_criterion_2_type_errors(graph):
    with pytest.raises(SpecTypeError) as exc:
        compile_spec("[pos = v & (vform = fin | case != gen)]", graph)
    err = exc.value
    assert "pos=v" in err.disjunct and "case" in err.disjunct
    assert any("pos=v" in d.message and "case" in d.message
               for d in err.diagnostics)

    ts = compile_spec("[pos = v & vtype = aux & pers = 3]", graph)
    assert ts.denotation != 0


def _variant(*, drop_rules=(), drop_tags=(), drop_words=(), replace=(), add=""):
    src = (FIXTURES / "upenn.rules").read_text()
    keep = []
    for line in src.splitlines():
        if any(line.startswith(f"[pos = '{t}']") for t in drop_rules):
            continue
        if any(w in line for w in drop_words):
            continue
        keep.append(line)
    src = "\n".join(keep)
    for tag in drop_tags:
        src = re.sub(rf"{re.escape(tag)}, ", "", src, count=1)
    for old, new in replace:
        src = src.replace(old, new)
    return src + add


def test_criterion_3_consistency_diagnostics(graph):
    # (a) one missing rule, exactly one source hole
    t = build_mtree(parse_rules(_variant(drop_rules=("SYM",)), graph))
    source_holes = [d for d in t.diagnostics if d.kind == "definition_hole_source"]
    assert len(source_holes) == 1
    assert "SYM" in source_holes[0].message

    # (b) no pronoun rules: the target hole's cover re-denotes to the
    # pronoun classes
    t = build_mtree(parse_rules(_variant(
        drop_rules=("PP$", "PP", "WP$", "WP"),
        drop_tags=("PP", "PP$", "WP", "WP$"),
        drop_words=("anybody",),
        replace=[("[det & art | pron & indef]", "[det & art]")]), graph))
    target_holes = [d for d in t.diagnostics if d.kind == "definition_hole_target"]
    assert len(target_holes) == 1
    rendered = render_cover(t.unreachable)
    hole_mask = compile_spec(f"[{rendered}]", graph).denotation
    assert hole_mask == graph.node_mask("pron")
    assert mask_keys(graph, hole_mask) == oracle_denote("[pos = pron]")

    # (c) a tag on the participle node above VBG/VBN: exactly one
    # hierarchical inconsistency
    t = build_mtree(parse_rules(_variant(
        replace=[("tags CC,", "tags VBX, CC,")],
        add="\n[pos = 'VBX'] => [vtype = con & vform = part].\n"), graph))
    hierarchical = [d for d in t.diagnostics if d.kind == "hierarchical"]
    assert len(hierarchical) == 1
    assert "VBX" in hierarchical[0].message
    assert "VBG" in hierarchical[0].message and "VBN" in hierarchical[0].message

    # (d) two rules sharing ntype=mass: exactly one nondisjunctive warning
    t = build_mtree(parse_rules(_variant(
        replace=[("tags CC,", "tags NNX, CC,")],
        add="\n[pos = 'NNX'] => [mass].\n"), graph))
    overlaps = [d for d in t.diagnostics if d.kind == "nondisjunctive"]
    assert len(overlaps) == 1
    assert "ntype=mass" in overlaps[0].message


def test_criterion_4_retagging(rules):
    records = list(retag_lines(rules, ["anybody/NN house/NN"]))
    assert len(records) == 2
    first, second = records

    assert first.token.word == "anybody"
    assert first.provenance == "exception"
    assert first.reading == "[pos=pron & antec=prs & type=indef]"

    assert second.token.word == "house"
    assert second.reading == "[n & (common & sg | mass)]"
    assert "underspecified" in second.flags


def test_criterion_5_oracle_equivalence(graph, rules):
    started = time.monotonic()
    orules = oracle_rules()
    names = spec_names(graph)
    rng = random.Random(90125)

    accepted = attempts = 0
    while accepted < 1000:
        attempts += 1
        assert attempts < 25000, "generator starved; acceptance rate collapsed"
        text = render_spec(spec_expr(rng, names))
        try:
            ts = compile_spec(text, graph)
        except SpecTypeError:
            assert not oracle_well_typed(text), text
            continue
        assert oracle_well_typed(text), text

        # denotation equals brute-force filtering
        assert mask_keys(graph, ts.denotation) == oracle_denote(text), text

        # DNF preserves denotation
        rebuilt = 0
        for disjunct in ts.dnf:
            m = graph.full_mask
            for atom in disjunct:
                m &= denote(atom, graph)
            rebuilt |= m
        assert rebuilt == ts.denotation, text

        # resolver inclusion, constraints, noise and leftovers match the
        # set-operation reference
        res = resolve(rules, ts)
        want = oracle_resolve(orules, mask_keys(graph, ts.denotation))
        assert [(p.tag, p.op, p.words) for p in res.patterns] == \
            list(want.patterns), text
        got_noise = {}
        for note in res.noise:
            key = (note.tag, note.words) if note.words else note.tag
            cover_mask = compile_spec(
                f"[{render_cover(note.cover)}]", graph).denotation
            got_noise[key] = mask_keys(graph, cover_mask)
        want_noise = dict(want.noise)
        want_noise.update(want.word_noise)
        assert got_noise == want_noise, text
        if res.uncovered:
            unc = compile_spec(
                f"[{render_cover(res.uncovered)}]", graph).denotation
            assert mask_keys(graph, unc) == want.uncovered, text
        else:
            assert want.uncovered == frozenset(), text

        accepted += 1

    assert accepted >= 1000
    assert time.monotonic() - started < 30.0


def test_criterion_6_closed_world_laws(graph):
    universe = oracle_universe()
    for f in graph.features:
        domain = graph.feature_mask(f.name)
        # the appropriateness domain itself, checked against brute force
        assert mask_keys(graph, domain) == frozenset(
            (leaf, frozenset(a.items())) for leaf, a in universe
            if f.name in a)
        for v in f.values:
            eq = denote(Atom(f.name, "=", v), graph)
            ne = denote(Atom(f.name, "!=", v), graph)
            assert eq & ne == 0, (f.name, v)
            assert eq | ne == domain, (f.name, v)


def _cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "tagmap.cli", *argv],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_7_determinism():
    tagset = str(FIXTURES / "eagles-en.tagset")
    rules = str(FIXTURES / "upenn.rules")
    invocations = [
        ("compile", "--tagset", tagset, "--rules", rules),
        ("explain", "--tagset", tagset, "--rules", rules),
        ("query", "--tagset", tagset, "--rules", rules, "-e", FLAGSHIP),
    ]
    for argv in invocations:
        first = _cli(*argv)
        second = _cli(*argv)
        assert first == second, argv
        assert first[0] == 0, argv
