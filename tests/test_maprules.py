"""Coverage rules and the exception lexicon."""

import gen
import pytest

from tagmap import (
    CompileError,
    maprules,
    parse_rules,
    parse_tagset_definition,
)
from tagmap.lexer import TokenCursor, tokenize

from inputs import positional_rules
from oracles import FIXTURES, mask_keys, oracle_rules
from support import doubling_ratios

RULES_SRC = (FIXTURES / "upenn.rules").read_text()


def header(tagset="eagles-en"):
    return f"mapping demo for tagset {tagset}\n"


def test_fixture_parses_clean(rules):
    assert rules.name == "upenn"
    assert len(rules.inventory) == 36
    assert len(rules.coverage) == 36
    assert len(rules.exceptions) == 7
    assert rules.warnings == []


def test_inventory_matches_oracle(rules):
    assert rules.inventory == oracle_rules().inventory


def test_rule_denotations_match_oracle(rules, graph):
    want = oracle_rules()
    for tag, rule in rules.coverage.items():
        assert mask_keys(graph, rule.typed.denotation) == want.coverage[tag], tag


def test_exception_denotations_match_oracle(rules, graph):
    want = oracle_rules().exceptions
    assert len(rules.exceptions) == len(want)
    for entry, (words, tag, into) in zip(rules.exceptions, want):
        assert entry.words == words
        assert entry.tag == tag
        assert mask_keys(graph, entry.typed.denotation) == into


def test_readings_render_compact(rules):
    assert rules.coverage["NN"].reading == "[n & (common & sg | mass)]"
    assert rules.coverage["MD"].reading == "[vtype=aux]"
    entry = rules.word_index[("anybody", "NN")]
    assert entry.reading == "[pos=pron & antec=prs & type=indef]"


def test_standard_reading_prefers_word_entry(rules):
    exceptional = rules.lookup("NN", "anybody")
    plain = rules.lookup("NN", "house")
    assert exceptional.reading == "[pos=pron & antec=prs & type=indef]"
    assert exceptional.words == ("anybody", "nothing", "something", "anything")
    assert plain.reading == "[n & (common & sg | mass)]"
    assert plain.words == ()
    assert rules.lookup("NN") is plain


def test_lookup_returns_the_entry_or_rule(rules):
    entry = rules.word_index[("anybody", "NN")]
    assert rules.lookup("NN", "anybody") is entry
    assert rules.lookup("NN", "house") is rules.coverage["NN"]
    assert rules.lookup("NN") is rules.coverage["NN"]
    assert rules.lookup("XYZ", "house") is None
    assert rules.lookup("XYZ") is None


def test_readings_render_once(rules):
    rule = rules.coverage["NN"]
    entry = rules.word_index[("anybody", "NN")]
    assert rule.reading is rule.reading
    assert entry.reading is entry.reading


def test_exception_entries_are_tag_scoped(rules):
    # anybody is exceptional under NN only
    assert rules.lookup("VB", "anybody") is rules.lookup("VB")
    assert ("anybody", "VB") not in rules.word_index


def test_exceptions_for(rules):
    tags = {e.tag for e in rules.exceptions}
    for tag in tags:
        got = rules.exceptions_for(tag)
        assert all(e.tag == tag for e in got)
    assert rules.exceptions_for("CC") == ()


def test_denotation_helper(rules, graph):
    assert rules.coverage["MD"].typed.denotation == graph.atom_mask("vtype", "aux")


def test_parse_is_deterministic(graph):
    a = parse_rules(RULES_SRC, graph)
    b = parse_rules(RULES_SRC, graph)
    assert a.inventory == b.inventory
    assert [r.reading for r in a.coverage.values()] == [
        r.reading for r in b.coverage.values()]
    assert [e.typed.denotation for e in a.exceptions] == [
        e.typed.denotation for e in b.exceptions]


def test_tagset_name_must_match(graph):
    src = header("other-set") + "tags AA\n[pos = 'AA'] => [mass].\n"
    with pytest.raises(CompileError) as exc:
        parse_rules(src, graph)
    # the error points at the tagset name, not at the line after the header
    assert [d.render() for d in exc.value.diagnostics] == [
        "error [tagset-mismatch] at 1:25: rules target tagset 'other-set' but "
        "were compiled against 'eagles-en'"]


def test_broken_inventory_keeps_earlier_errors(graph):
    src = ("mapping m for tagset other\n"
           "tags AA, AA,\n"
           "[pos = 'AA'] => [mass].\n")
    with pytest.raises(CompileError) as exc:
        parse_rules(src, graph)
    assert [d.render() for d in exc.value.diagnostics] == [
        "error [tagset-mismatch] at 1:22: rules target tagset 'other' but "
        "were compiled against 'eagles-en'",
        "error [duplicate-tag] at 2:10: tag AA listed twice in the inventory",
        "error [syntax] at 3:1: expected a tag name, found '['",
    ]


def test_broken_inventory_resumes_at_the_next_rule(graph):
    # the tags read before the error stay in the inventory, and the rules
    # after it are still parsed and checked against them
    src = header() + "tags AA, 7 BB\n[pos = 'CC'] => [mass].\n"
    with pytest.raises(CompileError) as exc:
        parse_rules(src, graph)
    assert [d.render() for d in exc.value.diagnostics] == [
        "error [syntax] at 2:10: expected a tag name, found '7'",
        "error [unknown-tag] at 3:1: tag CC is not in the inventory",
    ]


def test_a_stray_token_does_not_hide_the_next_rule(graph):
    # parsing resumes at the next rule, so its own errors are reported too
    src = header() + "tags MD, NN\nstray\n[pos = 'MD'] => [vtype = nosuch].\n"
    with pytest.raises(CompileError) as exc:
        parse_rules(src, graph)
    assert [d.render() for d in exc.value.diagnostics] == [
        "error [syntax] at 3:1: expected a rule, found 'stray'",
        "error [unknown-value] at 4:18: 'nosuch' is not a value of feature "
        "'vtype'",
    ]


def test_a_missing_tags_header_is_a_syntax_error(graph):
    with pytest.raises(CompileError) as exc:
        parse_rules(header() + "[pos = 'AA'] => [mass].\n", graph)
    assert [d.render() for d in exc.value.diagnostics] == [
        "error [syntax] at 2:1: expected a tags header"]


def test_header_keyword_is_checked(graph):
    with pytest.raises(CompileError) as exc:
        parse_rules("mapping m fur tagset eagles-en", graph)
    assert [d.render() for d in exc.value.diagnostics] == [
        "error [syntax] at 1:11: expected 'for', found 'fur'"]


def _expect_kind(graph, body, kind):
    with pytest.raises(CompileError) as exc:
        parse_rules(header() + body, graph)
    assert kind in {d.kind for d in exc.value.diagnostics}, exc.value.diagnostics


def test_duplicate_tag_in_inventory(graph):
    _expect_kind(graph, "tags AA, AA\n[pos = 'AA'] => [mass].\n", "duplicate-tag")


def test_duplicate_coverage_rule(graph):
    _expect_kind(
        graph,
        "tags AA\n[pos = 'AA'] => [mass].\n[pos = 'AA'] => [sg].\n",
        "duplicate-rule")


def test_rule_for_tag_outside_inventory(graph):
    _expect_kind(graph, "tags AA\n[pos = 'ZZ'] => [mass].\n", "unknown-tag")


def test_exception_for_tag_outside_inventory(graph):
    _expect_kind(
        graph,
        "tags AA\n[pos = 'AA'] => [mass].\n[be] << [pos = 'ZZ'] >> [sg].\n",
        "unknown-tag")


def test_duplicate_word_same_tag(graph):
    body = ("tags AA\n[pos = 'AA'] => [n].\n"
            "[be] << [pos = 'AA'] >> [mass].\n"
            "[be] << [pos = 'AA'] >> [sg].\n")
    _expect_kind(graph, body, "duplicate-word")


def test_same_word_under_two_tags_is_fine(graph):
    body = ("tags AA, BB\n[pos = 'AA'] => [n].\n[pos = 'BB'] => [pron].\n"
            "[be] << [pos = 'AA'] >> [mass].\n"
            "[be] << [pos = 'BB'] >> [antec = prs].\n")
    rs = parse_rules(header() + body, graph)
    assert ("be", "AA") in rs.word_index and ("be", "BB") in rs.word_index


def test_rule_head_must_be_quoted_tag(graph):
    _expect_kind(graph, "tags AA\n[pos = AA] => [mass].\n", "malformed-rule")
    # a bare-name head reads as a word list, so the parser wants '<<'
    _expect_kind(graph, "tags AA\n[mass] => [sg].\n", "syntax")


def test_note_for_tag_outside_inventory(graph):
    _expect_kind(graph, "tags AA\n[pos = 'AA'] => [n].\nnote ZZ \"z\".\n",
                 "unknown-tag")


def test_second_note_for_a_tag(graph):
    body = ("tags AA\nnote AA \"first\".\n[pos = 'AA'] => [n].\n"
            "note AA 'second'.\n")
    with pytest.raises(CompileError) as exc:
        parse_rules(header() + body, graph)
    assert [d.render() for d in exc.value.diagnostics] == [
        "error [duplicate-note] at 5:1: tag AA already has a note"]


def test_notes_map_tags_to_text(rules, graph):
    assert rules.notes == {"POS": "clitic possessives ('s/POS) are separate "
                           "tokens; their reading is the possessive-marker class"}
    # a malformed note is skipped to its '.', and parsing goes on
    body = "tags AA\nnote AA bad.\nnote ZZ 'z'.\n[pos = 'AA'] => [n].\n"
    with pytest.raises(CompileError) as exc:
        parse_rules(header() + body, graph)
    assert [d.kind for d in exc.value.diagnostics] == ["syntax", "unknown-tag"]


def test_ill_typed_rule_target_is_reported(graph):
    with pytest.raises(CompileError) as exc:
        parse_rules(header() + "tags AA\n[pos = 'AA'] => [sg & mass].\n", graph)
    assert any("sg" in d.message for d in exc.value.diagnostics)


def test_errors_collected_across_rules(graph):
    body = ("tags AA, AA\n"
            "[pos = 'AA'] => [mass].\n"
            "[pos = 'ZZ'] => [sg].\n")
    with pytest.raises(CompileError) as exc:
        parse_rules(header() + body, graph)
    kinds = {d.kind for d in exc.value.diagnostics}
    assert {"duplicate-tag", "unknown-tag"} <= kinds


def test_exception_without_coverage_warns(graph):
    body = ("tags AA, BB\n[pos = 'AA'] => [n].\n"
            "[be] << [pos = 'BB'] >> [mass].\n")
    rs = parse_rules(header() + body, graph)
    assert any(w.kind == "exception-without-coverage" for w in rs.warnings)


def test_redundant_exception_warns(graph):
    # the entry's reading equals the coverage rule's, so it changes nothing
    body = ("tags AA\n[pos = 'AA'] => [mass].\n"
            "[be] << [pos = 'AA'] >> [mass].\n")
    rs = parse_rules(header() + body, graph)
    assert any(w.kind == "redundant-exception" for w in rs.warnings)
    assert all(w.severity == "warning" for w in rs.warnings)


def test_exception_order_independent_of_rule_order(graph):
    # a lexicon entry may precede the coverage rule it refines
    body = ("tags AA\n"
            "[be] << [pos = 'AA'] >> [mass].\n"
            "[pos = 'AA'] => [n].\n")
    rs = parse_rules(header() + body, graph)
    assert rs.warnings == []
    assert rs.lookup("AA", "be").reading == "[mass]"


def test_multi_word_entry_preserves_order(rules):
    entry = rules.word_index[("was", "VBD")]
    assert entry.words == ("was", "were", "had", "did")
    assert entry is rules.word_index[("did", "VBD")]


def test_rule_parsing_is_linear_in_the_number_of_tags():
    # 81, 243 and 729 full conjunctions over the 2,187 classes of the six-
    # feature ladder: each size is three times the last, so linear reads
    # about 3 and quadratic about 9 (3.5 here, as each rule also gains an
    # atom); nine rounds, as the smallest size takes only about 4 ms
    six = parse_tagset_definition(gen.ladder_tagset(6))
    ratios = doubling_ratios(lambda text: parse_rules(text, six),
                             [positional_rules(6, k) for k in (3, 4, 5)],
                             repeats=9)
    assert all(r < 5 for r in ratios), ratios


def test_rule_parsing_work_is_linear_in_the_number_of_tags(monkeypatch):
    # the counter twin of the test above, on the same rule sets: the cursor
    # steps over each token once, never back, and each rule is typechecked
    # once, so the work grows exactly as the input does
    six = parse_tagset_definition(gen.ladder_tagset(6))
    steps, checks = [], []

    class CountingCursor(TokenCursor):
        @property
        def pos(self):
            return self._at

        @pos.setter
        def pos(self, at):
            assert at >= getattr(self, "_at", 0), "the cursor stepped back"
            steps[-1] += at - getattr(self, "_at", 0)
            self._at = at

    def counting_cursor(source):
        c = tokenize(source)
        return CountingCursor(c.kinds, c.texts, c.lines, c.columns)

    def counting(target, graph):
        checks[-1] += 1
        return typecheck(target, graph)

    typecheck = maprules.typecheck
    monkeypatch.setattr(maprules, "tokenize", counting_cursor)
    monkeypatch.setattr(maprules, "typecheck", counting)
    tokens, tags = [], []
    for k in (3, 4, 5):
        text = positional_rules(6, k)
        steps.append(0)
        checks.append(0)
        tags.append(len(parse_rules(text, six).inventory))
        tokens.append(len(tokenize(text)))
    assert tags == [81, 243, 729]
    # every token but the final EOF is stepped over
    assert steps == [n - 1 for n in tokens]
    assert checks == tags
    # a rule of k + 1 atoms is 12 + 4k tokens; the header, the tags line and
    # EOF add 2n + 6 more for n tags
    assert tokens == [n * (12 + 4 * k) + 2 * n + 6
                      for n, k in zip(tags, (3, 4, 5))]
