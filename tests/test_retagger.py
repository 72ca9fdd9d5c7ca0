"""Corpus retagging against the compiled rule set."""

import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from tagmap import (
    CorpusToken,
    Diagnostic,
    RetagRecord,
    RetagSummary,
    parse_corpus_line,
    parse_rules,
    retag_lines,
    retag_token,
)

from oracles import FIXTURES, oracle_rules


def test_slash_line_splits_tokens():
    toks = parse_corpus_line("Peter/NP 's/POS house/NN", 1)
    assert [(t.word, t.tag) for t in toks] == [
        ("Peter", "NP"), ("'s", "POS"), ("house", "NN")]
    assert all(t.line == 1 for t in toks)


def test_slash_splits_on_last_separator():
    (tok,) = parse_corpus_line("1/2/CD", 4)
    assert tok.word == "1/2" and tok.tag == "CD" and tok.line == 4


def test_slashless_token_is_malformed():
    d = parse_corpus_line("word", 7)
    assert isinstance(d, Diagnostic)
    assert d.kind == "malformed-token"
    assert d.span.line == 7


@pytest.mark.parametrize("line, column", [
    ("ab/NN b", 7),             # the bad piece also occurs inside an earlier one
    ("x/NN  xy/NN x", 13),
])
def test_malformed_token_column(line, column):
    d = parse_corpus_line(line, 3)
    assert d.kind == "malformed-token"
    assert (d.span.line, d.span.column) == (3, column)


BLANKS = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
_ink = st.one_of(st.sampled_from("ab/N"),
                 st.characters().filter(lambda c: not c.isspace()))


def _blanks(min_size):
    return st.text(st.sampled_from(BLANKS), min_size=min_size, max_size=3)


@st.composite
def _slash_lines(draw):
    """A line's pieces, some with no word/TAG split, and the line itself:
    the pieces joined by runs of any ``str.isspace`` characters."""
    pieces = draw(st.lists(st.text(_ink, min_size=1, max_size=6),
                           min_size=1, max_size=8))
    gaps = [draw(_blanks(0))] + [draw(_blanks(1)) for _ in pieces[1:]]
    return pieces, "".join(g + p for g, p in zip(gaps, pieces)) + draw(_blanks(0))


def _run_starts(text):
    """Where each run of non-blank characters in ``text`` starts."""
    return [i for i, c in enumerate(text)
            if not c.isspace() and (i == 0 or text[i - 1].isspace())]


@settings(max_examples=300, deadline=None)
@example((["x/NN", "x"], "\x1cx/NN\x85\xa0x\u3000"))
@given(_slash_lines())
def test_a_malformed_token_s_column_starts_its_run_of_non_blanks(drawn):
    pieces, text = drawn
    parsed = parse_corpus_line(text, 3)
    bad = [k for k, piece in enumerate(pieces)
           if not all(piece.rpartition("/"))]
    if not bad:
        assert [f"{t.word}/{t.tag}" for t in parsed] == pieces
        return
    assert parsed.kind == "malformed-token"
    assert (parsed.span.line, parsed.span.column) == (
        3, _run_starts(text)[bad[0]] + 1)


def test_blank_lines_produce_nothing():
    assert parse_corpus_line("", 1) == []
    assert parse_corpus_line("   ", 2) == []
    assert parse_corpus_line("\n", 3, "tsv") == []


def test_tsv_line():
    (tok,) = parse_corpus_line("house\tNN", 2, "tsv")
    assert (tok.word, tok.tag) == ("house", "NN")


def test_tsv_malformed():
    d = parse_corpus_line("houseNN", 2, "tsv")
    assert isinstance(d, Diagnostic) and d.kind == "malformed-line"


def test_a_tsv_line_ending_in_crlf_loses_both_characters():
    # a line read with ``newline=""`` keeps its "\r\n"; the slash format
    # splits on whitespace, so only the tsv one would keep the "\r"
    (tok,) = parse_corpus_line("w\tNN\r\n", 1, "tsv")
    assert (tok.word, tok.tag) == ("w", "NN")
    d = parse_corpus_line("w\t\r\n", 1, "tsv")
    assert isinstance(d, Diagnostic) and d.kind == "malformed-line"


def test_an_unknown_corpus_format_is_an_error():
    with pytest.raises(ValueError, match="unknown corpus format 'xml'"):
        parse_corpus_line("a/NN", 1, "xml")


def test_exception_word_overrides_coverage(rules):
    rec = retag_token(rules, CorpusToken("anybody", "NN"))
    assert rec.reading == "[pos=pron & antec=prs & type=indef]"
    assert rec.provenance == "exception"
    assert rec.flags == ("underspecified",)
    assert rec.render() == ("anybody\tNN\t[pos=pron & antec=prs & type=indef]"
                            "\texception\tunderspecified")


def test_plain_word_gets_coverage_reading(rules):
    rec = retag_token(rules, CorpusToken("house", "NN"))
    assert rec.reading == "[n & (common & sg | mass)]"
    assert rec.provenance == "coverage"
    assert rec.flags == ("underspecified",)


def test_singleton_reading_is_not_underspecified(rules):
    rec = retag_token(rules, CorpusToken("and", "CC"))
    assert rec.flags == ()
    assert rec.render() == "and\tCC\t[conj & coord]\tcoverage\t-"


def test_unknown_tag_is_a_hole(rules):
    rec = retag_token(rules, CorpusToken("foo", "XYZ"))
    assert rec.reading is None and rec.provenance == "-"
    assert rec.flags == ("hole",)
    assert rec.render() == "foo\tXYZ\t-\t-\thole"


def test_readings_are_verbatim_rule_text(rules):
    # the record carries the rule's own reading, never a re-rendering
    for word, tag in [("was", "VBD"), ("been", "VBN"), ("house", "NN"),
                      ("run", "VB"), ("the", "DT")]:
        rec = retag_token(rules, CorpusToken(word, tag))
        entry = rules.word_index.get((word, tag))
        want = entry.reading if entry else rules.coverage[tag].reading
        assert rec.reading == want


def test_stream_preserves_input_order(rules):
    lines = ["anybody/NN was/VBD here/RB", "", "Peter/NP 's/POS house/NN"]
    words = [r.token.word for r in retag_lines(rules, lines)]
    assert words == ["anybody", "was", "here", "Peter", "'s", "house"]


def test_stream_interleaves_diagnostics(rules):
    out = list(retag_lines(rules, ["good/NN", "bad", "also/RB"]))
    assert isinstance(out[0], RetagRecord)
    assert isinstance(out[1], Diagnostic)
    assert isinstance(out[2], RetagRecord)


def test_empty_corpus(rules):
    assert list(retag_lines(rules, [])) == []
    s = RetagSummary()
    assert "# tokens: 0" in s.render()


def test_summary_counts_and_hole_breakdown(rules):
    lines = ["anybody/NN was/VBD here/RB", "Peter/NP 's/POS house/NN",
             "1/2/CD", "foo/XYZ", "bar/XYZ", "baz/ZZZ", "oops"]
    summary = RetagSummary()
    for item in retag_lines(rules, lines):
        summary.add(item)
    assert summary.tokens == 10
    assert summary.exceptions == 2
    assert summary.underspecified == 4
    assert summary.holes == 3
    assert summary.malformed == 1
    assert summary.holes_by_tag == {"XYZ": 2, "ZZZ": 1}
    text = summary.render()
    assert "# tokens: 10" in text
    assert "# holes: 3 (XYZ: 2, ZZZ: 1)" in text
    assert "# malformed: 1" in text


def _notes(rules, notes, lines):
    summary = RetagSummary(notes=notes)
    for item in retag_lines(rules, lines):
        summary.add(item)
    return [l for l in summary.render().splitlines() if l.startswith("# note:")]


def test_possessive_clitic_note(rules):
    # the note is the rule set's, read from the fixture's ``note POS`` line
    (note,) = _notes(rules, rules.notes, ["Peter/NP 's/POS house/NN"])
    assert note == "# note: " + rules.notes["POS"]
    assert "'s/POS" in note


def test_note_emitted_once(rules):
    notes = {"POS": "possessive", "NN": "noun"}
    assert _notes(rules, notes, ["a/POS b/NN c/POS", "d/NN"]) == [
        "# note: possessive", "# note: noun"]
    assert _notes(rules, notes, ["a/RB"]) == []


def test_no_notes_without_note_lines(graph):
    # the fixture less its note line: generic code adds no note for POS
    source = "\n".join(l for l in (FIXTURES / "upenn.rules").read_text()
                       .splitlines() if not l.startswith("note "))
    bare = parse_rules(source, graph)
    assert bare.notes == {}
    assert _notes(bare, bare.notes, ["Peter/NP 's/POS house/NN"]) == []


def test_synthetic_corpus_exception_count(rules):
    """1000 tokens with exactly 40 lexicon hits, counted two ways."""
    exceptional = sorted({(w, t) for words, t, _ in oracle_rules().exceptions
                          for w in words})
    rng = random.Random(417)
    picks = [rng.choice(exceptional) for _ in range(40)]
    fillers = [("dog", "NN"), ("runs", "VBZ"), ("the", "DT"), ("old", "JJ"),
               ("quickly", "RB"), ("and", "CC"), ("house", "NN")]
    tokens = picks + [rng.choice(fillers) for _ in range(960)]
    rng.shuffle(tokens)
    lines = [" ".join(f"{w}/{t}" for w, t in tokens[i:i + 10])
             for i in range(0, len(tokens), 10)]

    summary = RetagSummary()
    records = []
    for item in retag_lines(rules, lines):
        summary.add(item)
        records.append(item)

    assert summary.tokens == 1000
    assert summary.holes == 0 and summary.malformed == 0
    # independent count straight off the corpus construction: the filler
    # pairs never collide with the lexicon
    assert not set(fillers) & set(exceptional)
    assert summary.exceptions == 40
    hit = sum(1 for r in records if r.provenance == "exception")
    assert hit == 40


def test_output_is_byte_deterministic(rules):
    lines = ["anybody/NN was/VBD here/RB", "Peter/NP 's/POS house/NN"]

    def run():
        summary = RetagSummary()
        body = []
        for item in retag_lines(rules, lines):
            summary.add(item)
            body.append(item.render())
        return "\n".join(body) + "\n" + summary.render()

    assert run() == run()
