"""Command-line entry points."""

import contextlib
import io
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from functools import reduce
from operator import or_
from pathlib import Path

import gen
import pytest
from hypothesis import given, settings, strategies as st

import tagmap
from tagmap import CompileError, compile_spec, parse_rules, parse_tagset_definition
from tagmap.cli import main

from inputs import guarded_chain
from oracles import FIXTURES, oracle_retag_cli
from support import doubling_ratios, time_limit

TAGSET = str(FIXTURES / "eagles-en.tagset")
RULES = str(FIXTURES / "upenn.rules")

FLAGSHIP = "[vtype = con & vform = inf | vtype = prim & tense = past]"
FLAGSHIP_OUT = (
    '[((pos = "VB" & word != "be|do|have")'
    '|(pos = "VBD" & word = "was|were|had|did")'
    '|(pos = "VBN" & word = "been|had|done"))]\n'
    "WARN noise VB: vtype=con & vform=fin & (mood=subj | mood=imp)\n")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compile_summary(capsys):
    code, out, _ = run(capsys, "compile", "--tagset", TAGSET, "--rules", RULES)
    assert code == 0
    assert out == "tags: 36, classes: 89, warnings: 0\n"


def test_check_is_an_alias(capsys):
    a = run(capsys, "compile", "--tagset", TAGSET, "--rules", RULES)
    b = run(capsys, "check", "--tagset", TAGSET, "--rules", RULES)
    assert a == b


def test_compile_tagset_alone(capsys):
    code, out, _ = run(capsys, "compile", "--tagset", TAGSET)
    assert code == 0
    assert "classes: 89" in out


def test_compile_reports_definition_errors(capsys, tmp_path):
    bad = tmp_path / "bad.tagset"
    bad.write_text("tagset t hierarchy { v n v }")
    code, out, err = run(capsys, "compile", "--tagset", str(bad))
    assert code == 1
    assert "duplicate-node" in out + err


def test_compile_deep_hierarchy(capsys, tmp_path):
    depth = 3000
    deep = tmp_path / "deep.tagset"
    deep.write_text("tagset deep hierarchy { "
                    + " ".join(f"n{i} {{" for i in range(depth))
                    + " }" * depth + " }")
    code, out, _ = run(capsys, "compile", "--tagset", str(deep))
    assert code == 0
    assert out == "tags: 0, classes: 1, warnings: 0\n"


def test_huge_universe_is_a_compile_error(capsys, tmp_path):
    # one leaf with three 128-value features has 2**21 terminal classes,
    # twice the bound; it is reported at the third feature before any of
    # its classes are built, where building them ran out of memory
    huge = tmp_path / "huge.tagset"
    huge.write_text("tagset huge hierarchy { a }\n" + "".join(
        f"feature {f} for root {{ {', '.join(f'{f}{i}' for i in range(128))} }}\n"
        for f in "fgh"))
    with time_limit(0.5):
        code, out, err = run(capsys, "compile", "--tagset", str(huge))
    assert (code, out) == (1, "")
    assert err == ("error [universe-too-large] at 4:9: feature 'h' takes the "
                   "tagset past 1048576 terminal classes\n")


def test_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "compile", "--tagset", "/no/such/file.tagset")
    assert code == 3
    assert "error:" in err


def test_strict_turns_warnings_into_failure(capsys, tmp_path):
    src = (FIXTURES / "upenn.rules").read_text()
    src = src.replace("tags CC,", "tags VBX, CC,")
    src += "\n[pos = 'VBX'] => [vtype = con & vform = part].\n"
    f = tmp_path / "overlap.rules"
    f.write_text(src)
    code, out, err = run(capsys, "compile", "--tagset", TAGSET, "--rules", str(f))
    assert code == 0
    assert "warnings: 3" in out
    code, out, err = run(capsys, "compile", "--tagset", TAGSET, "--rules", str(f),
                         "--strict")
    assert code == 2
    assert "nondisjunctive" in err and "hierarchical" in err


def test_explain_lists_every_tag(capsys):
    code, out, _ = run(capsys, "explain", "--tagset", TAGSET, "--rules", RULES)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 36
    assert lines[0] == "CC -> ctype=coord [1 class]"


def test_explain_strict_prints_the_rules_warnings(capsys, tmp_path):
    # a warning raised while the rules are parsed, not by the mapping tree
    f = tmp_path / "redundant.rules"
    f.write_text((FIXTURES / "upenn.rules").read_text()
                 + "[and] << [pos = 'CC'] >> [ctype=coord].\n")
    _, _, compiled = run(capsys, "compile", "--tagset", TAGSET, "--rules", str(f))
    code, out, err = run(capsys, "explain", "--tagset", TAGSET, "--rules", str(f),
                         "--strict")
    assert code == 2
    assert len(out.splitlines()) == 36
    assert err == compiled == (
        "warning [redundant-exception] at 61:1: exception reading for and "
        "under CC equals the tag's coverage reading\n")


def test_query_expr_flag(capsys):
    code, out, _ = run(capsys, "query", "--tagset", TAGSET, "--rules", RULES,
                       "-e", FLAGSHIP)
    assert code == 0
    assert out == FLAGSHIP_OUT


def test_query_batch_file(capsys, tmp_path):
    f = tmp_path / "queries.txt"
    f.write_text("[vtype = aux]\n" + FLAGSHIP + "\n")
    code, out, _ = run(capsys, "query", "--tagset", TAGSET, "--rules", RULES,
                       "--batch", str(f))
    assert code == 0
    assert out == '[(pos = "MD")]\n' + FLAGSHIP_OUT


def test_ill_typed_batch_query_fails(capsys, tmp_path):
    f = tmp_path / "queries.txt"
    f.write_text("[pos = v & case = gen]\n[vtype = aux]\n")
    code, out, err = run(capsys, "query", "--tagset", TAGSET, "--rules", RULES,
                         "--batch", str(f))
    assert code == 1
    text = out + err
    assert "pos=v & case=gen" in text
    # later queries still resolve
    assert '[(pos = "MD")]' in out


def test_query_expr_runs_before_the_batch_file(capsys, tmp_path):
    f = tmp_path / "queries.txt"
    f.write_text("[vtype = aux]\n[pos = v & case = gen]\n")
    code, out, err = run(capsys, "query", "--tagset", TAGSET, "--rules", RULES,
                         "--batch", str(f), "-e", FLAGSHIP)
    assert code == 1  # the ill-typed batch query fails the run
    assert out == FLAGSHIP_OUT + '[(pos = "MD")]\n'
    assert "pos=v & case=gen" in err


def test_quit_line_in_a_batch_file_is_skipped(capsys, tmp_path):
    f = tmp_path / "queries.txt"
    f.write_text("[vtype = aux]\n \\q \n" + FLAGSHIP + "\n")
    code, out, err = run(capsys, "query", "--tagset", TAGSET, "--rules", RULES,
                         "--batch", str(f))
    assert (code, err) == (0, "")
    assert out == '[(pos = "MD")]\n' + FLAGSHIP_OUT


def test_empty_spec_is_reported(capsys):
    code, out, err = run(capsys, "query", "--tagset", TAGSET, "--rules", RULES,
                         "-e", "[]")
    assert code == 1
    assert "syntax" in out + err


def test_interactive_session(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("[vtype = aux].\n[oops\n" + FLAGSHIP + "\n\\q\n"))
    code, out, err = run(capsys, "query", "--tagset", TAGSET, "--rules", RULES)
    assert code == 0  # interactive errors report and continue
    assert "Query> " in out
    assert '[(pos = "MD")]' in out
    assert "syntax" in err
    assert FLAGSHIP_OUT.rstrip("\n").splitlines()[0] in out


def test_interactive_eof_ends_session(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[vtype = aux]\n"))
    code, out, _ = run(capsys, "query", "--tagset", TAGSET, "--rules", RULES)
    assert code == 0
    assert '[(pos = "MD")]' in out


def test_interactive_blank_lines_print_nothing(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n   \n\\q\n"))
    code, out, err = run(capsys, "query", "--tagset", TAGSET, "--rules", RULES)
    assert code == 0
    assert (out, err) == ("Query> " * 3, "")


def test_query_strict_flags_noise(capsys):
    code, out, _ = run(capsys, "query", "--tagset", TAGSET, "--rules", RULES,
                       "-e", FLAGSHIP, "--strict")
    assert code == 2
    assert "WARN noise VB" in out


def test_retag_to_stdout(capsys, tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("anybody/NN was/VBD here/RB\n")
    code, out, _ = run(capsys, "retag", "--tagset", TAGSET, "--rules", RULES,
                       "--corpus", str(corpus))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("anybody\tNN\t[pos=pron")
    assert "# tokens: 3" in out
    assert "# exceptions: 2" in out


def test_retag_holes_fail(capsys, tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("foo/XYZ\n")
    code, out, _ = run(capsys, "retag", "--tagset", TAGSET, "--rules", RULES,
                       "--corpus", str(corpus))
    assert code == 1
    assert "# holes: 1 (XYZ: 1)" in out


def test_retag_output_file(capsys, tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("house/NN\n")
    dest = tmp_path / "out.tsv"
    code, out, _ = run(capsys, "retag", "--tagset", TAGSET, "--rules", RULES,
                       "--corpus", str(corpus), "-o", str(dest))
    assert code == 0
    written = dest.read_text()
    assert written.startswith("house\tNN\t[n & (common & sg | mass)]")
    # the summary travels with the records, so stdout stays quiet
    assert "# tokens: 1" in written
    assert out == ""


def test_retag_tsv_format(capsys, tmp_path):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("house\tNN\nwas\tVBD\n")
    code, out, _ = run(capsys, "retag", "--tagset", TAGSET, "--rules", RULES,
                       "--corpus", str(corpus), "--format", "tsv")
    assert code == 0
    assert "# tokens: 2" in out


def test_retag_malformed_strict(capsys, tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("good/NN\nbad line here\n")
    code, out, _ = run(capsys, "retag", "--tagset", TAGSET, "--rules", RULES,
                       "--corpus", str(corpus))
    assert code == 0
    assert "# malformed: 1" in out
    code, _, _ = run(capsys, "retag", "--tagset", TAGSET, "--rules", RULES,
                     "--corpus", str(corpus), "--strict")
    assert code == 2


def test_missing_corpus_leaves_output_untouched(capsys, tmp_path):
    dest = tmp_path / "out.tsv"
    code, out, err = run(capsys, "retag", "--tagset", TAGSET, "--rules", RULES,
                         "--corpus", str(tmp_path / "missing.txt"),
                         "-o", str(dest))
    assert code == 3
    assert "error:" in err and out == ""
    assert not dest.exists()


def test_retag_refuses_to_overwrite_its_corpus(capsys, tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("house/NN\n")
    code, _, err = run(capsys, "retag", "--tagset", TAGSET, "--rules", RULES,
                       "--corpus", str(corpus), "-o", str(corpus))
    assert code == 3
    assert "error:" in err
    assert corpus.read_text() == "house/NN\n"


def test_undecodable_corpus_is_io_error(capsys, tmp_path):
    corpus = tmp_path / "c.txt"
    # enough good lines to fill the first read, then a latin-1 byte
    corpus.write_bytes(b"house/NN\n" * 2000 + b"caf\xe9/NN\n")
    dest = tmp_path / "out.tsv"
    code, out, err = run(capsys, "retag", "--tagset", TAGSET, "--rules", RULES,
                         "--corpus", str(corpus), "-o", str(dest))
    assert code == 3
    assert err.startswith("error:") and "decode" in err
    assert out == ""
    # the records made before the bad line stay, the summary is not written
    written = dest.read_text()
    assert written.startswith("house\tNN\t[n & (common & sg | mass)]")
    assert "# tokens" not in written


def test_undecodable_rules_file_is_io_error(capsys, tmp_path):
    rules = tmp_path / "bad.rules"
    rules.write_bytes((FIXTURES / "upenn.rules").read_bytes() + b"# caf\xe9\n")
    code, out, err = run(capsys, "compile", "--tagset", TAGSET,
                         "--rules", str(rules))
    assert code == 3
    assert err.startswith("error:") and "decode" in err
    assert out == ""


def _library_errors(tagset, rules):
    """The diagnostics the library raises on the two sources, as the CLI
    prints them."""
    try:
        graph = parse_tagset_definition(tagset)
        if rules is not None:
            parse_rules(rules, graph)
    except CompileError as exc:
        return "".join(d.render() + "\n" for d in exc.diagnostics)
    raise AssertionError("the sources compile")


_FIXTURE_TAGSET = (FIXTURES / "eagles-en.tagset").read_text()
_FIXTURE_RULES = (FIXTURES / "upenn.rules").read_text()
# a lone carriage return before an error: a blank to the lexer, a line end
# to a reader with universal newlines
_LONE_CR = {
    "tagset": ("tagset t hierarchy { a }\rfeature f for a { x }\n@\n", None),
    "rules": (_FIXTURE_TAGSET, _FIXTURE_RULES + "\r\r[pos = 'QQ'] => [n].\n"),
}


@pytest.mark.parametrize("tagset, rules", _LONE_CR.values(), ids=_LONE_CR)
def test_sources_are_read_untranslated(capsys, tmp_path, tagset, rules):
    argv = ["compile", "--tagset", str(tmp_path / "t.tagset")]
    (tmp_path / "t.tagset").write_text(tagset, newline="")
    if rules is not None:
        argv += ["--rules", str(tmp_path / "t.rules")]
        (tmp_path / "t.rules").write_text(rules, newline="")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == _library_errors(tagset, rules)


_OVERLAP_RULES = (_FIXTURE_RULES.replace("tags CC,", "tags VBX, CC,")
                  + "[pos = 'VBX'] => [vtype = con & vform = part].\n")
_TYPO_RULES = (_FIXTURE_RULES.replace("\n     ", "\n\t")
               + "\t[pos = 'ZZ'] =>\t[nosuch & sg].\n")


@pytest.mark.parametrize("rules", [_OVERLAP_RULES, _TYPO_RULES],
                         ids=["warnings", "errors"])
def test_crlf_sources_match_their_lf_twins(capsys, tmp_path, rules):
    outcomes = []
    for end in ("\n", "\r\n"):
        tagset, rules_file = tmp_path / "t.tagset", tmp_path / "t.rules"
        tagset.write_text(_FIXTURE_TAGSET.replace("\n", end), newline="")
        rules_file.write_text(rules.replace("\n", end), newline="")
        outcomes.append(run(capsys, "compile", "--tagset", str(tagset),
                            "--rules", str(rules_file)))
    assert outcomes[0] == outcomes[1]
    assert " at " in outcomes[0][2]


def test_a_failure_outranks_strict_warnings(capsys, monkeypatch, tmp_path):
    strict = ["--tagset", TAGSET, "--rules", RULES, "--strict"]
    batch = tmp_path / "queries.txt"
    batch.write_text("[pos = v & case = gen]\n" + FLAGSHIP + "\n")
    code, out, _ = run(capsys, "query", *strict, "--batch", str(batch))
    assert (code, out) == (1, FLAGSHIP_OUT)
    corpus = tmp_path / "c.txt"
    corpus.write_text("foo/XYZ\nbad line here\n")
    code, out, _ = run(capsys, "retag", *strict, "--corpus", str(corpus))
    assert code == 1
    assert "# holes: 1 (XYZ: 1)" in out and "# malformed: 1" in out
    # a tagset alone neither fails nor warns
    assert run(capsys, "compile", "--tagset", TAGSET, "--strict")[0] == 0
    # the prompt's ill-typed queries do not fail the session, so the noise
    # of the next one decides
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("[pos = v & case = gen]\n" + FLAGSHIP + "\n"))
    code, out, err = run(capsys, "query", *strict)
    assert code == 2
    assert "pos=v & case=gen" in err and "WARN noise VB" in out


# line pieces for both formats: tokens, exception words, holes, malformed
# tokens and lines, blanks; each format also meets the other's lines
_PIECES = ("house/NN", "anybody/NN", "was/VBD", "1/2/CD", "'s/POS",
           "foo/XYZ", "orphan", "word/", "/NN", "", " ", "house\tNN",
           "was\tVBD", "foo\tXYZ", "x\t", "\tNN", "a\tb\tc")
# every line boundary of str.splitlines that a corpus is likely to hold
_BREAKS = ("\n", "\r\n", "\r", "\x0c", "\x85", "\u2028")
_corpora = st.builds(
    lambda lines, last: "".join(line + br for line, br in lines) + last,
    st.lists(st.tuples(st.lists(st.sampled_from(_PIECES), max_size=3)
                       .map(" ".join), st.sampled_from(_BREAKS)),
             max_size=8),
    st.sampled_from(("", "house/NN", "was\tVBD", "orphan")))


@given(text=_corpora, fmt=st.sampled_from(("slash", "tsv")),
       to_file=st.booleans(), strict=st.booleans())
@settings(max_examples=60, deadline=None)
def test_streaming_retag_matches_read_all(rules, text, fmt, to_file, strict):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.txt"
        with open(corpus, "w", newline="") as fh:
            fh.write(text)
        argv = ["retag", "--tagset", TAGSET, "--rules", RULES,
                "--corpus", str(corpus), "--format", fmt]
        if to_file:
            argv += ["-o", str(Path(tmp) / "streamed.tsv")]
        if strict:
            argv.append("--strict")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        reference = Path(tmp) / "reference.tsv" if to_file else None
        assert (code, out.getvalue(), err.getvalue()) == oracle_retag_cli(
            rules, corpus, fmt, reference, strict)
        if to_file:
            assert ((Path(tmp) / "streamed.tsv").read_bytes()
                    == reference.read_bytes())


def _retag_peak(rules, tmp_path, tokens: int) -> int:
    """Peak traced memory of an in-process retag of a generated corpus."""
    rng = random.Random(tokens)
    pairs = list(rules.word_index)
    corpus = tmp_path / f"corpus-{tokens}.txt"
    with open(corpus, "w") as fh:
        for start in range(0, tokens, 10):
            fh.write(" ".join(
                "/".join(rng.choice(pairs)) if rng.random() < 0.05
                else f"x{rng.randrange(5000)}/{rng.choice(rules.inventory)}"
                for _ in range(min(10, tokens - start))) + "\n")
    tracemalloc.start()
    try:
        code = main(["retag", "--tagset", TAGSET, "--rules", RULES,
                     "--corpus", str(corpus), "-o", str(tmp_path / "out.tsv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_retag_memory_does_not_grow_with_the_corpus(rules, tmp_path):
    small = _retag_peak(rules, tmp_path, 20_000)
    large = _retag_peak(rules, tmp_path, 200_000)
    assert large - small < 2 * 1024 * 1024, (small, large)


def test_retag_is_linear_in_the_number_of_tokens(capsys, rules, tmp_path):
    # about 5k, 10k and 20k tokens of the benchmark's generated corpus,
    # retagged in-process to a file; each run also compiles the fixture
    pairs = list(rules.word_index)
    corpora = []
    for tokens in (5_000, 10_000, 20_000):
        corpus = tmp_path / f"corpus-{tokens}.txt"
        corpus.write_text("".join(
            line.text + "\n" for line in gen.corpus_lines(
                random.Random(tokens), rules.inventory, pairs, tokens)))
        corpora.append(str(corpus))

    def retag(corpus):
        assert main(["retag", "--tagset", TAGSET, "--rules", RULES,
                     "--corpus", corpus, "-o", str(tmp_path / "out.tsv")]) == 0

    ratios = doubling_ratios(retag, corpora)
    capsys.readouterr()
    assert all(r < 3 for r in ratios), ratios


_ADVERSARIAL = {
    "parentheses": "(" * 1200 + "noun" + ")" * 1200,
    "negations": "!" * 3000 + "noun",
    # a flat run is one level however long, so these are not too deep and
    # mean what their one operand, the noun node, means
    "conjuncts": " & ".join(["n"] * 2000),
    "disjuncts": " | ".join(["n"] * 1000),
}
_FLAT_RUNS = ("conjuncts", "disjuncts")


@pytest.mark.parametrize("name", _ADVERSARIAL)
def test_deep_query_is_a_syntax_error(capsys, name):
    code, out, err = run(capsys, "query", "--tagset", TAGSET, "--rules", RULES,
                         "-e", _ADVERSARIAL[name])
    if name in _FLAT_RUNS:
        assert (code, out, err) == run(capsys, "query", "--tagset", TAGSET,
                                       "--rules", RULES, "-e", "n")
        assert code == 0
    else:
        assert code == 1
        assert "error [syntax]" in err and "nested deeper" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("name", _ADVERSARIAL)
def test_deep_rule_is_a_syntax_error(capsys, tmp_path, name):
    def compile_rule(spec):
        f = tmp_path / "deep.rules"
        f.write_text("mapping deep for tagset eagles-en\ntags NN\n"
                     f"[pos = 'NN'] => [{spec}].\n")
        return run(capsys, "compile", "--tagset", TAGSET, "--rules", str(f))

    code, out, err = compile_rule(_ADVERSARIAL[name])
    if name in _FLAT_RUNS:
        assert (code, out, err) == compile_rule("n")
        assert code == 0
    else:
        assert code == 1
        assert "error [syntax]" in err and "nested deeper" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("command", ["compile", "explain"])
def test_a_guarded_chain_of_300_features_is_reported(capsys, tmp_path, command):
    # the hole's cover nests one factored group per feature, 299 of them,
    # which a renderer that recursed once per group could not write
    tagset, rules = guarded_chain(300)
    (tmp_path / "chain.tagset").write_text(tagset)
    (tmp_path / "chain.rules").write_text(rules)
    with time_limit(20):
        code, out, err = run(capsys, command, "--tagset", str(tmp_path / "chain.tagset"),
                             "--rules", str(tmp_path / "chain.rules"))
    assert code == 0
    assert "Traceback" not in out + err
    hole = "no physical tag reaches f0=a0 | f0=b0 & (f1=a1 | f1=b1 & (f2=a2 | "
    if command == "compile":
        assert out == "tags: 300, classes: 601, warnings: 1\n"
        assert err.startswith("warning [definition_hole_target]: " + hole)
    else:
        assert len(out.splitlines()) == 301
        assert "WARN [definition_hole_target] " + hole in out
    assert "(f299=a299 | f299=b299" + ")" * 299 + " [301 classes]" in out + err


def test_a_cover_of_200_primes_compiles_back(capsys, tmp_path):
    # every other class of a 400-value feature over two leaves is 200
    # primes, more than MAX_SPEC_DEPTH levels if each counted as one
    values = ", ".join(f"v{i}" for i in range(400))
    cover = " | ".join(f"f=v{i}" for i in range(0, 400, 2))
    (tmp_path / "wide.tagset").write_text(
        f"tagset wide hierarchy {{ a b }}\nfeature f for root {{ {values} }}\n")
    (tmp_path / "wide.rules").write_text(
        f"mapping wide for tagset wide\ntags W\n[pos = 'W'] => [{cover}].\n")
    code, out, err = run(capsys, "explain", "--tagset", str(tmp_path / "wide.tagset"),
                         "--rules", str(tmp_path / "wide.rules"))
    assert code == 0
    assert out.splitlines()[0] == f"W -> {cover} [400 classes]"
    assert "Traceback" not in out + err


@pytest.mark.parametrize("n, groups", [(75, 74), (76, 75)])
def test_a_hole_cover_reads_back_in_up_to_74_groups(capsys, tmp_path, n, groups):
    # each factored group of the printed cover adds a level of | and one of
    # &, on top of the outer run's two: 74 groups nest 149 levels and read
    # back in, 75 nest 151, past MAX_SPEC_DEPTH
    tagset, rules = guarded_chain(n)
    (tmp_path / "chain.tagset").write_text(tagset)
    (tmp_path / "chain.rules").write_text(rules)
    code, _, err = run(capsys, "compile", "--tagset", str(tmp_path / "chain.tagset"),
                       "--rules", str(tmp_path / "chain.rules"))
    assert code == 0
    cover = err.splitlines()[0].split(" reaches ", 1)[1].rsplit(" [", 1)[0]
    assert cover.count("(") == groups
    graph = parse_tagset_definition(tagset)
    if groups > 74:
        with pytest.raises(CompileError, match="nested deeper than 150 levels"):
            compile_spec(cover, graph)
        return
    covered = reduce(or_, (r.typed.denotation
                           for r in parse_rules(rules, graph).coverage.values()))
    assert compile_spec(cover, graph).denotation == graph.full_mask & ~covered


_RESOLVER_LOADED = """
import sys
from tagmap.cli import main
main(sys.argv[1:])
print("resolver loaded:", "tagmap.resolver" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("command", ["compile", "check", "explain", "retag", "query"])
def test_only_query_loads_the_resolver(tmp_path, command):
    # in a fresh interpreter, since this one has imported the resolver
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("The/DT dog/NN\n")
    extra = {"retag": ["--corpus", str(corpus)], "query": ["-e", "v & vform=fin"]}
    src = str(Path(tagmap.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _RESOLVER_LOADED, command, "--tagset", TAGSET,
         "--rules", RULES, *extra.get(command, [])],
        env=env, capture_output=True, text=True, timeout=60)
    loaded = command == "query"
    assert done.stderr.splitlines()[-1] == f"resolver loaded: {loaded}", done.stderr


def test_the_lazy_names_are_the_resolver_s():
    from tagmap import Resolution
    import tagmap.resolver
    assert Resolution is tagmap.resolver.Resolution
    assert tagmap.TagPattern is tagmap.resolver.TagPattern
    assert all(getattr(tagmap, name) is not None for name in tagmap.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        tagmap.no_such_name


def test_query_strict_ignores_tags_spelled_warn(capsys, tmp_path):
    # a pattern naming a tag WARN is not a warning
    f = tmp_path / "warn.rules"
    f.write_text((FIXTURES / "upenn.rules").read_text()
                 .replace("MD", "WARN"))
    code, out, _ = run(capsys, "query", "--tagset", TAGSET, "--rules", str(f),
                       "-e", "[vtype = aux]", "--strict")
    assert out == '[(pos = "WARN")]\n'
    assert code == 0
