"""The benchmark's traced run still finds every package name it wraps.

``perfbench/layers.py`` patches module attributes by name and reads
``TypeGraph.cover_candidates``; a rename or deletion in the package would
only show when the benchmark runs with ``--trace 1``.  This runs the same
wrappers over the fixture session and a command-line retag, and edits
nothing under ``perfbench/``.
"""
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

import tagmap  # noqa: E402
import tagmap.cli  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402

from oracles import FIXTURES  # noqa: E402


def test_traced_fixture_session_reports_every_layer():
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        graph = tagmap.parse_tagset_definition(
            (FIXTURES / "eagles-en.tagset").read_text())
        rules = tagmap.parse_rules((FIXTURES / "upenn.rules").read_text(), graph)
        tagmap.render_explain(tagmap.build_mtree(rules))
        tagmap.resolve(rules, "[pos = pron & type = indef]")
    finally:
        tracer.uninstall()
    m = layers.metrics(tracer)
    assert m["typegraph.candidates"] == 224
    # 187 tagset + 832 rules + 10 query tokens, EOF tokens included
    assert m["lexer.tokens"] == 1029
    for key in ("maprules.typecheck_calls", "specexpr.dnf_disjuncts",
                "specexpr.cover_calls", "mtree.build_s", "resolver.resolve_s"):
        assert key in m, key


def test_traced_retag_reports_retagger_counts(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    # two exception words, a hole (XYZ has no rule) and a malformed token
    corpus.write_text("anybody/NN was/VBD here/RB\nfoo/XYZ\noops\n"
                      "Peter/NP 's/POS\n")
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        code = tagmap.cli.main([
            "retag", "--tagset", str(FIXTURES / "eagles-en.tagset"),
            "--rules", str(FIXTURES / "upenn.rules"), "--corpus", str(corpus)])
    finally:
        tracer.uninstall()
    assert code == 1
    assert "# note: clitic possessives" in capsys.readouterr().out
    m = layers.metrics(tracer)
    assert tracer.calls("retagger.retag_token") == 6
    assert m["retagger.exception_hits"] == 2
    assert m["retagger.malformed"] == 1
    busy = sum(m[f"retagger.{k}_s"] for k in ("parse_line", "retag_token",
                                              "render"))
    assert m["retagger.tokens_per_s"] == pytest.approx(6 / busy)
    assert m["retagger.tokens_per_s"] > 0
