"""The benchmark's traced run still finds every package name it wraps.

``perfbench/layers.py`` patches module attributes by name and reads
``TypeGraph.cover_candidates``; a rename or deletion in the package would
only show when the benchmark runs with ``--trace 1``.  This runs the same
wrappers over the fixture session and edits nothing under ``perfbench/``.
"""
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

import tagmap  # noqa: E402

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
    assert m["lexer.tokens"] > 0
    for key in ("maprules.typecheck_calls", "specexpr.dnf_disjuncts",
                "specexpr.cover_calls", "mtree.build_s", "resolver.resolve_s"):
        assert key in m, key
