"""Which ``tagmap`` functions the traced run wraps, and the per-layer metrics
computed from their spans.

Each wrapper replaces the name a module imported, so that only calls that
cross a layer boundary become spans; nothing inside ``src/`` is changed.
"""
from __future__ import annotations

import importlib

from spans import Tracer

# (importing module, attribute, span name); the span name's prefix is the
# module that defines the function, which is the layer it belongs to.
_FUNCTIONS = (
    ("tagmap.typegraph", "tokenize", "lexer.tokenize"),
    ("tagmap.specexpr", "tokenize", "lexer.tokenize"),
    ("tagmap.maprules", "tokenize", "lexer.tokenize"),
    ("tagmap", "parse_tagset_definition", "typegraph.compile"),
    ("tagmap.cli", "parse_tagset_definition", "typegraph.compile"),
    ("tagmap.typegraph:TypeGraph", "cover_node", "typegraph.cover_node"),
    ("tagmap", "parse_rules", "maprules.parse_rules"),
    ("tagmap.cli", "parse_rules", "maprules.parse_rules"),
    ("tagmap.specexpr", "parse_spec", "specexpr.parse"),
    ("tagmap.maprules", "parse_spec_at", "specexpr.parse"),
    ("tagmap.specexpr", "typecheck", "specexpr.typecheck"),
    ("tagmap.maprules", "typecheck", "specexpr.typecheck"),
    ("tagmap.resolver", "typecheck", "specexpr.typecheck"),
    ("tagmap.resolver", "minimal_cover", "specexpr.minimal_cover"),
    ("tagmap.mtree", "minimal_cover", "specexpr.minimal_cover"),
    ("tagmap.resolver", "render_cover", "specexpr.render_cover"),
    ("tagmap.mtree", "render_cover", "specexpr.render_cover"),
    ("tagmap", "build_mtree", "mtree.build"),
    ("tagmap.cli", "build_mtree", "mtree.build"),
    ("tagmap", "render_explain", "mtree.explain"),
    ("tagmap.cli", "render_explain", "mtree.explain"),
    ("tagmap", "resolve", "resolver.resolve"),
    ("tagmap.cli", "resolve", "resolver.resolve"),
    ("tagmap.resolver:Resolution", "render", "resolver.render"),
    ("tagmap.retagger", "parse_corpus_line", "retagger.parse_line"),
    ("tagmap.retagger", "retag_token", "retagger.retag_token"),
    ("tagmap.retagger:RetagRecord", "render", "retagger.render"),
    ("tagmap.retagger:RetagSummary", "render", "retagger.render"),
    ("tagmap.cli", "main", "cli.main"),
)


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; undo with ``tracer.uninstall()``."""
    from tagmap.diagnostics import Diagnostic, SpecTypeError

    counts = tracer.counts
    seen_masks: dict[object, set[int]] = {}

    def tokens(result, args):
        counts["lexer.tokens"] += len(result)

    def compiled(graph, args):
        counts["typegraph.universe"] = len(graph.universe)
        counts["typegraph.candidates"] = len(graph.cover_candidates)

    def typed(spec, args):
        counts["specexpr.dnf_disjuncts"] += len(spec.dnf)

    def rejected(exc):
        if isinstance(exc, SpecTypeError):
            counts["specexpr.ill_typed"] += 1
            counts["specexpr.diagnostics"] += len(exc.diagnostics)

    def covered(cover, args):
        # the package caches covers per graph and mask, so a mask seen
        # before on the same graph is a cache hit
        mask, graph = args
        seen = seen_masks.setdefault(graph, set())
        counts["specexpr.cover_done"] += 1
        counts["specexpr.cover_hits"] += mask in seen
        counts["specexpr.cover_nodes"] += len(cover)
        seen.add(mask)

    def built(tree, args):
        counts["mtree.diagnostics"] = len(tree.diagnostics)

    def resolved(res, args):
        counts["resolver.patterns"] += len(res.patterns)
        counts["resolver.noise_notes"] += len(res.noise)

    def line_parsed(parsed, args):
        counts["retagger.malformed"] += isinstance(parsed, Diagnostic)

    def retagged(record, args):
        counts["retagger.exception_hits"] += record.provenance == "exception"

    hooks = {"lexer.tokenize": tokens, "typegraph.compile": compiled,
             "specexpr.typecheck": typed, "specexpr.minimal_cover": covered,
             "mtree.build": built, "resolver.resolve": resolved,
             "retagger.parse_line": line_parsed,
             "retagger.retag_token": retagged}
    for owner, attr, name in _FUNCTIONS:
        tracer.patch(_owner(owner), attr, name, on_result=hooks.get(name),
                     on_error=rejected if name == "specexpr.typecheck" else None)


def metrics(tracer: Tracer, cli_wall_s: float | None = None,
            cli_startup_s: float | None = None) -> dict[str, float]:
    """The per-layer metrics of every layer the traced work reached.

    Times are inclusive of the spans below them, except
    ``resolver.resolve_s``, which is self time.
    """
    t, c = tracer, tracer.counts
    m: dict[str, float] = {}
    if t.calls("lexer.tokenize"):
        m["lexer.tokens"] = c["lexer.tokens"]
        m["lexer.busy_s"] = t.total("lexer.tokenize")
    if t.calls("typegraph.compile"):
        m["typegraph.compile_s"] = t.total("typegraph.compile")
        m["typegraph.universe"] = c["typegraph.universe"]
        m["typegraph.candidates"] = c["typegraph.candidates"]
        m["typegraph.cover_node_calls"] = t.calls("typegraph.cover_node")
        m["typegraph.cover_node_s"] = t.total("typegraph.cover_node")
    if t.calls("maprules.parse_rules"):
        m["maprules.parse_s"] = t.total("maprules.parse_rules")
        m["maprules.typecheck_calls"] = t.edges[
            ("maprules.parse_rules", "specexpr.typecheck")]
    if t.calls("specexpr.typecheck"):
        m["specexpr.parse_s"] = t.total("specexpr.parse")
        m["specexpr.typecheck_s"] = t.total("specexpr.typecheck")
        m["specexpr.dnf_disjuncts"] = c["specexpr.dnf_disjuncts"]
        m["specexpr.ill_typed"] = c["specexpr.ill_typed"]
        m["specexpr.diagnostics"] = c["specexpr.diagnostics"]
    calls = t.calls("specexpr.minimal_cover")
    if calls:
        m["specexpr.cover_calls"] = calls
        m["specexpr.cover_s"] = t.total("specexpr.minimal_cover")
        # covers cut off by the query time limit have no result to count
        done = max(c["specexpr.cover_done"], 1)
        m["specexpr.cover_hit_ratio"] = c["specexpr.cover_hits"] / done
        m["specexpr.cover_size"] = c["specexpr.cover_nodes"] / done
        m["specexpr.render_cover_s"] = t.total("specexpr.render_cover")
    if t.calls("mtree.build"):
        m["mtree.build_s"] = t.total("mtree.build")
        m["mtree.explain_s"] = t.total("mtree.explain")
        m["mtree.diagnostics"] = c["mtree.diagnostics"]
    if t.calls("resolver.resolve"):
        m["resolver.resolve_s"] = t.self_time("resolver.resolve")
        m["resolver.patterns"] = c["resolver.patterns"]
        m["resolver.noise_notes"] = c["resolver.noise_notes"]
        m["resolver.timeouts"] = c["resolver.timeouts"]
    tokens = t.calls("retagger.retag_token")
    if tokens:
        busy = {k: t.total(f"retagger.{k}")
                for k in ("parse_line", "retag_token", "render")}
        m.update({f"retagger.{k}_s": v for k, v in busy.items()})
        m["retagger.tokens_per_s"] = tokens / sum(busy.values())
        m["retagger.exception_hits"] = c["retagger.exception_hits"]
        m["retagger.malformed"] = c["retagger.malformed"]
        if cli_wall_s is not None:
            m["cli.overhead_s"] = cli_wall_s - sum(busy.values()) - (
                m["typegraph.compile_s"] + m["maprules.parse_s"])
    if cli_startup_s is not None:
        m["cli.startup_s"] = cli_startup_s
    return m
