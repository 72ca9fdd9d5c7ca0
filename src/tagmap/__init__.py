"""tagmap: compile tagset mappings and resolve abstract corpus queries.

The query resolver, :mod:`tagmap.resolver`, is imported on first use: by a
call of :func:`resolve`, or by reading ``Resolution`` or ``TagPattern`` here
(PEP 562), so that commands that resolve nothing start without it.
"""

from .diagnostics import (
    CompileError,
    Diagnostic,
    Span,
    SpecSyntaxError,
    SpecTypeError,
)
from .maprules import Rule, RuleSet, parse_rules
from .mtree import MTree, build_mtree, render_explain
from .retagger import (
    CorpusToken,
    RetagRecord,
    RetagSummary,
    parse_corpus_line,
    retag_lines,
    retag_token,
)
from .specexpr import (
    TypedSpec,
    compile_spec,
    denote,
    parse_spec,
    render_spec,
    typecheck,
)
from .typegraph import (
    FeatureDecl,
    TerminalClass,
    TypeGraph,
    minimal_cover,
    parse_tagset_definition,
    render_cover,
)

__version__ = "0.1.0"

__all__ = [
    "CompileError",
    "CorpusToken",
    "Diagnostic",
    "FeatureDecl",
    "MTree",
    "Resolution",
    "RetagRecord",
    "RetagSummary",
    "Rule",
    "RuleSet",
    "Span",
    "SpecSyntaxError",
    "SpecTypeError",
    "TagPattern",
    "TerminalClass",
    "TypeGraph",
    "TypedSpec",
    "build_mtree",
    "compile_spec",
    "denote",
    "minimal_cover",
    "parse_corpus_line",
    "parse_rules",
    "parse_spec",
    "parse_tagset_definition",
    "render_cover",
    "render_explain",
    "render_spec",
    "resolve",
    "retag_lines",
    "retag_token",
    "typecheck",
    "__version__",
]


def resolve(rules: "RuleSet", query: "TypedSpec | SpecExpr | str") -> "Resolution":
    """:func:`tagmap.resolver.resolve`, imported when first called.

    A function rather than a lazy name, so that it can be wrapped where it
    is bound, here and in :mod:`tagmap.cli`, before the resolver is loaded.
    """
    from . import resolver
    return resolver.resolve(rules, query)


def __getattr__(name: str):
    if name in ("Resolution", "TagPattern"):
        from . import resolver
        return getattr(resolver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
