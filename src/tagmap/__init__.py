"""tagmap: compile tagset mappings and resolve abstract corpus queries."""

from .diagnostics import (
    CompileError,
    Diagnostic,
    Span,
    SpecSyntaxError,
    SpecTypeError,
)
from .maprules import Rule, RuleSet, parse_rules
from .mtree import MTree, build_mtree, render_explain
from .resolver import Resolution, TagPattern, resolve
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
