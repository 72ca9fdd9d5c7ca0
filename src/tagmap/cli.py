"""Command-line interface.

    tagmap compile --tagset F [--rules F]            syntax, types, consistency
    tagmap check   --tagset F [--rules F]            same as compile
    tagmap explain --tagset F --rules F              per-tag assignments
    tagmap query   --tagset F --rules F [--batch F]  resolve abstract queries
    tagmap retag   --tagset F --rules F --corpus F   rewrite a corpus

Every subcommand takes --strict.  Exit status: 1 if the command failed
(compile errors, an ill-typed -e or --batch query, definition holes met while
retagging), else 2 if it issued warnings and --strict is given, else 0; 3 on
I/O errors, an input file that cannot be decoded among them.

Tagset and rules files are read without newline translation: a lone carriage
return is a blank to the lexer, as it is for the library.
"""
from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

from . import resolve
from .diagnostics import CompileError, Diagnostic
from .maprules import RuleSet, parse_rules
from .mtree import build_mtree, render_explain
from .retagger import RetagSummary, retag_lines
from .typegraph import TypeGraph, parse_tagset_definition


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        failed, warned = args.func(args)
    except CompileError as exc:
        _print_diags(exc.diagnostics)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 1 if failed else 2 if warned and args.strict else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagmap",
        description="compile tagset mappings, resolve queries, retag corpora")
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand's help, its function and the options it adds to
    # --tagset, --rules (required but for compile) and --strict
    query = ((("-e", "--expr"), dict(action="append", default=[],
                                     help="query expression (repeatable)")),
             (("--batch",), dict(help="file with one query per line")))
    retag = ((("--corpus",), dict(required=True, help="tagged corpus file")),
             (("-o", "--output"), dict(help="output file (default stdout)")),
             (("--format",), dict(choices=("slash", "tsv"), default="slash")))
    compiled = ("compile a tagset and optional rules", _cmd_compile, ())
    commands = {
        "compile": compiled, "check": compiled,
        "explain": ("print per-tag standard assignments", _cmd_explain, ()),
        "query": ("resolve abstract queries to tag patterns", _cmd_query, query),
        "retag": ("rewrite a tagged corpus with readings", _cmd_retag, retag)}
    for name, (help_, func, options) in commands.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--tagset", required=True, help="tagset definition file")
        p.add_argument("--rules", required=func is not _cmd_compile,
                       help="mapping rules file")
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
        p.add_argument("--strict", action="store_true",
                       help="treat warnings as failures")
        p.set_defaults(func=func)
    return parser


def _read(path: str) -> str:
    """The file's text with its line ends untranslated."""
    with open(path, newline="") as f:
        return f.read()


def _load(args) -> tuple[TypeGraph, RuleSet | None]:
    graph = parse_tagset_definition(_read(args.tagset))
    rules = parse_rules(_read(args.rules), graph) if args.rules else None
    return graph, rules


def _print_diags(diags: list[Diagnostic]) -> None:
    for d in diags:
        print(d.render(), file=sys.stderr)


def _cmd_compile(args) -> tuple[bool, bool]:
    graph, rules = _load(args)
    tags, warnings = 0, []
    if rules is not None:
        tags = len(rules.inventory)
        warnings = rules.warnings + build_mtree(rules).diagnostics
    print(f"tags: {tags}, classes: {graph.full_mask.bit_length()}, "
          f"warnings: {len(warnings)}")
    _print_diags(warnings)
    return False, bool(warnings)


def _cmd_explain(args) -> tuple[bool, bool]:
    graph, rules = _load(args)
    tree = build_mtree(rules)
    print(render_explain(tree))
    _print_diags(rules.warnings)
    return False, bool(rules.warnings or tree.diagnostics)


def _cmd_query(args) -> tuple[bool, bool]:
    graph, rules = _load(args)
    failed = warned = False
    for line in _query_lines(args):
        text = line.strip()
        if text.endswith("."):
            text = text[:-1].rstrip()
        if not text:
            continue
        try:
            res = resolve(rules, text)
        except CompileError as exc:
            _print_diags(exc.diagnostics)
            failed = True
            continue
        warned = warned or bool(res.noise or res.uncovered)
        print(res.render())
    # the interactive session reports ill-typed queries and continues; they
    # do not fail the run
    return failed and bool(args.expr or args.batch), warned


def _query_lines(args):
    """The ``-e`` queries, then the batch file's lines except ``\\q``; with
    neither, the prompt's lines up to ``\\q`` or the end of input."""
    if args.expr or args.batch:
        yield from args.expr
        if args.batch:
            for line in _read(args.batch).splitlines():
                if line.strip() != "\\q":
                    yield line
        return
    while True:
        try:
            line = input("Query> ")
        except EOFError:
            print()
            return
        if line.strip() == "\\q":
            return
        yield line


def _cmd_retag(args) -> tuple[bool, bool]:
    graph, rules = _load(args)
    if (args.output and os.path.exists(args.output)
            and os.path.samefile(args.corpus, args.output)):
        raise OSError(f"output {args.output} is the corpus itself; retag "
                      "streams its input and cannot overwrite it")
    summary = RetagSummary(notes=rules.notes)
    # records are written as they are made, so memory does not grow with the
    # corpus; the corpus is opened first so that a missing one leaves the
    # output file untouched
    with open(args.corpus) as corpus, \
            (open(args.output, "w") if args.output
             else nullcontext(sys.stdout)) as out:
        # splitting each line again reproduces str.splitlines() on the whole
        # text, which also breaks at form feeds, NEL and Unicode separators
        lines = (piece for line in corpus for piece in line.splitlines())
        for item in retag_lines(rules, lines, args.format):
            summary.add(item)
            if isinstance(item, Diagnostic):
                print(item.render(), file=sys.stderr)
            else:
                out.write(item.render() + "\n")
        out.write(summary.render() + "\n")
    return bool(summary.holes), bool(summary.malformed)


if __name__ == "__main__":
    raise SystemExit(main())
