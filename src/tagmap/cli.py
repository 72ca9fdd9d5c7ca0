"""Command-line interface.

    tagmap compile --tagset F [--rules F]            syntax, types, consistency
    tagmap check   --tagset F [--rules F]            same as compile
    tagmap explain --tagset F --rules F              per-tag assignments
    tagmap query   --tagset F --rules F [--batch F]  resolve abstract queries
    tagmap retag   --tagset F --rules F --corpus F   rewrite a corpus

Exit status: 0 on success, 1 on compile errors or definition holes met while
retagging, 2 when --strict is given and warnings were issued, 3 on I/O errors,
an input file that cannot be decoded among them.
"""
from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from .diagnostics import CompileError, Diagnostic
from .maprules import RuleSet, parse_rules
from .mtree import build_mtree, render_explain
from .resolver import resolve
from .retagger import RetagSummary, retag_lines
from .typegraph import TypeGraph, parse_tagset_definition


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CompileError as exc:
        _print_diags(exc.diagnostics)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagmap",
        description="compile tagset mappings, resolve queries, retag corpora")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("compile", "check"):
        p = sub.add_parser(name, help="compile a tagset and optional rules")
        p.add_argument("--tagset", required=True, help="tagset definition file")
        p.add_argument("--rules", help="mapping rules file")
        p.add_argument("--strict", action="store_true",
                       help="treat warnings as failures")
        p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("explain", help="print per-tag standard assignments")
    p.add_argument("--tagset", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("query", help="resolve abstract queries to tag patterns")
    p.add_argument("--tagset", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("-e", "--expr", action="append", default=[],
                   help="query expression (repeatable)")
    p.add_argument("--batch", help="file with one query per line")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("retag", help="rewrite a tagged corpus with readings")
    p.add_argument("--tagset", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--corpus", required=True, help="tagged corpus file")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.add_argument("--format", choices=("slash", "tsv"), default="slash")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_retag)
    return parser


def _load(args) -> tuple[TypeGraph, RuleSet | None]:
    graph = parse_tagset_definition(Path(args.tagset).read_text())
    rules = None
    if args.rules:
        rules = parse_rules(Path(args.rules).read_text(), graph)
    return graph, rules


def _print_diags(diags: list[Diagnostic]) -> None:
    for d in diags:
        print(d.render(), file=sys.stderr)


def _cmd_compile(args) -> int:
    graph, rules = _load(args)
    warnings: list[Diagnostic] = []
    tags = 0
    if rules is not None:
        tree = build_mtree(rules)
        warnings = rules.warnings + tree.diagnostics
        tags = len(rules.inventory)
    print(f"tags: {tags}, classes: {graph.full_mask.bit_length()}, "
          f"warnings: {len(warnings)}")
    _print_diags(warnings)
    if warnings and args.strict:
        return 2
    return 0


def _cmd_explain(args) -> int:
    graph, rules = _load(args)
    tree = build_mtree(rules)
    print(render_explain(tree))
    _print_diags(rules.warnings)
    if (rules.warnings or tree.diagnostics) and args.strict:
        return 2
    return 0


def _cmd_query(args) -> int:
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
    if failed and (args.expr or args.batch):
        return 1
    if warned and args.strict:
        return 2
    return 0


def _query_lines(args):
    """The ``-e`` queries, then the batch file's lines except ``\\q``; with
    neither, the prompt's lines up to ``\\q`` or the end of input."""
    if args.expr or args.batch:
        yield from args.expr
        if args.batch:
            for line in Path(args.batch).read_text().splitlines():
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


def _cmd_retag(args) -> int:
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
    if summary.holes:
        return 1
    if summary.malformed and args.strict:
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
