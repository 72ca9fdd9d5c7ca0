"""Compare the command-line behaviour of two revisions of tagmap.

    python tests/differential.py REV [REV2] [--mutants N]

Each revision's ``src/`` is extracted with ``git archive`` into a temporary
directory; ``REV2`` defaults to the working tree, whose ``src/`` is used in
place.  The repository itself is only read.  Both sides run ``python -m
tagmap.cli`` on the same inputs:

* fixture ``compile``, ``explain`` and ``retag`` (a generated corpus plus a
  line with a noted tag and a tag without a rule);
* ``query --batch --strict`` over the benchmark's fixture pools of seeds 1
  and 2;
* an interactive fixture ``query`` session read from stdin (queries, a
  blank line, an ill-typed query and ``\\q``), another that runs under
  ``--strict`` to the end of stdin, and a fixture ``query`` with ``-e``
  queries and a ``--batch`` file holding a ``\\q`` line;
* ``compile`` and ``explain`` of the six-feature ladder tagset with the
  ladder rules of seeds 1 to 3;
* the first 150 queries of the seed-1 ladder stream, one command each, with
  the seed-1 rules, and query 166 of the seed-6 stream with the seed-6
  rules, whose cover search backtracks far more than theirs;
* ``compile`` and ``explain`` of positional rule sets: 243
  full-conjunction tags over the five-feature ladder, 729 over the
  six-feature one and 2,187 over the seven-feature one, each with coarser
  tags nested above them and sparse tags across them, so that overlap and
  containment warnings appear (21,405 of them for the seven-feature set);
* ``compile`` and ``explain`` of seeded rules over the three-feature
  ladder whose tags are unions of two or three conjunctions, so that
  covers have several nodes and two tags' covers meet in several pairs of
  nodes;
* ``compile`` and ``explain`` of a chain of 20 three-value features, each
  appropriate only under the middle value of the one before, with one tag
  per last value, so that the hole left is covered by one prime per class;
  and of a chain of 300, whose hole's cover nests 299 factored groups;
* ``compile`` and ``explain`` of a hierarchy chain of 400 levels, each
  with a leaf beside the next level, and one tag for every other leaf,
  whose cover is one prime per leaf;
* ``query -e`` of a flat run of 1,000 ``|`` operands on the fixture, and
  ``compile`` and ``explain`` of a rule whose specification is a cover of
  200 primes (every other value of a 400-value feature over two leaves),
  each a flat run of more operands than ``MAX_SPEC_DEPTH``;
* ``compile`` of tagsets and rules with lexical traps: CRLF line ends
  and tab indents, a lone carriage return, a comment right after a quoted
  value, an unterminated quote, a stray ``@``, a form feed and a non-ASCII
  name, and ``query -e`` of specifications with the same traps, so that the
  line and column of every diagnostic are compared.  The CLI reads files
  without newline translation, so every carriage return reaches the lexer,
  which takes a lone one for a blank;
* ``compile`` of a rules file for another tagset whose ``tags`` line is
  broken after a duplicate tag;
* ``compile``, ``explain`` and one ``query -e`` of each of 30 seeded random
  tagsets of 2 to 6 nested nodes and 3 to 8 features, with one tag per
  leaf and one per feature value; some fail with diagnostics, which are
  compared too;
* ``compile`` and ``explain`` of each of 30 seeded two-leaf tagsets of 2 to
  6 features of 1 to 3 values, each guarded with even odds by one or two
  earlier values, so that some features are taken by only some partial
  assignments, with one tag per leaf and one per feature value.

With ``--mutants N``, the commands are instead the first ``N`` seed-1
mutants of ``tests/fuzzing.py``, of the fixtures and of the catalogue's
inputs: ``compile``, ``explain``, ``query --batch`` and ``retag`` on inputs
with tokens dropped, duplicated or swapped, deep brackets, long flat runs,
guard chains or wide alternations spliced in, or line ends, tabs, NULs
and undecodable bytes injected.

Every command but the interactive sessions gets an empty stdin.  Stdout,
stderr and exit status are compared.  A command still running after
``TIMEOUT_S`` seconds on either side is reported as a time-out, not as a
difference.  The exit status is 1 when any command differs, else 0.

The generated inputs come from the catalogue in ``tests/inputs.py`` and,
until the benchmark's generators move into it, from ``perfbench/gen.py``;
the fixture's classes and rules from ``tests/oracles.py``.  Pytest does not
collect this file.
"""
from __future__ import annotations

import argparse
import difflib
import io
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import fuzzing  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
from inputs import (  # noqa: E402
    disjunctive_rules, guarded_chain, guarded_two_leaf_tagset, nested_tagset,
    positional_rules, sibling_chain, two_leaf_rules)

TIMEOUT_S = 10
LADDER_QUERIES = 150
RANDOM_TAGSETS = 30
GUARDED_FEATURES = (2, 6)
CHAIN_FEATURES = 20
DEEP_CHAIN_FEATURES = 300
SIBLING_CHAIN_LEVELS = 400
CORPUS_TOKENS = 20_000


def extract(rev: str, into: Path) -> Path:
    """``src/`` of ``rev`` written under ``into``; the path of that ``src``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                          rev, "src"], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def inputs(work: Path) -> list[tuple[str, list[str], str]]:
    """Every command to compare, as a name, the CLI arguments and the text
    on stdin."""
    fixtures = ROOT / "src" / "tagmap" / "fixtures"
    fixture = ["--tagset", str(fixtures / "eagles-en.tagset"),
               "--rules", str(fixtures / "upenn.rules")]
    commands = [("fixture compile", ["compile", *fixture]),
                ("fixture explain", ["explain", *fixture])]

    rules = oracles.oracle_rules()
    pairs = [(w, tag) for words, tag, _ in rules.exceptions for w in words]
    corpus = work / "corpus.txt"
    lines = gen.corpus_lines(random.Random("1:corpus"), rules.inventory,
                             pairs, CORPUS_TOKENS)
    corpus.write_text("".join(line.text + "\n" for line in lines)
                      + "John/NP 's/POS house/NN ./XYZ\n")
    commands.append(("fixture retag",
                     ["retag", *fixture, "--corpus", str(corpus)]))

    model = gen.FixtureModel(
        leaf_paths=oracles.LEAF_PATHS,
        features={f.name: f.values for f in oracles.FEATURES},
        homes={f.name: f.home for f in oracles.FEATURES},
        classes=tuple(oracles.oracle_universe()))
    for seed in (1, 2):
        pool = work / f"pool{seed}.txt"
        pool.write_text("\n".join(
            gen.fixture_pool(random.Random(f"{seed}:pool"), model)) + "\n")
        commands.append((f"fixture pool {seed}", [
            "query", *fixture, "--batch", str(pool), "--strict"]))
    batch = work / "batch.txt"
    batch.write_text("[mass]\n\\q\n[pos = v & case = gen]\n[vtype = aux]\n")
    commands.append(("fixture query -e and --batch", [
        "query", *fixture, "-e", "[n & sg]", "-e", "[vform = fin | inf]",
        "--batch", str(batch)]))

    tagset = work / "ladder.tagset"
    tagset.write_text(gen.ladder_tagset())
    for seed in (1, 2, 3):
        path = work / f"ladder{seed}.rules"
        path.write_text(gen.ladder_rules(random.Random(f"{seed}:rules")).text)
        ladder = ["--tagset", str(tagset), "--rules", str(path)]
        commands += [(f"ladder {seed} compile", ["compile", *ladder]),
                     (f"ladder {seed} explain", ["explain", *ladder])]

    ladder = ["--tagset", str(tagset), "--rules", str(work / "ladder1.rules")]
    stream = gen.ladder_queries(random.Random("1:stream"))
    for i, text in enumerate(islice(stream, LADDER_QUERIES)):
        commands.append((f"ladder query {i}", ["query", *ladder, "-e", text]))
    path = work / "ladder6.rules"
    path.write_text(gen.ladder_rules(random.Random("6:rules")).text)
    text = next(islice(gen.ladder_queries(random.Random("6:stream")), 166, None))
    commands.append(("ladder 6 query 166", [
        "query", "--tagset", str(tagset), "--rules", str(path), "-e", text]))

    for n_features, coarse in ((5, (1, 2)), (6, (1, 2)), (7, (1, 2, 3))):
        tagset = work / f"ladder{n_features}.tagset"
        tagset.write_text(gen.ladder_tagset(n_features))
        path = work / f"positional{n_features}.rules"
        path.write_text(positional_rules(
            n_features, n_features - 1, coarse=coarse, sparse=(1, 2)))
        positional = ["--tagset", str(tagset), "--rules", str(path)]
        name = f"positional {3 ** n_features}"
        commands += [(f"{name} compile", ["compile", *positional]),
                     (f"{name} explain", ["explain", *positional])]

    tagset = work / "ladder3.tagset"
    tagset.write_text(gen.ladder_tagset(3))
    path = work / "disjunctive.rules"
    path.write_text(disjunctive_rules(random.Random("1:disjunctive")))
    disjunctive = ["--tagset", str(tagset), "--rules", str(path)]
    commands += [("disjunctive compile", ["compile", *disjunctive]),
                 ("disjunctive explain", ["explain", *disjunctive])]

    for n, name in ((CHAIN_FEATURES, "guarded chain"),
                    (DEEP_CHAIN_FEATURES, f"guarded chain {DEEP_CHAIN_FEATURES}")):
        tagset, rules = guarded_chain(n)
        (work / f"chain{n}.tagset").write_text(tagset)
        (work / f"chain{n}.rules").write_text(rules)
        chain = ["--tagset", str(work / f"chain{n}.tagset"),
                 "--rules", str(work / f"chain{n}.rules")]
        commands += [(f"{name} compile", ["compile", *chain]),
                     (f"{name} explain", ["explain", *chain])]
    for path, text in zip(("siblings.tagset", "siblings.rules"),
                          sibling_chain(SIBLING_CHAIN_LEVELS)):
        (work / path).write_text(text)
    siblings = ["--tagset", str(work / "siblings.tagset"),
                "--rules", str(work / "siblings.rules")]
    commands += [("sibling chain compile", ["compile", *siblings]),
                 ("sibling chain explain", ["explain", *siblings])]

    commands.append(("1,000 disjuncts query", [
        "query", *fixture, "-e", " | ".join(["n"] * 1000)]))
    values = ", ".join(f"v{i}" for i in range(400))
    (work / "wide.tagset").write_text(
        f"tagset wide hierarchy {{ a b }}\nfeature f for root {{ {values} }}\n")
    cover = " | ".join(f"f=v{i}" for i in range(0, 400, 2))
    (work / "wide.rules").write_text(
        f"mapping wide for tagset wide\ntags W\n[pos = 'W'] => [{cover}].\n")
    wide = ["--tagset", str(work / "wide.tagset"), "--rules", str(work / "wide.rules")]
    commands += [("200-prime cover compile", ["compile", *wide]),
                 ("200-prime cover explain", ["explain", *wide])]

    commands += lexical_inputs(work, fixtures)

    broken = work / "broken.rules"
    broken.write_text("mapping m for tagset other\ntags AA, AA,\n"
                      "[pos = 'AA'] => [mass].\n")
    commands.append(("broken inventory compile",
                     ["compile", *fixture[:2], "--rules", str(broken)]))
    for i in range(RANDOM_TAGSETS):
        tagset, rules, query = nested_tagset(random.Random(f"{i}:tagset"))
        (work / f"random{i}.tagset").write_text(tagset)
        (work / f"random{i}.rules").write_text(rules)
        drawn = ["--tagset", str(work / f"random{i}.tagset"),
                 "--rules", str(work / f"random{i}.rules")]
        commands += [(f"random {i} compile", ["compile", *drawn]),
                     (f"random {i} explain", ["explain", *drawn]),
                     (f"random {i} query", ["query", *drawn, "-e", query])]
    for i in range(RANDOM_TAGSETS):
        tagset = guarded_two_leaf_tagset(random.Random(f"{i}:guarded"),
                                         GUARDED_FEATURES)
        (work / f"guarded{i}.tagset").write_text(tagset)
        (work / f"guarded{i}.rules").write_text(two_leaf_rules(tagset))
        drawn = ["--tagset", str(work / f"guarded{i}.tagset"),
                 "--rules", str(work / f"guarded{i}.rules")]
        commands += [(f"guarded {i} compile", ["compile", *drawn]),
                     (f"guarded {i} explain", ["explain", *drawn])]

    session = ("[vtype = aux].\n\n[pos = v & case = gen]\n"
               "[n & (common & sg | mass)]\n\\q\n[mass]\n")
    return ([(name, args, "") for name, args in commands]
            + [("fixture query session", ["query", *fixture], session),
               ("fixture query session to end of input",
                ["query", *fixture, "--strict"], "[mass]\n[vform = fin]")])


def lexical_inputs(work: Path, fixtures: Path) -> list[tuple[str, list[str]]]:
    """``compile`` and ``query -e`` commands on lexically tricky sources,
    whose diagnostics give the line and column of what goes wrong."""
    tagset = (fixtures / "eagles-en.tagset").read_text()
    rules = (fixtures / "upenn.rules").read_text()
    # CRLF line ends and tab indents, with an unknown tag and name to report
    crlf = {"tagset": tagset.replace("\n  ", "\n\t"),
            "rules": rules.replace("\n     ", "\n\t")
            + "\t[pos = 'ZZ'] =>\t[nosuch & sg].\n"}
    sources = {f"crlf.{kind}": text.replace("\n", "\r\n")
               for kind, text in crlf.items()}
    sources.update({
        # a comment right after a quoted value, then an unknown tag
        "comment.rules": rules.replace("[pos = 'CC']", "[pos = 'CC']# a note\n")
        + "[pos = 'QQ'] => [n].\n",
        "unterminated.rules": rules.replace("[pos = 'JJR']", "[pos = 'JJR]"),
        "stray.rules": rules.replace("[adj & sup]", "[adj @ sup]"),
        "formfeed.tagset": tagset.replace("\nfeature", "\n\fFeature", 1),
        "accented.tagset": tagset.replace("  ex\n", "  ex\n  nöun\n"),
        # a lone carriage return, a blank that ends no line, before a stray
        # character
        "lonecr.tagset": "tagset t hierarchy { a }\rfeature f for a { x }\n@\n",
    })
    for name, text in sources.items():
        (work / name).write_text(text, newline="")
    tagset, rules = str(fixtures / "eagles-en.tagset"), str(fixtures / "upenn.rules")
    commands = [
        ("crlf compile", ["compile", "--tagset", str(work / "crlf.tagset"),
                          "--rules", str(work / "crlf.rules")]),
        ("comment after a quote compile", ["compile", "--tagset", tagset,
                                           "--rules", str(work / "comment.rules")]),
        ("unterminated quote compile", ["compile", "--tagset", tagset, "--rules",
                                        str(work / "unterminated.rules")]),
        ("stray character compile", ["compile", "--tagset", tagset,
                                     "--rules", str(work / "stray.rules")]),
        ("form feed compile", ["compile", "--tagset",
                               str(work / "formfeed.tagset")]),
        ("non-ASCII name compile", ["compile", "--tagset",
                                    str(work / "accented.tagset")]),
        ("lone carriage return compile", ["compile", "--tagset",
                                          str(work / "lonecr.tagset")]),
    ]
    for i, text in enumerate(["[n &\r\n\tsg]\r\n", "[n &\r\n\tnosuch]",
                              "[pos = 'NN'# note\n]", "[pos = 'NN]", "[n @ sg]",
                              "[n\f& sg]", "[nöun & sg]", "[n & s$g-]"]):
        commands.append((f"lexical query {i}", ["query", "--tagset", tagset,
                                                "--rules", rules, "-e", text]))
    return commands


def run(src: Path, args: list[str], stdin: str, cwd: Path):
    """Exit status, stdout and stderr of the CLI, or None on a time-out."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "tagmap.cli", *args],
                              input=stdin, capture_output=True, text=True,
                              env=env, cwd=cwd, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode, done.stdout, done.stderr


def differences(a, b) -> list[str]:
    out = []
    if a[0] != b[0]:
        out.append(f"  exit status {a[0]} != {b[0]}")
    for stream, x, y in (("stdout", a[1], b[1]), ("stderr", a[2], b[2])):
        if x != y:
            diff = difflib.unified_diff(x.splitlines(), y.splitlines(),
                                        "a/" + stream, "b/" + stream,
                                        lineterm="", n=0)
            out += ["  " + line for line in islice(diff, 40)]
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python tests/differential.py")
    parser.add_argument("rev")
    parser.add_argument("rev2", nargs="?", help="default: the working tree")
    parser.add_argument("--mutants", type=int, metavar="N",
                        help="compare N mutants of tests/fuzzing.py instead")
    opts = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src_a = extract(opts.rev, tmp / "a")
        src_b = extract(opts.rev2, tmp / "b") if opts.rev2 else ROOT / "src"
        work = tmp / "inputs"
        work.mkdir()
        commands = ([(m.name, m.argv(work), "")
                     for m in fuzzing.mutants(1, opts.mutants, catalogue=True)]
                    if opts.mutants else inputs(work))
        differ = timed_out = same = 0
        for name, args, stdin in commands:
            a, b = run(src_a, args, stdin, work), run(src_b, args, stdin, work)
            if a is None or b is None:
                timed_out += 1
                sides = " and ".join(side for side, r in (("a", a), ("b", b))
                                     if r is None)
                print(f"TIMEOUT {name}: {sides} ran past {TIMEOUT_S} s")
            elif a != b:
                differ += 1
                print(f"DIFF {name}")
                print("\n".join(differences(a, b)))
            else:
                same += 1
    print(f"{same} same, {differ} different, {timed_out} timed out")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
