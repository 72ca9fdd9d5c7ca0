"""Seeded mutants of the command line's inputs, and an in-process runner.

    python tests/fuzzing.py [N] [SEED]

runs ``N`` (default 300) mutants of seed ``SEED`` (default 1) of the
fixtures and of the ``tests/inputs.py`` catalogue through ``tagmap.cli.main``
in this process, and prints each one that raised, ran past ``BOUND_S``
seconds or ended with an exit status outside 0-3; it exits 1 if there is
any.  ``tests/differential.py --mutants N`` runs the same mutants through
two revisions and compares them.

A mutant is one command, ``compile``, ``explain``, ``query --batch`` or
``retag``, sometimes with ``--strict``, on a tagset, rules, queries and a
corpus, one of which is mutated once to three times by
:data:`MUTATIONS`: a token dropped, duplicated or swapped with another; a
deep nest of brackets, a long flat ``&`` or ``|`` run, a chain of guarded
features or a wide alternation spliced in; or CRLF line ends, a lone
carriage return, a tab, a NUL or undecodable bytes injected.  Sizes are
drawn log-uniformly, so that most are small and some cross the parser's
depth cap and the default recursion limit.  Mutant ``i`` of seed ``s``
draws only from ``random.Random(f"{s}:{i}")``, so it can be rebuilt alone.
"""
from __future__ import annotations

import contextlib
import io
import random
import re
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
import inputs  # noqa: E402
from tagmap.cli import main as cli_main  # noqa: E402

FIXTURES = ROOT / "src" / "tagmap" / "fixtures"

# the longest one mutant may run in process
BOUND_S = 5.0

FIXTURE_QUERIES = (
    "[vtype = aux]\n[n & (common & sg | mass)]\n[pos = v & vform = fin]\n"
    "[vtype = con & vform = inf | vtype = prim & tense = past]\n"
    "[!(adj | adv) & !v]\n")
FIXTURE_CORPUS = (
    "The/DT dog/NN has/VBZ been/VBN barking/VBG ./SYM\n"
    "John/NP 's/POS house/NN was/VBD there/EX\n"
    "she/PP quickly/RB ran/VBD to/TO the/DT big/JJ park/NN\n")


class Base(NamedTuple):
    """The unmutated inputs of a mutant; no rules means a tagset alone."""

    name: str
    tagset: str
    rules: str | None
    queries: str
    corpus: str


class Mutant(NamedTuple):
    name: str
    command: str            # compile, explain, query or retag
    strict: bool
    files: dict[str, bytes]     # tagset, rules, queries and corpus, by kind

    def argv(self, work: Path) -> list[str]:
        """The CLI arguments, with each input written under ``work``."""
        paths = {}
        for kind, data in self.files.items():
            paths[kind] = work / f"{self.name}.{kind}"
            paths[kind].write_bytes(data)
        args = [self.command, "--tagset", str(paths["tagset"])]
        if "rules" in paths:
            args += ["--rules", str(paths["rules"])]
        if self.command == "query":
            args += ["--batch", str(paths["queries"])]
        elif self.command == "retag":
            args += ["--corpus", str(paths["corpus"])]
        return args + ["--strict"] * self.strict


# -- mutations -------------------------------------------------------------------

_TOKEN = re.compile(r"\w+|[^\w\s]")
_NAME = re.compile(r"[A-Za-z_]\w*")


def _size(rng: random.Random, top: int) -> int:
    """A size from 1 to ``top``, log-uniformly."""
    return round(top ** rng.random())


def _spans(text: str) -> list[tuple[int, int]]:
    return [m.span() for m in _TOKEN.finditer(text)]


def _splice_at(rng: random.Random, text: str) -> int:
    """Where to splice: after an opening bracket or an operator when the
    text has one, so that the splice often parses, else anywhere."""
    after = [m.end() for m in re.finditer(r"[\[(&|{]", text)]
    return rng.choice(after) if after else rng.randint(0, len(text))


def _names(text: str) -> list[str]:
    return sorted(set(_NAME.findall(text))) or ["n"]


def drop(rng, text):
    spans = _spans(text)
    if not spans:
        return text
    start, end = rng.choice(spans)
    return text[:start] + text[end:]


def duplicate(rng, text):
    spans = _spans(text)
    if not spans:
        return text
    start, end = rng.choice(spans)
    return text[:end] + " " + text[start:end] + text[end:]


def swap(rng, text):
    spans = _spans(text)
    if len(spans) < 2:
        return text
    (a, b), (c, d) = sorted(rng.sample(spans, 2))
    return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]


def deep_brackets(rng, text):
    opening, closing = rng.choice(("()", "{}", "[]"))
    depth = _size(rng, 2048)
    i = _splice_at(rng, text)
    name = rng.choice(_names(text))
    return text[:i] + opening * depth + name + closing * depth + text[i:]


def flat_run(rng, text):
    names = _names(text)
    run = f" {rng.choice('&|')} ".join(
        rng.choice(names) for _ in range(_size(rng, 2048)))
    i = _splice_at(rng, text)
    return text[:i] + " " + run + " " + rng.choice("&|") + " " + text[i:]


def guard_chain(rng, text):
    n = _size(rng, 64)
    lines = ["feature z0 for root { x0, y0, w0 }"] + [
        f"feature z{i} for root when z{i - 1} = y{i - 1} {{ x{i}, y{i}, w{i} }}"
        for i in range(1, n)]
    starts = [0] + [m.end() for m in re.finditer("\n", text)]
    i = rng.choice(starts)
    return text[:i] + "\n".join(lines) + "\n" + text[i:]


def wide_alternation(rng, text):
    names = _names(text)
    chosen = rng.sample(names, min(len(names), _size(rng, 128)))
    i = _splice_at(rng, text)
    return text[:i] + " (" + " | ".join(chosen) + ") & " + text[i:]


def _inject(rng, text, piece):
    i = rng.randint(0, len(text))
    return text[:i] + piece + text[i:]


def crlf(rng, text):
    return text.replace("\n", "\r\n")


def lone_cr(rng, text):
    return _inject(rng, text, "\r")


def tab(rng, text):
    return _inject(rng, text, "\t")


def nul(rng, text):
    return _inject(rng, text, "\0")


def undecodable(rng, text):
    # bytes no UTF-8 decoder accepts, kept through the text as surrogates
    raw = rng.choice((b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\x80\x80"))
    return _inject(rng, text, raw.decode("utf-8", "surrogateescape"))


MUTATIONS = (drop, duplicate, swap, deep_brackets, flat_run, guard_chain,
             wide_alternation, crlf, lone_cr, tab, nul, undecodable)


# -- mutants ---------------------------------------------------------------------


def fixture_base() -> Base:
    return Base("fixture", (FIXTURES / "eagles-en.tagset").read_text(),
                (FIXTURES / "upenn.rules").read_text(), FIXTURE_QUERIES,
                FIXTURE_CORPUS)


def catalogue_base(rng: random.Random) -> Base:
    """One input drawn from the ``tests/inputs.py`` catalogue, with queries
    of its own names and a corpus of its tags."""
    kind = rng.choice(("nested", "two-leaf", "chain", "disjunctive",
                       "ladder", "positional"))
    query = ""
    if kind == "nested":
        tagset, rules, query = inputs.nested_tagset(rng)
    elif kind == "two-leaf":
        tagset, rules = inputs.guarded_two_leaf_tagset(rng), None
    elif kind == "chain":
        tagset, rules = inputs.guarded_chain(rng.randint(1, 30))
    elif kind == "disjunctive":
        tagset, rules = gen.ladder_tagset(3), inputs.disjunctive_rules(rng)
    elif kind == "ladder":
        n, rules = inputs.ladder_rule_set(rng)
        tagset = gen.ladder_tagset(n)
    else:
        n = rng.randint(2, 4)
        tagset = gen.ladder_tagset(n)
        rules = inputs.positional_rules(n, n - 1, coarse=(1,), sparse=(1,))
    names = [n for n in _names(tagset) if n not in ("tagset", "hierarchy", "feature",
                                                    "for", "when", "or")]
    queries = query + "\n" + "\n".join(
        "[" + f" {rng.choice('&|')} ".join(rng.sample(names, min(2, len(names)))) + "]"
        for _ in range(3)) + "\n"
    tags = re.search(r"^tags (.*)$", rules or "", re.M)
    tags = tags[1].split(", ") if tags else ["X"]
    corpus = "\n".join(" ".join(f"w{i}/{rng.choice(tags)}" for i in range(6))
                       for _ in range(3)) + "\n"
    return Base(kind, tagset, rules, queries, corpus)


def mutant(seed, i: int, catalogue: bool = False) -> Mutant:
    """Mutant ``i`` of ``seed``, of the fixtures, or with ``catalogue`` of
    the fixtures or a catalogue input, with even odds."""
    rng = random.Random(f"{seed}:{i}")
    base = (catalogue_base(rng) if catalogue and rng.random() < 0.5
            else fixture_base())
    commands = ("compile", "explain", "query", "retag") if base.rules else ("compile",)
    command = rng.choice(commands)
    kinds = {"compile": ("tagset", "rules"), "explain": ("tagset", "rules"),
             "query": ("tagset", "rules", "queries"),
             "retag": ("tagset", "rules", "corpus")}[command]
    texts = {"tagset": base.tagset, "rules": base.rules,
             "queries": base.queries, "corpus": base.corpus}
    texts = {k: texts[k] for k in kinds if texts[k] is not None}
    target = rng.choice(sorted(texts))
    applied = []
    for _ in range(rng.randint(1, 3)):
        mutation = rng.choice(MUTATIONS)
        texts[target] = mutation(rng, texts[target])
        applied.append(mutation.__name__)
    files = {k: text.encode("utf-8", "surrogateescape") for k, text in texts.items()}
    name = f"m{i}-{base.name}-{command}-{target}-{'-'.join(applied)}"
    return Mutant(name, command, rng.random() < 0.25, files)


def mutants(seed, count: int, catalogue: bool = False) -> list[Mutant]:
    return [mutant(seed, i, catalogue) for i in range(count)]


# -- running in process ----------------------------------------------------------


class Outcome(NamedTuple):
    status: int | None      # None: it raised or ran past the bound
    stderr: str             # the traceback when it raised
    seconds: float


class _Stalled(Exception):
    pass


def run_in_process(m: Mutant, work: Path) -> Outcome:
    """Run ``m`` through ``tagmap.cli.main`` in this process, stopped by an
    alarm after ``BOUND_S`` seconds."""
    def expire(signum, frame):
        raise _Stalled(f"still running after {BOUND_S} s")

    argv = m.argv(work)
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, expire)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, BOUND_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli_main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception:
        status = None
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return Outcome(status, err.getvalue(), time.perf_counter() - start)


def failure(outcome: Outcome) -> str | None:
    """Why ``outcome`` is not a clean end, or None: a traceback, a run past
    ``BOUND_S`` or an exit status outside 0-3."""
    if outcome.status is None:
        return outcome.stderr.rstrip().splitlines()[-1]
    if outcome.seconds > BOUND_S:
        return f"took {outcome.seconds:.2f} s"
    if outcome.status not in (0, 1, 2, 3):
        return f"exit status {outcome.status}"
    return None


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 300
    seed = argv[1] if len(argv) > 1 else "1"
    failed = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as work:
        for m in mutants(seed, count, catalogue=True):
            why = failure(run_in_process(m, Path(work)))
            if why is not None:
                failed += 1
                print(f"FAIL {m.name}: {why}")
    print(f"{count} mutants, {failed} failed, {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
