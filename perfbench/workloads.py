"""The three workloads.  Each runs in its own process, closed loop, one caller.

``fixture-session`` and ``ladder-session`` drive the public API: set-up is
``parse_tagset_definition`` + ``parse_rules`` + ``build_mtree`` +
``render_explain``, then one query at a time goes through ``resolve`` and
``Resolution.render``.  ``corpus-retag`` runs ``python -m tagmap.cli retag``
as a child process on a generated corpus.
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import tagmap
from tagmap.diagnostics import CompileError

import gen
import layers
import oracles
import ref as reference
from spans import Tracer, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "src" / "tagmap" / "fixtures"
INPUTS = ROOT / ".bench_tmp"       # generated inputs, removed after each run
TRACES = ROOT / ".bench_out"        # span files of traced runs

# About ten times the ladder's median query.  A query still running at the
# limit is stopped and counted in fail_ratio.  Ladder query times have no gap
# above the limit (finished queries took 0.4, 0.9, 1.6, 2.6, 3.4 s and more),
# so whether a query near the limit finishes depends on the machine's speed
# at that moment; time-outs are therefore left out of the ``failed`` count of
# the JSON line, which only counts what the same inputs always give.
QUERY_LIMIT_S = 1.0
# Queries share some noise masks, so the cover cache hits more often the
# longer a session runs.  A session therefore runs a fixed number of queries
# per second of --seconds, whatever the speed of the program, so that every
# run (and every version of the program) sees the same cache history and
# keeps the same number of samples in memory: peak RSS does not grow with
# throughput.  Query time is capped at QUERY_CAP times --seconds.
QUERIES_PER_S = {"fixture-session": 4000, "ladder-session": 10}
QUERY_CAP = 3
# Set-ups per run.  The machine has fast and slow spells, so
# the larger half of the set-ups runs before the queries or retags and the
# rest after them, and the median is reported.
SETUP_REPEATS = {"fixture-session": 100, "ladder-session": 3, "corpus-retag": 24}
# Full-corpus retags per second of --seconds (at least three), a fixed count
# so that every run of a seed attempts the same number of operations.
RETAGS_PER_S = 0.2
RETAG_MIN_RUNS = 3
CHILD_KILL_S = 150


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)
    timeouts: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)

    def fail(self, problems: list[str]) -> None:
        """Count one failed operation whose output was wrong."""
        self.failed += 1
        self.wrong += 1
        self.problems.extend(problems)
        del self.problems[10:]

    def line(self, name: str, value: float, unit: str, note: str) -> None:
        self.report.append(f"  {name:<22} {value:>14.6g} {unit:<4} {note}")


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it
    (nearest rank), or the maximum when there is none."""
    xs = sorted(samples)
    n = len(xs)
    for permille in (999, 990, 900, 500):
        rank = -(-permille * n // 1000)
        if n - rank >= 10:
            return xs[rank - 1], f"p{permille / 10:g}"
    return xs[-1], "max"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- sessions -------------------------------------------------------------------


class QueryTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise QueryTimeout()


def timed_query(rules, text: str):
    """``(outcome, rendered, seconds)`` of one query with its result rendered.

    The outcome is the ``Resolution``, the ``CompileError`` of a rejected
    query, or None when the query passed the time limit.
    """
    signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
    start = clock()
    try:
        try:
            outcome = tagmap.resolve(rules, text)
            rendered = outcome.render()
        except CompileError as exc:
            outcome = exc
            rendered = "\n".join(d.render() for d in exc.diagnostics)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except QueryTimeout:
        outcome, rendered = None, ""
    return outcome, rendered, clock() - start


@dataclass
class Session:
    tagset: str
    rules: str
    ref: reference.Reference
    explain: str | None = None                        # first verified explain
    verified: dict[str, str] = field(default_factory=dict)

    def setup(self, run: Run):
        """One set-up from source text; ``(seconds, rules)``."""
        run.attempted += 1
        gc.collect()                     # free the previous set-up's graph first
        start = clock()
        graph = tagmap.parse_tagset_definition(self.tagset)
        rules = tagmap.parse_rules(self.rules, graph)
        tree = tagmap.build_mtree(rules)
        text = tagmap.render_explain(tree)
        elapsed = clock() - start
        if self.explain is None:
            problems = reference.check_explain(self.ref, text)
            if problems:
                run.fail(problems)
            else:
                self.explain = text
        elif text != self.explain:
            run.fail(["explain output differs between set-ups"])
        return elapsed, rules

    def queries(self, run: Run, rules, texts, seconds: float, keep=False):
        """Run queries until ``seconds`` of query time have passed, or until
        ``texts`` ends.  Returns the latencies, timeouts included, and, with
        ``keep``, the texts run."""
        latencies = array("d")
        ran: list[str] | None = [] if keep else None
        busy = 0.0
        for text in texts:
            if busy >= seconds:
                break
            run.attempted += 1
            if keep:
                ran.append(text)
            try:
                outcome, rendered, elapsed = timed_query(rules, text)
            except Exception as exc:             # a crash is a wrong output
                run.fail([f"{text}: {exc!r}"])
                continue
            latencies.append(elapsed)
            busy += elapsed
            if outcome is None:
                # a time-out is counted in fail_ratio, not in ``failed``
                run.timeouts.append(text)
            elif self.verified.get(text) != rendered:
                problems = reference.check_query(self.ref, rules.graph, text,
                                                 outcome, rendered)
                if problems:
                    run.fail(problems)
                else:
                    self.verified[text] = rendered
        return latencies, ran


def _session_inputs(name: str, seed: int):
    """The session and a function of the query seconds giving the query
    texts and the query-time budget."""
    if name == "fixture-session":
        model = gen.FixtureModel(
            leaf_paths=oracles.LEAF_PATHS,
            features={f.name: f.values for f in oracles.FEATURES},
            homes={f.name: f.home for f in oracles.FEATURES},
            classes=tuple(oracles.oracle_universe()))
        pool = gen.fixture_pool(random.Random(f"{seed}:pool"), model)
        session = Session((FIXTURES / "eagles-en.tagset").read_text(),
                          (FIXTURES / "upenn.rules").read_text(),
                          reference.fixture_reference())

        def stream():
            return gen.zipf_stream(random.Random(f"{seed}:stream"), pool)
    else:
        rules = gen.ladder_rules(random.Random(f"{seed}:rules"))
        session = Session(gen.ladder_tagset(), rules.text,
                          reference.ladder_reference(gen.ladder_classes(),
                                                     gen.LADDER_LEAVES, rules))

        def stream():
            return gen.ladder_queries(random.Random(f"{seed}:stream"))
    return session, lambda seconds: (
        islice(stream(), round(QUERIES_PER_S[name] * seconds)),
        QUERY_CAP * seconds)


def run_session(name: str, seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    session, plan = _session_inputs(name, seed)
    signal.signal(signal.SIGALRM, _alarm)
    if not trace:
        setups, rules = [], None
        repeats = SETUP_REPEATS[name]
        for _ in range(repeats - repeats // 2):
            rules = None                 # hold one compiled rule set at a time
            elapsed, rules = session.setup(run)
            setups.append(elapsed)
        latencies, _ = session.queries(run, rules, *plan(seconds))
        rules = None
        setups += [session.setup(run)[0] for _ in range(repeats // 2)]
        timeouts = len(run.timeouts)
        done = len(latencies) - timeouts
        p50 = statistics.median(latencies) * 1000
        tail_ms, pct = tail(latencies)
        busy = sum(latencies)
        run.end_to_end = {"setup_s": statistics.median(setups),
                          "peak_rss_mb": peak_rss_mb()}
        run.line("setup_s", run.end_to_end["setup_s"], "s",
                 f"median of {len(setups)} set-ups")
        run.line("query_p50_ms", p50, "ms", f"n={len(latencies)} queries")
        run.line("query_tail_ms", tail_ms * 1000, "ms",
                 f"{pct}, n={len(latencies)}")
        run.line("queries_per_s", done / busy, "1/s",
                 f"{done} completed in {busy:.3f} s of session time")
        run.line("fail_ratio", (run.failed + timeouts) / run.attempted, "",
                 f"{run.failed} wrong and {timeouts} past the "
                 f"{QUERY_LIMIT_S:g} s limit of {run.attempted} operations")
        run.line("peak_rss_mb", run.end_to_end["peak_rss_mb"], "MB",
                 "whole workload process")
        for text in run.timeouts[:5]:
            run.report.append(f"  timed out: {text}")
        return run

    # Traced run: the same queries without and then with the wrappers, each
    # after a fresh set-up so that neither pass finds the other's covers.
    plain_setup, rules = session.setup(run)
    latencies, ran = session.queries(run, rules, *plan(seconds / 2), keep=True)
    plain = plain_setup + sum(latencies)
    plain_timeouts = len(run.timeouts)
    tracer = Tracer()
    layers.install(tracer)
    try:
        rules = None
        traced_setup, rules = session.setup(run)
        traced_lat, _ = session.queries(run, rules, iter(ran), float("inf"))
    finally:
        tracer.uninstall()
    tracer.counts["resolver.timeouts"] = len(run.timeouts) - plain_timeouts
    traced = traced_setup + sum(traced_lat)
    run.per_layer = layers.metrics(tracer)
    run.per_layer["trace.overhead_pct"] = (traced / plain - 1) * 100
    run.report.append(f"  traced {len(ran)} queries after one set-up; "
                      f"{traced:.3f} s traced vs {plain:.3f} s plain")
    _dump(tracer, name, seed, run)
    return run


def _dump(tracer: Tracer, name: str, seed: int, run: Run) -> None:
    TRACES.mkdir(exist_ok=True)
    path = TRACES / f"trace-{name}-seed{seed}.json"
    tracer.dump(path, workload=name, seed=seed, metrics=run.per_layer)
    run.report.append(f"  spans written to {path.relative_to(ROOT)}")


# -- corpus retag -------------------------------------------------------------


def run_child(argv: list[str], stderr_path: Path) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and exit status of one child process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(stderr_path, "w") as err:
        start = clock()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_KILL_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = clock() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024, proc.returncode


class Corpus:
    """A generated corpus on disk, plus what is needed to check a retag."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.ref = reference.RetagReference(reference.fixture_reference())
        self.inventory = self.ref.ref.rules.inventory
        self.path = workdir / "corpus.txt"
        self.tokens = 0
        self.first = None
        with open(self.path, "w") as fh:
            for line in self.lines():
                fh.write(line.text + "\n")
                self.tokens += len(line.tokens)
                if self.first is None and not line.malformed:
                    self.first = line
        self.one_line = workdir / "one-line.txt"
        self.one_line.write_text(self.first.text + "\n")
        self.verified: str | None = None                # digest of a checked output

    def lines(self):
        return gen.corpus_lines(random.Random(f"{self.seed}:corpus"),
                                self.inventory, self.ref.exception_pairs())

    def argv(self, corpus: Path, output: Path, traced: list[str] | None = None):
        tail = ["retag", "--tagset", str(FIXTURES / "eagles-en.tagset"),
                "--rules", str(FIXTURES / "upenn.rules"),
                "--corpus", str(corpus), "-o", str(output)]
        if traced is not None:
            return [sys.executable, str(HERE / "traced_cli.py"), *traced, *tail]
        return [sys.executable, "-m", "tagmap.cli", *tail]

    def retag(self, run: Run, corpus: Path, lines, traced=None) -> tuple[float, float]:
        run.attempted += 1
        out, err = self.workdir / "out.txt", self.workdir / "err.txt"
        wall, rss, code = run_child(self.argv(corpus, out, traced), err)
        if code != 0:
            run.fail([f"retag exited with {code}: {err.read_text()[-500:]}"])
            return wall, rss
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if corpus == self.path and digest == self.verified:
            return wall, rss
        with open(out) as fh:
            problems = self.ref.check_output(lines(), fh, err.read_text())
        if problems:
            run.fail(problems)
        elif corpus == self.path:
            self.verified = digest
        return wall, rss


def run_corpus(name: str, seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    INPUTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=INPUTS))
    try:
        corpus = Corpus(seed, workdir)
        one_line = lambda: [corpus.first]          # noqa: E731
        if trace:
            return _trace_corpus(run, corpus, name, seed)
        repeats = SETUP_REPEATS[name]
        setups = [corpus.retag(run, corpus.one_line, one_line)[0]
                  for _ in range(repeats - repeats // 2)]
        walls, rss = [], []
        for _ in range(max(RETAG_MIN_RUNS, round(RETAGS_PER_S * seconds))):
            wall, mb = corpus.retag(run, corpus.path, corpus.lines)
            walls.append(wall)
            rss.append(mb)
        setups += [corpus.retag(run, corpus.one_line, one_line)[0]
                   for _ in range(repeats // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = statistics.median(walls)
    tail_s, pct = tail(walls)
    run.end_to_end = {"setup_s": statistics.median(setups),
                      "peak_rss_mb": statistics.median(rss)}
    run.line("setup_s", run.end_to_end["setup_s"], "s",
             f"median of {len(setups)} one-line retags")
    run.line("retag_tokens_per_s", corpus.tokens / wall, "1/s",
             f"{corpus.tokens} tokens, median of {len(walls)} runs")
    run.line("retag_wall_ms", wall * 1000, "ms", f"{pct} {tail_s * 1000:.1f} ms")
    run.line("fail_ratio", run.failed / run.attempted, "",
             f"{run.failed} of {run.attempted} retag runs")
    run.line("peak_rss_mb", run.end_to_end["peak_rss_mb"], "MB",
             f"CLI child, median of {len(rss)} runs")
    return run


def _trace_corpus(run: Run, corpus: Corpus, name: str, seed: int) -> Run:
    plain, _ = corpus.retag(run, corpus.path, corpus.lines)
    state_path = corpus.workdir / "spans.json"
    # the child measures its start-up against this clock reading
    traced, _ = corpus.retag(run, corpus.path, corpus.lines,
                             traced=[repr(time.monotonic()), str(state_path)])
    if not state_path.exists():
        return run
    state = json.loads(state_path.read_text())
    tracer = Tracer.load(state)
    run.per_layer = layers.metrics(tracer, cli_wall_s=traced,
                                   cli_startup_s=state["startup_s"])
    run.per_layer["trace.overhead_pct"] = (traced / plain - 1) * 100
    run.report.append(f"  traced retag {traced:.3f} s vs {plain:.3f} s plain")
    _dump(tracer, name, seed, run)
    return run


WORKLOADS = {
    "fixture-session": run_session,
    "ladder-session": run_session,
    "corpus-retag": run_corpus,
}
