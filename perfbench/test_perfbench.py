"""Tests of the benchmark itself: generators, references and span arithmetic."""
from __future__ import annotations

import dataclasses
import json
import random
import sys
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for p in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
    if str(p) not in sys.path:
        sys.path.append(str(p))

import pytest  # noqa: E402

import tagmap  # noqa: E402
from tagmap.typegraph import CoverNode  # noqa: E402

import gen  # noqa: E402
import oracles  # noqa: E402
import ref as reference  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def _fixture_model():
    return gen.FixtureModel(
        leaf_paths=oracles.LEAF_PATHS,
        features={f.name: f.values for f in oracles.FEATURES},
        homes={f.name: f.home for f in oracles.FEATURES},
        classes=tuple(oracles.oracle_universe()))


def _fixture_stream(seed: int, n: int) -> list[str]:
    pool = gen.fixture_pool(random.Random(seed), _fixture_model(), size=60)
    return list(islice(gen.zipf_stream(random.Random(seed), pool), n))


def _corpus(seed: int, n_tokens: int):
    pairs = reference.RetagReference(reference.fixture_reference()).exception_pairs()
    inventory = oracles.oracle_rules().inventory
    return list(gen.corpus_lines(random.Random(seed), inventory, pairs, n_tokens))


@pytest.mark.parametrize("make", [
    lambda seed: gen.ladder_rules(random.Random(seed)),
    lambda seed: list(islice(gen.ladder_queries(random.Random(seed)), 50)),
    lambda seed: _fixture_stream(seed, 200),
    lambda seed: _corpus(seed, 3000),
], ids=["ladder-rules", "ladder-queries", "fixture-queries", "corpus"])
def test_generators_repeat_for_a_seed(make):
    assert make(5) == make(5)
    assert make(5) != make(6)


def test_fixture_pool_mix_is_fixed_by_rank():
    pool = gen.fixture_pool(random.Random(3), _fixture_model(), size=60)
    kinds = gen.pool_kinds(60)
    assert len(set(pool)) == 60
    for text, kind in zip(pool, kinds):
        assert oracles.oracle_well_typed(text) == (kind != "ill-typed"), text


def test_ladder_tagset_matches_its_explicit_classes():
    g = tagmap.parse_tagset_definition(gen.ladder_tagset(3))
    assert {oracles.key_of(t) for t in g.universe} == {
        oracles.class_key(leaf, a) for leaf, a in gen.ladder_classes(3)}


def test_corpus_tallies_exceptions_and_malformed_lines():
    lines = _corpus(9, 20_000)
    assert sum(len(line.tokens) for line in lines if not line.malformed) <= 20_000
    assert any(line.malformed for line in lines)
    assert all(not line.tokens for line in lines if line.malformed)


@pytest.fixture(scope="module")
def fixture_session():
    graph = tagmap.parse_tagset_definition(
        (workloads.FIXTURES / "eagles-en.tagset").read_text())
    rules = tagmap.parse_rules((workloads.FIXTURES / "upenn.rules").read_text(), graph)
    return reference.fixture_reference(), rules


QUERY = "[pos = pron & type = indef]"


def test_reference_accepts_a_correct_resolution(fixture_session):
    ref, rules = fixture_session
    res = tagmap.resolve(rules, QUERY)
    assert res.noise
    assert reference.check_query(ref, rules.graph, QUERY, res, res.render()) == []


def _corrupt_noise(res):
    note = res.noise[0]
    cover = note.cover + (CoverNode("v", (), mask=1),)
    return dataclasses.replace(res, noise=(dataclasses.replace(note, cover=cover),)
                               + res.noise[1:])


@pytest.mark.parametrize("corrupt", [
    lambda res: dataclasses.replace(res, patterns=res.patterns[1:]),
    lambda res: dataclasses.replace(res, noise=res.noise[1:]),
    _corrupt_noise,
], ids=["dropped-pattern", "dropped-noise", "wrong-noise-cover"])
def test_reference_rejects_a_corrupted_resolution(fixture_session, corrupt):
    ref, rules = fixture_session
    bad = corrupt(tagmap.resolve(rules, QUERY))
    assert reference.check_query(ref, rules.graph, QUERY, bad, bad.render())


def test_reference_rejects_a_rendering_that_does_not_re_denote(fixture_session):
    ref, rules = fixture_session
    res = tagmap.resolve(rules, QUERY)
    lines = res.render().split("\n")
    lines[1] = lines[1].rsplit(": ", 1)[0] + ": pos=v"
    assert reference.check_query(ref, rules.graph, QUERY, res, "\n".join(lines))


def test_reference_rejects_accepting_an_ill_typed_query(fixture_session):
    ref, rules = fixture_session
    res = tagmap.resolve(rules, QUERY)
    assert reference.check_query(ref, rules.graph, "v & case=gen", res, res.render())


def test_ladder_reference_checks_explain_and_queries():
    rng = random.Random(2)
    lad = gen.ladder_rules(rng, n_features=3)
    ref = reference.ladder_reference(gen.ladder_classes(3), gen.LADDER_LEAVES, lad)
    graph = tagmap.parse_tagset_definition(gen.ladder_tagset(3))
    rules = tagmap.parse_rules(lad.text, graph)
    explain = tagmap.render_explain(tagmap.build_mtree(rules))
    assert reference.check_explain(ref, explain) == []
    assert reference.check_explain(ref, explain.replace("[9 classes]", "[8 classes]"))
    for text in islice(gen.ladder_queries(rng, n_features=3), 20):
        res = tagmap.resolve(rules, text)
        assert reference.check_query(ref, graph, text, res, res.render()) == []
        assert reference.check_query(
            ref, graph, text, dataclasses.replace(res, patterns=()), res.render())


def test_retag_reference_rejects_a_wrong_reading():
    rref = reference.RetagReference(reference.fixture_reference())
    assert rref.check_record("house", "NN", "house\tNN\t[n & (common & sg | mass)]"
                             "\tcoverage\tunderspecified") is None
    assert rref.check_record("house", "NN", "house\tNN\t[n & common & sg]"
                             "\tcoverage\tunderspecified")
    assert rref.check_record("is", "VBZ", "is\tVBZ\t[vtype = con & mood = ind & "
                             "tense = pres & pers = 3]\tcoverage\t-")


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        (1, 0, "root", 0.0, 10.0),
        (2, 1, "a", 1.0, 4.0),
        (3, 1, "b", 3.0, 6.0),         # overlaps a: union 1..6
        (4, 1, "c", 9.0, 12.0),        # runs past its parent: clipped to 9..10
        (5, 2, "leaf", 2.0, 3.0),
    ]
    got = self_times(spans)
    assert got[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert got[2] == pytest.approx(3.0 - 1.0)
    assert got[3] == pytest.approx(3.0)
    assert got[5] == pytest.approx(1.0)


def test_tracer_self_time_matches_the_recorded_spans():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(20_000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    outer()
    offline = self_times(tracer.spans)
    by_name: dict[str, float] = {}
    for sid, _, name, _, _ in tracer.spans:
        by_name[name] = by_name.get(name, 0.0) + offline[sid]
    assert tracer.calls("inner") == 6
    assert tracer.edges[("outer", "inner")] == 6
    assert tracer.self_time("outer") == pytest.approx(by_name["outer"], abs=1e-9)
    assert tracer.self_time("inner") == pytest.approx(tracer.total("inner"))


def test_tracer_state_survives_a_json_round_trip():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    tracer.wrap(lambda: inner(), "outer")()
    tracer.counts["hits"] += 2
    state = json.loads(json.dumps(tracer.state()))
    assert Tracer.load(state).state() == tracer.state()


def test_tracer_closes_spans_on_exceptions():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap(boom, "boom")
    with pytest.raises(KeyError):
        tracer.wrap(wrapped, "outer")()
    assert tracer.calls("boom") == tracer.calls("outer") == 1
    assert not tracer._stack


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert workloads.tail(list(range(1, 101))) == (90, "p90")
    assert workloads.tail(list(range(1, 1001))) == (990, "p99")
    assert workloads.tail(list(range(1, 11))) == (10, "max")


def test_timed_query_stops_at_the_limit(monkeypatch):
    import signal
    import time

    monkeypatch.setattr(workloads, "QUERY_LIMIT_S", 0.05)
    monkeypatch.setattr(tagmap, "resolve", lambda rules, text: time.sleep(5))
    old = signal.signal(signal.SIGALRM, workloads._alarm)
    try:
        outcome, rendered, elapsed = workloads.timed_query(None, "v")
    finally:
        signal.signal(signal.SIGALRM, old)
    assert outcome is None and elapsed < 1
