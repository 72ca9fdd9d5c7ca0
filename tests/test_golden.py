"""CLI output stays byte-identical to the files in ``tests/golden/``.

The files hold, as an earlier version of the program wrote them:

* the fixture ``explain`` output;
* the stdout, stderr and exit status of ``query --batch --strict`` over the
  first 100 queries of the benchmark's seed-1 fixture pool;
* the ``explain`` output of the benchmark's 6-feature ladder tagset with the
  rules of seeds 1 to 3;
* the ``compile`` line of that tagset, and the warnings of ``compile`` with
  the seed-1 rules.

The pool, the ladder tagset and its rules come from ``perfbench/gen.py``,
which is read, not edited.  A deliberate change of output replaces the files
and says why.
"""
import random
from pathlib import Path

import gen
import pytest

from tagmap import cli

from oracles import FEATURES, FIXTURES, LEAF_PATHS, oracle_universe

GOLDEN = Path(__file__).resolve().parent / "golden"
FILES = ["--tagset", str(FIXTURES / "eagles-en.tagset"),
         "--rules", str(FIXTURES / "upenn.rules")]


def _run(capsys, argv) -> tuple[int, str, str]:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _pool(n: int) -> list[str]:
    model = gen.FixtureModel(
        leaf_paths=LEAF_PATHS,
        features={f.name: f.values for f in FEATURES},
        homes={f.name: f.home for f in FEATURES},
        classes=tuple(oracle_universe()))
    return gen.fixture_pool(random.Random("1:pool"), model)[:n]


def test_fixture_explain_is_unchanged(capsys):
    code, out, err = _run(capsys, ["explain", *FILES])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "explain.out").read_text()


def test_fixture_pool_queries_are_unchanged(tmp_path, capsys):
    batch = tmp_path / "pool.txt"
    batch.write_text("\n".join(_pool(100)) + "\n")
    code, out, err = _run(capsys, ["query", *FILES, "--batch", str(batch),
                                   "--strict"])
    assert out == (GOLDEN / "pool1-query.out").read_text()
    assert err == (GOLDEN / "pool1-query.err").read_text()
    assert f"{code}\n" == (GOLDEN / "pool1-query.status").read_text()


def _ladder_files(tmp_path, seed: int) -> list[str]:
    tagset = tmp_path / "ladder.tagset"
    tagset.write_text(gen.ladder_tagset())
    rules = tmp_path / "ladder.rules"
    rules.write_text(gen.ladder_rules(random.Random(f"{seed}:rules")).text)
    return ["--tagset", str(tagset), "--rules", str(rules)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ladder_explain_is_unchanged(seed, tmp_path, capsys):
    code, out, err = _run(capsys, ["explain", *_ladder_files(tmp_path, seed)])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"ladder{seed}-explain.out").read_text()


def test_ladder_compile_is_unchanged(tmp_path, capsys):
    tagset_only = _ladder_files(tmp_path, 1)[:2]
    code, out, err = _run(capsys, ["compile", *tagset_only])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "ladder-compile.out").read_text()


def test_ladder_compile_warnings_are_unchanged(tmp_path, capsys):
    code, out, err = _run(capsys, ["compile", *_ladder_files(tmp_path, 1)])
    assert (code, out) == (0, "tags: 11, classes: 2187, warnings: 10\n")
    assert err == (GOLDEN / "ladder1-compile.err").read_text()
