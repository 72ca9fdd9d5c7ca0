"""CLI output stays byte-identical to the files in ``tests/golden/``.

The files hold the fixture ``explain`` output and the stdout, stderr and exit
status of ``query --batch --strict`` over the first 100 queries of the
benchmark's seed-1 fixture pool, as an earlier version of the program wrote
them.  The pool comes from ``perfbench/gen.py``, which is read, not edited.
A deliberate change of output replaces the files and says why.
"""
import random
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

import gen  # noqa: E402

from tagmap import cli  # noqa: E402

from oracles import FEATURES, FIXTURES, LEAF_PATHS, oracle_universe  # noqa: E402

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
