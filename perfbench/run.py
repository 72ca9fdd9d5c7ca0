"""Benchmark of the tagmap pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads: fixture-session, ladder-session, corpus-retag (see README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  Lines before it name every measured metric with its unit and
sample count.  The exit status is 0 when every output matched its
reference, 1 when one did not, and 2 when the checkout has no ``src/tagmap``
or ``tests/oracles.py`` to measure.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("fixture-session", "ladder-session", "corpus-retag")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="sets the query and retag counts of a run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS belongs to it alone."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    missing = [p for p in (ROOT / "src" / "tagmap" / "__init__.py",
                           ROOT / "tests" / "oracles.py",
                           ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print(f"error: nothing to measure, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    run = workloads.WORKLOADS[args.workload](
        args.workload, args.seed, args.seconds, bool(args.trace))
    contract = _contract()["per_layer" if args.trace else "end_to_end"]
    measured = run.per_layer if args.trace else run.end_to_end
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for line in run.report:
        print(line)
    if args.trace:
        for name, value in sorted(run.per_layer.items()):
            print(f"  {name:<30} {value:.6g}")
    problems = list(run.problems)
    missing = [m["name"] for m in contract if m["name"] not in measured]
    if missing:
        problems.append(f"not measured: {', '.join(missing)}")
    for problem in problems:
        print(f"  MISMATCH {problem}")
    correct = run.wrong == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in contract if m["name"] in measured},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
