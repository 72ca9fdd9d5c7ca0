"""Seeded mutants of the fixtures through the command line, in process
(``tests/fuzzing.py``): malformed input ends with a diagnostic and an exit
status, never with a traceback or a stall."""

from fuzzing import failure, mutants, run_in_process

MUTANTS = 300


def test_fixture_mutants_end_with_an_exit_status(tmp_path):
    # each mutant must finish within BOUND_S (5 s) with status 0-3; the
    # slowest of these, a guard chain spliced into the fixture tagset, takes
    # about 0.6 s, nearly all of it in TypeGraph._expand
    failures, statuses = [], set()
    for m in mutants(1, MUTANTS):
        outcome = run_in_process(m, tmp_path)
        why = failure(outcome)
        if why is not None:
            failures.append(f"{m.name}: {why}")
        statuses.add(outcome.status)
    assert failures == []
    # the mutants reach past the parser: some compile cleanly, some fail
    # with diagnostics and some cannot be read
    assert {0, 1, 3} <= statuses
