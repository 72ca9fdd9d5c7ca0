"""Seeded mutants of the fixtures and of the ``tests/inputs.py`` catalogue
through the command line, in process (``tests/fuzzing.py``): malformed input
ends with a diagnostic and an exit status, never with a traceback or a
stall."""

from fuzzing import failure, mutants, run_in_process

MUTANTS = 300


def _run(tmp_path, catalogue):
    """The mutants that did not end cleanly, and the exit statuses seen."""
    failures, statuses = [], set()
    for m in mutants(1, MUTANTS, catalogue=catalogue):
        outcome = run_in_process(m, tmp_path)
        why = failure(outcome)
        if why is not None:
            failures.append(f"{m.name}: {why}")
        statuses.add(outcome.status)
    return failures, statuses


def test_fixture_mutants_end_with_an_exit_status(tmp_path):
    # each mutant must finish within BOUND_S (5 s) with status 0-3; the
    # slowest of these, a guard chain spliced into the fixture tagset, takes
    # about 0.06 s on a shared 2-core VM, most of it in TypeGraph._expand
    failures, statuses = _run(tmp_path, catalogue=False)
    assert failures == []
    # the mutants reach past the parser: some compile cleanly, some fail
    # with diagnostics and some cannot be read
    assert {0, 1, 3} <= statuses


def test_catalogue_mutants_end_with_an_exit_status(tmp_path):
    # half of these mutate a catalogue input (guard chains, nested and
    # guarded tagsets, ladders, positional rules) instead of the fixtures;
    # all 300 take about 1.1 s on a shared 2-core VM, the slowest 0.12 s
    failures, statuses = _run(tmp_path, catalogue=True)
    assert failures == []
    assert {0, 1, 2, 3} <= statuses
