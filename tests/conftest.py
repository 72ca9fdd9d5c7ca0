import sys
from pathlib import Path

import pytest

from tagmap import build_mtree, parse_rules, parse_tagset_definition

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "tagmap" / "fixtures"
# the benchmark's input generators (``perfbench/gen.py``), which tests read
# as ``gen`` and never edit
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

_ACCEPTANCE = {
    "test_criterion_1": "end-to-end query reproduction (patterns + noise)",
    "test_criterion_2": "type error on v/case, acceptance of aux&pers=3",
    "test_criterion_3": "consistency diagnostics (holes, overlap, hierarchy)",
    "test_criterion_4": "retagging with exception lexicon and underspecification",
    "test_criterion_5": "oracle equivalence on random well-typed specs",
    "test_criterion_6": "closed-world laws for every feature",
    "test_criterion_7": "byte-identical reruns",
}
_acceptance_results: dict[str, str] = {}


@pytest.fixture(scope="session")
def graph():
    return parse_tagset_definition((FIXTURES / "eagles-en.tagset").read_text())


@pytest.fixture(scope="session")
def rules(graph):
    return parse_rules((FIXTURES / "upenn.rules").read_text(), graph)


@pytest.fixture(scope="session")
def tree(rules):
    return build_mtree(rules)


def pytest_runtest_logreport(report):
    if "test_acceptance.py::" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[1].split("[")[0]
    key = next((k for k in _ACCEPTANCE if name.startswith(k)), None)
    if key is None:
        return
    if report.when == "call":
        _acceptance_results[key] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and (report.failed or report.skipped):
        _acceptance_results[key] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for i, (key, desc) in enumerate(_ACCEPTANCE.items(), start=1):
        outcome = _acceptance_results.get(key, "NOT RUN")
        terminalreporter.write_line(f"criterion {i}: {outcome} - {desc}")
