import pytest

from tklock import corpus
from tklock.keys import KeySchedule
from tklock.structural import lock_structural

S27_SCHEDULE = KeySchedule(keys=(1, 3, 2, 0), width=2)
S27_SEED = 7


@pytest.fixture(scope="session")
def s27():
    return corpus.load_bench("s27")


@pytest.fixture(scope="session")
def detector():
    return corpus.load_kiss2("detector1001")


@pytest.fixture(scope="session")
def s27_locked(s27):
    """s27 locked to the reference schedule: 4 keys of 2 bits, 1,3,2,0."""
    return lock_structural(s27, S27_SCHEDULE, seed=S27_SEED)


@pytest.fixture
def criterion(request):
    """Label the running test as an acceptance criterion for the summary hook.

    Writes the test's user properties directly: the `record_property` fixture
    warns under JUnit XML's default xunit2 family, which fails the run.
    """

    def label(text):
        request.node.user_properties.append(("criterion", text))

    return label


_acceptance_results = []


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    for name, value in report.user_properties:
        if name == "criterion":
            _acceptance_results.append((value, report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for label, outcome in sorted(_acceptance_results):
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{label}: {status}")
