import pytest

from fixture_data import FIXTURE_PATH
from rif_forge import load_space, powerset_space


@pytest.fixture(scope="session")
def fixture_space():
    return load_space(FIXTURE_PATH)


@pytest.fixture(scope="session")
def two_block_space():
    """Three objects, blocks {x1,x2} and {x3}; the smallest space where
    sharp composition leaves the RIF class."""
    return powerset_space(["x1", "x2", "x3"], [["x1", "x2"], ["x3"]])


@pytest.fixture(scope="session")
def singleton_space():
    """Two objects, singleton blocks; all approximations are identities."""
    return powerset_space(["x1", "x2"], [["x1"], ["x2"]])


# -- acceptance summary -------------------------------------------------------

ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    ACCEPTANCE_RESULTS[name] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(ACCEPTANCE_RESULTS):
        outcome = ACCEPTANCE_RESULTS[name]
        terminalreporter.write_line(f"{outcome}  {name}")
