import json

import pytest

import reference_model
from fixture_data import FIXTURE_PATH
from rif_forge import load_space, powerset_space, terms


@pytest.fixture(scope="session")
def fixture_space():
    return load_space(FIXTURE_PATH)


@pytest.fixture(scope="session")
def fixture_model():
    """The worked example as the independent model reads its document."""
    return reference_model.Space(json.loads(FIXTURE_PATH.read_text(encoding="utf-8")))


@pytest.fixture(scope="session")
def two_block_space():
    """Three objects, blocks {x1,x2} and {x3}; the smallest space where
    sharp composition leaves the RIF class."""
    return powerset_space(["x1", "x2", "x3"], [["x1", "x2"], ["x3"]])


@pytest.fixture(scope="session")
def two_block_model():
    """two_block_space as the independent model reads the document it writes."""
    return reference_model.Space(reference_model.powerset_document(["x1", "x2", "x3"], [["x1", "x2"], ["x3"]]))


@pytest.fixture()
def built_base_functions(monkeypatch):
    """The names of the base functions k0, k1 and k2 that terms build, in
    the order they are built."""
    names = []
    for name in ("k0", "k1", "k2"):
        build = getattr(terms, name)
        monkeypatch.setattr(terms, name, lambda s, name=name, build=build: names.append(name) or build(s))
    return names


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
