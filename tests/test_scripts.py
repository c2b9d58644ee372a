"""The scripts run to the end: bench_layers.py at its smallest sizes, whose
record must parse and hold every layer, and make_fixture.py, which must
write the packaged fixture byte for byte.  Every script is run here.

bench_layers.py replaced four timing scripts; each test named after one of
them checks that the record holds the cells that script printed, with the
assertions its run was held to.

They import private names of the package, so a change to those breaks them
without any other test noticing.

The committed records and the README are checked here too: each
BENCH_<commit>.json has the live record's shape, and the README cites what a
layer costs only as a cell of the newest record, and names no oracle or test
that tests/ does not define, and no name of tests/reference_model.py that the
model does not define.
"""

import ast
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
FUNCTIONS = ["k0", "k1", "k2", "kst(k0,1/4,3/4)", "kappa"]
AXIOMS = ["U1", "R0", "R1", "R2", "R3", "R4", "R5", "R6", "IR0", "IR4", "RB"]
RECORD_NAME = re.compile(r"BENCH_([0-9a-f]{7,40})\.json")
# the committed layer records; BENCH_backfill.json holds no cells
RECORDS = {p.name: json.loads(p.read_text(encoding="utf-8"))
           for p in sorted(ROOT.glob("BENCH_*.json")) if RECORD_NAME.fullmatch(p.name)}


@pytest.fixture(scope="module")
def record():
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_layers.py"), "--objects", "3", "--repeat", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def cells(record):
    return {(c["layer"], c["name"]): c for c in record["cells"]}


def test_bench_layers_prints_every_layer_as_json(record):
    assert (record["objects"], record["seed"], record["repeat"], record["elements"]) == (3, 0, 1, 8)
    assert RECORDS, "no committed BENCH_<commit>.json"
    # this run's record, then each committed one
    for name, r in [("this run", record), *RECORDS.items()]:
        assert list(r)[:6] == ["machine", "python", "commit", "objects", "seed", "repeat"], (name, list(r))
        keys = {(c["layer"], c["name"]) for c in r["cells"]}
        assert len(keys) == len(r["cells"]), f"{name}: two cells share a layer and name"
        assert {layer for layer, _ in keys} == {
            "load", "save", "space", "build", "operator", "axiom", "law", "trial", "startup"}, name
        for c in r["cells"]:
            assert c["best"] <= c["q1"] <= c["median"] <= c["q3"], (name, c)


# the cells each former timing script printed, by the script's name
FORMER_CELLS = {
    "time_validate.py": [("load", "load_space"), ("load", "json.load"), ("load", "load/decode"),
                         ("save", "_json_text"), ("save", "json.dumps"),
                         *(("space", f"scan {a}") for a in
                           ["PT1", "PT2", "G1", "G2", "G3", "G4", "G5", "UL1", "UL2", "UL3", "TB"]),
                         ("space", "validate_space"), ("space", "check_admissibility"), ("space", "classify_flavor")],
    "time_axioms.py": [*(("build", f"{f} constructor") for f in FUNCTIONS),
                       *(("axiom", f"{f} {a} {kind}") for f in FUNCTIONS for a in AXIOMS
                         for kind in ["report", "report built", "verdict", "verdict built"]),
                       *(("axiom", f"{f} {call}") for f in FUNCTIONS for call in ["verify_prif", "classify"]),
                       ("law", "rif_failure_search"),
                       *(("operator", op) for op in
                         ["otimes(k0,k2)", "oplus(1/3,k0,k2)", "sharp(k0)", "flat(k1)", "sigma(k0)", "pow(k1,2)"])],
    "time_check_laws.py": [*(("law", law) for law in ["WeakSharpComp", "WeakFlatComp", "R0Plus", "check_laws"]),
                           *(("operator", op) for op in
                             ["otimes", "oplus", "sharp", "flat", "sigma", "pow", "leq"]),
                           ("build", "kst"), ("build", "k0/k1/k2 kept")],
}


@pytest.mark.parametrize("script", ["time_validate.py", "time_axioms.py", "time_check_laws.py"])
def test_timing_script_exits_0(script, record, cells):
    assert record["elements"] == 8
    missing = [key for key in FORMER_CELLS[script] if key not in cells]
    assert not missing, missing
    if script == "time_check_laws.py":
        # R0Plus timed where it lists witnesses, on kappas that fail it
        assert cells["law", "R0Plus kappas"]["witnesses"] > 0
        # the trial stages that tell the space a partition keeps from one built new
        for stage in ("powerset_space built", "powerset_space kept", "check_laws new", "check_laws kept"):
            for objects in (2, 3, 4):
                assert ("trial", f"{stage}, {objects} objects") in cells, (stage, objects)
        # construction apart from the wrap of rows a space keeps
        assert ("build", "k0/k1/k2 new") in cells


def test_startup_script_exits_0(cells):
    for command in ("validate", "classify"):
        for cache in ("cached", "uncached"):
            for kind in ("", " bare", " minus bare"):
                assert ("startup", f"{command} {cache}{kind}") in cells, (command, cache, kind)
    # each says whether its quartiles lie close enough to resolve a 5 ms change
    for c in cells.values():
        if c["layer"] == "startup":
            assert type(c["resolved"]) is bool and c["resolved"] == (c["q3"] - c["q1"] <= 5), c
    # the modules a command imports in its body are listed too
    assert cells["startup", "validate cached"]["loads"] == ["rif_forge", "rif_forge.errors", "rif_forge.space"]
    assert "rif_forge.terms" in cells["startup", "classify cached"]["loads"]


def test_make_fixture_rewrites_the_packaged_fixture(tmp_path):
    # the script writes into the src/ beside its scripts/, so it runs on a
    # copy, from which the packaged fixture is removed first
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    (tmp_path / "scripts").mkdir()
    shutil.copy(SCRIPTS / "make_fixture.py", tmp_path / "scripts")
    fixture = pathlib.Path("src", "rif_forge", "fixtures", "abstract_example.json")
    (tmp_path / fixture).unlink()
    result = subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "make_fixture.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / fixture).read_bytes() == (ROOT / fixture).read_bytes()


def test_every_script_is_run_here():
    source = pathlib.Path(__file__).read_text()
    for script in SCRIPTS.glob("*.py"):
        assert f'"{script.name}"' in source, script.name


# -- the README cites the newest record, and the tests it names exist ---------

README = ROOT / "README.md"
CITED_CELL = re.compile(r"cell `([^`]+)` `([^`]+)`")
# a number with a unit of time, rate, memory, ratio or share
FIGURE = re.compile(r"(?<![\w.])\d[\d,.]*\s*(?:ms|us|µs|s|ops/s|MiB|KiB|x|%)(?![\w/])")
COST_SECTION = re.compile(r"Measuring the layers|What .* costs?")


def readme_sections():
    """README.md's sections by heading, each text on one line."""
    parts = re.split(r"^## (.+)$", README.read_text(encoding="utf-8"), flags=re.M)
    return {parts[i]: " ".join(parts[i + 1].split()) for i in range(1, len(parts), 2)}


def test_readme_cites_its_costs_as_cells_of_the_newest_record():
    sections = readme_sections()
    text = " ".join(sections.values())
    cited = {m[0] for m in RECORD_NAME.finditer(text)}
    assert len(cited) == 1 and cited <= RECORDS.keys(), cited
    name = cited.pop()
    record = RECORDS[name]
    citations = CITED_CELL.findall(text)
    assert citations, "the README cites no cell"
    have = {(c["layer"], c["name"]) for c in record["cells"]}
    missing = [cell for cell in citations if cell not in have]
    assert not missing, missing
    costs = [heading for heading in sections if COST_SECTION.fullmatch(heading)]
    assert len(costs) == 8, costs
    figures = {heading: FIGURE.findall(sections[heading]) for heading in costs}
    assert not any(figures.values()), figures
    # newest in the order git log lists the commits the records are named by
    log = subprocess.run(["git", "log", "--format=%H"], cwd=ROOT, capture_output=True, text=True)
    if log.returncode != 0:
        pytest.skip("the order of the records needs a git checkout")
    commits = log.stdout.split()
    position = {r: next((i for i, c in enumerate(commits) if c.startswith(RECORD_NAME.fullmatch(r)[1])), None)
                for r in RECORDS}
    assert None not in position.values(), position
    assert position[name] == min(position.values()), position


def test_readme_names_only_oracles_and_tests_that_exist():
    text = README.read_text(encoding="utf-8")
    cited = set(re.findall(r"\b(?:naive|former|test)_\w+\b(?!\.py)", text))
    defined = {name for path in (ROOT / "tests").rglob("*.py")
               for name in re.findall(r"^\s*(?:def|class) (\w+)", path.read_text(encoding="utf-8"), re.M)}
    assert cited, "the README names no oracle or test"
    assert not cited - defined, sorted(cited - defined)
    # and every name it cites as reference_model.<name> is a module-level name of that file
    cited = set(re.findall(r"\breference_model\.(?!py\b)(\w+)", text))
    model = ast.parse((ROOT / "tests" / "reference_model.py").read_text(encoding="utf-8"))
    defined = {node.name for node in model.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in model.body if isinstance(node, ast.Assign) for t in node.targets
                if isinstance(t, ast.Name)}
    assert cited, "the README names nothing of reference_model"
    assert not cited - defined, sorted(cited - defined)
