"""Golden CLI bytes: the exit code, stdout and stderr of every command.

Each case runs one `rif-forge` command in-process and compares what it
printed with tests/golden/<group>.json.  Table output and stderr are
stored verbatim; JSON output is stored as the SHA-256 digest of stdout,
which keeps the files small.  The groups are the packaged fixture, the
two-block power set, a copy of it whose lower map breaks UL1 and UL2
(so the reports list witnesses and the commands exit 1) and `derive` on
a small CSV table.

To rewrite the golden files after an intended change of output, run

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import tempfile

import pytest
from click.testing import CliRunner

from rif_forge import powerset_space, save_space, space_to_dict
from rif_forge.cli import main

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
FIXTURE = HERE.parent / "src" / "rif_forge" / "fixtures" / "abstract_example.json"

TERMS = (
    "otimes(k0,k1)",
    "oplus(1/3,k0,k2)",
    "sharp(k1)",
    "flat(k0)",
    "sigma(k2)",
    "pow(k1,2)",
    "kst(k0,1/4,3/4)",
    "top",
)
BAD_TERMS = ("oplus(k0,k1,k2)", "otimes(k0 k1)", "pow(k0, 0)", "mystery", "sharp(k0")

# Per space: a vprs target and fit-alpha samples, both as carrier renderings.
SPACE_INPUTS = {
    "fixture": ("{a,b}", [["{a}", "{a,b}", "1/2"], ["{b,c}", "{b,e}", "1/3"], ["{e}", "{a,b,e}", "1"]]),
    "two_block": ("{x1}", [["{x1}", "{x1,x2}", "1/2"], ["{x3}", "{x1,x3}", "2/3"], ["{x1,x2}", "{x2}", "1/4"]]),
}

TABLE_CSV = "object,color,size\no1,red,big\no2,red,small\no3,blue|green,big\n"


def space_cases(group: str) -> dict[str, list[str]]:
    """Every command on one space, in both formats, plus the parse errors."""
    space, samples = "{" + group + "}", "{" + group + "_samples}"
    target = SPACE_INPUTS[group][0]
    commands = {
        "validate": ["validate", space],
        "approximate": ["approximate", space],
        "check-laws": ["check-laws", space, "k0", "sharp(k1)", "oplus(1/2,k0,k2)",
                       "--alpha", "1/3", "--alpha", "1/2"],
        "check-laws-default": ["check-laws", space],
        "check-laws-random": ["check-laws", space, "k0", "--random-terms", "4", "--seed", "5"],
        "prif-verify-random": ["prif-verify", space, "--trials", "25", "--seed", "3"],
        "prif-verify-function": ["prif-verify", space, "--function", "kst(k0,1/4,3/4)"],
        "prif-verify-function-order": ["prif-verify", space, "--function", "sharp(k0)",
                                       "--relation", "order"],
        "rif-failure-search": ["rif-failure-search", space, "--budget", "30", "--seed", "2"],
        "vprs": ["vprs", space, target, "--alpha", "1/4", "--beta", "1/2"],
        "vprs-fixed": ["vprs", space, target, "--function", "k1", "--alpha", "1/4",
                       "--beta", "1/2", "--fixed"],
        "fit-alpha": ["fit-alpha", space, "k0", "k2", samples],
    }
    for relation in ("parthood", "order"):
        for term in TERMS:
            commands[f"classify-{relation}-{term}"] = ["classify", space, term, "--relation", relation]
    cases = {}
    for name, argv in commands.items():
        for fmt in ("table", "json"):
            cases[f"{name}-{fmt}"] = argv + ["--format", fmt]
    for term in BAD_TERMS:
        cases[f"classify-error-{term}"] = ["classify", space, term]
    return cases


CASES = {
    "fixture": space_cases("fixture"),
    "two_block": space_cases("two_block"),
    "broken_lower": {
        f"{name}-{fmt}": argv + ["--format", fmt]
        for name, argv in {
            "validate": ["validate", "{broken_lower}"],
            "check-laws": ["check-laws", "{broken_lower}"],
            "classify": ["classify", "{broken_lower}", "sharp(k0)"],
            "prif-verify": ["prif-verify", "{broken_lower}", "--function", "sigma(k1)"],
        }.items()
        for fmt in ("table", "json")
    },
    "derive": {
        "derive": ["derive", "{table}"],
        "derive-attrs": ["derive", "{table}", "--attrs", "color"],
        "derive-delimiter": ["derive", "{table}", "--attrs", "color,size", "--value-delimiter", ";"],
    },
}


def write_inputs(directory: pathlib.Path) -> dict[str, str]:
    """The files the cases read, written into directory; placeholder -> path."""
    two_block = directory / "two_block.json"
    space = powerset_space(["x1", "x2", "x3"], [["x1", "x2"], ["x3"]])
    save_space(space, two_block)
    broken = space_to_dict(space)
    broken["lower"] = [[x, "{x1,x2,x3}" if x == "{x3}" else low] for x, low in broken["lower"]]
    broken_lower = directory / "broken_lower.json"
    broken_lower.write_text(json.dumps(broken), encoding="utf-8")
    table = directory / "table.csv"
    table.write_text(TABLE_CSV, encoding="utf-8")
    paths = {"fixture": FIXTURE, "two_block": two_block, "broken_lower": broken_lower, "table": table}
    for name, (_, samples) in SPACE_INPUTS.items():
        path = directory / f"{name}_samples.json"
        path.write_text(json.dumps(samples), encoding="utf-8")
        paths[f"{name}_samples"] = path
    return {"{" + key + "}": str(path) for key, path in paths.items()}


def run_case(argv: list[str], paths: dict[str, str]) -> dict:
    result = CliRunner().invoke(main, [paths.get(arg, arg) for arg in argv])
    record = {"exit": result.exit_code, "stderr": result.stderr}
    if argv[-2:] == ["--format", "json"]:
        record["stdout_sha256"] = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    else:
        record["stdout"] = result.stdout
    return record


def load_golden(group: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{group}.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def input_paths(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden-inputs"))


@pytest.mark.parametrize(
    "group, name",
    [(group, name) for group, cases in CASES.items() for name in cases],
    ids=lambda value: value,
)
def test_cli_output_matches_golden(group, name, input_paths):
    want = load_golden(group)[name]
    got = run_case(CASES[group][name], input_paths)
    assert got == want


def test_every_golden_entry_is_a_case():
    for group, cases in CASES.items():
        assert sorted(load_golden(group)) == sorted(cases)


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(pathlib.Path(tmp))
        for group, cases in CASES.items():
            records = {name: run_case(argv, paths) for name, argv in cases.items()}
            text = json.dumps(records, indent=1, sort_keys=True) + "\n"
            (GOLDEN_DIR / f"{group}.json").write_text(text, encoding="utf-8")
            print(f"{group}: {len(records)} cases", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
