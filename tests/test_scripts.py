"""The scripts run to the end: the timing scripts on a small power set,
time_startup.py with two runs of each process, and make_fixture.py, which
must write the packaged fixture byte for byte.

They import private names of the package, so a change to those breaks them
without any other test noticing.
"""

import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize("script", ["time_validate.py", "time_axioms.py", "time_check_laws.py"])
def test_timing_script_exits_0(script):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--objects", "3", "--repeat", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("# 8 elements"), result.stdout
    if script == "time_check_laws.py":
        # R0Plus timed where it lists witnesses, on kappas that fail it
        assert any(line.startswith("R0Plus kappas") and "FAIL (" in line for line in result.stdout.splitlines())
        # the trial stages that tell the space a partition keeps from one built new
        rows = [line.split()[:3] for line in result.stdout.splitlines()]
        for stage in ("powerset_space built", "powerset_space kept", "check_laws new", "check_laws kept"):
            assert [row[2] for row in rows if row[:2] == stage.split()] == ["2", "3", "4"], stage


def test_startup_script_exits_0():
    result = subprocess.run([sys.executable, str(SCRIPTS / "time_startup.py"), "--repeat", "2"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    # the modules a command imports in its body are listed too
    assert "validate loads: rif_forge rif_forge.errors rif_forge.space\n" in result.stdout, result.stdout
    assert "rif_forge.terms" in result.stdout.split("classify loads:")[1], result.stdout


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
