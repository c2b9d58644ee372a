"""The timing scripts run to the end on a small power set.

They import private names of the package, so a change to those breaks them
without any other test noticing.
"""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script", ["time_validate.py", "time_axioms.py", "time_check_laws.py"])
def test_timing_script_exits_0(script):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--objects", "3", "--repeat", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("# 8 elements"), result.stdout
