"""Time fresh command-line processes against a bare interpreter start.

    python3 scripts/time_startup.py [--repeat 20]

Copies the repository's src/ to a temporary directory, without any
bytecode cache, and runs the command line from the copy, so the checkout
is never written.  For each of `validate <fixture>` and
`classify <fixture> k0`, run as `python -m rif_forge.cli`, it times
--repeat fresh processes alternated with as many of a bare `python -c pass`
(scripts/timing.py's alternated pairs), and prints both, then the command
minus the bare start, pair by pair.  It does so twice: with a bytecode
cache (PYTHONPYCACHEPREFIX in the temporary directory, filled by one
untimed run of each command), and without one (PYTHONDONTWRITEBYTECODE=1,
so every module of the package is compiled in every run, while the
standard library and click read their installed caches).  Every time is in
ms, printed as scripts/timing.py prints it: best, then q1/median/q3.  Last,
it lists the package modules each command loaded (-X importtime).  Stdlib
only.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

from timing import MACHINE, alternated, summary

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
COMMANDS = {"validate": ["validate", "{fixture}"], "classify": ["classify", "{fixture}", "k0"]}


def run(argv: list, env: dict) -> str:
    """Run argv in a fresh process; its stderr, after checking it exited 0."""
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    if result.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {result.returncode}: {result.stderr}")
    return result.stderr


def loaded_modules(argv: list, env: dict) -> list:
    """The package modules that argv imports, in import order."""
    lines = run([sys.executable, "-X", "importtime", *argv[1:]], env).splitlines()
    return [line.rsplit("|", 1)[1].strip() for line in lines
            if "|" in line and line.rsplit("|", 1)[1].strip().split(".")[0] == "rif_forge"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=20)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be positive")
    print(MACHINE)
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(SRC, pathlib.Path(tmp, "src"), ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        fixture = str(pathlib.Path(tmp, "src", "rif_forge", "fixtures", "abstract_example.json"))
        base = {name: value for name, value in os.environ.items()
                if name not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        base["PYTHONPATH"] = str(pathlib.Path(tmp, "src"))
        modes = {"with a bytecode cache": {**base, "PYTHONPYCACHEPREFIX": str(pathlib.Path(tmp, "pycache"))},
                 "without a bytecode cache": {**base, "PYTHONDONTWRITEBYTECODE": "1"}}
        bare = [sys.executable, "-c", "pass"]
        argvs = {name: [sys.executable, "-m", "rif_forge.cli", *(a.format(fixture=fixture) for a in rest)]
                 for name, rest in COMMANDS.items()}
        print(f"# {args.repeat} alternated pairs of each command and `python -c pass`; ms: best q1/median/q3")
        for mode, env in modes.items():
            print(f"{mode}:")
            for name, argv in argvs.items():
                run(argv, env)
                command, start = alternated(lambda: run(argv, env), lambda: run(bare, env), args.repeat)
                extra = [c - s for c, s in zip(command, start)]
                print(f"  {name:<9} {summary(command)}  bare {summary(start)}  minus bare {summary(extra)}")
        for name, argv in argvs.items():
            print(f"{name} loads: {' '.join(loaded_modules(argv, modes['with a bytecode cache']))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
