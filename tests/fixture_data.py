"""Paths and frozen values of the worked example, shared by the test modules."""

import pathlib

FIXTURE_PATH = (
    pathlib.Path(__file__).resolve().parents[1]
    / "src"
    / "rif_forge"
    / "fixtures"
    / "abstract_example.json"
)

# Approximation table of the worked example, frozen: (element, lower, upper)
# in carrier-size-then-lexicographic order, bottom row first.
APPROXIMATION_ROWS = (
    ("{}", "{}", "{}"),
    ("{a}", "{a}", "{a}"),
    ("{e}", "{e}", "{b,e}"),
    ("{a,b}", "{a}", "{a,b,c,e}"),
    ("{b,c}", "{b,c}", "{b,c,e}"),
    ("{b,e}", "{b,e}", "{b,c,e}"),
    ("{a,b,e}", "{a,b,e}", "{a,b,c,e}"),
    ("{b,c,e}", "{b,c,e}", "{b,c,e}"),
    ("{a,b,c,e}", "{a,b,c,e}", "{a,b,c,e}"),
)
