"""Structural mutations of the fixture document at the command line.

Each example deletes or replaces one key, row or cell of the packaged
fixture (a replacement may be another part of the document, an id, or a
value of another JSON type) and runs five commands on the result.  Every
command must exit 0, 1 or 2 through the command line's own exit, never
with another exception, and an exit 2 prints exactly one `error:` line.
"""

from __future__ import annotations

import json
import pathlib
import tempfile

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from fixture_data import FIXTURE_PATH
from rif_forge.cli import main

FIXTURE = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))

# Each command, with the space file inserted after its name.
COMMANDS = (
    ("validate",),
    ("approximate",),
    ("classify", "k0"),
    ("prif-verify", "--function", "k1"),
    ("check-laws", "k0", "k1"),
)


def locations(doc) -> list[tuple]:
    """Paths to every key, row and cell: depth one, two and three."""
    out = []
    for key, value in doc.items():
        out.append((key,))
        if isinstance(value, list):
            for i, row in enumerate(value):
                out.append((key, i))
                cells = row.keys() if isinstance(row, dict) else range(len(row)) if isinstance(row, list) else ()
                out += [(key, i, c) for c in cells]
    return out


def subtrees(doc) -> list:
    return [_at(doc, path) for path in locations(doc)]


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


PATHS = locations(FIXTURE)
IDS = sorted({e["id"] for e in FIXTURE["elements"]})
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2, max_value=3),
    st.sampled_from(IDS + ["", "ghost", "granular", "GGS", "setHGOS"]),
)
VALUES = st.one_of(
    st.sampled_from(subtrees(FIXTURE)),
    st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["id", "carrier"]), inner, max_size=2), max_leaves=4),
)


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(FIXTURE))
    path = draw(st.sampled_from(PATHS))
    parent = _at(doc, path[:-1])
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(VALUES)
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=mutated_documents())
def test_every_command_exits_0_1_or_2(doc):
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "mutated.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in COMMANDS:
            argv = [command[0], str(path), *command[1:]]
            result = runner.invoke(main, argv)
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                argv, repr(result.exception))
            assert result.exit_code in (0, 1, 2), (argv, result.exit_code)
            if result.exit_code == 2:
                lines = result.stderr.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), (argv, result.stderr)


# -- sample and environment files ------------------------------------------------

SAMPLES = [["ab", "bc", "3/16"], ["{a,b}", "a", "1/2"]]
ENV = {"blend": "oplus(1/2, k0, k2)", "hat": "sharp(blend)"}


def assert_clean_exit(argv, result):
    assert result.exception is None or isinstance(result.exception, SystemExit), (argv, repr(result.exception))
    assert result.exit_code in (0, 1, 2), (argv, result.exit_code)
    if result.exit_code == 2:
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, result.stderr)


@st.composite
def mutated_samples(draw):
    """SAMPLES with one row or cell deleted or replaced."""
    doc = json.loads(json.dumps(SAMPLES))
    i = draw(st.integers(0, len(doc) - 1))
    parent, key = (doc, i) if draw(st.booleans()) else (doc[i], draw(st.integers(0, 2)))
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(VALUES)
    return doc


@st.composite
def mutated_envs(draw):
    """ENV with one entry deleted, renamed or given another value."""
    doc = dict(ENV)
    name = draw(st.sampled_from(sorted(doc)))
    how = draw(st.sampled_from(["delete", "rename", "replace"]))
    value = doc.pop(name)
    if how == "rename":
        doc[draw(st.sampled_from(["k0", "top", "", "x y", "oplus"]))] = value
    elif how == "replace":
        doc[name] = draw(VALUES | st.sampled_from(["k0(", "sharp(hat)", "oplus(2, k0, k1)", ""]))
    return doc


@settings(max_examples=60, deadline=None)
@given(samples=mutated_samples(), env=mutated_envs())
def test_sample_and_env_files_exit_0_1_or_2(samples, env):
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        samples_path, env_path = pathlib.Path(tmp) / "samples.json", pathlib.Path(tmp) / "env.json"
        samples_path.write_text(json.dumps(samples), encoding="utf-8")
        env_path.write_text(json.dumps(env), encoding="utf-8")
        for argv in (["fit-alpha", str(FIXTURE_PATH), "k0", "sharp(k0)", str(samples_path)],
                     ["classify", str(FIXTURE_PATH), "hat", "--env", str(env_path)]):
            assert_clean_exit(argv, runner.invoke(main, argv))
