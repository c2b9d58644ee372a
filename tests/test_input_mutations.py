"""Structural mutations of space documents, at the command line and in the loader.

Each example deletes or replaces one key, row or cell of the packaged
fixture (a replacement may be another part of the document, an id, or a
value of another JSON type) and runs five commands on the result.  Every
command must exit 0, 1 or 2 through the command line's own exit, never
with another exception, and an exit 2 prints exactly one `error:` line.

The loader is also held to the independent model's reader
(reference_model.Space) on documents mutated once or twice: both read a
document to the same space, or both refuse it with the same error.
"""

from __future__ import annotations

import json
import pathlib
import tempfile

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import reference_model as model
from fixture_data import FIXTURE_PATH
from rif_forge import GranularSpace, RifForgeError, powerset_space, space_from_dict, space_to_dict
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
# nested deeper than any interpreter stack, so the decoder's RecursionError
# does not depend on the stack depth left to it
DEEP = "[" * 100_000 + "]" * 100_000


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
@given(samples=mutated_samples().map(json.dumps) | st.just(DEEP), env=mutated_envs().map(json.dumps) | st.just(DEEP))
@example(samples=DEEP, env=DEEP)
def test_sample_and_env_files_exit_0_1_or_2(samples, env):
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        samples_path, env_path = pathlib.Path(tmp) / "samples.json", pathlib.Path(tmp) / "env.json"
        samples_path.write_text(samples, encoding="utf-8")
        env_path.write_text(env, encoding="utf-8")
        for argv in (["fit-alpha", str(FIXTURE_PATH), "k0", "sharp(k0)", str(samples_path)],
                     ["classify", str(FIXTURE_PATH), "hat", "--env", str(env_path)]):
            assert_clean_exit(argv, runner.invoke(main, argv))


# -- the loader against the independent model (tests/reference_model.py) --------


def loaded(doc):
    """The space space_from_dict reads from doc, or its error's class name and text."""
    try:
        return space_from_dict(doc)
    except RifForgeError as exc:
        return type(exc).__name__, str(exc)


def modelled(doc):
    """The space reference_model.Space reads from doc, or its refusal's class name and text."""
    try:
        return model.Space(doc)
    except model.Refused as exc:
        return exc.args


def assert_same_space(s: GranularSpace, m: model.Space) -> None:
    """s, read by the loader, holds what the model m holds: the document s
    writes reads back to m, and its index, objects and carrier masks are
    those of m's ids and carriers."""
    assert vars(model.Space(space_to_dict(s))) == vars(m)
    assert s._index == {e: i for i, e in enumerate(m.elements)}
    assert s.objects == sorted(set().union(*m.carriers.values()))
    carried = len(m.carriers) == len(m.elements)
    assert s.carrier_masks == ([sum(1 << s.objects.index(o) for o in m.carriers[e]) for e in m.elements]
                               if carried else None)


def assert_loads_alike(doc) -> None:
    """space_from_dict reads doc to the space reference_model.Space reads, or both refuse it with one error."""
    got, want = loaded(doc), modelled(doc)
    if isinstance(want, model.Space):
        assert isinstance(got, GranularSpace), got
        assert_same_space(got, want)
    else:
        assert got == want


POWERSET_DOC = space_to_dict(powerset_space(["x1", "x2", "x3"], [["x1", "x2"], ["x3"]]))
BASES = (FIXTURE, POWERSET_DOC)


@st.composite
def twice_mutated_documents(draw):
    """The fixture or a 3-object power-set document with one or two keys,
    rows or cells deleted or replaced, by parts of the same document, its
    ids, or values of other JSON types."""
    base = draw(st.sampled_from(BASES))
    doc = json.loads(json.dumps(base))
    ids = sorted({e["id"] for e in base["elements"]})
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(min_value=-2, max_value=3),
        st.sampled_from(ids + ["", "ghost", "granular", "GGS", "HGOS", "setHGOS"]),
    )
    values = st.one_of(
        st.sampled_from(subtrees(base)),
        st.sampled_from(ids + ["ghost", "granular"]),
        st.recursive(scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
            st.sampled_from(["id", "carrier"]), inner, max_size=2), max_leaves=4),
    )
    for _ in range(draw(st.integers(1, 2))):
        if not doc:
            break
        # a key first, so that the short sections are hit as often as the long ones
        key = draw(st.sampled_from(sorted(doc)))
        path = draw(st.sampled_from([p for p in locations(doc) if p[0] == key]))
        parent = _at(doc, path[:-1])
        if draw(st.booleans()):
            del parent[path[-1]]
        else:  # a copy: the second mutation must not reach into base
            parent[path[-1]] = json.loads(json.dumps(draw(values)))
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=twice_mutated_documents())
def test_loader_matches_the_former_loader(doc):
    """space_from_dict against reference_model.Space on documents mutated once or twice."""
    assert_loads_alike(doc)


@pytest.mark.parametrize("base", BASES, ids=["fixture", "powerset"])
def test_unmutated_documents_load_alike(base):
    """space_from_dict against reference_model.Space."""
    assert_same_space(space_from_dict(base), model.Space(base))


def _edited(**rows):
    """The fixture with rows appended to its array sections; any other value replaces the section."""
    doc = json.loads(json.dumps(FIXTURE))
    for key, value in rows.items():
        both = isinstance(doc[key], list) and isinstance(value, list)
        doc[key] = doc[key] + value if both else value
    return doc


def _first_row(key, value, cell=None):
    """The fixture with the first row of a section, or one cell of it, replaced by value."""
    doc = json.loads(json.dumps(FIXTURE))
    if cell is None:
        doc[key][0] = value
    else:
        doc[key][0][cell] = value
    return doc


# Problems that one or two random mutations seldom combine: which one is
# reported first, conflicts with entries that name an unknown id, a bad
# first cell of a section's first row, a first row that is not an array
# but unpacks into ids (a string of one-letter ids, or an object whose
# keys are ids), and a repeated id with an unknown one.
@pytest.mark.parametrize("doc", [
    _edited(join=[["a", "e", "ghost"], ["a", "e", "abe"]]),
    _edited(join=[["a", "e", "abe"], ["a", "e", "ghost"]]),
    _edited(join=[["ghost", "a", "a"], ["ghost", "a", "e"]]),
    _edited(join=[["ghost", "a", "a"], ["ghost", "a", "a"], ["a", "ghost", "e"]]),
    _edited(join=[["a", "b", "ghost"]], meet=[["a", "a"]]),
    _edited(meet=[["a", "a", "ghost"]], join=[["a", "ghost", "a"]]),
    _edited(lower=[["ghost", "a"], ["a", "e"]]),
    _edited(lower=[["a", "e"], ["ghost", "a"]], upper=[["e", 3]]),
    _edited(lower=[["zzz", "a"]], upper=[["a", "zzz"]], parthood=[["a", "zzz"]]),
    _edited(order=[["zzz", "a"]], granulation=["zzz"], bottom=["bot"]),
    _edited(granulation=["zzz"], lower="granular"),
    _edited(granulation=["zzz", "zzz"], upper="granular", parthood=[["zzz", "a"]]),
    _edited(elements=[{"id": "a"}], upper="granular"),
    _edited(elements=[{"id": "zzz", "carrier": ["a"]}], meet=[["a", "zzz", "bot"]]),
    _edited(parthood=[["a", "ghost"], ["b"]]),
    *(_first_row(key, value, 0) for key in ("parthood", "order", "join", "meet") for value in (None, 3, ["a"])),
    *(_first_row(key, value) for key, ids in (("parthood", "ae"), ("join", "aea"), ("meet", "aea"))
      for value in (ids, dict.fromkeys(["a", "e", "ab"][:len(ids)], 0))),
    _edited(elements=[{"id": "a"}], parthood=[["a", "ghost"]]),
], ids=lambda doc: "")
def test_error_precedence_matches_the_former_loader(doc):
    """The first error space_from_dict raises against reference_model.Space's first refusal."""
    error = modelled(doc)
    assert isinstance(error, tuple)
    assert loaded(doc) == error


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=5))
def test_powerset_tables_match_the_former_loader(data, n):
    """powerset_space's tables against reference_model.Space on reference_model.powerset_document."""
    objects = [f"o{i}" for i in range(n)]
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for obj, label in zip(objects, labels):
        blocks.setdefault(label, []).append(obj)
    s = powerset_space(objects, list(blocks.values()))
    # the granules in the order powerset_space lists them
    ordered = sorted(blocks.values(), key=lambda b: (len(b), sorted(b)))
    assert_same_space(s, model.Space(model.powerset_document(objects, ordered)))


@pytest.mark.parametrize("key", ["lower", "upper"])
def test_granular_maps_with_a_duplicated_id_fail_as_in_the_naive_loader(key):
    """A "granular" map is derived before a duplicated id is reported:
    space_from_dict against reference_model.Space, which derives per id."""
    for i, j in ((i, j) for i in range(len(IDS)) for j in range(len(IDS)) if i != j):
        doc = json.loads(json.dumps(FIXTURE))
        doc["elements"][i]["id"] = doc["elements"][j]["id"]
        doc[key] = "granular"
        assert loaded(doc) == modelled(doc), (i, j)
