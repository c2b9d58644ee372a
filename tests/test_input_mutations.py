"""Structural mutations of space documents, at the command line and in the loader.

Each example deletes or replaces one key, row or cell of the packaged
fixture (a replacement may be another part of the document, an id, or a
value of another JSON type) and runs five commands on the result.  Every
command must exit 0, 1 or 2 through the command line's own exit, never
with another exception, and an exit 2 prints exactly one `error:` line.

The loader is also held to the former string-keyed loader (naive_load,
below) on documents mutated once or twice: both read a document to the
same space, or both reject it with the same error.
"""

from __future__ import annotations

import json
import pathlib
import tempfile

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from fixture_data import FIXTURE_PATH
from rif_forge import (
    ClosureError, RifForgeError, SpaceFormatError, StructuralError, powerset_space, render_carrier,
    space_from_dict, space_to_dict,
)
from rif_forge.cli import main
from rif_forge.space import FLAVORS

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


# -- the loader against the former string-keyed one ------------------------------
#
# naive_load is space_from_dict, its helpers and the GranularSpace constructor
# as they were before a space was read straight into index tables: string
# ids, sets of pairs and dicts, checked in the constructor.  Two error
# messages are mended in it as in the loader: a "granular" map whose
# granulation names an unknown element, and a bottom or top that is not a
# string, each crashed with a TypeError or KeyError.


class NaiveSpace:
    def __init__(self, elements, parthood, order, join, meet, granulation, lower, upper,
                 bottom, top, flavor="GGS", carriers=None):
        self.elements = tuple(elements)
        if not self.elements:
            raise StructuralError("a space needs at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise StructuralError("element ids must be unique")
        known = set(self.elements)

        self.carriers = {}
        for eid, carrier in (carriers or {}).items():
            if eid not in known:
                raise StructuralError(f"carrier given for unknown element {eid!r}")
            self.carriers[eid] = frozenset(carrier)
        seen_carriers = {}
        for eid, carrier in self.carriers.items():
            if carrier in seen_carriers:
                raise StructuralError(
                    f"elements {seen_carriers[carrier]!r} and {eid!r} share the "
                    f"carrier {render_carrier(carrier)}"
                )
            seen_carriers[carrier] = eid

        self.parthood = self._check_relation("parthood", parthood, known)
        self.order = self._check_relation("order", order, known)
        self.join = self._check_table("join", join, known)
        self.meet = self._check_table("meet", meet, known)

        self.granulation = tuple(granulation)
        if len(set(self.granulation)) != len(self.granulation):
            raise StructuralError("granulation ids must be unique")
        for g in self.granulation:
            if g not in known:
                raise StructuralError(f"granulation names unknown element {g!r}")

        self.lower = self._check_map("lower", lower, known)
        self.upper = self._check_map("upper", upper, known)

        for name, eid in (("bottom", bottom), ("top", top)):
            if not isinstance(eid, str):  # mended
                raise SpaceFormatError(f"{name} must be a string id")
            if eid not in known:
                raise StructuralError(f"{name} element {eid!r} is not in the universe")
        self.bottom = bottom
        self.top = top

        if flavor not in FLAVORS:
            raise StructuralError(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self._enforce_flavor()

    @staticmethod
    def _check_relation(name, pairs, known):
        rel = set()
        for a, b in pairs:
            if a not in known or b not in known:
                raise StructuralError(f"{name} pair ({a!r},{b!r}) leaves the universe")
            rel.add((a, b))
        return frozenset(rel)

    @staticmethod
    def _check_table(name, table, known):
        out = {}
        for (a, b), r in table.items():
            if a not in known or b not in known or r not in known:
                raise StructuralError(f"{name} entry ({a!r},{b!r})->{r!r} leaves the universe")
            out[(a, b)] = r
        return out

    @staticmethod
    def _check_map(name, mapping, known):
        out = {}
        for x, v in mapping.items():
            if x not in known or v not in known:
                raise StructuralError(f"{name} entry {x!r}->{v!r} leaves the universe")
            out[x] = v
        if missing := [x for x in known if x not in out]:
            raise StructuralError(f"{name} map is not total, missing {sorted(missing)}")
        return out

    def _enforce_flavor(self):
        if self.flavor == "GGS":
            return
        if self.parthood != self.order:
            raise StructuralError(f"flavor {self.flavor} requires parthood == order")
        if self.flavor == "GS":
            return
        if not len(self.join) == len(self.meet) == len(self.elements) ** 2:
            raise StructuralError(f"flavor {self.flavor} requires total join and meet")
        if self.flavor == "HGOS":
            return
        if not all(eid in self.carriers for eid in self.elements):
            raise StructuralError("flavor setHGOS requires a carrier on every element")
        t = naive_tables(self)
        cm = t["carrier_masks"]
        for ca, part, jn, mt in zip(cm, t["parthood"], t["join"], t["meet"]):
            for j, cb in enumerate(cm):
                if (part >> j & 1 == 1) != (ca & cb == ca):
                    raise StructuralError("flavor setHGOS requires parthood == inclusion")
                if cm[jn[j]] != ca | cb:
                    raise StructuralError("flavor setHGOS requires join == union")
                if cm[mt[j]] != ca & cb:
                    raise StructuralError("flavor setHGOS requires meet == intersection")


def naive_tables(s) -> dict:
    """The index tables of a space held as ids, every table built, by the
    name of the GranularSpace field that holds it."""
    idx = {eid: i for i, eid in enumerate(s.elements)}
    n = len(s.elements)

    def op(table):
        rows = [[-1] * n for _ in range(n)]
        for (a, b), r in table.items():
            rows[idx[a]][idx[b]] = idx[r]
        return rows

    def rel(pairs):
        masks = [0] * n
        for a, b in pairs:
            masks[idx[a]] |= 1 << idx[b]
        return masks

    objects = sorted(set().union(*s.carriers.values()))
    bit = {o: 1 << i for i, o in enumerate(objects)}
    carried = all(a in s.carriers for a in s.elements)
    return {
        "elements": s.elements, "_index": idx, "parthood": rel(s.parthood), "order": rel(s.order),
        "join": op(s.join), "meet": op(s.meet), "lower": [idx[s.lower[a]] for a in s.elements],
        "upper": [idx[s.upper[a]] for a in s.elements], "objects": objects,
        "carrier_masks": [sum(bit[o] for o in s.carriers[a]) for a in s.elements] if carried else None,
    }


def naive_load(raw: dict) -> NaiveSpace:
    for key in ("elements", "parthood", "order", "join", "meet", "granulation",
                "lower", "upper", "bottom", "top", "flavor"):
        if key not in raw:
            raise SpaceFormatError(f"missing key {key!r}")

    if not isinstance(raw["elements"], list):
        raise SpaceFormatError("elements must be an array")
    elements = []
    carriers = {}
    for i, entry in enumerate(raw["elements"]):
        if not isinstance(entry, dict) or "id" not in entry:
            raise SpaceFormatError(f"elements[{i}] must be an object with an id")
        eid = entry["id"]
        if not isinstance(eid, str):
            raise SpaceFormatError(f"elements[{i}].id must be a string")
        elements.append(eid)
        if "carrier" in entry:
            carrier = entry["carrier"]
            if not (isinstance(carrier, list) and all(isinstance(x, str) for x in carrier)):
                raise SpaceFormatError(f"elements[{i}].carrier must be an array of strings")
            carriers[eid] = frozenset(carrier)

    granulation = raw["granulation"]
    if not (isinstance(granulation, list) and all(isinstance(g, str) for g in granulation)):
        raise SpaceFormatError("granulation must be an array of string ids")

    parthood = _naive_pairs(raw, "parthood")
    order = _naive_pairs(raw, "order")
    join = _naive_table(raw, "join")
    meet = _naive_table(raw, "meet")

    lower, upper = _naive_approximations(raw, elements, carriers, parthood)

    try:
        return NaiveSpace(
            elements=elements, parthood=parthood, order=order, join=join, meet=meet,
            granulation=granulation, lower=lower, upper=upper, bottom=raw["bottom"],
            top=raw["top"], flavor=raw["flavor"], carriers=carriers,
        )
    except StructuralError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpaceFormatError(str(exc)) from exc


def _naive_pairs(raw, key):
    pairs = raw[key]
    if not isinstance(pairs, list):
        raise SpaceFormatError(f"{key} must be an array of pairs")
    out = []
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SpaceFormatError(f"{key}[{i}] must be a two-element array")
        a, b = pair
        if not (isinstance(a, str) and isinstance(b, str)):
            raise SpaceFormatError(f"{key}[{i}] must hold string ids")
        out.append((a, b))
    return out


def _naive_table(raw, key):
    rows = raw[key]
    if not isinstance(rows, list):
        raise SpaceFormatError(f"{key} must be an array of triples")
    out = {}
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 3):
            raise SpaceFormatError(f"{key}[{i}] must be a three-element array")
        a, b, r = row
        if not (isinstance(a, str) and isinstance(b, str) and isinstance(r, str)):
            raise SpaceFormatError(f"{key}[{i}] must hold string ids")
        if out.setdefault((a, b), r) != r:
            raise _naive_conflict(f"{key}[{i}]", f"({a!r},{b!r})", r, out[(a, b)])
    return out


def _naive_conflict(where, shown, value, earlier):
    return SpaceFormatError(f"{where} maps {shown} to {value!r}, but an earlier entry maps it to {earlier!r}")


def _naive_approximations(raw, elements, carriers, parthood):
    maps = {}
    for key in ("lower", "upper"):
        val = raw[key]
        if val == "granular":
            if set(carriers) != set(elements):
                raise SpaceFormatError(f"{key} mode 'granular' needs a carrier on every element")
            for g in raw["granulation"]:  # mended
                if g not in set(elements):
                    raise StructuralError(f"granulation names unknown element {g!r}")
            maps[key] = _naive_derive_granular(raw, key, elements, carriers, parthood)
        else:
            if not isinstance(val, list):
                raise SpaceFormatError(f"{key} must be an array of pairs or 'granular'")
            maps[key] = out = {}
            for i, (x, v) in enumerate(_naive_pairs(raw, key)):
                if out.setdefault(x, v) != v:
                    raise _naive_conflict(f"{key}[{i}]", repr(x), v, out[x])
    return maps["lower"], maps["upper"]


def _naive_derive_granular(raw, key, elements, carriers, parthood):
    pset = set(parthood)
    by_carrier = {c: e for e, c in carriers.items()}
    granules = raw["granulation"]
    out = {}
    for x in elements:
        if key == "lower":
            chosen = [g for g in granules if (g, x) in pset]
        else:
            chosen = [g for g in granules if carriers[g] & carriers[x]]
        union = frozenset().union(*[carriers[g] for g in chosen]) if chosen else frozenset()
        eid = by_carrier.get(union)
        if eid is None:
            raise ClosureError(f"union carrier {render_carrier(union)} is not an element")
        out[x] = eid
    return out


def naive_to_dict(s: NaiveSpace) -> dict:
    idx = {eid: i for i, eid in enumerate(s.elements)}
    by_index = lambda pair: (idx[pair[0]], idx[pair[1]])
    elements = []
    for eid in s.elements:
        entry = {"id": eid}
        if eid in s.carriers:
            entry["carrier"] = sorted(s.carriers[eid])
        elements.append(entry)
    return {
        "elements": elements,
        "parthood": [[a, b] for a, b in sorted(s.parthood, key=by_index)],
        "order": [[a, b] for a, b in sorted(s.order, key=by_index)],
        "join": [[a, b, r] for (a, b), r in sorted(s.join.items(), key=lambda kv: by_index(kv[0]))],
        "meet": [[a, b, r] for (a, b), r in sorted(s.meet.items(), key=lambda kv: by_index(kv[0]))],
        "granulation": list(s.granulation),
        "lower": [[x, s.lower[x]] for x in s.elements],
        "upper": [[x, s.upper[x]] for x in s.elements],
        "bottom": s.bottom,
        "top": s.top,
        "flavor": s.flavor,
    }


SPACE_FIELDS = ("elements", "carriers", "granulation", "bottom", "top", "flavor")


def assert_same_space(s, naive):
    """s, read by the loader, holds what naive holds: every field, the
    document it writes, and every index table."""
    for name in SPACE_FIELDS:
        assert getattr(s, name) == getattr(naive, name), name
    assert space_to_dict(s) == naive_to_dict(naive)
    for name, table in naive_tables(naive).items():
        assert getattr(s, name) == table, name


def outcome(load, doc):
    """(space, None) when load reads doc, else (None, (error class, message))."""
    try:
        return load(doc), None
    except RifForgeError as exc:
        return None, (type(exc), str(exc))


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
    (s, error), (naive, naive_error) = outcome(space_from_dict, doc), outcome(naive_load, doc)
    assert error == naive_error
    if error is None:
        assert_same_space(s, naive)


@pytest.mark.parametrize("base", BASES, ids=["fixture", "powerset"])
def test_unmutated_documents_load_alike(base):
    assert_same_space(space_from_dict(base), naive_load(base))


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
# first cell of a section's first row, and a first row that is not an
# array but unpacks into ids: a string of one-letter ids, or an object
# whose keys are ids.
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
], ids=lambda doc: "")
def test_error_precedence_matches_the_former_loader(doc):
    (s, error), (naive, naive_error) = outcome(space_from_dict, doc), outcome(naive_load, doc)
    assert error == naive_error
    assert error is not None


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=5))
def test_powerset_tables_match_the_former_loader(data, n):
    objects = [f"o{i}" for i in range(n)]
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for obj, label in zip(objects, labels):
        blocks.setdefault(label, []).append(obj)
    s = powerset_space(objects, list(blocks.values()))
    assert_same_space(s, naive_load(space_to_dict(s)))


@pytest.mark.parametrize("key", ["lower", "upper"])
def test_granular_maps_with_a_duplicated_id_fail_as_in_the_naive_loader(key):
    # a duplicated id is reported only after the sections are read, so a
    # "granular" map is derived first: per id, as the naive loader does
    for i, j in ((i, j) for i in range(len(IDS)) for j in range(len(IDS)) if i != j):
        doc = json.loads(json.dumps(FIXTURE))
        doc["elements"][i]["id"] = doc["elements"][j]["id"]
        doc[key] = "granular"
        assert outcome(space_from_dict, doc)[1] == outcome(naive_load, doc)[1], (i, j)
