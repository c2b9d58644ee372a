"""Term evaluation, documents and axiom witnesses against the benchmark's
independent reference model.

perfbench/reference.py imports nothing from rif_forge: it recomputes every
value from carriers, partition blocks and Fractions, and writes a power
set as a space document of its own.  It is loaded here from its file,
read-only, as a second oracle.  On power sets of 2-4 objects, random wqRIF
terms, oplus at the weights 0 and 1, pow with exponent 3 and the three
concrete functions must agree with it at every element pair; its document
must load as the space powerset_space builds, and save and load back; and
the approximations and the U1, R0, R1 and IR0 witnesses must be those it
recomputes.
"""

import importlib.util
import json
from fractions import Fraction as F
from pathlib import Path
from random import Random

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from rif_forge import (
    check_rif_axiom, default_env, eval_term, load_space, parse_term, powerset_space, save_space,
    space_to_dict,
)
from rif_forge.cli import main

_path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
_spec = importlib.util.spec_from_file_location("rif_forge_reference", _path)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def _space(rng: Random):
    objects = [f"o{i}" for i in range(1, rng.randint(2, 4) + 1)]
    blocks = reference.random_partition(objects, rng)
    model = reference.PowersetModel(objects, blocks)
    s = powerset_space(objects, [list(b) for b in blocks])
    assert set(s.elements) == set(model.by_id)
    return model, s


def _disagreements(model, s, f, value):
    return [
        (a, b, f.values[a, b], value(model.by_id[a], model.by_id[b]))
        for a, b in s.pairs()
        if f.values[a, b] != value(model.by_id[a], model.by_id[b])
    ]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_terms_agree_with_the_reference_at_every_pair(seed):
    rng = Random(seed)
    model, s = _space(rng)
    env = default_env(s)
    for tree in [reference.random_term(rng, depth=rng.randint(1, 3)) for _ in range(3)]:
        f = eval_term(parse_term(reference.render_term(tree)), env, s)
        assert _disagreements(model, s, f, lambda a, b: model.value(tree, a, b)) == []


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_endpoint_weights_and_cubes_agree_with_the_reference_at_every_pair(seed):
    # check_laws proves its pointwise laws from the operators' values, so
    # every draw checks them at the edges random_term reaches only by
    # chance: oplus at weights exactly 0 and 1, and pow with exponent 3
    rng = Random(seed)
    model, s = _space(rng)
    env = default_env(s)
    left, right = (reference.random_term(rng, depth=rng.randint(1, 2)) for _ in range(2))
    trees = [("oplus", F(0), left, right), ("oplus", F(1), left, right), ("pow", left, 3),
             ("oplus", F(0), ("pow", right, 3), left)]
    for tree in trees:
        f = eval_term(parse_term(reference.render_term(tree)), env, s)
        assert _disagreements(model, s, f, lambda a, b: model.value(tree, a, b)) == [], tree


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_concrete_functions_agree_with_the_reference_at_every_pair(seed):
    model, s = _space(Random(seed))
    for name, f in default_env(s).items():
        assert _disagreements(model, s, f, getattr(model, name)) == []


_TABLES = ("elements", "parthood", "order", "join", "meet", "lower", "upper", "objects", "carrier_masks")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_the_reference_document_loads_as_the_power_set(seed):
    model, s = _space(Random(seed))
    loaded = load_space(model.document())
    for key in _TABLES:
        assert getattr(loaded, key) == getattr(s, key), key
    assert loaded.carriers == s.carriers
    assert (loaded.bottom, loaded.top, loaded.flavor) == (s.bottom, s.top, s.flavor)
    # the document lists its blocks in draw order, powerset_space sorts them
    assert set(loaded.granulation) == set(s.granulation)
    assert len(loaded.granulation) == len(s.granulation)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_save_and_load_round_trip_the_reference_document(seed, tmp_path_factory):
    model, _ = _space(Random(seed))
    s = load_space(model.document())
    path = tmp_path_factory.mktemp("saved") / "space.json"
    save_space(s, path)
    assert path.read_text(encoding="utf-8") == json.dumps(space_to_dict(s), indent=2) + "\n"
    assert load_space(path) == s


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_approximate_prints_the_reference_rows(seed, tmp_path_factory):
    model, _ = _space(Random(seed))
    path = tmp_path_factory.mktemp("doc") / "space.json"
    path.write_text(json.dumps(model.document()), encoding="utf-8")
    result = CliRunner().invoke(main, ["approximate", str(path)])
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines() == model.approximation_rows()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_axiom_witnesses_are_the_reference_witnesses(seed):
    rng = Random(seed)
    model, s = _space(rng)
    env = default_env(s)
    # on a power set k0, k1 and k2 are RIFs, so random terms (sharp, kst,
    # ...) bring the witnesses
    trees = [("base", name) for name in env] + [reference.random_term(rng) for _ in range(2)]
    for tree in trees:
        name = reference.render_term(tree)
        f = eval_term(parse_term(name), env, s)
        values = {(a, b): model.value(tree, model.by_id[a], model.by_id[b]) for a, b in s.pairs()}
        want = {
            "U1": reference.u1_witnesses(s.elements, values),
            "R0": reference.r0_witnesses(s.elements, values, model.part),
            "R1": reference.r1_witnesses(s.elements, values, model.part),
            "IR0": reference.ir0_witnesses(s.elements, values, model.part),
        }
        for axiom, witnesses in want.items():
            assert list(check_rif_axiom(f, axiom).witnesses) == witnesses, (name, axiom)
