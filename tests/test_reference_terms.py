"""Term evaluation against the benchmark's independent reference evaluator.

perfbench/reference.py imports nothing from rif_forge: it recomputes every
value from carriers, partition blocks and Fractions.  It is loaded here
from its file, read-only, as a second oracle.  Random wqRIF terms (and the
three concrete functions) on power sets of 2-4 objects must agree with it
at every element pair.
"""

import importlib.util
from pathlib import Path
from random import Random

from hypothesis import given, settings, strategies as st

from rif_forge import default_env, eval_term, parse_term, powerset_space

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
def test_concrete_functions_agree_with_the_reference_at_every_pair(seed):
    model, s = _space(Random(seed))
    for name, f in default_env(s).items():
        assert _disagreements(model, s, f, getattr(model, name)) == []
