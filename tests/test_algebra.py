from collections import defaultdict
from dataclasses import astuple
from fractions import Fraction, Fraction as F
from itertools import product
from math import gcd
from types import MappingProxyType
from random import Random

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import reference_model as model
import rif_forge
from reference_model import outcome
from rif_forge import inclusion
from rif_forge import (
    GranularSpace,
    InclusionFunction,
    InputError,
    LAW_ORDER,
    ParameterError,
    SizeError,
    check_laws,
    check_rif_axiom,
    classify,
    classify_flavor,
    convex_polynomial,
    default_env,
    eval_term,
    fit_alpha,
    flat,
    k0,
    k1,
    k2,
    kst,
    leq,
    oplus,
    otimes,
    power,
    powerset_space,
    random_partition,
    random_thresholds,
    random_unit_rational,
    random_wqrif_term,
    random_kappa,
    random_set_hgos,
    rif_failure_search,
    satisfies_class,
    save_space,
    sharp,
    sigma,
    space_from_dict,
    space_to_dict,
    top_function,
)
from rif_forge.algebra import _check_alpha, _law
from rif_forge.cli import main
from rif_forge.inclusion import ONE
from rif_forge.terms import AlphaSumTerm, BaseTerm, KstTerm, PowerTerm
from test_inclusion import form, modelled, powerset_pair
from test_space import _lattice_document, documents_of_every_flavor

SINGLE_ELEMENT = {
    "flavor": "HGOS",
    "elements": [{"id": "z"}],
    "bottom": "z",
    "top": "z",
    "granulation": ["z"],
    "parthood": [["z", "z"]],
    "order": [["z", "z"]],
    "join": [["z", "z", "z"]],
    "meet": [["z", "z", "z"]],
    "lower": [["z", "z"]],
    "upper": [["z", "z"]],
}


class TestPointwiseOperations:
    def test_otimes_oracle(self, fixture_space):
        prod = otimes(k0(fixture_space), k1(fixture_space))
        assert prod("ab", "bc") == F(1, 3)  # 1/2 * 2/3

    def test_otimes_identity(self, fixture_space):
        f = k0(fixture_space)
        assert otimes(f, top_function(fixture_space)).pointwise_equal(f)

    def test_otimes_commutes(self, fixture_space):
        f, h = k0(fixture_space), k2(fixture_space)
        assert otimes(f, h).pointwise_equal(otimes(h, f))

    def test_oplus_oracle(self, fixture_space):
        mix = oplus(F(1, 3), k0(fixture_space), k2(fixture_space))
        assert mix("ab", "bc") == F(2, 3)  # 1/3 * 1/2 + 2/3 * 3/4

    def test_oplus_idempotent(self, fixture_space):
        f = k1(fixture_space)
        assert oplus(F(2, 5), f, f).pointwise_equal(f)

    def test_oplus_degenerate_weights(self, fixture_space):
        f, h = k0(fixture_space), k1(fixture_space)
        assert oplus(F(1), f, h).pointwise_equal(f)
        assert oplus(F(0), f, h).pointwise_equal(h)

    def test_oplus_alpha_out_of_range(self, fixture_space):
        f = k0(fixture_space)
        with pytest.raises(ParameterError):
            oplus(F(3, 2), f, f)
        with pytest.raises(ParameterError):
            oplus(F(-1, 2), f, f)

    def test_power_oracle(self, fixture_space):
        sq = power(k0(fixture_space), 2)
        assert sq("ab", "bc") == F(1, 4)
        with pytest.raises(ParameterError):
            power(k0(fixture_space), 0)

    def test_mixed_spaces_rejected(self, fixture_space, two_block_space):
        with pytest.raises(InputError):
            otimes(k0(fixture_space), k0(two_block_space))
        with pytest.raises(InputError):
            oplus(F(1, 2), k0(fixture_space), k0(two_block_space))


class TestApproximationOperators:
    def test_sharp_oracle(self, fixture_space):
        f = sharp(k0(fixture_space))
        assert f("ab", "bc") == 0  # k0 of the two lower approximations

    def test_flat_oracle(self, fixture_space):
        f = flat(k0(fixture_space))
        assert f("ab", "e") == F(1, 2)
        assert f("ab", "bc") == F(3, 4)

    def test_sigma_oracle(self, fixture_space):
        f = sigma(k0(fixture_space))
        assert f("ab", "bc") == 0  # only granule inside {a,b} is {a}
        assert f("be", "bc") == F(1, 2)

    def test_sigma_defaults_to_one_without_granule_parts(self, fixture_space):
        f = sigma(k0(fixture_space))
        assert f("bot", "bc") == 1

    def test_mix_of_sharp_and_flat(self, fixture_space):
        f = k0(fixture_space)
        blend = oplus(F(1, 2), sharp(f), flat(f))
        assert blend("ab", "bc") == F(3, 8)


class TestOrdering:
    def test_top_dominates(self, fixture_space):
        t = top_function(fixture_space)
        for build in (k0, k1, k2):
            f = build(fixture_space)
            assert leq(f, t)
            assert leq(f, f)

    def test_equal_functions_compare_both_ways(self, singleton_space):
        # on identity approximations the ramp fixes every attained value
        f = k0(singleton_space)
        g = kst(f, F(1, 4), F(3, 4))
        assert f.pointwise_equal(g)
        assert leq(f, g) and leq(g, f)

    def test_concrete_functions_form_a_chain(self, two_block_space):
        assert leq(k0(two_block_space), k1(two_block_space))
        assert leq(k1(two_block_space), k2(two_block_space))

    def test_incomparable_pair(self, two_block_space):
        # the ramp crushes small values below k1 and lifts large ones above
        f = kst(k0(two_block_space), F(1, 4), F(1, 2))
        h = k1(two_block_space)
        assert not leq(f, h)
        assert not leq(h, f)

    def test_mixed_spaces_rejected(self, fixture_space, two_block_space):
        with pytest.raises(InputError):
            leq(k0(fixture_space), k0(two_block_space))


class TestLawChecks:
    def test_fixture_triple_satisfies_every_law(self, fixture_space):
        fns = [k0(fixture_space), k1(fixture_space), k2(fixture_space)]
        reports = check_laws(fixture_space, fns, [F(0), F(1, 3), F(1, 2), F(1)])
        assert tuple(r.law for r in reports) == LAW_ORDER
        for r in reports:
            assert r.holds, (r.law, r.witnesses[:3])

    def test_wqrif_terms_satisfy_every_law(self, two_block_space):
        base = k0(two_block_space)
        fns = [kst(base, F(1, 4), F(3, 4)), sharp(base), sigma(base)]
        for r in check_laws(two_block_space, fns, [F(1, 3)]):
            assert r.holds, (r.law, r.witnesses[:3])

    def test_single_element_space_degenerates_cleanly(self):
        s = space_from_dict(SINGLE_ELEMENT)
        reports = check_laws(s, [top_function(s)], [])
        assert all(r.holds for r in reports)

    def test_alpha_validation(self, fixture_space):
        with pytest.raises(ParameterError):
            check_laws(fixture_space, [k0(fixture_space)], [F(2)])

    def test_same_label_functions_keep_their_own_images(self):
        # two random kappas are both labelled "kappa"; each must be
        # compared with its own sharp image, not with the other's
        rng = Random(2)
        s = random_set_hgos(rng)
        f, g = random_kappa(s, rng), random_kappa(s, rng)

        def sharp_comp(fns):
            return {r.law: r for r in check_laws(s, fns, [])}["WeakSharpComp"].witnesses

        assert sharp_comp([f, g]) == sharp_comp([f]) + sharp_comp([g])

    def test_foreign_function_rejected(self, fixture_space, two_block_space):
        with pytest.raises(InputError):
            check_laws(fixture_space, [k0(two_block_space)], [])


class TestConvexPolynomial:
    def test_oracle(self, fixture_space):
        f = k0(fixture_space)
        p = convex_polynomial([F(1, 2), F(1, 2)], [2, 1], [f, f])
        assert p("ab", "bc") == F(3, 8)  # (1/4 + 1/2) / 2

    def test_identity_polynomial(self, fixture_space):
        f = k1(fixture_space)
        assert convex_polynomial([F(1)], [1], [f]).pointwise_equal(f)

    def test_polynomials_stay_weak_quasi(self, fixture_space):
        f, h = k0(fixture_space), k2(fixture_space)
        p = convex_polynomial([F(1, 3), F(2, 3)], [2, 3], [f, h])
        assert satisfies_class(p, "wqRIF")

    def test_weights_must_sum_to_one(self, fixture_space):
        f = k0(fixture_space)
        with pytest.raises(ParameterError):
            convex_polynomial([F(1, 2), F(1, 4)], [1, 2], [f, f])

    def test_length_mismatch(self, fixture_space):
        f = k0(fixture_space)
        with pytest.raises(InputError):
            convex_polynomial([F(1)], [1, 2], [f])


class TestFailureSearch:
    def test_sharp_escape_found_on_two_block_space(self, two_block_space):
        result = rif_failure_search(two_block_space, budget=50)
        assert result.sharp_witness is not None
        label, pairs = result.sharp_witness
        assert pairs  # re-verified falsifying pairs ship with the witness
        assert "sharp" in label

    def test_convex_escape_never_appears(self, two_block_space):
        result = rif_failure_search(two_block_space, budget=60)
        assert result.oplus_witness is None
        assert result.trials == 60
        assert result.otimes_counterexample is None
        assert result.otimes_checked > 0
        assert len(result.rif_pool) >= 3

    def test_deterministic(self, two_block_space):
        assert rif_failure_search(two_block_space, budget=25) == rif_failure_search(two_block_space, budget=25)

    def test_requires_set_based_space(self, fixture_space):
        with pytest.raises(InputError):
            rif_failure_search(fixture_space, budget=5)

    def test_budget_validation(self, two_block_space):
        with pytest.raises(ParameterError):
            rif_failure_search(two_block_space, budget=0)

    def test_refuses_a_carried_hgos_space_where_parthood_is_not_inclusion(self, two_block_space, tmp_path):
        # the power set with parthood and order reversed and join and meet
        # swapped loads as HGOS, carriers and all, but the base functions
        # are RIFs only where parthood is inclusion: here none of them is
        d = space_to_dict(two_block_space)
        d["parthood"] = [[b, a] for a, b in d["parthood"]]
        d["order"] = [[b, a] for a, b in d["order"]]
        d["join"], d["meet"] = d["meet"], d["join"]
        d["flavor"] = "HGOS"
        s = space_from_dict(d)
        assert classify_flavor(s) == "HGOS"
        assert [classify(build(s)) for build in (k0, k1, k2)] == ["none"] * 3
        message = "closure search expects a set-based hemiring space"
        with pytest.raises(InputError, match=f"^{message}$"):
            rif_failure_search(s, budget=5)
        path = tmp_path / "reversed.json"
        save_space(s, path)
        result = CliRunner().invoke(main, ["rif-failure-search", str(path)])
        assert result.exit_code == 2, result.output
        assert result.stderr.splitlines() == [f"error: {message}"] and result.stdout == ""

    def test_a_billion_trials_are_reported_from_the_proof(self, two_block_space):
        # no trial runs, so a budget of a billion costs nothing
        result = rif_failure_search(two_block_space, budget=10**9)
        assert result.trials == 10**9
        assert result.oplus_witness is None

    def test_work_estimate_counts_the_functions_built(self, two_block_space, monkeypatch):
        # 3 base functions, 6 products and 9 sharp images of 64 values each,
        # on top of the 64-entry tables, whatever the budget
        monkeypatch.setattr("rif_forge.space.WORK_BUDGET", 64 * 19 - 1)
        with pytest.raises(SizeError, match=r"^estimated work 1,216 exceeds .* \(8 elements, 18 functions\)$"):
            rif_failure_search(two_block_space, budget=1)
        monkeypatch.setattr("rif_forge.space.WORK_BUDGET", 64 * 19)
        assert rif_failure_search(two_block_space, budget=10**9).trials == 10**9

    def test_sharp_witness_actually_breaks_exactness(self, two_block_space):
        result = rif_failure_search(two_block_space, budget=5)
        assert result.sharp_witness is not None
        # independent confirmation: the sharpened base function leaves RIF
        assert classify(sharp(k0(two_block_space))) != "RIF"


def declared_document(doc: dict, rng: Random) -> dict:
    """doc with lower and upper maps that send each element to a random
    element, so that sharp and flat read non-classical images."""
    ids = [e["id"] for e in doc["elements"]]
    return doc | {key: [[x, rng.choice(ids)] for x in ids] for key in ("lower", "upper")}


def drawn_powerset(rng: Random, min_objects: int = 2) -> tuple[list[str], list[list[str]]]:
    """The objects and blocks random_set_hgos(rng, min_objects) draws."""
    objects = [f"o{i}" for i in range(1, rng.randint(min_objects, 4) + 1)]
    return objects, random_partition(objects, rng)


@pytest.mark.parametrize("objects", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed, budget", [(0, 1), (1, 20), (7, 50)])
def test_search_classifies_each_product_once_with_the_same_result(objects, seed, budget, monkeypatch):
    """rif_failure_search, which asks no verdict, against reference_model.rif_failure_search, which classifies."""
    # The search reads no verdict: k0, k1 and k2 are RIFs by the theorem in
    # inclusion._from_carriers, and their products and blends by the
    # search's proof.  The model classifies every product and checks budget
    # blends drawn from seed, on the power set and on its document with
    # random lower and upper maps.
    names = [f"o{i}" for i in range(objects)]
    rng = Random(seed)
    blocks = random_partition(names, rng)
    doc = model.powerset_document(names, blocks)
    declared = declared_document(doc, rng)
    verdict, verdicts = inclusion._verdict, []
    monkeypatch.setattr(inclusion, "_verdict", lambda *args: verdicts.append(args) or verdict(*args))
    for s, d in ((powerset_space(names, blocks), doc), (space_from_dict(declared), declared)):
        assert astuple(rif_failure_search(s, budget)) == model.rif_failure_search(model.Space(d), budget, seed)
    assert verdicts == []


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_base_functions_are_rifs_on_set_lattices_that_are_not_power_sets(data):
    # The theorem the search rests on, where parthood is carrier inclusion
    # but the elements are any family of sets closed under union and
    # intersection: k0, k1 and k2 are the model's and RIFs by its scan, and
    # the search equals the model's.  Where k2 is refused, both refuse alike.
    doc = _lattice_document(data.draw)
    s, m = space_from_dict(doc), model.Space(doc)
    assert classify_flavor(s) == m.flavor() == "setHGOS"
    for build, built in ((k0, model.k0), (k1, model.k1), (k2, model.k2)):
        assert outcome(build, s, read=form) == outcome(built, m, read=model.Function.form), build.__name__
    result = outcome(rif_failure_search, s, 3, read=astuple)
    assert result == outcome(model.rif_failure_search, m, 3)
    # the model's pool starts with the base functions its scan classifies as RIFs
    assert result[0] == "raised" or result[0][:3] == ("k0", "k1", "k2")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_blends_of_rifs_keep_r1_and_r2(seed):
    # For a weight strictly inside (0,1) a blend is 1 exactly where both
    # operands are 1, and at weight 0 or 1 it is one of the operands, so
    # the exact-1 characterization (R1) and R2 survive blending.
    # Products of RIFs are RIFs by the same kind of argument, and k0, k1
    # and k2 are RIFs on every set space, so the search's pool is exactly
    # the base functions and their products.
    rng = Random(seed)
    s = random_set_hgos(rng)
    base = [k0(s), k1(s), k2(s)]
    assert [classify(f) for f in base] == ["RIF"] * 3, seed
    products = [otimes(f, g) for i, f in enumerate(base) for g in base[i:]]
    pool = [f for f in base + products if classify(f) == "RIF"]
    assert pool
    alpha = random_unit_rational(rng)
    for f in pool:
        for g in pool:
            assert classify(otimes(f, g)) == "RIF", (seed, f.label, g.label)
            for weight in (alpha, F(0), F(1)):
                blend = oplus(weight, f, g)
                for axiom in ("R1", "R2"):
                    assert check_rif_axiom(blend, axiom).holds, (seed, blend.label, axiom)


class TestFitAlpha:
    @pytest.mark.parametrize("alpha", [F(0), F(1, 3), F(1, 2), F(1)])
    def test_recovers_exact_mixture(self, fixture_space, alpha):
        f, h = k0(fixture_space), k2(fixture_space)
        mixed = oplus(alpha, f, h)
        samples = [((a, b), mixed(a, b)) for a, b in fixture_space.pairs()]
        assert fit_alpha(f, h, samples) == alpha

    def test_identical_functions_give_midpoint(self, fixture_space):
        f = k0(fixture_space)
        samples = [(("ab", "bc"), F(1, 2))]
        assert fit_alpha(f, f, samples) == F(1, 2)

    def test_clamps_below(self, fixture_space):
        f, h = sharp(k0(fixture_space)), k0(fixture_space)
        assert fit_alpha(f, h, [(("ab", "bc"), F(1))]) == 0

    def test_clamps_above(self, fixture_space):
        f, h = k0(fixture_space), top_function(fixture_space)
        assert fit_alpha(f, h, [(("ab", "bc"), F(3, 16))]) == 1

    def test_empty_samples_rejected(self, fixture_space):
        with pytest.raises(InputError):
            fit_alpha(k0(fixture_space), k1(fixture_space), [])

    def test_targets_outside_unit_interval_rejected(self, fixture_space):
        with pytest.raises(InputError):
            fit_alpha(
                k0(fixture_space), k1(fixture_space), [(("ab", "bc"), F(5, 4))]
            )


# -- check_laws against the model's scan of every law -------------------------


def _law_case(space: str, functions: str, seed: int, data=None):
    """A space, its model, functions and weights for one law comparison.
    The space is a power set of 1-4 objects (the laws-wqrif workload's
    shape), such a power set with random lower and upper maps (where a
    granule part of b need not be part of lower(b), as it is on the
    others), the one-element HGOS space or any document of
    documents_of_every_flavor (the fixture, chains, GGS documents with
    partial join and meet, set lattices).  The functions are wqRIF terms
    (on power sets), random kappas, most of them not RIFs, which break
    WeakSharpComp, WeakFlatComp and R0Plus, or k0 lowered below 1 at
    (g, lower(g)) for a granule g with no other granule part, beside k0
    and wqRIF terms: it fails R0Plus exactly at the elements whose granule
    parts are g alone.  Operands are often passed more than once, and the
    weights often include 0 and 1."""
    rng, power_set = Random(seed), space in ("powerset", "declared")
    if power_set:
        objects, blocks = drawn_powerset(rng, min_objects=1)
        s, doc = powerset_space(objects, blocks), model.powerset_document(objects, blocks)
    if space != "powerset":
        doc = (declared_document(doc, rng) if power_set else SINGLE_ELEMENT if space == "single"
               else data.draw(documents_of_every_flavor()))
        s = space_from_dict(doc)
    if functions == "kappa" or not power_set:
        fns = [random_kappa(s, rng) for _ in range(rng.randint(1, 3))]
        fns.append(k0(s) if s.is_set_extensional else top_function(s))
    else:
        env = default_env(s)
        fns = [eval_term(random_wqrif_term(rng), env, s) for _ in range(rng.randint(1, 3))]
    if functions == "lowered" and power_set:
        g = rng.choice([g for g in s.granulation if [h for h in s.granulation if s.part(h, g)] == [g]])
        values = dict(env["k0"].values)
        values[(g, s.lower_of(g))] = F(rng.randint(0, 11), 12)
        fns = [fns[0], env["k0"], InclusionFunction(s, values, "lowered")]
        rng.shuffle(fns)
    for _ in range(rng.randint(0, 2)):
        fns.insert(rng.randint(0, len(fns)), rng.choice(fns))
    alphas = [random_unit_rational(rng) for _ in range(rng.randint(0, 2))]
    alphas += rng.sample([F(0), F(1)], rng.randint(0, 2))
    rng.shuffle(alphas)
    return s, model.Space(doc), fns, alphas


def same_laws(s, m, fns, alphas) -> list[tuple]:
    """check_laws's reports, witnesses in order, which must be the model's."""
    got = [(r.law, r.witnesses) for r in check_laws(s, fns, alphas)]
    assert got == model.check_laws(m, [modelled(f, m) for f in fns], alphas)
    return got


@settings(max_examples=100, deadline=None)
@given(space=st.sampled_from(["powerset", "single", "declared", "document"]),
       functions=st.sampled_from(["wqrif", "kappa", "lowered"]), seed=st.integers(0, 10_000), data=st.data())
def test_law_reports_match_pairwise_loop(space, functions, seed, data):
    same_laws(*_law_case(space, functions, seed, data))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), objects=st.integers(0, 5), count=st.integers(4, 6),
       weights=st.integers(1, 3))
def test_coinciding_and_repeated_operands_keep_law_reports(fixture_space, fixture_model, seed, objects, count,
                                                           weights):
    # Operands whose values coincide or repeat: one function passed twice,
    # top (1 everywhere), and pow(k0, 2), whose values are ordered as k0's
    # but differ from them.  The fixture stands for 0 objects; on 5 objects
    # the model's scan is held to 4 functions and 1 weight.
    rng = Random(seed)
    if objects == 5:
        count, weights = 4, 1
    names = [f"o{i}" for i in range(objects)]
    s, m = powerset_pair(names, random_partition(names, rng)) if objects else (fixture_space, fixture_model)
    env = default_env(s)
    base = env["k0"]
    fns = [base, top_function(s), base, power(base, 2)]
    fns += [env["k1"], env["k2"], random_kappa(s, rng), eval_term(random_wqrif_term(rng), env, s)][:count - 4]
    rng.shuffle(fns)
    # squares of nonnegative numerators order as the numerators do
    assert power(base, 2).nums == [x * x for x in base.nums]
    same_laws(s, m, fns, [random_unit_rational(rng) for _ in range(weights)])


def test_oracle_cases_include_failing_laws():
    failing = set()
    for seed in range(20):
        s, _, fns, alphas = _law_case("powerset", "kappa", seed)
        failing |= {r.law for r in check_laws(s, fns, alphas) if not r.holds}
    assert {"WeakSharpComp", "WeakFlatComp", "R0Plus"} <= failing


@pytest.mark.parametrize("value", [F(0), F(1, 2), F(2, 3), F(11, 12), F(1)])
def test_law_reports_on_constant_functions_match_pairwise_loop(two_block_space, two_block_model, value):
    # constants below 1 falsify R0Plus at every parthood pair whose first
    # element has a granule part, whatever their distance from 1
    s = two_block_space
    fns = [InclusionFunction(s, {p: value for p in s.pairs()}, "c"), k0(s)]
    got = same_laws(s, two_block_model, fns, [F(0), F(1, 3), F(1)])
    assert (("R0Plus", ()) in got) == (value == 1)


_units = st.fractions(0, 1, max_denominator=24)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_units, min_size=4, max_size=4), alpha=_units)
def test_pointwise_laws_hold_on_the_unit_interval(values, alpha):
    # The paper's ordered-hemiring claim stated on values: products and
    # blends of numbers in [0,1] satisfy the eight pointwise laws.
    x, y, z, w = values
    beta = 1 - alpha
    assert x * y == y * x
    assert x * (y * z) == (x * y) * z
    assert x * ONE == x
    assert alpha * x + beta * x == x
    assert x * (alpha * y + beta * z) == alpha * (x * y) + beta * (x * z)
    lo, hi = sorted((x, y))
    lo2, hi2 = sorted((z, w))
    assert lo * lo2 <= hi * hi2
    assert alpha * lo + beta * lo2 <= alpha * hi + beta * hi2
    assert x <= ONE


# -- operators, constructions and the constructor against the model ----------


class Two(tuple):
    """An argument that differs between the sides: (the package's, the model's)."""


def seen(f: InclusionFunction) -> tuple:
    """What a function shows: its form, its values in pair order, whether
    each value is a Fraction and each row inside [0,1], its image and its
    largest value below 1."""
    sound = all(type(v) is Fraction for v in f.values.values()) and 0 <= min(f.nums) and max(f.nums) <= f.den
    return (*form(f), list(f.values.items()), sound, f.image(), f.image_gap())


def model_seen(g: model.Function) -> tuple:
    nums, den = g.row
    below = [x for x in nums if x < den]
    return (*g.form(), list(g.values.items()), True, tuple(Fraction(x, den) for x in sorted(set(nums))),
            Fraction(max(below), den) if below else None)


def agree(name: str, *args) -> None:
    """The package's and the model's callable name show the same function,
    value or refusal on args, where a Two gives each side its own argument
    and a list of Twos a list."""
    def side(k: int, module, read):
        def pick(a):
            return a[k] if isinstance(a, Two) else [pick(x) for x in a] if isinstance(a, list) else a
        return outcome(getattr(module, name), *map(pick, args), read=read)

    got = side(0, rif_forge, lambda v: seen(v) if isinstance(v, InclusionFunction) else v)
    assert got == side(1, model, lambda v: model_seen(v) if isinstance(v, model.Function) else v), name


def typed(value) -> tuple:
    return type(value), value, str(value)


def accepted(value) -> bool:
    """outcome's reading of a call that returned: only that it did."""
    return True


def operator_calls(rng: Random, f: Two, g: Two) -> tuple[Fraction, list[tuple]]:
    """A weight drawn from rng, and every operator on f and g, each operand
    also passed twice: the weight is 0, 1, random or 999999999/10**9, kst's
    t is often 1, and one polynomial has a zero coefficient."""
    alpha = rng.choice([F(0), F(1), random_unit_rational(rng), F(10**9 - 1, 10**9)])
    low, high = random_thresholds(rng)
    if rng.random() < 0.3:
        high = ONE
    n = rng.randint(1, 4)
    return alpha, [("otimes", f, g), ("otimes", f, f), ("oplus", alpha, f, g), ("oplus", alpha, f, f),
                   ("sharp", f), ("flat", f), ("sigma", f), ("power", f, n), ("kst", f, low, high),
                   ("convex_polynomial", [alpha, 1 - alpha], [n, 1], [f, g]),
                   ("convex_polynomial", [F(0), alpha, 1 - alpha], [1, n, 2], [f, f, g])]


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["powerset", "fixture"]), seed=st.integers(0, 10_000))
def test_integer_row_operators_match_fraction_operators(fixture_space, fixture_model, kind, seed):
    # Every construction and operator (operator_calls) shows the model's
    # function, or the same refusal, on the base functions, random kappas
    # with denominators up to 12, 2 and 10**12 (whose lcm runs to hundreds
    # of digits), a blend and wqRIF terms.
    rng = Random(seed)
    s, m = (fixture_space, fixture_model) if kind == "fixture" else powerset_pair(*drawn_powerset(rng))
    env = default_env(s)
    fns = [env["k0"], env["k1"], env["k2"], random_kappa(s, rng), random_kappa(s, rng, 2),
           random_kappa(s, rng, 10**12)]
    fns += [oplus(random_unit_rational(rng), fns[3], fns[5])]
    fns += [eval_term(random_wqrif_term(rng), env, s) for _ in range(2)]
    operands = [Two((f, modelled(f, m))) for f in fns]
    f, g = rng.choice(operands), rng.choice(operands)
    alpha, calls = operator_calls(rng, f, g)
    for name, *args in [(name, Two((s, m))) for name in ("k0", "k1", "k2", "top_function")] + calls:
        agree(name, *args)
    for h in operands:
        agree("leq", f, h)
        assert f[0].pointwise_equal(h[0]) == (f[1].values == h[1].values)
    # results that equal their operands, reached by another route
    for got, want in ((oplus(alpha, f[0], f[0]), f[0]), (otimes(f[0], g[0]), otimes(g[0], f[0]))):
        assert got.pointwise_equal(want) and want.pointwise_equal(got)


def _drawn_fraction(rng: Random, low: int, high: int) -> Fraction:
    den = rng.randint(1, 30)
    return Fraction(rng.randint(low * den, high * den), den)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_constructor_round_trips_any_valid_mapping(seed):
    rng = Random(seed)
    s = random_set_hgos(rng)
    values = {p: _drawn_fraction(rng, 0, 1) for p in s.pairs()}
    f = InclusionFunction(s, dict(reversed(list(values.items()))), "drawn")
    assert list(f.values.items()) == list(values.items())
    assert gcd(f.den, *f.nums) == 1
    assert [f(a, b) for a, b in s.pairs()] == list(values.values())


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), spread=st.sampled_from([0, 1]))
def test_out_of_range_mappings_raise_the_former_message(seed, spread):
    # the first value outside [0,1] in pair order is named as the former
    # constructor named it; plain ints are converted as Fractions are
    rng = Random(seed)
    s, m = powerset_pair(*drawn_powerset(rng))
    values = {p: _drawn_fraction(rng, -spread, 1 + spread) for p in s.pairs()}
    values[rng.choice(list(s.pairs()))] = rng.choice([0, 1, 2, -1])
    bad = [(p, F(v)) for p, v in values.items() if not 0 <= v <= 1]
    want = form(InclusionFunction(s, values, "drawn")) if not bad else (
        "raised", "InputError", f"value {bad[0][1]} at ({bad[0][0][0]!r},{bad[0][0][1]!r}) is outside [0,1]")
    assert outcome(InclusionFunction, s, values, "drawn", read=form) == want
    assert outcome(model.table, m, values, "drawn", read=model.Function.form) == want


def test_missing_pair_and_bad_kst_thresholds_keep_their_errors(fixture_space, fixture_model):
    values = dict(k0(fixture_space).values)
    del values[("ab", "bc")]
    missing = ("raised", "InputError", "value missing for pair ('ab','bc')")
    assert outcome(InclusionFunction, fixture_space, values, "partial") == missing
    assert outcome(model.table, fixture_model, values, "partial") == missing
    f = Two((k0(fixture_space), model.k0(fixture_model)))
    for low, high in ((F(1, 2), F(1, 2)), (F(-1, 4), F(1, 2)), (F(1, 4), F(3, 2))):
        agree("kst", f, low, high)


class SubFraction(Fraction):
    """A Fraction subclass: the constructor reads it as the value it holds."""


# Each form a value may take in a mapping, and which values it can hold
# exactly: ints and bools hold integers, floats dyadic rationals.
VALUE_FORMS = {
    "fraction": (lambda v: v, lambda v: True),
    "subclass": (SubFraction, lambda v: True),
    "string": (lambda v: f"{v.numerator}/{v.denominator}", lambda v: True),
    "int": (int, lambda v: v.denominator == 1),
    "bool": (bool, lambda v: v in (0, 1)),
    "float": (float, lambda v: v.denominator & (v.denominator - 1) == 0),
}
OUT_OF_RANGE = [F(-1), F(-1, 2), F(-1, 3), F(4, 3), F(3, 2), F(2)]


@st.composite
def value_mappings(draw, s: GranularSpace):
    """A value mapping for s, in pair order, in a mix of forms, with up to
    three pairs missing and up to three values outside [0,1].  The forms
    and counts are drawn; each pair's value comes from a drawn seed."""
    forms = sorted(draw(st.sets(st.sampled_from(sorted(VALUE_FORMS)), min_size=1), label="forms"))
    rng, pairs = Random(draw(st.integers(0, 10_000), label="seed")), list(s.pairs())

    def written(v: Fraction):
        fit = [name for name in forms if VALUE_FORMS[name][1](v)] or ["fraction"]
        return VALUE_FORMS[rng.choice(fit)][0](v)

    values = {p: written(rng.choice([F(0), F(1), F(1, 2), F(1, 4), random_unit_rational(rng)])) for p in pairs}
    counts = st.one_of(st.just(0), st.integers(1, 3))
    for p in rng.sample(pairs, min(draw(counts, label="out of range"), len(pairs))):
        values[p] = written(rng.choice(OUT_OF_RANGE))
    for p in rng.sample(pairs, min(draw(counts, label="missing"), len(pairs))):
        del values[p]
    return values


class OnlyGetitem:
    """A table with __getitem__ and nothing else: no keys, no len."""

    def __init__(self, values: dict):
        self._values = values

    def __getitem__(self, pair):
        return self._values[pair]


def _shuffled(values: dict, rng: Random) -> dict:
    items = list(values.items())
    rng.shuffle(items)
    return dict(items)


def _with_extra_keys(values: dict, rng: Random) -> dict:
    # extra keys before, among and after the pairs, of every kind
    out = {("ghost", "ab"): F(1, 2)} if rng.random() < 0.5 else {}
    out.update(values)
    out[rng.choice(["x", ("ab",), ("a", "b", "c"), ("ghost", "ghost")])] = F(3)
    return out


def _defaultdict(values: dict, rng: Random) -> defaultdict:
    # a missing pair would read the default, so the table reads as complete
    return defaultdict(lambda: F(1, 3), values)


TABLE_FORMS = {
    "pair order": lambda values, rng: values,
    "shuffled": _shuffled,
    "extra keys": _with_extra_keys,
    "defaultdict": _defaultdict,
    "defaultdict, shuffled": lambda values, rng: _defaultdict(_shuffled(values, rng), rng),
    "read-only": lambda values, rng: MappingProxyType(values),
    "read-only, shuffled": lambda values, rng: MappingProxyType(_shuffled(values, rng)),
    "getitem only": lambda values, rng: OnlyGetitem(values),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10_000), shape=st.sampled_from(sorted(TABLE_FORMS)))
def test_constructor_matches_the_former_one_on_any_mapping(data, seed, shape, fixture_space, fixture_model):
    # the model's table reads a mapping as the former constructor did: every
    # table and value form, with pairs missing and values outside [0,1]; a
    # mapping whose keys run in pair order is read by its values, any other
    # table by key
    s, m = fixture_space, fixture_model
    if data.draw(st.booleans(), label="power set"):
        s, m = powerset_pair(*drawn_powerset(Random(seed)))
    values = data.draw(value_mappings(s), label="values")
    got = outcome(InclusionFunction, s, TABLE_FORMS[shape](values, Random(seed)), "drawn", read=form)
    assert got == outcome(model.table, m, TABLE_FORMS[shape](values, Random(seed)), "drawn", read=model.Function.form)


def test_fraction_slots_hold_the_public_parts():
    # the constructor reads these slots; a Python that renames them fails here
    for v in (F(6, -4), F(-6, 4), F(0), F(7), F(10**30 + 1, 3 * 10**29)):
        assert (v._numerator, v._denominator) == (v.numerator, v.denominator)
    assert (F(6, -4)._numerator, F(6, -4)._denominator) == (-3, 2)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["powerset", "fixture"]), seed=st.integers(0, 10_000))
def test_operator_path_matches_the_former_store(fixture_space, fixture_model, kind, seed):
    # The former store reduced every result by the full gcd and checked its
    # range; each build, random kappas of a seed included, still shows the
    # model's function (whose rows are in lowest terms) with rows in [0,1].
    rng = Random(seed)
    s, m = (fixture_space, fixture_model) if kind == "fixture" else powerset_pair(*drawn_powerset(rng))
    fns = [random_kappa(s, rng), random_kappa(s, rng, 2), random_kappa(s, rng, 10**12), k0(s), k2(s)]
    fns.append(oplus(random_unit_rational(rng), fns[0], fns[2]))
    f, g = (Two((h, modelled(h, m))) for h in (rng.choice(fns), rng.choice(fns)))
    space, kappa_seed = Two((s, m)), rng.randrange(10**6)
    seeded = Two((Random(kappa_seed), Random(kappa_seed)))
    for name, *args in [("k0", space), ("k1", space), ("k2", space), ("top_function", space),
                        ("random_kappa", space, seeded), ("random_kappa", space, seeded, 10**12),
                        *operator_calls(rng, f, g)[1]]:
        agree(name, *args)


def test_k2_refuses_a_carrier_outside_top_naming_it(fixture_space):
    doc = space_to_dict(fixture_space)
    for e in doc["elements"]:
        if e["id"] == doc["top"]:
            e["carrier"] = ["a", "b", "c"]
    s = space_from_dict(doc)
    # the first element in element order whose carrier leaves top's, before any value is built
    with pytest.raises(InputError) as got:
        k2(s)
    assert str(got.value) == "k2 needs every carrier inside the top carrier {a,b,c}; 'e' has {e}"


@pytest.mark.parametrize("weight", [F(0), F(1)])
def test_oplus_at_an_end_weight_is_an_operand_as_the_former_store_built_it(weight):
    """oplus at weight 0 or 1 against reference_model.oplus, and its rows those of the operand."""
    # at weight 1 or 0 the blend is f, resp. g, with its canonical rows
    rng = Random(7)
    for objects, blocks in (drawn_powerset(rng), (["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])):
        s, m = powerset_pair(objects, blocks)
        fns = [k0(s), k2(s), random_kappa(s, rng), random_kappa(s, rng, 10**12)]
        for f, g in product(fns, repeat=2):  # the pairs of equal operands included
            agree("oplus", weight, Two((f, modelled(f, m))), Two((g, modelled(g, m))))
            h, operand = oplus(weight, f, g), f if weight else g
            assert (h.nums, h.den) == (operand.nums, operand.den)


def test_check_laws_returns_the_proved_reports_per_call(two_block_space):
    s = two_block_space
    reports = check_laws(s, [k0(s), k1(s)], [F(1, 3), F(1, 2)])
    proved = [_law(law, ()) for law in LAW_ORDER[:8]]
    assert reports[:8] == proved
    assert [r.law for r in reports] == list(LAW_ORDER)
    assert check_laws(s, [k2(s)], [])[:8] == proved


# -- weights and thresholds as an operator and a term node read them -----------


# ints, strings, floats, bools, Fractions inside and outside [0,1] and a Fraction subclass
WEIGHT_FORMS = [0, 1, 2, -1, True, "1/3", "-1/2", "3/2", "0", "1", "x", 0.5, -0.25, 1.5, float("nan"),
                F(0), F(1), F(2, 3), F(-1, 3), F(4, 3), SubFraction(1, 3), SubFraction(-1, 3),
                SubFraction(4, 3), SubFraction(1)]


@pytest.mark.parametrize("alpha", WEIGHT_FORMS, ids=repr)
def test_weight_checks_match_the_former_fraction_path(alpha, two_block_space, two_block_model):
    """Weight checks of an operator and a term node against reference_model.weight and reference_model.oplus."""
    # an operator converts a weight by Fraction before its range check
    assert outcome(_check_alpha, alpha, read=typed) == outcome(model.weight, alpha, read=typed)
    s, m = two_block_space, two_block_model
    agree("oplus", alpha, Two((k0(s), model.k0(m))), Two((k1(s), model.k1(m))))
    # a term node refuses what oplus refuses, and keeps a weight it accepts as given
    node = outcome(AlphaSumTerm, alpha, BaseTerm("k0"), BaseTerm("k1"), read=lambda term: term.alpha is alpha)
    assert node == outcome(oplus, alpha, k0(s), k1(s), read=accepted) == outcome(model.weight, alpha, read=accepted)


@pytest.mark.parametrize("low, high", [(a, b) for a in WEIGHT_FORMS[::3] for b in WEIGHT_FORMS[1::3]]
                         + [(F(1, 4), F(1, 4)), (F(1, 2), F(1, 3)), (F(0), F(1)), (SubFraction(1, 4), F(3, 4))],
                         ids=repr)
def test_threshold_checks_match_the_former_fraction_path(low, high, two_block_space, two_block_model):
    """Threshold checks of kst and its term node against reference_model.kst and reference_model.thresholds."""
    s = two_block_space
    agree("kst", Two((k1(s), model.k1(two_block_model))), low, high)
    # a term node refuses what kst refuses, and keeps thresholds it accepts as given
    node = outcome(KstTerm, BaseTerm("k0"), low, high, read=lambda term: term.low is low and term.high is high)
    assert node == outcome(kst, k1(s), low, high, read=accepted) == outcome(model.thresholds, low, high, read=accepted)


@pytest.mark.parametrize("n", [1.5, 2.0, F(2), "2", True, 0, -1], ids=repr)
def test_an_exponent_is_an_int_of_at_least_one(n, two_block_space, two_block_model):
    """power, convex_polynomial and a pow node refuse an exponent that is
    not an int of at least 1, as reference_model.power does, so no other
    exponent reaches a function's rows."""
    s, m = two_block_space, two_block_model
    refused = ("raised", "ParameterError", f"exponent must be a positive integer, got {n}")
    assert outcome(power, k0(s), n) == outcome(model.power, model.k0(m), n) == refused
    assert outcome(convex_polynomial, [1], [n], [k0(s)]) == refused
    assert outcome(PowerTerm, BaseTerm("k0"), n) == refused


def test_pointwise_equal_compares_denominators(two_block_space):
    # the same numerators over different denominators are different functions
    s = two_block_space
    half, third = (InclusionFunction(s, {p: v for p in s.pairs()}, str(v)) for v in (F(1, 2), F(1, 3)))
    assert half.nums == third.nums
    assert not half.pointwise_equal(third) and not third.pointwise_equal(half)
