import json
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import reference_model as model
from rif_forge import (
    InclusionFunction,
    InputError,
    ParameterError,
    RifForgeError,
    check_rif_axiom,
    classify,
    complement_closed_set_hgos,
    default_env,
    eval_term,
    k0,
    k1,
    k2,
    kst,
    load_space,
    power,
    powerset_space,
    random_kappa,
    random_wqrif_term,
    satisfies_class,
    space_from_dict,
    verify_prif,
)
from fixture_data import FIXTURE_PATH
from rif_forge import inclusion
from rif_forge.inclusion import RIF_AXIOM_ORDER, _AxiomRows, _verdict
from rif_forge.sampling import random_partition
from test_space import _drawn_partition, documents_of_every_flavor


class TestConcreteFunctions:
    def test_k0_oracle_values(self, fixture_space):
        f = k0(fixture_space)
        assert f("ab", "bc") == F(1, 2)  # |{b}| / |{a,b}|
        assert f("a", "e") == 0
        assert f("top", "be") == F(1, 2)
        assert f("bot", "bc") == 1  # empty-first-argument convention
        assert f("bc", "bot") == 0

    def test_k1_oracle_values(self, fixture_space):
        f = k1(fixture_space)
        assert f("ab", "bc") == F(2, 3)  # |{b,c}| / |{a,b,c}|
        assert f("bot", "bot") == 1  # empty union convention
        assert f("bot", "bc") == 1

    def test_k2_oracle_values(self, fixture_space):
        f = k2(fixture_space)
        assert f("ab", "bc") == F(3, 4)  # |{c,e} + {b,c}| / 4
        assert f("bot", "bc") == 1
        assert f("top", "bc") == F(1, 2)

    def test_kst_piecewise(self, fixture_space):
        f = kst(k0(fixture_space), F(1, 4), F(3, 4))
        assert f("ab", "bc") == F(1, 2)  # ramp fixes the midpoint
        assert f("a", "e") == 0  # below s
        assert f("a", "ab") == 1  # above t
        assert f("bce", "abe") == F(5, 6)  # (2/3 - 1/4) / (1/2)

    def test_kst_threshold_validation(self, fixture_space):
        f = k0(fixture_space)
        with pytest.raises(ParameterError):
            kst(f, F(3, 4), F(1, 4))
        with pytest.raises(ParameterError):
            kst(f, F(1, 2), F(1, 2))
        with pytest.raises(ParameterError):
            kst(f, F(-1, 4), F(1, 2))
        with pytest.raises(ParameterError):
            kst(f, F(1, 4), F(5, 4))

    def test_image_helpers(self, fixture_space):
        f = k0(fixture_space)
        assert f.image_gap() == F(3, 4)
        assert max(f.image()) == 1
        top_like = InclusionFunction(
            fixture_space, {p: F(1) for p in fixture_space.pairs()}, "ones"
        )
        assert top_like.image_gap() is None


class TestKeptBaseFunctions:
    """k0, k1 and k2 are built once per space: each call returns the kept
    function itself, so its axiom rows and R2 verdict are built once."""

    def test_each_call_returns_the_kept_function(self, fixture_space):
        power_set = powerset_space(["x1", "x2", "x3"], [["x1", "x2"], ["x3"]])
        assert powerset_space(["x3", "x2", "x1"], [["x3"], ["x2", "x1"]]) is power_set
        for s in (fixture_space, power_set):
            for build in (k0, k1, k2):
                assert build(s) is build(s), (build.__name__, s.elements[:3])

    def test_a_second_classify_reuses_the_axiom_rows(self, monkeypatch):
        s = load_space(FIXTURE_PATH)  # loaded afresh, so nothing is built yet
        built = []
        monkeypatch.setattr(inclusion, "_AxiomRows", lambda f: built.append(f) or _AxiomRows(f))
        assert classify(k0(s)) == "RIF"
        rows = k0(s)._axiom_rows
        assert rows.order_verdict is True
        assert classify(k0(s)) == "RIF"
        assert k0(s)._axiom_rows is rows
        assert built == [k0(s)]


class TestValidation:
    def test_total_values_required(self, singleton_space):
        values = {p: F(1) for p in singleton_space.pairs()}
        del values[("{}", "{x1}")]
        with pytest.raises(InputError):
            InclusionFunction(singleton_space, values, "partial")

    def test_range_enforced(self, singleton_space):
        values = {p: F(1) for p in singleton_space.pairs()}
        values[("{}", "{x1}")] = F(3, 2)
        with pytest.raises(InputError):
            InclusionFunction(singleton_space, values, "big")

    def test_unknown_pair_lookup(self, fixture_space):
        # named as lower_of and find_element name it, the first unknown one
        f = k0(fixture_space)
        for a, b in (("ghost", "ab"), ("ab", "ghost"), ("ghost", "spook")):
            with pytest.raises(InputError) as got:
                f(a, b)
            assert str(got.value) == "unknown element 'ghost'"


class TestAxiomChecks:
    def test_k0_is_rif_on_fixture(self, fixture_space):
        # parthood coincides with carrier inclusion here, so R1 holds
        f = k0(fixture_space)
        for axiom in ("U1", "R0", "R1", "R2", "R3", "IR0"):
            assert check_rif_axiom(f, axiom).holds, axiom
        assert classify(f) == "RIF"

    def test_r4_skip_accounting(self, fixture_space):
        # value 0 with an undefined meet only happens against bottom
        report = check_rif_axiom(k0(fixture_space), "R4")
        assert report.holds
        assert report.skipped == 8

    def test_r5_skip_accounting(self, fixture_space):
        # guard excludes a=bot; 8 remaining pairs with b=bot plus 10
        # ordered pairs whose intersection falls outside the universe
        report = check_rif_axiom(k0(fixture_space), "R5")
        assert report.holds
        assert report.skipped == 18

    def test_r6_fails_for_k0_on_fixture(self, fixture_space):
        report = check_rif_axiom(k0(fixture_space), "R6")
        assert not report.holds
        assert ("ab", "abe", "bc") in report.witnesses

    def test_rb_holds_for_k0(self, fixture_space):
        assert check_rif_axiom(k0(fixture_space), "RB").holds

    def test_unknown_axiom_rejected(self, fixture_space):
        with pytest.raises(InputError):
            check_rif_axiom(k0(fixture_space), "R9")

    def test_unknown_relation_rejected(self, fixture_space):
        with pytest.raises(InputError):
            check_rif_axiom(k0(fixture_space), "R1", relation="inclusion")

    def test_order_relative_checks(self, fixture_space):
        # bottom is below nothing in the order, so value 1 at (bot, x)
        # breaks the exact-1 characterization but not its forward half
        f = k0(fixture_space)
        assert check_rif_axiom(f, "R0", relation="order").holds
        r1 = check_rif_axiom(f, "R1", relation="order")
        assert not r1.holds
        assert ("bot", "a") in r1.witnesses
        assert classify(f, relation="order") == "qRIF"

    def test_forced_violation_reports_witness(self, fixture_space):
        values = dict(k0(fixture_space).values)
        values[("a", "top")] = F(1, 2)  # parthood holds but value is not 1
        f = InclusionFunction(fixture_space, values, "broken")
        report = check_rif_axiom(f, "R0")
        assert not report.holds
        assert ("a", "top") in report.witnesses


class TestClassification:
    def test_concrete_functions_on_powerset(self, two_block_space):
        for build in (k0, k1, k2):
            assert classify(build(two_block_space)) == "RIF"

    def test_kst_interior_thresholds_on_fixture(self, fixture_space):
        f = kst(k0(fixture_space), F(1, 4), F(3, 4))
        assert classify(f) == "wqRIF"
        assert satisfies_class(f, "wqRIF")
        assert not satisfies_class(f, "qRIF")

    def test_kst_top_threshold_is_qrif_member(self, fixture_space):
        f = kst(k0(fixture_space), F(1, 4), F(1))
        assert satisfies_class(f, "qRIF")

    def test_kst_small_t_is_exactly_wqrif(self, two_block_space):
        # with t <= 1/2 some non-part pair is pushed to exactly 1
        f = kst(k0(two_block_space), F(1, 4), F(1, 2))
        assert classify(f) == "wqRIF"

    def test_membership_is_monotone(self, two_block_space):
        f = k0(two_block_space)
        assert satisfies_class(f, "RIF")
        assert satisfies_class(f, "qRIF")
        assert satisfies_class(f, "wqRIF")

    def test_unknown_class_rejected(self, two_block_space):
        with pytest.raises(InputError):
            satisfies_class(k0(two_block_space), "superRIF")

    def test_none_classification(self, singleton_space):
        values = {p: F(1, 2) for p in singleton_space.pairs()}
        f = InclusionFunction(singleton_space, values, "flat-half")
        assert classify(f) == "none"


class TestPrifBattery:
    def test_names_and_order(self, fixture_space):
        verdicts = verify_prif(k0(fixture_space))
        assert [v.name for v in verdicts] == [
            "prif1", "prif2", "prif3", "prif4", "prif5",
            "prif6", "prif7", "prif8", "prif9", "prif-u1",
        ]

    def test_k0_raises_no_violation_anywhere(self, fixture_space, two_block_space):
        for space in (fixture_space, two_block_space):
            for v in verify_prif(k0(space)):
                assert not (v.applicable and v.violated), v

    def test_set_restricted_rows_inapplicable_on_ggs(self, fixture_space):
        verdicts = {v.name: v for v in verify_prif(k0(fixture_space))}
        for name in ("prif7", "prif8", "prif9"):
            assert not verdicts[name].applicable

    def test_set_restricted_rows_applicable_on_powerset(self, two_block_space):
        verdicts = {v.name: v for v in verify_prif(k0(two_block_space))}
        for name in ("prif7", "prif8", "prif9"):
            assert verdicts[name].applicable

    def test_complement_closure_detection(self, fixture_space, two_block_space):
        assert complement_closed_set_hgos(two_block_space)
        assert not complement_closed_set_hgos(fixture_space)


class TestRandomKappa:
    def test_determinism(self, two_block_space):
        a = random_kappa(two_block_space, Random(5))
        b = random_kappa(two_block_space, Random(5))
        assert a.pointwise_equal(b)

    def test_values_in_range(self, two_block_space):
        f = random_kappa(two_block_space, Random(11))
        assert all(0 <= v <= 1 for v in f.values.values())


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), objects=st.integers(1, 4),
       max_denominator=st.one_of(st.integers(1, 12), st.just(10**12)))
def test_random_kappa_matches_fraction_construction(fixture_space, fixture_model, seed, objects, max_denominator):
    # the model draws each pair's Fraction in pair order: the same draws
    # give the same function and leave the generator in the same state;
    # denominators up to 10**12 have an lcm of hundreds of digits
    objs = [f"o{i}" for i in range(objects)]
    s, m = (fixture_space, fixture_model) if objects == 4 else powerset_pair(objs, random_partition(objs, Random(seed)))
    got_rng, want_rng = Random(seed), Random(seed)
    got, want = random_kappa(s, got_rng, max_denominator), model.random_kappa(m, want_rng, max_denominator)
    assert form(got) == want.form() and got.values == want.values
    assert got_rng.getstate() == want_rng.getstate()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_kappa_never_falsifies_implications(seed, two_block_space):
    f = random_kappa(two_block_space, Random(seed))
    for v in verify_prif(f):
        assert not (v.applicable and v.violated), (v.name, dict(v.axioms), seed)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_axiom_reports_are_self_consistent(seed, two_block_space):
    """A verdict asked after every full report agrees with its report.  A
    kappa fails every axiom but U1, so the seed also draws a wqRIF term:
    about one in four fails R1 with R2 and R3 apart."""
    s = two_block_space
    for f in (random_kappa(s, Random(seed)), eval_term(random_wqrif_term(Random(seed)), default_env(s), s)):
        reports = [check_rif_axiom(f, axiom) for axiom in RIF_AXIOM_ORDER]
        for axiom, report in zip(RIF_AXIOM_ORDER, reports):
            assert _verdict(f, axiom, "parthood") == (report.holds, report.skipped), (f.label, axiom)


# -- against the independent model (tests/reference_model.py) -----------------


def form(f: InclusionFunction) -> tuple:
    """f as the model writes a function: (nums, den, label)."""
    return f.nums, f.den, f.label


def modelled(f: InclusionFunction, m: model.Space) -> model.Function:
    """The model's function on m with the values of f."""
    return model.table(m, f.values, f.label)


def powerset_pair(objects, blocks):
    """The power set as powerset_space builds it, and as the model reads the document it writes."""
    return powerset_space(objects, blocks), model.Space(model.powerset_document(objects, blocks))


@st.composite
def space_documents(draw, every_flavor=True):
    """The worked example or a power set of 2-4 objects under a drawn
    partition, written by the model; with every_flavor, also any document
    of documents_of_every_flavor, among them GGS documents with partial
    join and meet, an order apart from parthood and no carriers."""
    kind = draw(st.sampled_from(["power set", "fixture", "any flavor"][:3 if every_flavor else 2]))
    if kind == "power set":
        objects = [f"x{i}" for i in range(draw(st.integers(2, 4)))]
        return model.powerset_document(objects, _drawn_partition(draw, objects))
    if kind == "fixture":
        return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))
    return draw(documents_of_every_flavor())


# kst-pow64 is power(kst(...), 64): its denominator runs past a hundred
# bits, so the kernels key and compare numerators far wider than a word
FUNCTION_KINDS = ("kappa", "kappa-unit-diagonal", "r1-kappa-parthood", "r1-kappa-order",
                  "k0", "k1", "k2", "kst", "kst-pow64")


def r1_kappa(s, rng: Random, relation: str) -> InclusionFunction:
    """1 exactly on the pairs related under relation, and a random value
    below 1 elsewhere: R1 holds under relation, and R2 and R3 mostly fail."""
    related = s.part if relation == "parthood" else s.leq
    values = {}
    for pair in s.pairs():
        q = rng.randint(1, 12)
        values[pair] = F(1) if related(*pair) else F(rng.randint(0, q - 1), q)
    return InclusionFunction(s, values, f"r1-kappa-{relation}")


def build_function(kind: str, s, seed: int, lo: F, hi: F) -> InclusionFunction:
    if kind == "kappa":
        return random_kappa(s, Random(seed))
    if kind.startswith("r1-kappa-"):
        return r1_kappa(s, Random(seed), kind.removeprefix("r1-kappa-"))
    if kind == "kappa-unit-diagonal":
        values = dict(random_kappa(s, Random(seed)).values)
        values.update({(a, a): F(1) for a in s.elements})
        return InclusionFunction(s, values, kind)
    if kind == "kst":
        return kst((k0, k1, k2)[seed % 3](s), lo, hi)
    if kind == "kst-pow64":
        return power(build_function("kst", s, seed, lo, hi), 64)
    return {"k0": k0, "k1": k1, "k2": k2}[kind](s)


def drawn_function(kind: str, s, seed: int, bounds) -> InclusionFunction:
    """build_function's function, or a random kappa where s refuses the base function that kind needs."""
    try:
        return build_function(kind, s, seed, *bounds)
    except RifForgeError:
        return random_kappa(s, Random(seed))


RELATIONS = ("parthood", "order")
BOUNDS = st.tuples(st.fractions(0, 1, max_denominator=6), st.fractions(0, 1, max_denominator=6)).filter(
    lambda b: b[0] < b[1])


def reports(f: InclusionFunction, relation: str) -> list[tuple]:
    return [(r.axiom, r.witnesses, r.skipped) for r in (check_rif_axiom(f, ax, relation) for ax in RIF_AXIOM_ORDER)]


def model_reports(g: model.Function, relation: str) -> list[tuple]:
    return [model.check_rif_axiom(g, ax, relation) for ax in model.AXIOMS]


def battery(verdicts) -> list[tuple]:
    return [(v.name, v.applicable, v.violated, dict(v.axioms)) for v in verdicts]


@settings(max_examples=150, deadline=None)
@given(doc=space_documents(), kind=st.sampled_from(FUNCTION_KINDS), seed=st.integers(0, 10_000), bounds=BOUNDS)
def test_axiom_kernels_match_naive_scan(doc, kind, seed, bounds):
    """check_rif_axiom, classify and verify_prif against reference_model.check_rif_axiom, classify and verify_prif."""
    s, m = space_from_dict(doc), model.Space(doc)
    f = drawn_function(kind, s, seed, bounds)
    g = modelled(f, m)
    for relation in RELATIONS:
        assert reports(f, relation) == model_reports(g, relation), relation
        assert classify(f, relation) == model.classify(g, relation)
        assert battery(verify_prif(f, relation)) == model.verify_prif(g, relation)


@settings(max_examples=150, deadline=None)
@given(doc=space_documents(), kind=st.sampled_from(FUNCTION_KINDS), seed=st.integers(0, 10_000), bounds=BOUNDS)
def test_r2_r3_verdicts_in_any_order_match_naive_scan(doc, kind, seed, bounds):
    """R1-R3 verdicts in any order against reference_model.check_rif_axiom."""
    # R2 and, where R1 holds, R3 share one order-scan verdict; asking them
    # in either order, alone, or under the other relation first must not
    # change what either reads
    s, m = space_from_dict(doc), model.Space(doc)
    f = drawn_function(kind, s, seed, bounds)
    g = modelled(f, m)
    expected = {(ax, rel): not model.check_rif_axiom(g, ax, rel)[1] for ax in ("R1", "R2", "R3") for rel in RELATIONS}
    if kind.startswith("r1-kappa-"):
        assert expected["R1", kind.removeprefix("r1-kappa-")]
    for rel in RELATIONS:
        assert not expected["R1", rel] or expected["R2", rel] == expected["R3", rel]
    for rels in (RELATIONS, RELATIONS[::-1]):
        for axioms in (("R2", "R3"), ("R3", "R2"), ("R2",), ("R3",)):
            h = InclusionFunction._of_rows(s, f.nums, f.den, f.label)
            for rel in rels:
                for ax in axioms:
                    assert _verdict(h, ax, rel) == (expected[ax, rel], 0), (ax, rel, rels, axioms)
            if "R2" in axioms:
                assert h._axiom_rows.order_verdict == expected["R2", "parthood"] == expected["R2", "order"]


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("kind", FUNCTION_KINDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10_000), bounds=BOUNDS)
def test_verdicts_asked_first_leave_reports_whole(data, kind, relation, seed, bounds):
    # a verdict builds a row's masks only up to its first flagged row; the
    # reports asked after the verdicts must still read every row whole
    doc = data.draw(space_documents(every_flavor=False), label="space")
    s, m = space_from_dict(doc), model.Space(doc)
    f = build_function(kind, s, seed, *bounds)
    expected = dict(zip(RIF_AXIOM_ORDER, model_reports(modelled(f, m), relation)))
    g = InclusionFunction._of_rows(s, f.nums, f.den, f.label)
    for axiom in data.draw(st.permutations(RIF_AXIOM_ORDER), label="verdict order"):
        assert _verdict(g, axiom, relation) == (not expected[axiom][1], expected[axiom][2]), axiom
    for axiom in data.draw(st.permutations(RIF_AXIOM_ORDER), label="report order"):
        r = check_rif_axiom(g, axiom, relation)
        assert (r.axiom, r.witnesses, r.skipped) == expected[axiom], axiom


def wide_functions(s):
    """k0, k1, k2, a kst and two random kappas, one with a unit diagonal."""
    bounds = (F(1, 4), F(3, 4))
    return [build_function(kind, s, 5, *bounds) for kind in ("k0", "k1", "k2", "kst", "kappa")] + [
        build_function("kappa-unit-diagonal", s, 8, *bounds)]


def test_masks_wider_than_a_word_match_naive_scan():
    """Reports on 64 elements against reference_model.check_rif_axiom, classify and verify_prif."""
    s, m = powerset_pair([f"x{i}" for i in range(6)], [["x0", "x1"], ["x2"], ["x3", "x4", "x5"]])
    assert len(s.elements) == 64
    # order and parthood are both inclusion here, so one model scan serves both
    assert m.order == m.parthood
    for f in wide_functions(s):
        g = modelled(f, m)
        expected, klass, verdicts = model_reports(g, "parthood"), model.classify(g), model.verify_prif(g)
        for relation in RELATIONS:
            assert reports(f, relation) == expected, (f.label, relation)
            assert classify(f, relation) == klass, f.label
            assert battery(verify_prif(f, relation)) == verdicts, f.label


@pytest.mark.parametrize("relation", ["parthood", "order"])
def test_verdicts_on_128_elements_match_reports(relation):
    s = powerset_space([f"x{i}" for i in range(7)], [["x0", "x1", "x2"], ["x3"], ["x4", "x5", "x6"]])
    for f in wide_functions(s):
        for axiom in RIF_AXIOM_ORDER:
            assert _verdict(f, axiom, relation)[0] == check_rif_axiom(f, axiom, relation).holds, (f.label, axiom)
