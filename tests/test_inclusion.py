from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from rif_forge import (
    InclusionFunction,
    InputError,
    ParameterError,
    AxiomReport,
    check_rif_axiom,
    classify,
    complement_closed_set_hgos,
    k0,
    k1,
    k2,
    kst,
    powerset_space,
    random_kappa,
    satisfies_class,
    verify_prif,
)
from rif_forge.inclusion import ONE, RIF_AXIOM_ORDER, ZERO


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
        with pytest.raises(InputError):
            k0(fixture_space)("ab", "ghost")


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_kappa_never_falsifies_implications(seed, two_block_space):
    f = random_kappa(two_block_space, Random(seed))
    for v in verify_prif(f):
        assert not (v.applicable and v.violated), (v.name, dict(v.axioms), seed)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_axiom_reports_are_self_consistent(seed, two_block_space):
    f = random_kappa(two_block_space, Random(seed))
    for axiom in RIF_AXIOM_ORDER:
        report = check_rif_axiom(f, axiom)
        assert report.holds == (not report.witnesses)


# -- reference scan ------------------------------------------------------------


def naive_check_rif_axiom(f: InclusionFunction, axiom: str, relation: str = "parthood") -> AxiomReport:
    """The exhaustive element-by-element scan the ranked kernel replaced,
    kept as the reference it must agree with report for report."""
    s = f.space
    if relation == "parthood":
        rel = s.part
    elif relation == "order":
        rel = s.leq
    else:
        raise InputError(f"relation must be 'parthood' or 'order', got {relation!r}")

    bottom = s.bottom

    def proper_bottom(a: str) -> bool:
        return rel(bottom, a) and not rel(a, bottom)

    els = s.elements
    witnesses: list[tuple[str, ...]] = []
    skipped = 0

    if axiom == "U1":
        witnesses = [(a,) for a in els if f(a, a) != ONE]

    elif axiom == "R0":
        witnesses = [(a, b) for a in els for b in els if rel(a, b) and f(a, b) != ONE]

    elif axiom == "R1":
        witnesses = [(a, b) for a in els for b in els if (f(a, b) == ONE) != rel(a, b)]

    elif axiom == "R2":
        for a in els:
            for b in els:
                for c in els:
                    if f(b, c) == ONE and f(a, b) > f(a, c):
                        witnesses.append((a, b, c))

    elif axiom == "R3":
        for a in els:
            for b in els:
                for c in els:
                    if rel(b, c) and f(a, b) > f(a, c):
                        witnesses.append((a, b, c))

    elif axiom == "R4":
        for a in els:
            for b in els:
                if f(a, b) != ZERO:
                    continue
                m = s.meet_of(a, b)
                if m is None:
                    skipped += 1
                elif m != bottom:
                    witnesses.append((a, b))

    elif axiom == "IR4":
        for a in els:
            if not proper_bottom(a):
                continue
            for b in els:
                m = s.meet_of(a, b)
                if m is None:
                    skipped += 1
                elif m == bottom and f(a, b) != ZERO:
                    witnesses.append((a, b))

    elif axiom == "RB":
        witnesses = [(a,) for a in els if proper_bottom(a) and f(a, bottom) != ZERO]

    elif axiom == "R5":
        for a in els:
            if not proper_bottom(a):
                continue
            for b in els:
                m = s.meet_of(a, b)
                if m is None:
                    skipped += 1
                elif (f(a, b) == ZERO) != (m == bottom):
                    witnesses.append((a, b))

    elif axiom == "R6":
        for a in els:
            if not proper_bottom(a):
                continue
            for b in els:
                for c in els:
                    j = s.join_of(b, c)
                    if j is None:
                        skipped += 1
                    elif j == s.top and f(a, b) + f(a, c) != ONE:
                        witnesses.append((a, b, c))

    elif axiom == "IR0":
        witnesses = [(a, b) for a in els for b in els if f(a, b) == ONE and not rel(a, b)]

    else:
        raise InputError(f"unknown axiom {axiom!r}")

    wit = tuple(witnesses)
    return AxiomReport(axiom=axiom, holds=not wit, witnesses=wit, skipped=skipped)


def naive_classify(holds) -> str:
    if holds["R1"] and holds["R2"]:
        return "RIF"
    if holds["R0"] and holds["R2"]:
        return "qRIF"
    if holds["R0"] and holds["R3"]:
        return "wqRIF"
    return "none"


@st.composite
def powerset_spaces(draw):
    """Power sets of 2 to 4 objects under a random partition."""
    objects = [f"x{i}" for i in range(draw(st.integers(min_value=2, max_value=4)))]
    labels = draw(st.lists(st.integers(0, 3), min_size=len(objects), max_size=len(objects)))
    blocks = {}
    for obj, label in zip(objects, labels):
        blocks.setdefault(label, []).append(obj)
    return powerset_space(objects, list(blocks.values()))


FUNCTION_KINDS = ("kappa", "kappa-unit-diagonal", "k0", "k1", "k2", "kst")


def build_function(kind: str, s, seed: int, lo: F, hi: F) -> InclusionFunction:
    if kind == "kappa":
        return random_kappa(s, Random(seed))
    if kind == "kappa-unit-diagonal":
        values = dict(random_kappa(s, Random(seed)).values)
        values.update({(a, a): F(1) for a in s.elements})
        return InclusionFunction(s, values, kind)
    if kind == "kst":
        return kst((k0, k1, k2)[seed % 3](s), lo, hi)
    return {"k0": k0, "k1": k1, "k2": k2}[kind](s)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(FUNCTION_KINDS),
    seed=st.integers(min_value=0, max_value=10_000),
    bounds=st.tuples(st.fractions(0, 1, max_denominator=6), st.fractions(0, 1, max_denominator=6))
    .filter(lambda b: b[0] < b[1]),
)
def test_ranked_scan_matches_naive_scan(data, kind, seed, bounds, fixture_space):
    s = data.draw(st.one_of(st.just(fixture_space), powerset_spaces()), label="space")
    f = build_function(kind, s, seed, *bounds)
    for relation in ("parthood", "order"):
        expected = {ax: naive_check_rif_axiom(f, ax, relation) for ax in RIF_AXIOM_ORDER}
        for axiom in RIF_AXIOM_ORDER:
            assert check_rif_axiom(f, axiom, relation) == expected[axiom], (axiom, relation)
        holds = {ax: r.holds for ax, r in expected.items()}
        assert classify(f, relation) == naive_classify(holds)
        for verdict in verify_prif(f, relation):
            assert dict(verdict.axioms) == {ax: holds[ax] for ax in verdict.axioms}, verdict.name
