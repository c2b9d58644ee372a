from fractions import Fraction as F
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from rif_forge import (
    InputError,
    ParameterError,
    UndefinedMeasureError,
    VprsParams,
    accuracy_degree,
    fit_alpha,
    fixed_vprs,
    granular_lower,
    k0,
    k2,
    misclassification,
    powerset_space,
    random_set_hgos,
    regions,
    rough_eq,
    rough_leq,
    vprs,
)


class TestAccuracy:
    def test_fixture_oracle_values(self, fixture_space):
        assert accuracy_degree(fixture_space, "ab") == F(1, 4)
        assert accuracy_degree(fixture_space, "e") == F(1, 2)
        assert accuracy_degree(fixture_space, "bc") == F(2, 3)

    def test_definite_elements_have_accuracy_one(self, two_block_space):
        assert accuracy_degree(two_block_space, "{x3}") == 1
        assert accuracy_degree(two_block_space, "{x1,x2,x3}") == 1

    def test_empty_upper_is_undefined(self, fixture_space):
        with pytest.raises(UndefinedMeasureError):
            accuracy_degree(fixture_space, "bot")

    def test_matches_overlap_of_approximations(self, fixture_space):
        f = k0(fixture_space)
        for x in fixture_space.elements:
            if not fixture_space.carrier_of(fixture_space.upper_of(x)):
                continue
            assert accuracy_degree(fixture_space, x) == f(
                fixture_space.upper_of(x), fixture_space.lower_of(x)
            )


class TestMisclassification:
    def test_fixture_oracle_values(self, fixture_space):
        assert misclassification(fixture_space, "ab", "bc") == F(1, 2)
        assert misclassification(fixture_space, "a", "a") == 0
        assert misclassification(fixture_space, "bot", "bc") == 0

    def test_complements_overlap(self, two_block_space):
        f = k0(two_block_space)
        for a in two_block_space.elements:
            for b in two_block_space.elements:
                assert misclassification(two_block_space, a, b) + f(a, b) == 1


class TestRegions:
    def test_fixture_oracle(self, fixture_space):
        pos, neg, bnd = regions(fixture_space, "ab")
        assert pos == frozenset({"a"})
        assert neg == frozenset()
        assert bnd == frozenset({"b", "c", "e"})

    def test_regions_partition_the_universe(self, fixture_space, two_block_space):
        for s in (fixture_space, two_block_space):
            universe = s.carrier_of(s.top)
            for x in s.elements:
                pos, neg, bnd = regions(s, x)
                assert pos | bnd | neg == universe
                assert not (pos & bnd or pos & neg or bnd & neg)

    def test_boundary_nonempty_for_rough_element(self, two_block_space):
        pos, neg, bnd = regions(two_block_space, "{x1}")
        assert pos == frozenset()
        assert neg == frozenset({"x3"})
        assert bnd == frozenset({"x1", "x2"})


class TestRoughOrder:
    def test_fixture_examples(self, fixture_space):
        assert rough_leq(fixture_space, "e", "be")
        assert rough_eq(fixture_space, "a", "a")
        assert not rough_leq(fixture_space, "be", "e")

    def test_preorder_and_equivalence(self, two_block_space):
        els = two_block_space.elements
        for x in els:
            assert rough_leq(two_block_space, x, x)
            assert rough_eq(two_block_space, x, x)
        for x, y, z in product(els, repeat=3):
            if rough_leq(two_block_space, x, y) and rough_leq(two_block_space, y, z):
                assert rough_leq(two_block_space, x, z)
        for x, y in product(els, repeat=2):
            both = rough_leq(two_block_space, x, y) and rough_leq(two_block_space, y, x)
            assert rough_eq(two_block_space, x, y) == both

    def test_indistinguishable_elements_are_rough_equal(self, two_block_space):
        # {x1} and {x2} straddle the same block
        assert rough_eq(two_block_space, "{x1}", "{x2}")


class TestVprsParams:
    def test_valid_range(self):
        p = VprsParams(F(1, 4), F(1, 2))
        assert p.alpha == F(1, 4) and p.beta == F(1, 2)

    def test_coercion(self):
        p = VprsParams("1/4", "1/2")
        assert p.alpha == F(1, 4)

    @pytest.mark.parametrize(
        "alpha,beta",
        [(F(1, 2), F(1, 4)), (F(0), F(1, 2)), (F(1, 4), F(1)), (F(-1, 4), F(1, 2))],
    )
    def test_rejects_bad_thresholds(self, alpha, beta):
        with pytest.raises(ParameterError):
            VprsParams(alpha, beta)


class TestVprs:
    def test_fixture_oracle(self, fixture_space):
        f = k0(fixture_space)
        params = VprsParams(F(1, 4), F(1, 2))
        lower, upper = vprs(fixture_space, f, params, "ab")
        assert lower == frozenset({"a"})
        assert upper == frozenset({"a", "b", "c", "e"})

    def test_fixed_variant_anchors_on_definite_core(self, fixture_space):
        f = k0(fixture_space)
        params = VprsParams(F(1, 4), F(1, 2))
        lower, upper = fixed_vprs(fixture_space, f, params, "ab")
        assert lower == frozenset({"a"})
        assert upper == frozenset({"a"})

    def test_lower_contained_in_upper_everywhere(self, two_block_space):
        f = k0(two_block_space)
        params = VprsParams(F(1, 3), F(2, 3))
        for x in two_block_space.elements:
            lo, up = vprs(two_block_space, f, params, x)
            assert lo <= up
            flo, fup = fixed_vprs(two_block_space, f, params, x)
            assert flo <= fup

    def test_beta_sweep_monotone(self, two_block_space):
        # raising beta makes the lower demand stricter
        f = k0(two_block_space)
        betas = [F(1, 3), F(1, 2), F(2, 3), F(5, 6)]
        for x in two_block_space.elements:
            lowers = [
                vprs(two_block_space, f, VprsParams(F(1, 4), b), x)[0] for b in betas
            ]
            for small, big in zip(lowers, lowers[1:]):
                assert big <= small

    def test_alpha_sweep_monotone(self, two_block_space):
        # raising alpha lets fewer blocks into the upper region
        f = k0(two_block_space)
        alphas = [F(1, 6), F(1, 3), F(1, 2), F(2, 3)]
        for x in two_block_space.elements:
            uppers = [
                vprs(two_block_space, f, VprsParams(a, F(5, 6)), x)[1] for a in alphas
            ]
            for small, big in zip(uppers, uppers[1:]):
                assert big <= small

    def test_requires_set_extensional_space(self, fixture_space):
        # fixture is a GGS but still carries sets, so build a bare space
        s = powerset_space(["u", "v"], [["u"], ["v"]])
        f = k0(s)
        lo, up = vprs(s, f, VprsParams(F(1, 4), F(1, 2)), "{u}")
        assert lo == frozenset({"u"}) and up == frozenset({"u"})


GHOST = VprsParams(F(1, 4), F(1, 2))
GHOST_CALLS = {
    "accuracy_degree": lambda s: accuracy_degree(s, "ghost"),
    "misclassification": lambda s: misclassification(s, "ghost", "a"),
    "rough_leq": lambda s: rough_leq(s, "ghost", "a"),
    "regions": lambda s: regions(s, "ghost"),
    "vprs": lambda s: vprs(s, k0(s), GHOST, "ghost"),
    "fixed_vprs": lambda s: fixed_vprs(s, k0(s), GHOST, "ghost"),
    "fit_alpha": lambda s: fit_alpha(k0(s), k2(s), [(("ghost", "a"), F(1, 2))]),
    "granular_lower": lambda s: granular_lower(s, "ghost"),
}


@pytest.mark.parametrize("measure", list(GHOST_CALLS))
def test_an_unknown_element_is_an_input_error(fixture_space, measure):
    with pytest.raises(InputError, match="'ghost'"):
        GHOST_CALLS[measure](fixture_space)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_measures_are_overlap_degrees(seed):
    """On power sets, accuracy is k0(upper, lower), and misclassification of
    a nonempty a in b is k0(a, complement of b); an empty a is never
    misclassified."""
    s = random_set_hgos(Random(seed), max_objects=5)
    f = k0(s)
    universe = s.carrier_of(s.top)
    for x in s.elements:
        if s.carrier_of(s.upper_of(x)):
            assert accuracy_degree(s, x) == f(s.upper_of(x), s.lower_of(x))
    for a, b in s.pairs():
        if s.carrier_of(a):
            complement = s.element_with_carrier(universe - s.carrier_of(b))
            assert misclassification(s, a, b) == f(a, complement)
        else:
            assert misclassification(s, a, b) == 0
