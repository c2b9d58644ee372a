from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from rif_forge import (
    InputError,
    LAW_ORDER,
    ParameterError,
    check_laws,
    check_rif_axiom,
    classify,
    convex_polynomial,
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
    random_alpha,
    random_kappa,
    random_set_hgos,
    rif_failure_search,
    satisfies_class,
    sharp,
    sigma,
    space_from_dict,
    top_function,
)

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
        result = rif_failure_search(two_block_space, budget=50, seed=7)
        assert result.sharp_witness is not None
        label, pairs = result.sharp_witness
        assert pairs  # re-verified falsifying pairs ship with the witness
        assert "sharp" in label

    def test_convex_escape_never_appears(self, two_block_space):
        result = rif_failure_search(two_block_space, budget=60, seed=3)
        assert result.oplus_witness is None
        assert result.trials == 60
        assert result.otimes_counterexample is None
        assert result.otimes_checked > 0
        assert len(result.rif_pool) >= 3

    def test_deterministic_under_seed(self, two_block_space):
        a = rif_failure_search(two_block_space, budget=25, seed=11)
        b = rif_failure_search(two_block_space, budget=25, seed=11)
        assert a.rif_pool == b.rif_pool
        assert a.oplus_witness == b.oplus_witness
        assert a.sharp_witness == b.sharp_witness

    def test_requires_set_based_space(self, fixture_space):
        with pytest.raises(InputError):
            rif_failure_search(fixture_space, budget=5)

    def test_budget_validation(self, two_block_space):
        with pytest.raises(ParameterError):
            rif_failure_search(two_block_space, budget=0)

    def test_sharp_witness_actually_breaks_exactness(self, two_block_space):
        result = rif_failure_search(two_block_space, budget=5, seed=1)
        assert result.sharp_witness is not None
        # independent confirmation: the sharpened base function leaves RIF
        assert classify(sharp(k0(two_block_space))) != "RIF"


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_blends_of_rifs_keep_r1_and_r2(seed):
    # For a weight strictly inside (0,1) a blend is 1 exactly where both
    # operands are 1, and at weight 0 or 1 it is one of the operands, so
    # the exact-1 characterization (R1) and R2 survive blending.
    rng = Random(seed)
    s = random_set_hgos(rng)
    base = [k0(s), k1(s), k2(s)]
    products = [otimes(f, g) for i, f in enumerate(base) for g in base[i:]]
    pool = [f for f in base + products if classify(f) == "RIF"]
    assert pool
    alpha = random_alpha(rng)
    for f in pool:
        for g in pool:
            blend = oplus(alpha, f, g)
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
