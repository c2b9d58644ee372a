from collections import defaultdict
from contextlib import contextmanager, nullcontext
from fractions import Fraction, Fraction as F
from itertools import product
from math import gcd, lcm
from types import MappingProxyType
from random import Random
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from rif_forge import algebra
from rif_forge import (
    CarrierError,
    DegenerateSpaceError,
    GranularSpace,
    InclusionFunction,
    InputError,
    LawReport,
    LAW_ORDER,
    ParameterError,
    SizeError,
    check_laws,
    check_rif_axiom,
    classify,
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
    sharp,
    sigma,
    space_from_dict,
    space_to_dict,
    top_function,
)
from rif_forge.algebra import SearchResult, _check_alpha, _law, _same_space
from rif_forge.inclusion import ONE, ZERO, class_from_axioms
from rif_forge.terms import AlphaSumTerm, BaseTerm, KstTerm

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


def naive_rif_failure_search(s: GranularSpace, budget: int, seed: int = 0,
                             classified: Optional[list] = None) -> SearchResult:
    """rif_failure_search as it was before classes were kept per canonical
    form: one classification per function built, each from full reports,
    and budget convex-sum trials drawn from seed, where the search now
    settles convex sums by proof and draws nothing.  The canonical form of
    each function classified is appended to classified."""
    def naive_classify_by_reports(f: InclusionFunction) -> str:
        if classified is not None:
            classified.append((f.den, tuple(f.nums)))
        return class_from_axioms({ax: check_rif_axiom(f, ax).holds for ax in ("R0", "R1", "R2", "R3")})

    rng = Random(seed)
    base = [k0(s), k1(s), k2(s)]
    pool = [f for f in base if naive_classify_by_reports(f) == "RIF"]
    for f in base:
        for g in base:
            prod = otimes(f, g)
            if naive_classify_by_reports(prod) == "RIF" and not any(prod.pointwise_equal(p) for p in pool):
                pool.append(prod)
    otimes_checked = 0
    otimes_counterexample = None
    for f in pool:
        for g in pool:
            prod = otimes(f, g)
            otimes_checked += 1
            if naive_classify_by_reports(prod) != "RIF":
                otimes_counterexample = prod.label
                break
        if otimes_counterexample:
            break
    oplus_witness = None
    trials = 0
    while trials < budget and oplus_witness is None:
        trials += 1
        f = rng.choice(pool)
        g = rng.choice(pool)
        den = rng.randint(1, 12)
        cand = oplus(Fraction(rng.randint(0, den), den), f, g)
        report = check_rif_axiom(cand, "R1")
        if not report.holds:
            oplus_witness = (cand.label, report.witnesses)
    sharp_witness = None
    for f in pool:
        sf = sharp(f)
        report = check_rif_axiom(sf, "R1")
        if not report.holds:
            sharp_witness = (sf.label, report.witnesses)
            break
    return SearchResult(tuple(f.label for f in pool), trials, oplus_witness, sharp_witness,
                        otimes_checked, otimes_counterexample)


def with_declared_approximations(s: GranularSpace, rng: Random) -> GranularSpace:
    """s as a setHGOS document whose lower and upper maps send each
    element to a random element, so sharp reads non-classical images."""
    doc = space_to_dict(s)
    for key in ("lower", "upper"):
        doc[key] = [[x, rng.choice(s.elements)] for x in s.elements]
    return space_from_dict(doc)


@pytest.mark.parametrize("objects", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed, budget", [(0, 1), (1, 20), (7, 50)])
def test_search_classifies_each_product_once_with_the_same_result(objects, seed, budget, monkeypatch):
    # The search equals the former one, which scanned products and convex
    # sums, and classifies exactly k0, k1 and k2, once each.
    names = [f"o{i}" for i in range(objects)]
    rng = Random(seed)
    power_set = powerset_space(names, random_partition(names, rng))
    for s in (power_set, with_declared_approximations(power_set, rng)):
        classified = []

        def counted(f, *args):
            classified.append((f.den, tuple(f.nums)))
            return classify(f, *args)

        monkeypatch.setattr(algebra, "classify", counted)
        assert rif_failure_search(s, budget) == naive_rif_failure_search(s, budget, seed)
        assert classified == [(f.den, tuple(f.nums)) for f in (k0(s), k1(s), k2(s))]


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


# -- check_laws against the pair-by-pair loop ----------------------------------
#
# naive_check_laws is check_laws as it was before the pointwise laws were
# evaluated once per distinct value tuple, and later proved: it builds
# every product and blend as a function and compares them pair by pair.
# It is kept verbatim as the oracle for the reports, witnesses and
# witness order.


def naive_check_laws(
    s: GranularSpace,
    fns: Sequence[InclusionFunction],
    alphas: Sequence[Fraction],
) -> list[LawReport]:
    """Exhaustively verify the eleven algebra laws over fns and alphas.

    Everything is exact rational equality; a law report carries every
    falsifying tuple found.
    """
    fns = list(fns)
    for f in fns:
        if f.space != s:
            raise InputError(f"function {f.label!r} is not over the given space")
    alphas = [_check_alpha(a) for a in alphas]
    pairs = list(s.pairs())
    top = top_function(s)
    # Each image, product and blend is built once per call.  The caches key
    # on operand identity, not label, because labels can repeat; every
    # operand stays alive (in fns, as top, or in a cache) so ids are never
    # reused.
    sharps = {id(f): sharp(f) for f in fns}
    flats = {id(f): flat(f) for f in fns}
    sigmas = {id(f): sigma(f) for f in fns}
    products: dict[tuple[int, int], InclusionFunction] = {}
    blends: dict[tuple[Fraction, int, int], InclusionFunction] = {}

    def prod(f: InclusionFunction, g: InclusionFunction) -> InclusionFunction:
        key = (id(f), id(g))
        if key not in products:
            products[key] = otimes(f, g)
        return products[key]

    def blend(alpha: Fraction, f: InclusionFunction, g: InclusionFunction) -> InclusionFunction:
        key = (alpha, id(f), id(g))
        if key not in blends:
            blends[key] = oplus(alpha, f, g)
        return blends[key]

    reports = []

    wit = []
    for f in fns:
        for h in fns:
            fh = prod(f, h)
            hf = prod(h, f)
            wit.extend((f.label, h.label, a, b) for a, b in pairs if fh.values[(a, b)] != hf.values[(a, b)])
    reports.append(_law("Comm", wit))

    wit = []
    for f in fns:
        for h in fns:
            for t in fns:
                left = prod(f, prod(h, t))
                right = prod(prod(f, h), t)
                wit.extend(
                    (f.label, h.label, t.label, a, b)
                    for a, b in pairs
                    if left.values[(a, b)] != right.values[(a, b)]
                )
    reports.append(_law("Assoc", wit))

    wit = []
    for f in fns:
        ft = prod(f, top)
        wit.extend((f.label, a, b) for a, b in pairs if ft.values[(a, b)] != f.values[(a, b)])
    reports.append(_law("Identity", wit))

    wit = []
    for f in fns:
        for alpha in alphas:
            ff = blend(alpha, f, f)
            wit.extend(
                (f.label, str(alpha), a, b) for a, b in pairs if ff.values[(a, b)] != f.values[(a, b)]
            )
    reports.append(_law("Idempotence", wit))

    wit = []
    for f in fns:
        for t in fns:
            for h in fns:
                for alpha in alphas:
                    left = prod(f, blend(alpha, t, h))
                    right = blend(alpha, prod(f, t), prod(f, h))
                    wit.extend(
                        (f.label, t.label, h.label, str(alpha), a, b)
                        for a, b in pairs
                        if left.values[(a, b)] != right.values[(a, b)]
                    )
    reports.append(_law("Distributivity", wit))

    comparable = [(f, h) for f in fns for h in fns if leq(f, h)]

    wit = []
    for f, h in comparable:
        for f2, h2 in comparable:
            if not leq(prod(f, f2), prod(h, h2)):
                wit.append((f.label, h.label, f2.label, h2.label))
    reports.append(_law("Order1", wit))

    wit = []
    for f, h in comparable:
        for f2, h2 in comparable:
            for alpha in alphas:
                if not leq(blend(alpha, f, f2), blend(alpha, h, h2)):
                    wit.append((f.label, h.label, f2.label, h2.label, str(alpha)))
    reports.append(_law("Order2", wit))

    reports.append(_law("Top", [(f.label,) for f in fns if not leq(f, top)]))

    wit = []
    for f in fns:
        sf = sharps[id(f)]
        for a, b in pairs:
            if s.part(a, s.lower_of(a)) and sf.values[(a, b)] > f.values[(a, b)]:
                wit.append((f.label, a, b))
    reports.append(_law("WeakSharpComp", wit))

    wit = []
    for f in fns:
        bf = flats[id(f)]
        for a, b in pairs:
            if s.part(s.upper_of(a), a) and f.values[(a, b)] > bf.values[(a, b)]:
                wit.append((f.label, a, b))
    reports.append(_law("WeakFlatComp", wit))

    wit = []
    for f in fns:
        gf = sigmas[id(f)]
        for a, b in pairs:
            if s.part(a, b) and gf.values[(a, b)] != ONE:
                wit.append((f.label, a, b))
    reports.append(_law("R0Plus", wit))

    assert [r.law for r in reports] == list(LAW_ORDER)
    return reports


def _law_case(space: str, functions: str, seed: int, fixture_space):
    """Functions and weights for one oracle comparison.  The space is the
    GGS fixture, a power set of 1-4 objects (the laws-wqrif workload's
    shape), such a power set with random lower and upper maps (where a
    granule part of b need not be part of lower(b), as it is on the
    others) or the one-element HGOS space; the functions are wqRIF terms
    (not on the HGOS space, which has no carriers), random kappas, most
    of them not RIFs, which break WeakSharpComp, WeakFlatComp and R0Plus,
    or k0 lowered below 1 at (g, lower(g)) for a granule g with no other
    granule part, beside k0 and wqRIF terms: it fails R0Plus exactly at
    the elements whose granule parts are g alone.  Operands are often
    passed more than once, and the weights often include 0 and 1."""
    rng = Random(seed)
    if space == "fixture":
        s = fixture_space
    elif space == "powerset":
        s = random_set_hgos(rng, min_objects=1)
    elif space == "declared":
        s = with_declared_approximations(random_set_hgos(rng, min_objects=1), rng)
    else:
        s = space_from_dict(SINGLE_ELEMENT)
    if functions == "kappa" or not s.is_set_extensional:
        fns = [random_kappa(s, rng) for _ in range(rng.randint(1, 3))]
        fns.append(k0(s) if s.is_set_extensional else top_function(s))
    else:
        env = default_env(s)
        fns = [eval_term(random_wqrif_term(rng), env, s) for _ in range(rng.randint(1, 3))]
    if functions == "lowered" and s.is_set_extensional:
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
    return s, fns, alphas


@settings(max_examples=100, deadline=None)
@given(space=st.sampled_from(["powerset", "fixture", "single", "declared"]),
       functions=st.sampled_from(["wqrif", "kappa", "lowered"]),
       seed=st.integers(0, 10_000))
def test_law_reports_match_pairwise_loop(fixture_space, space, functions, seed):
    s, fns, alphas = _law_case(space, functions, seed, fixture_space)
    got = [(r.law, r.holds, r.witnesses) for r in check_laws(s, fns, alphas)]
    assert got == [(r.law, r.holds, r.witnesses) for r in naive_check_laws(s, fns, alphas)]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), objects=st.integers(0, 5), count=st.integers(4, 6),
       weights=st.integers(1, 3))
def test_coinciding_and_repeated_operands_keep_law_reports(fixture_space, seed, objects, count, weights):
    # Operands whose values coincide or repeat: one function passed twice,
    # top (1 everywhere), and pow(k0, 2), whose values are ordered as k0's
    # but differ from them.  The fixture stands for 0 objects; on 5 objects
    # the oracle's pair loop is held to 4 functions and 1 weight.
    rng = Random(seed)
    if objects == 5:
        count, weights = 4, 1
    names = [f"o{i}" for i in range(objects)]
    s = powerset_space(names, random_partition(names, rng)) if objects else fixture_space
    env = default_env(s)
    base = env["k0"]
    fns = [base, top_function(s), base, power(base, 2)]
    fns += [env["k1"], env["k2"], random_kappa(s, rng), eval_term(random_wqrif_term(rng), env, s)][:count - 4]
    rng.shuffle(fns)
    # squares of nonnegative numerators order as the numerators do
    assert power(base, 2).nums == [x * x for x in base.nums]
    alphas = [random_unit_rational(rng) for _ in range(weights)]
    got = [(r.law, r.holds, r.witnesses) for r in check_laws(s, fns, alphas)]
    assert got == [(r.law, r.holds, r.witnesses) for r in naive_check_laws(s, fns, alphas)]


def test_oracle_cases_include_failing_laws(fixture_space):
    failing = set()
    for seed in range(20):
        s, fns, alphas = _law_case("powerset", "kappa", seed, fixture_space)
        failing |= {r.law for r in check_laws(s, fns, alphas) if not r.holds}
    assert {"WeakSharpComp", "WeakFlatComp", "R0Plus"} <= failing


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


# -- the integer-row operators against the Fraction code they replaced ---------
#
# The naive_* functions are the former dict-of-Fractions operators and
# constructions, verbatim; each builds its result through the public
# InclusionFunction(space, mapping, label), whose conversion is pinned by
# test_constructor_round_trips_any_valid_mapping.


def naive_carriers_of(s: GranularSpace) -> dict[str, frozenset[str]]:
    missing = [e for e in s.elements if e not in s.carriers]
    if missing:
        raise CarrierError(f"elements without carriers: {missing}")
    return dict(s.carriers)


def naive_k0(s: GranularSpace) -> InclusionFunction:
    """Classical overlap degree #(A and B)/#A, and 1 when A is empty."""
    carriers = naive_carriers_of(s)
    values = {}
    for a in s.elements:
        ca = carriers[a]
        for b in s.elements:
            cb = carriers[b]
            values[(a, b)] = Fraction(len(ca & cb), len(ca)) if ca else ONE
    return InclusionFunction(s, values, "k0")


def naive_k1(s: GranularSpace) -> InclusionFunction:
    """#B/#(A or B), and 1 when both are empty."""
    carriers = naive_carriers_of(s)
    values = {}
    for a in s.elements:
        ca = carriers[a]
        for b in s.elements:
            cb = carriers[b]
            union = ca | cb
            values[(a, b)] = Fraction(len(cb), len(union)) if union else ONE
    return InclusionFunction(s, values, "k1")


def naive_k2(s: GranularSpace) -> InclusionFunction:
    """#(complement(A) or B)/#top, complements taken inside the top carrier."""
    carriers = naive_carriers_of(s)
    universe = carriers[s.top]
    if not universe:
        raise DegenerateSpaceError("k2 needs a nonempty top carrier")
    values = {}
    for a in s.elements:
        rest = universe - carriers[a]
        for b in s.elements:
            values[(a, b)] = Fraction(len(rest | carriers[b]), len(universe))
    return InclusionFunction(s, values, "k2")


def naive_kst(f: InclusionFunction, s: Fraction, t: Fraction) -> InclusionFunction:
    """Threshold transform: 0 up to s, affine ramp on (s,t), 1 from t on."""
    s = Fraction(s)
    t = Fraction(t)
    if s < 0 or t > 1:
        raise ParameterError(f"thresholds must satisfy 0 <= s < t <= 1, got s={s}, t={t}")
    if s >= t:
        raise ParameterError(f"thresholds must satisfy s < t, got s={s}, t={t}")
    values = {}
    for pair, v in f.values.items():
        if v <= s:
            values[pair] = ZERO
        elif v >= t:
            values[pair] = ONE
        else:
            values[pair] = (v - s) / (t - s)
    return InclusionFunction(f.space, values, f"kst({f.label},{s},{t})")


def naive_top_function(s: GranularSpace) -> InclusionFunction:
    return InclusionFunction(s, {p: ONE for p in s.pairs()}, "top")


def naive_otimes(f: InclusionFunction, g: InclusionFunction) -> InclusionFunction:
    s = _same_space(f, g)
    values = {p: f.values[p] * g.values[p] for p in s.pairs()}
    return InclusionFunction(s, values, f"otimes({f.label},{g.label})")


def naive_oplus(alpha, f: InclusionFunction, g: InclusionFunction) -> InclusionFunction:
    alpha = _check_alpha(alpha)
    beta = 1 - alpha
    s = _same_space(f, g)
    values = {p: alpha * f.values[p] + beta * g.values[p] for p in s.pairs()}
    return InclusionFunction(s, values, f"oplus({alpha},{f.label},{g.label})")


def naive_sharp(f: InclusionFunction) -> InclusionFunction:
    s = f.space
    values = {(a, b): f(s.lower_of(a), s.lower_of(b)) for a, b in s.pairs()}
    return InclusionFunction(s, values, f"sharp({f.label})")


def naive_flat(f: InclusionFunction) -> InclusionFunction:
    s = f.space
    values = {(a, b): f(s.upper_of(a), s.upper_of(b)) for a, b in s.pairs()}
    return InclusionFunction(s, values, f"flat({f.label})")


def naive_sigma(f: InclusionFunction) -> InclusionFunction:
    """Granule-mediated sum: best degree of a granule part of a inside the
    lower approximation of b, and 1 when a has no granule part."""
    s = f.space
    values = {}
    for a, b in s.pairs():
        lb = s.lower_of(b)
        degrees = [f(w, lb) for w in s.granulation if s.part(w, a)]
        values[(a, b)] = max(degrees) if degrees else ONE
    return InclusionFunction(s, values, f"sigma({f.label})")


def naive_power(f: InclusionFunction, n: int) -> InclusionFunction:
    if n < 1:
        raise ParameterError(f"exponent must be a positive integer, got {n}")
    values = {p: v**n for p, v in f.values.items()}
    return InclusionFunction(f.space, values, f"pow({f.label},{n})")


def naive_leq(f: InclusionFunction, g: InclusionFunction) -> bool:
    s = _same_space(f, g)
    return all(f.values[p] <= g.values[p] for p in s.pairs())


def naive_convex_polynomial(coeffs, powers, fns) -> InclusionFunction:
    """The former convex_polynomial's pointwise sum (its argument checks are unchanged)."""
    s = fns[0].space
    terms = [naive_power(f, n) for f, n in zip(fns, powers)]
    values = {
        p: sum((c * t.values[p] for c, t in zip(coeffs, terms)), Fraction(0)) for p in s.pairs()
    }
    label = "+".join(f"{c}*{f.label}^{n}" for c, n, f in zip(coeffs, powers, fns))
    return InclusionFunction(s, values, f"poly({label})")


def naive_check_values(space: GranularSpace, values) -> None:
    """The former InclusionFunction constructor's checks, verbatim."""
    for a in space.elements:
        for b in space.elements:
            try:
                v = values[(a, b)]
            except KeyError:
                raise InputError(f"value missing for pair ({a!r},{b!r})") from None
            if not isinstance(v, Fraction):
                v = Fraction(v)
            if v.numerator < 0 or v.numerator > v.denominator:
                raise InputError(f"value {v} at ({a!r},{b!r}) is outside [0,1]")


def assert_same_function(got: InclusionFunction, want: InclusionFunction) -> None:
    assert got.label == want.label
    assert list(got.values.items()) == list(want.values.items())
    assert all(type(v) is Fraction for v in got.values.values())
    assert got.image() == want.image() == tuple(sorted(set(want.values.values())))
    below = [v for v in want.values.values() if v < 1]
    assert got.image_gap() == want.image_gap() == (max(below) if below else None)
    assert gcd(got.den, *got.nums) == 1 and got.den > 0
    assert got.pointwise_equal(want) and want.pointwise_equal(got)


def _operator_inputs(kind: str, rng: Random, fixture_space):
    """A space (a power set of 2-4 objects or the GGS fixture) and functions
    on it: the concrete three, random kappas and random wqRIF terms."""
    s = fixture_space if kind == "fixture" else random_set_hgos(rng)
    env = default_env(s)
    fns = list(env.values()) + [random_kappa(s, rng) for _ in range(2)]
    fns += [eval_term(random_wqrif_term(rng), env, s) for _ in range(2)]
    return s, fns


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["powerset", "fixture"]), seed=st.integers(0, 10_000))
def test_integer_row_operators_match_fraction_operators(fixture_space, kind, seed):
    rng = Random(seed)
    s, fns = _operator_inputs(kind, rng, fixture_space)
    for build, naive in ((k0, naive_k0), (k1, naive_k1), (k2, naive_k2), (top_function, naive_top_function)):
        assert_same_function(build(s), naive(s))
    f, g = rng.choice(fns), rng.choice(fns)
    alpha = random_unit_rational(rng)
    low, high = random_thresholds(rng)
    if rng.random() < 0.3:
        high = ONE
    n = rng.randint(1, 4)
    cases = [
        (otimes(f, g), naive_otimes(f, g)),
        (oplus(alpha, f, g), naive_oplus(alpha, f, g)),
        (sharp(f), naive_sharp(f)),
        (flat(f), naive_flat(f)),
        (sigma(f), naive_sigma(f)),
        (power(f, n), naive_power(f, n)),
        (kst(f, low, high), naive_kst(f, low, high)),
        (convex_polynomial([alpha, 1 - alpha], [n, 1], [f, g]),
         naive_convex_polynomial([alpha, 1 - alpha], [n, 1], [f, g])),
    ]
    for got, want in cases:
        assert_same_function(got, want)
    for h in fns:
        assert leq(f, h) == naive_leq(f, h)
        assert f.pointwise_equal(h) == (f.values == h.values)
    # results that equal their operands, reached by another route
    assert oplus(alpha, f, f).pointwise_equal(f)
    assert otimes(f, g).pointwise_equal(otimes(g, f))


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
    rng = Random(seed)
    s = random_set_hgos(rng)
    values = {p: _drawn_fraction(rng, -spread, 1 + spread) for p in s.pairs()}
    # plain ints are converted as Fractions are
    values[rng.choice(list(s.pairs()))] = rng.choice([0, 1, 2, -1])
    try:
        naive_check_values(s, values)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            InclusionFunction(s, values, "drawn")
        assert str(got.value) == str(exc)
    else:
        InclusionFunction(s, values, "drawn")


def test_missing_pair_and_bad_kst_thresholds_keep_their_errors(fixture_space):
    values = dict(k0(fixture_space).values)
    del values[("ab", "bc")]
    with pytest.raises(InputError, match=r"value missing for pair \('ab','bc'\)"):
        InclusionFunction(fixture_space, values, "partial")
    f = k0(fixture_space)
    for low, high in ((F(1, 2), F(1, 2)), (F(-1, 4), F(1, 2)), (F(1, 4), F(3, 2))):
        with pytest.raises(ParameterError) as got:
            kst(f, low, high)
        with pytest.raises(ParameterError) as want:
            naive_kst(f, low, high)
        assert str(got.value) == str(want.value)


def former_store(f: InclusionFunction, space: GranularSpace, nums: list[int], den: int, label: str) -> None:
    """The former InclusionFunction._store, verbatim but for self, which is
    f: every function was made through it, the full gcd, then the range
    check."""
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [x // g for x in nums]
    if min(nums) < 0 or max(nums) > den:
        k = next(k for k, x in enumerate(nums) if not 0 <= x <= den)
        a, b = list(space.pairs())[k]
        raise InputError(f"value {Fraction(nums[k], den)} at ({a!r},{b!r}) is outside [0,1]")
    f.space, f.label, f.nums, f.den = space, label, nums, den


class FormerInclusionFunction(InclusionFunction):
    """InclusionFunction with its former constructor, verbatim: it read,
    converted and scaled the values one pair at a time, then stored them
    through former_store."""

    def __init__(self, space: GranularSpace, values, label: str):
        vals = []
        for a, b in space.pairs():
            try:
                v = values[(a, b)]
            except KeyError:
                raise InputError(f"value missing for pair ({a!r},{b!r})") from None
            vals.append(v if isinstance(v, Fraction) else Fraction(v))
        den = lcm(*{v.denominator for v in vals})
        former_store(self, space, [v.numerator * (den // v.denominator) for v in vals], den, label)


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


def _outcome(make, s: GranularSpace, table, label: str):
    """(nums, den, label) of make(s, table, label), or its error text."""
    try:
        f = make(s, table, label)
    except InputError as exc:
        return str(exc)
    return f.nums, f.den, f.label


@settings(max_examples=300, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10_000), form=st.sampled_from(sorted(TABLE_FORMS)))
def test_constructor_matches_the_former_one_on_any_mapping(data, seed, form, fixture_space):
    # a mapping whose keys run in pair order is read by its values, any other table by key
    s = data.draw(st.sampled_from([fixture_space, random_set_hgos(Random(seed))]), label="space")
    table = TABLE_FORMS[form](data.draw(value_mappings(s), label="values"), Random(seed))
    assert _outcome(InclusionFunction, s, table, "drawn") == _outcome(FormerInclusionFunction, s, table, "drawn")


def test_fraction_slots_hold_the_public_parts():
    # the constructor reads these slots; a Python that renames them fails here
    for v in (F(6, -4), F(-6, 4), F(0), F(7), F(10**30 + 1, 3 * 10**29)):
        assert (v._numerator, v._denominator) == (v.numerator, v.denominator)
    assert (F(6, -4)._numerator, F(6, -4)._denominator) == (-3, 2)


# -- the operator path: results reduced without the former range check ---------


def former_of_rows(space: GranularSpace, nums: list[int], den: int, label: str, reduced=False) -> InclusionFunction:
    # rows a builder reduced are reduced and checked again all the same
    f = InclusionFunction.__new__(InclusionFunction)
    former_store(f, space, nums, den, label)
    return f


@contextmanager
def former_rows():
    """Every operator and construction builds through former_store."""
    saved = algebra._rows, InclusionFunction.__dict__["_of_rows"]
    algebra._rows = former_of_rows
    InclusionFunction._of_rows = staticmethod(former_of_rows)
    try:
        yield
    finally:
        algebra._rows, InclusionFunction._of_rows = saved


def _both_paths(build):
    """(nums, den, label) of build() on the operator path and through
    former_store, or the error text each raised."""
    out = []
    for path in (nullcontext, former_rows):
        with path():
            try:
                f = build()
            except (InputError, ParameterError) as exc:
                out.append((type(exc), str(exc)))
            else:
                out.append((f.nums, f.den, f.label))
    return out


def _large_kappa(s: GranularSpace, rng: Random) -> InclusionFunction:
    # denominators up to 10**12: their lcm runs to hundreds of digits
    return random_kappa(s, rng, max_denominator=10**12)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["powerset", "fixture"]), seed=st.integers(0, 10_000))
def test_operator_path_matches_the_former_store(fixture_space, kind, seed):
    rng = Random(seed)
    s = fixture_space if kind == "fixture" else random_set_hgos(rng)
    fns = [random_kappa(s, rng), random_kappa(s, rng, 2), _large_kappa(s, rng), k0(s), k2(s)]
    fns.append(oplus(random_unit_rational(rng), fns[0], fns[2]))
    f, g = rng.choice(fns), rng.choice(fns)
    alpha = rng.choice([F(0), F(1), random_unit_rational(rng), F(10**9 - 1, 10**9)])
    low, high = random_thresholds(rng)
    if rng.random() < 0.3:
        high = ONE
    n = rng.randint(1, 4)
    kappa_seed = rng.randrange(10**6)
    builds = [
        lambda: k0(s), lambda: k1(s), lambda: k2(s), lambda: top_function(s),
        lambda: random_kappa(s, Random(kappa_seed)),
        lambda: _large_kappa(s, Random(kappa_seed)),
        lambda: otimes(f, g), lambda: otimes(f, f),
        lambda: oplus(alpha, f, g), lambda: oplus(alpha, f, f),
        lambda: sharp(f), lambda: flat(f), lambda: sigma(f), lambda: power(f, n),
        lambda: kst(f, low, high),
        lambda: convex_polynomial([alpha, 1 - alpha], [n, 1], [f, g]),
        lambda: convex_polynomial([F(0), alpha, 1 - alpha], [1, n, 2], [f, f, g]),
    ]
    for build in builds:
        new, old = _both_paths(build)
        assert new == old
        assert not isinstance(new[0], type) and gcd(new[1], *new[0]) == 1


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
    rng = Random(7)
    for s in (random_set_hgos(rng), powerset_space(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])):
        fns = [k0(s), k2(s), random_kappa(s, rng), _large_kappa(s, rng)]
        for f, g in product(fns, repeat=2):  # the pairs of equal operands included
            new, old = _both_paths(lambda: oplus(weight, f, g))
            assert new == old == _result(naive_oplus, weight, f, g)
            assert (new[0], new[1]) == ((f if weight else g).nums, (f if weight else g).den)


def test_check_laws_returns_the_proved_reports_per_call(two_block_space):
    s = two_block_space
    reports = check_laws(s, [k0(s), k1(s)], [F(1, 3), F(1, 2)])
    proved = [_law(law, ()) for law in LAW_ORDER[:8]]
    assert reports[:8] == proved
    assert [r.law for r in reports] == list(LAW_ORDER)
    assert check_laws(s, [k2(s)], [])[:8] == proved


# -- weights and thresholds against the former Fraction path --------------------


def former_check_alpha(alpha) -> Fraction:
    """The former _check_alpha, verbatim: every weight went through Fraction."""
    alpha = Fraction(alpha)
    if alpha < 0 or alpha > 1:
        raise ParameterError(f"weight must lie in [0,1], got {alpha}")
    return alpha


def former_alpha_node(alpha):
    """The former AlphaSumTerm.__post_init__ check, verbatim; alpha when it passes."""
    if not (0 <= alpha <= 1):
        raise ParameterError(f"weight must lie in [0,1], got {alpha}")
    return alpha


def former_kst_node(low, high):
    """The former KstTerm.__post_init__ check, verbatim; (low, high) when it passes."""
    if not (0 <= low < high <= 1):
        raise ParameterError(f"thresholds must satisfy 0 <= s < t <= 1, got s={low}, t={high}")
    return low, high


def _result(call, *args):
    """call(*args) with its type and text, or the type and text of its error.
    A function is read as its nums, den and label."""
    try:
        value = call(*args)
    except Exception as exc:  # compared by type and text
        return "raised", type(exc), str(exc)
    if isinstance(value, InclusionFunction):
        return value.nums, value.den, value.label
    return type(value), value, str(value)


# ints, strings, floats, bools, Fractions inside and outside [0,1] and a Fraction subclass
WEIGHT_FORMS = [0, 1, 2, -1, True, "1/3", "-1/2", "3/2", "0", "1", "x", 0.5, -0.25, 1.5, float("nan"),
                F(0), F(1), F(2, 3), F(-1, 3), F(4, 3), SubFraction(1, 3), SubFraction(-1, 3),
                SubFraction(4, 3), SubFraction(1)]


@pytest.mark.parametrize("alpha", WEIGHT_FORMS, ids=repr)
def test_weight_checks_match_the_former_fraction_path(alpha, two_block_space):
    s = two_block_space
    assert _result(_check_alpha, alpha) == _result(former_check_alpha, alpha)
    f, g = k0(s), k1(s)
    assert _result(oplus, alpha, f, g) == _result(naive_oplus, alpha, f, g)
    assert _result(lambda: AlphaSumTerm(alpha, BaseTerm("k0"), BaseTerm("k1")).alpha) == \
        _result(former_alpha_node, alpha)


@pytest.mark.parametrize("low, high", [(a, b) for a in WEIGHT_FORMS[::3] for b in WEIGHT_FORMS[1::3]]
                         + [(F(1, 4), F(1, 4)), (F(1, 2), F(1, 3)), (F(0), F(1)), (SubFraction(1, 4), F(3, 4))],
                         ids=repr)
def test_threshold_checks_match_the_former_fraction_path(low, high, two_block_space):
    f = k1(two_block_space)
    assert _result(kst, f, low, high) == _result(naive_kst, f, low, high)

    def node():
        term = KstTerm(BaseTerm("k0"), low, high)
        return term.low, term.high

    assert _result(node) == _result(former_kst_node, low, high)


def test_pointwise_equal_compares_denominators(two_block_space):
    # the same numerators over different denominators are different functions
    s = two_block_space
    half, third = (InclusionFunction(s, {p: v for p in s.pairs()}, str(v)) for v in (F(1, 2), F(1, 3)))
    assert half.nums == third.nums
    assert not half.pointwise_equal(third) and not third.pointwise_equal(half)


@pytest.mark.parametrize("value", [F(0), F(1, 2), F(2, 3), F(11, 12), F(1)])
def test_law_reports_on_constant_functions_match_pairwise_loop(two_block_space, value):
    # constants below 1 falsify R0Plus at every parthood pair whose first
    # element has a granule part, whatever their distance from 1
    s = two_block_space
    fns = [InclusionFunction(s, {p: value for p in s.pairs()}, "c"), k0(s)]
    alphas = [F(0), F(1, 3), F(1)]
    got = [(r.law, r.witnesses) for r in check_laws(s, fns, alphas)]
    assert got == [(r.law, r.witnesses) for r in naive_check_laws(s, fns, alphas)]
    assert ("R0Plus", ()) in got if value == 1 else ("R0Plus", ()) not in got
