"""End-to-end checks, one test per shipping gate.

Each test enforces its own wall-clock budget.  The per-criterion verdict
lines printed at the end of the run come from the hook in conftest.
"""

import time
from fractions import Fraction as F
from random import Random

from click.testing import CliRunner

from fixture_data import FIXTURE_PATH, APPROXIMATION_ROWS
from rif_forge import (
    VprsParams,
    accuracy_degree,
    check_admissibility,
    check_rif_axiom,
    classify,
    classify_flavor,
    default_env,
    eval_term,
    evaluate,
    fit_alpha,
    fixed_vprs,
    k0,
    k1,
    k2,
    kst,
    misclassification,
    oplus,
    otimes,
    random_unit_rational,
    random_set_hgos,
    random_thresholds,
    random_kappa,
    random_wqrif_term,
    rif_failure_search,
    satisfies_class,
    sharp,
    flat,
    sigma,
    top_function,
    validate_space,
    verify_prif,
    vprs,
)
from rif_forge.algebra import LAW_ORDER, check_laws
from rif_forge.cli import main


def test_criterion_1(fixture_space):
    """The approximation table of the worked example reproduces exactly."""
    start = time.monotonic()
    result = CliRunner().invoke(main, ["approximate", str(FIXTURE_PATH)])
    assert result.exit_code == 0
    expected = [f"{x} | {lo} | {up}" for x, lo, up in APPROXIMATION_ROWS[1:]]
    assert result.output.splitlines() == expected
    assert time.monotonic() - start < 1.0


def test_criterion_2(fixture_space):
    """The worked example passes every space axiom with zero witnesses."""
    start = time.monotonic()
    reports = validate_space(fixture_space) + check_admissibility(fixture_space)
    named = {r.axiom: r for r in reports}
    for axiom in ("PT1", "PT2", "UL1", "UL2", "UL3", "TB", "WRA", "LS", "FU"):
        assert named[axiom].holds, axiom
        assert named[axiom].witnesses == ()
    assert all(r.holds for r in reports)
    assert classify_flavor(fixture_space) == "GGS"
    assert time.monotonic() - start < 1.0


def test_criterion_3():
    """Concrete functions land in their classes on 100 random set spaces."""
    start = time.monotonic()
    for i in range(100):
        rng = Random(100 + i)
        s = random_set_hgos(rng)
        for build in (k0, k1, k2):
            assert classify(build(s)) == "RIF", (i, build.__name__)
        base = k0(s)
        low, high = random_thresholds(rng)
        assert satisfies_class(kst(base, low, high), "wqRIF"), (i, low, high)
        assert satisfies_class(kst(base, low, F(1)), "qRIF"), (i, low)
    assert time.monotonic() - start < 30.0


def test_criterion_4():
    """Hemiring and order laws hold exactly over 200 randomized trials."""
    start = time.monotonic()
    required = LAW_ORDER[:8]
    for i in range(200):
        rng = Random(1000 + i)
        s = random_set_hgos(rng)
        env = default_env(s)
        fns = [eval_term(random_wqrif_term(rng), env, s) for _ in range(3)]
        reports = check_laws(s, fns, [random_unit_rational(rng)])
        named = {r.law: r for r in reports}
        for law in required:
            assert named[law].holds, (i, law, named[law].witnesses[:2])
    assert time.monotonic() - start < 60.0


def test_criterion_5():
    """No implication in the battery is falsified by 500 random kappas."""
    start = time.monotonic()
    for i in range(500):
        rng = Random(5000 + i)
        s = random_set_hgos(rng)
        f = random_kappa(s, rng)
        for verdict in verify_prif(f):
            assert not (verdict.applicable and verdict.violated), (
                i,
                verdict.name,
                dict(verdict.axioms),
            )
    assert time.monotonic() - start < 60.0


def test_criterion_6(two_block_space):
    """Products stay exact; sharpening escapes the RIF class, blending does not.

    The closure-failure search is checked end to end.  Products of RIFs
    stay RIF on 40 random set spaces.  On the two-block space the search
    finds that sharp(k0) breaks R1, and an independent recheck gives the
    same falsifying pairs in the same order.  The convex-sum search spends
    its whole budget and comes back empty, as it must: for a weight
    strictly inside (0,1) a blend of two unit-interval values equals 1
    exactly when both values do, and at the endpoint weights the blend is
    one of the operands, so blends of RIFs keep R1 (and R2 by the same
    argument).  An independent recheck confirms this for blends of the
    returned pool members at fixed weights.
    """
    start = time.monotonic()
    for i in range(40):
        rng = Random(2000 + i)
        s = random_set_hgos(rng)
        f, h = k0(s), k1(s)
        assert classify(f) == "RIF" and classify(h) == "RIF"
        assert classify(otimes(f, h)) == "RIF", i
        low, high = random_thresholds(rng)
        wq = kst(k0(s), low, high)
        assert satisfies_class(wq, "wqRIF")
        assert classify(otimes(f, wq)) == "RIF", i

    result = rif_failure_search(two_block_space, budget=300, seed=42)
    assert result.otimes_counterexample is None

    assert result.sharp_witness is not None
    label, pairs = result.sharp_witness
    assert pairs
    # independent recheck of the stored sharp escape
    escaped = sharp(k0(two_block_space))
    report = check_rif_axiom(escaped, "R1")
    assert not report.holds
    assert pairs == report.witnesses

    # the convex-sum search finds no escape within its full budget
    assert result.oplus_witness is None
    assert result.trials == 300
    # independent recheck: blends of the pool members keep R1
    members = [evaluate(name, two_block_space) for name in result.rif_pool]
    for f in members:
        for g in members:
            for alpha in (F(0), F(1, 3), F(1, 2), F(1)):
                blend = oplus(alpha, f, g)
                assert check_rif_axiom(blend, "R1").holds, blend.label

    assert time.monotonic() - start < 60.0


def test_criterion_7():
    """Sharp deflates, flat inflates, and granular exactness holds."""
    start = time.monotonic()
    for i in range(60):
        rng = Random(3000 + i)
        s = random_set_hgos(rng)
        env = default_env(s)
        f = eval_term(random_wqrif_term(rng), env, s)
        sf, bf, gf = sharp(f), flat(f), sigma(f)
        for a, b in s.pairs():
            if s.part(a, s.lower_of(a)):
                assert sf(a, b) <= f(a, b), (i, a, b)
            if s.part(s.upper_of(a), a):
                assert f(a, b) <= bf(a, b), (i, a, b)
            if s.part(a, b):
                assert gf(a, b) == 1, (i, a, b)
    assert time.monotonic() - start < 60.0


def test_criterion_8(fixture_space):
    """Blend-weight recovery is exact, including both clamp directions."""
    start = time.monotonic()
    f, h = k0(fixture_space), k2(fixture_space)
    pairs = list(fixture_space.pairs())
    for alpha in (F(0), F(1, 3), F(1, 2), F(1)):
        mixed = oplus(alpha, f, h)
        samples = [((a, b), mixed(a, b)) for a, b in pairs]
        assert fit_alpha(f, h, samples) == alpha
    assert fit_alpha(sharp(f), f, [(("ab", "bc"), F(1))]) == 0
    assert fit_alpha(f, top_function(fixture_space), [(("ab", "bc"), F(3, 16))]) == 1
    assert time.monotonic() - start < 10.0


def test_criterion_9(fixture_space, two_block_space):
    """Measure identities and threshold monotonicity on the fixtures."""
    start = time.monotonic()
    for s in (fixture_space, two_block_space):
        f = k0(s)
        for x in s.elements:
            if s.carrier_of(s.upper_of(x)):
                assert accuracy_degree(s, x) == f(s.upper_of(x), s.lower_of(x))
        for a in s.elements:
            for b in s.elements:
                assert misclassification(s, a, b) + f(a, b) == 1

    f = k0(fixture_space)
    betas = [F(1, 4), F(1, 2), F(3, 4)]
    alphas = [F(1, 8), F(1, 4), F(1, 2)]
    for x in fixture_space.elements:
        lowers = [vprs(fixture_space, f, VprsParams(F(1, 8), b), x)[0] for b in betas]
        assert all(big <= small for small, big in zip(lowers, lowers[1:]))
        uppers = [vprs(fixture_space, f, VprsParams(a, F(3, 4)), x)[1] for a in alphas]
        assert all(big <= small for small, big in zip(uppers, uppers[1:]))
        fixed_lowers = [
            fixed_vprs(fixture_space, f, VprsParams(F(1, 8), b), x)[0] for b in betas
        ]
        assert all(big <= small for small, big in zip(fixed_lowers, fixed_lowers[1:]))
    assert time.monotonic() - start < 10.0
