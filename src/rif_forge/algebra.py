"""Operator algebra on inclusion functions.

Operations: pointwise product, convex sums, composition with the lower or
upper approximation (sharp, flat), the granule-mediated sum (sigma), the
constant-1 unit, pointwise powers and the pointwise order.  check_laws
verifies the hemiring and order laws by exhaustive rational evaluation,
and rif_failure_search hunts for operations that leave the RIF class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterable, Optional, Sequence

from .errors import InputError, ParameterError
from .inclusion import (
    ONE,
    InclusionFunction,
    check_rif_axiom,
    classify,
    k0,
    k1,
    k2,
)
from .space import GranularSpace, classify_flavor

LAW_ORDER = (
    "Comm",
    "Assoc",
    "Identity",
    "Idempotence",
    "Distributivity",
    "Order1",
    "Order2",
    "Top",
    "WeakSharpComp",
    "WeakFlatComp",
    "R0Plus",
)


@dataclass(frozen=True)
class LawReport:
    law: str
    holds: bool
    witnesses: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if self.holds != (len(self.witnesses) == 0):
            raise ValueError("holds must mirror witness emptiness")


def _same_space(f: InclusionFunction, g: InclusionFunction) -> GranularSpace:
    if f.space != g.space:
        raise InputError(f"functions {f.label!r} and {g.label!r} live on different spaces")
    return f.space


def _check_alpha(alpha) -> Fraction:
    alpha = Fraction(alpha)
    if alpha < 0 or alpha > 1:
        raise ParameterError(f"weight must lie in [0,1], got {alpha}")
    return alpha


def top_function(s: GranularSpace) -> InclusionFunction:
    return InclusionFunction(s, {p: ONE for p in s.pairs()}, "top")


def otimes(f: InclusionFunction, g: InclusionFunction) -> InclusionFunction:
    s = _same_space(f, g)
    values = {p: f.values[p] * g.values[p] for p in s.pairs()}
    return InclusionFunction(s, values, f"otimes({f.label},{g.label})")


def oplus(alpha, f: InclusionFunction, g: InclusionFunction) -> InclusionFunction:
    alpha = _check_alpha(alpha)
    s = _same_space(f, g)
    values = {p: alpha * f.values[p] + (1 - alpha) * g.values[p] for p in s.pairs()}
    return InclusionFunction(s, values, f"oplus({alpha},{f.label},{g.label})")


def sharp(f: InclusionFunction) -> InclusionFunction:
    s = f.space
    values = {(a, b): f(s.lower_of(a), s.lower_of(b)) for a, b in s.pairs()}
    return InclusionFunction(s, values, f"sharp({f.label})")


def flat(f: InclusionFunction) -> InclusionFunction:
    s = f.space
    values = {(a, b): f(s.upper_of(a), s.upper_of(b)) for a, b in s.pairs()}
    return InclusionFunction(s, values, f"flat({f.label})")


def sigma(f: InclusionFunction) -> InclusionFunction:
    """Granule-mediated sum: best degree of a granule part of a inside the
    lower approximation of b, and 1 when a has no granule part."""
    s = f.space
    values = {}
    for a, b in s.pairs():
        lb = s.lower_of(b)
        degrees = [f(w, lb) for w in s.granulation if s.part(w, a)]
        values[(a, b)] = max(degrees) if degrees else ONE
    return InclusionFunction(s, values, f"sigma({f.label})")


def power(f: InclusionFunction, n: int) -> InclusionFunction:
    if n < 1:
        raise ParameterError(f"exponent must be a positive integer, got {n}")
    values = {p: v**n for p, v in f.values.items()}
    return InclusionFunction(f.space, values, f"pow({f.label},{n})")


def leq(f: InclusionFunction, g: InclusionFunction) -> bool:
    s = _same_space(f, g)
    return all(f.values[p] <= g.values[p] for p in s.pairs())


# -- law verification --------------------------------------------------------


def check_laws(
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


def _law(law: str, witnesses: Iterable[tuple[str, ...]]) -> LawReport:
    wit = tuple(witnesses)
    return LawReport(law=law, holds=not wit, witnesses=wit)


# -- RIF closure and failure search ------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the closure-failure hunt on one space.

    oplus_witness / sharp_witness are (description, falsifying pairs)
    tuples when a class escape was found, None otherwise.  Products of
    pool members are rechecked along the way; a product escaping the RIF
    class would land in otimes_counterexample (none is expected).
    """

    rif_pool: tuple[str, ...]
    trials: int
    oplus_witness: Optional[tuple[str, tuple[tuple[str, ...], ...]]]
    sharp_witness: Optional[tuple[str, tuple[tuple[str, ...], ...]]]
    otimes_checked: int
    otimes_counterexample: Optional[str]


def rif_failure_search(s: GranularSpace, budget: int, seed: int = 0) -> SearchResult:
    """Search for convex sums of RIFs breaking R1, and for sharp images of
    RIFs breaking R1, spending at most budget convex-sum trials.

    Pool members are the concrete functions (and their pairwise products)
    that actually classify as RIF on s, each confirmed by exhaustive scan.
    A reported witness is the full list of pairs on which one exhaustive
    check_rif_axiom scan of R1 failed.
    """
    if classify_flavor(s) != "setHGOS":
        raise InputError("closure search expects a set-based hemiring space")
    if budget < 1:
        raise ParameterError(f"budget must be positive, got {budget}")
    rng = Random(seed)

    base = [k0(s), k1(s), k2(s)]
    pool = [f for f in base if classify(f) == "RIF"]
    for f in base:
        for g in base:
            prod = otimes(f, g)
            if classify(prod) == "RIF" and not any(prod.pointwise_equal(p) for p in pool):
                pool.append(prod)
    if not pool:
        raise InputError("no RIF could be built on this space")

    otimes_checked = 0
    otimes_counterexample = None
    for f in pool:
        for g in pool:
            prod = otimes(f, g)
            otimes_checked += 1
            if classify(prod) != "RIF":
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
        alpha = Fraction(rng.randint(0, den), den)
        cand = oplus(alpha, f, g)
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

    return SearchResult(
        rif_pool=tuple(f.label for f in pool),
        trials=trials,
        oplus_witness=oplus_witness,
        sharp_witness=sharp_witness,
        otimes_checked=otimes_checked,
        otimes_counterexample=otimes_counterexample,
    )


# -- convex polynomials and weight fitting ------------------------------------


def convex_polynomial(
    coeffs: Sequence[Fraction],
    powers: Sequence[int],
    fns: Sequence[InclusionFunction],
) -> InclusionFunction:
    """Pointwise sum of coeff * fn**power with coefficients summing to 1."""
    if not (len(coeffs) == len(powers) == len(fns)):
        raise InputError(
            f"coeffs, powers and fns must align, got lengths "
            f"{len(coeffs)}, {len(powers)}, {len(fns)}"
        )
    if not fns:
        raise InputError("at least one term is required")
    coeffs = [_check_alpha(c) for c in coeffs]
    if sum(coeffs) != 1:
        raise ParameterError(f"coefficients must sum to 1, got {sum(coeffs)}")
    s = fns[0].space
    terms = [power(f, n) for f, n in zip(fns, powers)]
    for t in terms:
        _same_space(terms[0], t)
    values = {
        p: sum((c * t.values[p] for c, t in zip(coeffs, terms)), Fraction(0)) for p in s.pairs()
    }
    label = "+".join(f"{c}*{f.label}^{n}" for c, n, f in zip(coeffs, powers, fns))
    return InclusionFunction(s, values, f"poly({label})")


def fit_alpha(
    f: InclusionFunction,
    h: InclusionFunction,
    samples: Sequence[tuple[tuple[str, str], Fraction]],
) -> Fraction:
    """Least-squares weight for blending f with h toward sample targets.

    Minimizes the summed squared error of alpha*f + (1-alpha)*h against
    the targets, exactly, then clamps to [0,1].  When f and h agree on
    every sampled pair the objective is flat and 1/2 is returned.
    """
    _same_space(f, h)
    samples = list(samples)
    if not samples:
        raise InputError("at least one sample is required")
    num = Fraction(0)
    den = Fraction(0)
    for (a, b), target in samples:
        target = Fraction(target)
        if target < 0 or target > 1:
            raise InputError(f"target {target} at ({a!r},{b!r}) is outside [0,1]")
        df = f(a, b) - h(a, b)
        num += (target - h(a, b)) * df
        den += df * df
    if den == 0:
        return Fraction(1, 2)
    alpha = num / den
    return min(max(alpha, Fraction(0)), ONE)
