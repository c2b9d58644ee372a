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
from itertools import product
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
    beta = 1 - alpha
    s = _same_space(f, g)
    values = {p: alpha * f.values[p] + beta * g.values[p] for p in s.pairs()}
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


class _LawInputs:
    """The functions as the law checks read them (the axiom scans' ranks, in pair order,
    and sorted images), and products or blends of two per distinct rank pair."""

    def __init__(self, s: GranularSpace, fns: Sequence[InclusionFunction], alphas: Sequence[Fraction]):
        self.s, self.fns, self.pairs = s, list(fns), list(s.pairs())
        for f in self.fns:
            if f.space != s:
                raise InputError(f"function {f.label!r} is not over the given space")
        self.weights = [(alpha, 1 - alpha) for alpha in map(_check_alpha, alphas)]
        self.cols = [f._ranked.ranks for f in self.fns]
        self.images = [f._ranked.image for f in self.fns]
        self.made = {}

    def distinct(self, idx):
        """The distinct rank tuples of the functions idx over all pairs."""
        return set(zip(*[self.cols[i] for i in idx]))

    def pairwise(self, w, i, j):
        """f_i * f_j (w None) or their blend at weight w, per distinct rank pair."""
        if (w, i, j) not in self.made:
            fi, fj = self.images[i], self.images[j]
            alpha, beta = (None, None) if w is None else self.weights[w]
            self.made[w, i, j] = {
                (x, y): fi[x] * fj[y] if w is None else alpha * fi[x] + beta * fj[y]
                for x, y in self.distinct((i, j))
            }
        return self.made[w, i, j]

    def combos(self, arity):
        """All operand index tuples of the arity; for 0, (f, h, f2, h2) with f <= h, f2 <= h2."""
        ops = range(len(self.fns))
        if arity:
            return product(ops, repeat=arity)
        ims = self.images
        below = [(i, j) for i in ops for j in ops
                 if all(ims[i][x] <= ims[j][y] for x, y in self.distinct((i, j)))]
        return [c + d for c in below for d in below]


# The pointwise laws: each takes the inputs, a weight index (None for an
# unweighted law), the distinct rank tuples of the operands and their
# indices, and returns the tuples that falsify the law.


def _comm(inp, w, tuples, i, j):
    ij, ji = inp.pairwise(None, i, j), inp.pairwise(None, j, i)
    return {(x, y) for x, y in tuples if ij[x, y] != ji[y, x]}


def _assoc(inp, w, tuples, i, j, k):
    fi, fk, ij, jk = inp.images[i], inp.images[k], inp.pairwise(None, i, j), inp.pairwise(None, j, k)
    return {(x, y, z) for x, y, z in tuples if fi[x] * jk[y, z] != ij[x, y] * fk[z]}


def _identity(inp, w, tuples, i):
    fi = inp.images[i]
    return {(x,) for x, in tuples if fi[x] * ONE != fi[x]}


def _idempotence(inp, w, tuples, i):
    fi, ii = inp.images[i], inp.pairwise(w, i, i)
    return {(x,) for x, in tuples if ii[x, x] != fi[x]}


def _distributivity(inp, w, tuples, i, j, k):
    (alpha, beta), fi = inp.weights[w], inp.images[i]
    ij, ik, jk = inp.pairwise(None, i, j), inp.pairwise(None, i, k), inp.pairwise(w, j, k)
    return {(x, y, z) for x, y, z in tuples if fi[x] * jk[y, z] != alpha * ij[x, y] + beta * ik[x, z]}


def _order(inp, w, tuples, i, j, k, l):
    ik, jl = inp.pairwise(w, i, k), inp.pairwise(w, j, l)
    return {(x, y, z, u) for x, y, z, u in tuples if ik[x, z] > jl[y, u]}


def _scan(inp, test, arity, weighted):
    """Witnesses of a pointwise law over inp.combos(arity), and every weight
    when weighted.  A failing combination is a witness once per pair
    carrying a failing tuple, in element order; for the order laws
    (arity 0) it is one."""
    wit = []
    for idx in inp.combos(arity):
        tuples = inp.distinct(idx)
        labels = tuple(inp.fns[i].label for i in idx)
        for w in range(len(inp.weights)) if weighted else [None]:
            tag = labels + (str(inp.weights[w][0]),) if weighted else labels
            bad = test(inp, w, tuples, *idx)
            if bad:
                carried = zip(inp.pairs, zip(*[inp.cols[i] for i in idx]))
                wit += [tag + p for p, t in carried if t in bad] if arity else [tag]
    return wit


def _weak_comp(inp, inward):
    """WeakSharpComp (inward): a part of lower(a), f(lower(a), lower(b)) > f(a, b).
    WeakFlatComp: upper(a) part of a, f(a, b) > f(upper(a), upper(b))."""
    s, els = inp.s, inp.s.elements
    own, mapped = range(len(els)), [s._index[(s.lower if inward else s.upper)[a]] for a in els]
    first, second = (own, mapped) if inward else (mapped, own)
    wit = []
    for f in inp.fns:
        rows = f._ranked.rows
        for i in own:
            if s.part(els[first[i]], els[second[i]]):
                hi, lo = rows[second[i]], rows[first[i]]
                wit += [(f.label, els[i], els[j]) for j in own if hi[second[j]] > lo[first[j]]]
    return wit


def _r0_plus(inp):
    wit = []
    for f in inp.fns:
        gf = sigma(f).values
        wit += [(f.label, a, b) for a, b in inp.pairs if inp.s.part(a, b) and gf[a, b] != ONE]
    return wit


# Each law's check, which returns its witnesses, and the check's arguments after the inputs.
_LAW_CHECKS = {
    "Comm": (_scan, _comm, 2, False),
    "Assoc": (_scan, _assoc, 3, False),
    "Identity": (_scan, _identity, 1, False),
    "Idempotence": (_scan, _idempotence, 1, True),
    "Distributivity": (_scan, _distributivity, 3, True),
    "Order1": (_scan, _order, 0, False),
    "Order2": (_scan, _order, 0, True),
    "Top": (lambda inp: [(f.label,) for f, im in zip(inp.fns, inp.images) if im[-1] > ONE],),
    "WeakSharpComp": (_weak_comp, True),
    "WeakFlatComp": (_weak_comp, False),
    "R0Plus": (_r0_plus,),
}

LAW_ORDER = tuple(_LAW_CHECKS)


def check_laws(s: GranularSpace, fns: Sequence[InclusionFunction], alphas: Sequence[Fraction]) -> list[LawReport]:
    """Exhaustively verify the eleven algebra laws over fns and alphas.

    Everything is exact rational equality; a law report carries every
    falsifying tuple found, ordered by operands, weight, then element pair.
    The pointwise laws (Comm to Top) build no product or blend function:
    per operand combination they collect the distinct rank tuples over all
    pairs in integers, evaluate the law in Fractions once per tuple (and
    weight), and list the pairs carrying a failing tuple, in element order.
    Order1 and Order2 range over the pairs of pointwise comparable operands.
    """
    inp = _LawInputs(s, fns, alphas)
    return [_law(law, check(inp, *args)) for law, (check, *args) in _LAW_CHECKS.items()]


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
