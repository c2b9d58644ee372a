"""Operator algebra on inclusion functions.

Operations: pointwise product, convex sums, composition with the lower or
upper approximation (sharp, flat), the granule-mediated sum (sigma), the
constant-1 unit, pointwise powers and the pointwise order.  Each works on
the integer rows of its operands (numerators over one denominator) and
builds the rows of its result.  check_laws verifies the hemiring and order
laws by exhaustive exact evaluation in integers, and rif_failure_search
hunts for operations that leave the RIF class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul
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
from .space import GranularSpace, _bits, check_work, classify_flavor


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


_rows = InclusionFunction._of_rows


def top_function(s: GranularSpace) -> InclusionFunction:
    return _rows(s, [1] * len(s.elements) ** 2, 1, "top")


def otimes(f: InclusionFunction, g: InclusionFunction) -> InclusionFunction:
    s = _same_space(f, g)
    return _rows(s, list(map(mul, f.nums, g.nums)), f.den * g.den, f"otimes({f.label},{g.label})")


def oplus(alpha, f: InclusionFunction, g: InclusionFunction) -> InclusionFunction:
    alpha = _check_alpha(alpha)
    s = _same_space(f, g)
    # p/q * x/Df + (q-p)/q * y/Dg = (p*Dg*x + (q-p)*Df*y) / (q*Df*Dg)
    p, q = alpha.as_integer_ratio()
    a, b = p * g.den, (q - p) * f.den
    nums = [a * x + b * y for x, y in zip(f.nums, g.nums)]
    return _rows(s, nums, q * f.den * g.den, f"oplus({alpha},{f.label},{g.label})")


def _gather(f: InclusionFunction, to: list[int], name: str) -> InclusionFunction:
    """(a_i, a_j) -> f(a_to[i], a_to[j])."""
    n = len(to)
    rows = [f.nums[i * n:(i + 1) * n] for i in to]
    return _rows(f.space, [row[j] for row in rows for j in to], f.den, f"{name}({f.label})")


def sharp(f: InclusionFunction) -> InclusionFunction:
    return _gather(f, f.space.tables.lower, "sharp")


def flat(f: InclusionFunction) -> InclusionFunction:
    return _gather(f, f.space.tables.upper, "flat")


def sigma_degrees(f: InclusionFunction, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Numerators of sigma(f), over f.den, at the (i, j) element index pairs."""
    t, nums = f.space.tables, f.nums
    grans = [t.index[w] for w in f.space.granulation]
    parts = [[w * t.n for w in grans if t.parthood[w] >> a & 1] for a in range(t.n)]
    lows = t.lower
    return [max(nums[w + lows[j]] for w in parts[i]) if parts[i] else f.den for i, j in pairs]


def sigma(f: InclusionFunction) -> InclusionFunction:
    """Granule-mediated sum: best degree of a granule part of a inside the
    lower approximation of b, and 1 when a has no granule part."""
    nums = sigma_degrees(f, product(range(len(f.space.elements)), repeat=2))
    return _rows(f.space, nums, f.den, f"sigma({f.label})")


def power(f: InclusionFunction, n: int) -> InclusionFunction:
    if n < 1:
        raise ParameterError(f"exponent must be a positive integer, got {n}")
    return _rows(f.space, [x**n for x in f.nums], f.den**n, f"pow({f.label},{n})")


def leq(f: InclusionFunction, g: InclusionFunction) -> bool:
    _same_space(f, g)
    df, dg = f.den, g.den
    return all(x * dg <= y * df for x, y in zip(f.nums, g.nums))


# -- law verification --------------------------------------------------------


class _LawInputs:
    """The functions as the law checks read them: the axiom scans' ranks, in
    pair order, and sorted numerators, each function's denominator, their
    joint rank classes, and products or blends of two per distinct rank
    pair.

    A joint class is the tuple of every function's rank at one pair.  One
    pass over the n*n pairs collects the D distinct ones (D <= n*n, and
    usually far fewer), kept transposed in classes: classes[i][d] is the
    rank of f_i in the d-th class.  The distinct rank tuples of any operand
    combination are then a projection of the classes, read in O(D).
    """

    def __init__(self, s: GranularSpace, fns: Sequence[InclusionFunction], alphas: Sequence[Fraction]):
        self.s, self.fns, self.pairs = s, list(fns), list(s.pairs())
        for f in self.fns:
            if f.space != s:
                raise InputError(f"function {f.label!r} is not over the given space")
        self.alphas = list(map(_check_alpha, alphas))
        self.cols = [f._ranked.ranks for f in self.fns]
        self.images = [f._ranked.image for f in self.fns]
        self.dens = [f.den for f in self.fns]
        self.classes = list(zip(*set(zip(*self.cols))))
        self.made, self.seen = {}, {}

    def distinct(self, idx):
        """The distinct rank tuples of the functions idx over all pairs, kept
        for the laws that share operand tuples."""
        idx = tuple(idx)
        if idx not in self.seen:
            self.seen[idx] = set(zip(*[self.classes[i] for i in idx]))
        return self.seen[idx]

    def weight(self, w, i, j):
        """For the weight p/q: the blend of f_i and f_j has the numerator
        a*x + b*y over q*Di*Dj, where x and y are their numerators."""
        p, q = self.alphas[w].as_integer_ratio()
        return p * self.dens[j], (q - p) * self.dens[i], q

    def pairwise(self, w, i, j):
        """Numerators of f_i * f_j (w None), over Di*Dj, or of their blend at
        weight w, over q*Di*Dj, per distinct rank pair."""
        if (w, i, j) not in self.made:
            ni, nj, tuples = self.images[i], self.images[j], self.distinct((i, j))
            if w is None:
                self.made[w, i, j] = {(x, y): ni[x] * nj[y] for x, y in tuples}
            else:
                a, b, _ = self.weight(w, i, j)
                self.made[w, i, j] = {(x, y): a * ni[x] + b * nj[y] for x, y in tuples}
        return self.made[w, i, j]

    def combos(self, arity):
        """All operand index tuples of the arity; for 0, (f, h, f2, h2) with f <= h, f2 <= h2."""
        ops = range(len(self.fns))
        if arity:
            return product(ops, repeat=arity)
        ims, dens = self.images, self.dens
        below = [(i, j) for i in ops for j in ops
                 if all(ims[i][x] * dens[j] <= ims[j][y] * dens[i] for x, y in self.distinct((i, j)))]
        return [c + d for c in below for d in below]


# The pointwise laws: each takes the inputs, a weight index (None for an
# unweighted law), the distinct rank tuples of the operands and their
# indices, and returns the tuples that falsify the law.  Both sides of a
# law are compared as integers over one denominator.


def _comm(inp, w, tuples, i, j):
    ij, ji = inp.pairwise(None, i, j), inp.pairwise(None, j, i)
    return {(x, y) for x, y in tuples if ij[x, y] != ji[y, x]}


def _assoc(inp, w, tuples, i, j, k):
    ni, nk, ij, jk = inp.images[i], inp.images[k], inp.pairwise(None, i, j), inp.pairwise(None, j, k)
    return {(x, y, z) for x, y, z in tuples if ni[x] * jk[y, z] != ij[x, y] * nk[z]}


def _identity(inp, w, tuples, i):
    # top is 1/1, so f * top is x*1 over Di*1
    ni = inp.images[i]
    return {(x,) for x, in tuples if ni[x] * 1 != ni[x]}


def _idempotence(inp, w, tuples, i):
    # the blend over q*Di*Di against x/Di
    ni, ii, (_, _, q) = inp.images[i], inp.pairwise(w, i, i), inp.weight(w, i, i)
    return {(x,) for x, in tuples if ii[x, x] != q * inp.dens[i] * ni[x]}


def _distributivity(inp, w, tuples, i, j, k):
    # f_i * blend(f_j, f_k) against the blend of f_i*f_j and f_i*f_k, both over q*Di*Dj*Dk
    a, b, _ = inp.weight(w, j, k)
    ni, ij, ik, jk = inp.images[i], inp.pairwise(None, i, j), inp.pairwise(None, i, k), inp.pairwise(w, j, k)
    return {(x, y, z) for x, y, z in tuples if ni[x] * jk[y, z] != a * ij[x, y] + b * ik[x, z]}


def _order(inp, w, tuples, i, j, k, l):
    # f_i . f_k over (q*)Di*Dk against f_j . f_l over (q*)Dj*Dl
    ik, jl = inp.pairwise(w, i, k), inp.pairwise(w, j, l)
    left, right = inp.dens[j] * inp.dens[l], inp.dens[i] * inp.dens[k]
    return {(x, y, z, u) for x, y, z, u in tuples if ik[x, z] * left > jl[y, u] * right}


def _scan(inp, test, arity, weighted):
    """Witnesses of a pointwise law over inp.combos(arity), and every weight
    when weighted.  A failing combination is a witness once per pair
    carrying a failing tuple, in element order; for the order laws
    (arity 0) it is one."""
    wit = []
    for idx in inp.combos(arity):
        tuples = inp.distinct(idx)
        labels = tuple(inp.fns[i].label for i in idx)
        for w in range(len(inp.alphas)) if weighted else [None]:
            bad = test(inp, w, tuples, *idx)
            if bad:
                tag = labels + (str(inp.alphas[w]),) if weighted else labels
                carried = zip(inp.pairs, zip(*[inp.cols[i] for i in idx]))
                wit += [tag + p for p, t in carried if t in bad] if arity else [tag]
    return wit


def _weak_comp(inp, inward):
    """WeakSharpComp (inward): a part of lower(a), f(lower(a), lower(b)) > f(a, b).
    WeakFlatComp: upper(a) part of a, f(a, b) > f(upper(a), upper(b))."""
    t, els = inp.s.tables, inp.s.elements
    own, mapped = range(len(els)), t.lower if inward else t.upper
    first, second = (own, mapped) if inward else (mapped, own)
    wit = []
    for f in inp.fns:
        rows = f._ranked.rows
        for i in own:
            if t.parthood[first[i]] >> second[i] & 1:
                hi, lo = rows[second[i]], rows[first[i]]
                wit += [(f.label, els[i], els[j]) for j in own if hi[second[j]] > lo[first[j]]]
    return wit


def _r0_plus(inp):
    """(f, a, b) with a part of b and sigma(f)(a, b) != 1, read only at the parthood pairs."""
    els = inp.s.elements
    related = [(i, j) for i, m in enumerate(inp.s.tables.parthood) for j in _bits(m)]
    wit = []
    for f in inp.fns:
        degrees = sigma_degrees(f, related)
        wit += [(f.label, els[i], els[j]) for (i, j), d in zip(related, degrees) if d != f.den]
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
    "Top": (lambda inp: [(f.label,) for f, im, d in zip(inp.fns, inp.images, inp.dens) if im[-1] > d],),
    "WeakSharpComp": (_weak_comp, True),
    "WeakFlatComp": (_weak_comp, False),
    "R0Plus": (_r0_plus,),
}

LAW_ORDER = tuple(_LAW_CHECKS)


def check_laws(s: GranularSpace, fns: Sequence[InclusionFunction], alphas: Sequence[Fraction]) -> list[LawReport]:
    """Exhaustively verify the eleven algebra laws over fns and alphas.

    Everything is exact integer equality; a law report carries every
    falsifying tuple found, ordered by operands, weight, then element pair.
    Each function is read as its integer rows: sorted numerators over its
    denominator, and each pair's numerator rank.  The pointwise laws (Comm
    to Top) build no product or blend function: per operand combination
    they collect the distinct rank tuples over all pairs, compare both
    sides once per tuple (and weight) as numerators over one denominator,
    and list the pairs carrying a failing tuple, in element order.  Order1
    and Order2 range over the pairs of pointwise comparable operands.

    The distinct tuples come from one pass over the pairs that collects the
    joint rank classes of all the functions (D of them, D <= n*n); each
    combination projects them, so it costs O(D), not O(n*n).  The call is
    refused with SizeError, before anything is read, when check_work's
    estimate for the space, functions and weights exceeds the budget.
    """
    check_work(len(s.elements), len(fns), len(alphas))
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

    Functions are classified once per canonical form (den, nums): the form
    is canonical, so equal keys are pointwise-equal functions with one
    class.  otimes is commutative, so f*g and g*f share one key, and a
    product of pool members often equals one already classified.
    """
    if classify_flavor(s) != "setHGOS":
        raise InputError("closure search expects a set-based hemiring space")
    if budget < 1:
        raise ParameterError(f"budget must be positive, got {budget}")
    rng = Random(seed)
    classes: dict[tuple[int, tuple[int, ...]], str] = {}

    def class_of(f: InclusionFunction) -> str:
        key = (f.den, tuple(f.nums))
        if key not in classes:
            classes[key] = classify(f)
        return classes[key]

    base = [k0(s), k1(s), k2(s)]
    pool = [f for f in base if class_of(f) == "RIF"]
    for f in base:
        for g in base:
            prod = otimes(f, g)
            if class_of(prod) == "RIF" and not any(prod.pointwise_equal(p) for p in pool):
                pool.append(prod)
    if not pool:
        raise InputError("no RIF could be built on this space")

    otimes_checked = 0
    otimes_counterexample = None
    for f in pool:
        for g in pool:
            prod = otimes(f, g)
            otimes_checked += 1
            if class_of(prod) != "RIF":
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
    # add c * t = p/q * y/T to the sum x/den: (x*q*T + p*den*y) / (den*q*T)
    nums, den = [0] * len(terms[0].nums), 1
    for c, t in zip(coeffs, terms):
        p, q = c.as_integer_ratio()
        a, b = q * t.den, p * den
        nums = [a * x + b * y for x, y in zip(nums, t.nums)]
        den *= q * t.den
    label = "+".join(f"{c}*{f.label}^{n}" for c, n, f in zip(coeffs, powers, fns))
    return _rows(s, nums, den, f"poly({label})")


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
