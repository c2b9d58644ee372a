"""Operator algebra on inclusion functions.

Operations: pointwise product, convex sums, composition with the lower or
upper approximation (sharp, flat), the granule-mediated sum (sigma), the
constant-1 unit, pointwise powers and the pointwise order.  Each works on
the integer rows of its operands (numerators over one denominator) and
builds the rows of its result.  check_laws reports the hemiring and order
laws from their proof and scans the laws of sharp, flat and sigma exactly
in integers, and rif_failure_search hunts for sharp images that leave the
RIF class and reports closure under products and convex sums from its proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, compress
from math import gcd, lcm
from operator import gt, mul, or_
from typing import Iterable, Optional, Sequence

from .errors import InputError, ParameterError
from .inclusion import ONE, InclusionFunction, _row_mask, check_rif_axiom, k0, k1, k2
from .space import GranularSpace, _bits, _kept, check_work, classify_flavor


@dataclass(frozen=True)
class LawReport:
    """Verdict for one law: holds iff the witness list is empty."""

    law: str
    witnesses: tuple[tuple[str, ...], ...]

    @property
    def holds(self) -> bool:
        return not self.witnesses


def _same_space(f: InclusionFunction, g: InclusionFunction) -> GranularSpace:
    if f.space != g.space:
        raise InputError(f"functions {f.label!r} and {g.label!r} live on different spaces")
    return f.space


def _check_alpha(alpha) -> Fraction:
    if type(alpha) is not Fraction:
        alpha = Fraction(alpha)
    p, q = alpha.as_integer_ratio()  # q > 0
    if not 0 <= p <= q:
        raise ParameterError(f"weight must lie in [0,1], got {alpha}")
    return alpha


# Every operator builds its result through _of_rows, which reduces the
# rows but does not range-check them: each operator's docstring proves
# its values lie in [0,1] when its operands' do.
_rows = InclusionFunction._of_rows


def top_function(s: GranularSpace) -> InclusionFunction:
    """The constant 1, the unit of otimes."""
    return _rows(s, [1] * len(s.elements) ** 2, 1, "top")


def otimes(f: InclusionFunction, g: InclusionFunction) -> InclusionFunction:
    """Pointwise product.  In [0,1]: 0 <= x <= Df and 0 <= y <= Dg give
    0 <= x*y <= Df*Dg."""
    s = _same_space(f, g)
    return _rows(s, list(map(mul, f.nums, g.nums)), f.den * g.den, f"otimes({f.label},{g.label})")


def oplus(alpha, f: InclusionFunction, g: InclusionFunction) -> InclusionFunction:
    """Convex sum alpha*f + (1-alpha)*g.  In [0,1]: with 0 <= p <= q,
    both weights below are non-negative and the sum is at most
    p*L + (q-p)*L = q*L.  At weight 1 or 0 the sum is f or g, whose rows
    are canonical already."""
    alpha = _check_alpha(alpha)
    s = _same_space(f, g)
    label = f"oplus({alpha},{f.label},{g.label})"
    # with L = lcm(Df, Dg): p/q * x/Df + (q-p)/q * y/Dg = (p*(L/Df)*x + (q-p)*(L/Dg)*y) / (q*L)
    p, q = alpha.as_integer_ratio()
    if p in (0, q):
        h = f if p else g
        return _rows(s, h.nums, h.den, label, reduced=True)
    den = lcm(f.den, g.den)
    a, b = p * (den // f.den), (q - p) * (den // g.den)
    nums = [a * x + b * y for x, y in zip(f.nums, g.nums)]
    return _rows(s, nums, q * den, label)


def _of_distinct_rows(s: GranularSpace, keys: list, rows: dict, den: int, label: str) -> InclusionFunction:
    """The function whose row i is rows[keys[i]], where keys names every
    row of rows: those rows hold every value, so the gcd is taken, and the
    division done, over them alone, and the result is already reduced."""
    g = gcd(den, *chain.from_iterable(rows.values()))
    if g != 1:
        den //= g
        rows = {k: [x // g for x in row] for k, row in rows.items()}
    return _rows(s, list(chain.from_iterable(map(rows.__getitem__, keys))), den, label, reduced=True)


def _gather(f: InclusionFunction, to: list[int], name: str) -> InclusionFunction:
    """(a_i, a_j) -> f(a_to[i], a_to[j]), gathering each distinct row once."""
    n, nums = len(to), f.nums
    rows = {i: list(map(nums[i * n:(i + 1) * n].__getitem__, to)) for i in set(to)}
    return _of_distinct_rows(f.space, to, rows, f.den, f"{name}({f.label})")


def sharp(f: InclusionFunction) -> InclusionFunction:
    """f(lower(a), lower(b)): values of f, so in [0,1]."""
    return _gather(f, f.space.lower, "sharp")


def flat(f: InclusionFunction) -> InclusionFunction:
    """f(upper(a), upper(b)): values of f, so in [0,1]."""
    return _gather(f, f.space.upper, "flat")


@_kept
def _granule_parts(s: GranularSpace) -> list[tuple[int, ...]]:
    """Each a_i's granule parts, as the offsets w * n of their rows in nums."""
    n, grans = len(s.elements), [s._index[w] for w in s.granulation]
    return [tuple(w * n for w in grans if s.parthood[w] >> a & 1) for a in range(n)]


def sigma(f: InclusionFunction) -> InclusionFunction:
    """Granule-mediated sum: best degree of a granule part of a inside the
    lower approximation of b, and 1 when a has no granule part.  In
    [0,1]: every value is a value of f or 1.  Row i, built once per
    distinct part set, is the elementwise max at lower(b) of the rows of
    a_i's granule parts (the first one twice, so max gets two)."""
    nums, n, lows, parts = f.nums, len(f.space.elements), f.space.lower, _granule_parts(f.space)
    rows = {p: list(map(max, *(map(nums[w:w + n].__getitem__, lows) for w in (p[0], *p)))) if p else [f.den] * n
            for p in set(parts)}
    return _of_distinct_rows(f.space, parts, rows, f.den, f"sigma({f.label})")


def power(f: InclusionFunction, n: int) -> InclusionFunction:
    """Pointwise n-th power.  In [0,1]: 0 <= x <= D gives 0 <= x**n <= D**n.
    Already reduced: a prime dividing D**n and every x**n divides D and
    every x, and f is reduced."""
    if n < 1:
        raise ParameterError(f"exponent must be a positive integer, got {n}")
    return _rows(f.space, [x**n for x in f.nums], f.den**n, f"pow({f.label},{n})", reduced=True)


def leq(f: InclusionFunction, g: InclusionFunction) -> bool:
    _same_space(f, g)
    df, dg = f.den, g.den
    return all(x * dg <= y * df for x, y in zip(f.nums, g.nums))


# -- law verification --------------------------------------------------------


@_kept
def _weak_comp_offsets(s: GranularSpace, inward: bool) -> tuple[list[int], list[int], list[int]]:
    """The pairs (a_i, a_j) where _weak_comp compares, as i * n + j, then
    the offsets in nums of its greater and its lesser side at each."""
    n = len(s.elements)
    own, mapped = range(n), s.lower if inward else s.upper
    first, second = (own, mapped) if inward else (mapped, own)
    pairs = [i * n + j for i in own if s.parthood[first[i]] >> second[i] & 1 for j in own]
    return pairs, [second[k // n] * n + second[k % n] for k in pairs], [first[k // n] * n + first[k % n] for k in pairs]


def _weak_comp(s: GranularSpace, fns: Sequence[InclusionFunction], inward: bool) -> list[tuple[str, ...]]:
    """WeakSharpComp (inward): a part of lower(a), f(lower(a), lower(b)) > f(a, b).
    WeakFlatComp: upper(a) part of a, f(a, b) > f(upper(a), upper(b))."""
    els, n = s.elements, len(s.elements)
    pairs, greater, lesser = _weak_comp_offsets(s, inward)
    wit = []
    for f in fns:
        get = f.nums.__getitem__
        flagged = compress(pairs, map(gt, map(get, greater), map(get, lesser)))
        wit += [(f.label, els[k // n], els[k % n]) for k in flagged]
    return wit


@_kept
def _r0_plus_columns(s: GranularSpace) -> tuple[Optional[list[int]], dict[int, int]]:
    """What _r0_plus reads of s: the offsets g + x of its verdict, None
    unless each part set tested is one granule, and per lower(b) the mask
    of its b.  p is not tested where p less one granule is a part set q
    with need[p] within need[q], as U[q] lies within U[p]."""
    needs, lowered = {}, {}
    for b, x in enumerate(s.lower):
        lowered[x] = lowered.get(x, 0) | 1 << b
    for a, p in enumerate(_granule_parts(s)):
        if p:
            needs[p] = needs.get(p, 0) | sum({1 << s.lower[b] for b in _bits(s.parthood[a])})
    tested = [(p, need) for p, need in needs.items()
              if all(need & ~needs.get(p[:k] + p[k + 1:], 0) for k in range(len(p)))]
    return (None if any(len(p) > 1 for p, _ in tested)
            else [p[0] + x for p, need in tested for x in _bits(need)], lowered)


def _r0_plus(s: GranularSpace, fns: Sequence[InclusionFunction]) -> list[tuple[str, ...]]:
    """R0Plus by the masks of check_laws's docstring, bit j for column j.
    When each part set p tested is one granule g, as on power sets, f holds
    when its least value at the kept offsets g + x, x in need[p], is 1.
    Else, and when f fails, its witnesses are read per element a off the
    mask of the b whose lower(b) lies outside U[p]."""
    (at, lowered), els, n, parts = _r0_plus_columns(s), s.elements, len(s.elements), _granule_parts(s)
    wit = []
    for f in fns:
        nums, den = f.nums, f.den
        if at is not None and min(map(nums.__getitem__, at), default=den) == den:
            continue
        ones = {w: _row_mask(nums[w:w + n], den) for w in set(chain.from_iterable(parts))}
        covered = {p: reduce(or_, map(ones.__getitem__, p)) for p in set(parts) if p}
        outside = {p: sum(m for x, m in lowered.items() if not u >> x & 1) for p, u in covered.items()}
        wit += [(f.label, els[a], els[b]) for a, p in enumerate(parts) if p for b in _bits(s.parthood[a] & outside[p])]
    return wit


# check_laws proves the first eight laws (see its docstring) and scans the
# last three: each maps to its check, which returns the witnesses, and the
# check's arguments after the space and the functions.
_PROVED_LAWS = ("Comm", "Assoc", "Identity", "Idempotence", "Distributivity", "Order1", "Order2", "Top")
_LAW_CHECKS = {
    "WeakSharpComp": (_weak_comp, True),
    "WeakFlatComp": (_weak_comp, False),
    "R0Plus": (_r0_plus,),
}

LAW_ORDER = _PROVED_LAWS + tuple(_LAW_CHECKS)


def check_laws(s: GranularSpace, fns: Sequence[InclusionFunction], alphas: Sequence[Fraction]) -> list[LawReport]:
    """Verify the eleven algebra laws over fns and alphas, in LAW_ORDER.

    Comm, Assoc, Identity, Idempotence, Distributivity, Order1, Order2 and
    Top are theorems, reported holding with no witness and not scanned.
    Each compares, at each element pair on its own, exact rational
    expressions in the operands' values there and a weight w, and every
    such value lies in [0,1]: an InclusionFunction is refused when it is
    made with a value outside [0,1], and a weight outside [0,1] is refused
    here.  Rational multiplication commutes (Comm), associates (Assoc) and
    has the unit 1, top's value everywhere (Identity); w*x + (1-w)*x = x
    (Idempotence); x*(w*y + (1-w)*z) = w*(x*y) + (1-w)*(x*z)
    (Distributivity); for 0 <= x <= y and 0 <= z <= u, x*z <= y*u (Order1)
    and, with 0 <= w <= 1, w*x + (1-w)*z <= w*y + (1-w)*u (Order2), so
    products and blends of pointwise comparable operands stay comparable;
    and no value exceeds 1 (Top).

    WeakSharpComp, WeakFlatComp and R0Plus, the laws of sharp, flat and
    sigma, depend on the space's approximations and granules and are
    scanned exactly in each function's integer rows.  R0Plus reads f at
    granule rows only: every value is at most 1, so sigma(f)(a, b) == 1
    exactly when a has no granule part, or some granule part g of a has
    f(g, lower(b)) == 1.  So with U[p] the columns where f is 1 in some
    row g of a part set p, and need[p] the lower(b) of every b above an a
    whose granule parts are p, R0Plus holds exactly when need[p] lies
    within U[p] for every nonempty p.  A report carries every falsifying
    (function, a, b), in the order of fns, then of a, then of b.
    Functions not over s raise InputError and weights outside [0,1]
    ParameterError; the call is refused with SizeError, before either is
    read, when check_work's estimate for the space and functions exceeds
    the budget.
    """
    check_work(len(s.elements), len(fns))
    for f in fns:
        if f.space != s:
            raise InputError(f"function {f.label!r} is not over the given space")
    for alpha in alphas:
        _check_alpha(alpha)
    return [*_PROVED_REPORTS, *(_law(law, check(s, fns, *args)) for law, (check, *args) in _LAW_CHECKS.items())]


def _law(law: str, witnesses: Iterable[tuple[str, ...]]) -> LawReport:
    return LawReport(law, tuple(witnesses))


# frozen and without witnesses, so every call returns these same reports
_PROVED_REPORTS = tuple(_law(law, ()) for law in _PROVED_LAWS)


# -- RIF closure and failure search ------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the closure-failure hunt on one space.

    sharp_witness, (description, falsifying pairs) or None, is the only
    field found by a scan; the other fields after rif_pool are reported
    from the theorems in rif_failure_search's docstring.
    """

    rif_pool: tuple[str, ...]
    trials: int
    oplus_witness: Optional[tuple[str, tuple[tuple[str, ...], ...]]]
    sharp_witness: Optional[tuple[str, tuple[tuple[str, ...], ...]]]
    otimes_checked: int
    otimes_counterexample: Optional[str]


# the search builds k0, k1, k2, their six unordered products and a sharp image of each
_SEARCH_FUNCTIONS = 3 + 6 + 9


def rif_failure_search(s: GranularSpace, budget: int) -> SearchResult:
    """Search for sharp images of RIFs breaking R1; report closure of the
    RIF class under products and convex sums from its proof.

    The pool is k0, k1 and k2, then the distinct products of pairs of
    them.  k0, k1 and k2 are RIFs on every setHGOS space by the theorem in
    inclusion._from_carriers, so they are not classified: parthood there is
    inclusion of carriers, an empty carrier gives 1 and lies inside every
    carrier, and k2 is refused unless top's carrier is nonempty and holds
    every carrier.  With values in [0,1]:
    - f*g == 1 exactly where f == 1 and g == 1, so R1 for f and g gives R1
      for f*g; where f*g(b,c) == 1, f(a,b) <= f(a,c) and g(a,b) <= g(a,c)
      by R2, and products of non-negative values keep the order, so R2
      holds too.  Products of RIFs are RIFs: otimes_checked is
      len(pool)**2, otimes_counterexample None, and the pool's products
      are not classified.
    - For a weight w in (0,1), w*f + (1-w)*g == 1 exactly where f == 1
      and g == 1, and at w = 0 or 1 the sum is one of the operands, so
      every blend of pool members keeps R1: trials is budget and
      oplus_witness None.
    sharp_witness is the first pool member's sharp image that fails R1,
    with every pair it fails at.  Nothing is drawn at random.
    A budget below 1 raises ParameterError, then check_work's count of
    the functions built may raise SizeError, then a space that is not
    setHGOS raises InputError, then k2 raises DegenerateSpaceError for an
    empty top carrier and InputError for a carrier outside top's.
    """
    if budget < 1:
        raise ParameterError(f"budget must be positive, got {budget}")
    check_work(len(s.elements), _SEARCH_FUNCTIONS)
    if classify_flavor(s) != "setHGOS":
        raise InputError("closure search expects a set-based hemiring space")
    rifs = [k0(s), k1(s), k2(s)]
    pool = list(rifs)
    for i, f in enumerate(rifs):
        for g in rifs[i:]:
            prod = otimes(f, g)
            if not any(prod.pointwise_equal(p) for p in pool):
                pool.append(prod)
    sharp_witness = None
    for f in pool:
        sf = sharp(f)
        report = check_rif_axiom(sf, "R1")
        if not report.holds:
            sharp_witness = (sf.label, report.witnesses)
            break
    return SearchResult(
        rif_pool=tuple(f.label for f in pool), trials=budget, oplus_witness=None,
        sharp_witness=sharp_witness, otimes_checked=len(pool) ** 2, otimes_counterexample=None,
    )


# -- convex polynomials and weight fitting ------------------------------------


def convex_polynomial(
    coeffs: Sequence[Fraction],
    powers: Sequence[int],
    fns: Sequence[InclusionFunction],
) -> InclusionFunction:
    """Pointwise sum of coeff * fn**power with coefficients summing to 1.
    In [0,1]: each power lies in [0,1] (see power), and a sum of them with
    weights in [0,1] that sum to 1 lies between their least and greatest."""
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
        hab = h(a, b)
        df = f(a, b) - hab
        num += (target - hab) * df
        den += df * df
    if den == 0:
        return Fraction(1, 2)
    alpha = num / den
    return min(max(alpha, Fraction(0)), ONE)
