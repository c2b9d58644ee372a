"""Inclusion functions over a space and the axiom families that grade them.

An inclusion function assigns every ordered element pair a rational degree
in [0,1].  It is stored as integer rows: one numerator per pair, in
s.pairs() order, over one common denominator.  The axioms U1, R0, R1, R2,
R3, R4, R5, R6, IR0, IR4 and RB are checked by exhaustive enumeration;
axioms that mention the partial join or meet skip (and count) instances
where the operation is undefined.

The scans run over element indices and read a function's integer rows as
they are, rounding and converting nothing: numerators over one denominator
den compare exactly as the values do, 1 is den, 0 is 0, and R6's
f(a,b) + f(a,c) == 1 is f(a,c)'s numerator equal to den - f(a,b)'s.  Each
axiom has one kernel that reads a row (a, or a and b) as a bitmask of its
offending last elements, combining row masks: where f is 0, 1, or equal to
or below a numerator, and where the relation holds, meets are bottom or
undefined and joins are top.  R2 and R3 at (a, b) are one AND:
below_a[f(a,b)] & the c with f(b,c) == 1, resp. related to b.
check_rif_axiom lists the witnesses of the flagged rows the kernel yields;
verify_prif and classify read verdicts, which stop at the first one.  A
row's masks of f are built when a scan first reaches the row, so a verdict
builds only the rows up to its stop.

Theorem: where R1 holds under a relation P, R2 and R3 under P are one
statement.  R1 says f(b,c) == 1 exactly where P(b,c), so for every b the
c with f(b,c) == 1 are the c with P(b,c): R2's and R3's groups (b, c...)
are equal, and so are their scans, witnesses and verdicts.  R2 reads no
relation at all, so a function's R2 verdict is scanned once and kept on
its axiom rows, and R3 reads it under every relation whose masks equal
R1's masks of f.

Class names: RIF requires R1 and R2, qRIF requires R0 and R2, wqRIF
requires R0 and R3.  classify returns the most specific one.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from math import gcd, lcm
from operator import attrgetter, eq, mul
from random import Random
from typing import Optional

from .errors import (
    CarrierError,
    DegenerateSpaceError,
    InputError,
    ParameterError,
)
from .space import AxiomReport, GranularSpace, _bits, _kept, classify_flavor

ONE = Fraction(1)
ZERO = Fraction(0)

RIF_AXIOM_ORDER = ("U1", "R0", "R1", "R2", "R3", "R4", "R5", "R6", "IR0", "IR4", "RB")

CLASS_ORDER = ("none", "wqRIF", "qRIF", "RIF")

# The parts of a Fraction, read from its slots in C rather than through
# the numerator and denominator properties, a Python call each.
_numerator, _denominator = attrgetter("_numerator"), attrgetter("_denominator")


class InclusionFunction:
    """Total rational-valued map on ordered element pairs, range [0,1].

    The value at the k-th pair of space.pairs() is nums[k] / den, and the
    form is canonical, gcd(den, *nums) == 1, so functions on one space are
    pointwise equal exactly when their den and nums are.  values is the
    same map as a dict of Fractions keyed by pair, built on first use.

    A function is made from a table of values (the constructor) or from
    integer rows an operator built (_of_rows).  Each path does only the
    work its source leaves open.  The constructor reads, converts and
    scales the table, then refuses a value outside [0,1].  It takes no gcd:
    for reduced values p_i/q_i over L = lcm(q_i), gcd(L, *p_i*(L//q_i)) is
    1, as every prime r dividing L divides some q_i as often as it divides
    L, so r divides neither L//q_i nor p_i, which is prime to q_i.
    """

    def __init__(self, space: GranularSpace, values: Mapping[tuple[str, str], Fraction], label: str):
        # C-level passes: read, convert unless all are Fractions, scale to
        # one den.  A mapping whose keys run in pair order is read by its
        # values, checked in one streaming pass; anything else by key.
        n = len(space.elements)
        if isinstance(values, Mapping) and len(values) == n * n and all(map(eq, values, space.pairs())):
            vals = list(values.values())
        else:
            try:
                vals = list(map(values.__getitem__, space.pairs()))
            except KeyError:
                # found by lookup, as a table may have no `in` of its own
                for a, b in space.pairs():
                    try:
                        values[a, b]
                    except KeyError:
                        raise InputError(f"value missing for pair ({a!r},{b!r})") from None
                raise
        if set(map(type, vals)) != {Fraction}:
            vals = list(map(Fraction, vals))
        qs = list(map(_denominator, vals))
        dens = set(qs)
        den = lcm(*dens)
        scale = {q: den // q for q in dens}.__getitem__
        nums = list(map(mul, map(_numerator, vals), map(scale, qs)))
        _refuse_out_of_range(space, nums, den)
        self.space, self.label, self.nums, self.den = space, label, nums, den

    @classmethod
    def _of_rows(cls, space: GranularSpace, nums: list[int], den: int, label: str,
                 reduced: bool = False) -> "InclusionFunction":
        """The function with value nums[k] / den at the k-th pair of
        space.pairs(), for rows whose builder proves each value lies in
        [0,1]: they are not range-checked.  They are reduced to canonical
        form unless reduced says the builder already did.  The gcd runs
        over the wrapped diagonals nums[k::n+1], each of which meets every
        row and column, and stops once it is 1: the first rows of a power
        set are its smallest carriers, whose values share factors."""
        g, step = 1 if reduced else den, len(space.elements) + 1
        for k in range(step):
            if g == 1:
                break
            g = gcd(g, *nums[k::step])
        if g != 1:
            den //= g
            nums = [x // g for x in nums]
        f = cls.__new__(cls)
        f.space, f.label, f.nums, f.den = space, label, nums, den
        return f

    @cached_property
    def values(self) -> dict[tuple[str, str], Fraction]:
        den = self.den
        return {p: Fraction(x, den) for p, x in zip(self.space.pairs(), self.nums)}

    def __call__(self, a: str, b: str) -> Fraction:
        s = self.space
        return Fraction(self.nums[s._index_of(a) * len(s.elements) + s._index_of(b)], self.den)

    def image(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in sorted(set(self.nums)))

    def image_gap(self) -> Optional[Fraction]:
        """Largest value strictly below 1, None when the image is {1} or empty."""
        gap = max((x for x in self.nums if x < self.den), default=None)
        return None if gap is None else Fraction(gap, self.den)

    @cached_property
    def _axiom_rows(self) -> "_AxiomRows":
        # Built on the first axiom check and shared by the later ones; the
        # rows are never changed after construction.
        return _AxiomRows(self)

    def pointwise_equal(self, other: "InclusionFunction") -> bool:
        return (self.den == other.den and self.nums == other.nums
                and self.space.elements == other.space.elements)

    def __repr__(self):
        return f"InclusionFunction({self.label!r}, {len(self.nums)} pairs)"


def _refuse_out_of_range(space: GranularSpace, nums: list[int], den: int) -> None:
    """InputError naming the first pair whose value nums[k] / den leaves [0,1]."""
    if min(nums) < 0 or max(nums) > den:
        k = next(k for k, x in enumerate(nums) if not 0 <= x <= den)
        a, b = list(space.pairs())[k]
        raise InputError(f"value {Fraction(nums[k], den)} at ({a!r},{b!r}) is outside [0,1]")


# -- concrete constructions ------------------------------------------------
#
# Each builder proves its values lie in [0,1] and builds through _of_rows.


def _from_carriers(build):
    """The base function that build(s) -> (nums, den) makes from the
    carrier masks and top's carrier of s alone, labelled with build's name.
    It is built once per space and kept (_kept): every call returns the
    same function, which nothing changes, so its axiom rows and R2 verdict
    are built once per space too.  A refused build keeps nothing.

    Theorem (Gomolinska, "On three closely related rough inclusion
    functions", 2007): where parthood is inclusion of carriers, as on every
    setHGOS space, k0, k1 and k2 are RIFs.  Each is 1 exactly where A is a
    subset of B (R1): each is 1 where A is empty, and the empty set is a
    subset of every set.  Each is monotone in B (R2).  k2 needs top's
    carrier to be nonempty and to hold every carrier, and it is refused
    otherwise.  R0 follows from R1 and R3 from R1 and R2."""
    label = build.__name__

    @wraps(build)
    def base(s: GranularSpace) -> InclusionFunction:
        return InclusionFunction._of_rows(s, *build(s), label)

    return _kept(base)


@_from_carriers
def k0(s: GranularSpace) -> tuple[list[int], int]:
    """Classical overlap degree #(A and B)/#A, and 1 when A is empty.
    In [0,1]: A and B is a subset of A.  A RIF on a setHGOS space (see
    _from_carriers): #(A and B) == #A exactly when A is a subset of B, and
    A and B grows with B."""
    masks, den = _carrier_masks(s)
    nums = []
    for ma in masks:
        if ma:
            unit = den // ma.bit_count()
            nums += [(ma & mb).bit_count() * unit for mb in masks]
        else:
            nums += [den] * len(masks)
    return nums, den


@_from_carriers
def k1(s: GranularSpace) -> tuple[list[int], int]:
    """#B/#(A or B), and 1 when both are empty.  In [0,1]: B is a subset
    of A or B.  A RIF on a setHGOS space (see _from_carriers): #B ==
    #(A or B) exactly when A is a subset of B, and as B grows its part
    outside A grows and the part of A outside B shrinks."""
    masks, den = _carrier_masks(s)
    return [mb.bit_count() * (den // (ma | mb).bit_count()) if ma | mb else den
            for ma in masks for mb in masks], den


@_from_carriers
def k2(s: GranularSpace) -> tuple[list[int], int]:
    """#(complement(A) or B)/#top, complements taken inside the top carrier.
    In [0,1] when every carrier lies inside top's: complement(A) or B is
    then a subset of top.  A space where some carrier does not is refused
    with InputError naming the first such element.  A RIF on a setHGOS
    space it builds on (see _from_carriers): complement(A) or B is top
    exactly when A is a subset of B, and it grows with B."""
    masks, _ = _carrier_masks(s)
    universe = masks[s._index[s.top]]
    if not universe:
        raise DegenerateSpaceError("k2 needs a nonempty top carrier")
    for e, m in zip(s.elements, masks):
        if m & ~universe:
            raise InputError(f"k2 needs every carrier inside the top carrier {s.render(s.top)}; "
                             f"{e!r} has {s.render(e)}")
    return [((universe & ~ma) | mb).bit_count() for ma in masks for mb in masks], universe.bit_count()


def kst(f: InclusionFunction, s: Fraction, t: Fraction) -> InclusionFunction:
    """Threshold transform: 0 up to s, affine ramp on (s,t), 1 from t on.
    In [0,1]: on the ramp s < v < t, so 0 < (v - s)/(t - s) < 1.  Each
    distinct numerator of f is mapped once, and the result reduced over
    the mapped values, which are exactly its values."""
    s = s if type(s) is Fraction else Fraction(s)
    t = t if type(t) is Fraction else Fraction(t)
    # With v = x/D, s = sp/sq and t = tp/tq, sq and tq > 0: v <= s iff x*sq <= sp*D,
    # v >= t iff x*tq >= tp*D, and (v - s)/(t - s) = (x*sq - sp*D)*tq / (D*(tp*sq - sp*tq)).
    (sp, sq), (tp, tq) = s.as_integer_ratio(), t.as_integer_ratio()
    if sp < 0 or tp > tq:
        raise ParameterError(f"thresholds must satisfy 0 <= s < t <= 1, got s={s}, t={t}")
    if sp * tq >= tp * sq:
        raise ParameterError(f"thresholds must satisfy s < t, got s={s}, t={t}")
    low, high, den = sp * f.den, tp * f.den, f.den * (tp * sq - sp * tq)
    ramp = {x: 0 if x * sq <= low else den if x * tq >= high else (x * sq - low) * tq for x in set(f.nums)}
    g = gcd(den, *ramp.values())
    ramp = {x: y // g for x, y in ramp.items()}
    return InclusionFunction._of_rows(f.space, list(map(ramp.__getitem__, f.nums)), den // g,
                                      f"kst({f.label},{s},{t})", reduced=True)


def _carrier_masks(s: GranularSpace) -> tuple[list[int], int]:
    """Each element's carrier as a bitmask over the objects, in element
    order, and lcm(1, ..., number of objects), a common denominator of
    every ratio of carrier sizes."""
    if s.carrier_masks is None:
        raise CarrierError(f"elements without carriers: {[e for e in s.elements if e not in s.carriers]}")
    return s.carrier_masks, lcm(*range(1, len(s.objects) + 1))


# -- axiom checking ----------------------------------------------------------


class _AxiomRows:
    """f by element index: rows[i] is the slice of f.nums at (a_i, a_j) for
    every j, over f's denominator den, and bits[j] is 1 << j.  Each row's
    masks are built on its first read: ones[i] and zeros[i] have bit j set
    iff f(a_i, a_j) == 1, resp. == 0, one_groups[j] is (j, ones[j], its set
    bits), and masks[i] gives row i's numerator masks.  order_verdict is the
    verdict of R2's order scan once one was read, else None."""

    def __init__(self, f: InclusionFunction):
        n, nums = len(f.space.elements), f.nums
        self.den = den = f.den
        self.rows = rows = [nums[i * n:(i + 1) * n] for i in range(n)]
        self.bits = bits = [1 << j for j in range(n)]
        self.ones = ones = _Lazy(n, lambda i: _row_mask(rows[i], den))
        self.zeros = _Lazy(n, lambda i: _row_mask(rows[i], 0))
        self.one_groups = _Lazy(n, lambda j: (j, m := ones[j], _bits(m)))
        self.masks = _Lazy(n, lambda i: _value_masks(rows[i], bits))
        self.order_verdict: Optional[bool] = None


class _Lazy:
    """n items, item i made as make(i) on its first read.  Iterating makes
    each as it is reached, or reads the list once every item is made."""

    def __init__(self, n: int, make):
        self.items, self.make, self.unmade = [None] * n, make, n

    def __getitem__(self, i: int):
        x = self.items[i]
        if x is None:
            x = self.items[i] = self.make(i)
            self.unmade -= 1
        return x

    def __iter__(self):
        return map(self.__getitem__, range(len(self.items))) if self.unmade else iter(self.items)


class _SpaceRows:
    """What the axiom scans need from a space under one relation, by
    element index: each element a_j as the tuple last[j] == (a_j,) that
    ends a witness, the relation as row bitmasks and groups, the elements
    strictly above bottom, the j whose meet with a_i is bottom, resp.
    undefined, the groups of the c whose join with b is top, and the number
    of undefined joins."""

    def __init__(self, s: GranularSpace, relation: str):
        self.last = [(e,) for e in s.elements]
        self.rel_masks = rel = s.parthood if relation == "parthood" else s.order
        self.rel_groups = _groups(rel)
        self.bottom = bot = s._index[s.bottom]
        self.proper_bottom = [i for i in range(len(s.elements)) if rel[bot] >> i & 1 and not rel[i] >> bot & 1]
        self.meet_bottom = [_row_mask(row, bot) for row in s.meet]
        self.meet_undefined = [_row_mask(row, -1) for row in s.meet]
        self.top_groups = _groups([_row_mask(row, s._index[s.top]) for row in s.join])
        self.undefined_joins = sum(row.count(-1) for row in s.join)


def _row_mask(row: list[int], value: int) -> int:
    """The bitmask of the j with row[j] == value."""
    return sum(1 << j for j, r in enumerate(row) if r == value)


def _value_masks(row: list[int], bits: list[int]) -> tuple[dict[int, int], dict[int, int]]:
    """(equal, below) of a row: each maps every numerator x in the row to the
    bitmask of the j with row[j] == x, resp. < x."""
    equal, below, acc = {}, {}, 0
    for x, bit in zip(row, bits):
        equal[x] = equal.get(x, 0) | bit
    for x in sorted(equal):
        below[x] = acc
        acc |= equal[x]
    return equal, below


def _groups(masks: list[int]) -> list[tuple[int, int, list[int]]]:
    """(j, mask, the indices of its set bits) for each nonzero mask."""
    return [(j, m, _bits(m)) for j, m in enumerate(masks) if m]


@_kept
def _space_rows(s: GranularSpace, relation: str) -> _SpaceRows:
    return _SpaceRows(s, relation)


def _axiom_kernel(f: InclusionFunction, axiom: str, relation: str):
    """One axiom's kernel: (scan, skipped).  The generator scan visits the
    rows of the axiom's instances in element order: () for U1 and RB,
    (a,) for R0, R1, R4, R5, IR0 and IR4, (a, b) for R2, R3 and R6.  It
    yields (row, mask, candidates) for each row whose bitmask of offending
    last elements is not empty; the row's witnesses are row + (a_k,) for
    each k of candidates, in element order, whose bit is set in mask.
    skipped counts the instances left out because the join or meet they
    need is undefined."""
    if relation not in ("parthood", "order"):
        raise InputError(f"relation must be 'parthood' or 'order', got {relation!r}")
    if axiom not in RIF_AXIOM_ORDER:
        raise InputError(f"unknown axiom {axiom!r}")
    sp = _space_rows(f.space, relation)
    fr = f._axiom_rows
    els, last, pb = f.space.elements, sp.last, sp.proper_bottom
    if axiom in ("R2", "R3"):
        return _order_scan(fr, els, fr.one_groups if axiom == "R2" else sp.rel_groups), 0
    if axiom == "R6":
        return _complement_scan(fr, els, sp), len(pb) * sp.undefined_joins

    if axiom in ("U1", "RB"):
        # one row, (), whose candidates are every element, resp. every one
        # above bottom, so that a verdict builds no candidate list
        if axiom == "U1":
            ks, m = range(len(els)), sum(1 << i for i, row in enumerate(fr.rows) if row[i] != fr.den)
        else:
            ks, m = pb, sum(1 << i for i in pb if fr.rows[i][sp.bottom] != 0)
        return iter([((), m, ks)] if m else []), 0
    # lazy rows: a verdict builds the masks up to the first flagged row
    skipped = 0
    if axiom in ("R0", "R1", "IR0"):
        rows = ((a, rel & ~ones if axiom == "R0" else rel ^ ones if axiom == "R1" else ones & ~rel)
                for a, rel, ones in zip(last, sp.rel_masks, fr.ones))
    elif axiom == "R4":
        zero, undef = fr.zeros, sp.meet_undefined
        skipped = sum((zero[i] & u).bit_count() for i, u in enumerate(undef) if u)
        rows = ((a, z & ~(b | u)) for a, z, b, u in zip(last, zero, sp.meet_bottom, undef))
    else:
        # R5: the proper-bottom condition guards the whole biconditional;
        # read as a conjunct on the left it is unsatisfiable wherever
        # bottom meets are defined, which would break prif6 everywhere
        zero, bot, undef = fr.zeros, sp.meet_bottom, sp.meet_undefined
        skipped = sum(undef[i].bit_count() for i in pb)
        rows = ((last[i], bot[i] & ~zero[i] if axiom == "IR4" else (bot[i] ^ zero[i]) & ~undef[i])
                for i in pb)
    return ((row, m, _bits(m)) for row, m in rows if m), skipped


def _order_scan(fr: _AxiomRows, els, groups):
    """R2 and R3: (a, b, c) for each group (b, c...) with f(a,c) < f(a,b).
    The row (a, b) offends at below_a[f(a,b)] & group."""
    for a, row, (_, below) in zip(els, fr.rows, fr.masks):
        for j, m, ks in groups:
            bad = below[row[j]] & m
            if bad:
                yield (a, els[j]), bad, ks


def _complement_scan(fr: _AxiomRows, els, sp: _SpaceRows):
    """R6: (a, b, c) for each a above bottom and c joining b to top with
    f(a,b) + f(a,c) != 1, that is with f(a,c)'s numerator not den - f(a,b)'s.
    The row (a, b) offends at group & ~equal_a[den - f(a,b)]."""
    den = fr.den
    for i in sp.proper_bottom:
        a, row, equal = els[i], fr.rows[i], fr.masks[i][0]
        for j, m, ks in sp.top_groups:
            bad = m & ~equal.get(den - row[j], 0)
            if bad:
                yield (a, els[j]), bad, ks


def check_rif_axiom(f: InclusionFunction, axiom: str, relation: str = "parthood") -> AxiomReport:
    """Exhaustively check one axiom of f against the chosen relation.

    relation selects which binary relation plays the parthood role:
    "parthood" (default) or "order".
    """
    scan, skipped = _axiom_kernel(f, axiom, relation)
    last, bit = _space_rows(f.space, relation).last, f._axiom_rows.bits
    # A flagged row tests its candidates against its mask, and lists them
    # untested where the mask holds them all (full).  On the dense R2, R3
    # and R6 reports of 64 elements, listing the set bits of each mask
    # through _bits(mask) was up to 2.1x slower, and building witnesses as
    # (*row, x) rather than row + last[k] up to 1.4x slower.
    return AxiomReport.of(axiom, [row + last[k] for row, m, ks in scan for full in (m.bit_count() == len(ks),)
                                  for k in ks if full or m & bit[k]], skipped)


def _verdict(f: InclusionFunction, axiom: str, relation: str) -> tuple[bool, int]:
    """(holds, skipped) of check_rif_axiom(f, axiom, relation): holds iff
    the kernel flags no row, so the scan stops at the first flagged one.

    R2 reads no relation, and where f's ones equal the relation's masks,
    R1 holds and R3 is R2's scan (the theorem in the module docstring).
    The first of them asked scans, and each later one reads its verdict,
    kept as f's order_verdict.  Every other verdict scans."""
    scan, skipped = _axiom_kernel(f, axiom, relation)
    fr = f._axiom_rows
    if axiom == "R2" or (axiom == "R3" and all(map(eq, fr.ones, _space_rows(f.space, relation).rel_masks))):
        if fr.order_verdict is None:
            fr.order_verdict = next(scan, None) is None
        return fr.order_verdict, skipped
    return next(scan, None) is None, skipped


def class_from_axioms(holds: Mapping[str, bool]) -> str:
    """Most specific of RIF, qRIF, wqRIF, or 'none', from which of R0, R1,
    R2 and R3 hold."""
    if holds["R1"] and holds["R2"]:
        return "RIF"
    if holds["R0"] and holds["R2"]:
        return "qRIF"
    if holds["R0"] and holds["R3"]:
        return "wqRIF"
    return "none"


def classify(f: InclusionFunction, relation: str = "parthood") -> str:
    """Most specific of RIF, qRIF, wqRIF, or 'none'."""
    return class_from_axioms(
        {ax: _verdict(f, ax, relation)[0] for ax in ("R0", "R1", "R2", "R3")}
    )


def class_rank(name: str) -> int:
    return CLASS_ORDER.index(name)


def satisfies_class(f: InclusionFunction, name: str, relation: str = "parthood") -> bool:
    """Membership in a class (RIF implies qRIF implies wqRIF), as opposed
    to classify which names the most specific one."""
    if name not in ("RIF", "qRIF", "wqRIF"):
        raise InputError(f"unknown class {name!r}")
    return class_rank(classify(f, relation)) >= class_rank(name)


# -- implication battery -----------------------------------------------------


@dataclass(frozen=True)
class PrifVerdict:
    """One checked implication between axiom sets for a fixed function."""

    name: str
    applicable: bool
    violated: bool
    axioms: Mapping[str, bool]


@_kept
def complement_closed_set_hgos(s: GranularSpace) -> bool:
    """Set-HGOS whose carrier family is closed under complement in top."""
    if classify_flavor(s) != "setHGOS":
        return False
    universe = s.carriers[s.top]
    return all(s.element_with_carrier(universe - s.carriers[x]) is not None for x in s.elements)


def verify_prif(f: InclusionFunction, relation: str = "parthood") -> list[PrifVerdict]:
    """Check the implication battery prif1..prif9 plus the U1 consequence.

    prif7, prif8 and prif9 are only meaningful on complement-closed
    set-HGOS; elsewhere they are reported as not applicable.
    """
    ax = {name: _verdict(f, name, relation)[0] for name in RIF_AXIOM_ORDER}
    on_sets = complement_closed_set_hgos(f.space)

    def pick(*names: str) -> dict[str, bool]:
        return {n: ax[n] for n in names}

    verdicts = [
        PrifVerdict("prif1", True, ax["R1"] and (ax["R2"] != ax["R3"]), pick("R1", "R2", "R3")),
        PrifVerdict("prif2", True, ax["R1"] != (ax["R0"] and ax["IR0"]), pick("R1", "R0", "IR0")),
        PrifVerdict("prif3", True, ax["R0"] and ax["R2"] and not ax["R3"], pick("R0", "R2", "R3")),
        PrifVerdict("prif4", True, ax["IR0"] and ax["R3"] and not ax["R2"], pick("IR0", "R3", "R2")),
        PrifVerdict("prif5", True, ax["IR4"] and not ax["RB"], pick("IR4", "RB")),
        PrifVerdict("prif6", True, (ax["IR4"] and ax["R4"]) != ax["R5"], pick("IR4", "R4", "R5")),
        PrifVerdict("prif7", on_sets, on_sets and ax["R0"] and ax["R6"] and not ax["IR4"],
                    pick("R0", "R6", "IR4")),
        PrifVerdict("prif8", on_sets, on_sets and ax["IR0"] and ax["R6"] and not ax["R4"],
                    pick("IR0", "R6", "R4")),
        PrifVerdict("prif9", on_sets, on_sets and ax["R1"] and ax["R6"] and not ax["R5"],
                    pick("R1", "R6", "R5")),
        PrifVerdict("prif-u1", True, (ax["R1"] or ax["R0"]) and not ax["U1"], pick("R0", "R1", "U1")),
    ]
    return verdicts


def random_kappa(s: GranularSpace, rng: Random, max_denominator: int = 12) -> InclusionFunction:
    """Random rational-valued function; denominators stay small so axiom
    coincidences (exact 0, exact 1) actually happen.  With probability one
    half the diagonal is forced to 1 so U1-sensitive implications get
    exercised on both sides.

    Each pair draws a denominator q in 1..max_denominator, then a numerator
    p in 0..q; its value p/q is written as p * (L // q) over L, the lcm of
    the drawn denominators.  In [0,1]: 0 <= p <= q, and the diagonal's L/L
    is 1.
    """
    n, randint, draws = len(s.elements), rng.randint, []
    for _ in range(n * n):
        q = randint(1, max_denominator)
        draws.append((randint(0, q), q))
    den = lcm(*{q for _, q in draws})
    nums = [p * (den // q) for p, q in draws]
    if rng.random() < 0.5:
        nums[::n + 1] = [den] * n
    return InclusionFunction._of_rows(s, nums, den, "kappa")
