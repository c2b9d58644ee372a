"""Inclusion functions over a space and the axiom families that grade them.

An inclusion function assigns every ordered element pair a rational degree
in [0,1].  The axioms U1, R0, R1, R2, R3, R4, R5, R6, IR0, IR4 and RB are
checked by exhaustive enumeration; axioms that mention the partial join or
meet skip (and count) instances where the operation is undefined.

The scans run over element indices.  A function is scanned as rank rows:
each distinct value gets its position in the sorted image, so comparing
ranks is comparing the exact Fractions, and equality to 0, to 1 or to
1 - v (R6's f(a,b) + f(a,c) == 1) is equality to a precomputed rank.  No
value is rounded or converted.  The rows are built once per function, and
the relation rows, meet table and join-to-top pairs once per space, so the
triple scans visit only the (b, c) pairs their guard admits: f(b,c) == 1
for R2, related pairs for R3, pairs joining to top for R6.  Witnesses come
out in element order of a, then b, then c, as an exhaustive loop over the
elements would list them.

Class names: RIF requires R1 and R2, qRIF requires R0 and R2, wqRIF
requires R0 and R3.  classify returns the most specific one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from random import Random
from typing import Mapping, Optional

from .errors import (
    CarrierError,
    DegenerateSpaceError,
    InputError,
    ParameterError,
)
from .space import AxiomReport, GranularSpace, classify_flavor

ONE = Fraction(1)
ZERO = Fraction(0)

RIF_AXIOM_ORDER = ("U1", "R0", "R1", "R2", "R3", "R4", "R5", "R6", "IR0", "IR4", "RB")

CLASS_ORDER = ("none", "wqRIF", "qRIF", "RIF")


class InclusionFunction:
    """Total rational-valued map on ordered element pairs, range [0,1]."""

    def __init__(self, space: GranularSpace, values: Mapping[tuple[str, str], Fraction], label: str):
        self.space = space
        self.label = label
        vals: dict[tuple[str, str], Fraction] = {}
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
                vals[(a, b)] = v
        self.values = vals

    def __call__(self, a: str, b: str) -> Fraction:
        try:
            return self.values[(a, b)]
        except KeyError:
            raise InputError(f"unknown pair ({a!r},{b!r})") from None

    def image(self) -> tuple[Fraction, ...]:
        return tuple(sorted(set(self.values.values())))

    def image_gap(self) -> Optional[Fraction]:
        """Largest value strictly below 1, None when the image is {1} or empty."""
        below = [v for v in self.values.values() if v < 1]
        return max(below) if below else None

    @cached_property
    def _ranked(self) -> "_RankedRows":
        # Built on the first axiom check and shared by the later ones; the
        # values are never changed after construction.
        return _RankedRows(self)

    def pointwise_equal(self, other: "InclusionFunction") -> bool:
        return self.values == other.values

    def __repr__(self):
        return f"InclusionFunction({self.label!r}, {len(self.values)} pairs)"


# -- concrete constructions ------------------------------------------------


def k0(s: GranularSpace) -> InclusionFunction:
    """Classical overlap degree #(A and B)/#A, and 1 when A is empty."""
    carriers = _carriers_of(s)
    values = {}
    for a in s.elements:
        ca = carriers[a]
        for b in s.elements:
            cb = carriers[b]
            values[(a, b)] = Fraction(len(ca & cb), len(ca)) if ca else ONE
    return InclusionFunction(s, values, "k0")


def k1(s: GranularSpace) -> InclusionFunction:
    """#B/#(A or B), and 1 when both are empty."""
    carriers = _carriers_of(s)
    values = {}
    for a in s.elements:
        ca = carriers[a]
        for b in s.elements:
            cb = carriers[b]
            union = ca | cb
            values[(a, b)] = Fraction(len(cb), len(union)) if union else ONE
    return InclusionFunction(s, values, "k1")


def k2(s: GranularSpace) -> InclusionFunction:
    """#(complement(A) or B)/#top, complements taken inside the top carrier."""
    carriers = _carriers_of(s)
    universe = carriers[s.top]
    if not universe:
        raise DegenerateSpaceError("k2 needs a nonempty top carrier")
    values = {}
    for a in s.elements:
        rest = universe - carriers[a]
        for b in s.elements:
            values[(a, b)] = Fraction(len(rest | carriers[b]), len(universe))
    return InclusionFunction(s, values, "k2")


def kst(f: InclusionFunction, s: Fraction, t: Fraction) -> InclusionFunction:
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


def _carriers_of(s: GranularSpace) -> dict[str, frozenset[str]]:
    missing = [e for e in s.elements if e not in s.carriers]
    if missing:
        raise CarrierError(f"elements without carriers: {missing}")
    return dict(s.carriers)


# -- axiom checking ----------------------------------------------------------


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# (numerator, denominator) identifies a Fraction exactly, since Fractions are
# kept in lowest terms, and hashes far faster than the Fraction does.
_exact_key = attrgetter("numerator", "denominator")


class _RankedRows:
    """f by element index, with its values replaced by their ranks.

    rows[i][j] is the rank of f(a_i, a_j) in f's sorted image, so ranks
    compare exactly as the values do.  one and zero are the ranks of 1 and
    0 (-1 when absent), comp[r] is the rank of 1 - (value of rank r) (-1
    when absent) and one_masks[i] has bit j set iff f(a_i, a_j) == 1.
    """

    def __init__(self, f: InclusionFunction):
        n = len(f.space.elements)
        # InclusionFunction stores its values row by row in element order.
        flat = list(f.values.values())
        keys = list(map(_exact_key, flat))
        image = sorted(dict(zip(keys, flat)).values())
        rank = {_exact_key(v): r for r, v in enumerate(image)}
        ranks = list(map(rank.__getitem__, keys))
        self.rows = [ranks[i * n:(i + 1) * n] for i in range(n)]
        self.one = one = rank.get(_exact_key(ONE), -1)
        self.zero = rank.get(_exact_key(ZERO), -1)
        self.comp = [rank.get(_exact_key(ONE - v), -1) for v in image]
        self.one_masks = []
        for row in self.rows:
            mask = 0
            for j, r in enumerate(row):
                if r == one:
                    mask |= 1 << j
            self.one_masks.append(mask)


class _SpaceRows:
    """What the axiom scans need from a space under one relation, by
    element index: the relation as row bitmasks and as (b, [c...]) groups,
    the elements strictly above bottom, the meet table (-1 where undefined),
    and the (b, [c...]) groups whose join is top, with the number of
    undefined joins."""

    def __init__(self, s: GranularSpace, relation: str):
        idx = s._index
        n = len(s.elements)
        self.rel_masks = [0] * n
        for a, b in (s.parthood if relation == "parthood" else s.order):
            self.rel_masks[idx[a]] |= 1 << idx[b]
        self.rel_groups = [(j, _bits(m)) for j, m in enumerate(self.rel_masks) if m]
        self.bottom = bot = idx[s.bottom]
        self.proper_bottom = [
            i for i in range(n) if self.rel_masks[bot] >> i & 1 and not self.rel_masks[i] >> bot & 1
        ]
        top = s.top
        self.meet_rows = []
        self.top_groups = []
        self.undefined_joins = 0
        for j, b in enumerate(s.elements):
            self.meet_rows.append([idx.get(s.meet_of(b, c), -1) for c in s.elements])
            ks = []
            for k, c in enumerate(s.elements):
                joined = s.join_of(b, c)
                if joined is None:
                    self.undefined_joins += 1
                elif joined == top:
                    ks.append(k)
            if ks:
                self.top_groups.append((j, ks))


def _space_rows(s: GranularSpace, relation: str) -> _SpaceRows:
    key = ("axiom rows", relation)
    if key not in s._derived:
        s._derived[key] = _SpaceRows(s, relation)
    return s._derived[key]


def _order_witnesses(els, rows, groups) -> list[tuple[str, str, str]]:
    """(a, b, c) with f(a,b) > f(a,c), for every a and every (b, c) in
    groups, in element order."""
    witnesses = []
    for a, row in zip(els, rows):
        for j, ks in groups:
            rj = row[j]
            for k in ks:
                if row[k] < rj:
                    witnesses.append((a, els[j], els[k]))
    return witnesses


def check_rif_axiom(f: InclusionFunction, axiom: str, relation: str = "parthood") -> AxiomReport:
    """Exhaustively check one axiom of f against the chosen relation.

    relation selects which binary relation plays the parthood role:
    "parthood" (default) or "order".
    """
    if relation not in ("parthood", "order"):
        raise InputError(f"relation must be 'parthood' or 'order', got {relation!r}")
    if axiom not in RIF_AXIOM_ORDER:
        raise InputError(f"unknown axiom {axiom!r}")
    s = f.space
    sp = _space_rows(s, relation)
    fr = f._ranked
    els = s.elements
    rows, one, zero = fr.rows, fr.one, fr.zero
    bot = sp.bottom
    witnesses: list[tuple[str, ...]] = []
    skipped = 0

    if axiom == "U1":
        witnesses = [(a,) for i, a in enumerate(els) if rows[i][i] != one]

    elif axiom in ("R0", "R1", "IR0"):
        for a, ones, rel in zip(els, fr.one_masks, sp.rel_masks):
            if axiom == "R0":
                bad = rel & ~ones
            elif axiom == "R1":
                bad = rel ^ ones
            else:
                bad = ones & ~rel
            witnesses.extend((a, els[j]) for j in _bits(bad))

    elif axiom == "R2":
        ones = [(j, _bits(m)) for j, m in enumerate(fr.one_masks) if m]
        witnesses = _order_witnesses(els, rows, ones)

    elif axiom == "R3":
        witnesses = _order_witnesses(els, rows, sp.rel_groups)

    elif axiom == "R4":
        for a, row, meets in zip(els, rows, sp.meet_rows):
            for j, r in enumerate(row):
                if r != zero:
                    continue
                m = meets[j]
                if m < 0:
                    skipped += 1
                elif m != bot:
                    witnesses.append((a, els[j]))

    elif axiom == "IR4":
        for i in sp.proper_bottom:
            row = rows[i]
            for j, m in enumerate(sp.meet_rows[i]):
                if m < 0:
                    skipped += 1
                elif m == bot and row[j] != zero:
                    witnesses.append((els[i], els[j]))

    elif axiom == "RB":
        witnesses = [(els[i],) for i in sp.proper_bottom if rows[i][bot] != zero]

    elif axiom == "R5":
        # the proper-bottom condition guards the whole biconditional;
        # read as a conjunct on the left it is unsatisfiable wherever
        # bottom meets are defined, which would break prif6 everywhere
        for i in sp.proper_bottom:
            row = rows[i]
            for j, m in enumerate(sp.meet_rows[i]):
                if m < 0:
                    skipped += 1
                elif (row[j] == zero) != (m == bot):
                    witnesses.append((els[i], els[j]))

    else:  # R6: f(a,b) + f(a,c) == 1 exactly when f(a,c) has the rank comp[f(a,b)]
        comp = fr.comp
        for i in sp.proper_bottom:
            a, row = els[i], rows[i]
            skipped += sp.undefined_joins
            for j, ks in sp.top_groups:
                want = comp[row[j]]
                for k in ks:
                    if row[k] != want:
                        witnesses.append((a, els[j], els[k]))

    return AxiomReport.of(axiom, witnesses, skipped)


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
        {ax: check_rif_axiom(f, ax, relation).holds for ax in ("R0", "R1", "R2", "R3")}
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


def complement_closed_set_hgos(s: GranularSpace) -> bool:
    """Set-HGOS whose carrier family is closed under complement in top."""
    key = "complement closed"
    if key not in s._derived:
        closed = classify_flavor(s) == "setHGOS"
        if closed:
            universe = s.carriers[s.top]
            closed = all(s.element_with_carrier(universe - s.carriers[x]) is not None for x in s.elements)
        s._derived[key] = closed
    return s._derived[key]


def verify_prif(f: InclusionFunction, relation: str = "parthood") -> list[PrifVerdict]:
    """Check the implication battery prif1..prif9 plus the U1 consequence.

    prif7, prif8 and prif9 are only meaningful on complement-closed
    set-HGOS; elsewhere they are reported as not applicable.
    """
    ax = {name: check_rif_axiom(f, name, relation).holds for name in RIF_AXIOM_ORDER}
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
    exercised on both sides."""
    values = {}
    for a in s.elements:
        for b in s.elements:
            den = rng.randint(1, max_denominator)
            values[(a, b)] = Fraction(rng.randint(0, den), den)
    if rng.random() < 0.5:
        for a in s.elements:
            values[(a, a)] = ONE
    return InclusionFunction(s, values, "kappa")
