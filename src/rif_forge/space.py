"""Finite granular operator spaces.

A space bundles a finite universe with a parthood relation P, a companion
order, partial join/meet tables, a distinguished granulation, total lower
and upper approximation maps, and bottom/top elements.  Everything is
explicit and finite, and held by element index in the space's fields: a
relation is one bitmask row per element, an operation one row of result
indices per element, -1 where it is undefined, and an approximation map one
index per element.  Documents, the constructor and powerset_space all write
these tables, the only copy of the relations, operations and maps; by id, a
space answers part, leq, join_of, meet_of, lower_of and upper_of from them.

An equality between possibly-undefined operation values is read weakly:
it holds unless both sides are defined and differ.  The lattice axioms
below use that reading and count the instances they had to skip.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import chain, combinations, combinations_with_replacement, product
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    CarrierError,
    ClosureError,
    InputError,
    SizeError,
    SpaceFormatError,
    StructuralError,
)

FLAVORS = ("GGS", "GS", "HGOS", "setHGOS")

# The most work one construction or law check may take on, in the units of
# check_work's estimate.
WORK_BUDGET = 10**7


def render_carrier(carrier: Iterable[str]) -> str:
    """Canonical brace rendering of an extensional carrier, sorted tokens."""
    return "{" + ",".join(sorted(carrier)) + "}"


@dataclass(frozen=True)
class AxiomReport:
    """Verdict for one axiom: holds iff the witness list is empty.

    skipped counts quantifier instances that could not be fully evaluated
    because a partial operation was undefined; those are vacuously true.
    """

    axiom: str
    witnesses: tuple[tuple[str, ...], ...]
    skipped: int = 0

    @property
    def holds(self) -> bool:
        return not self.witnesses

    @classmethod
    def of(cls, axiom: str, witnesses: Iterable[tuple[str, ...]], skipped: int = 0) -> "AxiomReport":
        """The report listing these witness tuples."""
        return cls(axiom, tuple(witnesses), skipped)


class GranularSpace:
    """Explicit finite model of a general granular operator space.

    The constructor takes ids: relations as ordered pairs, operations and
    approximation maps as mappings.  They are checked and read into the
    index tables by the pass that reads a space document (space_from_dict).

    In the tables, bit j of parthood[i] is set when P a_i a_j holds, and
    carrier_masks[i] is a_i's carrier as a bitmask over the sorted objects
    (None when an element has no carrier).  An operation result is an index
    only after a >= 0 test: rows[-1] would read the last row.
    """

    def __init__(
        self,
        elements: Sequence[str],
        parthood: Iterable[tuple[str, str]],
        order: Iterable[tuple[str, str]],
        join: Mapping[tuple[str, str], str],
        meet: Mapping[tuple[str, str], str],
        granulation: Sequence[str],
        lower: Mapping[str, str],
        upper: Mapping[str, str],
        bottom: str,
        top: str,
        flavor: str = "GGS",
        carriers: Optional[Mapping[str, Iterable[str]]] = None,
    ):
        sections = {
            "parthood": [list(p) for p in parthood],
            "order": [list(p) for p in order],
            "join": [[a, b, r] for (a, b), r in join.items()],
            "meet": [[a, b, r] for (a, b), r in meet.items()],
            "granulation": list(granulation),
            "lower": [[x, v] for x, v in lower.items()],
            "upper": [[x, v] for x, v in upper.items()],
            "bottom": bottom,
            "top": top,
            "flavor": flavor,
        }
        carrier_sets = {e: frozenset(c) for e, c in (carriers or {}).items()}
        self._store(*_read(list(elements), carrier_sets, sections))
        self._enforce_flavor()

    @classmethod
    def _of_tables(cls, *fields) -> "GranularSpace":
        """The space with the fields _store takes, as checked: callers prove the flavor."""
        s = cls.__new__(cls)
        s._store(*fields)
        return s

    def _store(self, elements, index, parthood, order, join, meet, lower, upper, objects, carrier_masks,
               carriers, granulation, bottom, top, flavor) -> None:
        self.elements: tuple[str, ...] = elements
        self._index: dict[str, int] = index
        self.parthood: list[int] = parthood
        self.order: list[int] = order
        self.join: list[list[int]] = join
        self.meet: list[list[int]] = meet
        self.lower: list[int] = lower
        self.upper: list[int] = upper
        self.objects: list[str] = objects
        self.carrier_masks: Optional[list[int]] = carrier_masks
        self.carriers: dict[str, frozenset[str]] = carriers
        self._by_carrier = {c: e for e, c in carriers.items()}
        self.granulation, self.bottom, self.top, self.flavor = tuple(granulation), bottom, top, flavor
        # What _kept derives from the space, by function and arguments.
        self._derived: dict = {}

    def _enforce_flavor(self):
        """StructuralError naming the first step up to the declared flavor that fails."""
        for step in _FLAVOR_STEPS[:FLAVORS.index(self.flavor)]:
            if failure := step(self):
                raise StructuralError(f"flavor {self.flavor} requires {failure}")

    # -- queries ---------------------------------------------------------

    @property
    def is_set_extensional(self) -> bool:
        return self.carrier_masks is not None

    def _at(self, a: str, b: str):
        """The index pair of (a, b), None when either is not an element."""
        i, j = self._index.get(a), self._index.get(b)
        return None if i is None or j is None else (i, j)

    def part(self, a: str, b: str) -> bool:
        return (ij := self._at(a, b)) is not None and self.parthood[ij[0]] >> ij[1] & 1 == 1

    def leq(self, a: str, b: str) -> bool:
        return (ij := self._at(a, b)) is not None and self.order[ij[0]] >> ij[1] & 1 == 1

    def join_of(self, a: str, b: str) -> Optional[str]:
        r = -1 if (ij := self._at(a, b)) is None else self.join[ij[0]][ij[1]]
        return self.elements[r] if r >= 0 else None

    def meet_of(self, a: str, b: str) -> Optional[str]:
        r = -1 if (ij := self._at(a, b)) is None else self.meet[ij[0]][ij[1]]
        return self.elements[r] if r >= 0 else None

    def _index_of(self, x: str) -> int:
        """The index of x; InputError when x is not an element."""
        try:
            return self._index[x]
        except KeyError:
            raise InputError(f"unknown element {x!r}") from None

    def lower_of(self, x: str) -> str:
        return self.elements[self.lower[self._index_of(x)]]

    def upper_of(self, x: str) -> str:
        return self.elements[self.upper[self._index_of(x)]]

    def carrier_of(self, x: str) -> frozenset[str]:
        if x not in self.carriers:
            self._index_of(x)  # InputError for an unknown id
            raise CarrierError(f"element {x!r} has no carrier")
        return self.carriers[x]

    def require_carriers(self) -> list[int]:
        """carrier_masks; CarrierError naming the first element without a carrier."""
        if self.carrier_masks is None:
            self.carrier_of(next(e for e in self.elements if e not in self.carriers))
        return self.carrier_masks

    def element_with_carrier(self, carrier: frozenset[str]) -> Optional[str]:
        return self._by_carrier.get(frozenset(carrier))

    def render(self, x: str) -> str:
        """Display form of an element: its carrier when it has one, else its id."""
        if x in self.carriers:
            return render_carrier(self.carriers[x])
        return x

    def pairs(self) -> Iterable[tuple[str, str]]:
        return product(self.elements, repeat=2)

    # What equal spaces agree on; the index, objects and carrier_masks follow from it.
    _FIELDS = ("elements", "carriers", "granulation", "bottom", "top", "flavor",
               "parthood", "order", "join", "meet", "lower", "upper")

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, GranularSpace):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self._FIELDS)

    __hash__ = None

    def __repr__(self):
        return (
            f"GranularSpace({len(self.elements)} elements, "
            f"{len(self.granulation)} granules, flavor={self.flavor})"
        )


def _kept(derive):
    """derive(s, *args), run once per space and arguments: the result is
    kept in s._derived under (derive, *args) and returned again by later
    calls.  Nothing changes a space after construction, so what is kept
    stays valid; two threads that derive at once each get a correct result."""

    @wraps(derive)
    def kept(s: GranularSpace, *args):
        key = (derive, *args)
        try:
            return s._derived[key]
        except KeyError:
            value = s._derived[key] = derive(s, *args)
            return value

    return kept


def proper_part(s: GranularSpace, a: str, b: str) -> bool:
    """Strict parthood: P a b holds and P b a does not."""
    return s.part(a, b) and not s.part(b, a)


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# -- axiom checking ------------------------------------------------------
#
# Each check reads the space's tables and returns its witnesses, in element
# order, and how many instances it skipped because an operation was
# undefined there.


def _commutative(s):
    els, jn, mt = s.elements, s.join, s.meet
    wit, skipped = [], 0
    for i, j in combinations_with_replacement(range(len(els)), 2):
        lj, rj, lm, rm = jn[i][j], jn[j][i], mt[i][j], mt[j][i]
        skipped += min(lj, rj, lm, rm) < 0
        if lj != rj and min(lj, rj) >= 0 or lm != rm and min(lm, rm) >= 0:
            wit.append((els[i], els[j]))
    return wit, skipped


def _absorptive(s):
    els, jn, mt = s.elements, s.join, s.meet
    wit, skipped = [], 0
    for a in range(len(els)):
        for b, (j, m) in enumerate(zip(jn[a], mt[a])):
            x, y = mt[j][a] if j >= 0 else -1, jn[m][a] if m >= 0 else -1
            skipped += x < 0 or y < 0
            if x >= 0 and x != a or y >= 0 and y != a:
                wit.append((els[a], els[b]))
    return wit, skipped


def _distributive(s, outer, inner):
    """(a, b, c) with inner(outer(a, b), c) != outer(inner(a, c), inner(b, c)),
    both sides defined.  Per (a, b) the left side is one row of inner; rows
    that agree and are defined everywhere hold no witness and no skip."""
    els, n = s.elements, len(s.elements)
    out, inn = getattr(s, outer), getattr(s, inner)
    full = [-1 not in row for row in inn]
    wit, skipped = [], 0
    for a, ra in enumerate(inn):
        rows_a = list(map(out.__getitem__, ra)) if full[a] else None
        for b, m in enumerate(out[a]):
            if m < 0:
                skipped += n
                continue
            left, rb = inn[m], inn[b]
            if rows_a and full[b]:
                right = list(map(list.__getitem__, rows_a, rb))
            else:
                right = [out[x][y] if x >= 0 and y >= 0 else -1 for x, y in zip(ra, rb)]
            if left == right:
                skipped += 0 if full[m] else left.count(-1)
                continue
            for c, (x, y) in enumerate(zip(left, right)):
                skipped += x < 0 or y < 0
                if x != y and x >= 0 and y >= 0:
                    wit.append((els[a], els[b], els[c]))
    return wit, skipped


def _order_consistent(s):
    els, jn, mt = s.elements, s.join, s.meet
    wit, skipped = [], 0
    for a, above in enumerate(s.order):
        for b, (j, m) in enumerate(zip(jn[a], mt[a])):
            le = above >> b & 1 == 1
            skipped += j < 0 or m < 0
            if j >= 0 and (j == b) != le or m >= 0 and (m == a) != le:
                wit.append((els[a], els[b]))
    return wit, skipped


def _approximation_ends(s):
    part, lo, up = s.parthood, s.lower, s.upper
    bot, top = s._index[s.bottom], s._index[s.top]
    wit = [] if lo[bot] == bot and up[bot] == bot else [(s.bottom,)]
    if not (part[lo[top]] >> top & 1 and part[up[top]] >> top & 1):
        wit.append((s.top,))
    return wit, 0


# Each axiom's check and the check's arguments after the space.
_AXIOM_CHECKS = {
    "PT1": (lambda s: ([(x,) for i, x in enumerate(s.elements) if not s.parthood[i] >> i & 1], 0),),
    "PT2": (lambda s: ([(s.elements[i], s.elements[j]) for i, j in combinations(range(len(s.elements)), 2)
                        if s.parthood[i] >> j & 1 and s.parthood[j] >> i & 1], 0),),
    "G1": (_commutative,),
    "G2": (_absorptive,),
    "G3": (_distributive, "meet", "join"),
    "G4": (_distributive, "join", "meet"),
    "G5": (_order_consistent,),
    "UL1": (lambda s: ([(x,) for a, (x, la, ua) in enumerate(zip(s.elements, s.lower, s.upper))
                        if not (s.parthood[la] >> a & 1 and s.lower[la] == la
                                and s.parthood[ua] >> s.upper[ua] & 1)], 0),),
    "UL2": (lambda s: ([(s.elements[a], s.elements[b]) for a, (la, ua) in enumerate(zip(s.lower, s.upper))
                        for b in _bits(s.parthood[a])
                        if not (s.parthood[la] >> s.lower[b] & 1 and s.parthood[ua] >> s.upper[b] & 1)], 0),),
    "UL3": (_approximation_ends,),
    "TB": (lambda s: ([(x,) for a, x in enumerate(s.elements) if not (
        s.parthood[s._index[s.bottom]] >> a & 1 and s.parthood[a] >> s._index[s.top] & 1)], 0),),
}


# The axioms every setHGOS space satisfies (see validate_space).
_SET_LATTICE_AXIOMS = ("PT1", "PT2", "G1", "G2", "G3", "G4", "G5")


def validate_space(s: GranularSpace) -> list[AxiomReport]:
    """Check PT1, PT2, G1-G5, UL1-UL3 and TB; one report per axiom.

    Lattice axioms use weak equality: an instance with an undefined side is
    vacuously true and counted in the report's skipped field.

    On a setHGOS space PT1, PT2 and G1-G5 are theorems, reported holding
    with no witness and 0 skipped and not scanned.  Its flavor holds by
    construction (powerset_space) or was proved pair by pair when the
    space was loaded or constructed: parthood and order are inclusion of
    carriers, join is union and meet is intersection, both total, and no
    two elements share a carrier, so an element is its carrier.  Inclusion
    is reflexive (PT1) and antisymmetric (PT2); union and intersection
    commute (G1), absorb each other (G2) and distribute over each other
    (G3, G4); a | b = b iff a is included in b iff a & b = a (G5); and no
    instance is skipped, as both operations are total.  UL1-UL3 and TB are
    scanned on every space, and every axiom on every other flavor.
    """
    proved = _SET_LATTICE_AXIOMS if classify_flavor(s) == "setHGOS" else ()
    return [AxiomReport.of(axiom, *(((), 0) if axiom in proved else check(s, *args)))
            for axiom, (check, *args) in _AXIOM_CHECKS.items()]


def representable_elements(s: GranularSpace, term_depth: int = 1) -> frozenset[str]:
    """Elements expressible as granule terms.

    Depth 1 means flat iterated joins of granules, in any fold order, plus
    bottom as the empty join.  Each extra depth level closes the current
    set under pairwise join and meet once more.
    """
    if term_depth < 1:
        raise InputError("term_depth must be at least 1")
    grans = [s._index[g] for g in s.granulation]
    rep = {s._index[s.bottom], *grans}
    todo = list(rep)
    while todo:
        r = todo.pop()
        for g in grans:
            for v in (s.join[r][g], s.join[g][r]):
                if v >= 0 and v not in rep:
                    rep.add(v)
                    todo.append(v)
    for _ in range(term_depth - 1):
        fresh = {v for x in rep for y in rep for v in (s.join[x][y], s.meet[x][y]) if v >= 0} - rep
        if not fresh:
            break
        rep |= fresh
    return frozenset(map(s.elements.__getitem__, rep))


def check_admissibility(s: GranularSpace, term_depth: int = 1) -> list[AxiomReport]:
    """Check the admissibility conditions WRA, LS and FU of the granulation."""
    els = s.elements
    rep = {s._index[x] for x in representable_elements(s, term_depth)}
    part, lo, up = s.parthood, s.lower, s.upper
    grans = [s._index[g] for g in s.granulation]

    wra = [(x,) for x, l, u in zip(els, lo, up) if l not in rep or u not in rep]

    ls = [(els[a], els[x]) for a in grans for x in _bits(part[a]) if not part[a] >> lo[x] & 1]

    # the definite elements, and per granule the elements it is a proper part of
    definite = sum(1 << z for z in range(len(els)) if lo[z] == z and up[z] == z)
    above = {a: sum(1 << z for z in _bits(part[a]) if not part[z] >> a & 1) for a in grans}
    fu = [(els[x], els[a]) for x in grans for a in grans if not above[x] & above[a] & definite]

    return [AxiomReport.of("WRA", wra), AxiomReport.of("LS", ls), AxiomReport.of("FU", fu)]


# -- granular approximations ---------------------------------------------


def granular_lower(s: GranularSpace, x: str) -> str:
    """Union of the granules that are parts of x, as an element."""
    return _granular("lower", s, x)


def granular_upper(s: GranularSpace, x: str) -> str:
    """Union of the granules whose carriers meet the carrier of x."""
    return _granular("upper", s, x)


def _granular(key: str, s: GranularSpace, x: str) -> str:
    masks, i = s.require_carriers(), s._index_of(x)
    grans = [s._index[g] for g in s.granulation]
    return s.elements[_granule_unions(key, [i], masks, grans, s.parthood, s.objects)[0]]


def _granule_unions(key: str, cols, masks: list[int], grans: list[int], parthood: list[int],
                    objects: list[str]) -> list[int]:
    """Per element index x of cols, the index of the element whose carrier
    is the union of the granules grans that are parts of x (lower) or whose
    carriers meet x's (upper).  Each union must be an element."""
    at = {m: i for i, m in enumerate(masks)}
    out = []
    for x in cols:
        union, cx = 0, masks[x]
        for g in grans:
            if parthood[g] >> x & 1 if key == "lower" else masks[g] & cx:
                union |= masks[g]
        if union not in at:
            shown = render_carrier(objects[b] for b in _bits(union))
            raise ClosureError(f"union carrier {shown} is not an element")
        out.append(at[union])
    return out


# The flavor ladder: step k gives the text of the condition FLAVORS[k + 1]
# adds to FLAVORS[k] when it fails on a space, else None.  Each step assumes
# the ones before it hold (_extensionality_failure reads total operations).
_FLAVOR_STEPS = (
    lambda s: None if s.parthood == s.order else "parthood == order",
    lambda s: None if all(-1 not in row for row in chain(s.join, s.meet)) else "total join and meet",
    lambda s: _extensionality_failure(s) if s.is_set_extensional else "a carrier on every element",
)


def classify_flavor(s: GranularSpace) -> str:
    """Most specific flavor whose defining conditions hold, the one below the
    first step of the ladder that fails.  The declared flavor's steps were
    proved when s was built, or hold by construction, so the walk starts there."""
    steps = range(FLAVORS.index(s.flavor), len(_FLAVOR_STEPS))
    return next((FLAVORS[k] for k in steps if _FLAVOR_STEPS[k](s)), FLAVORS[-1])


def _extensionality_failure(s: GranularSpace) -> Optional[str]:
    """The first setHGOS condition to fail on a carried space with total
    operations, in element order of the pair, or None when parthood is
    inclusion, join is union and meet is intersection."""
    cm = s.carrier_masks
    for ca, part, jn, mt in zip(cm, s.parthood, s.join, s.meet):
        for j, cb in enumerate(cm):
            if (part >> j & 1 == 1) != (ca & cb == ca):
                return "parthood == inclusion"
            if cm[jn[j]] != ca | cb:
                return "join == union"
            if cm[mt[j]] != ca & cb:
                return "meet == intersection"
    return None


# -- work budget ----------------------------------------------------------


def check_work(n: int, functions: int = 0, nodes: int = 0) -> int:
    """The estimated work of a space of n elements, of evaluating terms of
    that many nodes on it, and of that many functions: checked by the laws,
    drawn one a trial by prif-verify, or built by rif_failure_search (18,
    whatever its budget); SizeError when it exceeds WORK_BUDGET.  Callers
    ask before they build anything.

    The estimate counts the n*n entries of each join and meet table, of
    each function's rows and of the rows each term node builds.  check_laws
    scans three laws over each function's rows and proves the other eight,
    and rif_failure_search proves its products and convex sums, so neither
    the weights nor the search budget add work.
    """
    estimate = n * n * (1 + functions + nodes)
    if estimate > WORK_BUDGET:
        of = (f"{_count(n)} elements" + (f", {_count(functions)} functions" if functions else "")
              + (f", {_count(nodes)} term nodes" if nodes else ""))
        raise SizeError(f"estimated work {_count(estimate)} exceeds the budget of {WORK_BUDGET:,} ({of})")
    return estimate


def _count(x: int) -> str:
    """x with thousands separators, or a power of ten below it when x is
    too long to read (or, past 4300 digits, to print)."""
    return f"{x:,}" if x.bit_length() <= 64 else f"over 10**{(x.bit_length() - 1) * 30103 // 100000}"


# -- power-set construction ----------------------------------------------


def powerset_space(objects: Sequence[str], blocks: Iterable[Iterable[str]]) -> GranularSpace:
    """Full power-set space over base objects with a partition granulation.

    Parthood and order are inclusion, join/meet are union/intersection
    (total), lower/upper are the classical approximations induced by the
    blocks.  Rejects a universe over the work budget (check_work), and
    object names that give two subsets the same id.  It is setHGOS by
    construction, so the flavor is not proved again (documents and the
    constructor prove it pair by pair): every subset is one element, its
    carrier, parthood and order are the subset test of the carrier
    bitmasks, join is | and meet is &, which are inclusion, union and
    intersection, total on a power set.

    Up to _KEPT_OBJECTS objects the space of each partition is kept
    (_powerset): a call over the same sorted objects and partition, its
    blocks and objects in any order, runs the same input checks and
    returns that space, so what it derives on first use (_kept) is built
    once per partition.  Over 1, 2, 3 and 4 objects there are 1, 2, 5 and
    15 partitions, so the 23 spaces kept hold all of them.  Keeping spaces
    up to 6 objects (64 elements) raised the peak memory of the prif-kappa
    benchmark by 0.6 MiB; up to 4, the sizes the seeded samplers and the
    laws trials draw, it moved by nothing measured.
    """
    objs = tuple(objects)
    if len(set(objs)) != len(objs):
        raise InputError("base objects must be unique")
    check_work(1 << len(objs))
    blks = [frozenset(b) for b in blocks]
    check_partition(blks, frozenset(objs), "exactly the base objects")
    build = _powerset if len(objs) <= _KEPT_OBJECTS else _powerset.__wrapped__
    return build(tuple(sorted(objs)), frozenset(blks))


# The most objects whose spaces _powerset keeps: its bound, 23, is the
# number of partitions over 1 to 4 objects.
_KEPT_OBJECTS = 4


@lru_cache(maxsize=23)
def _powerset(ordered: tuple[str, ...], partition: frozenset[frozenset[str]]) -> GranularSpace:
    """The power-set space over the sorted objects with this partition;
    InputError naming the first id two subsets share."""
    universe = [frozenset(c) for k in range(len(ordered) + 1) for c in combinations(ordered, k)]
    ids = tuple(map(render_carrier, universe))
    index = {eid: i for i, eid in enumerate(ids)}
    if len(index) != len(ids):
        shared = next(eid for i, eid in enumerate(ids) if index[eid] != i)
        raise InputError(f"two subsets of the base objects have the id {shared!r}")
    bit = {o: 1 << i for i, o in enumerate(ordered)}
    masks = [sum(map(bit.__getitem__, c)) for c in universe]
    at = {m: i for i, m in enumerate(masks)}
    grans = [at[sum(map(bit.__getitem__, b))] for b in partition]
    part = [sum(1 << j for j, b in enumerate(masks) if a & b == a) for a in masks]
    objects = list(ordered)
    lower, upper = (_granule_unions(key, range(len(masks)), masks, grans, part, objects)
                    for key in ("lower", "upper"))
    granulation = [render_carrier(b) for b in sorted(partition, key=lambda b: (len(b), sorted(b)))]
    return GranularSpace._of_tables(
        ids, index, part, part, [[at[a | b] for b in masks] for a in masks],
        [[at[a & b] for b in masks] for a in masks], lower, upper, objects, masks,
        dict(zip(ids, universe)), granulation, ids[0], ids[-1], "setHGOS",
    )


def check_partition(blocks: Iterable[frozenset[str]], carrier: frozenset[str], cover: str) -> None:
    """Raise InputError unless the blocks are nonempty, pairwise disjoint
    and cover the carrier; cover names the carrier in that message."""
    seen: set[str] = set()
    for b in blocks:
        if not b:
            raise InputError("partition blocks must be nonempty")
        if b & seen:
            raise InputError("partition blocks must be disjoint")
        seen |= b
    if seen != carrier:
        raise InputError(f"partition blocks must cover {cover}")


# -- serialization --------------------------------------------------------


def load_space(source) -> GranularSpace:
    """Build a space from a JSON file path or a plain dict.

    The cyclic garbage collector is paused while the document is decoded
    and read into tables, and left as it was found.  A decoded document is
    a tree of lists, dicts and strings, and the tables hold ints, so what
    the load allocates forms no cycle: a collection in that window would
    only rescan it.  Cyclic garbage made before the load waits for the
    first collection after it.  The pause is process-wide: other threads
    run without cyclic collection until the load returns.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        if isinstance(source, dict):
            raw = source
        else:
            with open(source, "r", encoding="utf-8") as fh:
                raw = _json_value(fh.read())
        if not isinstance(raw, dict):
            raise SpaceFormatError("space document must be a JSON object")
        return space_from_dict(raw)
    finally:
        if enabled:
            gc.enable()


def space_from_dict(raw: dict) -> GranularSpace:
    """The space a document describes (the form space_to_dict writes)."""
    for key in ("elements", "parthood", "order", "join", "meet", "granulation",
                "lower", "upper", "bottom", "top", "flavor"):
        if key not in raw:
            raise SpaceFormatError(f"missing key {key!r}")

    if not isinstance(raw["elements"], list):
        raise SpaceFormatError("elements must be an array")
    elements = []
    carriers = {}
    for i, entry in enumerate(raw["elements"]):
        if not isinstance(entry, dict) or "id" not in entry:
            raise SpaceFormatError(f"elements[{i}] must be an object with an id")
        eid = entry["id"]
        if not isinstance(eid, str):
            raise SpaceFormatError(f"elements[{i}].id must be a string")
        elements.append(eid)
        if "carrier" in entry:
            carrier = entry["carrier"]
            if not (isinstance(carrier, list) and all(isinstance(x, str) for x in carrier)):
                raise SpaceFormatError(f"elements[{i}].carrier must be an array of strings")
            carriers[eid] = frozenset(carrier)
    s = GranularSpace._of_tables(*_read(elements, carriers, raw))
    s._enforce_flavor()
    return s


def _read(ids: list, carriers: dict, raw) -> tuple:
    """Check the space with these element ids, carriers by id and the other
    sections of raw, and read it into index tables; returns the fields
    GranularSpace._store takes.

    Each section is read in one pass that checks its shape and types,
    raising at once, and writes index rows.  An id outside the universe is
    only noted, the first one per section.  After every section is read,
    the elements and carriers are checked, then the first note is raised:
    a shape error anywhere wins over an unknown id, and unknown ids are
    reported in section order.  Before all that, a universe over the work
    budget is refused (check_work), so no table is allocated for it.
    """
    check_work(len(ids))
    granulation = raw["granulation"]
    if not (isinstance(granulation, list) and all(isinstance(g, str) for g in granulation)):
        raise SpaceFormatError("granulation must be an array of string ids")
    index, problems = {eid: i for i, eid in enumerate(ids)}, []
    parthood = _relation(raw, "parthood", index, len(ids), problems)
    order = _relation(raw, "order", index, len(ids), problems)
    join = _operation(raw, "join", ids, index, problems)
    meet = _operation(raw, "meet", ids, index, problems)
    if len(set(granulation)) != len(granulation):
        problems.append(StructuralError("granulation ids must be unique"))
    if unknown := [g for g in granulation if g not in index]:
        problems.append(StructuralError(f"granulation names unknown element {unknown[0]!r}"))
    objects = sorted(set().union(*carriers.values()))
    bit = {o: 1 << i for i, o in enumerate(objects)}
    masks = [sum(map(bit.__getitem__, carriers[e])) for e in ids] if set(carriers) == set(ids) else None
    lower = _approximation(raw, "lower", ids, index, masks, objects, parthood, problems)
    upper = _approximation(raw, "upper", ids, index, masks, objects, parthood, problems)
    for key in ("bottom", "top"):
        if not isinstance(raw[key], str):
            problems.append(SpaceFormatError(f"{key} must be a string id"))
        elif raw[key] not in index:
            problems.append(StructuralError(f"{key} element {raw[key]!r} is not in the universe"))
    if raw["flavor"] not in FLAVORS:
        problems.append(StructuralError(f"unknown flavor {raw['flavor']!r}"))

    if not ids:
        raise StructuralError("a space needs at least one element")
    if len(index) != len(ids):
        raise StructuralError("element ids must be unique")
    for eid in carriers:
        if eid not in index:
            raise StructuralError(f"carrier given for unknown element {eid!r}")
    seen: dict[frozenset[str], str] = {}
    for eid, carrier in carriers.items():
        if carrier in seen:
            shared = render_carrier(carrier)
            raise StructuralError(f"elements {seen[carrier]!r} and {eid!r} share the carrier {shared}")
        seen[carrier] = eid
    if problems:
        raise problems[0]

    return (tuple(ids), index, parthood, order, join, meet, lower, upper, objects, masks,
            carriers, granulation, raw["bottom"], raw["top"], raw["flavor"])


def _shape_error(rows: list, row, key: str, width: int) -> Optional[SpaceFormatError]:
    """The error for a row of the section that is not width string ids, or None."""
    if isinstance(row, list) and len(row) == width:
        if all(isinstance(x, str) for x in row):
            return None
        must = "hold string ids"
    else:
        must = f"be a {'two' if width == 2 else 'three'}-element array"
    k = next(k for k, other in enumerate(rows) if other is row)  # an earlier copy would have failed
    return SpaceFormatError(f"{key}[{k}] must {must}")


def _relation(raw, key: str, index: dict, n: int, problems: list) -> list[int]:
    """The relation section as row bitmasks."""
    pairs = raw[key]
    if not isinstance(pairs, list):
        raise SpaceFormatError(f"{key} must be an array of pairs")
    masks, stray = [0] * n, None
    for pair in pairs:
        if type(pair) is list and len(pair) == 2:  # the common row: two known ids
            a, b = pair
            try:
                masks[index[a]] |= 1 << index[b]
                continue
            except (KeyError, TypeError):  # an unknown or unhashable id
                pass
        if error := _shape_error(pairs, pair, key, 2):
            raise error
        a, b = pair
        if a in index and b in index:
            masks[index[a]] |= 1 << index[b]
        else:
            stray = stray or StructuralError(f"{key} pair ({a!r},{b!r}) leaves the universe")
    problems += [stray] if stray else []
    return masks


def _operation(raw, key: str, ids: list, index: dict, problems: list) -> list[list[int]]:
    """The operation section as rows of result indices, -1 where undefined.
    A row giving an entry a second, different value is an error at once;
    stray keeps the entries that name an id outside the universe, for that
    check."""
    rows = raw[key]
    if not isinstance(rows, list):
        raise SpaceFormatError(f"{key} must be an array of triples")
    n, get = len(ids), index.get
    table, stray, problem = [[-1] * n for _ in range(n)], {}, None
    for row in rows:
        # the common row: three known ids, a key not given before, and no stray entry so far
        if type(row) is list and not stray:
            try:
                a, b, r = row
                cells, j = table[index[a]], index[b]
                if cells[j] == -1:
                    cells[j] = index[r]
                    continue
            except (ValueError, KeyError, TypeError):  # not three ids, or an unknown or unhashable one
                pass
        if error := _shape_error(rows, row, key, 3):
            raise error
        a, b, r = row
        i, j, v = get(a), get(b), get(r)
        known = i is not None and j is not None
        if known and table[i][j] >= 0:
            earlier = ids[table[i][j]]
        elif known and v is not None:
            earlier = stray.get((a, b), r)
        else:
            problem = problem or StructuralError(f"{key} entry ({a!r},{b!r})->{r!r} leaves the universe")
            earlier = stray.setdefault((a, b), r)
        if earlier != r:
            k = next(k for k, other in enumerate(rows) if other is row)
            raise _conflict(f"{key}[{k}]", f"({a!r},{b!r})", r, earlier)
        if known and v is not None:
            table[i][j] = v
    problems += [problem] if problem else []
    return table


def _conflict(where: str, shown: str, value: str, earlier: str) -> SpaceFormatError:
    """The error for an entry that gives a key a second, different value."""
    return SpaceFormatError(f"{where} maps {shown} to {value!r}, but an earlier entry maps it to {earlier!r}")


def _approximation(raw, key: str, ids: list, index: dict, masks: Optional[list[int]], objects: list[str],
                   parthood: list[int], problems: list) -> list[int]:
    """The lower or upper section as one index per element: read from its
    pairs, after all of them are checked for shape, or derived from the
    granules ('granular')."""
    val = raw[key]
    if val == "granular":
        if masks is None:
            raise SpaceFormatError(f"{key} mode 'granular' needs a carrier on every element")
        for g in raw["granulation"]:
            if g not in index:
                raise StructuralError(f"granulation names unknown element {g!r}")
        grans = [index[g] for g in raw["granulation"]]
        return _granule_unions(key, [index[x] for x in ids], masks, grans, parthood, objects)
    if not isinstance(val, list):
        raise SpaceFormatError(f"{key} must be an array of pairs or 'granular'")
    out, seen, conflict, stray = [-1] * len(ids), {}, None, None
    for k, pair in enumerate(val):
        if error := _shape_error(val, pair, key, 2):
            raise error
        x, v = pair
        if seen.setdefault(x, v) != v:
            conflict = conflict or _conflict(f"{key}[{k}]", repr(x), v, seen[x])
        if x not in index or v not in index:
            stray = stray or StructuralError(f"{key} entry {x!r}->{v!r} leaves the universe")
        else:
            out[index[x]] = index[v]
    if conflict:
        raise conflict
    if missing := sorted(x for x, i in index.items() if out[i] < 0):
        stray = stray or StructuralError(f"{key} map is not total, missing {missing}")
    problems += [stray] if stray else []
    return out


def space_to_dict(s: GranularSpace) -> dict:
    """Deterministic JSON-ready representation; inverse of space_from_dict.
    Rows come in element index order."""
    els = s.elements
    elements = []
    for eid in els:
        entry: dict = {"id": eid}
        if eid in s.carriers:
            entry["carrier"] = sorted(s.carriers[eid])
        elements.append(entry)
    doc = {"elements": elements}
    for key in ("parthood", "order"):
        doc[key] = [[els[i], els[j]] for i, m in enumerate(getattr(s, key)) for j in _bits(m)]
    for key in ("join", "meet"):
        doc[key] = [[els[i], els[j], els[r]] for i, row in enumerate(getattr(s, key))
                    for j, r in enumerate(row) if r >= 0]
    doc["granulation"] = list(s.granulation)
    for key in ("lower", "upper"):
        doc[key] = [[x, els[v]] for x, v in zip(els, getattr(s, key))]
    return doc | {"bottom": s.bottom, "top": s.top, "flavor": s.flavor}


def save_space(s: GranularSpace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(space_to_dict(s)) + "\n")


def _json_value(text: str, parse_float=None):
    """The JSON value of text, as json.loads(text, parse_float=parse_float)
    decodes it.  json refuses an integer literal of more digits than int()
    converts (sys.get_int_max_str_digits) with a plain ValueError; that is
    raised as the JSONDecodeError it is, at the first such literal outside
    a string."""
    try:
        return json.loads(text, parse_float=parse_float)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        import re
        import sys
        limit = sys.get_int_max_str_digits()
        # a string, or an integer literal: digits not part of a fraction or exponent
        tokens = re.finditer(r'"(?:[^"\\]|\\.)*"|(?<![\w.+-])-?(\d+)(?![\w.])', text)
        at = next((m.start() for m in tokens if m[1] and len(m[1]) > limit), 0)
        raise json.JSONDecodeError(f"integer literal of more than {limit:,} digits", text, at) from exc


def _json_text(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2), for values made of dicts with str keys,
    lists, tuples, strings, ints, bools and None; any other value raises
    TypeError.  Nested values are written where newline starts their lines.

    Strings are encoded by the C encoder json.dumps uses.  A list of
    lists of strings, all of one nonzero width (a document's relation,
    operation and map sections), is written by one % template per row.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        text = _json_rows(value, inner)
        if text is None:
            text = ("," + inner).join([_json_text(item, inner) for item in value])
        return "[" + inner + text + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _json_text(item, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_rows(rows, newline: str) -> Optional[str]:
    """The items of rows, each a list of strings of one nonzero width, as
    json.dumps writes them where newline starts their lines; None for any
    other rows."""
    width = len(rows[0]) if type(rows[0]) in (list, tuple) else 0
    if not width or not {list, tuple}.issuperset(map(type, rows)) or set(map(len, rows)) != {width}:
        return None
    cells = list(chain.from_iterable(rows))
    try:  # each distinct cell is encoded once
        encoded = {cell: encode_basestring_ascii(cell) for cell in set(cells)}
    except TypeError:  # a cell that is not a string
        return None
    inner = newline + "  "
    row = "[" + inner + ("," + inner).join(["%s"] * width) + newline + "]"
    return ("," + newline).join([row] * len(rows)) % tuple(map(encoded.__getitem__, cells))


def find_element(s: GranularSpace, token: str) -> str:
    """Resolve a CLI-facing element reference: an id, or a carrier rendering
    like '{a,b}' on set-extensional spaces ('{}' names the empty carrier)."""
    if token not in s._index and token.startswith("{") and token.endswith("}"):
        eid = s.element_with_carrier(frozenset(t for t in token[1:-1].split(",") if t))
        if eid is not None:
            return eid
    return s.elements[s._index_of(token)]  # InputError for an unknown id
