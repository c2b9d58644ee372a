"""Finite granular operator spaces.

A space bundles a finite universe with a parthood relation P, a companion
order, partial join/meet tables, a distinguished granulation, total lower
and upper approximation maps, and bottom/top elements.  Everything is
explicit and finite: relations are sets of ordered id pairs, operations are
dictionaries from id pairs to ids, and a missing key means the operation is
undefined there.

Equalities between possibly-undefined operation values come in two
strengths.  The weak reading holds unless both sides are defined and
differ; the strong weak reading additionally demands that definedness
agree.  Axiom checkers below use the weak reading for the lattice axioms
and count the instances they had to skip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
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

ADMISSIBILITY_ORDER = ("WRA", "LS", "FU")

POWERSET_OBJECT_CAP = 16


def render_carrier(carrier: Iterable[str]) -> str:
    """Canonical brace rendering of an extensional carrier, sorted tokens."""
    return "{" + ",".join(sorted(carrier)) + "}"


def weak_equal(lhs: Optional[str], rhs: Optional[str]) -> bool:
    """True unless both sides are defined and differ."""
    if lhs is None or rhs is None:
        return True
    return lhs == rhs


def strong_weak_equal(lhs: Optional[str], rhs: Optional[str]) -> bool:
    """True iff definedness agrees and defined values agree."""
    if (lhs is None) != (rhs is None):
        return False
    return lhs == rhs


@dataclass(frozen=True)
class AxiomReport:
    """Verdict for one axiom: holds iff the witness list is empty.

    skipped counts quantifier instances that could not be fully evaluated
    because a partial operation was undefined; those are vacuously true.
    """

    axiom: str
    holds: bool
    witnesses: tuple[tuple[str, ...], ...]
    skipped: int = 0

    def __post_init__(self):
        if self.holds != (len(self.witnesses) == 0):
            raise ValueError("holds must mirror witness emptiness")

    @classmethod
    def of(cls, axiom: str, witnesses: Iterable[tuple[str, ...]], skipped: int = 0) -> "AxiomReport":
        """The report listing these witness tuples; it holds iff there are none."""
        wit = tuple(witnesses)
        return cls(axiom=axiom, holds=not wit, witnesses=wit, skipped=skipped)


class GranularSpace:
    """Explicit finite model of a general granular operator space."""

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
        self.elements = tuple(elements)
        if not self.elements:
            raise StructuralError("a space needs at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise StructuralError("element ids must be unique")
        known = set(self.elements)

        self.carriers: dict[str, frozenset[str]] = {}
        for eid, carrier in (carriers or {}).items():
            if eid not in known:
                raise StructuralError(f"carrier given for unknown element {eid!r}")
            self.carriers[eid] = frozenset(carrier)
        seen_carriers: dict[frozenset[str], str] = {}
        for eid, carrier in self.carriers.items():
            if carrier in seen_carriers:
                raise StructuralError(
                    f"elements {seen_carriers[carrier]!r} and {eid!r} share the "
                    f"carrier {render_carrier(carrier)}"
                )
            seen_carriers[carrier] = eid
        self._by_carrier = seen_carriers

        self.parthood = self._check_relation("parthood", parthood, known)
        self.order = self._check_relation("order", order, known)
        self.join = self._check_table("join", join, known)
        self.meet = self._check_table("meet", meet, known)

        self.granulation = tuple(granulation)
        if len(set(self.granulation)) != len(self.granulation):
            raise StructuralError("granulation ids must be unique")
        for g in self.granulation:
            if g not in known:
                raise StructuralError(f"granulation names unknown element {g!r}")

        self.lower = self._check_map("lower", lower, known)
        self.upper = self._check_map("upper", upper, known)

        for name, eid in (("bottom", bottom), ("top", top)):
            if eid not in known:
                raise StructuralError(f"{name} element {eid!r} is not in the universe")
        self.bottom = bottom
        self.top = top

        if flavor not in FLAVORS:
            raise StructuralError(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self._index = {eid: i for i, eid in enumerate(self.elements)}
        # Data derived from the space on first use and kept (its index
        # tables, the inclusion axiom scans' rows).  Nothing changes a
        # space after construction, so what is kept stays valid.
        self._derived: dict = {}
        self._enforce_flavor()

    @staticmethod
    def _check_relation(name, pairs, known) -> frozenset[tuple[str, str]]:
        rel = set()
        for a, b in pairs:
            if a not in known or b not in known:
                raise StructuralError(f"{name} pair ({a!r},{b!r}) leaves the universe")
            rel.add((a, b))
        return frozenset(rel)

    @staticmethod
    def _check_table(name, table, known) -> dict[tuple[str, str], str]:
        out = {}
        for (a, b), r in table.items():
            if a not in known or b not in known or r not in known:
                raise StructuralError(f"{name} entry ({a!r},{b!r})->{r!r} leaves the universe")
            out[(a, b)] = r
        return out

    @staticmethod
    def _check_map(name, mapping, known) -> dict[str, str]:
        out = {}
        for x, v in mapping.items():
            if x not in known or v not in known:
                raise StructuralError(f"{name} entry {x!r}->{v!r} leaves the universe")
            out[x] = v
        if missing := [x for x in known if x not in out]:
            raise StructuralError(f"{name} map is not total, missing {sorted(missing)}")
        return out

    def _enforce_flavor(self):
        if self.flavor == "GGS":
            return
        if self.parthood != self.order:
            raise StructuralError(f"flavor {self.flavor} requires parthood == order")
        if self.flavor == "GS":
            return
        if not self.operations_total():
            raise StructuralError(f"flavor {self.flavor} requires total join and meet")
        if self.flavor == "HGOS":
            return
        if not self.is_set_extensional:
            raise StructuralError("flavor setHGOS requires a carrier on every element")
        if failure := _extensionality_failure(self):
            raise StructuralError(f"flavor setHGOS requires {failure}")

    # -- queries ---------------------------------------------------------

    @property
    def tables(self) -> "SpaceTables":
        """The space by element index (see SpaceTables), kept once built."""
        if "tables" not in self._derived:
            self._derived["tables"] = SpaceTables(self)
        return self._derived["tables"]

    @property
    def is_set_extensional(self) -> bool:
        return all(eid in self.carriers for eid in self.elements)

    def operations_total(self) -> bool:
        return len(self.join) == len(self.meet) == len(self.elements) ** 2

    def part(self, a: str, b: str) -> bool:
        return (a, b) in self.parthood

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.order

    def join_of(self, a: str, b: str) -> Optional[str]:
        return self.join.get((a, b))

    def meet_of(self, a: str, b: str) -> Optional[str]:
        return self.meet.get((a, b))

    def lower_of(self, x: str) -> str:
        return self.lower[x]

    def upper_of(self, x: str) -> str:
        return self.upper[x]

    def carrier_of(self, x: str) -> frozenset[str]:
        if x not in self.carriers:
            raise CarrierError(f"element {x!r} has no carrier")
        return self.carriers[x]

    def element_with_carrier(self, carrier: frozenset[str]) -> Optional[str]:
        return self._by_carrier.get(frozenset(carrier))

    def render(self, x: str) -> str:
        """Display form of an element: its carrier when it has one, else its id."""
        if x in self.carriers:
            return render_carrier(self.carriers[x])
        return x

    def pairs(self) -> Iterable[tuple[str, str]]:
        return ((a, b) for a in self.elements for b in self.elements)

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, GranularSpace):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in (
            "elements", "carriers", "parthood", "order", "join", "meet", "granulation",
            "lower", "upper", "bottom", "top", "flavor"))

    __hash__ = None

    def __repr__(self):
        return (
            f"GranularSpace({len(self.elements)} elements, "
            f"{len(self.granulation)} granules, flavor={self.flavor})"
        )


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


class SpaceTables:
    """The space by element index, each table built on its first read.

    join[i][j] and meet[i][j] are the index of the result, -1 where the
    operation is undefined; lower[i] and upper[i] are indices; parthood[i]
    and order[i] have bit j set when (a_i, a_j) is related; carriers[i] is
    a bitmask over the sorted objects, or carriers is None when an element
    has no carrier.  An operation result is an index only after a >= 0
    test: rows[-1] would read the last row.
    """

    def __init__(self, s: GranularSpace):
        # The space's parts, not the space, which keeps its tables: no cycle.
        self.n, self.index, self.elements = len(s.elements), s._index, s.elements
        self._join, self._meet, self._lower, self._upper = s.join, s.meet, s.lower, s.upper
        self._parthood, self._order, self._carriers = s.parthood, s.order, s.carriers

    def _op(self, table: Mapping[tuple[str, str], str]) -> list[list[int]]:
        idx, rows = self.index, [[-1] * self.n for _ in range(self.n)]
        for (a, b), r in table.items():
            rows[idx[a]][idx[b]] = idx[r]
        return rows

    def _rel(self, pairs: Iterable[tuple[str, str]]) -> list[int]:
        idx, masks = self.index, [0] * self.n
        for a, b in pairs:
            masks[idx[a]] |= 1 << idx[b]
        return masks

    join = cached_property(lambda t: t._op(t._join))
    meet = cached_property(lambda t: t._op(t._meet))
    lower = cached_property(lambda t: [t.index[t._lower[a]] for a in t.elements])
    upper = cached_property(lambda t: [t.index[t._upper[a]] for a in t.elements])
    parthood = cached_property(lambda t: t._rel(t._parthood))
    order = cached_property(lambda t: t._rel(t._order))
    objects = cached_property(lambda t: sorted(set().union(*t._carriers.values())))

    @cached_property
    def carriers(self) -> Optional[list[int]]:
        if any(a not in self._carriers for a in self.elements):
            return None
        bit = {o: 1 << i for i, o in enumerate(self.objects)}
        return [sum(bit[o] for o in self._carriers[a]) for a in self.elements]


# -- axiom checking ------------------------------------------------------
#
# Each check reads the space's tables and returns its witnesses, in element
# order, and how many instances it skipped because an operation was
# undefined there.


def _commutative(s, t):
    els, jn, mt = s.elements, t.join, t.meet
    wit, skipped = [], 0
    for i in range(t.n):
        for j in range(i, t.n):
            lj, rj, lm, rm = jn[i][j], jn[j][i], mt[i][j], mt[j][i]
            skipped += min(lj, rj, lm, rm) < 0
            if lj != rj and min(lj, rj) >= 0 or lm != rm and min(lm, rm) >= 0:
                wit.append((els[i], els[j]))
    return wit, skipped


def _absorptive(s, t):
    els, jn, mt = s.elements, t.join, t.meet
    wit, skipped = [], 0
    for a in range(t.n):
        for b, (j, m) in enumerate(zip(jn[a], mt[a])):
            x, y = mt[j][a] if j >= 0 else -1, jn[m][a] if m >= 0 else -1
            skipped += x < 0 or y < 0
            if x >= 0 and x != a or y >= 0 and y != a:
                wit.append((els[a], els[b]))
    return wit, skipped


def _distributive(s, t, outer, inner):
    """(a, b, c) with inner(outer(a, b), c) != outer(inner(a, c), inner(b, c)),
    both sides defined.  Per (a, b) the left side is one row of inner; rows
    that agree and are defined everywhere hold no witness and no skip."""
    els, n = s.elements, t.n
    out, inn = getattr(t, outer), getattr(t, inner)
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


def _order_consistent(s, t):
    els, jn, mt = s.elements, t.join, t.meet
    wit, skipped = [], 0
    for a, above in enumerate(t.order):
        for b, (j, m) in enumerate(zip(jn[a], mt[a])):
            le = above >> b & 1 == 1
            skipped += j < 0 or m < 0
            if j >= 0 and (j == b) != le or m >= 0 and (m == a) != le:
                wit.append((els[a], els[b]))
    return wit, skipped


def _approximation_ends(s, t):
    part, lo, up = t.parthood, t.lower, t.upper
    bot, top = t.index[s.bottom], t.index[s.top]
    wit = [] if lo[bot] == bot and up[bot] == bot else [(s.bottom,)]
    if not (part[lo[top]] >> top & 1 and part[up[top]] >> top & 1):
        wit.append((s.top,))
    return wit, 0


# Each axiom's check and the check's arguments after the space and its tables.
_AXIOM_CHECKS = {
    "PT1": (lambda s, t: ([(x,) for i, x in enumerate(s.elements) if not t.parthood[i] >> i & 1], 0),),
    "PT2": (lambda s, t: ([(s.elements[i], s.elements[j]) for i in range(t.n) for j in range(i + 1, t.n)
                           if t.parthood[i] >> j & 1 and t.parthood[j] >> i & 1], 0),),
    "G1": (_commutative,),
    "G2": (_absorptive,),
    "G3": (_distributive, "meet", "join"),
    "G4": (_distributive, "join", "meet"),
    "G5": (_order_consistent,),
    "UL1": (lambda s, t: ([(x,) for a, x, la, ua in zip(range(t.n), s.elements, t.lower, t.upper)
                           if not (t.parthood[la] >> a & 1 and t.lower[la] == la
                                   and t.parthood[ua] >> t.upper[ua] & 1)], 0),),
    "UL2": (lambda s, t: ([(s.elements[a], s.elements[b]) for a, la, ua in zip(range(t.n), t.lower, t.upper)
                           for b in _bits(t.parthood[a])
                           if not (t.parthood[la] >> t.lower[b] & 1 and t.parthood[ua] >> t.upper[b] & 1)], 0),),
    "UL3": (_approximation_ends,),
    "TB": (lambda s, t: ([(x,) for a, x in enumerate(s.elements) if not (
        t.parthood[t.index[s.bottom]] >> a & 1 and t.parthood[a] >> t.index[s.top] & 1)], 0),),
}

AXIOM_ORDER = tuple(_AXIOM_CHECKS)


def validate_space(s: GranularSpace) -> list[AxiomReport]:
    """Check PT1, PT2, G1-G5, UL1-UL3 and TB; one report per axiom.

    Lattice axioms use weak equality: an instance with an undefined side is
    vacuously true and counted in the report's skipped field.
    """
    t = s.tables
    return [AxiomReport.of(axiom, *check(s, t, *args)) for axiom, (check, *args) in _AXIOM_CHECKS.items()]


def representable_elements(s: GranularSpace, term_depth: int = 1) -> frozenset[str]:
    """Elements expressible as granule terms.

    Depth 1 means flat iterated joins of granules, in any fold order, plus
    bottom as the empty join.  Each extra depth level closes the current
    set under pairwise join and meet once more.
    """
    if term_depth < 1:
        raise InputError("term_depth must be at least 1")
    rep = {s.bottom, *s.granulation}
    changed = True
    while changed:
        changed = False
        for r in list(rep):
            for g in s.granulation:
                for x, y in ((r, g), (g, r)):
                    v = s.join.get((x, y))
                    if v is not None and v not in rep:
                        rep.add(v)
                        changed = True
    for _ in range(term_depth - 1):
        fresh = set()
        cur = list(rep)
        for x in cur:
            for y in cur:
                for table in (s.join, s.meet):
                    v = table.get((x, y))
                    if v is not None and v not in rep:
                        fresh.add(v)
        if not fresh:
            break
        rep |= fresh
    return frozenset(rep)


def check_admissibility(s: GranularSpace, term_depth: int = 1) -> list[AxiomReport]:
    """Check the admissibility conditions WRA, LS and FU of the granulation."""
    rep = representable_elements(s, term_depth)

    wra = [(x,) for x in s.elements if s.lower[x] not in rep or s.upper[x] not in rep]

    ls = [
        (a, x)
        for a in s.granulation
        for x in s.elements
        if s.part(a, x) and not s.part(a, s.lower[x])
    ]

    definite = [z for z in s.elements if s.lower[z] == z and s.upper[z] == z]
    fu = []
    for x in s.granulation:
        for a in s.granulation:
            if not any(
                proper_part(s, x, z) and proper_part(s, a, z) for z in definite
            ):
                fu.append((x, a))

    return [AxiomReport.of("WRA", wra), AxiomReport.of("LS", ls), AxiomReport.of("FU", fu)]


# -- granular approximations ---------------------------------------------


def _require_carriers(s: GranularSpace):
    for eid in s.elements:
        if eid not in s.carriers:
            raise CarrierError(f"element {eid!r} has no carrier")


def granular_lower(s: GranularSpace, x: str) -> str:
    """Union of the granules that are parts of x, as an element."""
    _require_carriers(s)
    if x not in s._index:
        raise InputError(f"unknown element {x!r}")
    parts = [g for g in s.granulation if s.part(g, x)]
    return _carrier_union_element(s, parts)


def granular_upper(s: GranularSpace, x: str) -> str:
    """Union of the granules whose carriers meet the carrier of x."""
    _require_carriers(s)
    if x not in s._index:
        raise InputError(f"unknown element {x!r}")
    cx = s.carriers[x]
    touching = [g for g in s.granulation if s.carriers[g] & cx]
    return _carrier_union_element(s, touching)


def _carrier_union_element(s: GranularSpace, granules: Sequence[str]) -> str:
    union: frozenset[str] = frozenset()
    for g in granules:
        union |= s.carriers[g]
    eid = s.element_with_carrier(union)
    if eid is None:
        raise ClosureError(f"union carrier {render_carrier(union)} is not an element")
    return eid


def classify_flavor(s: GranularSpace) -> str:
    """Most specific flavor whose defining conditions hold."""
    if s.flavor == "setHGOS":  # the constructor proved it
        return "setHGOS"
    if s.parthood != s.order:
        return "GGS"
    if not s.operations_total():
        return "GS"
    if s.is_set_extensional and _extensionality_failure(s) is None:
        return "setHGOS"
    return "HGOS"


def _extensionality_failure(s: GranularSpace) -> Optional[str]:
    """The first setHGOS condition to fail on a carried space with total
    operations, in element order of the pair, or None when parthood is
    inclusion, join is union and meet is intersection."""
    t = s.tables
    cm = t.carriers
    for ca, part, jn, mt in zip(cm, t.parthood, t.join, t.meet):
        for j, cb in enumerate(cm):
            if (part >> j & 1 == 1) != (ca & cb == ca):
                return "parthood == inclusion"
            if cm[jn[j]] != ca | cb:
                return "join == union"
            if cm[mt[j]] != ca & cb:
                return "meet == intersection"
    return None


# -- power-set construction ----------------------------------------------


def powerset_space(objects: Sequence[str], blocks: Iterable[Iterable[str]]) -> GranularSpace:
    """Full power-set space over base objects with a partition granulation.

    Parthood and order are inclusion, join/meet are union/intersection
    (total), lower/upper are the classical approximations induced by the
    blocks.  Rejects more than 16 base objects.
    """
    objs = tuple(objects)
    if len(set(objs)) != len(objs):
        raise InputError("base objects must be unique")
    if len(objs) > POWERSET_OBJECT_CAP:
        raise SizeError(f"power-set universe capped at {POWERSET_OBJECT_CAP} objects, got {len(objs)}")
    blks = [frozenset(b) for b in blocks]
    check_partition(blks, frozenset(objs), "exactly the base objects")

    ordered = sorted(objs)
    universe = [frozenset(c) for k in range(len(ordered) + 1) for c in combinations(ordered, k)]
    ids = {carrier: render_carrier(carrier) for carrier in universe}

    lower = {ids[c]: ids[frozenset().union(*[b for b in blks if b <= c])] for c in universe}
    upper = {ids[c]: ids[frozenset().union(*[b for b in blks if b & c])] for c in universe}
    parthood = frozenset((ids[a], ids[b]) for a in universe for b in universe if a <= b)
    join = {(ids[a], ids[b]): ids[a | b] for a in universe for b in universe}
    meet = {(ids[a], ids[b]): ids[a & b] for a in universe for b in universe}

    granulation = [ids[b] for b in sorted(blks, key=lambda b: (len(b), sorted(b)))]

    return GranularSpace(
        elements=[ids[c] for c in universe],
        parthood=parthood,
        order=parthood,
        join=join,
        meet=meet,
        granulation=granulation,
        lower=lower,
        upper=upper,
        bottom=ids[frozenset()],
        top=ids[frozenset(ordered)],
        flavor="setHGOS",
        carriers={ids[c]: c for c in universe},
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
    """Build a space from a JSON file path, JSON text object, or plain dict."""
    if isinstance(source, dict):
        raw = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    if not isinstance(raw, dict):
        raise SpaceFormatError("space document must be a JSON object")
    return space_from_dict(raw)


def space_from_dict(raw: dict) -> GranularSpace:
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

    granulation = raw["granulation"]
    if not (isinstance(granulation, list) and all(isinstance(g, str) for g in granulation)):
        raise SpaceFormatError("granulation must be an array of string ids")

    parthood = _pairs_from(raw, "parthood")
    order = _pairs_from(raw, "order")
    join = _table_from(raw, "join")
    meet = _table_from(raw, "meet")

    lower, upper = _approximations_from(raw, elements, carriers, parthood)

    try:
        return GranularSpace(
            elements=elements,
            parthood=parthood,
            order=order,
            join=join,
            meet=meet,
            granulation=granulation,
            lower=lower,
            upper=upper,
            bottom=raw["bottom"],
            top=raw["top"],
            flavor=raw["flavor"],
            carriers=carriers,
        )
    except StructuralError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpaceFormatError(str(exc)) from exc


def _pairs_from(raw, key):
    pairs = raw[key]
    if not isinstance(pairs, list):
        raise SpaceFormatError(f"{key} must be an array of pairs")
    out = []
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SpaceFormatError(f"{key}[{i}] must be a two-element array")
        a, b = pair
        if not (isinstance(a, str) and isinstance(b, str)):
            raise SpaceFormatError(f"{key}[{i}] must hold string ids")
        out.append((a, b))
    return out


def _table_from(raw, key):
    rows = raw[key]
    if not isinstance(rows, list):
        raise SpaceFormatError(f"{key} must be an array of triples")
    out = {}
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 3):
            raise SpaceFormatError(f"{key}[{i}] must be a three-element array")
        a, b, r = row
        if not (isinstance(a, str) and isinstance(b, str) and isinstance(r, str)):
            raise SpaceFormatError(f"{key}[{i}] must hold string ids")
        if out.setdefault((a, b), r) != r:
            raise _conflict(f"{key}[{i}]", f"({a!r},{b!r})", r, out[(a, b)])
    return out


def _conflict(where: str, shown: str, value: str, earlier: str) -> SpaceFormatError:
    """The error for an entry that gives a key a second, different value."""
    return SpaceFormatError(f"{where} maps {shown} to {value!r}, but an earlier entry maps it to {earlier!r}")


def _approximations_from(raw, elements, carriers, parthood):
    maps = {}
    for key in ("lower", "upper"):
        val = raw[key]
        if val == "granular":
            if set(carriers) != set(elements):
                raise SpaceFormatError(
                    f"{key} mode 'granular' needs a carrier on every element"
                )
            maps[key] = _derive_granular(raw, key, elements, carriers, parthood)
        else:
            if not isinstance(val, list):
                raise SpaceFormatError(f"{key} must be an array of pairs or 'granular'")
            maps[key] = out = {}
            for i, (x, v) in enumerate(_pairs_from(raw, key)):
                if out.setdefault(x, v) != v:
                    raise _conflict(f"{key}[{i}]", repr(x), v, out[x])
    return maps["lower"], maps["upper"]


def _derive_granular(raw, key, elements, carriers, parthood):
    pset = set(parthood)
    by_carrier = {c: e for e, c in carriers.items()}
    granules = raw["granulation"]
    out = {}
    for x in elements:
        if key == "lower":
            chosen = [g for g in granules if (g, x) in pset]
        else:
            chosen = [g for g in granules if carriers[g] & carriers[x]]
        union = frozenset().union(*[carriers[g] for g in chosen]) if chosen else frozenset()
        eid = by_carrier.get(union)
        if eid is None:
            raise ClosureError(
                f"union carrier {render_carrier(union)} is not an element"
            )
        out[x] = eid
    return out


def space_to_dict(s: GranularSpace) -> dict:
    """Deterministic JSON-ready representation; inverse of space_from_dict."""
    idx = s._index
    by_index = lambda pair: (idx[pair[0]], idx[pair[1]])

    elements = []
    for eid in s.elements:
        entry: dict = {"id": eid}
        if eid in s.carriers:
            entry["carrier"] = sorted(s.carriers[eid])
        elements.append(entry)

    return {
        "elements": elements,
        "parthood": [[a, b] for a, b in sorted(s.parthood, key=by_index)],
        "order": [[a, b] for a, b in sorted(s.order, key=by_index)],
        "join": [[a, b, r] for (a, b), r in sorted(s.join.items(), key=lambda kv: by_index(kv[0]))],
        "meet": [[a, b, r] for (a, b), r in sorted(s.meet.items(), key=lambda kv: by_index(kv[0]))],
        "granulation": list(s.granulation),
        "lower": [[x, s.lower[x]] for x in s.elements],
        "upper": [[x, s.upper[x]] for x in s.elements],
        "bottom": s.bottom,
        "top": s.top,
        "flavor": s.flavor,
    }


def save_space(s: GranularSpace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(space_to_dict(s), fh, indent=2)
        fh.write("\n")


def find_element(s: GranularSpace, token: str) -> str:
    """Resolve a CLI-facing element reference: an id, or a carrier rendering
    like '{a,b}' on set-extensional spaces ('{}' names the empty carrier)."""
    if token in s._index:
        return token
    if token.startswith("{") and token.endswith("}"):
        inner = token[1:-1]
        carrier = frozenset(t for t in inner.split(",") if t)
        eid = s.element_with_carrier(carrier)
        if eid is not None:
            return eid
    raise InputError(f"unknown element {token!r}")
