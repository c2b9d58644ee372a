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

AXIOM_ORDER = ("PT1", "PT2", "G1", "G2", "G3", "G4", "G5", "UL1", "UL2", "UL3", "TB")
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
        self._enforce_flavor()
        # Data other modules derive from the space on first use and keep
        # (the index tables of the inclusion axiom scans).  Nothing changes
        # a space after construction, so what is kept stays valid.
        self._derived: dict = {}

    @staticmethod
    def _check_relation(name, pairs, known) -> frozenset[tuple[str, str]]:
        rel = set()
        for pair in pairs:
            a, b = pair
            if a not in known or b not in known:
                raise StructuralError(f"{name} pair ({a!r},{b!r}) leaves the universe")
            rel.add((a, b))
        return frozenset(rel)

    @staticmethod
    def _check_table(name, table, known) -> dict[tuple[str, str], str]:
        out = {}
        for (a, b), r in table.items():
            if a not in known or b not in known or r not in known:
                raise StructuralError(
                    f"{name} entry ({a!r},{b!r})->{r!r} leaves the universe"
                )
            out[(a, b)] = r
        return out

    @staticmethod
    def _check_map(name, mapping, known) -> dict[str, str]:
        out = {}
        for x, v in mapping.items():
            if x not in known or v not in known:
                raise StructuralError(f"{name} entry {x!r}->{v!r} leaves the universe")
            out[x] = v
        missing = [x for x in known if x not in out]
        if missing:
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
        failure = _extensionality_failure(self)
        if failure:
            raise StructuralError(f"flavor setHGOS requires {failure}")

    # -- queries ---------------------------------------------------------

    @property
    def is_set_extensional(self) -> bool:
        return all(eid in self.carriers for eid in self.elements)

    def operations_total(self) -> bool:
        need = len(self.elements) ** 2
        if len(self.join) != need or len(self.meet) != need:
            return False
        return True

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
        for a in self.elements:
            for b in self.elements:
                yield a, b

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, GranularSpace):
            return NotImplemented
        return (
            self.elements == other.elements
            and self.carriers == other.carriers
            and self.parthood == other.parthood
            and self.order == other.order
            and self.join == other.join
            and self.meet == other.meet
            and self.granulation == other.granulation
            and self.lower == other.lower
            and self.upper == other.upper
            and self.bottom == other.bottom
            and self.top == other.top
            and self.flavor == other.flavor
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"GranularSpace({len(self.elements)} elements, "
            f"{len(self.granulation)} granules, flavor={self.flavor})"
        )


def proper_part(s: GranularSpace, a: str, b: str) -> bool:
    """Strict parthood: P a b holds and P b a does not."""
    return s.part(a, b) and not s.part(b, a)


# -- axiom checking ------------------------------------------------------


def validate_space(s: GranularSpace) -> list[AxiomReport]:
    """Check PT1, PT2, G1-G5, UL1-UL3 and TB; one report per axiom.

    Lattice axioms use weak equality: an instance with an undefined side is
    vacuously true and counted in the report's skipped field.
    """
    els = s.elements
    jn, mt = s.join.get, s.meet.get
    reports = []

    wit = [(x,) for x in els if not s.part(x, x)]
    reports.append(AxiomReport.of("PT1", wit))

    wit = [
        (a, b)
        for i, a in enumerate(els)
        for b in els[i + 1 :]
        if s.part(a, b) and s.part(b, a)
    ]
    reports.append(AxiomReport.of("PT2", wit))

    wit, skipped = [], 0
    for i, a in enumerate(els):
        for b in els[i:]:
            lj, rj = jn((a, b)), jn((b, a))
            lm, rm = mt((a, b)), mt((b, a))
            if None in (lj, rj) or None in (lm, rm):
                skipped += 1
            if not (weak_equal(lj, rj) and weak_equal(lm, rm)):
                wit.append((a, b))
    reports.append(AxiomReport.of("G1", wit, skipped))

    wit, skipped = [], 0
    for a in els:
        for b in els:
            absorbed_join = _apply(mt, jn((a, b)), a)
            absorbed_meet = _apply(jn, mt((a, b)), a)
            if absorbed_join is None or absorbed_meet is None:
                skipped += 1
            if not (weak_equal(absorbed_join, a) and weak_equal(absorbed_meet, a)):
                wit.append((a, b))
    reports.append(AxiomReport.of("G2", wit, skipped))

    wit, skipped = [], 0
    for a in els:
        for b in els:
            for c in els:
                lhs = _apply(jn, mt((a, b)), c)
                rhs = _apply(mt, jn((a, c)), jn((b, c)))
                if lhs is None or rhs is None:
                    skipped += 1
                if not weak_equal(lhs, rhs):
                    wit.append((a, b, c))
    reports.append(AxiomReport.of("G3", wit, skipped))

    wit, skipped = [], 0
    for a in els:
        for b in els:
            for c in els:
                lhs = _apply(mt, jn((a, b)), c)
                rhs = _apply(jn, mt((a, c)), mt((b, c)))
                if lhs is None or rhs is None:
                    skipped += 1
                if not weak_equal(lhs, rhs):
                    wit.append((a, b, c))
    reports.append(AxiomReport.of("G4", wit, skipped))

    wit, skipped = [], 0
    for a in els:
        for b in els:
            le = s.leq(a, b)
            jv, mv = jn((a, b)), mt((a, b))
            if jv is None or mv is None:
                skipped += 1
            ok = True
            if jv is not None and (jv == b) != le:
                ok = False
            if mv is not None and (mv == a) != le:
                ok = False
            if not ok:
                wit.append((a, b))
    reports.append(AxiomReport.of("G5", wit, skipped))

    wit = []
    for a in els:
        la, ua = s.lower[a], s.upper[a]
        if not (s.part(la, a) and s.lower[la] == la and s.part(ua, s.upper[ua])):
            wit.append((a,))
    reports.append(AxiomReport.of("UL1", wit))

    wit = []
    for a in els:
        for b in els:
            if s.part(a, b):
                if not (s.part(s.lower[a], s.lower[b]) and s.part(s.upper[a], s.upper[b])):
                    wit.append((a, b))
    reports.append(AxiomReport.of("UL2", wit))

    wit = []
    if not (s.lower[s.bottom] == s.bottom and s.upper[s.bottom] == s.bottom):
        wit.append((s.bottom,))
    if not (s.part(s.lower[s.top], s.top) and s.part(s.upper[s.top], s.top)):
        wit.append((s.top,))
    reports.append(AxiomReport.of("UL3", wit))

    wit = [(a,) for a in els if not (s.part(s.bottom, a) and s.part(a, s.top))]
    reports.append(AxiomReport.of("TB", wit))

    return reports


def _apply(table_get, x: Optional[str], y: Optional[str]) -> Optional[str]:
    if x is None or y is None:
        return None
    return table_get((x, y))


def representable_elements(s: GranularSpace, term_depth: int = 1) -> frozenset[str]:
    """Elements expressible as granule terms.

    Depth 1 means flat iterated joins of granules, in any fold order, plus
    bottom as the empty join.  Each extra depth level closes the current
    set under pairwise join and meet once more.
    """
    if term_depth < 1:
        raise InputError("term_depth must be at least 1")
    rep = {s.bottom}
    rep.update(s.granulation)
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
    po_equal = s.parthood == s.order
    if not po_equal:
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
    for a in s.elements:
        ca = s.carriers[a]
        for b in s.elements:
            cb = s.carriers[b]
            if ((a, b) in s.parthood) != (ca <= cb):
                return "parthood == inclusion"
            if s.carriers[s.join[(a, b)]] != ca | cb:
                return "join == union"
            if s.carriers[s.meet[(a, b)]] != ca & cb:
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
        raise SizeError(
            f"power-set universe capped at {POWERSET_OBJECT_CAP} objects, got {len(objs)}"
        )
    blks = [frozenset(b) for b in blocks]
    check_partition(blks, frozenset(objs), "exactly the base objects")

    ordered = sorted(objs)
    universe: list[frozenset[str]] = []
    for k in range(len(ordered) + 1):
        for combo in combinations(ordered, k):
            universe.append(frozenset(combo))
    ids = {carrier: render_carrier(carrier) for carrier in universe}

    lower = {}
    upper = {}
    for carrier in universe:
        lo = frozenset().union(*[b for b in blks if b <= carrier]) if blks else frozenset()
        hi = frozenset().union(*[b for b in blks if b & carrier]) if blks else frozenset()
        lower[ids[carrier]] = ids[frozenset(lo)]
        upper[ids[carrier]] = ids[frozenset(hi)]

    parthood = frozenset(
        (ids[a], ids[b]) for a in universe for b in universe if a <= b
    )
    join = {}
    meet = {}
    for a in universe:
        for b in universe:
            join[(ids[a], ids[b])] = ids[a | b]
            meet[(ids[a], ids[b])] = ids[a & b]

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
        out[(a, b)] = r
    return out


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
            maps[key] = {pair[0]: pair[1] for pair in _pairs_from(raw, key)}
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
