"""An independent model of the space and function layers, the oracle
that their tests compare the package against.  It imports only the
standard library.

A space is read from its document, with the loader's refusals, or written
as the document of a power set; a function is a dict of Fractions keyed by
element pair; every value, refusal, axiom report, class, law report and
search result is computed from its definition by loops over the elements.
Nothing the package settles by theorem is taken as given: the flavor is
read up from GGS, PT1-TB are scanned on every flavor, the eight pointwise
laws are scanned, R3 apart from R2, the base functions and the search's
products and blends are classified, and every canonical form takes its gcd.
"""

from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice
from math import gcd, lcm
from random import Random

ONE = Fraction(1)
AXIOMS = ("U1", "R0", "R1", "R2", "R3", "R4", "R5", "R6", "IR0", "IR4", "RB")
LAWS = ("Comm", "Assoc", "Identity", "Idempotence", "Distributivity", "Order1", "Order2", "Top",
        "WeakSharpComp", "WeakFlatComp", "R0Plus")


class Refused(Exception):
    """A refusal, Refused(kind, text): kind is the name of the error class
    the package raises, text its message."""


def outcome(call, *args, read=lambda value: value):
    """read(call(*args)), or ("raised", the name of the error's class, its
    text), where a Refused names the class it stands for."""
    try:
        value = call(*args)
    except Refused as exc:
        return "raised", *exc.args
    except Exception as exc:  # compared by class name and text
        return "raised", type(exc).__name__, str(exc)
    return read(value)


def render(carrier) -> str:
    return "{" + ",".join(sorted(carrier)) + "}"


def powerset_document(objects, blocks) -> dict:
    """The document of the power set of objects granulated by the partition
    blocks: the subsets by size, then in combination order of the sorted
    objects, each named by its rendering; inclusion as parthood and order,
    union and intersection as join and meet, and the classical lower and
    upper approximations, the union of the blocks inside, resp. touching,
    a subset."""
    subsets = [frozenset(c) for k in range(len(objects) + 1) for c in combinations(sorted(objects), k)]
    blocks = [frozenset(b) for b in blocks]
    ids = {c: render(c) for c in subsets}
    inclusion = [[ids[a], ids[b]] for a in subsets for b in subsets if a <= b]
    return {
        "elements": [{"id": ids[c], "carrier": sorted(c)} for c in subsets],
        "parthood": inclusion,
        "order": inclusion,
        "join": [[ids[a], ids[b], ids[a | b]] for a in subsets for b in subsets],
        "meet": [[ids[a], ids[b], ids[a & b]] for a in subsets for b in subsets],
        "granulation": [ids[b] for b in blocks],
        "lower": [[ids[c], ids[frozenset().union(*(b for b in blocks if b <= c))]] for c in subsets],
        "upper": [[ids[c], ids[frozenset().union(*(b for b in blocks if b & c))]] for c in subsets],
        "bottom": ids[subsets[0]],
        "top": ids[subsets[-1]],
        "flavor": "setHGOS",
    }


FLAVORS = ("GGS", "GS", "HGOS", "setHGOS")
SECTIONS = ("elements", "parthood", "order", "join", "meet", "granulation", "lower", "upper", "bottom", "top",
            "flavor")


def _shape(text: str) -> Refused:
    return Refused("SpaceFormatError", text)


def _structure(text: str) -> Refused:
    return Refused("StructuralError", text)


def _rows(doc: dict, key: str, width: int, must: str):
    """(k, row) of each row of the section, as a tuple of width string ids,
    each row's shape checked as it is reached."""
    if not isinstance(doc[key], list):
        raise _shape(f"{key} must be {must}")
    for k, row in enumerate(doc[key]):
        if not (isinstance(row, list) and len(row) == width):
            raise _shape(f"{key}[{k}] must be a {'two' if width == 2 else 'three'}-element array")
        if not all(isinstance(x, str) for x in row):
            raise _shape(f"{key}[{k}] must hold string ids")
        yield k, tuple(row)


def _conflict(where: str, shown: str, value: str, earlier: str) -> Refused:
    return _shape(f"{where} maps {shown} to {value!r}, but an earlier entry maps it to {earlier!r}")


class Space:
    """A space as its document states it: the ids in document order, the
    carriers, the relations as sets of pairs, the partial join and meet as
    dicts, the lower and upper maps, derived from the granules where the
    document says "granular", and the declared flavor.

    A document the package refuses is refused with the same error, the
    first it meets: a section of the wrong shape, an entry that gives a key
    a second value, or a "granular" map that cannot be derived, at once in
    document order; then no element, a repeated id or two elements with one
    carrier; then the first problem noted in section order, each section
    noting its first id outside the universe, and a repeated granule, a
    bottom or top that is no string and an unknown flavor noted too; then
    the first condition of the declared flavor that fails.  Documents over
    the package's work budget are not modelled."""

    def __init__(self, doc: dict):
        for key in SECTIONS:
            if key not in doc:
                raise _shape(f"missing key {key!r}")
        if not isinstance(doc["elements"], list):
            raise _shape("elements must be an array")
        self.elements, self.carriers = [], {}
        for k, entry in enumerate(doc["elements"]):
            if not isinstance(entry, dict) or "id" not in entry:
                raise _shape(f"elements[{k}] must be an object with an id")
            if not isinstance(entry["id"], str):
                raise _shape(f"elements[{k}].id must be a string")
            self.elements.append(entry["id"])
            if "carrier" in entry:
                if not (isinstance(entry["carrier"], list) and all(isinstance(x, str) for x in entry["carrier"])):
                    raise _shape(f"elements[{k}].carrier must be an array of strings")
                self.carriers[entry["id"]] = frozenset(entry["carrier"])
        self.granulation = grans = doc["granulation"]
        if not (isinstance(grans, list) and all(isinstance(g, str) for g in grans)):
            raise _shape("granulation must be an array of string ids")
        known, notes = set(self.elements), []
        self.parthood = self._relation(doc, "parthood", known, notes)
        self.order = self._relation(doc, "order", known, notes)
        self.join = self._operation(doc, "join", known, notes)
        self.meet = self._operation(doc, "meet", known, notes)
        if len(set(grans)) != len(grans):
            notes.append(_structure("granulation ids must be unique"))
        if unknown := [g for g in grans if g not in known]:
            notes.append(_structure(f"granulation names unknown element {unknown[0]!r}"))
        self.lower = self._map(doc, "lower", known, notes)
        self.upper = self._map(doc, "upper", known, notes)
        for key in ("bottom", "top"):
            if not isinstance(doc[key], str):
                notes.append(_shape(f"{key} must be a string id"))
            elif doc[key] not in known:
                notes.append(_structure(f"{key} element {doc[key]!r} is not in the universe"))
        if doc["flavor"] not in FLAVORS:
            notes.append(_structure(f"unknown flavor {doc['flavor']!r}"))
        if not self.elements:
            raise _structure("a space needs at least one element")
        if len(known) != len(self.elements):
            raise _structure("element ids must be unique")
        owner = {}
        for e, carrier in self.carriers.items():
            if owner.setdefault(carrier, e) != e:
                raise _structure(f"elements {owner[carrier]!r} and {e!r} share the carrier {render(carrier)}")
        if notes:
            raise notes[0]
        self.bottom, self.top, self.declared = doc["bottom"], doc["top"], doc["flavor"]
        self.pairs = [(a, b) for a in self.elements for b in self.elements]
        for failure in islice(self._ladder(), FLAVORS.index(self.declared)):
            if failure:
                raise _structure(f"flavor {self.declared} requires {failure}")

    @staticmethod
    def _relation(doc: dict, key: str, known: set, notes: list) -> set:
        """The relation as a set of pairs; its first pair outside the universe is noted."""
        pairs = [p for _, p in _rows(doc, key, 2, "an array of pairs")]
        if stray := next((p for p in pairs if not known.issuperset(p)), None):
            notes.append(_structure(f"{key} pair ({stray[0]!r},{stray[1]!r}) leaves the universe"))
        return set(pairs)

    @staticmethod
    def _operation(doc: dict, key: str, known: set, notes: list) -> dict:
        """The operation as a dict; its first entry outside the universe is noted."""
        table, stray = {}, None
        for k, (a, b, r) in _rows(doc, key, 3, "an array of triples"):
            if table.setdefault((a, b), r) != r:
                raise _conflict(f"{key}[{k}]", f"({a!r},{b!r})", r, table[a, b])
            if not (stray or known.issuperset((a, b, r))):
                stray = _structure(f"{key} entry ({a!r},{b!r})->{r!r} leaves the universe")
        notes += [stray] if stray else []
        return table

    def _map(self, doc: dict, key: str, known: set, notes: list) -> dict:
        """The lower or upper map: x -> the element whose carrier is the
        union of the granules that are parts of x (lower), resp. whose
        carriers meet x's (upper), where the section says "granular"; else
        the section's pairs, every one checked for shape before any for a
        second value, and its first entry outside the universe, else the
        ids it misses, noted."""
        if doc[key] == "granular":
            c = self.carriers
            if set(c) != known:
                raise _shape(f"{key} mode 'granular' needs a carrier on every element")
            for g in self.granulation:
                if g not in known:
                    raise _structure(f"granulation names unknown element {g!r}")
            by_carrier, out = {carrier: e for e, carrier in c.items()}, {}
            for x in self.elements:
                union = frozenset().union(*(c[g] for g in self.granulation
                                            if ((g, x) in self.parthood if key == "lower" else c[g] & c[x])))
                if union not in by_carrier:
                    raise Refused("ClosureError", f"union carrier {render(union)} is not an element")
                out[x] = by_carrier[union]
            return out
        rows, out = list(_rows(doc, key, 2, "an array of pairs or 'granular'")), {}
        for k, (x, v) in rows:
            if out.setdefault(x, v) != v:
                raise _conflict(f"{key}[{k}]", repr(x), v, out[x])
        if stray := next(((x, v) for _, (x, v) in rows if not known.issuperset((x, v))), None):
            notes.append(_structure(f"{key} entry {stray[0]!r}->{stray[1]!r} leaves the universe"))
        elif missing := sorted(known - set(out)):
            notes.append(_structure(f"{key} map is not total, missing {missing}"))
        return out

    def _ladder(self):
        """Per step of the flavor ladder, GS, HGOS, then setHGOS, the text
        of the condition it adds to the flavor below, where that fails,
        else None; a step is reached only when the ones before it hold.
        HGOS adds total join and meet to GS; setHGOS adds a carrier on every
        element and, per pair in order, parthood as inclusion of carriers,
        join as union and meet as intersection."""
        yield None if self.parthood == self.order else "parthood == order"
        yield None if all(p in self.join and p in self.meet for p in self.pairs) else "total join and meet"
        c = self.carriers
        yield "a carrier on every element" if set(c) != set(self.elements) else next((
            failure for a, b in self.pairs for failure, holds in (
                ("parthood == inclusion", ((a, b) in self.parthood) == (c[a] <= c[b])),
                ("join == union", c[self.join[a, b]] == c[a] | c[b]),
                ("meet == intersection", c[self.meet[a, b]] == c[a] & c[b])) if not holds), None)

    def flavor(self) -> str:
        """The most specific flavor whose conditions hold, read up the ladder from GGS."""
        return next((FLAVORS[k] for k, failure in enumerate(self._ladder()) if failure), FLAVORS[-1])

    def complement_closed(self) -> bool:
        """setHGOS, with top's carrier less any element's carrier the carrier of an element."""
        carriers = set(self.carriers.values())
        return self.flavor() == "setHGOS" and all(
            self.carriers[self.top] - c in carriers for c in self.carriers.values())


# -- space axioms and admissibility ------------------------------------------


def _weak(x, y) -> bool:
    """x = y read weakly: it holds unless both are defined and differ."""
    return x is None or y is None or x == y


def _apply(table: dict, x, y):
    """table at (x, y), None where x or y or the entry is undefined."""
    return None if x is None or y is None else table.get((x, y))


def validate(s: Space) -> list[tuple[str, tuple, int]]:
    """(axiom, witnesses, skipped) of PT1, PT2, G1-G5, UL1-UL3 and TB, each
    by a scan of every instance on every flavor, in element order.  An
    equality of operation values holds weakly, and an instance that reads
    an undefined value is counted in skipped."""
    els, P, J, M, L, U, bot, top = s.elements, s.parthood, s.join, s.meet, s.lower, s.upper, s.bottom, s.top
    # the lattice axioms' instances, each as (key, the values it reads, whether it holds)
    g1 = (((a, b), (lj, rj, lm, rm), _weak(lj, rj) and _weak(lm, rm)) for i, a in enumerate(els) for b in els[i:]
          for lj, rj, lm, rm in [(J.get((a, b)), J.get((b, a)), M.get((a, b)), M.get((b, a)))])
    g2 = (((a, b), (x, y), _weak(x, a) and _weak(y, a)) for a, b in s.pairs
          for x, y in [(_apply(M, J.get((a, b)), a), _apply(J, M.get((a, b)), a))])

    def distributive(outer, inner):
        """inner(outer(a, b), c) = outer(inner(a, c), inner(b, c))."""
        return (((a, b, c), (x, y), _weak(x, y)) for a, b in s.pairs for c in els
                for x, y in [(_apply(inner, outer.get((a, b)), c),
                              _apply(outer, inner.get((a, c)), inner.get((b, c))))])

    g5 = (((a, b), (j, m), (j is None or (j == b) == le) and (m is None or (m == a) == le)) for a, b in s.pairs
          for le, j, m in [((a, b) in s.order, J.get((a, b)), M.get((a, b)))])
    reports = [
        ("PT1", [(a,) for a in els if (a, a) not in P], 0),
        ("PT2", [(a, b) for i, a in enumerate(els) for b in els[i + 1:] if (a, b) in P and (b, a) in P], 0),
        ("G1", *_scan(g1)), ("G2", *_scan(g2)), ("G3", *_scan(distributive(M, J))),
        ("G4", *_scan(distributive(J, M))), ("G5", *_scan(g5)),
        ("UL1", [(a,) for a in els if not ((L[a], a) in P and L[L[a]] == L[a] and (U[a], U[U[a]]) in P)], 0),
        ("UL2", [(a, b) for a, b in s.pairs if (a, b) in P and not ((L[a], L[b]) in P and (U[a], U[b]) in P)], 0),
        ("UL3", [(x,) for x, holds in ((bot, L[bot] == bot == U[bot]),
                                       (top, (L[top], top) in P and (U[top], top) in P)) if not holds], 0),
        ("TB", [(a,) for a in els if not ((bot, a) in P and (a, top) in P)], 0),
    ]
    return [(axiom, tuple(wit), skipped) for axiom, wit, skipped in reports]


def _scan(instances) -> tuple[list, int]:
    """(the keys of the instances that fail, how many read an undefined
    value) of instances (key, values read, holds)."""
    wit, skipped = [], 0
    for key, values, holds in instances:
        skipped += None in values
        if not holds:
            wit.append(key)
    return wit, skipped


def representable_elements(s: Space, depth: int = 1) -> frozenset:
    """bottom and the granules closed under joins with a granule, either
    side; then, per depth past 1, every defined join and meet of two of
    those added, while that adds any."""
    if depth < 1:
        raise Refused("InputError", "term_depth must be at least 1")
    rep = {s.bottom, *s.granulation}

    def added(ops, others) -> set:
        """The defined values of ops at an element of rep and one of others, either side, not in rep."""
        return {op.get(p) for x in rep for y in others for p in ((x, y), (y, x)) for op in ops} - rep - {None}

    while more := added([s.join], s.granulation):
        rep |= more
    for _ in range(depth - 1):
        if not (more := added([s.join, s.meet], rep)):
            break
        rep |= more
    return frozenset(rep)


def admissibility(s: Space, depth: int = 1) -> list[tuple[str, tuple, int]]:
    """(condition, witnesses, 0) of WRA, LS and FU: WRA, every lower and
    upper image is representable; LS, a granule that is a part of x is a
    part of lower(x); FU, every two granules are proper parts of one
    definite element, an element that is its lower and its upper image."""
    rep, P, L, U, grans = representable_elements(s, depth), s.parthood, s.lower, s.upper, s.granulation
    definite = {z for z in s.elements if L[z] == z == U[z]}
    above = {g: {z for z in s.elements if (g, z) in P and (z, g) not in P} for g in grans}
    return [("WRA", tuple((x,) for x in s.elements if L[x] not in rep or U[x] not in rep), 0),
            ("LS", tuple((g, x) for g in grans for x in s.elements if (g, x) in P and (g, L[x]) not in P), 0),
            ("FU", tuple((x, g) for x in grans for g in grans if not above[x] & above[g] & definite), 0)]


# -- functions ---------------------------------------------------------------


class Function:
    """A function on space: values maps each element pair to a Fraction."""

    def __init__(self, space: Space, values: dict, label: str):
        self.space, self.values, self.label = space, values, label

    @cached_property
    def row(self) -> tuple[list[int], int]:
        """(nums, den): the values in pair order over their least common
        denominator, divided by the gcd of it and every numerator."""
        vals = [self.values[p] for p in self.space.pairs]
        den = lcm(*(v.denominator for v in vals))
        nums = [v.numerator * (den // v.denominator) for v in vals]
        g = gcd(den, *nums)
        return [x // g for x in nums], den // g

    def form(self) -> tuple[list[int], int, str]:
        return (*self.row, self.label)


# A row (nums, den) is a function's values in pair order as integer
# numerators over one denominator: products and blends of rows are exact
# at every pair without building a Fraction.


def _of_row(space: Space, row: tuple[list[int], int], label: str) -> Function:
    nums, den = row
    return Function(space, {p: Fraction(x, den) for p, x in zip(space.pairs, nums)}, label)


def _times(x, y):
    return [p * q for p, q in zip(x[0], y[0])], x[1] * y[1]


def _blend(w: Fraction, x, y):
    """w * x + (1 - w) * y."""
    p, q = w.numerator, w.denominator
    return [p * y[1] * a + (q - p) * x[1] * b for a, b in zip(x[0], y[0])], q * x[1] * y[1]


def table(space: Space, values, label: str) -> Function:
    """The function of a table of values: every pair looked up in pair
    order, then every value converted by Fraction, then the first value
    outside [0,1] refused."""
    read = []
    for a, b in space.pairs:
        try:
            read.append(values[a, b])
        except KeyError:
            raise Refused("InputError", f"value missing for pair ({a!r},{b!r})") from None
    vals = dict(zip(space.pairs, map(Fraction, read)))
    for (a, b), v in vals.items():
        if not 0 <= v <= 1:
            raise Refused("InputError", f"value {v} at ({a!r},{b!r}) is outside [0,1]")
    return Function(space, vals, label)


def _carriers(space: Space) -> dict:
    for e in space.elements:
        if e not in space.carriers:
            raise Refused("CarrierError", f"element {e!r} has no carrier")
    return space.carriers


def _of_carriers(space: Space, label: str, value) -> Function:
    """The function value(A, B) of the carriers A of a and B of b."""
    c = _carriers(space)
    return Function(space, {(a, b): value(c[a], c[b]) for a, b in space.pairs}, label)


def k0(space: Space) -> Function:
    """#(A and B)/#A, and 1 where A is empty."""
    return _of_carriers(space, "k0", lambda A, B: Fraction(len(A & B), len(A)) if A else ONE)


def k1(space: Space) -> Function:
    """#B/#(A or B), and 1 where both are empty."""
    return _of_carriers(space, "k1", lambda A, B: Fraction(len(B), len(A | B)) if A | B else ONE)


def k2(space: Space) -> Function:
    """#((top less A) or B)/#top; refused for an empty top carrier and for
    a carrier outside top's, the first in element order."""
    c = _carriers(space)
    top = c[space.top]
    if not top:
        raise Refused("DegenerateSpaceError", "k2 needs a nonempty top carrier")
    for e in space.elements:
        if c[e] - top:
            raise Refused("InputError", f"k2 needs every carrier inside the top carrier {render(top)}; "
                                        f"{e!r} has {render(c[e])}")
    return _of_carriers(space, "k2", lambda A, B: Fraction(len((top - A) | B), len(top)))


def top_function(space: Space) -> Function:
    return Function(space, {p: ONE for p in space.pairs}, "top")


def random_kappa(space: Space, rng: Random, max_denominator: int = 12) -> Function:
    """Per pair in pair order, a denominator q in 1..max_denominator, then a
    numerator in 0..q; then, with probability one half, 1 on the diagonal."""
    values = {}
    for p in space.pairs:
        q = rng.randint(1, max_denominator)
        values[p] = Fraction(rng.randint(0, q), q)
    if rng.random() < 0.5:
        values.update({(a, a): ONE for a in space.elements})
    return Function(space, values, "kappa")


# -- operators ---------------------------------------------------------------


def weight(alpha):
    """A weight as an operator reads it, converted by Fraction and refused
    outside [0,1]."""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise Refused("ParameterError", f"weight must lie in [0,1], got {alpha}")
    return alpha


def thresholds(low, high):
    """kst's thresholds as the operator reads them, converted by Fraction
    and refused outside [0,1], then unless s < t."""
    low, high = Fraction(low), Fraction(high)
    if not 0 <= low < high <= 1:
        rule = "s < t" if 0 <= low and high <= 1 else "0 <= s < t <= 1"
        raise Refused("ParameterError", f"thresholds must satisfy {rule}, got s={low}, t={high}")
    return low, high


def _pointwise(f: Function, value, label: str) -> Function:
    return Function(f.space, {(a, b): value(a, b) for a, b in f.space.pairs}, label)


def otimes(f: Function, g: Function) -> Function:
    return _of_row(f.space, _times(f.row, g.row), f"otimes({f.label},{g.label})")


def oplus(alpha, f: Function, g: Function) -> Function:
    alpha = weight(alpha)
    return _of_row(f.space, _blend(alpha, f.row, g.row), f"oplus({alpha},{f.label},{g.label})")


def sharp(f: Function) -> Function:
    low = f.space.lower
    return _pointwise(f, lambda a, b: f.values[low[a], low[b]], f"sharp({f.label})")


def flat(f: Function) -> Function:
    up = f.space.upper
    return _pointwise(f, lambda a, b: f.values[up[a], up[b]], f"flat({f.label})")


def sigma(f: Function) -> Function:
    """The greatest f(w, lower(b)) over the granules w that are parts of a, and 1 where there is none."""
    s = f.space
    return _pointwise(f, lambda a, b: max((f.values[w, s.lower[b]] for w in s.granulation if (w, a) in s.parthood),
                                          default=ONE), f"sigma({f.label})")


def power(f: Function, n: int) -> Function:
    """f**n pointwise, for an int n of at least 1; a bool is not one."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise Refused("ParameterError", f"exponent must be a positive integer, got {n}")
    return _pointwise(f, lambda a, b: f.values[a, b] ** n, f"pow({f.label},{n})")


def kst(f: Function, low, high) -> Function:
    """0 up to low, 1 from high on, and the straight ramp between."""
    low, high = thresholds(low, high)

    def ramp(a, b):
        v = f.values[a, b]
        return Fraction(0) if v <= low else ONE if v >= high else (v - low) / (high - low)

    return _pointwise(f, ramp, f"kst({f.label},{low},{high})")


def leq(f: Function, g: Function) -> bool:
    return all(f.values[p] <= g.values[p] for p in f.space.pairs)


def convex_polynomial(coeffs, powers, fns) -> Function:
    """The sum of c * f**n, with the weights c summing to 1."""
    if not len(coeffs) == len(powers) == len(fns):
        raise Refused("InputError", f"coeffs, powers and fns must align, got lengths "
                                    f"{len(coeffs)}, {len(powers)}, {len(fns)}")
    if not fns:
        raise Refused("InputError", "at least one term is required")
    coeffs = [weight(c) for c in coeffs]
    if sum(coeffs) != 1:
        raise Refused("ParameterError", f"coefficients must sum to 1, got {sum(coeffs)}")
    terms = [power(f, n) for f, n in zip(fns, powers)]
    label = "+".join(f"{c}*{f.label}^{n}" for c, n, f in zip(coeffs, powers, fns))
    return _pointwise(fns[0], lambda a, b: sum(c * t.values[a, b] for c, t in zip(coeffs, terms)), f"poly({label})")


# -- axioms and classes ------------------------------------------------------


def check_rif_axiom(f: Function, axiom: str, relation: str = "parthood") -> tuple[str, tuple, int]:
    """(axiom, witnesses, skipped): every falsifying instance, in element
    order, and the instances skipped because the meet or join they read is
    undefined.  relation plays the part of parthood.  The values are read
    as the numerators of f.row: over one denominator den, they compare as
    the values do, and 1 is den."""
    if relation not in ("parthood", "order"):
        raise Refused("InputError", f"relation must be 'parthood' or 'order', got {relation!r}")
    if axiom not in AXIOMS:
        raise Refused("InputError", f"unknown axiom {axiom!r}")
    s, (nums, den) = f.space, f.row
    v = dict(zip(s.pairs, nums))
    rel = s.parthood if relation == "parthood" else s.order
    els, pairs, bot = s.elements, s.pairs, s.bottom
    above_bottom = [a for a in els if (bot, a) in rel and (a, bot) not in rel]
    skipped = 0
    if axiom == "U1":
        wit = [(a,) for a in els if v[a, a] != den]
    elif axiom == "R0":
        wit = [p for p in pairs if p in rel and v[p] != den]
    elif axiom == "R1":
        wit = [p for p in pairs if (v[p] == den) != (p in rel)]
    elif axiom == "IR0":
        wit = [p for p in pairs if v[p] == den and p not in rel]
    elif axiom in ("R2", "R3"):
        # the (b, c) whose f(b, c) is 1, resp. that are related
        steps = [p for p in pairs if (v[p] == den if axiom == "R2" else p in rel)]
        wit = [(a, b, c) for a in els for b, c in steps if v[a, b] > v[a, c]]
    elif axiom == "R4":
        # each instance with the meet it reads, None where undefined
        meets = [(p, s.meet.get(p)) for p in pairs if v[p] == 0]
        skipped = sum(m is None for _, m in meets)
        wit = [p for p, m in meets if m not in (None, bot)]
    elif axiom in ("R5", "IR4"):
        meets = [((a, b), s.meet.get((a, b))) for a in above_bottom for b in els]
        skipped = sum(m is None for _, m in meets)
        wit = [p for p, m in meets if m is not None
               and ((v[p] == 0) != (m == bot) if axiom == "R5" else m == bot and v[p] != 0)]
    elif axiom == "R6":
        joins = [(a, b, c, s.join.get((b, c))) for a in above_bottom for b, c in pairs]
        skipped = sum(j is None for *_, j in joins)
        wit = [(a, b, c) for a, b, c, j in joins if j == s.top and v[a, b] + v[a, c] != den]
    else:
        wit = [(a,) for a in above_bottom if v[a, bot] != 0]
    return axiom, tuple(wit), skipped


def classify(f: Function, relation: str = "parthood") -> str:
    holds = {ax: not check_rif_axiom(f, ax, relation)[1] for ax in ("R0", "R1", "R2", "R3")}
    if holds["R1"] and holds["R2"]:
        return "RIF"
    if holds["R0"] and holds["R2"]:
        return "qRIF"
    if holds["R0"] and holds["R3"]:
        return "wqRIF"
    return "none"


def verify_prif(f: Function, relation: str = "parthood") -> list[tuple[str, bool, bool, dict]]:
    """(name, applicable, violated, the verdicts read) of each implication
    prif1..prif9 and prif-u1; prif7-prif9 apply on complement-closed
    setHGOS spaces only."""
    ax = {name: not check_rif_axiom(f, name, relation)[1] for name in AXIOMS}
    sets = f.space.complement_closed()
    battery = [
        ("prif1", True, ("R1", "R2", "R3"), lambda r1, r2, r3: r1 and r2 != r3),
        ("prif2", True, ("R1", "R0", "IR0"), lambda r1, r0, ir0: r1 != (r0 and ir0)),
        ("prif3", True, ("R0", "R2", "R3"), lambda r0, r2, r3: r0 and r2 and not r3),
        ("prif4", True, ("IR0", "R3", "R2"), lambda ir0, r3, r2: ir0 and r3 and not r2),
        ("prif5", True, ("IR4", "RB"), lambda ir4, rb: ir4 and not rb),
        ("prif6", True, ("IR4", "R4", "R5"), lambda ir4, r4, r5: (ir4 and r4) != r5),
        ("prif7", sets, ("R0", "R6", "IR4"), lambda r0, r6, ir4: sets and r0 and r6 and not ir4),
        ("prif8", sets, ("IR0", "R6", "R4"), lambda ir0, r6, r4: sets and ir0 and r6 and not r4),
        ("prif9", sets, ("R1", "R6", "R5"), lambda r1, r6, r5: sets and r1 and r6 and not r5),
        ("prif-u1", True, ("R0", "R1", "U1"), lambda r0, r1, u1: (r1 or r0) and not u1),
    ]
    return [(name, applicable, violated(*map(ax.get, read)), {n: ax[n] for n in read})
            for name, applicable, read, violated in battery]


# -- laws ----------------------------------------------------------------------


def _differ(x, y) -> list[int]:
    """The positions where the rows differ."""
    return [k for k, (a, b) in enumerate(zip(x[0], y[0])) if a * y[1] != b * x[1]]


def _below(x, y) -> bool:
    return all(a * y[1] <= b * x[1] for a, b in zip(x[0], y[0]))


def check_laws(space: Space, fns, alphas) -> list[tuple[str, tuple]]:
    """(law, witnesses) of the eleven laws over fns and alphas, each by a
    scan of every combination of operands and weights and every pair."""
    for f in fns:
        if f.space is not space:
            raise Refused("InputError", f"function {f.label!r} is not over the given space")
    alphas = [weight(a) for a in alphas]
    pairs, m = space.pairs, range(len(fns))
    labels, rows, one = [f.label for f in fns], [f.row for f in fns], top_function(space).row
    times = {(i, j): _times(rows[i], rows[j]) for i in m for j in m}
    blends = {(w, i, j): _blend(w, rows[i], rows[j]) for w in alphas for i in m for j in m}
    comparable = [(i, j) for i in m for j in m if _below(rows[i], rows[j])]
    out = {
        "Comm": [(labels[i], labels[j], *pairs[k]) for i in m for j in m for k in _differ(times[i, j], times[j, i])],
        "Assoc": [(labels[i], labels[j], labels[t], *pairs[k]) for i in m for j in m for t in m
                  for k in _differ(_times(rows[i], times[j, t]), _times(times[i, j], rows[t]))],
        "Identity": [(labels[i], *pairs[k]) for i in m for k in _differ(_times(rows[i], one), rows[i])],
        "Idempotence": [(labels[i], str(w), *pairs[k]) for i in m for w in alphas
                        for k in _differ(blends[w, i, i], rows[i])],
        "Distributivity": [(labels[i], labels[j], labels[t], str(w), *pairs[k]) for i in m for j in m for t in m
                           for w in alphas for k in _differ(_times(rows[i], blends[w, j, t]),
                                                            _blend(w, times[i, j], times[i, t]))],
        "Order1": [(labels[i], labels[j], labels[i2], labels[j2]) for i, j in comparable for i2, j2 in comparable
                   if not _below(times[i, i2], times[j, j2])],
        "Order2": [(labels[i], labels[j], labels[i2], labels[j2], str(w)) for i, j in comparable
                   for i2, j2 in comparable for w in alphas if not _below(blends[w, i, i2], blends[w, j, j2])],
        "Top": [(labels[i],) for i in m if not _below(rows[i], one)],
    }
    part, low, up = space.parthood, space.lower, space.upper
    images = [(f.label, f.values, sharp(f).values, flat(f).values, sigma(f).values) for f in fns]
    out["WeakSharpComp"] = [(label, a, b) for label, v, sf, _, _ in images for a, b in pairs
                            if (a, low[a]) in part and sf[a, b] > v[a, b]]
    out["WeakFlatComp"] = [(label, a, b) for label, v, _, bf, _ in images for a, b in pairs
                           if (up[a], a) in part and v[a, b] > bf[a, b]]
    out["R0Plus"] = [(label, a, b) for label, _, _, _, gf in images for a, b in pairs
                     if (a, b) in part and gf[a, b] != 1]
    return [(law, tuple(out[law])) for law in LAWS]


# -- the closure-failure search ----------------------------------------------


def rif_failure_search(space: Space, budget: int, seed: int = 0) -> tuple:
    """(rif_pool, trials, oplus_witness, sharp_witness, otimes_checked,
    otimes_counterexample) of the hunt on space, by scanning.

    The pool is the base functions that classify as RIF, then each product
    of two of them that does and equals no earlier member.  Every product
    of two members is classified, up to the first that is no RIF.  Then up
    to budget blends of two members, drawn from seed with a weight p/q,
    q <= 12, are checked for R1, up to the first that fails it, and the
    first member whose sharp image fails R1 gives that image's label and
    witnesses."""
    if budget < 1:
        raise Refused("ParameterError", f"budget must be positive, got {budget}")
    if space.flavor() != "setHGOS":
        raise Refused("InputError", "closure search expects a set-based hemiring space")
    base = [k0(space), k1(space), k2(space)]
    pool = [f for f in base if classify(f) == "RIF"]
    for f in base:
        for g in base:
            prod = otimes(f, g)
            if classify(prod) == "RIF" and not any(prod.values == p.values for p in pool):
                pool.append(prod)
    checked, counterexample = 0, None
    for prod in (otimes(f, g) for f in pool for g in pool):
        checked += 1
        if classify(prod) != "RIF":
            counterexample = prod.label
            break
    rng, trials, oplus_witness = Random(seed), 0, None
    while trials < budget and oplus_witness is None:
        trials += 1
        f, g = rng.choice(pool), rng.choice(pool)
        den = rng.randint(1, 12)
        blend = oplus(Fraction(rng.randint(0, den), den), f, g)
        wit = check_rif_axiom(blend, "R1")[1]
        oplus_witness = (blend.label, wit) if wit else None
    images = ((image.label, check_rif_axiom(image, "R1")[1]) for image in map(sharp, pool))
    sharp_witness = next(((label, wit) for label, wit in images if wit), None)
    return tuple(f.label for f in pool), trials, oplus_witness, sharp_witness, checked, counterexample
