"""An independent model of the function layer, the oracle that the
function-layer tests compare the package against.  It imports only the
standard library.

A space is read from the sections of its document, or written as the
document of a power set; a function is a dict of Fractions keyed by element
pair; every value, refusal, axiom report, class, law report and search
result is computed from its definition by loops over the elements.  Nothing
the package settles by theorem is taken as given: the eight pointwise laws
are scanned, R3 apart from R2, the base functions and the search's
products and blends are classified, and every canonical form takes its gcd.
"""

from fractions import Fraction
from functools import cached_property
from itertools import combinations
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


class Space:
    """A space as its document states it: the ids in document order, the
    carriers, the relations as sets of pairs, the partial join and meet as
    dicts, and the lower and upper maps, derived from the granules where
    the document says "granular"."""

    def __init__(self, doc: dict):
        self.elements = [e["id"] for e in doc["elements"]]
        self.carriers = {e["id"]: frozenset(e["carrier"]) for e in doc["elements"] if "carrier" in e}
        self.parthood, self.order = ({tuple(p) for p in doc[key]} for key in ("parthood", "order"))
        self.join, self.meet = ({(a, b): r for a, b, r in doc[key]} for key in ("join", "meet"))
        self.granulation, self.bottom, self.top = doc["granulation"], doc["bottom"], doc["top"]
        self.pairs = [(a, b) for a in self.elements for b in self.elements]
        self.lower, self.upper = (self._approximation(doc[key], key) for key in ("lower", "upper"))

    def _approximation(self, section, key: str) -> dict:
        """x -> the element whose carrier is the union of the granules that
        are parts of x (lower), resp. whose carriers meet x's (upper)."""
        if section != "granular":
            return dict(section)
        c = self.carriers
        by_carrier = {carrier: e for e, carrier in c.items()}
        return {x: by_carrier[frozenset().union(*(c[g] for g in self.granulation
                                                  if ((g, x) in self.parthood if key == "lower" else c[g] & c[x])))]
                for x in self.elements}

    def flavor(self) -> str:
        """The most specific flavor whose conditions hold: GS where parthood
        is the order, HGOS where join and meet are total too, setHGOS where
        every element has a carrier, parthood is inclusion of carriers, join
        union and meet intersection."""
        if self.parthood != self.order:
            return "GGS"
        if any(p not in self.join or p not in self.meet for p in self.pairs):
            return "GS"
        c = self.carriers
        if set(c) != set(self.elements) or any(
                ((a, b) in self.parthood) != (c[a] <= c[b]) or c[self.join[a, b]] != c[a] | c[b]
                or c[self.meet[a, b]] != c[a] & c[b] for a, b in self.pairs):
            return "HGOS"
        return "setHGOS"

    def complement_closed(self) -> bool:
        """setHGOS, with top's carrier less any element's carrier the carrier of an element."""
        carriers = set(self.carriers.values())
        return self.flavor() == "setHGOS" and all(
            self.carriers[self.top] - c in carriers for c in self.carriers.values())


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
    missing = [e for e in space.elements if e not in space.carriers]
    if missing:
        raise Refused("CarrierError", f"elements without carriers: {missing}")
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


def weight(alpha, convert: bool = True):
    """A weight as an operator reads it, converted by Fraction and refused
    outside [0,1]; a term node (convert False) compares it as it is given."""
    if convert:
        alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise Refused("ParameterError", f"weight must lie in [0,1], got {alpha}")
    return alpha


def thresholds(low, high, convert: bool = True):
    """kst's thresholds as the operator reads them, converted by Fraction
    and refused outside [0,1], then unless s < t; a term node (convert
    False) compares them as they are given, in one chain."""
    if convert:
        low, high = Fraction(low), Fraction(high)
    if not 0 <= low < high <= 1:
        rule = "s < t" if convert and 0 <= low and high <= 1 else "0 <= s < t <= 1"
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
    if n < 1:
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
