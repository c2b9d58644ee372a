"""Independent reference computations for the benchmark's checks.

Nothing here imports rif_forge.  Every value is recomputed from carriers
(frozensets of object names), partition blocks and Fractions, so a check
that compares the program against this module compares two independent
computations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from random import Random

ONE = Fraction(1)
ZERO = Fraction(0)

LAW_NAMES = (
    "Comm", "Assoc", "Identity", "Idempotence", "Distributivity", "Order1",
    "Order2", "Top", "WeakSharpComp", "WeakFlatComp", "R0Plus",
)


def render(carrier) -> str:
    """Brace rendering of a carrier; power-set element ids use this form."""
    return "{" + ",".join(sorted(carrier)) + "}"


def unit_rational(rng: Random, max_denominator: int = 12) -> Fraction:
    den = rng.randint(1, max_denominator)
    return Fraction(rng.randint(0, den), den)


def interior_rational(rng: Random, max_denominator: int = 12) -> Fraction:
    """p/q strictly between 0 and 1.  Law weights are drawn this way: at a
    weight of 0 or 1 every blend is one of its operands, so the laws about
    blends would test nothing the other laws do not."""
    den = rng.randint(2, max_denominator)
    return Fraction(rng.randint(1, den - 1), den)


def interior_thresholds(rng: Random, max_denominator: int = 12) -> tuple[Fraction, Fraction]:
    """A pair 0 < s < t < 1 with a small common denominator."""
    den = rng.randint(3, max_denominator)
    low, high = sorted(rng.sample(range(1, den), 2))
    return Fraction(low, den), Fraction(high, den)


def random_partition(objects, rng: Random, min_blocks: int = 1, need_pair: bool = False):
    """Random partition of objects into sorted blocks, by consecutive cuts of
    a shuffle.  min_blocks and need_pair (a block of two or more objects)
    are met by redrawing, which keeps the result a function of rng."""
    while True:
        shuffled = list(objects)
        rng.shuffle(shuffled)
        blocks = []
        start = 0
        while start < len(shuffled):
            width = rng.randint(1, len(shuffled) - start)
            blocks.append(tuple(sorted(shuffled[start:start + width])))
            start += width
        if len(blocks) >= min_blocks and (not need_pair or any(len(b) > 1 for b in blocks)):
            return blocks


class PowersetModel:
    """The power set of objects, granulated by a partition, as plain sets."""

    def __init__(self, objects, blocks):
        self.objects = tuple(sorted(objects))
        self.universe = frozenset(self.objects)
        self.blocks = tuple(frozenset(b) for b in blocks)
        self.subsets = tuple(
            frozenset(c) for k in range(len(self.objects) + 1)
            for c in combinations(self.objects, k)
        )
        self.ids = {c: render(c) for c in self.subsets}
        self.by_id = {i: c for c, i in self.ids.items()}
        self._lower = {c: lower_of(self.blocks, c) for c in self.subsets}
        self._upper = {c: upper_of(self.blocks, c) for c in self.subsets}

    def lower(self, c: frozenset) -> frozenset:
        return self._lower[c]

    def upper(self, c: frozenset) -> frozenset:
        return self._upper[c]

    def part(self, a_id: str, b_id: str) -> bool:
        return self.by_id[a_id] <= self.by_id[b_id]

    # -- the three concrete functions and the term language --------------

    def k0(self, a, b) -> Fraction:
        return Fraction(len(a & b), len(a)) if a else ONE

    def k1(self, a, b) -> Fraction:
        union = a | b
        return Fraction(len(b), len(union)) if union else ONE

    def k2(self, a, b) -> Fraction:
        return Fraction(len((self.universe - a) | b), len(self.universe))

    def value(self, tree, a: frozenset, b: frozenset) -> Fraction:
        """Value of a term tree (see random_term) at the carrier pair (a, b)."""
        op = tree[0]
        if op == "base":
            return getattr(self, tree[1])(a, b)
        if op == "top":
            return ONE
        if op == "otimes":
            return self.value(tree[1], a, b) * self.value(tree[2], a, b)
        if op == "oplus":
            alpha = tree[1]
            return alpha * self.value(tree[2], a, b) + (1 - alpha) * self.value(tree[3], a, b)
        if op == "sharp":
            return self.value(tree[1], self.lower(a), self.lower(b))
        if op == "flat":
            return self.value(tree[1], self.upper(a), self.upper(b))
        if op == "sigma":
            lb = self.lower(b)
            degrees = [self.value(tree[1], w, lb) for w in self.blocks if w <= a]
            return max(degrees) if degrees else ONE
        if op == "pow":
            return self.value(tree[1], a, b) ** tree[2]
        if op == "kst":
            v, low, high = self.value(tree[1], a, b), tree[2], tree[3]
            if v <= low:
                return ZERO
            if v >= high:
                return ONE
            return (v - low) / (high - low)
        raise ValueError(f"unknown term node {op!r}")

    def document(self) -> dict:
        """The space as a rif-forge JSON document: total union/intersection
        tables, inclusion as parthood and order, classical approximations."""
        ids = self.ids
        pairs = [[ids[a], ids[b]] for a in self.subsets for b in self.subsets if a <= b]
        return {
            "elements": [{"id": ids[c], "carrier": sorted(c)} for c in self.subsets],
            "parthood": pairs,
            "order": [list(p) for p in pairs],
            "join": [[ids[a], ids[b], ids[a | b]] for a in self.subsets for b in self.subsets],
            "meet": [[ids[a], ids[b], ids[a & b]] for a in self.subsets for b in self.subsets],
            "granulation": [ids[b] for b in self.blocks],
            "lower": [[ids[c], ids[self.lower(c)]] for c in self.subsets],
            "upper": [[ids[c], ids[self.upper(c)]] for c in self.subsets],
            "bottom": ids[frozenset()],
            "top": ids[self.universe],
            "flavor": "setHGOS",
        }

    def approximation_rows(self) -> list[str]:
        """`approximate` table lines: nonempty elements by size, then text."""
        rows = sorted((len(c), render(c)) for c in self.subsets if c)
        return [
            f"{text} | {render(self.lower(self.by_id[text]))} | {render(self.upper(self.by_id[text]))}"
            for _, text in rows
        ]


def lower_of(blocks, c: frozenset) -> frozenset:
    """Classical lower approximation: union of the blocks inside c."""
    return frozenset().union(*[b for b in blocks if b <= c])


def upper_of(blocks, c: frozenset) -> frozenset:
    """Classical upper approximation: union of the blocks touching c."""
    return frozenset().union(*[b for b in blocks if b & c])


# -- the term language, generated and rendered here --------------------------

UNARY = ("sharp", "flat", "sigma")
KINDS = ("otimes", "oplus", "sharp", "flat", "sigma", "pow", "kst")


def random_term(rng: Random, depth: int = 2, root: bool = True):
    """Random wqRIF term tree over k0/k1/k2/top.

    Trees are tuples: ("base", name), ("top",), ("otimes", l, r),
    ("oplus", alpha, l, r), (unary, x), ("pow", x, n), ("kst", x, s, t).
    Every constructor keeps the weak-quasi class, so each term is a wqRIF.
    The root is never a leaf: a bare leaf evaluates to the environment's
    own function, and check_laws on three copies of one function costs a
    third to a half of what it costs on distinct functions, so a trial's
    cost would swing with how many bare leaves it drew.
    """
    if depth <= 0 or (not root and rng.random() < 0.25):
        if rng.random() < 0.15:
            return ("top",)
        return ("base", rng.choice(("k0", "k1", "k2")))
    kind = rng.choice(KINDS)
    if kind == "otimes":
        return ("otimes", random_term(rng, depth - 1, False), random_term(rng, depth - 1, False))
    if kind == "oplus":
        alpha = unit_rational(rng)
        return ("oplus", alpha, random_term(rng, depth - 1, False), random_term(rng, depth - 1, False))
    if kind in UNARY:
        return (kind, random_term(rng, depth - 1, False))
    if kind == "pow":
        return ("pow", random_term(rng, depth - 1, False), rng.randint(1, 3))
    low, high = interior_thresholds(rng)
    if rng.random() < 0.3:
        high = ONE
    return ("kst", random_term(rng, depth - 1, False), low, high)


def render_term(tree) -> str:
    op = tree[0]
    if op == "base":
        return tree[1]
    if op == "top":
        return "top"
    if op == "otimes":
        return f"otimes({render_term(tree[1])},{render_term(tree[2])})"
    if op == "oplus":
        return f"oplus({tree[1]},{render_term(tree[2])},{render_term(tree[3])})"
    if op in UNARY:
        return f"{op}({render_term(tree[1])})"
    if op == "pow":
        return f"pow({render_term(tree[1])},{tree[2]})"
    return f"kst({render_term(tree[1])},{tree[2]},{tree[3]})"


# -- RIF axioms recomputed from a value table and a parthood relation --------


def u1_witnesses(elements, values) -> list[tuple]:
    return [(a,) for a in elements if values[(a, a)] != ONE]


def r0_witnesses(elements, values, part) -> list[tuple]:
    return [(a, b) for a in elements for b in elements if part(a, b) and values[(a, b)] != ONE]


def r1_witnesses(elements, values, part) -> list[tuple]:
    return [(a, b) for a in elements for b in elements if (values[(a, b)] == ONE) != part(a, b)]


def ir0_witnesses(elements, values, part) -> list[tuple]:
    return [(a, b) for a in elements for b in elements if values[(a, b)] == ONE and not part(a, b)]


def r2_violated(values, a, b, c) -> bool:
    return values[(b, c)] == ONE and values[(a, b)] > values[(a, c)]


def r3_violated(values, part, a, b, c) -> bool:
    return part(b, c) and values[(a, b)] > values[(a, c)]


# -- the packaged fixture, read as a plain document --------------------------


class DocumentModel:
    """Carriers, parthood and granulation read from a space document."""

    def __init__(self, doc: dict):
        self.elements = tuple(e["id"] for e in doc["elements"])
        self.carriers = {e["id"]: frozenset(e.get("carrier", ())) for e in doc["elements"]}
        self.parthood = frozenset((a, b) for a, b in doc["parthood"])
        self.granulation = tuple(doc["granulation"])

    def part(self, a: str, b: str) -> bool:
        return (a, b) in self.parthood

    def approximation_rows(self) -> list[str]:
        """Granular approximations: union of the granules that are parts of
        x (lower) and of those whose carriers meet x (upper)."""
        rows = []
        for x in self.elements:
            cx = self.carriers[x]
            if not cx:
                continue
            lower = frozenset().union(
                *[self.carriers[g] for g in self.granulation if self.part(g, x)]
            )
            upper = frozenset().union(
                *[self.carriers[g] for g in self.granulation if self.carriers[g] & cx]
            )
            rows.append((len(cx), render(cx), render(lower), render(upper)))
        rows.sort(key=lambda r: (r[0], r[1]))
        return [f"{x} | {lo} | {up}" for _, x, lo, up in rows]
