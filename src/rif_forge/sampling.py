"""Seeded random generators for the verification suites.

Everything here is driven by an explicit random.Random so that a seed
fully determines a run.  Spaces are small power-set spaces over 2 to 4
objects with a random partition as granulation; rationals keep small
denominators so boundary coincidences (exact 0 and 1) occur often.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Callable

from .space import GranularSpace, powerset_space
from .terms import OPERATORS, AlgebraTerm, BaseTerm, TopTerm

BASE_LABELS = ("k0", "k1", "k2")


def random_partition(objects: list[str], rng: Random) -> list[list[str]]:
    shuffled = list(objects)
    rng.shuffle(shuffled)
    blocks: list[list[str]] = []
    start = 0
    while start < len(shuffled):
        width = rng.randint(1, len(shuffled) - start)
        blocks.append(sorted(shuffled[start : start + width]))
        start += width
    return blocks


def random_set_hgos(rng: Random, min_objects: int = 2, max_objects: int = 4) -> GranularSpace:
    count = rng.randint(min_objects, max_objects)
    objects = [f"o{i}" for i in range(1, count + 1)]
    return powerset_space(objects, random_partition(objects, rng))


def random_unit_rational(rng: Random, max_denominator: int = 12) -> Fraction:
    den = rng.randint(1, max_denominator)
    return Fraction(rng.randint(0, den), den)


def random_thresholds(rng: Random, max_denominator: int = 12) -> tuple[Fraction, Fraction]:
    """A strictly interior pair 0 < s < t < 1."""
    den = rng.randint(3, max_denominator)
    low, high = sorted(rng.sample(range(1, den), 2))
    return Fraction(low, den), Fraction(high, den)


def _kst_args(rng: Random, child: Callable[[], AlgebraTerm]) -> tuple:
    low, high = random_thresholds(rng)
    if rng.random() < 0.3:
        high = Fraction(1)
    return child(), low, high


# The arguments of each operator of the term language, in its field order,
# drawn from rng; child() draws a subterm.  The draw order is part of what
# a seed fixes: pow draws its child before its exponent, kst its
# thresholds before its child.
_ARGUMENT_DRAWS: dict[str, Callable[[Random, Callable[[], AlgebraTerm]], tuple]] = {
    "otimes": lambda rng, child: (child(), child()),
    "oplus": lambda rng, child: (random_unit_rational(rng), child(), child()),
    "sharp": lambda rng, child: (child(),),
    "flat": lambda rng, child: (child(),),
    "sigma": lambda rng, child: (child(),),
    "pow": lambda rng, child: (child(), rng.randint(1, 3)),
    "kst": _kst_args,
}


def random_wqrif_term(rng: Random, depth: int = 2) -> AlgebraTerm:
    """Random term whose base functions all lie in the weak-quasi class, so
    the evaluated result is guaranteed to as well."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.15:
            return TopTerm()
        return BaseTerm(rng.choice(BASE_LABELS))
    word = rng.choice(tuple(OPERATORS))
    args = _ARGUMENT_DRAWS[word](rng, lambda: random_wqrif_term(rng, depth - 1))
    return OPERATORS[word].node(*args)
