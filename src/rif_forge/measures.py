"""Rough measures over a set-extensional space.

Accuracy and misclassification degrees, the rough inclusion preorder and
its symmetrization, region decomposition, and the two variable-precision
approximation schemes (thresholds applied to the target directly, or to
its lower approximation).  Results that are unions of granules come back
as plain carrier sets; they are not required to be elements of the space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, UndefinedMeasureError
from .inclusion import InclusionFunction
from .space import GranularSpace

ZERO = Fraction(0)


@dataclass(frozen=True)
class VprsParams:
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        alpha = Fraction(self.alpha)
        beta = Fraction(self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if not (0 < alpha <= beta < 1):
            raise ParameterError(
                f"precision thresholds must satisfy 0 < alpha <= beta < 1, "
                f"got alpha={alpha}, beta={beta}"
            )


def accuracy_degree(s: GranularSpace, x: str) -> Fraction:
    """Size ratio of the lower to the upper approximation of x."""
    lower = s.carrier_of(s.lower_of(x))
    upper = s.carrier_of(s.upper_of(x))
    if not upper:
        raise UndefinedMeasureError(f"upper approximation of {x!r} is empty")
    return Fraction(len(lower), len(upper))


def misclassification(s: GranularSpace, a: str, b: str) -> Fraction:
    """Complement of the overlap degree of a in b: the share of a outside
    b, and 0 when a is empty (its overlap degree is 1)."""
    ca = s.carrier_of(a)
    cb = s.carrier_of(b)
    return Fraction(len(ca - cb), len(ca)) if ca else ZERO


def rough_leq(s: GranularSpace, a: str, b: str) -> bool:
    """Both approximations of a sit inside the corresponding ones of b."""
    return (
        s.carrier_of(s.lower_of(a)) <= s.carrier_of(s.lower_of(b))
        and s.carrier_of(s.upper_of(a)) <= s.carrier_of(s.upper_of(b))
    )


def rough_eq(s: GranularSpace, a: str, b: str) -> bool:
    return rough_leq(s, a, b) and rough_leq(s, b, a)


def regions(s: GranularSpace, a: str) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """(positive, negative, boundary) carrier sets for a."""
    lower = s.carrier_of(s.lower_of(a))
    upper = s.carrier_of(s.upper_of(a))
    universe = s.carrier_of(s.top)
    return lower, universe - upper, upper - lower


def _granule_union(s: GranularSpace, f: InclusionFunction, target: str, threshold: Fraction) -> frozenset[str]:
    picked: set[str] = set()
    for h in s.granulation:
        if f(h, target) > threshold:
            picked |= s.carrier_of(h)
    return frozenset(picked)


def vprs(
    s: GranularSpace, f: InclusionFunction, p: VprsParams, x: str
) -> tuple[frozenset[str], frozenset[str]]:
    """Variable-precision approximations of x.

    Lower region: union of granules whose inclusion degree in x exceeds
    beta.  Upper region: same with alpha.  Strict thresholds throughout.
    CarrierError names the first element without a carrier.
    """
    s.require_carriers()
    lower = _granule_union(s, f, x, p.beta)
    upper = _granule_union(s, f, x, p.alpha)
    return lower, upper


def fixed_vprs(
    s: GranularSpace, f: InclusionFunction, p: VprsParams, x: str
) -> tuple[frozenset[str], frozenset[str]]:
    """vprs measured against the lower approximation of x rather than
    against x itself."""
    return vprs(s, f, p, s.lower_of(x))
