"""Time check_laws and the operators on a power-set space.

    python3 scripts/time_check_laws.py [--objects 6] [--seed 0] [--repeat 3]

Builds the power set of N objects (2**N elements) with a seeded random
partition as granulation, and takes k0, k1 and k2 and the check-laws
command's default weights (0, 1/3, 1/2, 1).  check_laws proves Comm,
Assoc, Identity, Idempotence, Distributivity, Order1, Order2 and Top and
scans the other three laws; for each scanned law, in report order, it
prints the wall time of --repeat runs (no law keeps anything on the
functions between runs) and the verdict.  The next line times one whole
check_laws call, which also validates the functions and weights.  Then one
line per operator times it on the same space: building k0, k1 and k2, and
otimes, oplus, sharp, flat, sigma, pow, kst and leq applied to them
(otimes, oplus and leq on each ordered pair of the three, oplus at every
weight).  Every time is in ms, printed as scripts/timing.py prints it:
best, then q1/median/q3.  Stdlib only.
"""

from fractions import Fraction
from random import Random

from timing import MACHINE, parse_args, power_set, timed

from rif_forge.algebra import _LAW_CHECKS, check_laws, flat, leq, oplus, otimes, power, sharp, sigma
from rif_forge.inclusion import k0, k1, k2, kst

WEIGHTS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]


def operator_calls(s) -> dict:
    """What each operator line times, as a function of no arguments."""
    fns = [k0(s), k1(s), k2(s)]
    pairs = [(f, g) for f in fns for g in fns]
    return {
        "k0/k1/k2": lambda: (k0(s), k1(s), k2(s)),
        "otimes": lambda: [otimes(f, g) for f, g in pairs],
        "oplus": lambda: [oplus(w, f, g) for w in WEIGHTS for f, g in pairs],
        "sharp": lambda: [sharp(f) for f in fns],
        "flat": lambda: [flat(f) for f in fns],
        "sigma": lambda: [sigma(f) for f in fns],
        "pow": lambda: [power(f, 3) for f in fns],
        "kst": lambda: [kst(f, Fraction(1, 4), Fraction(3, 4)) for f in fns],
        "leq": lambda: [leq(f, g) for f, g in pairs],
    }


def main() -> None:
    args = parse_args(__doc__, repeat=3)
    s = power_set(args.objects, Random(args.seed))
    fns = [k0(s), k1(s), k2(s)]

    print(f"# {len(s.elements)} elements, functions k0 k1 k2, weights "
          f"{' '.join(map(str, WEIGHTS))}, seed {args.seed}, best q1/median/q3 of {args.repeat} in ms")
    print(MACHINE)
    print(f"{'law':<16}{'ms':>26}  verdict")
    for law, (check, *rest) in _LAW_CHECKS.items():
        ms, witnesses = timed(lambda: check(s, fns, *rest), args.repeat)
        verdict = "pass" if not witnesses else f"FAIL ({len(witnesses)} witnesses)"
        print(f"{law:<16}{ms:>26}  {verdict}")
    print(f"{'check_laws':<16}{timed(lambda: check_laws(s, fns, WEIGHTS), args.repeat)[0]:>26}")
    print(f"{'operator':<16}{'ms':>26}")
    for name, call in operator_calls(s).items():
        print(f"{name:<16}{timed(call, args.repeat)[0]:>26}")


if __name__ == "__main__":
    main()
