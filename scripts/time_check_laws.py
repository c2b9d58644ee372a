"""Time check_laws and the operators on a power-set space.

    python3 scripts/time_check_laws.py [--objects 6] [--seed 0] [--repeat 3]

Builds the power set of N objects (2**N elements) with a seeded random
partition as granulation, and takes k0, k1 and k2 and the check-laws
command's default weights (0, 1/3, 1/2, 1).  check_laws proves Comm,
Assoc, Identity, Idempotence, Distributivity, Order1, Order2 and Top and
scans the other three laws; for each scanned law, in report order, it
prints the wall time (the best of --repeat runs; no law keeps anything on
the functions between runs) and the verdict.  The next line times one
whole check_laws call, which also validates the functions and weights.
Then one line per operator gives the best of --repeat timings of it on
the same space:
building k0, k1 and k2, and otimes, oplus, sharp, flat, sigma, pow, kst
and leq applied to them (otimes, oplus and leq on each ordered pair of the
three, oplus at every weight).  Stdlib only.
"""

import argparse
import os
import pathlib
import platform
import sys
import time
from fractions import Fraction
from random import Random

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rif_forge.algebra import _LAW_CHECKS, check_laws, flat, leq, oplus, otimes, power, sharp, sigma
from rif_forge.inclusion import k0, k1, k2, kst
from rif_forge.sampling import random_partition
from rif_forge.space import powerset_space

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


def best_ms(call, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times) * 1000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if not 1 <= args.objects <= 8 or args.repeat < 1:
        parser.error("--objects must lie in 1..8 and --repeat must be positive")

    objects = [f"o{i}" for i in range(1, args.objects + 1)]
    s = powerset_space(objects, random_partition(objects, Random(args.seed)))
    fns = [k0(s), k1(s), k2(s)]

    print(f"# {len(s.elements)} elements, functions k0 k1 k2, weights "
          f"{' '.join(map(str, WEIGHTS))}, seed {args.seed}, best of {args.repeat}")
    print(f"# {os.cpu_count()} cpus, Python {platform.python_version()}, {platform.machine()}")
    print(f"{'law':<16}{'ms':>10}  verdict")
    for law, (check, *rest) in _LAW_CHECKS.items():
        witnesses = check(s, fns, *rest)
        verdict = "pass" if not witnesses else f"FAIL ({len(witnesses)} witnesses)"
        print(f"{law:<16}{best_ms(lambda: check(s, fns, *rest), args.repeat):>10.2f}  {verdict}")
    print(f"{'check_laws':<16}{best_ms(lambda: check_laws(s, fns, WEIGHTS), args.repeat):>10.2f}")
    print(f"{'operator':<16}{'ms':>10}")
    for name, call in operator_calls(s).items():
        print(f"{name:<16}{best_ms(call, args.repeat):>10.2f}")


if __name__ == "__main__":
    main()
