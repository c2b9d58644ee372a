"""Time check_laws law by law on a power-set space.

    python3 scripts/time_check_laws.py [--objects 6] [--seed 0] [--repeat 3]

Builds the power set of N objects (2**N elements) with a seeded random
partition as granulation, takes k0, k1 and k2 and the check-laws command's
default weights (0, 1/3, 1/2, 1), and runs each law's check in report
order, as check_laws does.  For every law it prints the wall time (the
best of --repeat runs, each on freshly built functions), the verdict and,
for the pointwise laws, how many distinct rank tuples (times weights) the
law was evaluated on.  A product or blend table is charged to the first
law that reads it, and "inputs" is the rank rows and columns every law
reads, with the joint rank classes: the distinct tuples of all three
functions' ranks over the n*n pairs, D of them, which every operand
combination projects.  The header gives D next to n*n.  The next line
times one whole check_laws call.  Then one line per operator gives the
best of --repeat timings of it on the same space:
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

from rif_forge.algebra import (
    _LAW_CHECKS, _LawInputs, _scan, check_laws, flat, leq, oplus, otimes, power, sharp, sigma,
)
from rif_forge.inclusion import k0, k1, k2, kst
from rif_forge.sampling import random_partition
from rif_forge.space import powerset_space

WEIGHTS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]


def evaluated(inp: _LawInputs, law: str) -> str:
    """Distinct rank tuples times weights for a pointwise law, else "-"."""
    check, *rest = _LAW_CHECKS[law]
    if check is not _scan:
        return "-" if law != "Top" else str(sum(map(len, inp.images)))
    _, arity, weighted = rest
    tuples = sum(len(inp.distinct(idx)) for idx in inp.combos(arity))
    return str(tuples * (len(inp.alphas) if weighted else 1))


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
    best: dict[str, float] = {}
    results = {}
    for _ in range(args.repeat):
        fns = [k0(s), k1(s), k2(s)]
        start = time.perf_counter()
        inp = _LawInputs(s, fns, WEIGHTS)
        timings = {"inputs": time.perf_counter() - start}
        for law, (check, *rest) in _LAW_CHECKS.items():
            start = time.perf_counter()
            results[law] = check(inp, *rest)
            timings[law] = time.perf_counter() - start
        for name, seconds in timings.items():
            best[name] = min(seconds, best.get(name, seconds))
    whole = []
    for _ in range(args.repeat):
        fns = [k0(s), k1(s), k2(s)]
        start = time.perf_counter()
        check_laws(s, fns, WEIGHTS)
        whole.append(time.perf_counter() - start)

    print(f"# {len(s.elements)} elements, functions k0 k1 k2, weights "
          f"{' '.join(map(str, WEIGHTS))}, seed {args.seed}, best of {args.repeat}")
    print(f"# {os.cpu_count()} cpus, Python {platform.python_version()}, {platform.machine()}")
    print(f"# {len(inp.classes[0])} joint rank classes (D) over {len(inp.pairs)} pairs (n*n)")
    print(f"{'law':<16}{'ms':>10}{'evaluated':>12}  verdict")
    print(f"{'inputs':<16}{best['inputs'] * 1000:>10.2f}")
    for law, witnesses in results.items():
        verdict = "pass" if not witnesses else f"FAIL ({len(witnesses)} witnesses)"
        print(f"{law:<16}{best[law] * 1000:>10.2f}{evaluated(inp, law):>12}  {verdict}")
    print(f"{'check_laws':<16}{min(whole) * 1000:>10.2f}")
    print(f"{'operator':<16}{'ms':>10}")
    for name, call in operator_calls(s).items():
        print(f"{name:<16}{best_ms(call, args.repeat):>10.2f}")


if __name__ == "__main__":
    main()
