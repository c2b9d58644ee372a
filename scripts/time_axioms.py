"""Time the RIF axiom checks, axiom by axiom, on a power set.

    python3 scripts/time_axioms.py [--objects 6] [--seed 0] [--repeat 5]

Builds the power set of N objects (2**N elements) with a seeded random
partition as granulation, and on it k0, k1, k2, kst(k0, 1/4, 3/4) and a
random kappa drawn from --seed.  Every time is in ms, over --repeat runs,
and printed as scripts/timing.py prints it: best, then q1/median/q3.  For
each function the first line times building it with InclusionFunction(s,
f.values, label) from its table of Fractions, in 10 * --repeat pairs
alternated with the former constructor (former_construct), and the ratio
of their medians.  For each axiom U1 to RB it
then times the full check_rif_axiom report, with its witness and skipped
counts, and the verdict alone, which stops at the first offending row.
Each is timed twice: on a new copy of the function, so the call pays for
the row slices and masks it reads, and ("built") on a function whose rows
and masks every axiom reads are already built; its kept R2/R3 verdict is
cleared before each call, so a built verdict times a scan.  The last two
lines per function time one verify_prif and one classify call on a fresh
copy.  The last line times one rif_failure_search with budget 20 on the
space: it classifies k0, k1 and k2 and scans sharp images, and its
products and convex-sum trials are settled by proof.  The last block
times each operator (otimes, oplus, sharp, flat, sigma, pow, kst) on the
new path, where results are built by InclusionFunction._of_rows, against
the same operator with every result built through former_store, the full
gcd and range check every function once went through; 10 * --repeat
alternated pairs each, and the ratio of their medians.  The space's index
tables and axiom rows are built once, before the first timing.  Stdlib
only.
"""
import statistics
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul
from random import Random

from timing import MACHINE, alternated, parse_args, power_set, summary, timed

from rif_forge import algebra
from rif_forge.algebra import flat, oplus, otimes, power, rif_failure_search, sharp, sigma
from rif_forge.inclusion import (
    RIF_AXIOM_ORDER, InclusionFunction, _verdict, check_rif_axiom, classify, k0, k1, k2, kst,
    random_kappa, verify_prif,
)


def former_store(space, nums: list, den: int, label: str, reduced: bool = False) -> InclusionFunction:
    """The function built as every function once was: the gcd of den and
    all of nums, then the [0,1] check, whatever its builder proved."""
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [x // g for x in nums]
    if min(nums) < 0 or max(nums) > den:
        raise SystemExit(f"{label}: a value leaves [0,1]")
    f = InclusionFunction.__new__(InclusionFunction)
    f.space, f.label, f.nums, f.den = space, label, nums, den
    return f


def former_construct(s, values, label: str) -> InclusionFunction:
    """The former table constructor: values read by key, their parts
    through the Fraction properties, then former_store."""
    vals = list(map(values.__getitem__, s.pairs()))
    if set(map(type, vals)) != {Fraction}:
        vals = list(map(Fraction, vals))
    qs = list(map(attrgetter("denominator"), vals))
    dens = set(qs)
    den = lcm(*dens)
    scale = {q: den // q for q in dens}.__getitem__
    return former_store(s, list(map(mul, map(attrgetter("numerator"), vals), map(scale, qs))), den, label)


def on_former_path(call):
    """call, with every operator building its result through former_store."""
    def run():
        saved = algebra._rows, InclusionFunction.__dict__["_of_rows"]
        algebra._rows, InclusionFunction._of_rows = former_store, staticmethod(former_store)
        try:
            return call()
        finally:
            algebra._rows, InclusionFunction._of_rows = saved
    return run


def versus(new, old, repeat: int) -> str:
    """new and old alternated, each as best q1/median/q3, and old's median over new's."""
    new_ms, old_ms = alternated(new, old, repeat)
    return f"{summary(new_ms):>26}{summary(old_ms):>26}{statistics.median(old_ms) / statistics.median(new_ms):>8.2f}x"


def fresh(f: InclusionFunction) -> InclusionFunction:
    return InclusionFunction._of_rows(f.space, f.nums, f.den, f.label)


def built(f: InclusionFunction) -> InclusionFunction:
    for axiom in RIF_AXIOM_ORDER:
        check_rif_axiom(f, axiom)
    return f


def unkept(f: InclusionFunction) -> InclusionFunction:
    """f without its kept R2/R3 verdict, so that the next one scans."""
    f._axiom_rows.order_verdict = None
    return f


def main() -> None:
    args = parse_args(__doc__, repeat=5)
    rng = Random(args.seed)
    s = power_set(args.objects, rng)
    fns = [k0(s), k1(s), k2(s), kst(k0(s), Fraction(1, 4), Fraction(3, 4)), random_kappa(s, rng)]
    built(fns[0])  # the space's index tables and axiom rows

    print(f"# {len(s.elements)} elements, {len(s.granulation)} granules, seed {args.seed}, "
          f"best q1/median/q3 of {args.repeat} in ms, relation parthood")
    print(MACHINE)
    for f in fns:
        ready = built(fresh(f))
        table = f.values
        print(f"\n{f.label}: image of {len(f.image())} values")
        if not InclusionFunction(s, table, f.label).pointwise_equal(former_construct(s, table, f.label)):
            raise SystemExit(f"the constructors build different functions from {f.label}'s table")
        print(f"{'':<12}{'constructor':>26}{'former':>26}{'ratio':>9}")
        print(f"{'construct':<12}" + versus(lambda: InclusionFunction(s, table, f.label),
                                             lambda: former_construct(s, table, f.label), 10 * args.repeat))
        print(f"{'axiom':<12}{'report':>26}{'built':>26}{'witnesses':>11}{'skipped':>9}"
              f"{'verdict':>26}{'built':>26}  holds")
        for axiom in RIF_AXIOM_ORDER:
            def report(g):
                return check_rif_axiom(g, axiom)

            def verdict(g):
                return _verdict(g, axiom, "parthood")[0]

            ms, rep = timed(report, args.repeat, lambda: fresh(f))
            ms_built, _ = timed(lambda: report(ready), args.repeat)
            v_ms, holds = timed(verdict, args.repeat, lambda: fresh(f))
            v_built, _ = timed(verdict, args.repeat, lambda: unkept(ready))
            if holds != rep.holds:
                raise SystemExit(f"verdict of {axiom} on {f.label} differs from its report")
            print(f"{axiom:<12}{ms:>26}{ms_built:>26}{len(rep.witnesses):>11}{rep.skipped:>9}"
                  f"{v_ms:>26}{v_built:>26}  {holds}")
        ms, verdicts = timed(verify_prif, args.repeat, lambda: fresh(f))
        violated = [v.name for v in verdicts if v.applicable and v.violated]
        print(f"{'verify_prif':<12}{ms:>26}  violated: {', '.join(violated) or 'none'}")
        ms, name = timed(classify, args.repeat, lambda: fresh(f))
        print(f"{'classify':<12}{ms:>26}  {name}")

    ms, res = timed(lambda: rif_failure_search(s, 20), args.repeat)
    print(f"\nrif_failure_search, budget 20: {ms} ms, pool of {len(res.rif_pool)}, "
          f"{res.otimes_checked} products and {res.trials} convex-sum trials settled by proof")

    f0, f1, f2, third = fns[0], fns[1], fns[2], Fraction(1, 3)
    operators = {
        "otimes(k0,k2)": lambda: otimes(f0, f2),
        "oplus(1/3,k0,k2)": lambda: oplus(third, f0, f2),
        "sharp(k0)": lambda: sharp(f0),
        "flat(k1)": lambda: flat(f1),
        "sigma(k0)": lambda: sigma(f0),
        "sigma(k1)": lambda: sigma(f1),
        "pow(k1,2)": lambda: power(f1, 2),
        "kst(k0)": lambda: kst(f0, Fraction(1, 4), Fraction(3, 4)),
    }
    print(f"\n{'operator':<16}{'new path':>26}{'former _store':>26}{'ratio':>9}")
    for name, call in operators.items():
        if not call().pointwise_equal(on_former_path(call)()):
            raise SystemExit(f"{name} differs on the former path")
        print(f"{name:<16}" + versus(call, on_former_path(call), 10 * args.repeat))


if __name__ == "__main__":
    main()
