"""Time the RIF axiom checks, axiom by axiom, on a power set.

    python3 scripts/time_axioms.py [--objects 6] [--seed 0] [--repeat 5]

Builds the power set of N objects (2**N elements) with a seeded random
partition as granulation, and on it k0, k1, k2, kst(k0, 1/4, 3/4) and a
random kappa drawn from --seed.  Every time is in ms, over --repeat runs,
and printed as scripts/timing.py prints it: best, then q1/median/q3.  For
each function the first line times building it with InclusionFunction(s,
f.values, label) from its table of Fractions.  For each axiom U1 to RB it
then times the full check_rif_axiom report, with its witness and skipped
counts, and the verdict alone, which stops at the first offending row.
Each is timed twice: on a new copy of the function, so the call pays for
the row slices and masks it reads, and ("built") on a function whose rows
and masks every axiom reads are already built; its kept R2/R3 verdict is
cleared before each call, so a built verdict times a scan.  The last two
lines per function time one verify_prif and one classify call on a fresh
copy.  The last line times one rif_failure_search with budget 20 on the
space: it classifies k0, k1 and k2 and scans sharp images, and its
products and convex-sum trials are settled by proof.  The space's index
tables and axiom rows are built once, before the first timing.  Stdlib
only.
"""
from fractions import Fraction
from random import Random

from timing import MACHINE, parse_args, power_set, timed

from rif_forge.algebra import rif_failure_search
from rif_forge.inclusion import (
    RIF_AXIOM_ORDER, InclusionFunction, _verdict, check_rif_axiom, classify, k0, k1, k2, kst,
    random_kappa, verify_prif,
)


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
        ms, _ = timed(lambda: InclusionFunction(s, table, f.label), args.repeat)
        print(f"{'construct':<12}{ms:>26}")
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


if __name__ == "__main__":
    main()
