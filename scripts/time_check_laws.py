"""Time check_laws and the operators on a power-set space.

    python3 scripts/time_check_laws.py [--objects 6] [--seed 0] [--repeat 3]

Builds the power set of N objects (2**N elements) with a seeded random
partition as granulation, and takes k0, k1 and k2 and the check-laws
command's default weights (0, 1/3, 1/2, 1).  check_laws proves Comm,
Assoc, Identity, Idempotence, Distributivity, Order1, Order2 and Top and
scans the other three laws; for each scanned law, in report order, it
prints the wall time of --repeat runs (no law keeps anything on the
functions between runs) and the verdict.  The R0Plus kappas line times
R0Plus on three random kappas that each fail it, so the path that lists
witnesses is timed beside the one that finds none.  The next line times
one whole check_laws call, which also validates the functions and
weights.  Then one line per operator times it on the same space:
building k0, k1 and k2, and otimes, oplus, sharp, flat, sigma, pow, kst
and leq applied to them (otimes, oplus and leq on each ordered pair of
the three, oplus at every weight).  Every time is in ms, printed as
scripts/timing.py prints it: best, then q1/median/q3.

The trial block then times the stages of one small acceptance-style trial
on the power sets of 2, 3 and 4 objects (4, 8 and 16 elements), each with
a partition drawn from the seed.  powerset_space is timed three ways:
cold, each call the first build over its objects (fresh names each call);
new, over objects an earlier call built, whose tables the new space
shares, with a partition no kept space has; and kept, a partition an
earlier call built, whose space is returned.  Then parse_term and
eval_term over TRIAL_TEXTS (terms shaped like the laws-wqrif workload's,
evaluated on a fresh default_env over the kept space, as in a workload
trial), and check_laws on their values with two interior weights, twice:
on a space built new for each call, which has derived nothing (_derived
is cold), and on the kept space, which has scanned before.  On spaces
this small a call takes microseconds, so each sample is the mean of a
batch of TRIAL_BATCH calls, printed in us a call; the inputs of a batch
are made before it, untimed.
Stdlib only.
"""

from fractions import Fraction
from itertools import count
from random import Random

from timing import MACHINE, once_ms, parse_args, power_set, summary, timed

from rif_forge.algebra import _LAW_CHECKS, check_laws, flat, leq, oplus, otimes, power, sharp, sigma
from rif_forge.inclusion import k0, k1, k2, kst, random_kappa
from rif_forge.sampling import random_partition
from rif_forge.space import _shared_powersets, powerset_space
from rif_forge.terms import default_env, eval_term, parse_term

WEIGHTS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]

TRIAL_TEXTS = [
    "oplus(1/12,pow(k1,3),kst(k0,3/8,1))",
    "sharp(otimes(k2,top))",
    "kst(sigma(oplus(2/5,k0,k2)),1/4,2/3)",
    "flat(pow(otimes(k0,k1),2))",
    "oplus(7/9,sigma(k1),flat(kst(k2,1/6,5/6)))",
]
TRIAL_WEIGHTS = [Fraction(1, 3), Fraction(3, 4)]
TRIAL_BATCH = 50


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


def failing_kappas(s, rng: Random, count: int = 3) -> list:
    """count random kappas on s, drawn in turn, each of which fails R0Plus."""
    r0_plus, kappas = _LAW_CHECKS["R0Plus"][0], []
    while len(kappas) < count:
        if r0_plus(s, [f := random_kappa(s, rng)]):
            kappas.append(f)
    return kappas


def trial_stages(objects: int, rng: Random) -> dict:
    """What each trial line times on the power set of that many objects, as
    (make, call): call(make()) is one call, make untimed."""
    names = [f"o{i}" for i in range(1, objects + 1)]
    blocks = random_partition(names, rng)
    trees = [parse_term(text) for text in TRIAL_TEXTS]

    def space(_=None):
        return powerset_space(names, blocks)

    partition = frozenset(map(frozenset, blocks))

    def built(_=None):
        """A space over names and blocks built new over the kept tables
        (space() keeps them): the kept space is dropped first, and returned
        too, so that no space is freed while timed."""
        return _shared_powersets[objects].spaces.pop(partition, None), space()

    def evaluated_new():
        space()
        return evaluated(built()[1])

    tags = count()

    def renamed_blocks():
        """blocks over objects named afresh, which no space was built over."""
        tag = next(tags)
        return [[f"{x}.{tag}" for x in b] for b in blocks]

    def evaluated(s):
        env = default_env(s)
        return s, [eval_term(tree, env, s) for tree in trees]

    def scanned():
        s_fns = evaluated(space())
        check_laws(*s_fns, TRIAL_WEIGHTS)
        return s_fns

    return {
        "powerset_space cold": (renamed_blocks, lambda bs: powerset_space([x for b in bs for x in b], bs)),
        "powerset_space new": (space, built),
        "powerset_space kept": (lambda: None, space),
        "parse_term": (lambda: None, lambda _: [parse_term(text) for text in TRIAL_TEXTS]),
        "eval_term": (space, evaluated),
        "check_laws new": (evaluated_new, lambda s_fns: check_laws(*s_fns, TRIAL_WEIGHTS)),
        "check_laws kept": (scanned, lambda s_fns: check_laws(*s_fns, TRIAL_WEIGHTS)),
    }


def per_call_us(make, call, repeat: int) -> str:
    """The summary of repeat samples, each the mean wall time in us of a
    batch of TRIAL_BATCH calls of call(make()), make untimed."""
    def batch(inputs):
        return [call(x) for x in inputs]

    return summary([once_ms(batch, [make() for _ in range(TRIAL_BATCH)])[0] * 1000 / TRIAL_BATCH
                    for _ in range(repeat)])


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
    kappas = failing_kappas(s, Random(args.seed))
    ms, witnesses = timed(lambda: _LAW_CHECKS["R0Plus"][0](s, kappas), args.repeat)
    print(f"{'R0Plus kappas':<16}{ms:>26}  FAIL ({len(witnesses)} witnesses)")
    print(f"{'check_laws':<16}{timed(lambda: check_laws(s, fns, WEIGHTS), args.repeat)[0]:>26}")
    print(f"{'operator':<16}{'ms':>26}")
    for name, call in operator_calls(s).items():
        print(f"{name:<16}{timed(call, args.repeat)[0]:>26}")
    print(f"{'trial stage':<20}{'objects':>8}{'us a call':>34}  ({len(TRIAL_TEXTS)} terms, "
          f"weights {' '.join(map(str, TRIAL_WEIGHTS))}, batches of {TRIAL_BATCH})")
    rng = Random(args.seed)
    for objects in (2, 3, 4):
        for name, (make, call) in trial_stages(objects, rng).items():
            print(f"{name:<20}{objects:>8}{per_call_us(make, call, args.repeat):>34}")


if __name__ == "__main__":
    main()
