"""Time loading and validating a space, axiom by axiom, on a power set.

    python3 scripts/time_validate.py [--objects 6] [--seed 0] [--repeat 3]

Builds the power set of N objects (2**N elements) with a seeded random
partition as granulation and saves it to a temporary file.  Then it times
10 * --repeat alternated pairs of load_space from that file (which reads it
into the space's index tables and proves its setHGOS flavor) and json.load
of the same file, with the cyclic garbage collector paused as load_space
pauses it, and prints the times of each and the per-pair ratio
load/decode.  It counts the collections that run inside one load
(gc.callbacks), and times 10 * --repeat alternated pairs of writing the
space's document: the program's writer, _json_text, and
json.dumps(indent=2), whose text it equals.  After that, --repeat runs of:
each axiom's scan, PT1 to TB, called directly, with its witness and
skipped counts; validate_space as the program runs it, which on a setHGOS
space reports PT1, PT2 and G1-G5 from the flavor proof and scans only
UL1-UL3 and TB; check_admissibility, with its witness count; and
classify_flavor, with the flavor it names.  Every figure is printed as
scripts/timing.py prints it: best, then q1/median/q3.  Stdlib only.
"""

import gc
import json
import pathlib
import sys
import tempfile
from random import Random

from timing import MACHINE, alternated, once_ms, parse_args, power_set, summary, timed

from rif_forge.space import (
    _AXIOM_CHECKS, _SET_LATTICE_AXIOMS, _json_text, check_admissibility, classify_flavor, load_space,
    save_space, space_to_dict, validate_space,
)


def decode(path: pathlib.Path):
    """The document load_space reads from path, decoded as load_space does:
    with the cyclic collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        if enabled:
            gc.enable()


def collections_in(call) -> list:
    """How many collections of each generation ran inside call()."""
    counts = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            counts[info["generation"]] += 1

    gc.callbacks.append(count)
    try:
        call()
    finally:
        gc.callbacks.remove(count)
    return counts


def main() -> None:
    args = parse_args(__doc__, repeat=3)
    built = power_set(args.objects, Random(args.seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "space.json"
        save_space(built, path)
        # alternated, so that both see the same machine
        load_ms, decode_ms = [], []
        for _ in range(10 * args.repeat):
            ms, s = once_ms(load_space, path)
            load_ms.append(ms)
            decode_ms.append(once_ms(decode, path)[0])
        collections = collections_in(lambda: load_space(path))
    ratios = [load / dec for load, dec in zip(load_ms, decode_ms)]
    doc = space_to_dict(s)
    if _json_text(doc) != json.dumps(doc, indent=2):
        sys.exit("_json_text differs from json.dumps(indent=2)")
    write_ms, dumps_ms = alternated(lambda: _json_text(doc), lambda: json.dumps(doc, indent=2), 10 * args.repeat)
    proved = _SET_LATTICE_AXIOMS if classify_flavor(s) == "setHGOS" else ()
    rows = []
    for axiom, (check, *rest) in _AXIOM_CHECKS.items():
        rows.append((f"scan {axiom}", *timed(lambda: check(s, *rest), args.repeat)))
    rows.append(("validate_space", *timed(lambda: validate_space(s), args.repeat)))
    rows.append(("admissibility", *timed(lambda: check_admissibility(s), args.repeat)))
    rows.append(("classify_flavor", *timed(lambda: classify_flavor(s), args.repeat)))

    print(f"# {len(s.elements)} elements, {len(s.granulation)} granules, seed {args.seed}, "
          f"best q1/median/q3 of {args.repeat} in ms")
    print(MACHINE)
    print(f"# {len(ratios)} alternated pairs: best q1/median/q3")
    for name, values, unit in (("load_space", load_ms, "ms"), ("json.load", decode_ms, "ms"),
                               ("load/decode", ratios, "x"), ("_json_text", write_ms, "ms"),
                               ("json.dumps", dumps_ms, "ms")):
        print(f"{name:<16}{summary(values):>26}  {unit}")
    print(f"# collections inside one load_space, by generation: {collections}")
    if proved:
        print(f"# validate_space reports {', '.join(proved)} from the setHGOS flavor proof "
              "and runs the other scans")
    else:
        print("# validate_space runs every scan")
    print(f"{'step':<16}{'ms':>26}{'witnesses':>11}{'skipped':>10}")
    for name, ms, result in rows:
        if isinstance(result, tuple):  # one axiom check: (witnesses, skipped)
            counts = f"{len(result[0]):>11}{result[1]:>10}"
        elif isinstance(result, list):  # reports
            counts = f"{sum(len(r.witnesses) for r in result):>11}{sum(r.skipped for r in result):>10}"
        else:  # the flavor
            counts = f"  {result}"
        print(f"{name:<16}{ms:>26}{counts}")


if __name__ == "__main__":
    main()
