"""Time loading and validating a space, axiom by axiom, on a power set.

    python3 scripts/time_validate.py [--objects 6] [--seed 0] [--repeat 3]

Builds the power set of N objects (2**N elements) with a seeded random
partition as granulation and saves it to a temporary file.  Then it times
10 * --repeat alternated pairs of load_space from that file (which reads it
into the space's index tables and proves its setHGOS flavor) and json.load
of the same file, with the cyclic garbage collector paused as load_space
pauses it, and prints the median and quartiles of each and of the
per-pair ratio load/decode.  It counts the collections that run inside one
load (gc.callbacks), and times 10 * --repeat alternated pairs of writing
the space's document: the program's writer, _json_text, and
json.dumps(indent=2), whose text it equals.  After that, the best of
--repeat runs of:
each axiom's scan, PT1 to TB, called directly, with its witness and
skipped counts; validate_space as the program runs it, which on a setHGOS
space reports PT1, PT2 and G1-G5 from the flavor proof and scans only
UL1-UL3 and TB; check_admissibility, with its witness count; and
classify_flavor, with the flavor it names.  Stdlib only.
"""

import argparse
import gc
import json
import os
import pathlib
import platform
import statistics
import sys
import tempfile
import time
from random import Random

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rif_forge.sampling import random_partition
from rif_forge.space import (
    _AXIOM_CHECKS, _SET_LATTICE_AXIOMS, _json_text, check_admissibility, classify_flavor, load_space,
    powerset_space, save_space, space_to_dict, validate_space,
)


def best_ms(call, repeat: int):
    """The least wall time of repeat calls, in ms, and the last call's result."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return min(times) * 1000, result


def quartiles(values: list) -> tuple:
    """(lower quartile, median, upper quartile) of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


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
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if not 1 <= args.objects <= 8 or args.repeat < 1:
        parser.error("--objects must lie in 1..8 and --repeat must be positive")

    objects = [f"o{i}" for i in range(1, args.objects + 1)]
    built = powerset_space(objects, random_partition(objects, Random(args.seed)))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "space.json"
        save_space(built, path)
        # alternated, so that both see the same machine
        load_ms, decode_ms = [], []
        for _ in range(10 * args.repeat):
            ms, s = best_ms(lambda: load_space(path), 1)
            load_ms.append(ms)
            decode_ms.append(best_ms(lambda: decode(path), 1)[0])
        collections = collections_in(lambda: load_space(path))
    ratios = [load / dec for load, dec in zip(load_ms, decode_ms)]
    doc = space_to_dict(s)
    if _json_text(doc) != json.dumps(doc, indent=2):
        sys.exit("_json_text differs from json.dumps(indent=2)")
    write_ms, dumps_ms = [], []
    for i in range(10 * args.repeat):
        # alternated, and each side goes first in half of the pairs
        pair = [(write_ms, lambda: _json_text(doc)), (dumps_ms, lambda: json.dumps(doc, indent=2))]
        for times, call in pair[::1 if i % 2 else -1]:
            times.append(best_ms(call, 1)[0])
    t = s.tables
    proved = _SET_LATTICE_AXIOMS if classify_flavor(s) == "setHGOS" else ()
    rows = []
    for axiom, (check, *rest) in _AXIOM_CHECKS.items():
        rows.append((f"scan {axiom}", *best_ms(lambda: check(s, t, *rest), args.repeat)))
    rows.append(("validate_space", *best_ms(lambda: validate_space(s), args.repeat)))
    rows.append(("admissibility", *best_ms(lambda: check_admissibility(s), args.repeat)))
    rows.append(("classify_flavor", *best_ms(lambda: classify_flavor(s), args.repeat)))

    print(f"# {len(s.elements)} elements, {len(s.granulation)} granules, seed {args.seed}, "
          f"best of {args.repeat}")
    print(f"# {os.cpu_count()} cpus, Python {platform.python_version()}, {platform.machine()}")
    print(f"# {len(ratios)} alternated pairs: lower quartile, median, upper quartile")
    for name, values, unit in (("load_space", load_ms, "ms"), ("json.load", decode_ms, "ms"),
                               ("load/decode", ratios, "x"), ("_json_text", write_ms, "ms"),
                               ("json.dumps", dumps_ms, "ms")):
        print(f"{name:<16}" + "".join(f"{q:>10.2f}" for q in quartiles(values)) + f"  {unit}")
    print(f"# collections inside one load_space, by generation: {collections}")
    if proved:
        print(f"# validate_space reports {', '.join(proved)} from the setHGOS flavor proof "
              "and runs the other scans")
    else:
        print("# validate_space runs every scan")
    print(f"{'step':<16}{'ms':>10}{'witnesses':>11}{'skipped':>10}")
    for name, ms, result in rows:
        if isinstance(result, tuple):  # one axiom check: (witnesses, skipped)
            counts = f"{len(result[0]):>11}{result[1]:>10}"
        elif isinstance(result, list):  # reports
            counts = f"{sum(len(r.witnesses) for r in result):>11}{sum(r.skipped for r in result):>10}"
        else:  # the flavor
            counts = f"  {result}"
        print(f"{name:<16}{ms:>10.2f}{counts}")


if __name__ == "__main__":
    main()
