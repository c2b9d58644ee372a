"""Time every layer of rif-forge on a seeded power set; print one JSON record.

    python3 scripts/bench_layers.py [--objects 6] [--seed 0] [--repeat 5] > BENCH_<commit>.json

Times the source in this checkout's src/ on the power set of N objects
(2**N elements), granulated by a seeded random partition.  Prints one JSON
document: the machine, the Python version, the commit (or null), the
arguments and the number of elements, then "cells", one per line.  A cell
is one timing: its layer (load, save, space, build, operator, axiom, law,
trial or startup; the function named after each says what it times), name
and unit, the best, q1, median and q3 of --repeat samples (10 * --repeat
alternated pairs for load and save), and what the timed call found.  Exits
non-zero if a verdict differs from its report, _json_text from json.dumps,
a command exits non-zero, or a space built new has derived data.  Stdlib only.
"""
import argparse
import gc
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from functools import partial
from itertools import starmap
from random import Random

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from rif_forge.algebra import _LAW_CHECKS, check_laws, flat, leq, oplus, otimes, power, rif_failure_search, sharp, sigma
from rif_forge.inclusion import (RIF_AXIOM_ORDER, InclusionFunction, _verdict, check_rif_axiom, classify, k0, k1,
                                 k2, kst, random_kappa, verify_prif)
from rif_forge.sampling import random_partition
from rif_forge.space import (_AXIOM_CHECKS, _json_text, _powerset, check_admissibility, classify_flavor, load_space,
                             powerset_space, save_space, space_to_dict, validate_space)
from rif_forge.terms import default_env, eval_term, parse_term

WEIGHTS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
# terms shaped like the laws-wqrif workload's
TRIAL_TEXTS = ["oplus(1/12,pow(k1,3),kst(k0,3/8,1))", "sharp(otimes(k2,top))", "kst(sigma(oplus(2/5,k0,k2)),1/4,2/3)",
               "flat(pow(otimes(k0,k1),2))", "oplus(7/9,sigma(k1),flat(kst(k2,1/6,5/6)))"]
TRIAL_WEIGHTS = [Fraction(1, 3), Fraction(3, 4)]
TRIAL_BATCH = 50
COMMANDS = {"validate": [], "classify": ["k0"]}
# a startup cell whose quartiles lie further apart than this, in ms, cannot
# resolve a change of that size, and is marked unresolved
RESOLVED_MS = 5


def once_ms(call, *args):
    """The wall time of call(*args) in ms, and its result."""
    start = time.perf_counter()
    result = call(*args)
    return (time.perf_counter() - start) * 1000, result


def timed(call, repeat: int, make=None):
    """repeat wall times in ms of call(make()), make untimed, or of call()
    without make, and the last call's result."""
    times = []
    for _ in range(repeat):
        ms, result = once_ms(call, *(() if make is None else (make(),)))
        times.append(ms)
    return times, result


def alternated(first, second, repeat: int) -> tuple[list, list]:
    """repeat wall times each of first() and second(), called in pairs so
    that both see the same machine, each going first in half of the pairs."""
    times = ([], [])
    for i in range(repeat):
        for side in (0, 1) if i % 2 else (1, 0):
            times[side].append(once_ms((first, second)[side])[0])
    return times


def cell(layer: str, name: str, times: list, unit: str = "ms", **found) -> dict:
    """One row of the record: the best, q1, median and q3 of times, to four
    significant digits, and what the timed call found."""
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive") if len(times) > 1 else times * 3
    figures = zip(("best", "q1", "median", "q3"), (min(times), q1, median, q3))
    return {"layer": layer, "name": name, "unit": unit, **{k: float(f"{v:.4g}") for k, v in figures}, **found}


def new_powerset(names, blocks):
    """The space powerset_space(names, blocks) returns, built new by the
    uncached builder, so that it has derived nothing."""
    return _powerset.__wrapped__(tuple(sorted(names)), frozenset(map(frozenset, blocks)))


def load_cells(built, repeat: int):
    """load_space of built's file alternated with a json.load of it, with the
    cyclic collector paused as load_space pauses it; their per-pair ratio and
    the collections inside one load; _json_text alternated with
    json.dumps(indent=2), whose text it must equal.  Also the loaded space."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "space.json"
        save_space(built, path)
        gc.disable()
        try:
            load_ms, decode_ms = alternated(lambda: load_space(path), lambda: json.loads(path.read_text()), 10 * repeat)
        finally:
            gc.enable()
        before = [g["collections"] for g in gc.get_stats()]
        s = load_space(path)
        collections = [g["collections"] - b for g, b in zip(gc.get_stats(), before)]
    doc = space_to_dict(s)
    if _json_text(doc) != json.dumps(doc, indent=2):
        sys.exit("_json_text differs from json.dumps(indent=2)")
    write_ms, dumps_ms = alternated(lambda: _json_text(doc), lambda: json.dumps(doc, indent=2), 10 * repeat)
    return s, [cell("load", "load_space", load_ms, collections=collections), cell("load", "json.load", decode_ms),
               cell("load", "load/decode", [a / b for a, b in zip(load_ms, decode_ms)], "x"),
               cell("save", "_json_text", write_ms), cell("save", "json.dumps", dumps_ms)]


def space_cells(s, repeat: int):
    """Each space-axiom scan PT1..TB called directly; validate_space, which
    reports PT1..G5 of a setHGOS space from its flavor proof;
    check_admissibility; classify_flavor."""
    for axiom, (check, *rest) in _AXIOM_CHECKS.items():
        times, (witnesses, skipped) = timed(lambda: check(s, *rest), repeat)
        yield cell("space", f"scan {axiom}", times, witnesses=len(witnesses), skipped=skipped)
    for name, call in (("validate_space", validate_space), ("check_admissibility", check_admissibility)):
        times, reports = timed(lambda: call(s), repeat)
        yield cell("space", name, times, witnesses=sum(len(r.witnesses) for r in reports),
                   skipped=sum(r.skipped for r in reports))
    times, flavor = timed(lambda: classify_flavor(s), repeat)
    yield cell("space", "classify_flavor", times, flavor=flavor)


def build_cells(s, fns, new_space, repeat: int):
    """k0, k1 and k2 on new_space(), which must have derived nothing, and on
    s, which keeps them and returns them again; kst once and on each of k0,
    k1 and k2; the table constructor InclusionFunction(s, f.values) of each
    of fns."""
    def base_functions(t):
        if t._derived:
            sys.exit("a space built new has derived data before k0/k1/k2")
        return k0(t), k1(t), k2(t)

    quarter, three_quarters = Fraction(1, 4), Fraction(3, 4)
    yield cell("build", "k0/k1/k2 new", timed(base_functions, repeat, new_space)[0])
    yield cell("build", "k0/k1/k2 kept", timed(lambda: (k0(s), k1(s), k2(s)), repeat)[0])
    yield cell("build", "kst(k0,1/4,3/4)", timed(lambda: kst(fns[0], quarter, three_quarters), repeat)[0])
    yield cell("build", "kst", timed(lambda: [kst(f, quarter, three_quarters) for f in fns[:3]], repeat)[0])
    for f in fns:
        table = f.values
        yield cell("build", f"{f.label} constructor", timed(lambda: InclusionFunction(s, table, f.label), repeat)[0])


def operator_cells(fns, repeat: int):
    """Each operator once, then over k0, k1 and k2: otimes and leq on each
    ordered pair, oplus on each pair at every weight of WEIGHTS."""
    f0, f1, f2 = ones = fns[:3]
    pairs = [(f, g) for f in ones for g in ones]
    calls = {"otimes(k0,k2)": (otimes, [(f0, f2)]), "oplus(1/3,k0,k2)": (oplus, [(Fraction(1, 3), f0, f2)]),
             "sharp(k0)": (sharp, [(f0,)]), "flat(k1)": (flat, [(f1,)]), "sigma(k0)": (sigma, [(f0,)]),
             "sigma(k1)": (sigma, [(f1,)]), "pow(k1,2)": (power, [(f1, 2)]), "otimes": (otimes, pairs),
             "oplus": (oplus, [(w, f, g) for w in WEIGHTS for f, g in pairs]), "sharp": (sharp, [(f,) for f in ones]),
             "flat": (flat, [(f,) for f in ones]), "sigma": (sigma, [(f,) for f in ones]),
             "pow": (power, [(f, 3) for f in ones]), "leq": (leq, pairs)}
    for name, (op, args) in calls.items():
        yield cell("operator", name, timed(lambda: list(starmap(op, args)), repeat)[0])


def fresh(f: InclusionFunction) -> InclusionFunction:
    """A new copy of f: its rows, with nothing built from them."""
    return InclusionFunction._of_rows(f.space, f.nums, f.den, f.label)


def unkept(f: InclusionFunction) -> InclusionFunction:
    """f without its kept R2/R3 verdict, so that the next one scans."""
    f._axiom_rows.order_verdict = None
    return f


def axiom_cells(fns, repeat: int):
    """For each of fns and each RIF axiom, the check_rif_axiom report and
    the verdict alone, which stops at the first offending row: on a new copy
    of the function, which pays for the rows it reads, and on a built one,
    whose rows every axiom read before.  Then verify_prif and classify."""
    for f in fns:
        ready = fresh(f)
        for axiom in RIF_AXIOM_ORDER:
            check_rif_axiom(ready, axiom)
        for axiom in RIF_AXIOM_ORDER:
            report = partial(check_rif_axiom, axiom=axiom)
            times, rep = timed(report, repeat, lambda: fresh(f))
            found = {"witnesses": len(rep.witnesses), "skipped": rep.skipped}
            yield cell("axiom", f"{f.label} {axiom} report", times, **found)
            yield cell("axiom", f"{f.label} {axiom} report built", timed(report, repeat, lambda: ready)[0], **found)
            for name, make in (("verdict", lambda: fresh(f)), ("verdict built", lambda: unkept(ready))):
                times, (holds, _) = timed(partial(_verdict, axiom=axiom, relation="parthood"), repeat, make)
                if holds != rep.holds:
                    sys.exit(f"the {name} of {axiom} on {f.label} differs from its report")
                yield cell("axiom", f"{f.label} {axiom} {name}", times, holds=holds)
        times, verdicts = timed(verify_prif, repeat, lambda: fresh(f))
        yield cell("axiom", f"{f.label} verify_prif", times,
                   violated=[v.name for v in verdicts if v.applicable and v.violated])
        times, name = timed(classify, repeat, lambda: fresh(f))
        yield cell("axiom", f"{f.label} classify", times, **{"class": name})


def law_cells(s, fns, rng: Random, repeat: int):
    """Each law check_laws scans, on fns; R0Plus on three kappas drawn from
    rng that fail it, so that listing witnesses is timed too; check_laws at
    WEIGHTS; rif_failure_search with budget 20."""
    for law, (check, *rest) in _LAW_CHECKS.items():
        times, witnesses = timed(lambda: check(s, fns, *rest), repeat)
        yield cell("law", law, times, witnesses=len(witnesses))
    r0_plus, kappas = _LAW_CHECKS["R0Plus"][0], []
    while len(kappas) < 3:
        if r0_plus(s, [f := random_kappa(s, rng)]):
            kappas.append(f)
    times, witnesses = timed(lambda: r0_plus(s, kappas), repeat)
    yield cell("law", "R0Plus kappas", times, witnesses=len(witnesses))
    times, reports = timed(lambda: check_laws(s, fns, WEIGHTS), repeat)
    yield cell("law", "check_laws", times, witnesses=sum(len(r.witnesses) for r in reports))
    yield cell("law", "rif_failure_search", timed(lambda: rif_failure_search(s, 20), repeat)[0])


def trial_cells(rng: Random, repeat: int):
    """The stages of a laws trial on the power sets of 2, 3 and 4 objects,
    each granulated by a partition drawn from rng: powerset_space built new
    and kept; parse_term and eval_term of TRIAL_TEXTS; check_laws on their
    values at TRIAL_WEIGHTS, on a space built new and on the kept one, which
    scanned before.  A sample is the mean in us of a batch of TRIAL_BATCH
    calls, their inputs made untimed."""
    trees = [parse_term(text) for text in TRIAL_TEXTS]
    for objects in (2, 3, 4):
        names = [f"o{i}" for i in range(1, objects + 1)]
        blocks = random_partition(names, rng)

        def kept(_=None):
            return powerset_space(names, blocks)

        def evaluated(s):
            env = default_env(s)
            return s, [eval_term(tree, env, s) for tree in trees]

        def laws(s_fns):
            return check_laws(*s_fns, TRIAL_WEIGHTS)

        laws(evaluated(kept()))  # so that the kept space has scanned before
        stages = {"powerset_space built": (lambda: None, lambda _: new_powerset(names, blocks)),
                  "powerset_space kept": (kept, kept),
                  "parse_term": (lambda: None, lambda _: [parse_term(text) for text in TRIAL_TEXTS]),
                  "eval_term": (kept, evaluated),
                  "check_laws new": (lambda: evaluated(new_powerset(names, blocks)), laws),
                  "check_laws kept": (lambda: evaluated(kept()), laws)}
        for name, (make, call) in stages.items():
            samples = [once_ms(lambda xs: [call(x) for x in xs], [make() for _ in range(TRIAL_BATCH)])[0]
                       * 1000 / TRIAL_BATCH for _ in range(repeat)]
            yield cell("trial", f"{name}, {objects} objects", samples, "us")


def run(argv: list, env: dict) -> str:
    """Run argv in a fresh process; its stderr, after checking it exited 0."""
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    if result.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {result.returncode}: {result.stderr}")
    return result.stderr


def startup_cells(repeat: int):
    """Fresh `python -m rif_forge.cli` processes of each of COMMANDS on the
    packaged fixture alternated with a bare `python -c pass`, with a bytecode
    cache (filled by one untimed run) and without one: the command, the bare
    start, their difference pair by pair, and the package modules the command
    loads.  Each cell says whether it is resolved: q3 - q1 <= RESOLVED_MS.
    They run from a copy of src/, so the checkout is never written, with
    the copy's path and the cache setting as their whole environment."""
    def startup(name, times, **found):
        c = cell("startup", name, times, **found)
        return c | {"resolved": c["q3"] - c["q1"] <= RESOLVED_MS}

    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        fixture = str(src / "rif_forge" / "fixtures" / "abstract_example.json")
        modes = {"cached": {"PYTHONPATH": str(src), "PYTHONPYCACHEPREFIX": str(pathlib.Path(tmp, "pycache"))},
                 "uncached": {"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}}
        for name, rest in COMMANDS.items():
            argv = [sys.executable, "-m", "rif_forge.cli", name, fixture, *rest]
            lines = run([sys.executable, "-X", "importtime", *argv[1:]], modes["cached"]).splitlines()
            loads = [m for m in (line.rsplit("|", 1)[-1].strip() for line in lines) if m.split(".")[0] == "rif_forge"]
            for mode, env in modes.items():
                run(argv, env)
                times, bare = alternated(lambda: run(argv, env), lambda: run([sys.executable, "-c", "pass"], env),
                                         repeat)
                yield startup(f"{name} {mode}", times, loads=loads)
                yield startup(f"{name} {mode} bare", bare)
                yield startup(f"{name} {mode} minus bare", [a - b for a, b in zip(times, bare)])


def commit():
    """The short hash of this checkout's HEAD, or None outside a git checkout."""
    try:
        result = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    if not 1 <= args.objects <= 8 or args.repeat < 1:
        parser.error("--objects must lie in 1..8 and --repeat must be positive")
    rng = Random(args.seed)
    names = [f"o{i}" for i in range(1, args.objects + 1)]
    blocks = random_partition(names, rng)
    s, cells = load_cells(powerset_space(names, blocks), args.repeat)
    fns = [k0(s), k1(s), k2(s), kst(k0(s), Fraction(1, 4), Fraction(3, 4)), random_kappa(s, rng)]
    cells += [*space_cells(s, args.repeat), *build_cells(s, fns, lambda: new_powerset(names, blocks), args.repeat),
              *operator_cells(fns, args.repeat), *axiom_cells(fns, args.repeat),
              *law_cells(s, fns[:3], Random(args.seed), args.repeat), *trial_cells(Random(args.seed), args.repeat),
              *startup_cells(args.repeat)]
    header = {"machine": f"{os.cpu_count()} cpus, {platform.machine()}", "python": platform.python_version(),
              "commit": commit(), "objects": args.objects, "seed": args.seed, "repeat": args.repeat,
              "elements": len(s.elements)}
    print("{\n" + "".join(f"  {json.dumps(key)}: {json.dumps(value)},\n" for key, value in header.items())
          + '  "cells": [\n' + ",\n".join(f"    {json.dumps(c)}" for c in cells) + "\n  ]\n}")


if __name__ == "__main__":
    main()
