"""Set-up and timing shared by the per-layer timing scripts.

Importing this module puts the repository's src/ first on sys.path, so
the scripts time the source in their checkout.  Every script takes
--objects N (1..8), --seed and --repeat, builds the power set of N objects
with a seeded random partition as granulation, prints its machine under
its first line, and prints each time in ms as the best run, then the lower
quartile, median and upper quartile (q1/median/q3) of its runs: whole runs
on a shared machine shift together, so the best alone can mislead.  Stdlib
only.
"""
import argparse
import os
import pathlib
import platform
import statistics
import sys
import time
from random import Random

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rif_forge.sampling import random_partition
from rif_forge.space import GranularSpace, powerset_space

MACHINE = f"# {os.cpu_count()} cpus, Python {platform.python_version()}, {platform.machine()}"


def parse_args(doc: str, repeat: int) -> argparse.Namespace:
    """--objects, --seed and --repeat (default repeat), described by the
    first line of doc."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--objects", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=repeat)
    args = parser.parse_args()
    if not 1 <= args.objects <= 8 or args.repeat < 1:
        parser.error("--objects must lie in 1..8 and --repeat must be positive")
    return args


def power_set(objects: int, rng: Random) -> GranularSpace:
    """The power set of o1..oN, granulated by a partition drawn from rng."""
    names = [f"o{i}" for i in range(1, objects + 1)]
    return powerset_space(names, random_partition(names, rng))


def once_ms(call, *args):
    """The wall time of call(*args) in ms, and its result."""
    start = time.perf_counter()
    result = call(*args)
    return (time.perf_counter() - start) * 1000, result


def summary(times: list) -> str:
    """"best q1/median/q3" of times."""
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive") if len(times) > 1 else times * 3
    return f"{min(times):.2f} {q1:.2f}/{median:.2f}/{q3:.2f}"


def timed(call, repeat: int, make=None):
    """The summary of repeat wall times of call(make()), make untimed, or
    of call() without make, and the last call's result."""
    times = []
    for _ in range(repeat):
        ms, result = once_ms(call, *(() if make is None else (make(),)))
        times.append(ms)
    return summary(times), result


def alternated(first, second, repeat: int) -> tuple[list, list]:
    """repeat wall times each of first() and second(), called in pairs so
    that both see the same machine, each going first in half of the pairs."""
    times = ([], [])
    for i in range(repeat):
        for side in (0, 1) if i % 2 else (1, 0):
            times[side].append(once_ms((first, second)[side])[0])
    return times
