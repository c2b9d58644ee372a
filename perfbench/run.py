"""rif-forge benchmark: seeded closed-loop workloads, one operation at a time.

    python3 perfbench/run.py --workload laws-wqrif --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout; the program is imported from
src/.  With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics named in BENCHMARK.json; with --trace 1 it holds the
per-layer metrics of a traced pass.  Operation and set-up times are
scaled to a fixed reference speed of the machine, measured while they run
(speed.py).  A result file (and, traced, a span file) is written under
perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from random import Random
from time import perf_counter
from types import SimpleNamespace
from typing import NoReturn

from speed import AFTER_SHARE, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE = SRC / "rif_forge" / "fixtures" / "abstract_example.json"
RESULTS = HERE / "results"
WORK = HERE / "work"

# Set-up is repeated and the median reported: one import is too noisy to
# compare across commits.
SETUP_REPEATS = 7


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program(with_cli: bool) -> SimpleNamespace:
    """Import rif_forge (and click, for the CLI) afresh from src/."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("rif_forge", "click"):
            del sys.modules[name]
    lib = SimpleNamespace()
    package = importlib.import_module("rif_forge")
    if Path(package.__file__).resolve().parent != SRC / "rif_forge":
        fail(f"rif_forge imported from {package.__file__}, not from {SRC}")
    for layer in ("space", "inclusion", "algebra", "terms"):
        setattr(lib, layer, importlib.import_module(f"rif_forge.{layer}"))
    if with_cli:
        lib.cli = importlib.import_module("rif_forge.cli")
        lib.CliRunner = importlib.import_module("click.testing").CliRunner
    return lib


def run_pass(workload, tracer=None, seconds=None, rounds=None, inside=True) -> dict:
    """Whole rounds, until the next round would end past `seconds` of wall
    time (at least one round), or `rounds` of them.  Every operation leaves
    a record: label, seconds, passed, known fault, speed factor.  The
    seconds leave out the speed probes (speed.py).  Operations are probed
    while they run, or, with a tracer or inside=False, after they return."""
    inside = inside and tracer is None
    records, problems = [], []
    probe = SpeedProbe()
    r = 0
    start = perf_counter()
    while True:
        for op in workload.round(r):
            if tracer:
                tracer.begin_op(op.label)
            t0 = perf_counter()
            probe.start(timer=inside)
            try:
                out, error = op.call(), None
            except Exception as exc:  # the operation failed; report it and go on
                out, error = None, exc
            elapsed = perf_counter() - t0 - probe.halt()
            if tracer:
                tracer.end_op()
            factor = probe.factor(0.0 if inside else AFTER_SHARE * elapsed)
            found = [f"raised {type(error).__name__}: {error}"] if error else op.check(out)
            if found and op.fault is None:
                problems.append(f"{op.label}: {'; '.join(found)[:500]}")
            records.append((op.label, elapsed, not found, op.fault is not None, factor))
        r += 1
        if rounds is not None and r >= rounds:
            break
        spent = perf_counter() - start
        if seconds is not None and spent * (r + 1) / r > seconds:
            break
    return {"rounds": r, "records": records, "problems": problems,
            "busy_s": sum(rec[1] for rec in records)}


def scaled_times(records) -> list[float]:
    """Seconds at the reference speed of every operation that is not a
    known fault.  Known faults are left out so that mending one does not
    move the figures."""
    return [rec[1] * rec[4] for rec in records if not rec[3]]


def probed_setup(cls, with_cli: bool, rng_text: str, workdir: Path):
    """One set-up: (workload, seconds at the reference speed)."""
    probe = SpeedProbe()
    t0 = perf_counter()
    probe.start()
    lib = import_program(with_cli)
    workload = cls()
    workload.setup(lib, Random(rng_text), workdir, FIXTURE)
    probed = probe.halt()
    elapsed = perf_counter() - t0 - probed
    return workload, elapsed * probe.factor()


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if not (SRC / "rif_forge" / "__init__.py").is_file() or not FIXTURE.is_file():
        fail(f"program source not found under {SRC}")
    sys.path.insert(0, str(SRC))

    cls, with_cli = WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            workload, seconds = probed_setup(cls, with_cli, f"{args.workload}/{args.seed}", workdir)
            setup_samples.append(seconds)
        gc.collect()
        rss_before_ops = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            # both passes probed the same way, so that their difference
            # is the tracing overhead and not the probes'
            plain = run_pass(workload, seconds=args.seconds / 2, inside=False)
            tracer = Tracer()
            tracer.install()
            traced = run_pass(workload, tracer=tracer, rounds=plain["rounds"])
            tracer.uninstall()
        else:
            plain = run_pass(workload, seconds=args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = [plain, traced] if args.trace else [plain]
    attempted = sum(len(p["records"]) for p in passes)
    failed = sum(not rec[2] for p in passes for rec in p["records"])
    problems = [x for p in passes for x in p["problems"]]
    times = scaled_times(plain["records"])
    raw = [rec[1] for rec in plain["records"] if not rec[3]]
    if args.trace:
        overhead = sum(rec[1] * rec[4] for rec in traced["records"]) - sum(
            rec[1] * rec[4] for rec in plain["records"])
        figures = layer_metrics(tracer.spans, overhead)
        wanted = spec["per_layer"]
    else:
        figures = {
            "ops_per_s": len(times) / sum(times) if times else 0.0,
            "op_p50_ms": statistics.median(times) * 1000 if times else 0.0,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    if {m["name"] for m in wanted} != set(figures):
        fail(f"BENCHMARK.json names {sorted(m['name'] for m in wanted)}, the run measures {sorted(figures)}")
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not problems and bool(times)

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(RESULTS / f"{stem}.spans.jsonl.gz")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(), "git_sha": git_sha(),
        "correct": correct, "attempted": attempted, "failed": failed, "rounds": plain["rounds"],
        "setup_s_samples": setup_samples, "busy_s": [p["busy_s"] for p in passes],
        # wall-clock figures, before scaling to the reference speed
        "unscaled": {"ops_per_s": len(raw) / sum(raw) if raw else 0.0,
                     "op_p50_ms": statistics.median(raw) * 1000 if raw else 0.0},
        # ru_maxrss once set-up is done: the part of peak_rss_mib that the
        # operations and their checks did not add
        "rss_before_ops_mib": rss_before_ops,
        "ops": [{"label": rec[0], "seconds": rec[1], "passed": rec[2], "speed_factor": rec[4]}
                for rec in plain["records"]],
        "problems": problems, "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in problems[:20]:
        print(f"perfbench: failed check: {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
