"""Spans around the program's layers, recorded from outside the program.

install() wraps the public module-level functions of each layer module and
replaces every binding of them in the rif_forge package (so `from .space
import load_space` in another module is wrapped too).  It also wraps
InclusionFunction.__init__ and the callbacks of the CLI commands.  A span
is (name, tag, parent, start_ns, end_ns, witnesses, skipped, op): spans
stay in memory until the run ends, and spans of one operation share the
index of its root span, `op`.

Calls inside a function body (the eleven laws in check_laws, the space
axioms in validate_space, GranularSpace methods) cannot be seen from here;
they count in the self time of the enclosing span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from time import perf_counter_ns

LAYERS = ("space", "table", "inclusion", "measures", "algebra", "terms", "cli")

# Called once per quantifier instance inside the space axiom scans (about
# half a million times per 64-element validate); a span around each would
# time the tracer, not the program.  Their cost stays in the caller.
NOT_WRAPPED = {"space.weak_equal", "space.strong_weak_equal"}

RIF_AXIOMS = ("U1", "R0", "R1", "R2", "R3", "R4", "R5", "R6", "IR0", "IR4", "RB")

# Every figure layer_metrics reports; a function never called reads 0.
METRICS = (
    "algebra.self_ms", "algebra.check_laws.ms", "algebra.check_laws.self_ms",
    "algebra.check_laws.witnesses",
    "algebra.otimes.calls", "algebra.otimes.ms", "algebra.oplus.calls", "algebra.oplus.ms",
    "algebra.leq.calls", "algebra.leq.ms",
    "algebra.sharp.ms", "algebra.flat.ms", "algebra.sigma.ms", "algebra.power.ms",
    "algebra.rif_failure_search.ms", "algebra.fit_alpha.ms",
    "inclusion.InclusionFunction.calls", "inclusion.InclusionFunction.ms", "inclusion.self_ms",
    *(f"inclusion.check_rif_axiom.{ax}.ms" for ax in RIF_AXIOMS),
    "inclusion.check_rif_axiom.witnesses", "inclusion.check_rif_axiom.skipped",
    "inclusion.classify.ms", "inclusion.verify_prif.ms", "inclusion.k_base.ms", "inclusion.kst.ms",
    "space.self_ms", "space.load_space.ms", "space.powerset_space.ms", "space.validate_space.ms",
    "space.check_admissibility.ms", "space.classify_flavor.ms",
    "terms.self_ms", "terms.parse_term.ms", "terms.eval_term.ms",
    "table.self_ms", "measures.self_ms", "cli.self_ms",
    "trace.overhead_s",
)


def _rif_axiom_extra(args, kwargs, result):
    axiom = args[1] if len(args) > 1 else kwargs.get("axiom", "")
    if result is None:
        return axiom, 0, 0
    return axiom, len(result.witnesses), result.skipped


def _laws_extra(args, kwargs, result):
    if result is None:
        return "", 0, 0
    return "", sum(len(r.witnesses) for r in result), 0


EXTRAS = {
    "inclusion.check_rif_axiom": _rif_axiom_extra,
    "algebra.check_laws": _laws_extra,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.on = False
        self.current = -1
        self.root = -1
        self._undo: list = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "rif_forge" or n.startswith("rif_forge.")]
        for layer in LAYERS:
            mod = sys.modules.get(f"rif_forge.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in NOT_WRAPPED):
                    continue
                wrapper = self._wrap(name, obj)
                for other in modules:
                    for other_attr, value in list(vars(other).items()):
                        if value is obj:
                            self._set(other, other_attr, wrapper)
        inclusion = sys.modules["rif_forge.inclusion"]
        cls = inclusion.InclusionFunction
        self._set(cls, "__init__", self._wrap("inclusion.InclusionFunction", cls.__init__))
        cli = sys.modules.get("rif_forge.cli")
        if cli is not None:
            for command in cli.main.commands.values():
                self._set(command, "callback", self._wrap(f"cli.{command.name}", command.callback))

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()

    def _set(self, target, attr, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _wrap(self, name: str, fn):
        tracer = self
        spans = self.spans
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            parent = tracer.current
            index = len(spans)
            spans.append(None)
            tracer.current = index
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                tracer.current = parent
                tag, witnesses, skipped = extra(args, kwargs, result) if extra else ("", 0, 0)
                spans[index] = (name, tag, parent, start, end, witnesses, skipped, tracer.root)

        return wrapper

    # -- operations --------------------------------------------------------

    def begin_op(self, label: str) -> None:
        self.root = self.current = len(self.spans)
        self.spans.append(None)
        self._op_label = label
        self._op_start = perf_counter_ns()
        self.on = True

    def end_op(self) -> None:
        end = perf_counter_ns()
        self.on = False
        self.spans[self.root] = ("op", self._op_label, -1, self._op_start, end, 0, 0, self.root)
        self.current = self.root = -1

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["index", "name", "tag", "parent", "start_ns", "end_ns",
                                 "witnesses", "skipped", "op"]) + "\n")
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i, *span]) + "\n")


def layer_metrics(spans, overhead_s: float) -> dict[str, float]:
    """The figures named in METRICS, from a span list: `<fn>.ms` sums the
    outermost spans of fn (inclusive), `<layer>.self_ms` sums span time not
    covered by child spans, `.calls` counts spans."""
    child_ns = [0] * len(spans)
    for name, tag, parent, start, end, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    def outermost(i: int) -> bool:
        name = spans[i][0]
        parent = spans[i][2]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][2]
        return True

    m: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0.0) + value

    for i, (name, tag, parent, start, end, witnesses, skipped, op) in enumerate(spans):
        if name == "op":
            continue
        layer = name.split(".", 1)[0]
        dur_ms = (end - start) / 1e6
        add(f"{layer}.self_ms", (end - start - child_ns[i]) / 1e6)
        add(f"{name}.calls", 1)
        if outermost(i):
            add(f"{name}.ms", dur_ms)
            if name == "inclusion.check_rif_axiom":
                add(f"{name}.{tag}.ms", dur_ms)
            if name in ("inclusion.k0", "inclusion.k1", "inclusion.k2"):
                add("inclusion.k_base.ms", dur_ms)
        if name == "algebra.check_laws":
            add(f"{name}.self_ms", (end - start - child_ns[i]) / 1e6)
        add(f"{name}.witnesses", witnesses)
        add(f"{name}.skipped", skipped)
    m["trace.overhead_s"] = overhead_s
    return {key: m.get(key, 0.0) for key in METRICS}
