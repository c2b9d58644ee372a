"""Output checks.  Each returns a list of problems; an empty list passes.

The checks compare the program's outputs against reference.py or against
properties the method must have.  They take plain values (reports with
law/holds/witnesses attributes, value mappings, CLI exit codes and text),
so tests can hand them deliberately wrong answers.
"""

from __future__ import annotations

import json
from fractions import Fraction
from random import Random

from reference import (
    LAW_NAMES,
    ONE,
    ir0_witnesses,
    r0_witnesses,
    r1_witnesses,
    r2_violated,
    r3_violated,
    render,
    u1_witnesses,
)

SPACE_AXIOMS = ("PT1", "PT2", "G1", "G2", "G3", "G4", "G5", "UL1", "UL2", "UL3", "TB",
                "WRA", "LS", "FU")
CLASS_RANK = {"none": 0, "wqRIF": 1, "qRIF": 2, "RIF": 3}


# -- laws-wqrif --------------------------------------------------------------


def law_reports(reports) -> list[str]:
    """All eleven laws hold with zero witnesses (theorems for wqRIFs)."""
    problems = []
    names = tuple(r.law for r in reports)
    if names != LAW_NAMES:
        problems.append(f"law reports {names} != {LAW_NAMES}")
    for r in reports:
        if not r.holds or r.witnesses:
            problems.append(f"law {r.law} fails with {len(r.witnesses)} witnesses")
    return problems


def term_values(model, tree, values, pairs) -> list[str]:
    """Evaluated values equal the reference evaluator at the sampled pairs."""
    problems = []
    for a, b in pairs:
        key = (model.ids[a], model.ids[b])
        want = model.value(tree, a, b)
        got = values.get(key)
        if got != want:
            problems.append(f"value at {key} is {got}, reference gives {want}")
    return problems


# -- prif-kappa --------------------------------------------------------------


def prif_verdicts(verdicts, complement_closed: bool) -> list[str]:
    """No applicable implication is violated; prif7..9 apply exactly on
    complement-closed set spaces."""
    problems = []
    for v in verdicts:
        if v.applicable and v.violated:
            problems.append(f"{v.name} violated with {dict(v.axioms)}")
        if v.name in ("prif7", "prif8", "prif9") and v.applicable != complement_closed:
            problems.append(f"{v.name} applicable={v.applicable}, expected {complement_closed}")
    return problems


def prif_axioms(elements, values, part, reports, verdicts, rng: Random, samples: int) -> list[str]:
    """Axiom reports agree with the battery and with a recomputation.

    reports maps U1, R0, R1, IR0, R2, R3 to objects with holds and
    witnesses.  U1/R0/R1/IR0 witnesses must equal the recomputation from
    the value table and parthood, in order.  Every R2/R3 witness must
    violate its axiom, and sampled triples that are not witnesses must not.
    """
    problems = []
    for v in verdicts:
        for name, holds in v.axioms.items():
            if name in reports and reports[name].holds != holds:
                problems.append(f"{v.name} says {name} holds={holds}, report says {reports[name].holds}")
    exact = {
        "U1": u1_witnesses(elements, values),
        "R0": r0_witnesses(elements, values, part),
        "R1": r1_witnesses(elements, values, part),
        "IR0": ir0_witnesses(elements, values, part),
    }
    for name, want in exact.items():
        got = list(reports[name].witnesses)
        if got != want:
            problems.append(f"{name}: {len(got)} witnesses reported, {len(want)} recomputed")
    triple_checks = {
        "R2": lambda a, b, c: r2_violated(values, a, b, c),
        "R3": lambda a, b, c: r3_violated(values, part, a, b, c),
    }
    for name, violated in triple_checks.items():
        witnesses = reports[name].witnesses
        if reports[name].holds != (not witnesses):
            problems.append(f"{name}: holds={reports[name].holds} with {len(witnesses)} witnesses")
        seen = set(witnesses)
        if len(seen) != len(witnesses):
            problems.append(f"{name}: repeated witnesses")
        bogus = [w for w in witnesses if not violated(*w)]
        if bogus:
            problems.append(f"{name}: {len(bogus)} witnesses do not violate it, e.g. {bogus[0]}")
        for _ in range(samples):
            triple = (rng.choice(elements), rng.choice(elements), rng.choice(elements))
            if triple not in seen and violated(*triple):
                problems.append(f"{name}: violating triple {triple} is not a witness")
                break
    return problems


# -- cli-session -------------------------------------------------------------


def exit_ok(code: int, err: str) -> list[str]:
    if code != 0:
        return [f"exit {code}, expected 0; stderr {err.strip()[:200]!r}"]
    return []


def input_error(code: int, err: str) -> list[str]:
    """An input problem exits 2 with exactly one `error:` line."""
    lines = err.splitlines()
    if code != 2 or len(lines) != 1 or not lines[0].startswith("error: "):
        return [f"exit {code} with {len(lines)} stderr lines, expected exit 2 and one 'error:' line"]
    return []


def validate_output(code: int, out: str, err: str, flavor: str) -> list[str]:
    problems = exit_ok(code, err)
    lines = out.splitlines()
    if not lines or lines[0] != f"flavor: {flavor}":
        problems.append(f"first line {lines[:1]}, expected flavor {flavor}")
    verdicts = {}
    for line in lines[1:]:
        name, _, rest = line.partition(": ")
        verdicts[name] = rest
    if tuple(verdicts) != SPACE_AXIOMS:
        problems.append(f"axioms {tuple(verdicts)} != {SPACE_AXIOMS}")
    failing = [n for n, v in verdicts.items() if not v.startswith("pass")]
    if failing:
        problems.append(f"axioms fail: {failing}")
    return problems


def validate_json(code: int, out: str, err: str, flavor: str) -> list[str]:
    problems = exit_ok(code, err)
    try:
        doc = json.loads(out)
    except ValueError:
        return problems + ["output is not JSON"]
    names = tuple(a["axiom"] for a in doc.get("axioms", []))
    if doc.get("flavor") != flavor or doc.get("pass") is not True or names != SPACE_AXIOMS:
        problems.append(f"flavor {doc.get('flavor')}, pass {doc.get('pass')}, axioms {names}")
    failing = [a["axiom"] for a in doc.get("axioms", []) if not a["holds"] or a["witnesses"]]
    if failing:
        problems.append(f"axioms fail: {failing}")
    return problems


def approximate_output(code: int, out: str, err: str, rows: list[str]) -> list[str]:
    problems = exit_ok(code, err)
    got = out.splitlines()
    if got != rows:
        wrong = [g for g, w in zip(got, rows) if g != w]
        problems.append(f"{len(got)} rows, {len(rows)} expected; first difference {wrong[:1]}")
    return problems


def classify_output(code: int, out: str, err: str, at_least: str) -> list[str]:
    problems = exit_ok(code, err)
    first = out.splitlines()[:1]
    named = first[0].removeprefix("class: ") if first else ""
    if CLASS_RANK.get(named, -1) < CLASS_RANK[at_least]:
        problems.append(f"class {named!r}, expected at least {at_least}")
    return problems


def check_laws_output(code: int, out: str, err: str) -> list[str]:
    problems = exit_ok(code, err)
    verdicts = {}
    for line in out.splitlines()[2:]:
        if not line.startswith(" "):
            name, _, rest = line.partition(": ")
            verdicts[name] = rest
    if tuple(verdicts) != LAW_NAMES or any(v != "pass" for v in verdicts.values()):
        problems.append(f"law verdicts {verdicts}")
    return problems


def prif_verify_output(code: int, out: str, err: str, trials: int) -> list[str]:
    problems = exit_ok(code, err)
    lines = out.splitlines()
    if not lines or lines[0] != f"trials: {trials}" or lines[-1] != "pass":
        problems.append(f"prif-verify output {lines[:1]}...{lines[-1:]}")
    violated = [line for line in lines[1:-1] if not line.endswith("violated 0")]
    if violated:
        problems.append(f"violations: {violated}")
    return problems


def vprs_output(code: int, out: str, err: str, lower: frozenset, upper: frozenset) -> list[str]:
    problems = exit_ok(code, err)
    lines = out.splitlines()
    want = [f"lower: {render(lower)}", f"upper: {render(upper)}"]
    if lines[1:] != want:
        problems.append(f"regions {lines[1:]}, expected {want}")
    return problems


def fit_alpha_output(code: int, out: str, err: str, alpha: Fraction) -> list[str]:
    problems = exit_ok(code, err)
    if out.strip() != f"alpha: {alpha}":
        problems.append(f"{out.strip()!r}, expected alpha {alpha}")
    return problems


def failure_search_output(code: int, out: str, err: str, budget: int, sharp_pairs) -> list[str]:
    """The search spends its budget, finds no convex-sum escape (none can
    exist), and its sharp witness is sharp(k0) with the recomputed pairs."""
    problems = exit_ok(code, err)
    try:
        doc = json.loads(out)
    except ValueError:
        return problems + ["output is not JSON"]
    if doc.get("trials") != budget:
        problems.append(f"trials {doc.get('trials')}, budget {budget}")
    if doc.get("oplus_witness") is not None:
        problems.append("convex-sum witness reported")
    if doc.get("otimes_counterexample") is not None:
        problems.append("product counterexample reported")
    sharp = doc.get("sharp_witness") or {}
    if sharp.get("function") != "sharp(k0)":
        problems.append(f"sharp witness function {sharp.get('function')!r}")
    got = [tuple(p) for p in sharp.get("pairs", [])]
    if got != list(sharp_pairs):
        problems.append(f"{len(got)} sharp-witness pairs, {len(sharp_pairs)} recomputed")
    return problems


def sharp_k0_r1_failures(model) -> list[tuple[str, str]]:
    """R1 failures of sharp(k0) on a power-set model, in element order."""
    out = []
    for a in model.subsets:
        for b in model.subsets:
            v = model.k0(model.lower(a), model.lower(b))
            if (v == ONE) != (a <= b):
                out.append((model.ids[a], model.ids[b]))
    return out


def derived_document(code: int, err: str, doc, model) -> list[str]:
    """`derive` output describes the model's space: the same carriers,
    granulation, parthood and approximations (ids may differ)."""
    problems = exit_ok(code, err)
    if not isinstance(doc, dict):
        return problems + ["derive wrote no document"]
    carrier = {e["id"]: frozenset(e.get("carrier", ())) for e in doc.get("elements", [])}
    if sorted(carrier.values(), key=render) != sorted(model.subsets, key=render):
        problems.append("element carriers differ from the power set")
        return problems
    if {carrier[g] for g in doc["granulation"]} != set(model.blocks):
        problems.append("granulation differs from the partition")
    parthood = {(carrier[a], carrier[b]) for a, b in doc["parthood"]}
    if parthood != {(a, b) for a in model.subsets for b in model.subsets if a <= b}:
        problems.append("parthood differs from inclusion")
    for key, approx in (("lower", model.lower), ("upper", model.upper)):
        got = {carrier[x]: carrier[y] for x, y in doc[key]}
        if got != {c: approx(c) for c in model.subsets}:
            problems.append(f"{key} approximations differ from the classical ones")
    return problems
