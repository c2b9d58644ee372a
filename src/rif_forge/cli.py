"""Command-line front end.

Exit codes: 0 on success, 1 when a semantic check fails (axiom, law or
classification failures, undefined measures), 2 on input problems
(unreadable files, malformed JSON, unparsable terms, bad parameters).
Reports are deterministic: identical inputs and seed produce identical
bytes.  Space-file arguments are tried as given, then relative to
RIF_FORGE_FIXTURES, then against the packaged fixtures.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import sys
from fractions import Fraction
from importlib import resources
from random import Random
from typing import Callable, Iterable, Optional

import click

from . import algebra, measures, sampling, table, terms
from .errors import InputError, ParameterError, SemanticError
from .inclusion import (
    RIF_AXIOM_ORDER,
    InclusionFunction,
    check_rif_axiom,
    class_from_axioms,
    random_kappa,
    verify_prif,
)
from .space import (
    AxiomReport,
    GranularSpace,
    check_admissibility,
    classify_flavor,
    find_element,
    load_space,
    render_carrier,
    space_to_dict,
    validate_space,
)

EXIT_SEMANTIC = 1
EXIT_INPUT = 2


def _resolve_space_path(path: str) -> pathlib.Path:
    candidate = pathlib.Path(path)
    if candidate.exists():
        return candidate
    override = os.environ.get("RIF_FORGE_FIXTURES")
    if override:
        alt = pathlib.Path(override) / candidate.name
        if alt.exists():
            return alt
    packaged = resources.files("rif_forge") / "fixtures" / candidate.name
    if packaged.is_file():
        return pathlib.Path(str(packaged))
    raise InputError(f"space file not found: {path}")


def _load(path: str) -> GranularSpace:
    resolved = _resolve_space_path(path)
    try:
        return load_space(resolved)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {resolved}: {exc}") from exc


def _emit(fmt: str, out: Optional[str], payload: dict, lines: list[str]) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    if out:
        pathlib.Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


def _exits(callback: Callable[..., int]) -> Callable[..., None]:
    """Make a command callback that returns its exit code exit with it.

    Input problems exit 2 and semantic failures exit 1, each with one
    `error:` line on stderr.
    """

    @functools.wraps(callback)
    def run(*args, **kwargs) -> None:
        try:
            code = callback(*args, **kwargs)
        except InputError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INPUT)
        except SemanticError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_SEMANTIC)
        sys.exit(code)

    return run


def _axiom_rows(reports: Iterable[AxiomReport]) -> list[dict]:
    return [
        {
            "axiom": r.axiom,
            "holds": r.holds,
            "skipped": r.skipped,
            "witnesses": [list(w) for w in r.witnesses],
        }
        for r in reports
    ]


def _tuple_lines(label: str, tuples: Iterable[tuple[str, ...]]) -> list[str]:
    return [f"  {label}: (" + ", ".join(w) + ")" for w in tuples]


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"not a rational: {text!r}") from exc


def _function_env(s: GranularSpace, env_path: Optional[str]) -> dict[str, InclusionFunction]:
    bound = terms.default_env(s) if s.is_set_extensional else {}
    if env_path:
        try:
            raw = json.loads(pathlib.Path(env_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read environment file {env_path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise InputError("environment file must map names to term strings")
        for name, text in raw.items():
            bound[name] = terms.eval_term(terms.parse_term(text), bound, s)
    return bound


def _eval(s: GranularSpace, text: str, env_path: Optional[str] = None) -> InclusionFunction:
    env = _function_env(s, env_path)
    return terms.eval_term(terms.parse_term(text), env, s)


format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "table"]), default="table", show_default=True
)
out_option = click.option("--out", type=click.Path(dir_okay=False), default=None)


@click.group()
def main():
    """Granular operator spaces, inclusion functions, and their algebra."""


@main.command()
@click.argument("space_file")
@format_option
@out_option
@_exits
def validate(space_file, fmt, out):
    """Check every space axiom, admissibility, and the flavor."""
    s = _load(space_file)
    reports = validate_space(s) + check_admissibility(s)
    flavor = classify_flavor(s)
    passed = all(r.holds for r in reports)
    payload = {"flavor": flavor, "pass": passed, "axioms": _axiom_rows(reports)}
    lines = [f"flavor: {flavor}"]
    for r in reports:
        note = f" (skipped {r.skipped})" if r.skipped else ""
        lines.append(f"{r.axiom}: {'pass' if r.holds else 'FAIL'}{note}")
        lines += _tuple_lines("witness", r.witnesses)
    _emit(fmt, out, payload, lines)
    return 0 if passed else EXIT_SEMANTIC


@main.command()
@click.argument("space_file")
@format_option
@out_option
@_exits
def approximate(space_file, fmt, out):
    """Emit the lower/upper approximation of every element."""
    s = _load(space_file)

    def size(x: str) -> int:
        return len(s.carriers.get(x, ()))

    # empty rough objects are noise in an approximation table; keep
    # them only when the whole space is empty-carried
    shown = [x for x in s.elements if size(x)] or list(s.elements)
    rows = []
    for x in shown:
        rows.append(
            (
                size(x),
                s.render(x),
                s.render(s.lower_of(x)),
                s.render(s.upper_of(x)),
            )
        )
    rows.sort(key=lambda row: (row[0], row[1]))
    payload = {"rows": [{"element": x, "lower": lo, "upper": up} for _, x, lo, up in rows]}
    lines = [f"{x} | {lo} | {up}" for _, x, lo, up in rows]
    _emit(fmt, out, payload, lines)
    return 0


@main.command()
@click.argument("space_file")
@click.argument("term")
@click.option("--relation", type=click.Choice(["parthood", "order"]), default="parthood",
              show_default=True)
@click.option("--env", "env_path", type=click.Path(exists=False), default=None,
              help="JSON file mapping names to term strings.")
@format_option
@out_option
@_exits
def classify_cmd(space_file, term, relation, env_path, fmt, out):
    """Name the most specific class of a function and report every axiom."""
    s = _load(space_file)
    f = _eval(s, term, env_path)
    reports = [check_rif_axiom(f, ax, relation) for ax in RIF_AXIOM_ORDER]
    named = class_from_axioms({r.axiom: r.holds for r in reports})
    payload = {"term": term, "class": named, "axioms": _axiom_rows(reports)}
    lines = [f"class: {named}"]
    for r in reports:
        note = f" (skipped {r.skipped})" if r.skipped else ""
        lines.append(f"{r.axiom}: {'pass' if r.holds else 'fail'}{note}")
    _emit(fmt, out, payload, lines)
    return 0 if named != "none" else EXIT_SEMANTIC


main.add_command(classify_cmd, name="classify")


@main.command(name="check-laws")
@click.argument("space_file")
@click.argument("term_list", nargs=-1)
@click.option("--env", "env_path", type=click.Path(exists=False), default=None)
@click.option("--alpha", "alphas", multiple=True, help="Weights to test (repeatable).")
@click.option("--random-terms", type=int, default=0, show_default=True,
              help="Generate this many extra random wqRIF terms.")
@click.option("--seed", type=int, default=0, show_default=True)
@format_option
@out_option
@_exits
def check_laws_cmd(space_file, term_list, env_path, alphas, random_terms, seed, fmt, out):
    """Verify the eleven algebra laws over the given functions."""
    s = _load(space_file)
    texts = list(term_list) or ["k0", "k1", "k2"]
    env = _function_env(s, env_path)
    fns = [terms.eval_term(terms.parse_term(t), env, s) for t in texts]
    rng = Random(seed)
    for _ in range(random_terms):
        fns.append(terms.eval_term(sampling.random_wqrif_term(rng), env, s))
    weights = [_rat(a) for a in alphas] or [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    reports = algebra.check_laws(s, fns, weights)
    passed = all(r.holds for r in reports)
    payload = {
        "functions": [f.label for f in fns],
        "alphas": [str(a) for a in weights],
        "pass": passed,
        "laws": [
            {"law": r.law, "holds": r.holds, "witnesses": [list(w) for w in r.witnesses]}
            for r in reports
        ],
    }
    lines = [f"functions: {', '.join(f.label for f in fns)}"]
    lines += [f"alphas: {', '.join(str(a) for a in weights)}"]
    for r in reports:
        lines.append(f"{r.law}: {'pass' if r.holds else 'FAIL'}")
        lines += _tuple_lines("witness", r.witnesses[:5])
    _emit(fmt, out, payload, lines)
    return 0 if passed else EXIT_SEMANTIC


@main.command(name="prif-verify")
@click.argument("space_file")
@click.option("--function", "term", default=None, help="Term to check; omit for random trials.")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--relation", type=click.Choice(["parthood", "order"]), default="parthood",
              show_default=True)
@format_option
@out_option
@_exits
def prif_verify(space_file, term, trials, seed, relation, fmt, out):
    """Check the implication battery, on one function or random ones."""
    s = _load(space_file)
    if term is not None:
        batteries = [(term, verify_prif(_eval(s, term), relation))]
    else:
        rng = Random(seed)
        batteries = []
        for i in range(trials):
            f = random_kappa(s, rng)
            batteries.append((f"trial-{i}", verify_prif(f, relation)))
    violations = []
    names = [v.name for v in batteries[0][1]]
    applicable = {name: 0 for name in names}
    for label, verdicts in batteries:
        for v in verdicts:
            if v.applicable:
                applicable[v.name] += 1
            if v.applicable and v.violated:
                violations.append({"trial": label, "name": v.name,
                                   "axioms": dict(v.axioms)})
    payload = {
        "trials": len(batteries),
        "applicable": applicable,
        "violations": violations,
        "pass": not violations,
    }
    lines = [f"trials: {len(batteries)}"]
    for name in names:
        bad = sum(1 for v in violations if v["name"] == name)
        lines.append(f"{name}: applicable {applicable[name]}, violated {bad}")
    lines.append("pass" if not violations else "FAIL")
    _emit(fmt, out, payload, lines)
    return 0 if not violations else EXIT_SEMANTIC


@main.command(name="rif-failure-search")
@click.argument("space_file")
@click.option("--budget", type=int, default=200, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@format_option
@out_option
@_exits
def rif_failure_search_cmd(space_file, budget, seed, fmt, out):
    """Hunt for operations that push RIFs out of the RIF class."""
    s = _load(space_file)
    res = algebra.rif_failure_search(s, budget, seed)
    payload = {
        "rif_pool": list(res.rif_pool),
        "trials": res.trials,
        "oplus_witness": None
        if res.oplus_witness is None
        else {"function": res.oplus_witness[0],
              "pairs": [list(w) for w in res.oplus_witness[1]]},
        "sharp_witness": None
        if res.sharp_witness is None
        else {"function": res.sharp_witness[0],
              "pairs": [list(w) for w in res.sharp_witness[1]]},
        "otimes_checked": res.otimes_checked,
        "otimes_counterexample": res.otimes_counterexample,
    }
    lines = [
        f"pool: {', '.join(res.rif_pool)}",
        f"convex-sum trials: {res.trials}",
    ]
    if res.oplus_witness:
        lines.append(f"convex-sum witness: {res.oplus_witness[0]}")
        lines += _tuple_lines("pair", res.oplus_witness[1][:5])
    else:
        lines.append("convex-sum witness: none found")
    if res.sharp_witness:
        lines.append(f"sharp witness: {res.sharp_witness[0]}")
        lines += _tuple_lines("pair", res.sharp_witness[1][:5])
    else:
        lines.append("sharp witness: none found")
    lines.append(
        f"products rechecked: {res.otimes_checked}, "
        f"counterexample: {res.otimes_counterexample or 'none'}"
    )
    _emit(fmt, out, payload, lines)
    return 0


@main.command()
@click.argument("space_file")
@click.argument("target")
@click.option("--function", "term", default="k0", show_default=True)
@click.option("--alpha", required=True)
@click.option("--beta", required=True)
@click.option("--fixed", is_flag=True, default=False,
              help="Threshold against the lower approximation of the target.")
@format_option
@out_option
@_exits
def vprs(space_file, target, term, alpha, beta, fixed, fmt, out):
    """Variable-precision lower/upper regions of one element."""
    s = _load(space_file)
    f = _eval(s, term)
    params = measures.VprsParams(_rat(alpha), _rat(beta))
    x = find_element(s, target)
    op = measures.fixed_vprs if fixed else measures.vprs
    lower, upper = op(s, f, params, x)
    payload = {
        "element": s.render(x),
        "function": term,
        "alpha": str(params.alpha),
        "beta": str(params.beta),
        "fixed": fixed,
        "lower": render_carrier(lower),
        "upper": render_carrier(upper),
    }
    lines = [
        f"element: {s.render(x)}",
        f"lower: {render_carrier(lower)}",
        f"upper: {render_carrier(upper)}",
    ]
    _emit(fmt, out, payload, lines)
    return 0


@main.command(name="fit-alpha")
@click.argument("space_file")
@click.argument("f_term")
@click.argument("h_term")
@click.argument("samples_file", type=click.Path(exists=False))
@format_option
@out_option
@_exits
def fit_alpha_cmd(space_file, f_term, h_term, samples_file, fmt, out):
    """Least-squares blend weight from a JSON sample file.

    The sample file holds a list of [x, y, value] triples; x and y may be
    element ids or brace-rendered carriers.
    """
    s = _load(space_file)
    f = _eval(s, f_term)
    h = _eval(s, h_term)
    try:
        raw = json.loads(pathlib.Path(samples_file).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read samples file {samples_file}: {exc}") from exc
    if not isinstance(raw, list):
        raise InputError("samples file must hold a list of [x, y, value] triples")
    samples = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise InputError(f"bad sample entry: {entry!r}")
        x, y, value = entry
        samples.append(((find_element(s, x), find_element(s, y)), _rat(str(value))))
    best = algebra.fit_alpha(f, h, samples)
    payload = {"f": f_term, "h": h_term, "samples": len(samples), "alpha": str(best)}
    _emit(fmt, out, payload, [f"alpha: {best}"])
    return 0


@main.command()
@click.argument("csv_file", type=click.Path(exists=False))
@click.option("--attrs", default=None,
              help="Comma-separated attribute names; all by default.")
@click.option("--value-delimiter", default="|", show_default=True)
@out_option
@_exits
def derive(csv_file, attrs, value_delimiter, out):
    """Build a set-based space from an information table CSV.

    Rows are objects; cells hold delimiter-separated value tokens.  The
    indiscernibility partition over the chosen attributes becomes the
    granulation.  Emits the space as JSON.
    """
    try:
        with open(csv_file, newline="", encoding="utf-8") as handle:
            info = table.read_table_csv(handle, value_delimiter=value_delimiter)
    except OSError as exc:
        raise InputError(f"cannot read table {csv_file}: {exc}") from exc
    chosen = [a.strip() for a in attrs.split(",")] if attrs else list(info.attributes)
    s = table.table_to_set_hgos(info, chosen)
    _emit("json", out, space_to_dict(s), [])
    return 0


if __name__ == "__main__":
    main()
