"""Command-line front end.

Each command returns its exit code (0 on success, 1 when an axiom, law or
class check fails), and the command group exits with it.  The group also
turns an error a command raises into one `error:` line on stderr and exit
2 for input problems (unreadable files, malformed JSON, unparsable terms,
bad parameters) or 1 for semantic ones (undefined measures, missing
carriers).  Every command takes --format and --out, derive --out only.
Reports are deterministic: identical inputs and seed produce identical
bytes.  Space-file arguments are tried as given, then relative to
RIF_FORGE_FIXTURES, then against the packaged fixtures.  A command imports
the package modules it runs in its own body, so start-up loads only those.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import TYPE_CHECKING, Iterable, Optional

import click

from .errors import InputError, ParameterError, SemanticError
from .space import (
    AxiomReport,
    GranularSpace,
    _json_text,
    _json_value,
    check_admissibility,
    check_work,
    classify_flavor,
    find_element,
    load_space,
    render_carrier,
    space_to_dict,
    validate_space,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .inclusion import InclusionFunction
    from .terms import AlgebraTerm

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
    from importlib import resources
    packaged = resources.files("rif_forge") / "fixtures" / candidate.name
    if packaged.is_file():
        return pathlib.Path(str(packaged))
    raise InputError(f"space file not found: {path}")


def _load(path: str) -> GranularSpace:
    resolved = _resolve_space_path(path)
    try:
        return load_space(resolved)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"malformed JSON in {resolved}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read space file {resolved}: {exc}") from exc


def _emit(fmt: str, out: Optional[str], payload: dict, lines: list[str]) -> None:
    if fmt == "json":
        text = _json_text(payload) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    if out:
        try:
            pathlib.Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
    else:
        click.echo(text, nl=False)


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


# The most decimal digits a rational option may spell, and the largest
# magnitude of its exponent: a value read then has at most 2,000 digits
# above and below the line, well inside the 4,300 that Python prints.
_RATIONAL_DIGITS = 1000


def _rat(text: str) -> Fraction:
    """The rational text spells, as Fraction reads it; ParameterError when
    it spells none, or passes _RATIONAL_DIGITS before it is converted."""
    from fractions import Fraction
    exponent = "".join(filter(str.isdecimal, text.lower().partition("e")[2]))
    if sum(map(str.isdecimal, text)) > _RATIONAL_DIGITS or int(exponent or 0) > _RATIONAL_DIGITS:
        raise ParameterError(f"a rational may have at most {_RATIONAL_DIGITS:,} digits and an exponent "
                             f"of at most {_RATIONAL_DIGITS:,}: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"not a rational: {text!r}") from exc


def _rat_text(x: Fraction) -> str:
    """x as str(x) writes it, p or p/q, with no limit on its digits: str of
    an int refuses past sys.get_int_max_str_digits, str of a Decimal does not."""
    from decimal import Decimal
    p, q = x.as_integer_ratio()
    return str(Decimal(p)) if q == 1 else f"{Decimal(p)}/{Decimal(q)}"


class _NumberText(str):
    """A JSON number literal with a fraction or an exponent, as it is
    written; not a plain str, so it is never read as an element id."""

    __repr__ = str.__str__


def _read_json(path: str, what: str, parse_float=None):
    """The JSON value in the file at path, which the error messages call
    what.  With parse_float, each number literal with a fraction or an
    exponent is read by it, as json.loads reads it, in place of a float."""
    try:
        return _json_value(pathlib.Path(path).read_text(encoding="utf-8"), parse_float)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def _evaluate(s: GranularSpace, texts: Iterable[str], env_path: Optional[str] = None,
              functions: int = 0, more: Iterable[AlgebraTerm] = ()) -> list[InclusionFunction]:
    """The functions of the terms texts, then of the parsed terms more, on s.

    k0, k1 and k2 are bound on a set-extensional space, each built the
    first time a term reads it; then each name of the env_path file, in
    file order, to its term's value.  Every term is parsed, and check_work
    asked over all their nodes and functions, before any is evaluated.
    """
    from . import terms
    named = []
    if env_path:
        raw = _read_json(env_path, "environment file")
        if not (isinstance(raw, dict) and all(isinstance(text, str) for text in raw.values())):
            raise InputError("environment file must map names to term strings")
        named = [(name, terms.parse_term(text)) for name, text in raw.items()]
    parsed = [terms.parse_term(text) for text in texts] + list(more)
    nodes = sum(terms.term_nodes(term) for term in [term for _, term in named] + parsed)
    check_work(len(s.elements), functions, nodes)
    env = terms.default_env(s) if s.is_set_extensional else {}
    for name, term in named:
        env[name] = terms.eval_term(term, env, s)
    return [terms.eval_term(term, env, s) for term in parsed]


class _CommandGroup(click.Group):
    """Exits with the code its command returns; an InputError exits 2 and
    a SemanticError 1, each with one `error:` line on stderr."""

    def invoke(self, ctx: click.Context):
        try:
            code = super().invoke(ctx)
        except (InputError, SemanticError) as exc:
            click.echo(f"error: {exc}", err=True)
            code = EXIT_INPUT if isinstance(exc, InputError) else EXIT_SEMANTIC
        ctx.exit(code)


_out_option = click.option("--out", type=click.Path(dir_okay=False), default=None)
_relation_option = click.option("--relation", type=click.Choice(["parthood", "order"]),
                                default="parthood", show_default=True)
_env_option = click.option("--env", "env_path", type=click.Path(exists=False), default=None,
                           help="JSON file mapping names to term strings.")


def _reported(command):
    """Add --format, then --out, after the options command declares."""
    return click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table",
                        show_default=True)(_out_option(command))


@click.group(cls=_CommandGroup)
def main():
    """Granular operator spaces, inclusion functions, and their algebra."""


@main.command()
@click.argument("space_file")
@_reported
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
@_reported
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


@main.command(name="classify")
@click.argument("space_file")
@click.argument("term")
@_relation_option
@_env_option
@_reported
def classify_cmd(space_file, term, relation, env_path, fmt, out):
    """Name the most specific class of a function and report every axiom."""
    from .inclusion import RIF_AXIOM_ORDER, _verdict, check_rif_axiom, class_from_axioms
    s = _load(space_file)
    [f] = _evaluate(s, [term], env_path)
    # the table prints no witnesses, so it reads verdicts and skip counts only
    reports = [check_rif_axiom(f, ax, relation) for ax in RIF_AXIOM_ORDER] if fmt == "json" else []
    verdicts = [(r.axiom, r.holds, r.skipped) for r in reports] or [
        (ax, *_verdict(f, ax, relation)) for ax in RIF_AXIOM_ORDER]
    named = class_from_axioms({ax: holds for ax, holds, _ in verdicts})
    payload = {"term": term, "class": named, "axioms": _axiom_rows(reports)}
    lines = [f"class: {named}"]
    for ax, holds, skipped in verdicts:
        note = f" (skipped {skipped})" if skipped else ""
        lines.append(f"{ax}: {'pass' if holds else 'fail'}{note}")
    _emit(fmt, out, payload, lines)
    return 0 if named != "none" else EXIT_SEMANTIC


@main.command(name="check-laws")
@click.argument("space_file")
@click.argument("term_list", nargs=-1)
@_env_option
@click.option("--alpha", "alphas", multiple=True, help="Weights to test (repeatable).")
@click.option("--random-terms", type=int, default=0, show_default=True,
              help="Generate this many extra random wqRIF terms.")
@click.option("--seed", type=int, default=0, show_default=True)
@_reported
def check_laws_cmd(space_file, term_list, env_path, alphas, random_terms, seed, fmt, out):
    """Verify the eleven algebra laws over the given functions."""
    from random import Random

    from . import algebra, sampling
    if random_terms < 0:
        raise ParameterError(f"--random-terms must not be negative, got {random_terms}")
    s = _load(space_file)
    texts = list(term_list) or ["k0", "k1", "k2"]
    functions = len(texts) + random_terms
    # asked before the random terms are drawn, and by _evaluate again with
    # every term's nodes before any is evaluated
    check_work(len(s.elements), functions)
    rng = Random(seed)
    drawn = [sampling.random_wqrif_term(rng) for _ in range(random_terms)]
    fns = _evaluate(s, texts, env_path, functions, drawn)
    weights = [_rat(a) for a in alphas or ("0", "1/3", "1/2", "1")]
    reports = algebra.check_laws(s, fns, weights)
    passed = all(r.holds for r in reports)
    payload = {
        "functions": [f.label for f in fns],
        "alphas": [_rat_text(a) for a in weights],
        "pass": passed,
        "laws": [
            {"law": r.law, "holds": r.holds, "witnesses": [list(w) for w in r.witnesses]}
            for r in reports
        ],
    }
    lines = [f"functions: {', '.join(f.label for f in fns)}"]
    lines += [f"alphas: {', '.join(map(_rat_text, weights))}"]
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
@_relation_option
@_reported
def prif_verify(space_file, term, trials, seed, relation, fmt, out):
    """Check the implication battery, on one function or random ones."""
    from random import Random

    from .inclusion import random_kappa, verify_prif
    if trials < 1:
        raise ParameterError(f"--trials must be positive, got {trials}")
    s = _load(space_file)
    if term is not None:
        trials, batteries = 1, [(term, verify_prif(_evaluate(s, [term])[0], relation))]
    else:
        # one function a trial, asked before any is drawn; each battery is tallied, then dropped
        check_work(len(s.elements), trials)
        rng = Random(seed)
        batteries = ((f"trial-{i}", verify_prif(random_kappa(s, rng), relation)) for i in range(trials))
    violations, applicable = [], {}
    for label, verdicts in batteries:
        for v in verdicts:
            applicable[v.name] = applicable.get(v.name, 0) + v.applicable
            if v.applicable and v.violated:
                violations.append({"trial": label, "name": v.name, "axioms": dict(v.axioms)})
    payload = {
        "trials": trials,
        "applicable": applicable,
        "violations": violations,
        "pass": not violations,
    }
    lines = [f"trials: {trials}"]
    for name in applicable:
        bad = sum(1 for v in violations if v["name"] == name)
        lines.append(f"{name}: applicable {applicable[name]}, violated {bad}")
    lines.append("pass" if not violations else "FAIL")
    _emit(fmt, out, payload, lines)
    return 0 if not violations else EXIT_SEMANTIC


@main.command(name="rif-failure-search")
@click.argument("space_file")
@click.option("--budget", type=int, default=200, show_default=True,
              help="Reported as the convex-sum trials; no trial runs, closure is proved.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Has no effect: the search draws nothing at random.")
@_reported
def rif_failure_search_cmd(space_file, budget, seed, fmt, out):
    """Hunt for operations that push RIFs out of the RIF class."""
    from . import algebra
    s = _load(space_file)
    res = algebra.rif_failure_search(s, budget)
    payload = {"rif_pool": list(res.rif_pool), "trials": res.trials}
    lines = [f"pool: {', '.join(res.rif_pool)}", f"convex-sum trials: {res.trials}"]
    for key, name, witness in (("oplus_witness", "convex-sum", res.oplus_witness),
                               ("sharp_witness", "sharp", res.sharp_witness)):
        if witness is None:
            payload[key] = None
            lines.append(f"{name} witness: none found")
        else:
            payload[key] = {"function": witness[0], "pairs": [list(w) for w in witness[1]]}
            lines.append(f"{name} witness: {witness[0]}")
            lines += _tuple_lines("pair", witness[1][:5])
    payload.update(otimes_checked=res.otimes_checked, otimes_counterexample=res.otimes_counterexample)
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
@_reported
def vprs(space_file, target, term, alpha, beta, fixed, fmt, out):
    """Variable-precision lower/upper regions of one element."""
    from . import measures
    s = _load(space_file)
    [f] = _evaluate(s, [term])
    params = measures.VprsParams(_rat(alpha), _rat(beta))
    x = find_element(s, target)
    op = measures.fixed_vprs if fixed else measures.vprs
    lower, upper = op(s, f, params, x)
    payload = {
        "element": s.render(x),
        "function": term,
        "alpha": _rat_text(params.alpha),
        "beta": _rat_text(params.beta),
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
@_reported
def fit_alpha_cmd(space_file, f_term, h_term, samples_file, fmt, out):
    """Least-squares blend weight from a JSON sample file.

    The sample file holds a list of [x, y, value] triples; x and y may be
    element ids or brace-rendered carriers.
    """
    from . import algebra
    s = _load(space_file)
    f, h = _evaluate(s, [f_term, h_term])
    # a target reaches _rat as the text it is written in: a float would
    # round 0.30000000000000001 to 0.3 and 1e-400 to 0 before _rat's limits
    raw = _read_json(samples_file, "samples file", parse_float=_NumberText)
    if not isinstance(raw, list):
        raise InputError("samples file must hold a list of [x, y, value] triples")
    samples = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 3 and all(type(e) is str for e in entry[:2])):
            raise InputError(f"bad sample entry: {entry!r}")
        x, y, value = entry
        samples.append(((find_element(s, x), find_element(s, y)), _rat(str(value))))
    best = algebra.fit_alpha(f, h, samples)
    payload = {"f": f_term, "h": h_term, "samples": len(samples), "alpha": _rat_text(best)}
    _emit(fmt, out, payload, [f"alpha: {payload['alpha']}"])
    return 0


@main.command()
@click.argument("csv_file", type=click.Path(exists=False))
@click.option("--attrs", default=None,
              help="Comma-separated attribute names; all by default.")
@click.option("--value-delimiter", default="|", show_default=True)
@_out_option
def derive(csv_file, attrs, value_delimiter, out):
    """Build a set-based space from an information table CSV.

    Rows are objects; cells hold delimiter-separated value tokens.  The
    indiscernibility partition over the chosen attributes becomes the
    granulation.  Emits the space as JSON.
    """
    from . import table
    try:
        with open(csv_file, newline="", encoding="utf-8") as handle:
            info = table.read_table_csv(handle, value_delimiter=value_delimiter)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read table {csv_file}: {exc}") from exc
    chosen = [a.strip() for a in attrs.split(",")] if attrs else list(info.attributes)
    s = table.table_to_set_hgos(info, chosen)
    _emit("json", out, space_to_dict(s), [])
    return 0


if __name__ == "__main__":
    main()
