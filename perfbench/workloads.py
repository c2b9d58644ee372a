"""The three workloads: inputs made from a seed, operations and their checks.

Each workload's setup() builds everything the operations reuse, and
round(r) returns the operations of round r.  Every round runs the same
kinds of operation in the same order, so a run of whole rounds always
attempts the same mix.  The library workloads draw round r's inputs from a
seed made of the run's seed and r, inside round(r): the same round gets the
same inputs every time it is built, and only one round's inputs are alive
at a time.  An operation's call() is the timed part; check() runs after it,
untimed and untraced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Any, Callable, Optional

import checks
from reference import (
    ONE,
    DocumentModel,
    PowersetModel,
    interior_rational,
    interior_thresholds,
    random_partition,
    random_term,
    render,
    render_term,
)

FIXTURE_NAME = "abstract_example.json"


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    # A fault of the program that makes this operation fail every time;
    # such a failure is counted but does not make the run incorrect.
    fault: Optional[str] = None


def objects(n: int) -> list[str]:
    return [f"o{i}" for i in range(1, n + 1)]


def sample_pairs(model: PowersetModel, rng: Random, count: int):
    return [(rng.choice(model.subsets), rng.choice(model.subsets)) for _ in range(count)]


# -- laws-wqrif --------------------------------------------------------------


class LawsWqrif:
    """One operation is one acceptance-style trial: build a power-set space
    over 2-4 objects, parse and evaluate three wqRIF terms, check the eleven
    laws with two weights.  A round is one trial per object count."""

    SIZES = (2, 3, 4)
    TERMS = 3
    WEIGHTS = 2
    PAIRS_CHECKED = 8

    def setup(self, lib, rng: Random, workdir: Path, fixture: Path):
        self.lib = lib
        self.seed = rng.randrange(2**63)

    def trials(self, r: int) -> dict:
        """Round r's trial inputs, one per object count."""
        rng = Random(f"{self.seed}/{r}")
        return {n: self._trial(n, rng) for n in self.SIZES}

    def _trial(self, n: int, rng: Random) -> dict:
        objs = objects(n)
        blocks = random_partition(objs, rng)
        model = PowersetModel(objs, blocks)
        trees = [random_term(rng) for _ in range(self.TERMS)]
        return {
            "objects": objs,
            "blocks": [list(b) for b in blocks],
            "model": model,
            "trees": trees,
            "texts": [render_term(t) for t in trees],
            "weights": [interior_rational(rng) for _ in range(self.WEIGHTS)],
            "pairs": [sample_pairs(model, rng, self.PAIRS_CHECKED) for _ in trees],
        }

    def round(self, r: int) -> list[Op]:
        return [self._op(n, trial) for n, trial in self.trials(r).items()]

    def _op(self, n: int, trial: dict) -> Op:
        lib = self.lib

        def call():
            s = lib.space.powerset_space(trial["objects"], trial["blocks"])
            env = lib.terms.default_env(s)
            fns = [lib.terms.eval_term(lib.terms.parse_term(t), env, s) for t in trial["texts"]]
            return fns, lib.algebra.check_laws(s, fns, trial["weights"])

        def check(out):
            fns, reports = out
            problems = checks.law_reports(reports)
            for f, tree, pairs in zip(fns, trial["trees"], trial["pairs"]):
                problems += checks.term_values(trial["model"], tree, f.values, pairs)
            return problems

        return Op(f"trial-{n}", call, check)


# -- prif-kappa --------------------------------------------------------------


class PrifKappa:
    """One operation builds a random rational kappa as an InclusionFunction
    and runs verify_prif on it.  The spaces (the GGS fixture and power sets
    of 16, 32 and 64 elements) are built in set-up.  A round runs
    fixture, 16, 32, 32, 32, 64, 64: as many operations below the 32-element
    ones as above, so the median is the middle 32-element one, and the
    64-element ones carry most of the time."""

    SLOTS = ("fixture", 4, 5, 5, 5, 6, 6)
    TRIPLES_SAMPLED = 400

    def setup(self, lib, rng: Random, workdir: Path, fixture: Path):
        self.lib = lib
        doc = DocumentModel(json.loads(fixture.read_text(encoding="utf-8")))
        self.spaces = {"fixture": (lib.space.load_space(fixture), doc.elements, doc.part, False)}
        for n in sorted({k for k in self.SLOTS if k != "fixture"}):
            objs = objects(n)
            blocks = random_partition(objs, rng)
            model = PowersetModel(objs, blocks)
            s = lib.space.powerset_space(objs, [list(b) for b in blocks])
            if set(s.elements) != set(model.by_id):
                raise RuntimeError("power-set element ids differ from their carrier renderings")
            self.spaces[n] = (s, s.elements, model.part, True)
        self.seed = rng.randrange(2**63)

    def tables(self, r: int) -> list[dict]:
        """Round r's kappa tables, one per slot."""
        rng = Random(f"{self.seed}/{r}")
        return [self._kappa(self.spaces[slot][1], rng) for slot in self.SLOTS]

    @staticmethod
    def _kappa(elements, rng: Random) -> dict:
        """Small denominators make exact 0 and 1 common; half the tables
        get a unit diagonal so U1-sensitive implications are exercised."""
        values = {}
        for a in elements:
            for b in elements:
                den = rng.randint(1, 12)
                values[(a, b)] = Fraction(rng.randint(0, den), den)
        if rng.random() < 0.5:
            for a in elements:
                values[(a, a)] = ONE
        return values

    def round(self, r: int) -> list[Op]:
        return [
            self._op(slot, values, Random(f"{self.seed}/{r}/check/{i}"))
            for i, (slot, values) in enumerate(zip(self.SLOTS, self.tables(r)))
        ]

    def _op(self, slot, values: dict, rng: Random) -> Op:
        inclusion = self.lib.inclusion
        s, elements, part, on_sets = self.spaces[slot]

        def call():
            f = inclusion.InclusionFunction(s, values, "kappa")
            return f, inclusion.verify_prif(f)

        def check(out):
            f, verdicts = out
            problems = checks.prif_verdicts(verdicts, on_sets)
            reports = {ax: inclusion.check_rif_axiom(f, ax) for ax in ("U1", "R0", "R1", "IR0", "R2", "R3")}
            return problems + checks.prif_axioms(
                elements, values, part, reports, verdicts, rng, self.TRIPLES_SAMPLED
            )

        return Op(f"kappa-{slot}", call, check)


# -- cli-session -------------------------------------------------------------


class CliSession:
    """One operation is one rif-forge command, run in-process through the
    click entry point on files written during set-up.  A round is one
    session of 21 commands."""

    OBJECTS = 6
    SEARCH_OBJECTS = 5
    SEARCH_BUDGET = 20
    PRIF_TRIALS = 1
    SAMPLES = 24
    DEPTH = 1200

    def setup(self, lib, rng: Random, workdir: Path, fixture: Path):
        self.lib = lib
        self.runner = lib.CliRunner(env={"RIF_FORGE_FIXTURES": None})
        self.fixture_rows = DocumentModel(json.loads(fixture.read_text(encoding="utf-8"))).approximation_rows()
        objs = objects(self.OBJECTS)
        self.model = PowersetModel(objs, random_partition(objs, rng, min_blocks=2, need_pair=True))
        search_objs = objects(self.SEARCH_OBJECTS)
        self.search_model = PowersetModel(
            search_objs, random_partition(search_objs, rng, min_blocks=2, need_pair=True)
        )
        self.sharp_pairs = checks.sharp_k0_r1_failures(self.search_model)

        self.workdir = workdir
        self.paths = {name: str(workdir / name) for name in (
            "table.csv", "space64.json", "space32.json", "samples.json", "bad_join.json")}
        self._write_table(rng)
        self._write_json("space64.json", self.model.document())
        self._write_json("space32.json", self.search_model.document())

        self.ramp = interior_thresholds(rng)
        self.law_weight = interior_rational(rng)
        self.prif_seed = rng.randrange(10**6)
        self.search_seed = rng.randrange(10**6)
        # a rough target (lower != upper), so swapped regions cannot pass;
        # one exists because some block has two objects
        rough = [c for c in self.model.subsets if self.model.lower(c) != self.model.upper(c)]
        self.target = rng.choice(rough)
        # every granule has at most 5 objects, so any alpha below 1/5 keeps
        # every touching granule and any beta of at least 4/5 keeps only
        # the granules inside: the regions are the classical approximations
        self.vprs_alpha = rng.choice((Fraction(1, 12), Fraction(1, 10), Fraction(1, 8), Fraction(1, 7)))
        self.vprs_beta = rng.choice((Fraction(5, 6), Fraction(7, 8), Fraction(9, 10), Fraction(11, 12)))
        self.fit_weight = self._write_samples(rng)

        bad = json.loads(fixture.read_text(encoding="utf-8"))
        bad["join"][0][0] = [bad["join"][0][0]]
        self._write_json("bad_join.json", bad)
        self.deep_term = "sharp(" * self.DEPTH + "k0" + ")" * self.DEPTH

    def _write_json(self, name: str, doc) -> None:
        with open(self.paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")

    def _write_table(self, rng: Random) -> None:
        """An information table whose indiscernibility partition over all
        attributes is the model's partition: attribute values are drawn
        per block, and `colour` differs between blocks."""
        colours = rng.sample(("red", "blue", "green", "gold", "grey", "teal"), len(self.model.blocks))
        lines = ["object,colour,shape,tags"]
        per_block = []
        for colour in colours:
            tags = "|".join(sorted(rng.sample(("t1", "t2", "t3", "t4"), rng.randint(0, 3))))
            per_block.append((colour, rng.choice(("round", "square")), tags))
        for obj in self.model.objects:
            i = next(k for k, b in enumerate(self.model.blocks) if obj in b)
            lines.append(",".join((obj,) + per_block[i]))
        Path(self.paths["table.csv"]).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def _write_samples(self, rng: Random) -> Fraction:
        """Samples of alpha*k0 + (1-alpha)*k2 at pairs where k0 and k2
        differ, so the least-squares weight is exactly alpha."""
        den = rng.randint(2, 12)
        alpha = Fraction(rng.randint(1, den - 1), den)
        m = self.model
        pairs = [(a, b) for a in m.subsets for b in m.subsets if m.k0(a, b) != m.k2(a, b)]
        samples = []
        for a, b in rng.sample(pairs, self.SAMPLES):
            value = alpha * m.k0(a, b) + (1 - alpha) * m.k2(a, b)
            samples.append([render(a), render(b), str(value)])
        self._write_json("samples.json", samples)
        return alpha

    def _invoke(self, argv: list[str]):
        result = self.runner.invoke(self.lib.cli.main, argv)
        return result.exit_code, result.stdout, result.stderr

    def round(self, r: int) -> list[Op]:
        p, m = self.paths, self.model
        space, search = p["space64.json"], p["space32.json"]
        derived = str(self.workdir / f"derived-{r}.json")
        low, high = self.ramp
        lower, upper = m.lower(self.target), m.upper(self.target)
        vprs_args = ["vprs", space, render(self.target), "--alpha", str(self.vprs_alpha),
                     "--beta", str(self.vprs_beta)]

        def derived_check(out):
            code, _, err = out
            try:
                doc = json.loads(Path(derived).read_text(encoding="utf-8"))
            except (OSError, ValueError):
                doc = None
            return checks.derived_document(code, err, doc, m)

        def rif(o):
            return checks.classify_output(*o, "RIF")

        def prif(o):
            return checks.prif_verify_output(*o, self.PRIF_TRIALS)

        # Seven commands take under 0.1 s, six take 0.5-0.8 s (two validate
        # and four prif-verify runs on 64 elements) and six take 1 s or
        # more, so the median is a command of the middle six.
        ops = [
            ("derive", ["derive", p["table.csv"], "--out", derived], derived_check),
            ("validate-derived", ["validate", derived],
             lambda o: checks.validate_output(*o, "setHGOS")),
            ("approximate", ["approximate", space],
             lambda o: checks.approximate_output(*o, m.approximation_rows())),
            ("classify-k0", ["classify", space, "k0"], rif),
            ("prif-verify-k0", ["prif-verify", space, "--function", "k0"], prif),
            ("classify-k1", ["classify", space, "k1"], rif),
            ("prif-verify-k1", ["prif-verify", space, "--function", "k1"], prif),
            ("check-laws", ["check-laws", space, "k0", "k1", "k2", "--alpha", str(self.law_weight)],
             lambda o: checks.check_laws_output(*o)),
            ("classify-k2", ["classify", space, "k2"], rif),
            ("prif-verify-k2", ["prif-verify", space, "--function", "k2"], prif),
            ("classify-kst", ["classify", space, f"kst(k0,{low},{high})"],
             lambda o: checks.classify_output(*o, "wqRIF")),
            ("prif-verify", ["prif-verify", space, "--trials", str(self.PRIF_TRIALS),
                             "--seed", str(self.prif_seed)], prif),
            ("vprs", vprs_args, lambda o: checks.vprs_output(*o, lower, upper)),
            # measured against the lower approximation, which is a union of
            # granules, so both regions are that lower approximation
            ("vprs-fixed", vprs_args + ["--fixed"], lambda o: checks.vprs_output(*o, lower, lower)),
            ("rif-failure-search", ["rif-failure-search", search, "--budget", str(self.SEARCH_BUDGET),
                                    "--seed", str(self.search_seed), "--format", "json"],
             lambda o: checks.failure_search_output(*o, self.SEARCH_BUDGET, self.sharp_pairs)),
            ("validate", ["validate", space, "--format", "json"],
             lambda o: checks.validate_json(*o, "setHGOS")),
            ("fit-alpha", ["fit-alpha", space, "k0", "k2", p["samples.json"]],
             lambda o: checks.fit_alpha_output(*o, self.fit_weight)),
            ("validate-fixture", ["validate", FIXTURE_NAME],
             lambda o: checks.validate_output(*o, "GGS")),
            ("approximate-fixture", ["approximate", FIXTURE_NAME],
             lambda o: checks.approximate_output(*o, self.fixture_rows)),
        ]
        result = [Op(label, self._bind(argv), check) for label, argv, check in ops]
        result += [
            Op("validate-bad-join", self._bind(["validate", p["bad_join.json"]]),
               lambda o: checks.input_error(o[0], o[2]),
               fault="a join row with a list id raises TypeError in space_from_dict (exit 1)"),
            Op("classify-deep-term", self._bind(["classify", FIXTURE_NAME, self.deep_term]),
               lambda o: checks.input_error(o[0], o[2]),
               fault=f"a term nested {self.DEPTH} deep raises RecursionError in terms._Parser (exit 1)"),
        ]
        return result

    def _bind(self, argv: list[str]) -> Callable[[], Any]:
        return lambda: self._invoke(argv)


WORKLOADS = {
    "laws-wqrif": (LawsWqrif, False),
    "prif-kappa": (PrifKappa, False),
    "cli-session": (CliSession, True),
}
