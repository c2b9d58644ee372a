"""Every check accepts the program's real output and rejects a deliberately
wrong one, so no check is vacuous.

    python3 -m pytest perfbench/tests -q

The workloads run here on small inputs (the classes are subclassed with
smaller sizes); the checks are the ones the benchmark runs.
"""

import json
from fractions import Fraction
from random import Random
from types import SimpleNamespace

import pytest

import checks
import run
import workloads
from reference import PowersetModel
from tracing import Tracer, layer_metrics


@pytest.fixture(scope="module")
def lib():
    return run.import_program(with_cli=True)


def outputs(workload, r=0):
    """(op, output) for every operation of round r."""
    return [(op, op.call()) for op in workload.round(r)]


# -- laws-wqrif --------------------------------------------------------------


class SmallLaws(workloads.LawsWqrif):
    SIZES = (2, 3)


@pytest.fixture(scope="module")
def laws_run(lib, tmp_path_factory):
    w = SmallLaws()
    w.setup(lib, Random(7), tmp_path_factory.mktemp("laws"), run.FIXTURE)
    return w, outputs(w)


def test_laws_checks_accept_real_output(laws_run):
    _, results = laws_run
    for op, out in results:
        assert op.check(out) == []


def test_law_check_rejects_a_failing_law(laws_run):
    _, results = laws_run
    reports = list(results[0][1][1])
    bad = SimpleNamespace(law=reports[3].law, holds=False, witnesses=(("f", "a", "b"),))
    assert checks.law_reports(reports[:3] + [bad] + reports[4:])
    assert checks.law_reports(reports[:-1])


def test_term_check_rejects_a_value_off_by_one_unit_fraction(laws_run):
    w, results = laws_run
    trial = w.trials(0)[2]
    fns = results[0][1][0]
    a, b = trial["pairs"][0][0]
    key = (trial["model"].ids[a], trial["model"].ids[b])
    values = dict(fns[0].values)
    v = values[key]
    values[key] = v - Fraction(1, v.denominator) if v > 0 else Fraction(1, v.denominator + 1)
    assert checks.term_values(trial["model"], trial["trees"][0], fns[0].values, trial["pairs"][0]) == []
    assert checks.term_values(trial["model"], trial["trees"][0], values, trial["pairs"][0])


# -- prif-kappa --------------------------------------------------------------


class SmallPrif(workloads.PrifKappa):
    SLOTS = ("fixture", 4)
    TRIPLES_SAMPLED = 5000


@pytest.fixture(scope="module")
def prif_run(lib, tmp_path_factory):
    w = SmallPrif()
    w.setup(lib, Random(3), tmp_path_factory.mktemp("prif"), run.FIXTURE)
    return w, outputs(w)


def test_prif_checks_accept_real_output(prif_run):
    _, results = prif_run
    for op, out in results:
        assert op.check(out) == []


def test_prif_check_rejects_a_violated_implication(prif_run):
    _, results = prif_run
    f, verdicts = results[1][1]
    v = verdicts[0]
    flipped = SimpleNamespace(name=v.name, applicable=True, violated=True, axioms=v.axioms)
    assert checks.prif_verdicts(verdicts, True) == []
    assert checks.prif_verdicts([flipped] + verdicts[1:], True)
    assert checks.prif_verdicts(verdicts, False)


def _axiom_inputs(w, lib, slot, r=0):
    s, elements, part, _ = w.spaces[slot]
    values = w.tables(r)[w.SLOTS.index(slot)]
    f = lib.inclusion.InclusionFunction(s, values, "kappa")
    reports = {ax: lib.inclusion.check_rif_axiom(f, ax) for ax in ("U1", "R0", "R1", "IR0", "R2", "R3")}
    return elements, values, part, reports, lib.inclusion.verify_prif(f)


@pytest.mark.parametrize("axiom", ["U1", "R0", "R1", "IR0", "R2", "R3"])
def test_prif_check_rejects_a_dropped_witness(prif_run, lib, axiom):
    w, _ = prif_run
    # the first round whose fixture kappa has a witness of this axiom to drop
    for r in range(20):
        elements, values, part, reports, verdicts = _axiom_inputs(w, lib, "fixture", r)
        if reports[axiom].witnesses:
            break
    assert checks.prif_axioms(elements, values, part, reports, verdicts, Random(1), 5000) == []
    witnesses = reports[axiom].witnesses
    assert witnesses, f"no fixture kappa of 20 rounds has a {axiom} witness to drop"
    reports[axiom] = SimpleNamespace(holds=False, witnesses=witnesses[1:])
    assert checks.prif_axioms(elements, values, part, reports, verdicts, Random(1), 5000)


def test_prif_check_rejects_a_witness_that_does_not_violate(prif_run, lib):
    w, _ = prif_run
    elements, values, part, reports, verdicts = _axiom_inputs(w, lib, 4)
    wit = set(reports["R3"].witnesses)
    fake = next((a, b, c) for a in elements for b in elements for c in elements if (a, b, c) not in wit)
    reports["R3"] = SimpleNamespace(holds=False, witnesses=reports["R3"].witnesses + (fake,))
    assert checks.prif_axioms(elements, values, part, reports, verdicts, Random(1), 10)


# -- cli-session -------------------------------------------------------------


class SmallSession(workloads.CliSession):
    OBJECTS = 4
    SEARCH_OBJECTS = 3
    SEARCH_BUDGET = 5


@pytest.fixture(scope="module")
def session(lib, tmp_path_factory):
    w = SmallSession()
    w.setup(lib, Random(11), tmp_path_factory.mktemp("cli"), run.FIXTURE)
    return w, {op.label: (op, out) for op, out in outputs(w)}


def test_session_checks_accept_real_output(session):
    _, results = session
    for label, (op, out) in results.items():
        if op.fault is None:
            assert op.check(out) == [], label


def _rejects(results, label, mutate):
    op, (code, out, err) = results[label]
    assert op.check((code, out, err)) == []
    assert op.check(mutate(code, out, err)), label


def _swap_first_row(code, out, err):
    lines = out.splitlines()
    i = next(k for k, line in enumerate(lines) if line.split(" | ")[1] != line.split(" | ")[2])
    x, lo, up = lines[i].split(" | ")
    lines[i] = f"{x} | {up} | {lo}"
    return code, "\n".join(lines) + "\n", err


def test_approximate_check_rejects_swapped_lower_and_upper(session):
    _, results = session
    _rejects(results, "approximate", _swap_first_row)
    _rejects(results, "approximate-fixture", _swap_first_row)


def test_vprs_check_rejects_swapped_regions(session):
    w, results = session
    assert w.model.lower(w.target) != w.model.upper(w.target)

    def swap(code, out, err):
        head, lower, upper = out.splitlines()
        return code, "\n".join([head, "lower" + upper[5:], "upper" + lower[5:]]) + "\n", err

    _rejects(results, "vprs", swap)


def test_fit_alpha_check_rejects_a_weight_off_by_one_unit_fraction(session):
    w, results = session
    off = w.fit_weight + Fraction(1, w.fit_weight.denominator)
    _rejects(results, "fit-alpha", lambda code, out, err: (code, f"alpha: {off}\n", err))


def test_failure_search_check_rejects_dropped_pairs_and_short_budget(session):
    _, results = session

    def edit(change):
        def mutate(code, out, err):
            doc = json.loads(out)
            change(doc)
            return code, json.dumps(doc), err
        return mutate

    _rejects(results, "rif-failure-search", edit(lambda d: d["sharp_witness"]["pairs"].pop()))
    _rejects(results, "rif-failure-search", edit(lambda d: d.update(trials=d["trials"] - 1)))
    _rejects(results, "rif-failure-search",
             edit(lambda d: d.update(oplus_witness={"function": "oplus", "pairs": []})))


def test_verdict_checks_reject_a_failing_verdict(session):
    _, results = session
    _rejects(results, "classify-k0", lambda c, o, e: (c, o.replace("class: RIF", "class: qRIF"), e))
    _rejects(results, "classify-kst", lambda c, o, e: (1, o.replace("class: ", "class: none #"), e))
    _rejects(results, "validate-derived", lambda c, o, e: (c, o.replace("G3: pass", "G3: FAIL"), e))
    _rejects(results, "validate-fixture", lambda c, o, e: (c, o.replace("flavor: GGS", "flavor: GS"), e))
    _rejects(results, "validate", lambda c, o, e: (c, o.replace('"holds": true', '"holds": false', 1), e))
    _rejects(results, "check-laws", lambda c, o, e: (1, o.replace("Comm: pass", "Comm: FAIL"), e))
    _rejects(results, "prif-verify", lambda c, o, e: (c, o.replace("violated 0", "violated 1", 1), e))


def test_derive_check_rejects_swapped_approximations(session):
    w, results = session
    op, (code, _, err) = results["derive"]
    doc = w.model.document()
    assert checks.derived_document(code, err, doc, w.model) == []
    doc["lower"], doc["upper"] = doc["upper"], doc["lower"]
    assert checks.derived_document(code, err, doc, w.model)


def test_input_error_check_wants_exit_2_and_one_error_line(session):
    _, results = session
    for label in ("validate-bad-join", "classify-deep-term"):
        op, _ = results[label]
        assert op.check((2, "", "error: bad input\n")) == []
        assert op.check((1, "", "")), label
        assert op.check((2, "", "error: one\nerror: two\n")), label


def test_reference_space_document_loads_as_a_valid_space(lib):
    model = PowersetModel(["a", "b", "c"], [("a", "b"), ("c",)])
    s = lib.space.space_from_dict(model.document())
    assert all(r.holds for r in lib.space.validate_space(s))
    assert lib.space.classify_flavor(s) == "setHGOS"


# -- tracing -----------------------------------------------------------------


def test_tracer_records_layers_and_restores_bindings(laws_run, lib):
    w, _ = laws_run
    algebra = lib.algebra
    original = algebra.otimes
    tracer = Tracer()
    tracer.install()
    try:
        assert algebra.otimes is not original
        for op in w.round(0):
            tracer.begin_op(op.label)
            op.call()
            tracer.end_op()
    finally:
        tracer.uninstall()
    assert algebra.otimes is original
    figures = layer_metrics(tracer.spans, 0.0)
    assert figures["algebra.check_laws.ms"] > figures["algebra.check_laws.self_ms"] > 0
    assert figures["algebra.otimes.calls"] > 0
    assert figures["space.powerset_space.ms"] > 0
    assert figures["inclusion.classify.ms"] == 0


def test_self_time_excludes_children_and_recursion_counts_once():
    spans = [
        ("op", "x", -1, 0, 100, 0, 0, 0),
        ("terms.eval_term", "", 0, 10, 90, 0, 0, 0),
        ("terms.eval_term", "", 1, 20, 80, 0, 0, 0),
        ("algebra.otimes", "", 2, 30, 70, 0, 0, 0),
    ]
    m = layer_metrics(spans, 0.0)
    assert m["terms.eval_term.ms"] == 80 / 1e6
    assert m["terms.self_ms"] == (80 - 60 + 60 - 40) / 1e6
    assert m["algebra.self_ms"] == 40 / 1e6


# -- speed scaling -------------------------------------------------------------


def test_speed_probe_scales_and_restores_the_alarm_handler():
    import signal
    from time import perf_counter

    from speed import INTERVAL_S, SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    t0 = perf_counter()
    probe.start()
    end = t0 + 20 * INTERVAL_S
    while perf_counter() < end:
        sum(range(1000))
    inside = probe.halt()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 10 and 0 < inside < perf_counter() - t0
    assert probe.factor() > 0
    probe.start(timer=False)
    assert probe.halt() == 0.0
    probe.factor(after_s=0.002)
    assert sum(probe.samples) >= 0.002


def test_scaled_times_leave_out_known_faults():
    records = [
        ("a", 0.5, True, False, 2.0),
        ("fault", 9.0, False, True, 1.0),
        ("b", 0.25, False, False, 0.5),
    ]
    assert run.scaled_times(records) == [1.0, 0.125]
