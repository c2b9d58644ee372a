import json
import pathlib
import tempfile
from decimal import Decimal
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from fixture_data import FIXTURE_PATH, APPROXIMATION_ROWS
from rif_forge import (
    LAW_ORDER, fit_alpha, k0, k1, load_space, powerset_space, save_space, space_from_dict, space_to_dict,
    validate_space,
)
from rif_forge import terms
from rif_forge.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def fixture_dict():
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


class TestValidate:
    def test_fixture_passes(self, runner):
        result = runner.invoke(main, ["validate", str(FIXTURE_PATH)])
        assert result.exit_code == 0
        assert "flavor: GGS" in result.output
        assert "FAIL" not in result.output

    def test_json_format(self, runner):
        result = runner.invoke(main, ["validate", str(FIXTURE_PATH), "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["flavor"] == "GGS"
        assert payload["pass"] is True
        assert len(payload["axioms"]) == 14

    def test_broken_space_fails_with_witness(self, runner, tmp_path):
        d = fixture_dict()
        d["parthood"] = [p for p in d["parthood"] if p != ["a", "a"]]
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(d), encoding="utf-8")
        result = runner.invoke(main, ["validate", str(bad)])
        assert result.exit_code == 1
        assert "FAIL" in result.output
        assert "witness" in result.output

    def test_malformed_json(self, runner, tmp_path):
        bad = tmp_path / "mangled.json"
        # the second is nested deeper than any interpreter stack: the decoder
        # gives up with a RecursionError, which must read as malformed input too
        for text in ("{not json", "[" * 100_000 + "]" * 100_000):
            bad.write_text(text, encoding="utf-8")
            result = runner.invoke(main, ["validate", str(bad)])
            assert result.exit_code == 2, text[:20]
            assert result.stderr.startswith("error: malformed JSON") and result.stderr.count("\n") == 1

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["validate", "no_such_space.json"])
        assert result.exit_code == 2
        assert "not found" in result.stderr

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.__setitem__("elements", None),
            lambda d: d["elements"][1].__setitem__("carrier", [["a"]]),
            lambda d: d["join"][0].__setitem__(0, [d["join"][0][0]]),
            lambda d: d["meet"][0].__setitem__(2, 7),
            lambda d: d["parthood"][0].__setitem__(1, ["bot"]),
            lambda d: d.update(lower="granular", granulation=None),
        ],
        ids=[
            "elements-null", "carrier-item-list", "join-id-list", "meet-id-int", "parthood-id-list",
            "granular-lower-granulation-null",
        ],
    )
    def test_malformed_document_is_an_input_error(self, runner, tmp_path, mutate):
        d = fixture_dict()
        mutate(d)
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(d), encoding="utf-8")
        result = runner.invoke(main, ["validate", str(bad)])
        assert result.exit_code == 2, result.exception
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr

    @pytest.mark.parametrize(
        "key, row, message",
        [
            ("join", ["a", "a", "bot"], "error: join[58] maps ('a','a') to 'bot', but an earlier entry maps it to 'a'"),
            ("lower", ["e", "bot"], "error: lower[9] maps 'e' to 'bot', but an earlier entry maps it to 'e'"),
        ],
    )
    def test_conflicting_duplicate_row_is_an_input_error(self, runner, tmp_path, key, row, message):
        d = fixture_dict()
        d[key].append(row)
        bad = tmp_path / "duplicate.json"
        bad.write_text(json.dumps(d), encoding="utf-8")
        result = runner.invoke(main, ["validate", str(bad)])
        assert result.exit_code == 2, result.output
        assert result.stderr.splitlines() == [message]
        assert result.stdout == ""

    @pytest.mark.parametrize("key", ["parthood", "join"])
    def test_null_first_cell_is_an_input_error(self, runner, tmp_path, key):
        d = fixture_dict()
        d[key][0][0] = None
        bad = tmp_path / "null.json"
        bad.write_text(json.dumps(d), encoding="utf-8")
        result = runner.invoke(main, ["validate", str(bad)])
        assert result.exit_code == 2, result.exception
        assert result.stderr.splitlines() == [f"error: {key}[0] must hold string ids"]

    def test_granular_maps_with_an_unknown_granule_are_an_input_error(self, runner, tmp_path):
        d = fixture_dict()
        d.update(granulation=d["granulation"] + ["zzz"], lower="granular", upper="granular")
        bad = tmp_path / "granular.json"
        bad.write_text(json.dumps(d), encoding="utf-8")
        result = runner.invoke(main, ["validate", str(bad)])
        assert result.exit_code == 2, result.exception
        assert result.stderr.splitlines() == ["error: granulation names unknown element 'zzz'"]

    @pytest.mark.parametrize("key", ["bottom", "top"])
    @pytest.mark.parametrize("value", [["bot"], {"id": "bot"}, 3, None])
    def test_non_string_bottom_or_top_is_an_input_error(self, runner, tmp_path, key, value):
        d = fixture_dict()
        d[key] = value
        bad = tmp_path / "ends.json"
        bad.write_text(json.dumps(d), encoding="utf-8")
        result = runner.invoke(main, ["validate", str(bad)])
        assert result.exit_code == 2, result.exception
        assert result.stderr.splitlines() == [f"error: {key} must be a string id"]

    @pytest.mark.parametrize("key, row", [("join", ["a", "a", "a"]), ("lower", ["e", "e"])])
    def test_exact_duplicate_row_still_loads(self, runner, tmp_path, key, row):
        d = fixture_dict()
        d[key].append(row)
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 0, result.output
        assert result.stdout == runner.invoke(main, ["validate", str(FIXTURE_PATH)]).stdout

    def test_packaged_fixture_by_bare_name(self, runner):
        result = runner.invoke(main, ["validate", "abstract_example.json"])
        assert result.exit_code == 0

    def test_env_var_fixture_directory(self, runner, tmp_path, monkeypatch):
        custom = tmp_path / "renamed_space.json"
        custom.write_text(FIXTURE_PATH.read_text(encoding="utf-8"), encoding="utf-8")
        monkeypatch.setenv("RIF_FORGE_FIXTURES", str(tmp_path))
        result = runner.invoke(main, ["validate", "renamed_space.json"])
        assert result.exit_code == 0


class TestApproximate:
    def test_fixture_rows_frozen(self, runner):
        # the empty element stays out of the table, matching the source
        result = runner.invoke(main, ["approximate", str(FIXTURE_PATH)])
        assert result.exit_code == 0
        expected = [f"{x} | {lo} | {up}" for x, lo, up in APPROXIMATION_ROWS[1:]]
        assert result.output.splitlines() == expected

    def test_json_rows(self, runner):
        result = runner.invoke(main, ["approximate", str(FIXTURE_PATH), "--format", "json"])
        payload = json.loads(result.output)
        assert payload["rows"][2] == {
            "element": "{a,b}",
            "lower": "{a}",
            "upper": "{a,b,c,e}",
        }

    def test_out_file(self, runner, tmp_path):
        target = tmp_path / "rows.txt"
        result = runner.invoke(
            main, ["approximate", str(FIXTURE_PATH), "--out", str(target)]
        )
        assert result.exit_code == 0
        assert result.output == ""
        assert target.read_text(encoding="utf-8").splitlines()[0] == "{a} | {a} | {a}"

    def test_empty_carried_space_prints_all_rows(self, runner, tmp_path):
        degenerate = {
            "flavor": "GGS",
            "elements": [{"id": "bot", "carrier": []}, {"id": "top"}],
            "bottom": "bot",
            "top": "top",
            "granulation": ["top"],
            "parthood": [["bot", "bot"], ["bot", "top"], ["top", "top"]],
            "order": [["bot", "bot"], ["bot", "top"], ["top", "top"]],
            "join": [],
            "meet": [],
            "lower": [["bot", "bot"], ["top", "top"]],
            "upper": [["bot", "bot"], ["top", "top"]],
        }
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(degenerate), encoding="utf-8")
        result = runner.invoke(main, ["approximate", str(path)])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["top | top | top", "{} | {} | {}"]


class TestClassify:
    def test_ramp_is_weak_quasi(self, runner):
        result = runner.invoke(
            main, ["classify", str(FIXTURE_PATH), "kst(k0, 1/4, 3/4)"]
        )
        assert result.exit_code == 0
        assert "class: wqRIF" in result.output
        assert "R1: fail" in result.output

    def test_base_function_is_rif(self, runner):
        result = runner.invoke(main, ["classify", str(FIXTURE_PATH), "k0"])
        assert result.exit_code == 0
        assert "class: RIF" in result.output

    def test_unclassifiable_function_exits_one(self, runner, tmp_path):
        # an extra parthood pair that the carriers contradict sinks R0
        d = fixture_dict()
        d["parthood"].append(["e", "ab"])
        warped = tmp_path / "warped.json"
        warped.write_text(json.dumps(d), encoding="utf-8")
        result = runner.invoke(main, ["classify", str(warped), "k0"])
        assert result.exit_code == 1
        assert "class: none" in result.output

    def test_bad_term_reports_position(self, runner):
        result = runner.invoke(main, ["classify", str(FIXTURE_PATH), "oplus(k0,k1,k2)"])
        assert result.exit_code == 2
        assert "position" in result.stderr

    def test_order_relation_flag(self, runner):
        result = runner.invoke(
            main, ["classify", str(FIXTURE_PATH), "k0", "--relation", "order"]
        )
        assert result.exit_code == 0
        assert "class: qRIF" in result.output

    def test_k2_with_a_carrier_outside_top_names_it(self, runner, tmp_path):
        # validate passes such a space; k2 on it is an input error naming the carrier
        d = fixture_dict()
        for e in d["elements"]:
            if e["id"] == d["top"]:
                e["carrier"] = ["a", "b", "c"]
        cut = tmp_path / "cut.json"
        cut.write_text(json.dumps(d), encoding="utf-8")
        assert runner.invoke(main, ["validate", str(cut)]).exit_code == 0
        result = runner.invoke(main, ["classify", str(cut), "k2"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: k2 needs every carrier inside the top carrier {a,b,c}; 'e' has {e}\n"


class TestCheckLaws:
    def test_defaults_pass(self, runner):
        result = runner.invoke(main, ["check-laws", str(FIXTURE_PATH)])
        assert result.exit_code == 0
        assert "functions: k0, k1, k2" in result.output
        assert "FAIL" not in result.output

    def test_json_payload(self, runner):
        result = runner.invoke(
            main,
            ["check-laws", str(FIXTURE_PATH), "k0", "--alpha", "1/3", "--format", "json"],
        )
        payload = json.loads(result.output)
        assert payload["pass"] is True
        assert payload["alphas"] == ["1/3"]
        assert len(payload["laws"]) == 11

    def test_env_file_binds_extra_functions(self, runner, tmp_path):
        env = tmp_path / "env.json"
        env.write_text(json.dumps({"blend": "oplus(1/2, k0, k2)"}), encoding="utf-8")
        result = runner.invoke(
            main, ["check-laws", str(FIXTURE_PATH), "blend", "--env", str(env)]
        )
        assert result.exit_code == 0
        # bound names resolve to their defining term's label
        assert "functions: oplus(1/2,k0,k2)" in result.output

    @pytest.mark.parametrize("command", [["classify"], ["check-laws"]])
    @pytest.mark.parametrize("value", [5, None, ["k0"], {"term": "k0"}])
    def test_env_file_with_non_string_term_exits_2(self, runner, tmp_path, command, value):
        env = tmp_path / "env.json"
        env.write_text(json.dumps({"k9": value}), encoding="utf-8")
        result = runner.invoke(main, [*command, str(FIXTURE_PATH), "k9", "--env", str(env)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: environment file"), result.stderr

    def test_random_terms_deterministic(self, runner, tmp_path):
        space = tmp_path / "small.json"
        save_space(powerset_space(["u", "v"], [["u", "v"]]), space)
        args = ["check-laws", str(space), "--random-terms", "2", "--seed", "9"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output


    @pytest.mark.parametrize("count", ["-3", "-1"])
    def test_negative_random_terms_is_an_input_error(self, runner, count):
        result = runner.invoke(main, ["check-laws", str(FIXTURE_PATH), "--random-terms", count])
        assert result.exit_code == 2, result.exception
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
        assert "--random-terms" in lines[0]
        assert result.stdout == ""


class TestWorkBudget:
    """Commands over the work budget exit 2 with one line stating the
    estimate, before they build the space or any function."""

    def test_check_laws_with_too_many_random_terms(self, runner):
        result = runner.invoke(main, ["check-laws", str(FIXTURE_PATH), "--random-terms", "100000000"])
        assert result.exit_code == 2, result.exception
        assert result.stderr == (
            "error: estimated work 8,100,000,324 exceeds the budget of 10,000,000 "
            "(9 elements, 100,000,003 functions)\n")
        assert result.stdout == ""

    def test_check_laws_with_40_random_terms_is_admitted(self, runner):
        # 43 functions on the 9-element fixture: one row of 81 values each
        # (the eight pointwise laws are proved, so no operand combination
        # counts)
        result = runner.invoke(main, ["check-laws", str(FIXTURE_PATH), "--random-terms", "40"])
        assert result.exit_code == 0, result.output
        lines = result.stdout.splitlines()
        assert len(lines[0].split(", ")) == 43
        assert lines[2:] == [f"{law}: pass" for law in LAW_ORDER]

    def test_a_billion_trials(self, runner):
        # one function a trial: refused before any is drawn
        result = runner.invoke(main, ["prif-verify", str(FIXTURE_PATH), "--trials", "1000000000"])
        assert result.exit_code == 2, result.exception
        assert result.stderr == (
            "error: estimated work 81,000,000,081 exceeds the budget of 10,000,000 "
            "(9 elements, 1,000,000,000 functions)\n")
        assert result.stdout == ""

    def test_a_billion_search_trials_on_a_power_set(self, runner, tmp_path):
        # the convex-sum trials are settled by proof, so no budget adds work
        space = tmp_path / "three.json"
        save_space(powerset_space(["u", "v", "w"], [["u", "v"], ["w"]]), space)
        result = runner.invoke(main, ["rif-failure-search", str(space), "--budget", "1000000000"])
        assert result.exit_code == 0, result.exception
        assert "convex-sum trials: 1000000000\nconvex-sum witness: none found\n" in result.stdout
        assert result.stderr == ""

    def test_derive_of_a_table_with_too_many_objects(self, runner, tmp_path):
        src = tmp_path / "table.csv"
        src.write_text("object,color\n" + "".join(f"o{i},red\n" for i in range(12)), encoding="utf-8")
        result = runner.invoke(main, ["derive", str(src)])
        assert result.exit_code == 2, result.exception
        assert result.stderr == (
            "error: estimated work 16,777,216 exceeds the budget of 10,000,000 (4,096 elements)\n")
        assert result.stdout == ""


# 255 nodes whose value is k0: over the budget on the 8-object power set
# (256 * 256 * 256 units), far inside it on the 9-element fixture
BIG_TERM = "otimes(top," * 127 + "k0" + ")" * 127


@pytest.fixture(scope="module")
def eight_object_space(tmp_path_factory):
    path = tmp_path_factory.mktemp("large") / "powerset8.json"
    objects = [f"o{i}" for i in range(8)]
    save_space(powerset_space(objects, [objects[:3], objects[3:]]), path)
    return str(path)


class TestTermWorkBudget:
    """Commands that evaluate terms ask the work budget over every term's
    nodes first: each node builds one function of n * n values."""

    @pytest.mark.parametrize("command", [
        ["classify", "{space}", BIG_TERM],
        ["prif-verify", "{space}", "--function", BIG_TERM],
        ["vprs", "{space}", "{{o0}}", "--function", BIG_TERM, "--alpha", "1/2", "--beta", "1/4"],
        ["fit-alpha", "{space}", BIG_TERM, "k0", "samples.json"],
        ["check-laws", "{space}", BIG_TERM],
    ])
    def test_a_large_term_on_a_large_space_exits_2(self, runner, eight_object_space, command):
        result = runner.invoke(main, [arg.format(space=eight_object_space) for arg in command])
        assert result.exit_code == 2, result.exception
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: estimated work "), result.stderr
        assert lines[0].endswith(" term nodes)") and "(256 elements" in lines[0]
        assert result.stdout == ""

    def test_classify_states_the_estimate(self, runner, eight_object_space):
        result = runner.invoke(main, ["classify", eight_object_space, BIG_TERM])
        assert result.stderr == ("error: estimated work 16,777,216 exceeds the budget of 10,000,000 "
                                 "(256 elements, 255 term nodes)\n")

    def test_env_file_terms_count(self, runner, eight_object_space, tmp_path):
        env = tmp_path / "env.json"
        env.write_text(json.dumps({"big": BIG_TERM}), encoding="utf-8")
        result = runner.invoke(main, ["classify", eight_object_space, "k0", "--env", str(env)])
        assert result.exit_code == 2, result.exception
        assert result.stderr == ("error: estimated work 16,842,752 exceeds the budget of 10,000,000 "
                                 "(256 elements, 256 term nodes)\n")

    def test_the_same_term_passes_on_the_fixture(self, runner, tmp_path):
        env = tmp_path / "env.json"
        env.write_text(json.dumps({"big": BIG_TERM}), encoding="utf-8")
        result = runner.invoke(main, ["classify", str(FIXTURE_PATH), BIG_TERM])
        assert result.exit_code == 0, result.stderr
        assert result.stdout.startswith("class: RIF\n")
        result = runner.invoke(main, ["check-laws", str(FIXTURE_PATH), "big", "k1", "--env", str(env)])
        assert result.exit_code == 0, result.stderr

    def test_small_terms_pass_on_the_large_space(self, runner, eight_object_space):
        result = runner.invoke(main, ["classify", eight_object_space, "kst(k0, 1/4, 3/4)"])
        assert result.exit_code == 0, result.stderr


class TestUnreadableInputs:
    """An input file that cannot be read as UTF-8 text, or is a directory,
    exits 2 with one `error: cannot read` line."""

    NOT_UTF8 = b"\xff\xfe{}"

    def assert_cannot_read(self, result, what):
        assert result.exit_code == 2, result.exception
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot read {what} "), result.stderr
        assert result.stdout == ""

    def test_space_file_that_is_a_directory(self, runner, tmp_path):
        self.assert_cannot_read(runner.invoke(main, ["validate", str(tmp_path)]), "space file")

    def test_space_file_that_is_not_utf8(self, runner, tmp_path):
        bad = tmp_path / "space.json"
        bad.write_bytes(self.NOT_UTF8)
        self.assert_cannot_read(runner.invoke(main, ["validate", str(bad)]), "space file")

    @pytest.mark.parametrize("command", ["classify", "check-laws"])
    def test_env_file_that_is_not_utf8(self, runner, tmp_path, command):
        env = tmp_path / "env.json"
        env.write_bytes(self.NOT_UTF8)
        result = runner.invoke(main, [command, str(FIXTURE_PATH), "k0", "--env", str(env)])
        self.assert_cannot_read(result, "environment file")

    def test_samples_file_that_is_not_utf8(self, runner, tmp_path):
        samples = tmp_path / "samples.json"
        samples.write_bytes(self.NOT_UTF8)
        result = runner.invoke(main, ["fit-alpha", str(FIXTURE_PATH), "k0", "k1", str(samples)])
        self.assert_cannot_read(result, "samples file")

    def test_csv_that_is_not_utf8(self, runner, tmp_path):
        src = tmp_path / "table.csv"
        src.write_bytes(b"object,color\no1,r\xffd\n")
        self.assert_cannot_read(runner.invoke(main, ["derive", str(src)]), "table")


class TestBaseFunctionsBuiltOnRead:
    def test_classify_k0_never_builds_k1_or_k2(self, runner, monkeypatch):
        def refuse(s):
            raise AssertionError("built a base function the term does not name")

        monkeypatch.setattr(terms, "k1", refuse)
        monkeypatch.setattr(terms, "k2", refuse)
        result = runner.invoke(main, ["classify", str(FIXTURE_PATH), "k0"])
        assert result.exit_code == 0, result.exception
        assert result.stdout.startswith("class: RIF\n")

    def test_env_file_rebinds_a_base_name(self, runner, tmp_path, built_base_functions):
        env = tmp_path / "env.json"
        env.write_text(json.dumps({"k0": "kst(k1, 1/4, 3/4)"}), encoding="utf-8")
        result = runner.invoke(main, ["classify", str(FIXTURE_PATH), "k0", "--env", str(env), "--format", "json"])
        assert result.exit_code == 0, result.exception
        assert built_base_functions == ["k1"]
        direct = runner.invoke(main, ["classify", str(FIXTURE_PATH), "kst(k1, 1/4, 3/4)", "--format", "json"])
        rebound, expected = json.loads(result.stdout), json.loads(direct.stdout)
        assert rebound["term"] == "k0"
        assert (rebound["class"], rebound["axioms"]) == (expected["class"], expected["axioms"])

    def test_fit_alpha_builds_each_named_function_once(self, runner, tmp_path, built_base_functions):
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps([["ab", "bc", "1/2"]]), encoding="utf-8")
        result = runner.invoke(main, ["fit-alpha", str(FIXTURE_PATH), "k0", "otimes(k2,k0)", str(samples)])
        assert result.exit_code == 0, result.exception
        assert sorted(built_base_functions) == ["k0", "k2"]


class TestPrifVerify:
    def test_single_function(self, runner):
        result = runner.invoke(
            main, ["prif-verify", str(FIXTURE_PATH), "--function", "k0"]
        )
        assert result.exit_code == 0
        assert "trials: 1" in result.output
        assert result.output.rstrip().endswith("pass")

    def test_random_trials_deterministic(self, runner, tmp_path):
        space = tmp_path / "three.json"
        save_space(powerset_space(["u", "v", "w"], [["u", "v"], ["w"]]), space)
        args = ["prif-verify", str(space), "--trials", "40", "--seed", "3"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output
        assert "trials: 40" in first.output

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_no_trials_is_an_input_error(self, runner, trials):
        result = runner.invoke(main, ["prif-verify", str(FIXTURE_PATH), "--trials", trials])
        assert result.exit_code == 2, result.exception
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
        assert "--trials" in lines[0]
        assert result.stdout == ""


class TestFailureSearchCommand:
    def test_sharp_witness_reported(self, runner, tmp_path):
        space = tmp_path / "three.json"
        save_space(powerset_space(["u", "v", "w"], [["u", "v"], ["w"]]), space)
        args = ["rif-failure-search", str(space), "--budget", "30", "--seed", "5"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert "convex-sum witness: none found" in result.output
        assert "sharp witness: sharp(" in result.output
        repeat = runner.invoke(main, args)
        assert repeat.output == result.output

    def test_rejects_non_set_space(self, runner):
        result = runner.invoke(main, ["rif-failure-search", str(FIXTURE_PATH)])
        assert result.exit_code == 2

    def test_help_says_what_seed_and_budget_do(self, runner, tmp_path):
        result = runner.invoke(main, ["rif-failure-search", "--help"])
        assert result.exit_code == 0
        text = " ".join(result.output.split())
        assert "--seed INTEGER Has no effect" in text
        assert "--budget INTEGER Reported as the convex-sum trials; no trial runs" in text
        space = tmp_path / "three.json"
        save_space(powerset_space(["u", "v", "w"], [["u", "v"], ["w"]]), space)
        outputs = {runner.invoke(main, ["rif-failure-search", str(space), "--seed", seed]).output
                   for seed in ("4", "9")}
        assert len(outputs) == 1


class TestVprs:
    def test_plain_regions(self, runner):
        result = runner.invoke(
            main,
            ["vprs", str(FIXTURE_PATH), "ab", "--alpha", "1/4", "--beta", "1/2"],
        )
        assert result.exit_code == 0
        assert "element: {a,b}" in result.output
        assert "lower: {a}" in result.output
        assert "upper: {a,b,c,e}" in result.output

    def test_fixed_variant(self, runner):
        result = runner.invoke(
            main,
            ["vprs", str(FIXTURE_PATH), "ab", "--alpha", "1/4", "--beta", "1/2", "--fixed"],
        )
        assert result.exit_code == 0
        assert "upper: {a}" in result.output

    def test_carrier_spelling_of_target(self, runner):
        result = runner.invoke(
            main,
            ["vprs", str(FIXTURE_PATH), "{a,b}", "--alpha", "1/4", "--beta", "1/2"],
        )
        assert result.exit_code == 0
        assert "element: {a,b}" in result.output

    def test_threshold_order_enforced(self, runner):
        result = runner.invoke(
            main,
            ["vprs", str(FIXTURE_PATH), "ab", "--alpha", "1/2", "--beta", "1/4"],
        )
        assert result.exit_code == 2

    def test_semantic_error_exits_one_with_one_error_line(self, runner, tmp_path):
        # the power set of no objects has an empty top carrier, so k2 is undefined
        empty = tmp_path / "empty.json"
        save_space(powerset_space([], []), empty)
        result = runner.invoke(main, ["vprs", str(empty), "{}", "--function", "k2",
                                      "--alpha", "1/4", "--beta", "1/2"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: k2 needs a nonempty top carrier\n"


class TestFitAlpha:
    def test_recovers_blend_weight(self, runner, tmp_path):
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps([["ab", "bc", "3/16"]]), encoding="utf-8")
        result = runner.invoke(
            main,
            ["fit-alpha", str(FIXTURE_PATH), "k0", "sharp(k0)", str(samples)],
        )
        assert result.exit_code == 0
        assert "alpha: 3/8" in result.output

    def test_missing_samples_file(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["fit-alpha", str(FIXTURE_PATH), "k0", "k1", str(tmp_path / "none.json")],
        )
        assert result.exit_code == 2

    def test_bad_sample_entry(self, runner, tmp_path):
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps([["ab", "bc"]]), encoding="utf-8")
        result = runner.invoke(
            main,
            ["fit-alpha", str(FIXTURE_PATH), "k0", "k1", str(samples)],
        )
        assert result.exit_code == 2
        assert "bad sample entry" in result.stderr

    @pytest.mark.parametrize("entry", [[1, 2, "1/2"], [None, "b", "1/2"], ["ab", ["bc"], "1/2"],
                                       ["ab", {"id": "bc"}, "1/2"], [True, "bc", "1/2"]])
    def test_non_string_sample_element_exits_2(self, runner, tmp_path, entry):
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps([["ab", "bc", "3/16"], entry]), encoding="utf-8")
        result = runner.invoke(main, ["fit-alpha", str(FIXTURE_PATH), "k0", "k1", str(samples)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: bad sample entry"), result.stderr


class TestRationalLimit:
    """A rational option value or sample target is refused, exit 2 with one
    error line naming the limit, when its digits or exponent pass it:
    1e-5000 reads as a Fraction whose denominator has more digits than
    Python prints."""

    LIMIT_LINE = "error: a rational may have at most 1,000 digits and an exponent of at most 1,000: "

    def invoke(self, runner, tmp_path, command, text):
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps([["ab", "bc", text]]), encoding="utf-8")
        return runner.invoke(main, {
            "check-laws": ["check-laws", str(FIXTURE_PATH), "k0", "k1", "--alpha", text],
            "vprs": ["vprs", str(FIXTURE_PATH), "ab", "--alpha", text, "--beta", "1/2"],
            "fit-alpha": ["fit-alpha", str(FIXTURE_PATH), "k0", "sharp(k0)", str(samples)],
        }[command])

    @pytest.mark.parametrize("command", ["check-laws", "vprs", "fit-alpha"])
    @pytest.mark.parametrize("text", ["1e-5000", "1E+1001", "0." + "0" * 1000 + "1", "1/" + "3" * 1000],
                             ids=["1e-5000", "1E+1001", "1001-digit-decimal", "1001-digit-fraction"])
    def test_past_the_limit_exits_2_naming_it(self, runner, tmp_path, command, text):
        result = self.invoke(runner, tmp_path, command, text)
        assert result.exit_code == 2, result.exception
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stderr == f"{self.LIMIT_LINE}{text!r}\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("command", ["check-laws", "vprs", "fit-alpha"])
    @pytest.mark.parametrize("text", ["1e-1000", "1E-01000", "0." + "0" * 998 + "1", "1/" + "3" * 998],
                             ids=["1e-1000", "1E-01000", "1000-digit-decimal", "1000-digit-fraction"])
    def test_at_the_limit_is_read(self, runner, tmp_path, command, text):
        result = self.invoke(runner, tmp_path, command, text)
        assert result.exit_code == 0, result.output
        assert "rational" not in result.stderr


class TestLongNumbers:
    """Numbers past the 4,300 digits Python converts between int and str:
    an integer literal in any JSON input exits 2 with one error line, and
    a fitted weight that long is printed exactly."""

    LONG = "9" * 4301

    def assert_one_error(self, result, start):
        assert result.exit_code == 2, result.exception
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(start), result.stderr
        assert "4,300 digits" in lines[0] and result.stdout == ""

    def test_space_file(self, runner, tmp_path):
        space = tmp_path / "big.json"
        space.write_text('{"elements": [%s]}' % self.LONG, encoding="utf-8")
        self.assert_one_error(runner.invoke(main, ["validate", str(space)]), "error: malformed JSON in ")

    def test_samples_file(self, runner, tmp_path):
        samples = tmp_path / "samples.json"
        samples.write_text('[["ab", "bc", %s]]' % self.LONG, encoding="utf-8")
        result = runner.invoke(main, ["fit-alpha", str(FIXTURE_PATH), "k0", "k1", str(samples)])
        self.assert_one_error(result, "error: cannot read samples file ")

    @pytest.mark.parametrize("command", ["classify", "check-laws"])
    def test_env_file(self, runner, tmp_path, command):
        env = tmp_path / "env.json"
        env.write_text('{"x": "k0", "n": -%s}' % self.LONG, encoding="utf-8")
        result = runner.invoke(main, [command, str(FIXTURE_PATH), "k0", "--env", str(env)])
        self.assert_one_error(result, "error: cannot read environment file ")

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_fitted_weight_past_the_int_printing_limit(self, runner, tmp_path, fmt):
        # six targets within the rational limit, at pairs where k0 and k1
        # differ, fit to a weight whose denominator has over 4,300 digits
        pairs = [("a", "e"), ("a", "bc"), ("a", "be"), ("a", "bce"), ("e", "a"), ("e", "ab")]
        targets = [f"1/{10**997 + k}" for k in (1, 3, 7, 9, 13, 19)]
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps([[x, y, t] for (x, y), t in zip(pairs, targets)]), encoding="utf-8")
        result = runner.invoke(main, ["fit-alpha", str(FIXTURE_PATH), "k0", "k1", str(samples), "--format", fmt])
        assert result.exit_code == 0, result.exception
        text = json.loads(result.output)["alpha"] if fmt == "json" else result.output.removeprefix("alpha: ")
        p, q = text.strip().split("/")
        s = load_space(FIXTURE_PATH)
        expected = fit_alpha(k0(s), k1(s), [(pair, Fraction(t)) for pair, t in zip(pairs, targets)])
        assert expected.denominator.bit_length() > 4300 * 3.32
        assert Fraction(int(Decimal(p)), int(Decimal(q))) == expected


# -- option values and command-line terms from edge tokens --------------------

_RATIONALS = st.sampled_from(["1e-5000", "1/0", "nan", "inf", "-0", "", "-1/1000", "1001/1000", "1.0000001",
                              "9" * 1001, "0." + "0" * 1000 + "1", "1/3", "0", "1"])
_INTEGERS = st.sampled_from(["1e-5000", "1/0", "nan", "inf", "-0", "", "-1", "0", "1", "2", "9" * 1001])
_TERMS = st.sampled_from(["sharp(" * d + "k0" + ")" * d for d in (199, 200, 201)]
                         + ["", "k0", "-0", "1e-5000", "oplus(1001/1000,k0,k1)", "kst(k0,-0,1)",
                            "pow(k0," + "9" * 1001 + ")", "oplus(1/0,k0,k1)"])


@st.composite
def _command_lines(draw):
    """A command's arguments with the space file first, and the target of
    the one fit-alpha sample (None for the other commands)."""
    command = draw(st.sampled_from(["classify", "check-laws", "vprs", "prif-verify", "rif-failure-search",
                                    "fit-alpha"]))
    space = str(FIXTURE_PATH)
    if command == "classify":
        return [command, space, draw(_TERMS)], None
    if command == "check-laws":
        return [command, space, draw(_TERMS), "--alpha", draw(_RATIONALS), "--seed", draw(_INTEGERS)], None
    if command == "vprs":
        return [command, space, "ab", "--function", draw(_TERMS), "--alpha", draw(_RATIONALS),
                "--beta", draw(_RATIONALS)], None
    if command == "prif-verify":
        function = draw(st.one_of(st.just([]), _TERMS.map(lambda term: ["--function", term])))
        return [command, space, "--trials", draw(_INTEGERS), "--seed", draw(_INTEGERS), *function], None
    if command == "rif-failure-search":
        return [command, space, "--budget", draw(_INTEGERS), "--seed", draw(_INTEGERS)], None
    return [command, space, draw(_TERMS), "k1"], draw(_RATIONALS)


@settings(max_examples=40, deadline=None)
@given(_command_lines())
@example((["check-laws", str(FIXTURE_PATH), "k0", "--alpha", "1e-5000"], None))
@example((["vprs", str(FIXTURE_PATH), "ab", "--alpha", "1e-5000", "--beta", "1/2"], None))
@example((["fit-alpha", str(FIXTURE_PATH), "k0", "sharp(k0)"], "1e-5000"))
def test_option_values_and_terms_exit_0_1_or_2(case):
    # each command exits through its group or click's own usage error,
    # never with another exception, and an exit 2 prints one error line
    args, target = case
    with tempfile.TemporaryDirectory() as tmp:
        if target is not None:
            samples = pathlib.Path(tmp, "samples.json")
            samples.write_text(json.dumps([["ab", "bc", target]]), encoding="utf-8")
            args = [*args, str(samples)]
        result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1, 2), result.exception
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    if result.exit_code == 2:
        errors = [line for line in result.stderr.splitlines() if line.lower().startswith("error:")]
        assert len(errors) == 1, result.stderr


class TestDerive:
    CSV = "object,color,shape\no1,red,round\no2,red,round\no3,blue,square\n"

    def test_emits_valid_space(self, runner, tmp_path):
        src = tmp_path / "table.csv"
        src.write_text(self.CSV, encoding="utf-8")
        result = runner.invoke(main, ["derive", str(src)])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        s = space_from_dict(payload)
        assert all(r.holds for r in validate_space(s))
        assert payload["flavor"] == "setHGOS"

    def test_attribute_selection_changes_granulation(self, runner, tmp_path):
        csv_text = "object,color,size\no1,red,big\no2,red,small\no3,blue,big\n"
        src = tmp_path / "table.csv"
        src.write_text(csv_text, encoding="utf-8")
        all_attrs = json.loads(runner.invoke(main, ["derive", str(src)]).output)
        by_color = json.loads(
            runner.invoke(main, ["derive", str(src), "--attrs", "color"]).output
        )
        assert len(all_attrs["granulation"]) == 3
        assert len(by_color["granulation"]) == 2

    def test_out_file_roundtrip(self, runner, tmp_path):
        src = tmp_path / "table.csv"
        src.write_text(self.CSV, encoding="utf-8")
        target = tmp_path / "derived.json"
        result = runner.invoke(main, ["derive", str(src), "--out", str(target)])
        assert result.exit_code == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert space_to_dict(space_from_dict(payload)) == payload

    def test_missing_csv(self, runner, tmp_path):
        result = runner.invoke(main, ["derive", str(tmp_path / "ghost.csv")])
        assert result.exit_code == 2

    def test_empty_value_delimiter_exits_2(self, runner, tmp_path):
        src = tmp_path / "table.csv"
        src.write_text(self.CSV, encoding="utf-8")
        result = runner.invoke(main, ["derive", str(src), "--value-delimiter", ""])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stderr == "error: the value delimiter must not be empty\n"
        assert result.stdout == ""


class TestUnwritableOut:
    @pytest.mark.parametrize("args", [
        ["approximate", str(FIXTURE_PATH)],
        ["validate", str(FIXTURE_PATH), "--format", "json"],
    ], ids=["table", "json"])
    def test_out_in_a_missing_directory_exits_2(self, runner, tmp_path, args):
        target = tmp_path / "missing" / "out.txt"
        result = runner.invoke(main, [*args, "--out", str(target)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {target}: "), result.stderr
        assert result.stdout == ""
        assert not target.parent.exists()
