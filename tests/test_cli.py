import json

import pytest
from click.testing import CliRunner

from fixture_data import FIXTURE_PATH, APPROXIMATION_ROWS
from rif_forge import powerset_space, save_space, space_from_dict, space_to_dict, validate_space
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
        bad.write_text("{not json", encoding="utf-8")
        result = runner.invoke(main, ["validate", str(bad)])
        assert result.exit_code == 2
        assert "malformed JSON" in result.stderr

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

    def test_random_terms_deterministic(self, runner, tmp_path):
        space = tmp_path / "small.json"
        save_space(powerset_space(["u", "v"], [["u", "v"]]), space)
        args = ["check-laws", str(space), "--random-terms", "2", "--seed", "9"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output


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
