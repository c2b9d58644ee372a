import time
from fractions import Fraction as F
from random import Random

import pytest
from click.testing import CliRunner

from rif_forge import (
    AlphaSumTerm,
    BaseTerm,
    DegenerateSpaceError,
    FlatTerm,
    InputError,
    KstTerm,
    ParameterError,
    PowerTerm,
    ProductTerm,
    ResolutionError,
    SharpTerm,
    SigmaTerm,
    TermParseError,
    TopTerm,
    default_env,
    eval_term,
    evaluate,
    k0,
    k1,
    k2,
    parse_term,
    random_set_hgos,
    random_wqrif_term,
    satisfies_class,
)
from fixture_data import FIXTURE_PATH
from rif_forge.cli import main
from rif_forge import terms
from rif_forge.terms import MAX_POW_EXPONENT, RESERVED, term_nodes


class TestParsing:
    def test_every_constructor(self):
        t = parse_term("oplus(1/3, otimes(k0, top), kst(sharp(k1), 0, 3/4))")
        assert t == AlphaSumTerm(
            alpha=F(1, 3),
            left=ProductTerm(BaseTerm("k0"), TopTerm()),
            right=KstTerm(SharpTerm(BaseTerm("k1")), F(0), F(3, 4)),
        )

    def test_unary_wrappers(self):
        assert parse_term("flat(k2)") == FlatTerm(BaseTerm("k2"))
        assert parse_term("sigma(k1)") == SigmaTerm(BaseTerm("k1"))
        assert parse_term("pow(k0, 3)") == PowerTerm(BaseTerm("k0"), 3)

    def test_whitespace_insensitive(self):
        compact = parse_term("oplus(1/2,k0,k1)")
        spaced = parse_term("  oplus( 1/2 ,\tk0 ,  k1 )  ")
        assert compact == spaced

    def test_integer_weights_allowed(self):
        t = parse_term("oplus(1, k0, k1)")
        assert t.alpha == 1

    def test_reserved_names_are_constructors(self):
        for name in RESERVED:
            assert name in (
                "top", "otimes", "oplus", "sharp", "flat", "sigma", "pow", "kst",
            )
        assert parse_term("top") == TopTerm()


class TestParseErrors:
    def test_weight_position_reported(self):
        with pytest.raises(TermParseError) as exc:
            parse_term("oplus(k0,k1,k2)")
        assert exc.value.position == 6
        assert "rational" in exc.value.expected
        assert "position 6" in str(exc.value)

    def test_missing_comma(self):
        with pytest.raises(TermParseError) as exc:
            parse_term("otimes(k0 k1)")
        assert exc.value.position == 10

    def test_unexpected_character(self):
        with pytest.raises(TermParseError) as exc:
            parse_term("sharp(k0) & flat(k0)")
        assert "&" in str(exc.value)

    def test_trailing_junk(self):
        with pytest.raises(TermParseError) as exc:
            parse_term("k0 k1")
        assert exc.value.expected == ("end of input",)

    def test_empty_input(self):
        with pytest.raises(TermParseError) as exc:
            parse_term("")
        assert exc.value.position == 0

    def test_zero_denominator(self):
        with pytest.raises(TermParseError) as exc:
            parse_term("kst(k0, 1/0, 1)")
        assert "denominator" in str(exc.value)

    @pytest.mark.parametrize(
        "text",
        ["oplus(3/2, k0, k0)", "pow(k0, 0)", "kst(k0, 3/4, 1/4)", "kst(k0, 1/2, 1/2)"],
    )
    def test_out_of_range_parameters(self, text):
        with pytest.raises(ParameterError):
            parse_term(text)


NINES = "9" * 5000


class TestLiteralLimits:
    def test_exponents_up_to_the_limit_parse(self):
        # the sampler draws exponents 1-3 and the golden files use 2 and 3
        assert MAX_POW_EXPONENT >= 3
        assert parse_term(f"pow(k0,{MAX_POW_EXPONENT})") == PowerTerm(BaseTerm("k0"), MAX_POW_EXPONENT)

    def test_exponent_past_the_limit_names_it(self):
        with pytest.raises(TermParseError) as exc:
            parse_term(f"pow(k0, {MAX_POW_EXPONENT + 1})")
        assert str(MAX_POW_EXPONENT) in str(exc.value)
        assert exc.value.position == len("pow(k0, ")

    @pytest.mark.parametrize(
        "text", [f"pow(k0,{NINES})", f"oplus({NINES}/1,k0,k1)", f"oplus(1/{NINES},k0,k1)", f"kst(k0,0,{NINES})"]
    )
    def test_oversized_literal_is_a_parse_error(self, text):
        with pytest.raises(TermParseError) as exc:
            parse_term(text)
        assert "5000 digits" in str(exc.value)
        assert text[exc.value.position:].startswith(NINES)

    @pytest.mark.parametrize("text", [f"pow(k0,{NINES})", f"pow(k0,{MAX_POW_EXPONENT + 1})"])
    def test_cli_exits_two_with_one_error_line(self, text):
        result = CliRunner().invoke(main, ["classify", str(FIXTURE_PATH), text])
        assert result.exit_code == 2, result.exception
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
        assert result.stdout == ""


FOUR_LEVEL_POW = "pow(" * 4 + "k0" + f",{MAX_POW_EXPONENT})" * 4


class TestNestedPowLimit:
    def test_nested_exponents_parse_but_their_product_is_capped(self, fixture_space):
        # the parser accepts each exponent; evaluation bounds their product
        # along a path, since a function's numerators grow as den**product
        term = parse_term(FOUR_LEVEL_POW)
        with pytest.raises(ParameterError) as exc:
            eval_term(term, default_env(fixture_space), fixture_space)
        assert str(MAX_POW_EXPONENT) in str(exc.value)

    @pytest.mark.parametrize("text", [
        "pow(pow(k2,3),3)",
        f"pow(pow(k0,{MAX_POW_EXPONENT // 2}),2)",
        f"otimes(pow(k0,{MAX_POW_EXPONENT}),pow(sharp(pow(k1,8)),8))",
        f"pow(oplus(1/2,pow(k0,{MAX_POW_EXPONENT}),k1),1)",
    ])
    def test_products_up_to_the_limit_on_every_path_evaluate(self, fixture_space, text):
        assert evaluate(text, fixture_space).label == text

    @pytest.mark.parametrize("text", [
        f"pow(pow(k0,{MAX_POW_EXPONENT // 2}),3)",
        f"otimes(k1,pow(sharp(pow(k0,{MAX_POW_EXPONENT})),2))",
    ])
    def test_a_product_past_the_limit_is_a_parameter_error(self, fixture_space, text):
        with pytest.raises(ParameterError):
            evaluate(text, fixture_space)

    def test_cli_rejects_four_nested_pows_at_once(self):
        start = time.perf_counter()
        result = CliRunner().invoke(main, ["classify", str(FIXTURE_PATH), FOUR_LEVEL_POW])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2, result.exception
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and str(MAX_POW_EXPONENT) in lines[0]
        assert result.stdout == ""


class TestEvaluation:
    def test_default_env_names(self, fixture_space):
        assert set(default_env(fixture_space)) == {"k0", "k1", "k2"}

    def test_evaluate_matches_manual_build(self, fixture_space):
        f = evaluate("kst(k0, 1/4, 3/4)", fixture_space)
        assert f("ab", "bc") == F(1, 2)
        assert f.label == "kst(k0,1/4,3/4)"

    def test_eval_term_with_explicit_env(self, fixture_space):
        term = parse_term("pow(base, 2)")
        f = eval_term(term, {"base": k0(fixture_space)}, fixture_space)
        assert f("ab", "bc") == F(1, 4)

    def test_unbound_name_lists_alternatives(self, fixture_space):
        with pytest.raises(ResolutionError) as exc:
            evaluate("mystery", fixture_space)
        assert "k0" in str(exc.value)

    def test_env_entries_must_share_the_space(self, fixture_space, two_block_space):
        with pytest.raises(InputError):
            evaluate("otimes(k0, alien)", fixture_space, env={"alien": k0(two_block_space)})

    def test_custom_env_can_shadow_defaults(self, fixture_space):
        override = k0(fixture_space)
        f = evaluate("k1", fixture_space, env={"k1": override})
        assert f.pointwise_equal(override)

    def test_top_term(self, fixture_space):
        f = evaluate("top", fixture_space)
        assert all(v == 1 for v in f.values.values())


class TestDefaultEnv:
    """default_env names k0, k1 and k2 from the start and builds each the
    first time it is read."""

    @pytest.fixture()
    def built(self, built_base_functions):
        return built_base_functions

    def test_names_are_listed_before_any_is_built(self, fixture_space, built):
        env = default_env(fixture_space)
        assert sorted(env) == ["k0", "k1", "k2"] and len(env) == 3
        assert "k1" in env and "k3" not in env
        assert built == []

    def test_each_read_builds_once(self, fixture_space, built):
        env = default_env(fixture_space)
        f = env["k1"]
        assert env["k1"] is f and built == ["k1"]
        assert env.get("k2").pointwise_equal(k2(fixture_space)) and built == ["k1", "k2"]
        assert env.get("k3") is None
        assert {name: g.label for name, g in env.items()} == {"k0": "k0", "k1": "k1", "k2": "k2"}
        assert sorted(g.label for g in env.values()) == ["k0", "k1", "k2"]
        assert sorted(built) == ["k0", "k1", "k2"]

    def test_binding_replaces_a_builder(self, fixture_space, built):
        env = default_env(fixture_space)
        env["k0"] = k1(fixture_space)
        env["extra"] = k2(fixture_space)
        del env["k2"]
        assert sorted(env) == ["extra", "k0", "k1"]
        assert env["k0"].label == "k1" and built == []
        with pytest.raises(KeyError):
            del env["k2"]

    def test_a_failed_build_keeps_its_name(self, fixture_space, monkeypatch):
        def degenerate(s):
            raise DegenerateSpaceError("k2 needs a nonempty top carrier")

        monkeypatch.setattr(terms, "k2", degenerate)
        env = default_env(fixture_space)
        with pytest.raises(DegenerateSpaceError):
            env["k2"]
        assert sorted(env) == ["k0", "k1", "k2"]

    def test_evaluate_builds_only_what_the_term_reads(self, fixture_space, built):
        assert evaluate("otimes(k0, sharp(k0))", fixture_space).label == "otimes(k0,sharp(k0))"
        assert built == ["k0"]

    def test_unbound_name_lists_every_default_name(self, fixture_space, built):
        with pytest.raises(ResolutionError, match=r"^name 'mystery' is not bound \(have: k0, k1, k2\)$"):
            evaluate("mystery", fixture_space)
        assert built == []


@pytest.mark.parametrize("text, nodes", [
    ("k0", 1),
    ("top", 1),
    ("sharp(k1)", 2),
    ("oplus(1/2, otimes(k0, top), kst(sigma(k1), 1/4, 3/4))", 7),
    ("pow(flat(pow(k2, 2)), 3)", 4),
    ("sharp(" * 200 + "k0" + ")" * 200, 201),
])
def test_term_nodes_counts_every_node(text, nodes):
    assert term_nodes(parse_term(text)) == nodes


def test_random_terms_evaluate_to_weak_quasi_members():
    for seed in range(25):
        rng = Random(seed)
        s = random_set_hgos(rng)
        term = random_wqrif_term(rng)
        f = eval_term(term, default_env(s), s)
        assert satisfies_class(f, "wqRIF"), (seed, term, f.label)
