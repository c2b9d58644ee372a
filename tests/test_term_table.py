"""The table-driven term language against the per-operator code it replaced.

ParserOracle and oracle_random_wqrif_term keep the former hand-written
parser branches and sampler verbatim (the sampler's weight draw now calls
random_unit_rational, which makes the same draws as the alias it called).
The table-driven parser must return the same trees and raise the same
errors, and the sampler must return the same terms from the same seeds.
"""

from __future__ import annotations

import re
from fractions import Fraction
from random import Random

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from fixture_data import FIXTURE_PATH
from rif_forge import (
    AlphaSumTerm,
    BaseTerm,
    FlatTerm,
    KstTerm,
    PowerTerm,
    ProductTerm,
    SharpTerm,
    SigmaTerm,
    TermParseError,
    TopTerm,
    parse_term,
    random_thresholds,
    random_unit_rational,
    random_wqrif_term,
)
from rif_forge.cli import main
from rif_forge.sampling import BASE_LABELS
from rif_forge.terms import MAX_TERM_DEPTH, OPERATORS, RESERVED, AlgebraTerm, _Parser


class ParserOracle(_Parser):
    """The parser with one branch per constructor word, verbatim."""

    def term(self) -> AlgebraTerm:
        tok = self.peek()
        if tok.kind != "name":
            self.fail(("name",) + RESERVED[1:] + ("'top'",))
        self.advance()
        word = tok.text
        if word == "top":
            return TopTerm()
        if word == "otimes":
            self.expect_symbol("(")
            left = self.term()
            self.expect_symbol(",")
            right = self.term()
            self.expect_symbol(")")
            return ProductTerm(left, right)
        if word == "oplus":
            self.expect_symbol("(")
            alpha = self.rational()
            self.expect_symbol(",")
            left = self.term()
            self.expect_symbol(",")
            right = self.term()
            self.expect_symbol(")")
            return AlphaSumTerm(alpha, left, right)
        if word == "sharp":
            return SharpTerm(self.unary())
        if word == "flat":
            return FlatTerm(self.unary())
        if word == "sigma":
            return SigmaTerm(self.unary())
        if word == "pow":
            self.expect_symbol("(")
            inner = self.term()
            self.expect_symbol(",")
            n = self.integer()
            self.expect_symbol(")")
            return PowerTerm(inner, n)
        if word == "kst":
            self.expect_symbol("(")
            inner = self.term()
            self.expect_symbol(",")
            low = self.rational()
            self.expect_symbol(",")
            high = self.rational()
            self.expect_symbol(")")
            return KstTerm(inner, low, high)
        return BaseTerm(word)

    def unary(self) -> AlgebraTerm:
        self.expect_symbol("(")
        inner = self.term()
        self.expect_symbol(")")
        return inner


def oracle_random_wqrif_term(rng: Random, depth: int = 2) -> AlgebraTerm:
    """The sampler with one branch per constructor word, verbatim."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.15:
            return TopTerm()
        return BaseTerm(rng.choice(BASE_LABELS))
    kind = rng.choice(("otimes", "oplus", "sharp", "flat", "sigma", "pow", "kst"))
    if kind == "otimes":
        return ProductTerm(oracle_random_wqrif_term(rng, depth - 1), oracle_random_wqrif_term(rng, depth - 1))
    if kind == "oplus":
        return AlphaSumTerm(
            random_unit_rational(rng),
            oracle_random_wqrif_term(rng, depth - 1),
            oracle_random_wqrif_term(rng, depth - 1),
        )
    if kind == "sharp":
        return SharpTerm(oracle_random_wqrif_term(rng, depth - 1))
    if kind == "flat":
        return FlatTerm(oracle_random_wqrif_term(rng, depth - 1))
    if kind == "sigma":
        return SigmaTerm(oracle_random_wqrif_term(rng, depth - 1))
    if kind == "pow":
        return PowerTerm(oracle_random_wqrif_term(rng, depth - 1), rng.randint(1, 3))
    low, high = random_thresholds(rng)
    if rng.random() < 0.3:
        high = Fraction(1)
    return KstTerm(oracle_random_wqrif_term(rng, depth - 1), low, high)


def outcome(parser_class, text: str):
    """The parsed tree with its repr (which tells an int 2 from a Fraction 2),
    or the raised error as (type, message, position, expected)."""
    try:
        tree = parser_class(text).parse()
        return tree, repr(tree)
    except Exception as exc:  # compared field by field below
        return (type(exc), str(exc), getattr(exc, "position", None), getattr(exc, "expected", None))


# -- strategies ---------------------------------------------------------------

_numbers = st.sampled_from(["0", "1", "2", "3", "7", "12"])
_rationals = st.one_of(_numbers, st.builds(lambda n, d: f"{n}/{d}", _numbers, _numbers))
_leaves = st.sampled_from(["k0", "k1", "k2", "top", "base", "_x9"])


def _applications(child):
    return st.one_of(
        st.builds(lambda a, b: f"otimes({a},{b})", child, child),
        st.builds(lambda r, a, b: f"oplus({r}, {a}, {b})", _rationals, child, child),
        st.builds(lambda w, a: f"{w}( {a} )", st.sampled_from(["sharp", "flat", "sigma"]), child),
        st.builds(lambda a, n: f"pow({a},{n})", child, _rationals),
        st.builds(lambda a, r, q: f"kst({a},{r},{q})", child, _rationals, _rationals),
    )


_well_formed = st.recursive(_leaves, _applications, max_leaves=6)

_pieces = st.one_of(
    st.sampled_from(RESERVED + ("k0", "k1", "base")),
    _numbers,
    st.sampled_from(["(", ")", ",", "/", " ", "\t"]),
    st.sampled_from(["&", "-", "1.5", "#", "é", ")(", ",,"]),
)
_soup = st.lists(_pieces, max_size=14).map("".join)

_TOKEN_TEXT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+|\S")


@st.composite
def _mutated(draw):
    """A well-formed term with one token dropped, replaced or inserted."""
    tokens = _TOKEN_TEXT.findall(draw(_well_formed))
    at = draw(st.integers(0, len(tokens)))
    piece = draw(_pieces)
    how = draw(st.sampled_from(["drop", "replace", "insert"]))
    if how == "insert" or at == len(tokens):
        tokens.insert(at, piece)
    elif how == "drop":
        del tokens[at]
    else:
        tokens[at] = piece
    return " ".join(tokens)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_well_formed, _mutated(), _soup))
def test_table_parser_matches_branch_parser(text):
    assert outcome(_Parser, text) == outcome(ParserOracle, text)


def test_reserved_words_come_from_the_table():
    assert RESERVED == ("top", "otimes", "oplus", "sharp", "flat", "sigma", "pow", "kst")
    assert RESERVED[1:] == tuple(OPERATORS)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_sampler_matches_branch_sampler(depth):
    for seed in range(1000):
        rng, oracle_rng = Random(seed), Random(seed)
        assert random_wqrif_term(rng, depth) == oracle_random_wqrif_term(oracle_rng, depth), seed
        assert rng.getstate() == oracle_rng.getstate(), seed


# -- the nesting cap ---------------------------------------------------------


def nested(depth: int) -> str:
    return "sharp(" * depth + "k0" + ")" * depth


def test_terms_at_the_cap_parse():
    term = parse_term(nested(MAX_TERM_DEPTH))
    for _ in range(MAX_TERM_DEPTH):
        term = term.inner
    assert term == BaseTerm("k0")
    # the cap counts open operators, whatever their argument position
    deep_right = "oplus(1/2,k0," * MAX_TERM_DEPTH + "k1" + ")" * MAX_TERM_DEPTH
    assert isinstance(parse_term(deep_right), AlphaSumTerm)


def test_one_level_past_the_cap_names_the_limit():
    with pytest.raises(TermParseError) as exc:
        parse_term(nested(MAX_TERM_DEPTH + 1))
    assert str(MAX_TERM_DEPTH) in str(exc.value)
    assert exc.value.position == len("sharp(") * MAX_TERM_DEPTH


def test_classify_at_the_cap():
    result = CliRunner().invoke(main, ["classify", str(FIXTURE_PATH), nested(MAX_TERM_DEPTH)])
    assert result.exit_code in (0, 1), result.exception
    assert result.stdout.startswith("class: ")
    assert result.stderr == ""


@pytest.mark.parametrize("depth", [MAX_TERM_DEPTH + 1, 1200])
def test_classify_past_the_cap_is_an_input_error(depth):
    result = CliRunner().invoke(main, ["classify", str(FIXTURE_PATH), nested(depth)])
    assert result.exit_code == 2, result.exception
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert str(MAX_TERM_DEPTH) in lines[0]
