"""Term mini-language for composing inclusion functions.

Grammar, whitespace-insensitive:

    term     := NAME | "top"
              | "otimes" "(" term "," term ")"
              | "oplus"  "(" rational "," term "," term ")"
              | "sharp"  "(" term ")"
              | "flat"   "(" term ")"
              | "sigma"  "(" term ")"
              | "pow"    "(" term "," integer ")"
              | "kst"    "(" term "," rational "," rational ")"
    rational := INT | INT "/" INT

Each constructor is one row of OPERATORS: its node dataclass, the kinds of
its arguments in field order, and the function that builds its value.
The parser, the evaluator, RESERVED and the random term sampler all read
that table.  The constructor words are reserved and cannot name base
functions.  Operators nest at most MAX_TERM_DEPTH deep.  Parse errors
carry the offending position and the token set expected there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Mapping, Optional, Union

from . import algebra, inclusion
from .errors import InputError, ParameterError, ResolutionError, TermParseError
from .inclusion import InclusionFunction, k0, k1, k2
from .space import GranularSpace

MAX_TERM_DEPTH = 200


@dataclass(frozen=True)
class BaseTerm:
    label: str


@dataclass(frozen=True)
class TopTerm:
    pass


@dataclass(frozen=True)
class ProductTerm:
    left: "AlgebraTerm"
    right: "AlgebraTerm"


@dataclass(frozen=True)
class AlphaSumTerm:
    alpha: Fraction
    left: "AlgebraTerm"
    right: "AlgebraTerm"

    def __post_init__(self):
        if not (0 <= self.alpha <= 1):
            raise ParameterError(f"weight must lie in [0,1], got {self.alpha}")


@dataclass(frozen=True)
class SharpTerm:
    inner: "AlgebraTerm"


@dataclass(frozen=True)
class FlatTerm:
    inner: "AlgebraTerm"


@dataclass(frozen=True)
class SigmaTerm:
    inner: "AlgebraTerm"


@dataclass(frozen=True)
class PowerTerm:
    inner: "AlgebraTerm"
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"exponent must be a positive integer, got {self.n}")


@dataclass(frozen=True)
class KstTerm:
    inner: "AlgebraTerm"
    low: Fraction
    high: Fraction

    def __post_init__(self):
        if not (0 <= self.low < self.high <= 1):
            raise ParameterError(
                f"thresholds must satisfy 0 <= s < t <= 1, got s={self.low}, t={self.high}"
            )


AlgebraTerm = Union[
    BaseTerm, TopTerm, ProductTerm, AlphaSumTerm, SharpTerm, FlatTerm, SigmaTerm, PowerTerm, KstTerm
]


@dataclass(frozen=True)
class Operator:
    """One term constructor.

    kinds gives each argument's kind in the node's field order: "term",
    "rational" or "integer", which is also the name of the parser method
    that reads it.  build takes the evaluated arguments in the same order.
    """

    node: type
    kinds: tuple[str, ...]
    build: Callable[..., InclusionFunction]


def _late(module, name: str) -> Callable[..., InclusionFunction]:
    # The builder is looked up on every call, so a wrapper bound to
    # module.name later on (a profiler's, say) sees the calls made here.
    return lambda *args: getattr(module, name)(*args)


OPERATORS: dict[str, Operator] = {
    "otimes": Operator(ProductTerm, ("term", "term"), _late(algebra, "otimes")),
    "oplus": Operator(AlphaSumTerm, ("rational", "term", "term"), _late(algebra, "oplus")),
    "sharp": Operator(SharpTerm, ("term",), _late(algebra, "sharp")),
    "flat": Operator(FlatTerm, ("term",), _late(algebra, "flat")),
    "sigma": Operator(SigmaTerm, ("term",), _late(algebra, "sigma")),
    "pow": Operator(PowerTerm, ("term", "integer"), _late(algebra, "power")),
    "kst": Operator(KstTerm, ("term", "rational", "rational"), _late(inclusion, "kst")),
}

_BY_NODE = {op.node: op for op in OPERATORS.values()}

RESERVED = ("top",) + tuple(OPERATORS)


# -- lexing -------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<num>\d+)|(?P<sym>[(),/]))")


@dataclass(frozen=True)
class _Token:
    kind: str  # name, num, sym, end
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise TermParseError(
                f"unexpected character {stripped[0]!r}", at, ("name", "number", "'('")
            )
        for kind in ("name", "num", "sym"):
            if m.group(kind) is not None:
                tokens.append(_Token(kind, m.group(kind), m.start(kind)))
                break
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


# -- parsing ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        tok = self.peek()
        what = "end of input" if tok.kind == "end" else repr(tok.text)
        raise TermParseError(f"unexpected {what}", tok.position, expected)

    def expect_symbol(self, symbol: str) -> None:
        tok = self.peek()
        if tok.kind != "sym" or tok.text != symbol:
            self.fail((f"'{symbol}'",))
        self.advance()

    def parse(self) -> AlgebraTerm:
        term = self.term()
        if self.peek().kind != "end":
            self.fail(("end of input",))
        return term

    def term(self) -> AlgebraTerm:
        tok = self.peek()
        if tok.kind != "name":
            self.fail(("name",) + RESERVED[1:] + ("'top'",))
        self.advance()
        op = OPERATORS.get(tok.text)
        if op is None:
            return TopTerm() if tok.text == "top" else BaseTerm(tok.text)
        if self.depth == MAX_TERM_DEPTH:
            raise TermParseError(f"operators nest more than {MAX_TERM_DEPTH} deep", tok.position)
        self.depth += 1
        self.expect_symbol("(")
        args = []
        for i, kind in enumerate(op.kinds):
            if i:
                self.expect_symbol(",")
            args.append(getattr(self, kind)())
        self.expect_symbol(")")
        self.depth -= 1
        return op.node(*args)

    def integer(self) -> int:
        tok = self.peek()
        if tok.kind != "num":
            self.fail(("integer",))
        self.advance()
        return int(tok.text)

    def rational(self) -> Fraction:
        tok = self.peek()
        if tok.kind != "num":
            self.fail(("rational",))
        self.advance()
        numerator = int(tok.text)
        nxt = self.peek()
        if nxt.kind == "sym" and nxt.text == "/":
            self.advance()
            den_tok = self.peek()
            if den_tok.kind != "num":
                self.fail(("integer denominator",))
            self.advance()
            if int(den_tok.text) == 0:
                raise TermParseError("zero denominator", den_tok.position, ("nonzero integer",))
            return Fraction(numerator, int(den_tok.text))
        return Fraction(numerator)


def parse_term(text: str) -> AlgebraTerm:
    return _Parser(text).parse()


# -- evaluation ---------------------------------------------------------------


def default_env(s: GranularSpace) -> dict[str, InclusionFunction]:
    """The built-in named functions available to terms on a set-extensional
    space."""
    return {"k0": k0(s), "k1": k1(s), "k2": k2(s)}


def eval_term(
    term: AlgebraTerm,
    env: Mapping[str, InclusionFunction],
    s: GranularSpace,
) -> InclusionFunction:
    op = _BY_NODE.get(type(term))
    if op is not None:
        args = []
        for kind, field in zip(op.kinds, fields(term)):
            value = getattr(term, field.name)
            args.append(eval_term(value, env, s) if kind == "term" else value)
        return op.build(*args)
    if isinstance(term, TopTerm):
        return algebra.top_function(s)
    if not isinstance(term, BaseTerm):
        raise InputError(f"unknown term node {term!r}")
    try:
        f = env[term.label]
    except KeyError:
        bound = ", ".join(sorted(env)) or "nothing"
        raise ResolutionError(f"name {term.label!r} is not bound (have: {bound})") from None
    if f.space != s:
        raise InputError(f"function {term.label!r} is bound over a different space")
    return f


def evaluate(text: str, s: GranularSpace, env: Optional[Mapping[str, InclusionFunction]] = None) -> InclusionFunction:
    """Parse and evaluate text against the default environment (plus env)."""
    bindings = default_env(s) if s.is_set_extensional else {}
    if env:
        bindings.update(env)
    return eval_term(parse_term(text), bindings, s)
