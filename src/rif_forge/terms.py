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
functions.  Operators nest at most MAX_TERM_DEPTH deep.  A pow exponent
is at most MAX_POW_EXPONENT, and so is the product of the exponents of the
pows nested on any path from the root, which evaluation checks before it
builds anything below such a pow.  Parse errors carry the offending
position and the token set expected there.
"""

from __future__ import annotations

import re
from collections.abc import MutableMapping
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Mapping, Optional, Union

from . import algebra, inclusion
from .errors import InputError, ParameterError, ResolutionError, TermParseError
from .inclusion import InclusionFunction, k0, k1, k2
from .space import GranularSpace

MAX_TERM_DEPTH = 200
MAX_POW_EXPONENT = 64


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
# Per node type, (kind, field name) of each argument, in field order.
_ARGUMENTS = {op.node: tuple(zip(op.kinds, [f.name for f in fields(op.node)])) for op in OPERATORS.values()}

RESERVED = ("top",) + tuple(OPERATORS)


# -- lexing -------------------------------------------------------------------

# Each match is a token after its leading whitespace, or the first
# character that starts no token (bad); the groups tell the kind.
_TOKEN = re.compile(r"(\s*)(?:([A-Za-z_][A-Za-z_0-9]*)|(\d+)|([(),/])|(\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token, kind name, num, sym or end,
    read in one findall: the whitespace and tokens matched cover the text
    but for trailing whitespace, so each position is a running sum."""
    tokens, pos = [], 0
    for space, name, num, sym, bad in _TOKEN.findall(text):
        pos += len(space)
        if bad:
            raise TermParseError(f"unexpected character {bad!r}", pos, ("name", "number", "'('"))
        tok = name or num or sym
        tokens.append(("name" if name else "num" if num else "sym", tok, pos))
        pos += len(tok)
    tokens.append(("end", "", len(text)))
    return tokens


# -- parsing ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        kind, text, position = self.peek()
        what = "end of input" if kind == "end" else repr(text)
        raise TermParseError(f"unexpected {what}", position, expected)

    def expect_symbol(self, symbol: str) -> None:
        kind, text, _ = self.peek()
        if kind != "sym" or text != symbol:
            self.fail((f"'{symbol}'",))
        self.advance()

    def parse(self) -> AlgebraTerm:
        term = self.term()
        if self.peek()[0] != "end":
            self.fail(("end of input",))
        return term

    def term(self) -> AlgebraTerm:
        kind, word, position = self.peek()
        if kind != "name":
            self.fail(("name",) + RESERVED[1:] + ("'top'",))
        self.advance()
        op = OPERATORS.get(word)
        if op is None:
            return TopTerm() if word == "top" else BaseTerm(word)
        if self.depth == MAX_TERM_DEPTH:
            raise TermParseError(f"operators nest more than {MAX_TERM_DEPTH} deep", position)
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

    def number(self, expected: str) -> int:
        kind, text, position = self.peek()
        if kind != "num":
            self.fail((expected,))
        self.advance()
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            raise TermParseError(f"integer literal of {len(text)} digits is too long", position) from None

    def integer(self) -> int:
        # the only integer argument is a pow exponent
        position = self.peek()[2]
        n = self.number("integer")
        if n > MAX_POW_EXPONENT:
            raise TermParseError(f"pow exponent exceeds the limit of {MAX_POW_EXPONENT}", position)
        return n

    def rational(self) -> Fraction:
        numerator = self.number("rational")
        if self.peek()[1] == "/":
            self.advance()
            position = self.peek()[2]
            denominator = self.number("integer denominator")
            if denominator == 0:
                raise TermParseError("zero denominator", position, ("nonzero integer",))
            return Fraction(numerator, denominator)
        return Fraction(numerator)


def parse_term(text: str) -> AlgebraTerm:
    return _Parser(text).parse()


def term_nodes(term: AlgebraTerm) -> int:
    """The number of nodes of term.  Evaluating it builds at most one
    function per node."""
    return 1 + sum(term_nodes(getattr(term, name))
                   for kind, name in _ARGUMENTS.get(type(term), ()) if kind == "term")


# -- evaluation ---------------------------------------------------------------


class FunctionEnv(MutableMapping):
    """Names bound to functions, some of them given as builders: a name's
    builder runs the first time the name's function is read (through [],
    get, items or values), and its function is kept.  Iterating and `in`
    build nothing.  Binding a name replaces its builder or function."""

    def __init__(self, builders: Mapping[str, Callable[[], InclusionFunction]]):
        self._builders = dict(builders)
        self._functions: dict[str, InclusionFunction] = {}

    def __getitem__(self, name: str) -> InclusionFunction:
        if name in self._builders:
            self._functions[name] = self._builders[name]()
            del self._builders[name]
        return self._functions[name]

    def __setitem__(self, name: str, f: InclusionFunction) -> None:
        self._builders.pop(name, None)
        self._functions[name] = f

    def __delitem__(self, name: str) -> None:
        if self._builders.pop(name, None) is None:
            del self._functions[name]

    def __contains__(self, name) -> bool:
        return name in self._functions or name in self._builders

    def __iter__(self):
        return iter([*self._functions, *self._builders])

    def __len__(self) -> int:
        return len(self._functions) + len(self._builders)


def default_env(s: GranularSpace) -> FunctionEnv:
    """The built-in named functions available to terms on a set-extensional
    space: k0, k1 and k2, each built the first time it is read, so a term
    that names k0 alone builds k0 alone."""
    # the builders look k0, k1 and k2 up when they run, so a wrapper bound
    # to those names later on (a profiler's, say) sees the builds
    return FunctionEnv({"k0": lambda: k0(s), "k1": lambda: k1(s), "k2": lambda: k2(s)})


def eval_term(
    term: AlgebraTerm,
    env: Mapping[str, InclusionFunction],
    s: GranularSpace,
) -> InclusionFunction:
    return _eval(term, env, s, 1)


def _eval(term: AlgebraTerm, env: Mapping[str, InclusionFunction], s: GranularSpace, exponent: int):
    """term's value; exponent is the product of the pow exponents above it,
    the power its numerators and denominator will be raised to."""
    op = _BY_NODE.get(type(term))
    if op is not None:
        if isinstance(term, PowerTerm):
            exponent *= term.n
            if exponent > MAX_POW_EXPONENT:
                raise ParameterError(f"nested pow exponents multiply to {exponent}, past the limit {MAX_POW_EXPONENT}")
        args = []
        for kind, name in _ARGUMENTS[type(term)]:
            value = getattr(term, name)
            args.append(_eval(value, env, s, exponent) if kind == "term" else value)
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
