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
functions.  A node checks its weight, exponent or thresholds by the check
its operator runs, so it refuses what the operator refuses, with the same
error.  Operators nest at most MAX_TERM_DEPTH deep.  A pow exponent
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
from itertools import chain
from operator import itemgetter
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
        algebra._check_alpha(self.alpha)


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
        algebra._check_exponent(self.n)


@dataclass(frozen=True)
class KstTerm:
    inner: "AlgebraTerm"
    low: Fraction
    high: Fraction

    def __post_init__(self):
        inclusion._check_thresholds(self.low, self.high)


AlgebraTerm = Union[
    BaseTerm, TopTerm, ProductTerm, AlphaSumTerm, SharpTerm, FlatTerm, SigmaTerm, PowerTerm, KstTerm
]


@dataclass(frozen=True)
class Operator:
    """One term constructor.

    kinds gives each argument's kind in the node's field order: "term",
    "rational" or "integer"; the parser reads the last two by the methods
    of those names.  build takes the evaluated arguments in the same order.
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


# -- parsing ------------------------------------------------------------------

# Each match is a token after its leading whitespace, or the first
# character that starts no token (bad); the groups tell the kind.
_TOKEN = re.compile(r"(\s*)(?:([A-Za-z_][A-Za-z_0-9]*)|(\d+)|([(),/])|(\S))")
_END = ("",) * 5  # after the last (space, name, num, sym, bad) of _TOKEN.findall


class _Parser:
    """One loop over the tokens of one _TOKEN.findall, then _END, driven
    by OPERATORS, with a stack of frames (argument kinds, node type,
    arguments read): one per open operator, over one for the whole text.

    Errors are those of reading the tokens in turn, each at its token's
    position: the first character that starts no token, before any
    parsing; else the first token off the grammar ("unexpected ...", with
    what was expected there), an operator name past MAX_TERM_DEPTH open
    ones (before its "(" is read), a number too long to convert, a pow
    exponent past MAX_POW_EXPONENT, or a zero denominator.  A node whose
    arguments its operator refuses raises that refusal once its ")" is read."""

    def __init__(self, text: str):
        self.text, self.tokens = text, _TOKEN.findall(text)
        if any(map(itemgetter(4), self.tokens)):
            i = next(i for i, token in enumerate(self.tokens) if token[4])
            self.fail(i, ("name", "number", "'('"), f"unexpected character {self.tokens[i][4]!r}")
        self.tokens.append(_END)

    def fail(self, i: int, expected: tuple[str, ...], message: str = ""):
        """Raise TermParseError at token i, by default "unexpected <token>".
        The tokens matched and their whitespace cover the text but for
        trailing whitespace, so a position is a sum of lengths."""
        token = self.tokens[i]
        if token is _END:
            message, position = message or "unexpected end of input", len(self.text)
        else:
            message = message or f"unexpected {''.join(token[1:])!r}"
            position = sum(map(len, chain.from_iterable(self.tokens[:i]))) + len(token[0])
        raise TermParseError(message, position, expected)

    def parse(self) -> AlgebraTerm:
        tokens, i, stack = self.tokens, 0, [(("term",), None, [])]
        while True:
            word = tokens[i][1]  # a term starts at token i
            if not word:
                self.fail(i, ("name",) + RESERVED[1:] + ("'top'",))
            if (op := OPERATORS.get(word)) is None:
                stack[-1][2].append(TopTerm() if word == "top" else BaseTerm(word))
                i += 1
            elif len(stack) > MAX_TERM_DEPTH:
                self.fail(i, (), f"operators nest more than {MAX_TERM_DEPTH} deep")
            elif tokens[i + 1][3] != "(":
                self.fail(i + 1, ("'('",))
            else:
                stack.append((op.kinds, op.node, []))
                i += 2
            # read up to the next term, closing each frame its last argument completes
            while True:
                kinds, node, args = stack[-1]
                if len(args) == len(kinds):
                    if node is None:
                        return args[0] if tokens[i] is _END else self.fail(i, ("end of input",))
                    if tokens[i][3] != ")":
                        self.fail(i, ("')'",))
                    stack.pop()
                    stack[-1][2].append(node(*args))
                    i += 1
                    continue
                if args:
                    if tokens[i][3] != ",":
                        self.fail(i, ("','",))
                    i += 1
                if kinds[len(args)] == "term":
                    break
                value, i = getattr(self, kinds[len(args)])(i)
                args.append(value)

    def number(self, i: int, expected: str) -> int:
        if not (text := self.tokens[i][2]):
            self.fail(i, (expected,))
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
        self.fail(i, (), f"integer literal of {len(text)} digits is too long")

    def integer(self, i: int) -> tuple[int, int]:
        # the only integer argument is a pow exponent
        if (n := self.number(i, "integer")) > MAX_POW_EXPONENT:
            self.fail(i, (), f"pow exponent exceeds the limit of {MAX_POW_EXPONENT}")
        return n, i + 1

    def rational(self, i: int) -> tuple[Fraction, int]:
        numerator = self.number(i, "rational")
        if self.tokens[i + 1][3] != "/":
            return Fraction(numerator), i + 1
        if (denominator := self.number(i + 2, "integer denominator")) == 0:
            self.fail(i + 2, ("nonzero integer",), "zero denominator")
        return Fraction(numerator, denominator), i + 3


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
    """The built-in named functions available to terms: on a set-extensional
    space k0, k1 and k2, each built the first time it is read, so a term
    that names k0 alone builds k0 alone; on any other space, none."""
    # the builders look k0, k1 and k2 up when they run, so a wrapper bound
    # to those names later on (a profiler's, say) sees the builds
    return FunctionEnv({"k0": lambda: k0(s), "k1": lambda: k1(s), "k2": lambda: k2(s)}
                       if s.is_set_extensional else {})


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
    bindings = default_env(s)
    if env:
        bindings.update(env)
    return eval_term(parse_term(text), bindings, s)
