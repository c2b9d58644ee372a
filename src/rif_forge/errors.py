"""Exception hierarchy.

Two families matter to the command line: input problems (malformed files,
unparsable terms, bad parameters) exit with code 2, semantic problems found
in otherwise well-formed data (missing carriers, undefined measures) exit
with code 1.  Everything derives from RifForgeError so library users can
catch broadly.
"""


class RifForgeError(Exception):
    """Base class for all errors raised by this package."""


class InputError(RifForgeError):
    """Malformed or inconsistent caller-supplied data."""


class ParameterError(InputError):
    """A numeric parameter is outside its admissible range."""


class SizeError(InputError):
    """A requested construction or check exceeds the work budget."""


class ResolutionError(InputError):
    """A term references a name that is not bound in the environment."""


class SpaceFormatError(InputError):
    """A space file is syntactically valid JSON but violates the schema."""


class StructuralError(InputError):
    """A space's components do not fit together (bad ids, partial tables
    pointing outside the universe, flavor constraints violated)."""


class TermParseError(InputError):
    """Syntax error in the term mini-language."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class SemanticError(RifForgeError):
    """Well-formed input, but the requested computation is not defined on it."""


class CarrierError(SemanticError):
    """An operation needed extensional carriers that are absent."""


class ClosureError(SemanticError):
    """A derived carrier is not the carrier of any element."""


class DegenerateSpaceError(SemanticError):
    """The space is too degenerate for the requested function (empty top)."""


class UndefinedMeasureError(SemanticError):
    """A measure's denominator vanishes (for instance an empty upper
    approximation in the accuracy degree)."""
