"""Information tables and the classical rough approximations they induce.

An information table assigns every object, per attribute, a finite set of
opaque value tokens.  Objects with identical assignments on a chosen
attribute subset are indiscernible; the resulting partition drives the
classical lower/upper approximations and the power-set space construction.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import InputError, ParameterError
from .space import GranularSpace, check_partition, powerset_space

CSV_OBJECT_COLUMN = "object"


@dataclass(frozen=True)
class InformationTable:
    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    valuation: Mapping[tuple[str, str], frozenset[str]]

    def __post_init__(self):
        if len(set(self.objects)) != len(self.objects):
            raise InputError("object ids must be unique")
        if len(set(self.attributes)) != len(self.attributes):
            raise InputError("attribute names must be unique")
        for a in self.attributes:
            for x in self.objects:
                if (a, x) not in self.valuation:
                    raise InputError(f"valuation missing for attribute {a!r}, object {x!r}")

    def value(self, attribute: str, obj: str) -> frozenset[str]:
        return self.valuation[(attribute, obj)]


@dataclass(frozen=True)
class EquivalenceRelation:
    """A partition of a carrier, block order deterministic."""

    carrier: frozenset[str]
    blocks: tuple[frozenset[str], ...]

    def __post_init__(self):
        check_partition(self.blocks, self.carrier, "the carrier")

    def block_of(self, x: str) -> frozenset[str]:
        for b in self.blocks:
            if x in b:
                return b
        raise InputError(f"object {x!r} is not in the carrier")

    def related(self, x: str, y: str) -> bool:
        return y in self.block_of(x)


def derive_indiscernibility(table: InformationTable, attrs: Sequence[str]) -> EquivalenceRelation:
    """Partition objects by equality of their value sets on attrs."""
    if not attrs:
        raise InputError("need at least one attribute")
    for a in attrs:
        if a not in table.attributes:
            raise InputError(f"unknown attribute {a!r}")
    signature = lambda x: tuple(table.valuation[(a, x)] for a in attrs)
    groups: dict[tuple, list[str]] = {}
    for x in table.objects:
        groups.setdefault(signature(x), []).append(x)
    blocks = tuple(frozenset(members) for members in groups.values())
    return EquivalenceRelation(carrier=frozenset(table.objects), blocks=blocks)


def classical_lower(relation: EquivalenceRelation, subset: Iterable[str]) -> frozenset[str]:
    """Union of the blocks entirely inside the subset."""
    target = _checked_subset(relation, subset)
    inside = [b for b in relation.blocks if b <= target]
    return frozenset().union(*inside) if inside else frozenset()


def classical_upper(relation: EquivalenceRelation, subset: Iterable[str]) -> frozenset[str]:
    """Union of the blocks that touch the subset."""
    target = _checked_subset(relation, subset)
    touching = [b for b in relation.blocks if b & target]
    return frozenset().union(*touching) if touching else frozenset()


def _checked_subset(relation: EquivalenceRelation, subset: Iterable[str]) -> frozenset[str]:
    target = frozenset(subset)
    stray = target - relation.carrier
    if stray:
        raise InputError(f"objects outside the carrier: {sorted(stray)}")
    return target


def table_to_set_hgos(table: InformationTable, attrs: Sequence[str]) -> GranularSpace:
    """Power-set space over the table's objects, granulated by indiscernibility.

    The power set is materialized, so its size is bounded by the work
    budget (check_work).
    """
    relation = derive_indiscernibility(table, attrs)
    return powerset_space(table.objects, relation.blocks)


def read_table_csv(source, value_delimiter: str = "|") -> InformationTable:
    """Read a table from CSV: header row, first column 'object', remaining
    columns attributes.  Cells hold zero or more tokens split on the
    delimiter; surrounding whitespace per token is stripped."""
    if not value_delimiter:
        raise ParameterError("the value delimiter must not be empty")
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise InputError("CSV is empty, header row required")
    header = rows[0]
    if not header or header[0].strip() != CSV_OBJECT_COLUMN:
        raise InputError(f"first CSV column must be named {CSV_OBJECT_COLUMN!r}")
    attributes = [h.strip() for h in header[1:]]
    if any(not a for a in attributes):
        raise InputError("attribute names must be nonempty")

    objects: list[str] = []
    valuation: dict[tuple[str, str], frozenset[str]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise InputError(f"CSV line {lineno} has {len(row)} cells, expected {len(header)}")
        obj = row[0].strip()
        if not obj:
            raise InputError(f"CSV line {lineno} has an empty object id")
        objects.append(obj)
        for attr, cell in zip(attributes, row[1:]):
            valuation[(attr, obj)] = _split_cell(cell, value_delimiter)

    return InformationTable(
        objects=tuple(objects),
        attributes=tuple(attributes),
        valuation=valuation,
    )


def _split_cell(cell: str, delimiter: str) -> frozenset[str]:
    tokens = [t.strip() for t in cell.split(delimiter)]
    return frozenset(t for t in tokens if t)
