import dataclasses
import gc
import json
import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from rif_forge import (
    CarrierError,
    ClosureError,
    EquivalenceRelation,
    GranularSpace,
    InclusionFunction,
    InformationTable,
    InputError,
    LawReport,
    SizeError,
    SpaceFormatError,
    StructuralError,
    check_admissibility,
    check_laws,
    check_work,
    classify_flavor,
    find_element,
    granular_lower,
    granular_upper,
    k0,
    k1,
    k2,
    load_space,
    otimes,
    powerset_space,
    proper_part,
    random_kappa,
    render_carrier,
    save_space,
    sigma,
    space_from_dict,
    space_to_dict,
    table_to_set_hgos,
    validate_space,
    verify_prif,
)
from rif_forge.space import (
    _AXIOM_CHECKS, _KEPT_OBJECTS, _SET_LATTICE_AXIOMS, FLAVORS, WORK_BUDGET, AxiomReport, _extensionality_failure,
    _json_text, _powerset, representable_elements,
)

import reference_model as model
from fixture_data import APPROXIMATION_ROWS, FIXTURE_PATH


def chain_space(total_ops=True, carriers=None, flavor="GS"):
    """Three-element chain bot < m < top with parthood equal to order."""
    els = ["bot", "m", "top"]
    rank = {"bot": 0, "m": 1, "top": 2}
    rel = frozenset((a, b) for a in els for b in els if rank[a] <= rank[b])
    join = {(a, b): a if rank[a] >= rank[b] else b for a in els for b in els}
    meet = {(a, b): a if rank[a] <= rank[b] else b for a in els for b in els}
    if not total_ops:
        del join[("m", "top")]
    return GranularSpace(
        elements=els,
        parthood=rel,
        order=rel,
        join=join,
        meet=meet,
        granulation=["m"],
        lower={"bot": "bot", "m": "m", "top": "m"},
        upper={"bot": "bot", "m": "m", "top": "top"},
        bottom="bot",
        top="top",
        flavor=flavor,
        carriers=carriers,
    )


class TestRendering:
    def test_render_carrier_sorted_no_spaces(self):
        assert render_carrier(frozenset()) == "{}"
        assert render_carrier({"b", "a"}) == "{a,b}"
        assert render_carrier({"e", "a", "c", "b"}) == "{a,b,c,e}"


class TestStructuralValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(StructuralError):
            GranularSpace(
                elements=["a", "a"],
                parthood={("a", "a")},
                order={("a", "a")},
                join={},
                meet={},
                granulation=[],
                lower={"a": "a"},
                upper={"a": "a"},
                bottom="a",
                top="a",
            )

    def test_relation_outside_universe_rejected(self):
        with pytest.raises(StructuralError):
            GranularSpace(
                elements=["a"],
                parthood={("a", "ghost")},
                order={("a", "a")},
                join={},
                meet={},
                granulation=[],
                lower={"a": "a"},
                upper={"a": "a"},
                bottom="a",
                top="a",
            )

    def test_partial_lower_map_rejected(self):
        with pytest.raises(StructuralError):
            GranularSpace(
                elements=["a", "b"],
                parthood={("a", "a"), ("b", "b")},
                order={("a", "a"), ("b", "b")},
                join={},
                meet={},
                granulation=[],
                lower={"a": "a"},
                upper={"a": "a", "b": "b"},
                bottom="a",
                top="b",
            )

    def test_gs_needs_parthood_equal_order(self, fixture_space):
        raw = space_to_dict(fixture_space)
        raw["flavor"] = "GS"
        with pytest.raises(StructuralError):
            space_from_dict(raw)

    def test_hgos_needs_total_operations(self):
        with pytest.raises(StructuralError):
            chain_space(total_ops=False, flavor="HGOS")

    def test_set_hgos_needs_union_join(self):
        s = powerset_space(["x1", "x2"], [["x1"], ["x2"]])
        raw = space_to_dict(s)
        for row in raw["join"]:
            if row[0] == "{x1}" and row[1] == "{x2}":
                row[2] = "{x1}"
        with pytest.raises(StructuralError):
            space_from_dict(raw)

    def test_unknown_flavor_rejected(self):
        with pytest.raises(StructuralError):
            chain_space(flavor="LATTICE")


class TestFixtureAxioms:
    def test_all_axioms_hold(self, fixture_space):
        for report in validate_space(fixture_space):
            assert report.holds, (report.axiom, report.witnesses)

    def test_admissibility_holds(self, fixture_space):
        for report in check_admissibility(fixture_space):
            assert report.holds, (report.axiom, report.witnesses)

    def test_axiom_order(self, fixture_space):
        assert [r.axiom for r in validate_space(fixture_space)] == [
            "PT1", "PT2", "G1", "G2", "G3", "G4", "G5", "UL1", "UL2", "UL3", "TB",
        ]
        assert [r.axiom for r in check_admissibility(fixture_space)] == ["WRA", "LS", "FU"]

    def test_skip_counts_for_partial_operations(self, fixture_space):
        # Independently derived: joins/meets are undefined exactly when an
        # operand is bottom (17 ordered, 9 unordered pairs) or the union/
        # intersection falls outside the universe (7 unordered pairs:
        # {a}{e}, {a}{b,c}, {a,b}{b,c}, {a,b}{b,e}, {a,b}{b,c,e},
        # {b,c}{b,e}, {b,c}{a,b,e}).  G1 scans unordered pairs: 9 + 7.
        # G5 scans ordered pairs: 17 + 14.
        by_axiom = {r.axiom: r for r in validate_space(fixture_space)}
        assert by_axiom["G1"].skipped == 16
        assert by_axiom["G5"].skipped == 31
        assert by_axiom["PT1"].skipped == 0

    def test_parthood_counts(self, fixture_space):
        s = fixture_space
        assert sum(s.part(a, b) for a, b in s.pairs()) == 33
        assert sum(s.leq(a, b) for a, b in s.pairs()) == 25

    def test_parthood_coincides_with_inclusion_after_closure(self, fixture_space):
        s = fixture_space
        for a in s.elements:
            for b in s.elements:
                assert s.part(a, b) == (s.carrier_of(a) <= s.carrier_of(b))

    def test_order_is_strictly_smaller_than_parthood(self, fixture_space):
        s = fixture_space
        assert {ab for ab in s.pairs() if s.leq(*ab)} < {ab for ab in s.pairs() if s.part(*ab)}
        assert not s.leq("bot", "a")
        assert s.part("bot", "a")

    def test_meet_of_disjoint_elements_is_bottom(self, fixture_space):
        assert fixture_space.meet_of("a", "e") == "bot"

    def test_meet_outside_universe_is_undefined(self, fixture_space):
        # {b,e} and {b,c} intersect in {b}, which is not an element
        assert fixture_space.meet_of("be", "bc") is None

    def test_join_with_bottom_operand_is_undefined(self, fixture_space):
        assert fixture_space.join_of("bot", "a") is None
        assert fixture_space.meet_of("a", "bot") is None


class TestFixtureApproximations:
    def test_granular_maps_reproduce_stored_table(self, fixture_space):
        s = fixture_space
        for x in s.elements:
            assert granular_lower(s, x) == s.lower_of(x), x
            assert granular_upper(s, x) == s.upper_of(x), x

    def test_table_rows(self, fixture_space):
        s = fixture_space
        rows = sorted(
            (s.render(x), s.render(s.lower_of(x)), s.render(s.upper_of(x)))
            for x in s.elements
        )
        assert sorted(APPROXIMATION_ROWS) == rows

    def test_representable_elements(self, fixture_space):
        # {a,b} is the only element not expressible as a join of granules
        rep = representable_elements(fixture_space)
        assert rep == frozenset(fixture_space.elements) - {"ab"}

    def test_representable_depth_validation(self, fixture_space):
        with pytest.raises(InputError):
            representable_elements(fixture_space, term_depth=0)

    def test_unknown_element_rejected(self, fixture_space):
        with pytest.raises(InputError):
            granular_lower(fixture_space, "ghost")

    def test_missing_carriers_rejected(self):
        s = chain_space()
        with pytest.raises(CarrierError):
            granular_lower(s, "m")

    @pytest.mark.parametrize("granular", [granular_lower, granular_upper])
    def test_missing_carrier_names_the_first_element_without_one(self, granular):
        s = chain_space(carriers={"bot": frozenset(), "top": frozenset("x")})
        for x in s.elements:
            with pytest.raises(CarrierError, match=r"^element 'm' has no carrier$"):
                granular(s, x)


class TestFlavors:
    def test_fixture_is_ggs(self, fixture_space):
        assert classify_flavor(fixture_space) == "GGS"

    def test_chain_without_total_ops_is_gs(self):
        assert classify_flavor(chain_space(total_ops=False)) == "GS"

    def test_chain_with_total_ops_is_hgos(self):
        assert classify_flavor(chain_space()) == "HGOS"

    def test_powerset_is_set_hgos(self, singleton_space):
        assert classify_flavor(singleton_space) == "setHGOS"

    def test_extensional_chain_with_noninclusion_parthood_is_hgos(self):
        # carriers present but parthood is not carrier inclusion
        s = chain_space(carriers={"bot": frozenset(), "m": frozenset("x"), "top": frozenset("y")})
        assert classify_flavor(s) == "HGOS"

    @pytest.mark.parametrize(
        "breaks, failure",
        [
            ([("parthood", "{x1}", "{x1,x2}")], "parthood == inclusion"),
            ([("join", "{x1}", "{x2}", "{x1}")], "join == union"),
            ([("meet", "{x1}", "{x2}", "{x1}")], "meet == intersection"),
            # the first failing pair in element order decides, whatever its condition
            ([("join", "{x1}", "{x2}", "{x1}"), ("meet", "{}", "{x1}", "{x1}")], "meet == intersection"),
            ([("meet", "{x2}", "{x1,x2}", "{}"), ("parthood", "{x2}", "{x1,x2}")], "parthood == inclusion"),
        ],
    )
    def test_set_hgos_flavor_names_the_first_failed_condition(self, singleton_space, breaks, failure):
        d = space_to_dict(singleton_space)
        for key, a, b, *result in breaks:
            if key == "parthood":
                d["parthood"].remove([a, b])
                d["order"].remove([a, b])
            else:
                d[key] = [[x, y, result[0] if (x, y) == (a, b) else r] for x, y, r in d[key]]
        with pytest.raises(StructuralError) as exc:
            space_from_dict(d)
        assert str(exc.value) == f"flavor setHGOS requires {failure}"
        d["flavor"] = "HGOS"
        assert classify_flavor(space_from_dict(d)) == "HGOS"

    def test_set_hgos_flavor_checks_join_before_meet_within_a_pair(self, singleton_space):
        d = space_to_dict(singleton_space)
        for key in ("join", "meet"):
            d[key] = [[x, y, "{x1}" if (x, y) == ("{x1}", "{x2}") else r] for x, y, r in d[key]]
        with pytest.raises(StructuralError, match=r"^flavor setHGOS requires join == union$"):
            space_from_dict(d)


class TestPowerset:
    def test_universe_and_ids(self, singleton_space):
        assert singleton_space.elements == ("{}", "{x1}", "{x2}", "{x1,x2}")
        assert singleton_space.bottom == "{}"
        assert singleton_space.top == "{x1,x2}"

    def test_identity_partition_approximations(self, singleton_space):
        s = singleton_space
        for x in s.elements:
            assert s.lower_of(x) == x
            assert s.upper_of(x) == x

    def test_two_block_approximations(self, two_block_space):
        s = two_block_space
        x = "{x1}"
        assert s.lower_of(x) == "{}"
        assert s.upper_of(x) == "{x1,x2}"
        assert s.lower_of("{x1,x2}") == "{x1,x2}"

    def test_size_cap(self):
        objects = [f"o{i}" for i in range(17)]
        with pytest.raises(SizeError):
            powerset_space(objects, [objects])

    def test_bad_partition_rejected(self):
        with pytest.raises(InputError):
            powerset_space(["a", "b"], [["a"]])
        with pytest.raises(InputError):
            powerset_space(["a"], [["a"], ["a"]])

    def test_partition_messages(self):
        # the power-set and the table partitions share one validator but
        # name what the blocks must cover in their own terms
        with pytest.raises(InputError, match="^partition blocks must cover exactly the base objects$"):
            powerset_space(["a", "b"], [["a"]])
        with pytest.raises(InputError, match="^partition blocks must cover the carrier$"):
            EquivalenceRelation(frozenset({"a", "b"}), (frozenset({"a"}),))
        for build in (
            lambda blocks: powerset_space(["a", "b"], blocks),
            lambda blocks: EquivalenceRelation(frozenset({"a", "b"}), tuple(map(frozenset, blocks))),
        ):
            with pytest.raises(InputError, match="^partition blocks must be nonempty$"):
                build([["a", "b"], []])
            with pytest.raises(InputError, match="^partition blocks must be disjoint$"):
                build([["a", "b"], ["b"]])

    def test_axioms_hold(self, two_block_space):
        for report in validate_space(two_block_space) + check_admissibility(two_block_space):
            assert report.holds, (report.axiom, report.witnesses)


# -- powerset_space against its builder, which keeps nothing ------------------


def built_powerset_space(objects, blocks) -> GranularSpace:
    """powerset_space's builder without its cache: every table built afresh."""
    return _powerset.__wrapped__(tuple(sorted(objects)), frozenset(map(frozenset, blocks)))


def _partitions(names):
    """Every partition of names, as a list of blocks."""
    if not names:
        return [[]]
    first, rest = names[0], _partitions(names[1:])
    return [[[first], *p] for p in rest] + [
        [*p[:k], [first, *b], *p[k + 1:]] for p in rest for k, b in enumerate(p)]


# Every field of a space, the ones equality compares and those that follow from them.
_ALL_FIELDS = (*GranularSpace._FIELDS, "_index", "objects", "carrier_masks")


class TestSharedPowersetTables:
    """Up to _KEPT_OBJECTS objects, a partition seen before gets the space
    built for it, and at most 23 spaces are kept; spaces of different
    partitions keep their own granulation, approximations and derived data."""

    @staticmethod
    def partitions(names):
        """Two different partitions of names, given in no sorted order."""
        return [list(reversed(names))], [[x] for x in names]

    def assert_former(self, names, blocks):
        s, built = powerset_space(names, blocks), built_powerset_space(names, blocks)
        for field in _ALL_FIELDS:
            assert getattr(s, field) == getattr(built, field), field
        return s

    @pytest.mark.parametrize("n", range(1, 6))
    def test_equals_the_former_construction_field_by_field(self, n):
        names, renamed = [f"o{i}" for i in range(n, 0, -1)], [f"p{i}" for i in range(1, n + 1)]
        # a repeated tuple, a changed one, and the first again
        for objects in (names, names, renamed, names):
            for blocks in self.partitions(objects):
                self.assert_former(objects, blocks)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_spaces_over_the_same_objects_keep_their_own_partition(self, n):
        names = [f"o{i}" for i in range(1, n + 1)]
        coarse, fine = self.partitions(names)
        s, t = self.assert_former(names, coarse), self.assert_former(names, fine)
        # the same partition gives the same space; one object has one partition only
        assert (powerset_space(names, coarse) is s) == (n <= _KEPT_OBJECTS)
        assert (s is t) == (n == 1)
        if n > 1:
            assert s.granulation != t.granulation
            assert s.lower is not t.lower and s.upper is not t.upper and s._derived is not t._derived
            kept = set(t._derived)
            verify_prif(k0(s))
            sigma(k1(s))
            check_laws(s, [k2(s)], [])
            assert s._derived and set(t._derived) == kept
        assert space_to_dict(t) == space_to_dict(built_powerset_space(names, fine))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_a_partition_seen_before_returns_its_space(self, n):
        names, rng = [f"o{i}" for i in range(1, n + 1)], Random(n)
        for blocks in _partitions(names):
            first = self.assert_former(names, blocks)
            for _ in range(3):
                objects = rng.sample(names, n)
                shuffled = [rng.sample(sorted(b), len(b)) for b in rng.sample(blocks, len(blocks))]
                again = self.assert_former(objects, shuffled)
                assert (again is first) == (n <= _KEPT_OBJECTS), (objects, shuffled)
            # the blocks as a set are the kept partition's, but the inputs are still checked
            with pytest.raises(InputError, match="^partition blocks must be disjoint$"):
                powerset_space(names, blocks + blocks[:1])
            with pytest.raises(InputError, match="^base objects must be unique$"):
                powerset_space(names + names[:1], blocks)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_repeated_law_checks_equal_those_on_a_loaded_copy(self, n):
        names, rng = [f"o{i}" for i in range(1, n + 1)], Random(n)
        for blocks in self.partitions(names):
            s = powerset_space(names, blocks)
            copy = space_from_dict(space_to_dict(s))
            fns = [random_kappa(s, rng) for _ in range(3)] + [k0(s), sigma(k1(s))]
            copied = [InclusionFunction(copy, f.values, f.label) for f in fns]
            expected = check_laws(copy, copied, [Fraction(1, 3)])
            # the first call over the partition, then calls that read what it kept
            for _ in range(3):
                assert check_laws(powerset_space(names, blocks), fns, [Fraction(1, 3)]) == expected
            assert n == 1 or any(r.witnesses for r in expected)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_base_functions_equal_those_of_a_loaded_copy(self, n):
        names, renamed = [f"o{i}" for i in range(1, n + 1)], [f"q{i}" for i in range(1, n + 1)]
        spaces = [powerset_space(objects, blocks) for objects in (names, renamed, names)
                  for blocks in self.partitions(objects)]
        # each space twice: the first build of its rows, then the kept ones
        for s in spaces + spaces:
            copy = space_from_dict(space_to_dict(s))
            for build in (k0, k1, k2):
                f = build(s)
                assert f.space is s and f.label == build.__name__
                assert f.pointwise_equal(build(copy)), (n, s.objects, build.__name__)

    def test_at_most_23_spaces_are_kept(self):
        # every partition over 1 to 4 objects, twice under other names: 46 keys
        for prefix in ("o", "p"):
            for n in range(1, _KEPT_OBJECTS + 1):
                names = [f"{prefix}{i}" for i in range(1, n + 1)]
                for blocks in _partitions(names):
                    self.assert_former(names, blocks)
                    assert _powerset.cache_info().currsize <= 23
        # a 5-object space is built on each call and adds nothing to the cache
        names, before = [f"o{i}" for i in range(1, 6)], _powerset.cache_info()
        s = self.assert_former(names, [names])
        assert powerset_space(names, [names]) is not s
        assert _powerset.cache_info()[:2] == before[:2]

    @pytest.mark.parametrize("objects, blocks, shared", [
        (["a", "b", "a,b"], [["a"], ["b"], ["a,b"]], "{a,b}"),
        (["", "a"], [[""], ["a"]], "{}"),
        (["a", "b,c", "a,b", "c"], [["a", "b,c", "a,b", "c"]], "{a,b,c}"),
    ])
    def test_object_names_that_give_two_subsets_one_id_are_refused(self, objects, blocks, shared):
        message = f"^two subsets of the base objects have the id {re.escape(repr(shared))}$"
        for _ in range(2):  # a refused build is not kept
            with pytest.raises(InputError, match=message):
                powerset_space(objects, blocks)


class TestSerialization:
    def test_fixture_roundtrip(self, fixture_space):
        again = space_from_dict(space_to_dict(fixture_space))
        assert again == fixture_space

    def test_save_load_roundtrip(self, tmp_path, fixture_space):
        path = tmp_path / "s.json"
        save_space(fixture_space, path)
        assert load_space(path) == fixture_space

    def test_missing_key_rejected(self, fixture_space):
        raw = space_to_dict(fixture_space)
        del raw["granulation"]
        with pytest.raises(SpaceFormatError, match="granulation"):
            space_from_dict(raw)

    def test_bad_pair_shape_rejected(self, fixture_space):
        raw = space_to_dict(fixture_space)
        raw["parthood"][0] = ["bot"]
        with pytest.raises(SpaceFormatError):
            space_from_dict(raw)

    def test_granular_mode_matches_explicit_maps(self, fixture_space):
        raw = space_to_dict(fixture_space)
        raw["lower"] = "granular"
        raw["upper"] = "granular"
        derived = space_from_dict(raw)
        assert derived.lower == fixture_space.lower
        assert derived.upper == fixture_space.upper

    def test_granular_mode_requires_carriers(self, fixture_space):
        raw = space_to_dict(fixture_space)
        raw["lower"] = "granular"
        for entry in raw["elements"]:
            entry.pop("carrier", None)
        with pytest.raises(SpaceFormatError):
            space_from_dict(raw)

    def test_granular_mode_closure_failure(self, fixture_space):
        # dropping {b,e} from the universe makes upper({e}) underivable
        raw = space_to_dict(fixture_space)
        raw["elements"] = [e for e in raw["elements"] if e["id"] != "be"]
        for key in ("parthood", "order"):
            raw[key] = [p for p in raw[key] if "be" not in p]
        for key in ("join", "meet"):
            raw[key] = [t for t in raw[key] if "be" not in t]
        raw["granulation"] = [g for g in raw["granulation"] if g != "be"]
        raw["lower"] = "granular"
        raw["upper"] = "granular"
        with pytest.raises(ClosureError):
            space_from_dict(raw)

    def test_malformed_json_propagates(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            load_space(path)

    def test_an_integer_literal_past_the_int_limit_is_a_decode_error(self, tmp_path):
        # json raises a plain ValueError for it; digits in a string, a
        # fraction or an exponent are no integer literal
        path = tmp_path / "big.json"
        long = "9" * 4301
        path.write_text(f'{{"x": ["{long}", 0.{long}, 1e+{long}], "elements": [-{long}]}}', encoding="utf-8")
        with pytest.raises(json.JSONDecodeError, match="integer literal of more than 4,300 digits") as exc:
            load_space(path)
        assert exc.value.pos == path.read_text(encoding="utf-8").index("-9")


def _exchange_ids(doc: dict, x: str, y: str) -> None:
    """Exchange the ids x and y in every section of doc but elements."""
    def swapped(v):
        if isinstance(v, list):
            return [swapped(u) for u in v]
        return {x: y, y: x}.get(v, v) if isinstance(v, str) else v
    doc.update({key: swapped(v) for key, v in doc.items() if key != "elements"})


def _exchange_entries(doc: dict, x: str, y: str) -> None:
    """Exchange the element entries of x and y, each keeping its carrier,
    and so make each id name the other's row of every table."""
    els = doc["elements"]
    i, j = (next(k for k, e in enumerate(els) if e["id"] == eid) for eid in (x, y))
    els[i], els[j] = els[j], els[i]
    _exchange_ids(doc, x, y)


def _exchange_carriers(doc: dict, x: str, y: str) -> None:
    entries = {e["id"]: e for e in doc["elements"]}
    entries[x]["carrier"], entries[y]["carrier"] = entries[y]["carrier"], entries[x]["carrier"]


# For each field GranularSpace.__eq__ compares: an edit of the fixture
# document, and an edit the fixture needs first for the second to change
# that field alone (the fixture's parthood is not its order, so it cannot
# be declared GS as it stands).  The fixture is GGS, so no flavor step
# refuses an edit to a relation, operation or map.
_FIELD_EDITS = {
    "elements": (None, lambda d: _exchange_entries(d, "ab", "abe")),
    "carriers": (None, lambda d: _exchange_carriers(d, "ab", "abe")),
    "granulation": (None, lambda d: d["granulation"].reverse()),
    "bottom": (None, lambda d: d.update(bottom="a")),
    "top": (None, lambda d: d.update(top="abe")),
    "flavor": (lambda d: d.update(order=d["parthood"]), lambda d: d.update(flavor="GS")),
    "parthood": (None, lambda d: d["parthood"].pop()),
    "order": (None, lambda d: d["order"].pop()),
    "join": (None, lambda d: d["join"].pop()),
    "meet": (None, lambda d: d["meet"].pop()),
    "lower": (None, lambda d: d["lower"][-1].__setitem__(1, "bot")),
    "upper": (None, lambda d: d["upper"][0].__setitem__(1, "top")),
}


class TestEquality:
    def test_every_compared_field_has_an_edit(self):
        assert sorted(_FIELD_EDITS) == sorted(GranularSpace._FIELDS)

    @pytest.mark.parametrize("field", GranularSpace._FIELDS)
    def test_spaces_differing_in_one_field_are_unequal(self, field, fixture_space):
        first, edit = _FIELD_EDITS[field]
        doc = json.loads(FIXTURE_PATH.read_text())
        if first:
            first(doc)
        base = space_from_dict(json.loads(json.dumps(doc)))
        edit(doc)
        copy = space_from_dict(json.loads(json.dumps(doc)))
        assert [k for k in GranularSpace._FIELDS if getattr(copy, k) != getattr(base, k)] == [field]
        assert copy != base and base != copy
        assert copy != fixture_space
        assert copy == space_from_dict(json.loads(json.dumps(doc)))
        with pytest.raises(InputError):
            otimes(k0(fixture_space), k0(copy))


# strings json.dumps must escape: quotes, backslashes, control characters
# and non-ASCII text, and the % that the row templates format with
_json_strings = st.text() | st.text(alphabet='"\\%/\n\t\x00\x1f\x7fé€😀ab', max_size=8)
_json_scalars = st.none() | st.booleans() | st.integers() | _json_strings
# lists of equal-width lists (or tuples) of strings, the shape of a
# document's relation, operation and map sections
_json_tables = st.integers(1, 4).flatmap(lambda width: st.lists(
    st.lists(_json_strings, min_size=width, max_size=width)
    | st.tuples(*[_json_strings] * width), min_size=1, max_size=6))
_json_values = st.recursive(
    _json_scalars | _json_tables,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_json_strings, inner, max_size=4),
    max_leaves=30,
)


class TestJsonText:
    """_json_text writes what json.dumps(indent=2) writes, the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(value=_json_values)
    def test_equals_json_dumps(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        10**200, -(2**70), [], {}, [[]], [[], []], [["a"], ["b", "c"]], [["a", 1]], [["a", ["b"]]],
        {"rows": [["%s", "%%"], ["%d", "\\"]]}, [True, False, None, 0],
    ])
    def test_equals_json_dumps_on_edge_cases(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    def test_equals_json_dumps_on_a_space_document(self, fixture_space):
        objects = [f"o{i}" for i in range(4)]
        for s in (fixture_space, powerset_space(objects, [objects[:1], objects[1:]])):
            doc = space_to_dict(s)
            assert _json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("value", [
        1.5, [0.0], {"a": float("nan")}, {1: "a"}, {"a": {None: 1}}, {("a", "b"): 1}, {True: 1},
        b"bytes", {"a", "b"}, object(), [["a", "b"], ["c", 1.5]],
    ])
    def test_other_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            _json_text(value)


def _two_object_document(**changes) -> str:
    """The power set of two objects as JSON text, with some sections replaced."""
    return json.dumps(space_to_dict(powerset_space(["a", "b"], [["a", "b"]])) | changes)


class TestLoadPausesTheCollector:
    @pytest.fixture(params=[True, False], ids=["collector on", "collector off"])
    def collector(self, request):
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    @pytest.fixture()
    def power_set_file(self, tmp_path):
        objects = [f"o{i}" for i in range(6)]
        path = tmp_path / "power_set.json"
        path.write_text(json.dumps(space_to_dict(powerset_space(objects, [objects[:2], objects[2:]]))),
                        encoding="utf-8")
        return path

    def test_no_collection_runs_inside_a_load(self, power_set_file):
        before = gc.isenabled()
        gc.enable()
        started = []

        def count(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.callbacks.append(count)
        try:
            s = load_space(power_set_file)
        finally:
            gc.callbacks.remove(count)
            (gc.enable if before else gc.disable)()
        assert len(s.elements) == 64
        assert started == []

    def test_a_load_leaves_the_collector_as_it_was(self, collector, power_set_file):
        load_space(power_set_file)
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("text, error", [
        (None, OSError),  # the path is a directory
        ("{not json", json.JSONDecodeError),
        ("[]", SpaceFormatError),
        ('{"elements": "x"}', SpaceFormatError),
        (_two_object_document(flavor="XYZ"), StructuralError),
        (_two_object_document(elements=[{"id": f"e{i}"} for i in range(4000)]), SizeError),
    ], ids=["unreadable", "malformed", "not an object", "missing keys", "structural", "size"])
    def test_a_failed_load_leaves_the_collector_as_it_was(self, collector, tmp_path, text, error):
        path = tmp_path / "space.json"
        if text is None:
            path = tmp_path
        else:
            path.write_text(text, encoding="utf-8")
        with pytest.raises(error):
            load_space(path)
        assert gc.isenabled() is collector


class TestFindElement:
    def test_by_id(self, fixture_space):
        assert find_element(fixture_space, "ab") == "ab"

    def test_by_carrier(self, fixture_space):
        assert find_element(fixture_space, "{a,b}") == "ab"
        assert find_element(fixture_space, "{}") == "bot"

    def test_unknown_token(self, fixture_space):
        with pytest.raises(InputError):
            find_element(fixture_space, "{z}")


class TestAxiomReport:
    def test_holds_follows_witnesses(self):
        for witnesses in ((), (("a",),), (("a",), ("b",))):
            axiom, law = AxiomReport.of("PT1", iter(witnesses)), LawReport("Comm", witnesses)
            assert axiom.witnesses == law.witnesses == witnesses
            assert axiom.holds is law.holds is (not witnesses)
        for cls, name in ((AxiomReport, "axiom"), (LawReport, "law")):
            # a report cannot be built, or changed, to contradict its witnesses
            assert "holds" not in [f.name for f in dataclasses.fields(cls)]
            with pytest.raises(TypeError):
                cls(**{name: "X"}, holds=True, witnesses=(("a",),))
            with pytest.raises(AttributeError):
                cls(**{name: "X"}, witnesses=(("a",),)).holds = True

    def test_proper_part(self, fixture_space):
        assert proper_part(fixture_space, "a", "ab")
        assert not proper_part(fixture_space, "a", "a")


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=4))
def test_random_powerset_spaces_satisfy_all_axioms(data, n):
    objects = [f"o{i}" for i in range(n)]
    indices = data.draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n)
    )
    groups: dict[int, list[str]] = {}
    for obj, idx in zip(objects, indices):
        groups.setdefault(idx, []).append(obj)
    blocks = list(groups.values())
    s = powerset_space(objects, blocks)
    for report in validate_space(s):
        assert report.holds, (report.axiom, report.witnesses)
    by_axiom = {r.axiom: r for r in check_admissibility(s)}
    assert by_axiom["WRA"].holds
    assert by_axiom["LS"].holds
    # a single all-covering block leaves no definite strict superset for FU
    assert by_axiom["FU"].holds == (len(blocks) >= 2)


# -- validate_space against the independent model (tests/reference_model.py) --


def assert_validates_as_the_model(s: GranularSpace, doc=None) -> None:
    """validate_space(s) gives the reports reference_model.validate scans
    on doc, or on the document s writes."""
    m = model.Space(space_to_dict(s) if doc is None else doc)
    assert [(r.axiom, r.witnesses, r.skipped) for r in validate_space(s)] == model.validate(m)


@st.composite
def ggs_documents(draw):
    """A GGS space document of 1-7 elements with random relations, partial
    join and meet, up to three granules and random lower and upper maps.  Table entries, maps,
    bottom and top lean to the last element and to undefined entries, where
    an index of -1 read without a guard would land."""
    n = draw(st.integers(min_value=1, max_value=7))
    els = [f"e{i}" for i in range(n)]
    target = st.one_of(st.just(n - 1), st.integers(min_value=0, max_value=n - 1))
    entry = st.one_of(st.none(), target)

    def pairs():
        keep = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        return [[a, b] for (a, b), k in zip(((a, b) for a in els for b in els), keep) if k]

    def table():
        cells = draw(st.lists(entry, min_size=n * n, max_size=n * n))
        return [[a, b, els[r]] for (a, b), r in zip(((a, b) for a in els for b in els), cells) if r is not None]

    return {
        "elements": [{"id": e} for e in els],
        "parthood": pairs(),
        "order": pairs(),
        "join": table(),
        "meet": table(),
        "granulation": draw(st.lists(st.sampled_from(els), unique=True, max_size=3)),
        "lower": [[e, els[draw(target)]] for e in els],
        "upper": [[e, els[draw(target)]] for e in els],
        "bottom": els[draw(target)],
        "top": els[draw(target)],
        "flavor": "GGS",
    }


class TestValidateSpaceOracle:
    @settings(max_examples=300, deadline=None)
    @given(doc=ggs_documents())
    def test_random_ggs_spaces(self, doc):
        """validate_space against reference_model.validate on partial operations."""
        assert_validates_as_the_model(space_from_dict(doc), doc)

    @settings(max_examples=12, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=2, max_value=6))
    def test_powersets(self, data, n):
        """validate_space against reference_model.validate on the model's own power-set document."""
        objects = [f"o{i}" for i in range(n)]
        labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        blocks: dict[int, list[str]] = {}
        for obj, label in zip(objects, labels):
            blocks.setdefault(label, []).append(obj)
        s = powerset_space(objects, list(blocks.values()))
        assert_validates_as_the_model(s, model.powerset_document(objects, list(blocks.values())))

    def test_fixture_two_block_and_broken_lower(self, fixture_space, two_block_space):
        """validate_space against reference_model.validate, with UL witnesses where lower is broken."""
        broken = space_to_dict(two_block_space)
        broken["lower"] = [[x, "{x1,x2,x3}" if x == "{x3}" else low] for x, low in broken["lower"]]
        for s in (fixture_space, two_block_space, space_from_dict(broken)):
            assert_validates_as_the_model(s)
        assert not all(r.holds for r in validate_space(space_from_dict(broken)))


# -- the set-lattice theorem behind validate_space -----------------------------


def _lattice_document(draw, flavor="setHGOS"):
    """A space document over a random family of sets on 1-4 objects, closed
    under union and intersection, in a drawn element order: parthood and
    order are inclusion, join is union and meet intersection.  Lower and
    upper are derived from granules ('granular') when the family holds the
    empty set, else drawn at random, as are the granulation, bottom and top."""
    k = draw(st.integers(1, 4))
    objs = [f"o{i}" for i in range(k)]
    family = set(draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=5)))
    while True:
        closed = family | {a | b for a in family for b in family} | {a & b for a in family for b in family}
        if closed == family:
            break
        family = closed
    masks = draw(st.permutations(sorted(family)))
    ids = [f"e{i}" for i in range(len(masks))]
    at = dict(zip(masks, ids))
    inclusion = [[at[a], at[b]] for a in masks for b in masks if a & b == a]
    some_id = st.sampled_from(ids)
    maps = "granular" if 0 in family and draw(st.booleans()) else None
    return {
        "elements": [{"id": at[m], "carrier": [o for i, o in enumerate(objs) if m >> i & 1]} for m in masks],
        "parthood": inclusion,
        "order": inclusion,
        "join": [[at[a], at[b], at[a | b]] for a in masks for b in masks],
        "meet": [[at[a], at[b], at[a & b]] for a in masks for b in masks],
        "granulation": draw(st.lists(some_id, unique=True, max_size=3)),
        "lower": maps or [[x, draw(some_id)] for x in ids],
        "upper": maps or [[x, draw(some_id)] for x in ids],
        "bottom": draw(some_id),
        "top": draw(some_id),
        "flavor": flavor,
    }


def _drawn_partition(draw, objects):
    labels = draw(st.lists(st.integers(0, len(objects) - 1), min_size=len(objects), max_size=len(objects)))
    blocks: dict[int, list[str]] = {}
    for obj, label in zip(objects, labels):
        blocks.setdefault(label, []).append(obj)
    return list(blocks.values())


@st.composite
def set_hgos_spaces(draw, path):
    """A setHGOS space built along one construction path."""
    if path in ("powerset_space", "powerset document"):
        objects = [f"o{i}" for i in range(draw(st.integers(1, 6)))]
        s = powerset_space(objects, _drawn_partition(draw, objects))
        return s if path == "powerset_space" else space_from_dict(space_to_dict(s))
    if path == "derive":
        objects = tuple(f"o{i}" for i in range(draw(st.integers(1, 5))))
        attributes = tuple(f"a{i}" for i in range(draw(st.integers(1, 2))))
        value = st.frozensets(st.sampled_from("xyz"), min_size=1, max_size=2)
        valuation = {(a, o): draw(value) for a in attributes for o in objects}
        return table_to_set_hgos(InformationTable(objects, attributes, valuation), attributes)
    doc = _lattice_document(draw)
    if path == "lattice document":
        return space_from_dict(doc)
    maps = space_from_dict(doc)  # its lower and upper, derived when they are 'granular'
    return GranularSpace(
        [e["id"] for e in doc["elements"]],
        map(tuple, doc["parthood"]),
        map(tuple, doc["order"]),
        {(a, b): r for a, b, r in doc["join"]},
        {(a, b): r for a, b, r in doc["meet"]},
        doc["granulation"],
        {x: maps.lower_of(x) for x in maps.elements},
        {x: maps.upper_of(x) for x in maps.elements},
        doc["bottom"],
        doc["top"],
        "setHGOS",
        {e["id"]: e["carrier"] for e in doc["elements"]},
    )


class TestSetLatticeTheorem:
    """validate_space reports PT1, PT2 and G1-G5 on setHGOS spaces without
    scanning them; their scans, called directly, must agree everywhere."""

    @pytest.mark.parametrize("path", ["powerset_space", "powerset document", "lattice document",
                                      "constructor", "derive"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_lattice_scans_find_nothing_on_set_hgos(self, path, data):
        """The proof and the scans against reference_model.validate, which proves nothing."""
        s = data.draw(set_hgos_spaces(path))
        assert classify_flavor(s) == "setHGOS"
        for axiom in _SET_LATTICE_AXIOMS:
            check, *args = _AXIOM_CHECKS[axiom]
            assert check(s, *args) == ([], 0), axiom
        assert_validates_as_the_model(s)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 5))
    def test_powerset_space_is_set_hgos_by_construction(self, data, n):
        # powerset_space does not prove its flavor; reading its document proves it pair by pair
        objects = [f"o{i}" for i in range(n)]
        s = powerset_space(objects, _drawn_partition(data.draw, objects) if objects else [])
        assert _extensionality_failure(s) is None
        assert s == space_from_dict(space_to_dict(s))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_undeclared_set_lattices_are_proved_too(self, data):
        """A set lattice declared HGOS classifies as setHGOS and skips the
        scans; its reports against reference_model.validate."""
        doc = _lattice_document(data.draw, flavor="HGOS")
        s = space_from_dict(doc)
        assert classify_flavor(s) == "setHGOS"
        assert_validates_as_the_model(s, doc)

    @pytest.mark.parametrize("shape", ["M3", "N5"])
    @pytest.mark.parametrize("carried", [False, True])
    def test_non_distributive_lattices_keep_their_witnesses(self, shape, carried):
        """G3 and G4 witnesses on M3 and N5 against reference_model.validate."""
        # M3 (three atoms) and N5 (a pentagon) are lattices but not
        # distributive; with carriers their joins are not unions, so they
        # are not setHGOS and G3 and G4 are scanned
        above = {"0": "0abc1", "a": "a1", "b": "b1", "c": "c1", "1": "1"}
        if shape == "N5":
            above["a"] = "ab1"
        els = list(above)
        carriers = {"0": "", "a": "x", "b": "xy" if shape == "N5" else "y", "c": "z", "1": "xyz"}
        leq = [(a, b) for a in els for b in els if b in above[a]]
        # the least common upper bound has the most elements above it
        join = {(a, b): max((z for z in els if z in above[a] and z in above[b]), key=lambda z: len(above[z]))
                for a in els for b in els}
        meet = {(a, b): min((z for z in els if a in above[z] and b in above[z]), key=lambda z: len(above[z]))
                for a in els for b in els}
        s = GranularSpace(els, leq, leq, join, meet, ["a"], {x: x for x in els}, {x: x for x in els},
                          "0", "1", "HGOS", carriers if carried else None)
        assert classify_flavor(s) == "HGOS"
        reports = {r.axiom: r for r in validate_space(s)}
        assert [r.holds for r in map(reports.get, ("PT1", "PT2", "G1", "G2", "G5"))] == [True] * 5
        assert not reports["G3"].holds and not reports["G4"].holds
        assert_validates_as_the_model(s)
        with pytest.raises(StructuralError, match="setHGOS requires"):
            GranularSpace(els, leq, leq, join, meet, ["a"], {x: x for x in els}, {x: x for x in els},
                          "0", "1", "setHGOS", carriers)


# -- the flavor ladder: what a document may declare and what it classifies as --


# The condition each flavor below setHGOS lacks for the one above it, by the
# flavor a space classifies as: a declaration above it names one of these.
_MISSING = {
    "GGS": {"parthood == order"},
    "GS": {"total join and meet"},
    "HGOS": {"a carrier on every element", "parthood == inclusion", "join == union", "meet == intersection"},
}


@st.composite
def documents_of_every_flavor(draw):
    """A space document of any flavor, declared GGS: the fixture, chains
    with partial or total operations, with or without carriers, random GGS
    documents (parthood sometimes copied to order), set lattices, and power
    sets, whole, with one join or meet entry or parthood pair changed, or
    without carriers."""
    kind = draw(st.sampled_from(["fixture", "chain", "ggs", "lattice", "power set"]))
    if kind == "fixture":
        doc = json.loads(FIXTURE_PATH.read_text())
    elif kind == "chain":
        carriers = draw(st.sampled_from([None, {"bot": frozenset(), "m": frozenset("x"), "top": frozenset("y")},
                                         {"bot": frozenset(), "m": frozenset("x"), "top": frozenset("xy")}]))
        doc = space_to_dict(chain_space(total_ops=draw(st.booleans()), carriers=carriers))
    elif kind == "ggs":
        doc = draw(ggs_documents())
        if draw(st.booleans()):
            doc["order"] = doc["parthood"]
    elif kind == "lattice":
        doc = _lattice_document(draw)
    else:
        objects = [f"o{i}" for i in range(draw(st.integers(1, 4)))]
        doc = space_to_dict(powerset_space(objects, _drawn_partition(draw, objects)))
        els = [e["id"] for e in doc["elements"]]
        change = draw(st.sampled_from(["none", "join", "meet", "parthood", "carriers"]))
        if change in ("join", "meet"):
            k = draw(st.integers(0, len(doc[change]) - 1))
            doc[change][k][2] = draw(st.sampled_from(els))
        elif change == "parthood":
            k = draw(st.integers(0, len(doc["parthood"]) - 1))
            doc["parthood"] = doc["order"] = doc["parthood"][:k] + doc["parthood"][k + 1:]
        elif change == "carriers":
            doc["elements"] = [{"id": e} for e in els]
    return doc | {"flavor": "GGS"}


class TestFlavorLadder:
    @settings(max_examples=200, deadline=None)
    @given(doc=documents_of_every_flavor())
    def test_a_flavor_loads_exactly_when_the_document_classifies_at_or_above_it(self, doc):
        """classify_flavor and each declaration's refusal against reference_model.Space, which reads up from GGS."""
        flavor = classify_flavor(space_from_dict(doc))
        assert flavor == model.Space(doc).flavor()
        failures = set()
        for declared in FLAVORS:
            if FLAVORS.index(declared) <= FLAVORS.index(flavor):
                s = space_from_dict(doc | {"flavor": declared})
                assert classify_flavor(s) == flavor, declared
                continue
            with pytest.raises(StructuralError) as exc:
                space_from_dict(doc | {"flavor": declared})
            prefix = f"flavor {declared} requires "
            assert str(exc.value).startswith(prefix)
            refusal = model.outcome(model.Space, doc | {"flavor": declared})
            assert refusal == ("raised", "StructuralError", str(exc.value))
            failures.add(str(exc.value).removeprefix(prefix))
        # every declaration above the flavor names the one condition it lacks
        assert len(failures) == (flavor != "setHGOS")
        assert failures <= _MISSING.get(flavor, set())


@settings(max_examples=150, deadline=None)
@given(doc=st.one_of(documents_of_every_flavor(), ggs_documents()), depth=st.sampled_from([1, 2]))
def test_admissibility_matches_the_model_on_every_flavor(doc, depth):
    """check_admissibility and representable_elements against reference_model.admissibility
    and reference_model.representable_elements."""
    s, m = space_from_dict(doc), model.Space(doc)
    assert representable_elements(s, depth) == model.representable_elements(m, depth)
    assert [(r.axiom, r.witnesses, r.skipped) for r in check_admissibility(s, depth)] == model.admissibility(m, depth)


class TestWorkBudget:
    def test_admits_what_the_commands_and_benchmark_run(self):
        # the 8-object power set with k0 k1 k2, and the 6-object power set
        # with three terms
        assert check_work(256, 3, 3) < WORK_BUDGET
        assert check_work(64, 3, 3) < WORK_BUDGET
        powerset_space([f"o{i}" for i in range(8)], [[f"o{i}" for i in range(8)]])

    def test_counts_pairs_functions_and_combinations(self):
        assert check_work(9) == 81
        # one row of 81 values per function; the laws' operand
        # combinations are proved, not scanned, and count nothing
        assert check_work(9, 2) == 81 * 3
        assert check_work(9, 43) == 81 * 44
        # each term node builds one function of 81 values
        assert check_work(9, nodes=5) == 81 * 6
        assert check_work(9, 2, 5) == 81 * 8

    def test_term_nodes_are_stated_over_budget(self):
        assert check_work(256, nodes=151) < WORK_BUDGET
        with pytest.raises(SizeError, match=r"^estimated work 10,027,008 exceeds .* \(256 elements, 152 term nodes\)$"):
            check_work(256, nodes=152)
        with pytest.raises(SizeError, match=r"\(256 elements, 3 functions, 200 term nodes\)$"):
            check_work(256, 3, 200)

    @pytest.mark.parametrize("objects", [12, 17, 10_000])
    def test_power_sets_over_budget_are_refused_before_building(self, objects):
        names = [f"o{i}" for i in range(objects)]
        with pytest.raises(SizeError, match=r"^estimated work .* exceeds the budget of 10,000,000"):
            powerset_space(names, [names])

    def test_documents_over_budget_are_refused_before_reading_tables(self):
        doc = {"elements": [{"id": f"e{i}"} for i in range(4000)], "parthood": None, "order": [],
               "join": [], "meet": [], "granulation": [], "lower": [], "upper": [],
               "bottom": "e0", "top": "e0", "flavor": "GGS"}
        with pytest.raises(SizeError, match=r"^estimated work 16,000,000 exceeds .* \(4,000 elements\)$"):
            space_from_dict(doc)
