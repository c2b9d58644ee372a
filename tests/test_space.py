import json

import pytest
from hypothesis import given, settings, strategies as st

from rif_forge import (
    CarrierError,
    ClosureError,
    EquivalenceRelation,
    GranularSpace,
    InputError,
    SizeError,
    SpaceFormatError,
    StructuralError,
    check_admissibility,
    classify_flavor,
    find_element,
    granular_lower,
    granular_upper,
    load_space,
    powerset_space,
    proper_part,
    render_carrier,
    save_space,
    space_from_dict,
    space_to_dict,
    strong_weak_equal,
    validate_space,
    weak_equal,
)
from rif_forge.space import AxiomReport, representable_elements

from fixture_data import APPROXIMATION_ROWS


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

    def test_weak_equal(self):
        assert weak_equal(None, "x")
        assert weak_equal("x", None)
        assert weak_equal(None, None)
        assert weak_equal("x", "x")
        assert not weak_equal("x", "y")

    def test_strong_weak_equal(self):
        assert strong_weak_equal(None, None)
        assert strong_weak_equal("x", "x")
        assert not strong_weak_equal(None, "x")
        assert not strong_weak_equal("x", "y")


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
        assert len(fixture_space.parthood) == 33
        assert len(fixture_space.order) == 25

    def test_parthood_coincides_with_inclusion_after_closure(self, fixture_space):
        s = fixture_space
        for a in s.elements:
            for b in s.elements:
                assert s.part(a, b) == (s.carrier_of(a) <= s.carrier_of(b))

    def test_order_is_strictly_smaller_than_parthood(self, fixture_space):
        s = fixture_space
        assert s.order < s.parthood
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
    def test_holds_must_mirror_witnesses(self):
        with pytest.raises(ValueError):
            AxiomReport(axiom="PT1", holds=True, witnesses=(("a",),))

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
