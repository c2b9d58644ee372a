import io

import pytest
from hypothesis import given, strategies as st

from rif_forge import (
    EquivalenceRelation,
    InformationTable,
    InputError,
    ParameterError,
    classical_lower,
    classical_upper,
    classify_flavor,
    derive_indiscernibility,
    read_table_csv,
    table_to_set_hgos,
)


def sample_table():
    objects = ("o1", "o2", "o3", "o4", "o5")
    attributes = ("color", "size")
    values = {
        ("color", "o1"): {"red"},
        ("color", "o2"): {"red"},
        ("color", "o3"): {"blue"},
        ("color", "o4"): {"blue", "green"},
        ("color", "o5"): {"blue", "green"},
        ("size", "o1"): {"s"},
        ("size", "o2"): {"s"},
        ("size", "o3"): {"s"},
        ("size", "o4"): {"l"},
        ("size", "o5"): {"m"},
    }
    valuation = {k: frozenset(v) for k, v in values.items()}
    return InformationTable(objects, attributes, valuation)


class TestInformationTable:
    def test_value_lookup(self):
        t = sample_table()
        assert t.value("color", "o4") == frozenset({"blue", "green"})

    def test_duplicate_objects_rejected(self):
        with pytest.raises(InputError):
            InformationTable(("o1", "o1"), ("a",), {("a", "o1"): frozenset()})

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(InputError):
            InformationTable(("o1",), ("a", "a"), {("a", "o1"): frozenset()})

    def test_missing_valuation_rejected(self):
        with pytest.raises(InputError):
            InformationTable(("o1", "o2"), ("a",), {("a", "o1"): frozenset()})


class TestIndiscernibility:
    def test_blocks_by_color(self):
        rel = derive_indiscernibility(sample_table(), ["color"])
        assert set(rel.blocks) == {
            frozenset({"o1", "o2"}),
            frozenset({"o3"}),
            frozenset({"o4", "o5"}),
        }

    def test_blocks_by_both_attributes(self):
        rel = derive_indiscernibility(sample_table(), ["color", "size"])
        assert set(rel.blocks) == {
            frozenset({"o1", "o2"}),
            frozenset({"o3"}),
            frozenset({"o4"}),
            frozenset({"o5"}),
        }

    def test_block_order_follows_first_occurrence(self):
        rel = derive_indiscernibility(sample_table(), ["color"])
        assert rel.blocks[0] == frozenset({"o1", "o2"})

    def test_related(self):
        rel = derive_indiscernibility(sample_table(), ["color"])
        assert rel.related("o4", "o5")
        assert not rel.related("o1", "o3")

    def test_empty_attribute_list_rejected(self):
        with pytest.raises(InputError):
            derive_indiscernibility(sample_table(), [])

    def test_unknown_attribute_rejected(self):
        with pytest.raises(InputError):
            derive_indiscernibility(sample_table(), ["weight"])


class TestClassicalApproximations:
    def relation(self):
        return derive_indiscernibility(sample_table(), ["color"])

    def test_lower_of_union_of_blocks(self):
        rel = self.relation()
        assert classical_lower(rel, {"o1", "o2", "o3"}) == frozenset({"o1", "o2", "o3"})

    def test_lower_drops_partial_blocks(self):
        rel = self.relation()
        assert classical_lower(rel, {"o2", "o3"}) == frozenset({"o3"})

    def test_upper_collects_touching_blocks(self):
        rel = self.relation()
        assert classical_upper(rel, {"o2", "o3"}) == frozenset({"o1", "o2", "o3"})

    def test_empty_subset(self):
        rel = self.relation()
        assert classical_lower(rel, set()) == frozenset()
        assert classical_upper(rel, set()) == frozenset()

    def test_stray_objects_rejected(self):
        with pytest.raises(InputError):
            classical_lower(self.relation(), {"o9"})

    def test_partition_validation(self):
        with pytest.raises(InputError):
            EquivalenceRelation(frozenset({"a", "b"}), (frozenset({"a"}),))
        with pytest.raises(InputError):
            EquivalenceRelation(
                frozenset({"a", "b"}), (frozenset({"a", "b"}), frozenset({"b"}))
            )
        with pytest.raises(InputError):
            EquivalenceRelation(frozenset({"a"}), (frozenset({"a"}), frozenset()))


@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=6),
)
def test_classical_approximations_bracket_the_subset(data, n):
    objects = [f"o{i}" for i in range(n)]
    indices = data.draw(
        st.lists(st.integers(min_value=0, max_value=max(n - 1, 0)), min_size=n, max_size=n)
    )
    groups: dict[int, set[str]] = {}
    for obj, idx in zip(objects, indices):
        groups.setdefault(idx, set()).add(obj)
    rel = EquivalenceRelation(
        frozenset(objects), tuple(frozenset(g) for g in groups.values())
    )
    subset = data.draw(st.sets(st.sampled_from(objects)))
    lower = classical_lower(rel, subset)
    upper = classical_upper(rel, subset)
    assert lower <= frozenset(subset) <= upper
    # both are unions of blocks, hence fixed points
    assert classical_lower(rel, lower) == lower
    assert classical_upper(rel, upper) == upper


class TestCsv:
    def test_happy_path(self):
        text = "object,color,size\no1, red , s\no2,red|blue,\n\no3,blue,l\n"
        t = read_table_csv(io.StringIO(text))
        assert t.objects == ("o1", "o2", "o3")
        assert t.attributes == ("color", "size")
        assert t.value("color", "o2") == frozenset({"red", "blue"})
        assert t.value("size", "o2") == frozenset()
        assert t.value("color", "o1") == frozenset({"red"})

    def test_custom_delimiter(self):
        t = read_table_csv(io.StringIO("object,a\no1,x;y\n"), value_delimiter=";")
        assert t.value("a", "o1") == frozenset({"x", "y"})

    def test_path_input(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("object,a\no1,v\n", encoding="utf-8")
        assert read_table_csv(path).objects == ("o1",)

    def test_empty_file_rejected(self):
        with pytest.raises(InputError):
            read_table_csv(io.StringIO(""))

    def test_wrong_first_column_rejected(self):
        with pytest.raises(InputError):
            read_table_csv(io.StringIO("thing,a\no1,v\n"))

    def test_ragged_row_rejected(self):
        with pytest.raises(InputError, match="line 3"):
            read_table_csv(io.StringIO("object,a,b\no1,v,w\no2,v\n"))

    def test_empty_object_id_rejected(self):
        with pytest.raises(InputError):
            read_table_csv(io.StringIO("object,a\n,v\n"))

    def test_empty_delimiter_rejected_before_reading(self, tmp_path):
        with pytest.raises(ParameterError, match="^the value delimiter must not be empty$"):
            read_table_csv(io.StringIO("object,a\no1,v\n"), value_delimiter="")
        # a missing file is not opened
        with pytest.raises(ParameterError):
            read_table_csv(tmp_path / "ghost.csv", value_delimiter="")


class TestTableToSpace:
    def test_flavor_and_approximations(self):
        t = sample_table()
        s = table_to_set_hgos(t, ["color"])
        assert classify_flavor(s) == "setHGOS"
        rel = derive_indiscernibility(t, ["color"])
        x = s.element_with_carrier(frozenset({"o2", "o3"}))
        lower = s.carrier_of(s.lower_of(x))
        upper = s.carrier_of(s.upper_of(x))
        assert lower == classical_lower(rel, {"o2", "o3"})
        assert upper == classical_upper(rel, {"o2", "o3"})

    def test_granulation_is_the_partition(self):
        s = table_to_set_hgos(sample_table(), ["color"])
        carriers = {s.carrier_of(g) for g in s.granulation}
        assert carriers == {
            frozenset({"o1", "o2"}),
            frozenset({"o3"}),
            frozenset({"o4", "o5"}),
        }
