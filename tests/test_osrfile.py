"""The .osr text format: parsing, rendering, and located errors."""

import pytest

import osr
from osr.errors import DuplicateLabel, MissingSection, ParseError
from osr.osrfile import parse, render

Z4_TEXT = """\
name: Z4
elements: 0 1 2 3
le: discrete            # rings are discretely ordered
zero: 0
one: 1
add:
0 1 2 3
1 2 3 0
2 3 0 1
3 0 1 2
mul:
0 0 0 0
0 1 2 3
0 2 0 2
0 3 2 1
"""


def test_parse_reference_document():
    desc = parse(Z4_TEXT)
    assert desc.name == "Z4"
    assert desc.elements == ("0", "1", "2", "3")
    assert desc.le == "discrete"
    A = osr.validate(desc)
    assert A.add == osr.build_zmod(4).add


def test_round_trip_is_identity_on_descriptions():
    desc = parse(Z4_TEXT)
    assert parse(render(desc)) == desc
    for A in osr.builtin_family(6)[:12]:
        desc = A.describe()
        assert parse(render(desc)) == desc


def test_pair_mode_le():
    text = """\
name: chainy
elements: a b c
le:
a <= b
b <= c
zero: a
one: c
add:
a b c
b b c
c c c
mul:
a a a
a b b
a b c
"""
    desc = parse(text)
    assert desc.le == (("a", "b"), ("b", "c"))
    A = osr.validate(desc)
    assert A.le(0, 2)
    assert parse(render(desc)) == desc


def test_short_table_row_is_located():
    broken = Z4_TEXT.replace("2 3 0 1", "2 3 0")
    with pytest.raises(ParseError) as err:
        parse(broken)
    assert err.value.line == 9
    assert "add table row" in err.value.message


def test_duplicate_label():
    with pytest.raises(DuplicateLabel) as err:
        parse(Z4_TEXT.replace("elements: 0 1 2 3", "elements: 0 1 2 2"))
    assert err.value.line == 2 and err.value.column >= 17


def test_missing_section():
    with pytest.raises(MissingSection):
        parse(Z4_TEXT.replace("zero: 0\n", ""))


def test_unknown_label_location():
    with pytest.raises(ParseError) as err:
        parse(Z4_TEXT.replace("0 3 2 1", "0 3 2 9"))
    assert err.value.line == 15 and err.value.column == 7


def test_unknown_order_keyword():
    with pytest.raises(ParseError):
        parse(Z4_TEXT.replace("le: discrete            # rings are discretely ordered", "le: sideways"))


def test_trailing_garbage():
    with pytest.raises(ParseError) as err:
        parse(Z4_TEXT + "footer: nope\n")
    assert err.value.line == 16


def test_comments_and_blank_lines_ignored():
    spaced = Z4_TEXT.replace("zero: 0", "# a comment\n\nzero: 0  # inline")
    assert parse(spaced) == parse(Z4_TEXT)


def test_fuzzed_documents_raise_only_parse_errors():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    base = Z4_TEXT

    @settings(max_examples=300)
    @given(
        st.integers(min_value=0, max_value=len(base) - 1),
        st.sampled_from(list(" \n:#<=x9")),
    )
    def mutate(pos, ch):
        text = base[:pos] + ch + base[pos + 1 :]
        try:
            desc = parse(text)
        except ParseError:
            return
        # if it still parses, the description must round-trip
        assert parse(render(desc)) == desc

    mutate()
