"""Instance files: round trips, envelope completion, malformed input."""

import re

import pytest

from netauction.critical import all_critical_structures
from netauction.generate import FamilySpec, generate_instances
from netauction.instance_io import (
    ParseError,
    parse_instance,
    serialize_instance,
)
from netauction.model import InstanceValidationError


MINIMAL = """
{
  "schema_version": 1,
  "m": 1,
  "seller_neighbors": [1],
  "bidders": [
    {"id": 1, "neighbors": [], "valuation": [[[1], 5]]}
  ]
}
"""


def test_minimal_file():
    inst = parse_instance(MINIMAL)
    assert inst.m == 1
    assert set(all_critical_structures(inst).critical_nodes) == {1}
    assert inst.reports[1].values[1] == 5


def test_duplicate_bidder_id_rejected():
    text = MINIMAL.replace(
        '{"id": 1, "neighbors": [], "valuation": [[[1], 5]]}',
        '{"id": 1, "neighbors": [], "valuation": [[[1], 5]]},\n'
        '    {"id": 1, "neighbors": [], "valuation": []}',
    )
    with pytest.raises(ParseError):
        parse_instance(text)


# Well-formed JSON that is not an instance, and the parse error it must raise.
MALFORMED = [
    ('{"m": 1, "seller_neighbors": [1], "bidders": [{"id": 1, "neighbors": [],'
     ' "valuation": [[[1], 2], [[1], 3]]}]}', "bidder 1: bundle listed twice"),
    ('{"m": 1, "seller_neighbors": [1], "bidders": [{"id": 1, "neighbors": [],'
     ' "valuation": [[[1, 1], 2]]}]}', "bidder 1: item 1 repeated in bundle [1, 1]"),
    ('{"m": 1, "seller_neighbors": [1], "bidders": [{"id": 1, "neighbors": [],'
     ' "valuation": [[[1, 1], 2], [[1], 3]]}]}',
     "bidder 1: item 1 repeated in bundle [1, 1]"),
    ("[1]", "top level must be an object"),
    ('{"schema_version": 2, "m": 1, "seller_neighbors": []}',
     "unsupported schema version 2"),
    ('{"seller_neighbors": []}', "missing field 'm'"),
    ('{"m": 1}', "missing field 'seller_neighbors'"),
    ('{"m": 1, "seller_neighbors": [1], "bidders": [{"id": 1, "neighbors": [],'
     ' "valuation": [[[0], 2]]}]}', "bidder 1: bad valuation entry: item 0 outside 1..16"),
    ('{"m": 1, "seller_neighbors": [1], "bidders": [{"id": 1, "neighbors": [],'
     ' "valuation": [[[17], 2]]}]}', "bidder 1: bad valuation entry: item 17 outside 1..16"),
    ('{"m": 1, "seller_neighbors": [1], "bidders": [{"id": 1, "neighbors": [],'
     ' "valuation": [[[1], 2]]}], "truth": [{"id": 1, "neighbors": [],'
     ' "valuation": [[[1], 2], [[1], 3]]}]}', "truth bidder 1: bundle listed twice"),
]
MALFORMED_IDS = ["bundle-twice", "item-twice", "item-twice-then-bundle", "not-object",
                 "schema-version", "no-m", "no-seller", "item-0", "item-17",
                 "truth-bundle-twice"]


@pytest.mark.parametrize("text, message", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_instance_rejected(text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_instance(text)


def test_bad_json_reports_line():
    with pytest.raises(ParseError, match=re.escape("(line 2)")):
        parse_instance("{\n  broken\n}")


def test_envelope_completion_fills_unlisted_bundles():
    text = """
    {"m": 2, "seller_neighbors": [1],
     "bidders": [{"id": 1, "neighbors": [],
                  "valuation": [[[1], 3], [[2], 5]]}]}
    """
    inst = parse_instance(text)
    v = inst.reports[1].values
    assert v[0b01] == 3 and v[0b10] == 5
    assert v[0b11] == 5  # lower envelope: max over listed subsets


def test_listed_non_monotone_value_still_rejected():
    text = """
    {"m": 2, "seller_neighbors": [1],
     "bidders": [{"id": 1, "neighbors": [],
                  "valuation": [[[1], 5], [[1, 2], 3]]}]}
    """
    with pytest.raises(InstanceValidationError):
        parse_instance(text)


def test_unsorted_item_list_accepted():
    text = """
    {"m": 2, "seller_neighbors": [1],
     "bidders": [{"id": 1, "neighbors": [], "valuation": [[[2, 1], 4]]}]}
    """
    assert parse_instance(text).reports[1].values == (0, 0, 0, 4)


def test_full_table_listing_accepted():
    text = """
    {"m": 2, "seller_neighbors": [1],
     "bidders": [{"id": 1, "neighbors": [],
                  "valuation": [[[1], 3], [[2], 5], [[1, 2], 7]]}]}
    """
    assert parse_instance(text).reports[1].values == (0, 3, 5, 7)


def test_round_trip_on_generated_corpus():
    for inst in generate_instances(FamilySpec(n=6, m=2, v_max=5, count=20, seed=19)):
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again.m == inst.m
        assert again.seller_neighbors == inst.seller_neighbors
        assert again.reports == inst.reports
        assert again.ground_truth == inst.ground_truth
        assert serialize_instance(again) == text


def test_truth_section_round_trips():
    inst = generate_instances(FamilySpec(n=4, m=1, v_max=3, count=1, seed=5))[0]
    hidden = inst.reports[1].with_neighbors(frozenset())
    reported = inst.with_report(hidden)
    text = serialize_instance(reported)
    again = parse_instance(text)
    assert again.reports[1].neighbors == frozenset()
    assert again.ground_truth[1].neighbors == inst.ground_truth[1].neighbors


def test_items_beyond_m_rejected():
    text = """
    {"m": 1, "seller_neighbors": [1],
     "bidders": [{"id": 1, "neighbors": [], "valuation": [[[2], 5]]}]}
    """
    with pytest.raises(ParseError):
        parse_instance(text)
