"""Model types, validation, qualification, and utility arithmetic."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netauction.critical import all_critical_structures
from netauction.model import (
    AuctionInstance,
    BidderReport,
    InstanceValidationError,
    Outcome,
    UnknownBidder,
    bundle_from_items,
    bundle_items,
    complete_table,
    full_bundle,
    iter_subbundles,
    restrict_instance,
    utility,
    validate_instance,
)

from reference import closure_oracle


def build_instance(m, seller, edges, tables=None):
    tables = tables or {}
    reports = {
        i: BidderReport(i, tables.get(i, (0,) * (1 << m)), frozenset(nbrs))
        for i, nbrs in edges.items()
    }
    return validate_instance(AuctionInstance(m, frozenset(seller), reports))


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------


def test_bundle_round_trip():
    assert bundle_from_items([1, 3]) == 0b101
    assert bundle_items(0b101) == (1, 3)
    assert bundle_items(0) == ()
    assert full_bundle(3) == 0b111


def test_subbundle_order_is_size_then_lexicographic():
    order = list(iter_subbundles(bundle_from_items([1, 2, 4])))
    as_items = [bundle_items(b) for b in order]
    assert as_items == [
        (), (1,), (2,), (4,),
        (1, 2), (1, 4), (2, 4),
        (1, 2, 4),
    ]
    # 256 pools, more than the 32-entry sub-bundle memo holds, so entries
    # also get evicted and rebuilt along the way.
    for pool in range(1 << 8):
        subsets = [b for b in range(pool + 1) if b & pool == b]
        expected = sorted(
            subsets, key=lambda b: (bin(b).count("1"), bundle_items(b))
        )
        assert list(iter_subbundles(pool)) == expected
        # A repeat is served from the memo.
        assert iter_subbundles(pool) is iter_subbundles(pool)


def reference_from_pairs(m, pairs):
    """The table completion as first written: the monotone envelope of every
    mask, thrown away where the mask is listed."""
    vals = [0] * (1 << m)
    for mask in range(1, 1 << m):
        envelope = 0
        rest = mask
        while rest:
            bit = rest & -rest
            envelope = max(envelope, vals[mask ^ bit])
            rest ^= bit
        vals[mask] = pairs[mask] if mask in pairs else envelope
    if 0 in pairs:
        vals[0] = pairs[0]
    return tuple(vals)


def test_from_pairs_matches_the_reference_completion():
    rng = random.Random(5)
    for m in range(0, 9):
        masks = range(1 << m)
        listings = [
            {b: rng.randint(0, 50) for b in masks},  # full, non-monotone
            {b: bin(b).count("1") * 3 for b in masks},  # full, monotone
            {},
        ]
        for share in (0.05, 0.3):
            listings.append(
                {b: rng.randint(0, 50) for b in masks if rng.random() < share}
            )
        for pairs in listings:
            assert complete_table(m, pairs) == reference_from_pairs(m, pairs)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_monotone_table_accepted():
    v = (0, 3, 5, 7)
    inst = build_instance(2, {1}, {1: set()}, {1: v})
    assert inst.reports[1].values[0b11] == 7


def test_non_monotone_rejected():
    v = (0, 5, 0, 3)  # {1} worth 5 but {1,2} worth 3
    with pytest.raises(InstanceValidationError) as err:
        build_instance(2, {1}, {1: set()}, {1: v})
    assert err.value.violations == [
        "bidder 1: value of {1} exceeds value of superset {1,2}"
    ]


def test_self_loop_rejected():
    with pytest.raises(InstanceValidationError) as err:
        build_instance(1, {4}, {4: {4}})
    assert "bidder 4 lists itself as a neighbor" in err.value.violations


def test_nonzero_empty_bundle_rejected():
    with pytest.raises(InstanceValidationError):
        build_instance(1, {1}, {1: set()}, {1: (2, 5)})


def test_all_violations_reported_together():
    self_loop = "bidder 1 lists itself as a neighbor"
    non_monotone = "bidder 1: value of {} exceeds value of superset {1}"
    for bad_v, expected in (
        # nonzero empty bundle and non-monotone
        ((1, 0), "bidder 1: empty bundle valued at 1, must be 0"),
        # negative value, so below the empty bundle too
        ((0, -2), "bidder 1: negative value -2 for {1}"),
    ):
        with pytest.raises(InstanceValidationError) as err:
            build_instance(1, {1}, {1: {1}}, {1: bad_v})
        assert {self_loop, non_monotone, expected} <= set(err.value.violations)
    assert "bidder 1: negative value -2 for {1}" in str(err.value)


def test_report_filed_under_another_bidders_key_rejected():
    other = BidderReport(2, (0, 5), frozenset())
    own = BidderReport(1, (0, 5), frozenset())
    wrong = "bidder 1 holds a report for bidder 2"
    # A truth entry that is the report itself is walked once; a report
    # filed under two keys has its key checked under each.
    for reports, truth, messages in (
        ({1: other}, None, [wrong]),
        ({1: other}, {1: other}, [wrong]),
        ({1: own}, {1: other}, [wrong]),
        ({1: other}, {1: own, 2: own}, [wrong, "bidder 2 holds a report for bidder 1"]),
    ):
        with pytest.raises(InstanceValidationError) as err:
            validate_instance(AuctionInstance(1, frozenset({1}), reports, truth))
        assert err.value.violations == messages


def test_truth_entry_that_is_the_report_is_checked_once():
    bad = BidderReport(1, (1, 0), frozenset())  # non-monotone
    copy = replace(bad, values=bad.values)  # equal, but another object
    for truth_rep, listed in ((bad, 1), (copy, 2)):
        with pytest.raises(InstanceValidationError) as err:
            validate_instance(
                AuctionInstance(1, frozenset({1}), {1: bad}, {1: truth_rep})
            )
        non_monotone = "bidder 1: value of {} exceeds value of superset {1}"
        assert err.value.violations.count(non_monotone) == listed


def test_absent_bidders_materialized_with_zero_reports():
    inst = build_instance(1, {1}, {1: {2}})  # bidder 2 never reported
    assert 2 in inst.reports
    assert inst.reports[2].neighbors == frozenset()
    assert inst.reports[2].values[1] == 0


@pytest.mark.parametrize(
    "seller, edges, inviter, bad",
    [({"x"}, {}, None, "x"), ({1}, {1: {"a"}}, 1, "a"), ({1}, {1: {0}}, 1, 0),
     ({True}, {}, None, True), ({2}, {2: {True}}, 2, True)],
    ids=["seller-str", "bidder-str", "bidder-zero", "seller-bool", "bidder-bool"],
)
def test_invalid_id_reported_once_under_its_inviter(seller, edges, inviter, bad):
    v = (0, 0)
    reports = {i: BidderReport(i, v, frozenset(nbrs)) for i, nbrs in edges.items()}
    with pytest.raises(InstanceValidationError) as err:
        validate_instance(AuctionInstance(1, frozenset(seller), reports))
    who = "the seller" if inviter is None else f"bidder {inviter}"
    assert err.value.violations == [f"{who} lists invalid neighbor id {bad!r}"]


def test_invalid_bidder_id_reported_as_such():
    # True passes an isinstance(bid, int) test but serializes as JSON true
    for bid in (0, True):
        reports = {bid: BidderReport(bid, (0, 0), frozenset())}
        with pytest.raises(InstanceValidationError) as err:
            validate_instance(AuctionInstance(1, frozenset(), reports))
        assert err.value.violations == [f"bidder id {bid} is not a positive integer"]


def test_valuation_must_cover_the_instance_items():
    fitting = BidderReport(1, (0, 5, 0, 5), frozenset())
    # Tables too short, of no power-of-two length and too long; the empty
    # one would fail the empty-bundle check by indexing if it were reached.
    for table in ((), (0, 5), (0, 5, 0), (0, 5, 0, 5) * 2):
        bad = BidderReport(1, table, frozenset())
        wrong = f"bidder 1: table has {len(table)} entries, expected 4"
        # A truth entry that is the report itself is checked once.
        for reports, truth, listed in (
            ({1: bad}, None, 1), ({1: bad}, {1: bad}, 1),
            ({1: fitting}, {1: bad}, 1), ({1: bad}, {1: bad.with_neighbors(())}, 2),
        ):
            with pytest.raises(InstanceValidationError) as err:
                validate_instance(AuctionInstance(2, frozenset({1}), reports, truth))
            assert err.value.violations == [wrong] * listed
    # The report's neighbors are still checked.
    with pytest.raises(InstanceValidationError) as err:
        validate_instance(
            AuctionInstance(2, frozenset({1}), {1: bad.with_neighbors({1})})
        )
    assert err.value.violations == [wrong, "bidder 1 lists itself as a neighbor"]


@pytest.mark.parametrize("m, values, message", [
    (1, (0, 1, 2), "bidder 1: table has 3 entries, expected 2"),
    (-1, (), "item count -1 outside 0..16"),
    (17, (), "item count 17 outside 0..16"),
], ids=["wrong-length", "m-negative", "m-17"])
def test_valuation_rejects_a_table_of_the_wrong_shape(m, values, message):
    report = BidderReport(1, values, frozenset())
    with pytest.raises(InstanceValidationError) as err:
        validate_instance(AuctionInstance(m, frozenset({1}), {1: report}))
    assert err.value.violations == [message]


def test_item_count_beyond_the_limit_rejected():
    for m in (-1, 17):
        with pytest.raises(InstanceValidationError) as err:
            validate_instance(AuctionInstance(m, frozenset(), {}))
        assert err.value.violations == [f"item count {m} outside 0..16"]


def _report(bid, values=(0, 0), neighbors=()):
    return BidderReport(bid, values, frozenset(neighbors))


# One invalid instance per issue validate_instance can raise, and its exact text.
ISSUE_MESSAGES = [
    (AuctionInstance(17, frozenset(), {}), ["item count 17 outside 0..16"]),
    (AuctionInstance(2, frozenset({1}), {1: _report(1)}),
     ["bidder 1: table has 2 entries, expected 4"]),
    (AuctionInstance(1, frozenset({1}), {1: _report(1, (2, 5))}),
     ["bidder 1: empty bundle valued at 2, must be 0"]),
    (AuctionInstance(1, frozenset({1}), {1: _report(1, (0, -2))}),
     ["bidder 1: negative value -2 for {1}",
      "bidder 1: value of {} exceeds value of superset {1}"]),
    (AuctionInstance(2, frozenset({1}), {1: _report(1, (0, 5, 0, 3))}),
     ["bidder 1: value of {1} exceeds value of superset {1,2}"]),
    (AuctionInstance(1, frozenset({4}), {4: _report(4, neighbors={4})}),
     ["bidder 4 lists itself as a neighbor"]),
    (AuctionInstance(1, frozenset({1}), {1: _report(1, neighbors={"a"})}),
     ["bidder 1 lists invalid neighbor id 'a'"]),
    (AuctionInstance(1, frozenset({1}), {1: _report(2)}),
     ["bidder 1 holds a report for bidder 2"]),
    (AuctionInstance(1, frozenset({1}), {1: _report(1, neighbors={2})},
                     {1: _report(1), 2: _report(2)}),
     ["bidder 1 reports neighbors not present in the true neighbor set"]),
    (AuctionInstance(1, frozenset({"x"}), {}),
     ["the seller lists invalid neighbor id 'x'"]),
    (AuctionInstance(1, frozenset(), {0: _report(0)}),
     ["bidder id 0 is not a positive integer"]),
]
ISSUE_IDS = ["item-count", "valuation-items", "empty-bundle", "negative",
             "non-monotone", "self-loop", "bidder-invalid-neighbor", "wrong-key",
             "neighbor-superset", "seller-invalid-neighbor", "invalid-bidder-id"]


@pytest.mark.parametrize("instance, messages", ISSUE_MESSAGES, ids=ISSUE_IDS)
def test_every_issue_has_its_exact_message(instance, messages):
    with pytest.raises(InstanceValidationError) as err:
        validate_instance(instance)
    assert err.value.violations == messages
    assert str(err.value) == (
        f"{len(messages)} validation issue(s): " + "; ".join(messages)
    )


def test_reported_neighbors_must_lie_inside_truth():
    v = (0, 0)
    reports = {1: BidderReport(1, v, frozenset({2})), 2: BidderReport(2, v, frozenset())}
    truth = {1: BidderReport(1, v, frozenset()), 2: BidderReport(2, v, frozenset())}
    with pytest.raises(InstanceValidationError):
        validate_instance(AuctionInstance(1, frozenset({1}), reports, truth))


def test_truthful_needs_ground_truth():
    inst = build_instance(1, {1}, {1: set()})
    with pytest.raises(UnknownBidder, match="instance carries no ground truth"):
        inst.truthful()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_planted_monotonicity_violation_always_caught(data):
    m = data.draw(st.integers(1, 4))
    base = [0] * (1 << m)
    for mask in sorted(range(1, 1 << m), key=lambda b: bin(b).count("1")):
        floor = max(
            (base[mask ^ (1 << k)] for k in range(m) if mask >> k & 1), default=0
        )
        base[mask] = data.draw(st.integers(floor, floor + 3))
    # Plant: pick a non-empty mask and push some subset's value above it.
    mask = data.draw(st.integers(1, (1 << m) - 1))
    strict_subs = [s for s in range(mask) if s | mask == mask]
    sub = data.draw(st.sampled_from(strict_subs))
    base[sub] = base[mask] + 1
    table = tuple(base)
    if sub == 0:
        with pytest.raises(InstanceValidationError):
            build_instance(m, {1}, {1: set()}, {1: table})
    else:
        with pytest.raises(InstanceValidationError) as err:
            build_instance(m, {1}, {1: set()}, {1: table})
        assert any(" exceeds value of superset " in x for x in err.value.violations)


# ---------------------------------------------------------------------------
# Qualification
# ---------------------------------------------------------------------------


def test_qualified_line():
    inst = build_instance(1, {1}, {1: {2}, 2: {3}, 3: set()})
    assert set(all_critical_structures(inst).critical_nodes) == {1, 2, 3}


def test_qualified_excludes_disconnected():
    inst = build_instance(1, {1}, {1: set(), 2: {3}, 3: set()})
    assert set(all_critical_structures(inst).critical_nodes) == {1}


def test_qualified_branch_matches_oracle():
    inst = build_instance(
        1, {1, 4}, {1: {2, 5}, 2: {3}, 3: set(), 4: set(), 5: set()}
    )
    qualified = set(all_critical_structures(inst).critical_nodes)
    assert qualified == closure_oracle(inst) == {1, 2, 3, 4, 5}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_qualified_equals_closure_oracle_on_random_digraphs(data):
    n = data.draw(st.integers(0, 8))
    ids = list(range(1, n + 1))
    seller = data.draw(st.frozensets(st.sampled_from(ids or [1]), max_size=n))
    edges = {
        i: data.draw(
            st.frozensets(st.sampled_from([j for j in ids if j != i] or [i + 1]),
                          max_size=n)
        )
        if n > 1
        else frozenset()
        for i in ids
    }
    edges = {i: frozenset(j for j in nbrs if j != i and j <= n) for i, nbrs in edges.items()}
    inst = build_instance(1, {s for s in seller if s <= n}, edges)
    assert set(all_critical_structures(inst).critical_nodes) == closure_oracle(inst)


# ---------------------------------------------------------------------------
# Utility and restriction
# ---------------------------------------------------------------------------


def test_utility_examples():
    rep = BidderReport(1, (0, 5), frozenset())
    empty = Outcome({1: 0}, {1: 0})
    assert utility(rep, empty, 1) == 0
    won = Outcome({1: 1}, {1: 3})
    assert utility(rep, won, 1) == 2
    paid = Outcome({1: 0}, {1: -4})
    assert utility(rep, paid, 1) == 4
    with pytest.raises(UnknownBidder):
        utility(rep, empty, 9)


@given(
    value=st.integers(0, 50), payment=st.integers(-50, 50), delta=st.integers(-20, 20)
)
def test_utility_linear_in_payment(value, payment, delta):
    rep = BidderReport(1, (0, value), frozenset())
    base = Outcome({1: 1}, {1: payment})
    shifted = Outcome({1: 1}, {1: payment + delta})
    assert utility(rep, shifted, 1) == utility(rep, base, 1) - delta


def test_restrict_identity():
    inst = build_instance(1, {1}, {1: {2}, 2: set()})
    same = restrict_instance(inst, inst.reports, inst.seller_neighbors)
    assert same.reports == inst.reports
    assert same.seller_neighbors == inst.seller_neighbors
    # every invitee kept: the report objects are shared, not copied
    assert all(same.reports[b] is inst.reports[b] for b in inst.reports)
    cut = restrict_instance(inst, {1}, {1})
    assert cut.reports[1] is not inst.reports[1]
    assert cut.reports[1] == BidderReport(1, inst.reports[1].values, frozenset())


def test_restrict_to_empty():
    inst = build_instance(1, {1}, {1: {2}, 2: set()})
    sub = restrict_instance(inst, (), ())
    assert sub.reports == {}
    assert set(all_critical_structures(sub).critical_nodes) == set()


def test_restrict_single_candidate():
    inst = build_instance(1, {1}, {1: {2}, 2: {3}, 3: set(), 6: set()})
    sub = restrict_instance(inst, {6}, {6})
    assert set(sub.reports) == {6}
    assert set(all_critical_structures(sub).critical_nodes) == {6}


def test_restrict_rejects_a_frontier_outside_the_kept_set():
    inst = build_instance(1, {1}, {1: {2}, 2: set()})
    message = "new seller neighbors must lie inside the kept set"
    with pytest.raises(ValueError, match=message):
        restrict_instance(inst, {2}, {1})
