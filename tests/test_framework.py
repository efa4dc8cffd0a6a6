"""Round engine: pricing, resale process branches, loop invariants."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from netauction.critical import Unqualified, all_critical_structures, check_outcome
from netauction.drm import graph_exploration_cdp, greedy_bdp, unfloored_idm
from netauction.framework import (
    BundleTuple,
    InvalidTuple,
    dcaf_run_detailed,
    drp_run,
    price_fn,
    resale_revenue_fn,
)
from netauction.generate import (
    FamilySpec,
    embedded_branch_fixture,
    generate_instances,
)
from netauction.idm import idm_run
from netauction.model import (
    AuctionError,
    BidderReport,
    Outcome,
    bundle_from_items,
    complete_table,
    full_bundle,
)

import mutants
from reference import line_market_fixture, two_round_showcase
from test_model import build_instance


def engine_outcome(instance, cdp, bdp, single_item_mech):
    return dcaf_run_detailed(instance, cdp, bdp, single_item_mech).outcome


def resell(instance, distributor, bundle_tuple, pr, rev, local=unfloored_idm):
    """One resale attempt with the reach the round engine would hand the
    distributor: her dominator subtree.  The local market is drm's plain IDM
    unless ``local`` says otherwise."""
    reach = all_critical_structures(instance).critical_children[distributor]
    return drp_run(instance, distributor, bundle_tuple, pr, rev, local, reach=reach)


def tn_reports(values, m=1):
    return [
        BidderReport(100 + k, complete_table(m, {full_bundle(m): v}), frozenset())
        for k, v in enumerate(values)
    ]


# ---------------------------------------------------------------------------
# Pricing
# ---------------------------------------------------------------------------


def test_price_is_second_highest():
    reps = tn_reports([3, 7, 2])
    assert price_fn(reps, 1) == 3
    assert resale_revenue_fn(reps, 1) == 7


def test_price_degenerate_sizes():
    assert price_fn(tn_reports([5]), 1) == 0
    assert price_fn([], 1) == 0
    assert resale_revenue_fn([], 1) == 0


@given(st.lists(st.integers(0, 20), max_size=6))
def test_revenue_dominates_price_everywhere(values):
    reps = tn_reports(values)
    for bundle in range(2):
        assert resale_revenue_fn(reps, bundle) >= price_fn(reps, bundle)


@given(st.lists(st.integers(0, 20), min_size=2, max_size=6))
def test_price_matches_sort_oracle(values):
    reps = tn_reports(values)
    ordered = sorted(values, reverse=True)
    assert resale_revenue_fn(reps, 1) == ordered[0]
    assert price_fn(reps, 1) == ordered[1]


def test_pricing_matches_its_max_and_sorted_definitions():
    # Every bundle of seeded multi-item tables, for 0, 1 and several
    # non-traders, including tied and all-zero values.
    from netauction.generate import random_valuation

    rng = random.Random(5)
    for count in (0, 1, 2, 3, 5):
        for _ in range(40):
            m = rng.randint(0, 3)
            reps = [
                BidderReport(k, random_valuation(m, rng.choice((0, 2, 9)), rng),
                             frozenset())
                for k in range(count)
            ]
            for bundle in range(1 << m):
                values = [rep.values[bundle] for rep in reps]
                assert resale_revenue_fn(reps, bundle) == max(values, default=0)
                second = sorted(values, reverse=True)[1] if count >= 2 else 0
                assert price_fn(reps, bundle) == second


def test_figure_style_prices():
    # the two price-setters value item b at 9 and 7, both items together at 11
    reps = [
        BidderReport(3, (0, 3, 9, 11), frozenset()),
        BidderReport(4, (0, 3, 7, 11), frozenset()),
    ]
    b = bundle_from_items([2])
    assert price_fn(reps, b) == 7
    assert resale_revenue_fn(reps, b) == 9
    assert price_fn(reps, 3) == 11
    assert resale_revenue_fn(reps, 3) == 11


# ---------------------------------------------------------------------------
# Resale process
# ---------------------------------------------------------------------------


def dealer_market():
    # dealer 1 invites competing bidders 2 and 3; 4 stays outside her cut
    return build_instance(
        1,
        {1, 4},
        {1: {2, 3}, 2: set(), 3: set(), 4: set()},
        {
            1: (0, 1),
            2: (0, 5),
            3: (0, 8),
            4: (0, 2),
        },
    )


def test_resale_success_branch():
    inst = dealer_market()
    pr = lambda b: 1 if b else 0
    rev = lambda b: 2 if b else 0
    result = resell(inst, 1, BundleTuple(1, 0), pr, rev)
    # local market {2, 3}: bidder 3 outbids 2 and pays the second price 5
    assert result.resold
    assert result.allocation[3] == 1
    assert result.payment[3] == 5
    assert result.payment[2] == 0
    assert result.payment[1] == pr(1) - rev(1) == -1
    assert result.seller_revenue == 4


def test_resale_failure_falls_to_reservation():
    inst = dealer_market()
    pr = lambda b: 7 if b else 0
    rev = lambda b: 9 if b else 0
    result = resell(inst, 1, BundleTuple(1, 1), pr, rev)
    assert not result.resold
    assert result.allocation[1] == 1
    assert result.payment[1] == 7
    assert result.allocation[3] == 0 and result.payment[3] == 0


def test_no_reach_reserves_quietly():
    inst = build_instance(
        1, {6}, {6: set()}, {6: (0, 4)}
    )
    pr = lambda b: 0
    rev = lambda b: 0
    result = resell(inst, 6, BundleTuple(1, 1), pr, rev)
    assert not result.resold
    assert result.allocation[6] == 1
    assert result.payment[6] == 0


def test_empty_tuple_is_all_zero():
    inst = dealer_market()
    result = resell(inst, 1, BundleTuple(0, 0), lambda b: 0, lambda b: 0)
    assert result.allocation == {1: 0, 2: 0, 3: 0}
    assert result.payment == {1: 0, 2: 0, 3: 0}


def test_reserve_floor_lifts_the_local_price():
    # single invitee valuing the item above the fixed resale revenue
    inst = build_instance(
        1, {2}, {2: {7}, 7: set()},
        {2: (0, 1), 7: (0, 5)},
    )
    pr = lambda b: 3 if b else 0
    rev = lambda b: 3 if b else 0
    plain = resell(inst, 2, BundleTuple(1, 1), pr, rev)
    assert not plain.resold  # alone, the invitee would pay 0 < 3
    floored = resell(inst, 2, BundleTuple(1, 1), pr, rev, local=idm_run)
    assert floored.resold
    assert floored.allocation[7] == 1
    assert floored.payment[7] == 3
    assert floored.payment[2] == 0  # price minus revenue


def test_resale_revenue_is_read_once_with_or_without_a_floor():
    inst = build_instance(
        1, {2}, {2: {7}, 7: set()},
        {2: (0, 1), 7: (0, 5)},
    )
    reads = []

    def rev(b):
        reads.append(b)
        return 3 if b else 0

    for local in (unfloored_idm, idm_run):
        reads.clear()
        resell(inst, 2, BundleTuple(1, 1), lambda b: 3 if b else 0, rev, local)
        assert reads == [1]


def test_top_value_below_the_reserve_floor_means_no_sale():
    inst = build_instance(
        1, {2}, {2: {7}, 7: set()},
        {2: (0, 1), 7: (0, 2)},
    )
    pr = lambda b: 3 if b else 0
    rev = lambda b: 5 if b else 0  # no local value reaches this floor
    result = resell(inst, 2, BundleTuple(1, 1), pr, rev, local=idm_run)
    assert not result.resold
    assert result.allocation[2] == 1
    assert result.payment[2] == 3


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


def test_empty_network_empty_outcome():
    inst = build_instance(2, set(), {})
    outcome = engine_outcome(inst, graph_exploration_cdp, greedy_bdp, unfloored_idm)
    assert outcome.seller_revenue == 0
    assert all(b == 0 for b in outcome.allocation.values())


def test_single_neighbor_reserves_at_zero():
    inst = build_instance(1, {1}, {1: set()}, {1: (0, 5)})
    outcome = engine_outcome(inst, mutants.trivial_cdp, greedy_bdp, unfloored_idm)
    assert outcome.allocation[1] == 1
    assert outcome.payment[1] == 0
    assert outcome.seller_revenue == 0


def test_two_round_showcase_structure():
    run = dcaf_run_detailed(
        two_round_showcase(), graph_exploration_cdp, greedy_bdp, unfloored_idm
    )
    assert len(run.rounds) == 2
    first, second = run.rounds
    assert first.candidates == (1, 2)
    assert first.non_trading == (3, 4)
    assert first.tuples[0] == BundleTuple(2, 0)  # resale {b}, reserve empty
    assert first.resold == (False, False)
    assert second.candidates == (6,)
    assert second.non_trading == ()
    assert second.resold == (True,)
    # Price setters are kept in ascending id order, which on CPython is not
    # the split's set order here: list(frozenset({1, 8})) == [8, 1].
    spread = build_instance(
        1, {1, 2, 3, 8},
        {2: {4, 5}, 3: {6, 7}, **{i: set() for i in (1, 4, 5, 6, 7, 8)}},
        {i: (0, 1) for i in range(1, 9)},
    )
    spread_first = dcaf_run_detailed(
        spread, graph_exploration_cdp, greedy_bdp, unfloored_idm
    ).rounds[0]
    assert spread_first.candidates == (2, 3)
    assert spread_first.non_trading == (1, 8)
    # item b failed to move in round one and returned to the pool
    assert first.items_after == 2
    outcome = run.outcome
    assert outcome.allocation[2] == 1 and outcome.payment[2] == 3
    assert outcome.allocation[8] == 2 and outcome.payment[8] == 0
    assert outcome.seller_revenue == 3
    # bidders 10 and 11 were never reached
    assert outcome.allocation[10] == outcome.allocation[11] == 0
    assert outcome.payment[10] == outcome.payment[11] == 0


def test_two_round_showcase_participants_and_frontier():
    run = dcaf_run_detailed(
        two_round_showcase(), graph_exploration_cdp, greedy_bdp, unfloored_idm
    )
    first, second = run.rounds
    assert first.index == 0
    assert sorted(first.residual.reports) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
    assert sorted(first.residual.seller_neighbors) == [1, 2, 3, 4]
    assert second.index == 1
    assert sorted(second.residual.reports) == [6, 8, 10, 11]
    assert sorted(second.residual.seller_neighbors) == [6]


def test_embedded_branch_reproduces_the_market():
    outcome = engine_outcome(
        embedded_branch_fixture(), graph_exploration_cdp, greedy_bdp, unfloored_idm
    )
    assert outcome.allocation[2] == 1
    assert outcome.payment[2] == 6
    assert outcome.payment[1] == -4
    assert outcome.payment[6] == 0
    assert outcome.seller_revenue == 2


def test_rounds_conserve_everything_on_random_corpus():
    family = generate_instances(FamilySpec(n=9, m=3, v_max=5, count=120, seed=31))
    family += generate_instances(
        FamilySpec(n=7, m=2, v_max=4, graph_model="erdos-renyi", count=120, seed=32)
    )
    for inst in family:
        run = dcaf_run_detailed(inst, graph_exploration_cdp, greedy_bdp, unfloored_idm)
        check_outcome(inst, run.outcome)  # disjointness, untouched
        removed_so_far = set()
        for state in run.rounds:
            assert state.intake >= 0
            assert not (state.removed & removed_so_far)
            removed_so_far |= state.removed
            assert state.removed  # progress every round
        assert len(run.rounds) <= len(inst.reports)
        assert sum(state.intake for state in run.rounds) == run.outcome.seller_revenue


@pytest.mark.parametrize("allocation, payment, message", [
    ({1: 0b01, 2: 0b11}, {}, "bidder 2 overlaps an earlier allocation"),
    ({1: 0b100}, {}, "bidder 1 allocated unknown items"),
    ({3: 0b01}, {}, "unqualified bidder 3 was touched"),
    ({}, {3: -1}, "unqualified bidder 3 was touched"),
], ids=["overlap", "unknown-item", "unqualified-won", "unqualified-paid"])
def test_check_outcome_rejects_each_broken_invariant(allocation, payment, message):
    inst = build_instance(2, {1, 2}, {1: set(), 2: set(), 3: set()})  # 3 unreached
    check_outcome(inst, Outcome({1: 0b01, 2: 0b10}, {1: 1, 2: 1}))
    with pytest.raises(AssertionError, match=message):
        check_outcome(inst, Outcome(allocation, payment))


def test_overlapping_tuples_rejected():
    inst = dealer_market()

    def clashing_bdp(instance, remaining, candidates, pr, rev):
        return tuple(BundleTuple(remaining, remaining) for _ in candidates)

    with pytest.raises(InvalidTuple):
        engine_outcome(
            build_instance(
                1, {1, 2}, {1: set(), 2: set(), 3: set()},
                {1: (0, 1), 2: (0, 1)},
            ),
            mutants.trivial_cdp,
            clashing_bdp,
            unfloored_idm,
        )


def overlapping_cdp(residual):
    return (1,), frozenset({1})


def nested_cdp(residual):
    # Bidder 1 alone invites bidder 2, so 2 lies inside 1's reach.
    return (1, 2), frozenset()


def outside_pool_bdp(instance, remaining, candidates, pr, rev):
    return tuple(BundleTuple(remaining << 1, 0) for _ in candidates)


@pytest.mark.parametrize("cdp, bdp, error, message", [
    (overlapping_cdp, greedy_bdp, InvalidTuple,
     "candidate and non-trading sets overlap"),
    (mutants.trivial_cdp, outside_pool_bdp, InvalidTuple,
     r"\(resale=\{2\}, reserve=\{\}\) leaves the remaining item pool"),
    (nested_cdp, greedy_bdp, AuctionError,
     "candidate reaches overlap at distributor 2"),
], ids=["split-overlap", "outside-pool", "nested-reaches"])
def test_unsound_split_or_division_rejected(cdp, bdp, error, message):
    inst = build_instance(
        1, {1}, {1: {2}, 2: set()},
        {1: (0, 1), 2: (0, 1)},
    )
    with pytest.raises(error, match=message):
        dcaf_run_detailed(inst, cdp, bdp, unfloored_idm)


def test_split_that_classifies_nobody_ends_after_one_round():
    # The round removes nobody, so the next frontier, which holds only
    # invitees of removed bidders, is empty although all three remain.
    def idle_cdp(residual):
        return (), frozenset()

    run = dcaf_run_detailed(line_market_fixture(), idle_cdp, greedy_bdp, unfloored_idm)
    assert len(run.rounds) == 1
    assert run.rounds[0].removed == frozenset()
    assert set(run.outcome.allocation.values()) == {0}
    assert set(run.outcome.payment.values()) == {0}


@pytest.mark.parametrize(
    "resize", [lambda t: t[:-1], lambda t: t + (BundleTuple(0, 0),)],
    ids=["one-short", "one-extra"],
)
def test_wrong_number_of_tuples_rejected(resize):
    def resized_bdp(*args):
        return resize(greedy_bdp(*args))

    with pytest.raises(InvalidTuple, match="bundle tuples for 2 candidates"):
        engine_outcome(
            two_round_showcase(), graph_exploration_cdp, resized_bdp, unfloored_idm
        )


def test_unqualified_bidders_untouched_regardless_of_reports():
    inst = build_instance(
        1, {1}, {1: set(), 2: {3}, 3: set()},
        {2: (0, 9), 3: (0, 9)},
    )
    outcome = engine_outcome(inst, graph_exploration_cdp, greedy_bdp, unfloored_idm)
    assert outcome.allocation[2] == outcome.allocation[3] == 0
    assert outcome.payment[2] == outcome.payment[3] == 0


def test_unqualified_distributor_rejected():
    # Bidder 2 is in the residual instance but nobody invites her, so she
    # has no dominator subtree; a split that names her is unsound.
    inst = build_instance(
        1, {1}, {1: set(), 2: set()},
        {1: (0, 1), 2: (0, 1)},
    )

    def unreachable_cdp(residual):
        return (2,), frozenset()

    with pytest.raises(Unqualified, match="bidder 2 is not reachable from the seller"):
        dcaf_run_detailed(inst, unreachable_cdp, greedy_bdp, unfloored_idm)
