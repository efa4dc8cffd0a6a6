"""Concrete processes: exploration split, bundle division, full dealer runs."""

import random
from collections import Counter
from dataclasses import replace

import pytest

from netauction.drm import (
    MECHANISMS,
    TooManyItems,
    baseline_direct_second_price,
    graph_exploration_cdp,
    greedy_bdp,
    random_single_item_bdp,
    run_with_config,
)
from netauction.framework import BundleTuple, dcaf_run_detailed
from netauction.generate import (
    FamilySpec,
    all_digraph_networks,
    embedded_branch_fixture,
    generate_instances,
    instance_from_parts,
)
from netauction.model import (
    AuctionInstance,
    BidderReport,
    MechanismConfig,
    Valuation,
    full_bundle,
    iter_subbundles,
)

import mutants
from reference import two_round_showcase, virtual_bidder_idm
from test_model import build_instance


def drm(instance):
    return run_with_config(instance, MechanismConfig())


def exploration_example():
    """Hand-simulated split: frontier degrees (3,2,2,0); non-traders 3 and 4
    expose {5,6} with degrees (1,0); 5 joins the candidates, 6 does not."""
    return build_instance(
        1,
        {1, 2, 3, 4},
        {
            1: {2, 3, 4},
            2: {1, 3},
            3: {5, 6},
            4: set(),
            5: {6},
            6: set(),
        },
    )


def test_exploration_split_hand_simulation():
    inst = exploration_example()
    part = graph_exploration_cdp(inst)
    assert part.candidates == (1, 2, 5)
    assert part.non_trading == {3, 4, 6}


def test_singleton_frontier_is_a_lone_candidate():
    inst = build_instance(1, {1}, {1: {2}, 2: set()})
    part = graph_exploration_cdp(inst)
    assert part.candidates == (1,)
    assert part.non_trading == frozenset()


def reference_exploration_cdp(residual_instance):
    """The split as first written, i.e. the mutants' ranked exploration with
    the exploration split's rank: every layer re-expands every price setter
    found so far and keeps what lies among the reporting bidders."""
    reports = residual_instance.reports
    return mutants._ranked_exploration(
        residual_instance, lambda i: (-len(reports[i].neighbors), i)
    )


def ragged_network(rng):
    """A random invitation graph with the shapes a residual instance can
    have: invitees without reports, self-invitations, and seller invitations
    that name ids nobody reports for."""
    n = rng.randint(1, 40)
    ids = rng.sample(range(1, 3 * n + 1), n)
    universe = ids + [max(ids) + k for k in range(1, 6)]
    p = rng.choice((0.05, 0.15, 0.4))
    reports = {
        i: BidderReport(
            i, Valuation.zero(1), frozenset(j for j in universe if rng.random() < p)
        )
        for i in ids
    }
    frontier = [rng.choice(universe) for _ in range(rng.randint(0, 8))]
    return AuctionInstance(1, frozenset(frontier), reports)


def test_split_matches_the_reference_on_every_small_digraph():
    for n in range(1, 4):
        for seller, out_edges in all_digraph_networks(n):
            inst = instance_from_parts(
                1, seller, out_edges, dict.fromkeys(out_edges, Valuation.zero(1))
            )
            assert graph_exploration_cdp(inst) == reference_exploration_cdp(inst)


def test_split_matches_the_reference_on_ragged_random_graphs():
    rng = random.Random(8)
    for _ in range(300):
        inst = ragged_network(rng)
        assert graph_exploration_cdp(inst) == reference_exploration_cdp(inst)


def test_trivial_cdp_takes_the_whole_frontier():
    inst = exploration_example()
    part = mutants.trivial_cdp(inst)
    assert part.candidates == (1, 2, 3, 4)
    assert part.non_trading == frozenset()


def test_split_is_valuation_blind():
    inst = exploration_example()
    baseline = graph_exploration_cdp(inst)
    # hand every bidder a different loud table; the split must not move
    loud = inst
    for k, i in enumerate(sorted(inst.reports)):
        loud = loud.with_report(
            replace(loud.reports[i], valuation=Valuation(1, (0, 50 + k)))
        )
    assert graph_exploration_cdp(loud) == baseline


# ---------------------------------------------------------------------------
# Bundle division
# ---------------------------------------------------------------------------


def figure_style_pricing():
    """Price/revenue pair matching the worked two-item narrative: item a
    prices at 3/3, item b at 7/9, the pair at 11/11."""
    a, b, ab = 1, 2, 3

    def pr(bundle):
        return {0: 0, a: 3, b: 7, ab: 11}[bundle]

    def rev(bundle):
        return {0: 0, a: 3, b: 9, ab: 11}[bundle]

    return pr, rev


def test_greedy_zero_value_candidate_picks_the_margin_bundle():
    pr, rev = figure_style_pricing()
    inst = build_instance(2, {1}, {1: set()})  # zero valuation everywhere
    tuples = greedy_bdp(inst, 0b11, (1,), pr, rev)
    assert tuples == (BundleTuple(0b10, 0),)  # resale {b}, reserve empty


def test_greedy_full_pool_when_prices_vanish():
    table = Valuation(2, (0, 2, 3, 6))  # strictly increasing
    inst = build_instance(2, {1}, {1: set()}, {1: table})
    tuples = greedy_bdp(inst, 0b11, (1,), lambda b: 0, lambda b: 0)
    assert tuples == (BundleTuple(0b11, 0b11),)


def test_greedy_tie_prefers_fewer_items():
    table = Valuation(2, (0, 4, 0, 4))  # the pair adds nothing over item 1
    inst = build_instance(2, {1}, {1: set()}, {1: table})
    tuples = greedy_bdp(inst, 0b11, (1,), lambda b: 0, lambda b: 0)
    assert tuples == (BundleTuple(0b01, 0b01),)


def test_greedy_candidates_never_overlap():
    from netauction.generate import random_valuation

    rng = random.Random(9)
    for _ in range(80):
        m = rng.randint(1, 4)
        tables = {i: random_valuation(m, 6, rng) for i in (1, 2, 3)}
        inst = build_instance(
            m, {1, 2, 3}, {1: set(), 2: set(), 3: set()}, tables
        )
        tuples = greedy_bdp(
            inst, full_bundle(m), (1, 2, 3), lambda b: 0, lambda b: 0
        )
        taken = 0
        for tup in tuples:
            assert tup.footprint() & taken == 0
            taken |= tup.footprint()


def reference_greedy_bdp(residual_instance, remaining, candidates, pr, rev, ties):
    """Greedy division as first written: two value reads per bundle and the
    resale score through ``max``.  ``ties`` counts, per objective, the
    bundles that matched the best positive score so far and lost."""
    tuples = {}
    pool = remaining
    for cand in sorted(candidates):
        value = residual_instance.reports[cand].valuation.values
        best_resale, best_resale_score = 0, 0
        best_reserve, best_reserve_score = 0, 0
        for b in iter_subbundles(pool):
            price = pr(b)
            resale_score = max(value[b], rev(b)) - price
            reserve_score = value[b] - price
            if resale_score > best_resale_score:
                best_resale, best_resale_score = b, resale_score
            elif resale_score == best_resale_score > 0:
                ties["resale"] += 1
            if reserve_score > best_reserve_score:
                best_reserve, best_reserve_score = b, reserve_score
            elif reserve_score == best_reserve_score > 0:
                ties["reserve"] += 1
        tuples[cand] = BundleTuple(best_resale, best_reserve)
        pool &= ~(best_resale | best_reserve)
    return tuple(tuples[c] for c in candidates)


def test_greedy_matches_the_reference_on_seeded_markets():
    from netauction.generate import random_valuation

    rng = random.Random(21)
    ties = Counter()
    for _ in range(500):
        m = rng.randint(0, 6)
        pool = rng.randrange(1 << m)  # items missing from the pool
        v_max = rng.choice((1, 3, 8))
        candidates = tuple(rng.sample(range(1, 6), rng.randint(1, 3)))
        reports = {
            i: BidderReport(i, random_valuation(m, v_max, rng), frozenset())
            for i in candidates
        }
        inst = AuctionInstance(m, frozenset(candidates), reports)
        revenue = [0] + [rng.randint(0, v_max) for _ in range(1, 1 << m)]
        price = [0] + [rng.choice((0, r, rng.randint(0, r))) for r in revenue[1:]]
        pr, rev = price.__getitem__, revenue.__getitem__
        assert greedy_bdp(inst, pool, candidates, pr, rev) == (
            reference_greedy_bdp(inst, pool, candidates, pr, rev, ties)
        )
    assert ties["resale"] and ties["reserve"]


def test_greedy_rejects_oversized_pools():
    inst = build_instance(13, {1}, {1: set()})
    with pytest.raises(TooManyItems):
        greedy_bdp(
            inst, full_bundle(13), (1,), lambda b: 0, lambda b: 0
        )


def test_random_bdp_distinct_items_and_determinism():
    inst = build_instance(2, {1, 2}, {1: set(), 2: set()})
    first = random_single_item_bdp(
        inst, 0b11, (1, 2), lambda b: 0, lambda b: 0, rng=random.Random(7)
    )
    again = random_single_item_bdp(
        inst, 0b11, (1, 2), lambda b: 0, lambda b: 0, rng=random.Random(7)
    )
    assert first == again
    masks = [t.resale for t in first]
    assert sorted(masks) == [0b01, 0b10]
    for t in first:
        assert t.resale == t.reserve
        assert bin(t.resale).count("1") == 1


def test_random_bdp_empty_pool_gives_empty_tuples():
    inst = build_instance(2, {1, 2}, {1: set(), 2: set()})
    tuples = random_single_item_bdp(
        inst, 0, (1, 2), lambda b: 0, lambda b: 0, rng=random.Random(7)
    )
    assert tuples == (BundleTuple(0, 0), BundleTuple(0, 0))


# ---------------------------------------------------------------------------
# Assembled runs
# ---------------------------------------------------------------------------


def test_drm_empty_network():
    outcome = drm(build_instance(2, set(), {}))
    assert outcome.seller_revenue == 0


def test_drm_single_neighbor_reserves_free():
    inst = build_instance(1, {1}, {1: set()}, {1: Valuation(1, (0, 5))})
    outcome = drm(inst)
    assert outcome.allocation[1] == 1
    assert outcome.payment[1] == 0


def test_drm_branch_composition():
    outcome = drm(embedded_branch_fixture())
    assert outcome.payment[2] == 6
    assert outcome.payment[1] == -4
    assert outcome.seller_revenue == 2


def test_drm_variants_run_and_conserve():
    family = generate_instances(FamilySpec(n=6, m=2, v_max=4, count=25, seed=77))
    config = MechanismConfig(rng_seed=5)
    for inst in family:
        for name in ("drm", "drm-random-bdp", "drm-reserve"):
            outcome = MECHANISMS[name](inst, config)
            assert outcome.seller_revenue >= 0


def test_drm_reserve_matches_the_engine_with_a_virtual_bidder():
    # The golden corpus: drm-reserve plugs IDM floored at the resale bar, and
    # must run exactly as the engine does with the bar as a virtual bidder.
    from test_golden import corpus

    config = MechanismConfig()
    differs = 0
    for inst in corpus():
        reference = dcaf_run_detailed(
            inst, graph_exploration_cdp, greedy_bdp, virtual_bidder_idm
        ).outcome
        assert MECHANISMS["drm-reserve"](inst, config) == reference
        differs += reference != MECHANISMS["drm"](inst, config)
    assert differs  # the floor matters somewhere in the corpus


def test_random_bdp_mechanism_is_seed_deterministic():
    inst = generate_instances(FamilySpec(n=6, m=2, v_max=4, count=1, seed=3))[0]
    mech = MECHANISMS["drm-random-bdp"]
    assert mech(inst, MechanismConfig(rng_seed=11)) == mech(
        inst, MechanismConfig(rng_seed=11)
    )


def test_greedy_drm_seeds_no_generator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("greedy bundle division never draws")

    monkeypatch.setattr(random, "Random", refuse)
    outcome = run_with_config(two_round_showcase(), MechanismConfig())
    assert outcome.seller_revenue == 3


def test_baseline_direct_second_price():
    inst = build_instance(
        1, {1, 2}, {1: set(), 2: set()},
        {1: Valuation(1, (0, 3)), 2: Valuation(1, (0, 7))},
    )
    outcome = baseline_direct_second_price(inst, MechanismConfig())
    assert outcome.allocation[2] == 1
    assert outcome.payment[2] == 3
    lone = build_instance(1, {1}, {1: set()}, {1: Valuation(1, (0, 3))})
    outcome = baseline_direct_second_price(lone, MechanismConfig())
    assert outcome.payment[1] == 0
    assert baseline_direct_second_price(
        build_instance(1, set(), {}), MechanismConfig()
    ).seller_revenue == 0
    # A tie between direct neighbors goes to the lower id at the tied value.
    tie = build_instance(
        1, {2, 3}, {2: set(), 3: set()},
        {2: Valuation(1, (0, 5)), 3: Valuation(1, (0, 5))},
    )
    outcome = baseline_direct_second_price(tie, MechanismConfig())
    assert outcome.allocation == {2: 1, 3: 0}
    assert outcome.payment == {2: 5, 3: 0}
    # No diffusion: bidder 3, invited by 1 and valued above all, is ignored.
    invited = build_instance(
        1, {1, 2}, {1: {3}, 2: set(), 3: set()},
        {1: Valuation(1, (0, 4)), 2: Valuation(1, (0, 2)), 3: Valuation(1, (0, 9))},
    )
    outcome = baseline_direct_second_price(invited, MechanismConfig())
    assert outcome.allocation == {1: 1, 2: 0, 3: 0}
    assert outcome.payment == {1: 2, 2: 0, 3: 0}


def test_drm_with_no_items_touches_nobody():
    inst = build_instance(0, {1}, {1: {2}, 2: set()})
    outcome = drm(inst)
    assert all(b == 0 for b in outcome.allocation.values())
    assert outcome.seller_revenue == 0
