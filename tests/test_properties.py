"""Verifiers: clean mechanisms come back clean, planted bugs get caught,
and every reported counterexample replays exactly."""

import itertools
import random
import re
from collections import Counter
from dataclasses import replace

import pytest

from netauction.critical import all_critical_structures
from netauction.drm import (
    MECHANISMS,
    baseline_direct_second_price,
    graph_exploration_cdp,
    greedy_bdp,
    idm_grand_bundle,
    run_with_config,
    run_with_config_detailed,
)
from netauction.framework import BundleTuple
from netauction.generate import (
    FamilySpec,
    all_digraph_networks,
    all_subsets,
    all_undirected_networks,
    branch_market_fixture,
    embedded_branch_fixture,
    generate_instances,
    instance_from_parts,
    monotone_tables,
    scalar_market,
    topology_family,
)
from netauction.idm import idm_run
from netauction.model import (
    AuctionError,
    AuctionInstance,
    BidderReport,
    MechanismConfig,
    Outcome,
    Valuation,
    utility,
)
from netauction.properties import (
    CheckResult,
    DeviationSpace,
    Violation,
    _deviations,
    _subset_lattice,
    check_bdp_locality,
    check_cdp_consistency,
    check_ic,
    check_ir,
    check_revenue_consistency,
    check_wbb,
    find_epi4nw_witness,
    replay_violation,
)

import mutants
from reference import (
    check_rdm_end_to_end,
    deviation_cases_without_memo,
    two_round_showcase,
)
from test_model import build_instance


def drm(instance):
    return run_with_config(instance, MechanismConfig())


def idm_standalone(instance):
    return idm_grand_bundle(instance, MechanismConfig())


def baseline(instance):
    return baseline_direct_second_price(instance, MechanismConfig())


TINY = topology_family(("line", "star", "branch"), 3, v_max=2)
SPACE = DeviationSpace(v_max=2, budget=4096)


# ---------------------------------------------------------------------------
# Table enumeration sanity
# ---------------------------------------------------------------------------


def test_monotone_table_counts():
    assert len(monotone_tables(1, 3)) == 4
    # m=2, values 0..3: free choice of singles, pair at least their max
    assert len(monotone_tables(2, 3)) == 30
    for table in monotone_tables(2, 3):
        assert table.monotonicity_violation() is None
        assert table.values[0] == 0


# ---------------------------------------------------------------------------
# Deviation enumeration: one enumerator keeps both former streams
# ---------------------------------------------------------------------------


def reference_unilateral_deviations(truth, m, space, rng):
    """The enumerator IC and RC used before IR shared it."""
    tables = monotone_tables(m, space.v_max)
    subsets = all_subsets(truth.neighbors)
    total = len(tables) * len(subsets)
    if total <= space.budget:
        return (
            [
                BidderReport(truth.bidder_id, tbl, sub)
                for tbl in tables
                for sub in subsets
            ],
            False,
        )
    out = [
        BidderReport(truth.bidder_id, rng.choice(tables), rng.choice(subsets))
        for _ in range(space.budget)
    ]
    return out, True


def reference_neighbor_deviations(truth, space, rng):
    """The enumerator IR used before it shared IC's: the true table only."""
    subsets = all_subsets(truth.neighbors)
    if len(subsets) <= space.budget:
        return [truth.with_neighbors(sub) for sub in subsets], False
    out = [truth.with_neighbors(rng.choice(subsets)) for _ in range(space.budget)]
    return out, True


def stream(enumerate_deviations, seed):
    """The deviations, the clipped flag and the generator's state after."""
    rng = random.Random(seed)
    devs, clipped = enumerate_deviations(rng)
    return devs, clipped, rng.getstate()


# Two item counts, neighbor sets of 0..6 ids, budgets from the whole grid
# down to one draw (so both the exhaustive and the sampled path run) and
# two seeds.
STREAM_TRUTHS = [
    BidderReport(1, Valuation.from_pairs(m, {(1 << m) - 1: 2}), frozenset(range(2, k)))
    for m in (1, 2)
    for k in (2, 3, 5, 8)
]
STREAM_CASES = list(itertools.product(STREAM_TRUTHS, [4096, 40, 5, 1], (0, 11)))


@pytest.mark.parametrize("v_max", [1, 2, 3])
def test_deviations_keep_the_ic_and_rc_stream(v_max):
    clipped_flags = set()
    for truth, budget, seed in STREAM_CASES:
        space = DeviationSpace(v_max=v_max, budget=budget)
        tables = monotone_tables(truth.valuation.m, v_max)
        merged = stream(lambda rng: _deviations(truth, tables, space, rng), seed)
        assert merged == stream(
            lambda rng: reference_unilateral_deviations(
                truth, truth.valuation.m, space, rng
            ),
            seed,
        )
        clipped_flags.add(merged[1])
    assert clipped_flags == {False, True}


def test_deviations_keep_the_ir_stream():
    clipped_flags = set()
    for truth, budget, seed in STREAM_CASES:
        space = DeviationSpace(budget=budget)
        tables = (truth.valuation,)
        merged = stream(lambda rng: _deviations(truth, tables, space, rng), seed)
        assert merged == stream(
            lambda rng: reference_neighbor_deviations(truth, space, rng), seed
        )
        clipped_flags.add(merged[1])
    assert clipped_flags == {False, True}


@pytest.mark.parametrize("m, v_max", [(1, 0), (0, 3)])
def test_one_table_space_samples_subsets_only(m, v_max):
    """With a single table (``v_max=0`` or ``m=0``) a sampled draw picks a
    subset and nothing else, as the IR stream always did; the exhaustive
    grid is the same either way."""
    (table,) = monotone_tables(m, v_max)
    truth = BidderReport(1, table, frozenset(range(2, 8)))
    for budget in (64, 40):
        space = DeviationSpace(v_max=v_max, budget=budget)
        merged = stream(lambda rng: _deviations(truth, (table,), space, rng), 5)
        assert merged == stream(
            lambda rng: reference_neighbor_deviations(truth, space, rng), 5
        )
        old = stream(
            lambda rng: reference_unilateral_deviations(truth, m, space, rng), 5
        )
        assert (merged == old) == (budget == 64)


# ---------------------------------------------------------------------------
# Clean mechanisms
# ---------------------------------------------------------------------------


def test_idm_ir_and_ic_clean_on_tiny_markets():
    assert check_ir(idm_standalone, TINY, SPACE).ok
    result = check_ic(idm_standalone, TINY, SPACE)
    assert result.ok
    assert result.scope == "exhaustive"
    assert result.cases > 0


def test_drm_ir_clean_on_tiny_markets():
    assert check_ir(drm, TINY, SPACE).ok


def test_drm_wbb_on_seeded_corpus():
    family = generate_instances(FamilySpec(n=8, m=3, v_max=6, count=150, seed=2))
    result = check_wbb(drm, family)
    assert result.ok
    assert result.instances == 150


def test_zero_valuation_bidder_sits_at_exactly_zero():
    inst = scalar_market("line", (0, 0, 0))
    outcome = drm(inst)
    for i in (1, 2, 3):
        assert utility(inst.ground_truth[i], outcome, i) == 0


def test_exploration_cdc_clean_on_all_small_digraphs():
    networks = list(all_digraph_networks(3))
    result = check_cdp_consistency(graph_exploration_cdp, networks)
    assert result.ok
    assert result.instances == len(networks)


def test_trivial_cdp_is_consistent():
    assert check_cdp_consistency(mutants.trivial_cdp, all_digraph_networks(3)).ok


def reference_digraph_networks(n):
    """The digraph enumeration built network by network: a fresh seller set
    per seller bitmask and a fresh map per network."""
    ids = list(range(1, n + 1))
    edge_choices = [all_subsets(j for j in ids if j != i) for i in ids]
    for seller_bits in range(1 << n):
        seller = frozenset(i for i in ids if seller_bits >> (i - 1) & 1)
        for combo in itertools.product(*edge_choices):
            yield seller, dict(zip(ids, combo))


@pytest.mark.parametrize("n", range(5))
def test_digraph_enumeration_shares_each_map_and_seller_set(n):
    networks = list(all_digraph_networks(n))
    assert networks == list(reference_digraph_networks(n))
    assert len({id(out) for _, out in networks}) == 2 ** (n * (n - 1))
    assert len({id(seller) for seller, _ in networks}) == 2 ** n


def test_undirected_enumeration_shares_each_map_and_seller_set():
    networks = list(all_undirected_networks(4))
    assert len(networks) == 2 ** (6 + 4)
    assert len({id(out) for _, out in networks}) == 64
    assert len({id(seller) for seller, _ in networks}) == 16


def test_greedy_locality_clean():
    family = TINY + generate_instances(
        FamilySpec(n=5, m=2, v_max=3, graph_model="erdos-renyi", count=40, seed=4)
    )
    result = check_bdp_locality(greedy_bdp, family)
    assert result.ok


def test_idm_revenue_consistency_clean():
    markets = topology_family(("line", "star", "branch"), 3, v_max=3)
    result = check_revenue_consistency(idm_run, markets)
    assert result.ok


def test_epi4nw_witness_found_for_drm():
    witness = find_epi4nw_witness(drm, [embedded_branch_fixture()])
    assert witness is not None
    assert witness.bidder == 1
    assert witness.delta == -4
    assert replay_violation(drm, witness) == -4


def test_epi4nw_absent_for_no_reward_mechanisms():
    family = [embedded_branch_fixture(), two_round_showcase()] + TINY
    assert find_epi4nw_witness(baseline, family) is None


# ---------------------------------------------------------------------------
# The dealer mechanism is not deviation-proof: the forced-resale gap
# ---------------------------------------------------------------------------


def test_drm_ic_fails_by_forced_resale():
    """A dealer whose own value exceeds her resale margin profits by hiding
    her invitees: truthfully she must hand the bundle over (the local
    proceeds meet the zero revenue bar), while hiding them drops her into the
    reservation branch where she keeps it.  Minimal case: a two-bidder line.
    The run documents this as a real property of the assembled mechanism; see
    the packaged verification notes."""
    line2 = scalar_market("line", (1, 2))
    result = check_ic(drm, [line2], SPACE)
    assert not result.ok
    gains = {
        (v.bidder, frozenset(v.deviation.neighbors)): v.delta
        for v in result.violations
    }
    assert gains[(1, frozenset())] == 1  # hiding bidder 2 wins the item free
    for violation in result.violations:
        assert replay_violation(drm, violation) == violation.delta


def test_drm_ic_gap_by_value_misreport_when_others_misreport():
    """The second route to the forced-resale gap, found by criterion 4b in
    its instance 127 (this one) under one sampled misreport of the others;
    with the others truthful every violation hides all invitees.  Bidder 1
    keeps her true invitee and misreports her values.  Greedy division then
    hands her item 2 for resale at the price setter's bar of 3, which her
    market cannot meet, and the whole pool as reserve at price 0.  Truthfully
    she resells item 1 at a zero margin and ends with nothing, so the
    misreport gains 3."""
    instance = generate_instances(
        FamilySpec(n=5, m=2, v_max=3, graph_model="erdos-renyi", count=25, seed=43)
    )[22]
    assert instance.m == 2 and instance.seller_neighbors == {1, 2}
    context = (
        BidderReport(2, Valuation(2, (0, 0, 3, 3)), frozenset()),
        BidderReport(3, Valuation(2, (0, 2, 1, 2)), frozenset({1, 5})),
        BidderReport(4, Valuation(2, (0, 2, 0, 2)), frozenset()),
        BidderReport(5, Valuation(2, (0, 0, 0, 2)), frozenset({4})),
    )
    true_neighbors = instance.ground_truth[1].neighbors
    deviation = BidderReport(1, Valuation(2, (0, 0, 0, 1)), true_neighbors)
    witness = Violation("IC", instance, 1, deviation, 3, context)
    assert deviation.neighbors == true_neighbors == {5}
    assert replay_violation(drm, witness) == 3

    config = MechanismConfig()
    truthful = run_with_config_detailed(witness.base_instance(), config).rounds[0]
    deviated = run_with_config_detailed(witness.deviated_instance(), config).rounds[0]
    assert truthful.candidates == deviated.candidates == (1,)
    assert truthful.tuples[0].resale == 0b01 and truthful.resold == (True,)
    assert deviated.tuples[0] == BundleTuple(resale=0b10, reserve=0b11)
    assert deviated.resold == (False,)


def test_rdm_end_to_end_detects_the_same_gap():
    result = check_rdm_end_to_end(drm, [scalar_market("line", (1, 2))])
    assert not result.ok
    assert result.violations[0].bidder == 1


def test_bdp_level_locality_still_holds_on_the_gap_instance():
    assert check_bdp_locality(greedy_bdp, [scalar_market("line", (1, 2))]).ok


def test_rdm_checkers_count_an_instance_without_seller_invitations():
    uninvited = instance_from_parts(1, (), {1: ()}, {1: Valuation.zero(1)})
    for result in (
        check_bdp_locality(greedy_bdp, [uninvited]),
        check_rdm_end_to_end(drm, [uninvited]),
    ):
        assert (result.instances, result.cases, result.ok) == (1, 0, True)


# ---------------------------------------------------------------------------
# Mutation tests: planted bugs must be caught
# ---------------------------------------------------------------------------


def test_overcharging_mechanism_caught_by_ir():
    result = check_ir(mutants.overcharging_mechanism, TINY, SPACE)
    assert not result.ok
    v = result.violations[0]
    assert replay_violation(mutants.overcharging_mechanism, v) == v.delta


def test_summary_marks_a_clipped_run():
    # The hub's 64 invitation subsets exceed a budget of 40.
    star = scalar_market("star", (1, 0, 2, 1, 0, 2, 1))
    result = check_ir(drm, [star], DeviationSpace(budget=40))
    assert result.summary() == (
        "IR: ok [sampled] instances=1 cases=46 violations=0"
        " (budget exceeded; sampled)"
    )


def test_hiding_pays_under_plain_second_price():
    line2 = scalar_market("line", (1, 2))
    result = check_ic(mutants.qualified_second_price, [line2], SPACE)
    assert any(
        v.bidder == 1 and not v.deviation.neighbors for v in result.violations
    )


def test_subsidizing_mechanism_caught_by_wbb():
    family = [scalar_market("line", (0, 0)), scalar_market("star", (0, 0, 0))]
    result = check_wbb(mutants.subsidizing_mechanism, family)
    assert not result.ok
    assert result.violations[0].delta < 0
    for v in result.violations:
        assert replay_violation(mutants.subsidizing_mechanism, v) == v.delta


@pytest.mark.parametrize("prop", ["CDC", "RDM"])
def test_no_replay_rule_for_split_division_or_revenue_witnesses(prop):
    witness = Violation(prop, scalar_market("line", (1, 2)), 1, None, 0)
    with pytest.raises(ValueError, match=f"no replay rule for {prop}"):
        replay_violation(drm, witness)


def cdc_notes(cdp):
    """Violations per note of ``cdp`` on every 3-bidder digraph."""
    result = check_cdp_consistency(cdp, all_digraph_networks(3))
    assert (result.instances, result.cases) == (512, 4992)
    return Counter(v.note for v in result.violations)


def test_inverted_ranking_caught_by_cdc():
    assert cdc_notes(mutants.ascending_degree_cdp) == {
        "left the non-trading side by deviating": 324,
        "candidate dropped after reporting more": 420,
    }


def test_valuation_ranked_cdp_caught_by_cdc():
    assert cdc_notes(mutants.valuation_ranked_cdp) == {
        "split depends on a valuation report": 256,
    }


def test_summary_prints_the_first_witness_and_its_note():
    result = check_cdp_consistency(mutants.valuation_ranked_cdp, all_digraph_networks(2))
    assert result.summary() == (
        "CDC: VIOLATED [exhaustive] instances=16 cases=80 violations=4\n"
        "  first witness: CDC at bidder 2, delta=0"
        " (split depends on a valuation report)"
    )


def test_invited_count_cdp_caught_by_cdc():
    # The one planted split behind the unclassified-bidder rule.
    assert cdc_notes(mutants.invited_count_cdp) == {
        "unclassified bidder changed the split": 54,
        "left the non-trading side by deviating": 162,
        "candidate dropped after reporting more": 235,
    }


def test_outside_invited_cdp_caught_by_cdc():
    # Only the non-trading side moves, so an unclassified-bidder rule that
    # compared candidate sets alone would miss most of these.
    assert cdc_notes(mutants.outside_invited_cdp) == {
        "unclassified bidder changed the split": 318,
        "left the non-trading side by deviating": 36,
    }


def reference_cdp_consistency(cdp, networks):
    """The candidacy sweep as it stood before the scratch instance: a fresh
    network instance per network, and a copied report and instance per
    split call."""
    result = CheckResult("CDC", "exhaustive")
    lattices = {}
    probe_table = Valuation.from_pairs(1, {1: 7})

    def flag(inst, i, deviation, note):
        result.violations.append(Violation("CDC", inst, i, deviation, 0, note=note))

    for seller, out_edges in networks:
        result.instances += 1
        inst = instance_from_parts(
            1, seller, out_edges, dict.fromkeys(out_edges, Valuation.zero(1))
        )
        for i, true_neighbors in out_edges.items():
            if true_neighbors not in lattices:
                lattices[true_neighbors] = _subset_lattice(true_neighbors)
            subs, pairs = lattices[true_neighbors]
            rep = inst.reports[i]
            splits = []
            for sub in subs:
                part = cdp(inst.with_report(rep.with_neighbors(sub)))
                splits.append((frozenset(part.candidates), part.non_trading))
            full = splits[-1]
            probe = replace(rep, valuation=probe_table)
            bumped = cdp(inst.with_report(probe))
            result.cases += len(subs) + 1
            if (frozenset(bumped.candidates), bumped.non_trading) != full:
                flag(inst, i, probe, "split depends on a valuation report")
            if i in full[1]:
                for sub, (_, non_trading) in zip(subs, splits):
                    if i not in non_trading:
                        flag(inst, i, rep.with_neighbors(sub),
                             "left the non-trading side by deviating")
            for lo, hi in pairs:
                cands_lo, non_trading_lo = splits[lo]
                if i in cands_lo:
                    if i not in splits[hi][0]:
                        flag(inst, i, rep.with_neighbors(subs[hi]),
                             "candidate dropped after reporting more")
                elif i not in non_trading_lo and splits[lo] != splits[hi]:
                    flag(inst, i, rep.with_neighbors(subs[hi]),
                         "unclassified bidder changed the split")
    return result


def recording_cdp(log):
    """The exploration split, logging what each call was handed: the seller
    set and every (bidder, neighbors, valuation), read at call time."""
    def cdp(inst):
        log.append((inst.seller_neighbors, tuple(
            (i, rep.neighbors, rep.valuation) for i, rep in sorted(inst.reports.items())
        )))
        return graph_exploration_cdp(inst)
    return cdp


def test_cdc_sweep_hands_the_split_what_the_copying_reference_does():
    networks = list(all_digraph_networks(3))
    before = [(seller, dict(out_edges)) for seller, out_edges in networks]
    fast_log, reference_log = [], []
    fast = check_cdp_consistency(recording_cdp(fast_log), networks)
    reference = reference_cdp_consistency(recording_cdp(reference_log), networks)
    assert (fast.instances, fast.cases) == (reference.instances, reference.cases)
    assert fast.violations == reference.violations == []
    assert len(fast_log) == fast.cases
    assert fast_log == reference_log
    assert networks == before  # the shared maps come back untouched


@pytest.mark.parametrize("cdp", [
    mutants.ascending_degree_cdp,
    mutants.valuation_ranked_cdp,
    mutants.invited_count_cdp,
    mutants.outside_invited_cdp,
], ids=lambda cdp: cdp.__name__)
def test_cdc_sweep_flags_what_the_copying_reference_does(cdp):
    networks = list(all_digraph_networks(3))
    before = [(seller, dict(out_edges)) for seller, out_edges in networks]
    fast = check_cdp_consistency(cdp, networks)
    assert fast.violations == reference_cdp_consistency(cdp, networks).violations
    assert networks == before


def locality_trap_instance():
    """Two candidates whose queue position flips with a hidden neighbor,
    fighting over one item."""
    return build_instance(
        1,
        {1, 2, 3, 4},
        {1: {5}, 2: {7, 8}, 3: set(), 4: set(), 5: set(), 7: set(), 8: set()},
        {
            1: Valuation(1, (0, 2)),
            2: Valuation(1, (0, 3)),
        },
    )


def test_degree_ordered_bdp_caught_by_locality():
    result = check_bdp_locality(
        mutants.degree_ordered_greedy_bdp, [locality_trap_instance()]
    )
    assert not result.ok


def test_greedy_locality_holds_on_the_trap():
    assert check_bdp_locality(greedy_bdp, [locality_trap_instance()]).ok


def test_leaky_idm_caught_by_revenue_consistency():
    markets = [branch_market_fixture()]
    result = check_revenue_consistency(mutants.leaky_idm, markets)
    assert not result.ok


def test_revenue_witnesses_replay_exactly():
    result = check_revenue_consistency(mutants.leaky_idm, [branch_market_fixture()])
    assert result.violations
    for violation in result.violations:
        assert replay_violation(mutants.leaky_idm, violation) == violation.delta


def test_revenue_consistency_samples_past_the_budget():
    # The hub's 4 tables times 2**11 invitation subsets exceed 4096.
    star = scalar_market("star", (3,) + (1,) * 11)
    result = check_revenue_consistency(idm_run, [star])
    assert result.summary() == (
        "RC: ok [sampled] instances=1 cases=4097 violations=0"
        " (budget exceeded; sampled)"
    )


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def test_generate_is_deterministic_and_valid():
    spec = FamilySpec(n=6, m=2, v_max=5, count=30, seed=7)
    first = generate_instances(spec)
    second = generate_instances(spec)
    assert first == second
    for inst in first:
        assert inst.ground_truth == inst.reports
        for rep in inst.reports.values():
            assert rep.valuation.monotonicity_violation() is None


def test_generate_all_models():
    for model in ("random-tree-plus-edges", "erdos-renyi", "line", "star"):
        family = generate_instances(
            FamilySpec(n=5, m=1, v_max=3, graph_model=model, count=5, seed=1)
        )
        assert len(family) == 5


def test_generate_zero_bidders():
    family = generate_instances(FamilySpec(n=0, m=1, v_max=3, count=2, seed=1))
    assert all(not all_critical_structures(inst).critical_nodes for inst in family)


def test_generate_bad_spec():
    from netauction.generate import BadSpec

    with pytest.raises(BadSpec):
        generate_instances(FamilySpec(n=-1, m=1, v_max=3))
    with pytest.raises(BadSpec):
        generate_instances(FamilySpec(n=3, m=17, v_max=3))
    with pytest.raises(BadSpec):
        generate_instances(FamilySpec(n=3, m=1, v_max=3, graph_model="mesh"))


def test_tree_families_reach_everyone():
    for inst in generate_instances(
        FamilySpec(n=7, m=1, v_max=3, count=20, seed=13)
    ):
        assert set(all_critical_structures(inst).critical_nodes) == set(range(1, 8))


def test_violations_with_sampled_contexts_replay_exactly():
    family = topology_family(("line",), 3, v_max=2, profiles_per_shape=6, seed=29)
    space = DeviationSpace(v_max=2, budget=4096, others_budget=3, seed=17)
    result = check_ic(drm, family, space)
    assert result.scope == "sampled"
    assert result.violations  # the forced-resale gap shows up here too
    for violation in result.violations:
        assert replay_violation(drm, violation) == violation.delta


def insertion_ordered_instance(order):
    """Four bidders whose true neighbor sets are built by inserting ids in
    ``order``.  Ids 1 and 9, and 2 and 10, share a slot in a small set's
    hash table, so iteration order follows insertion order there."""
    values = {1: 3, 2: 5, 9: 4, 10: 6}
    edges = {1: (2, 10), 2: (9,), 9: (), 10: (1, 9)}
    reports = {
        i: BidderReport(i, Valuation(1, (0, values[i])), frozenset(order(edges[i])))
        for i in edges
    }
    return AuctionInstance(1, frozenset({1}), reports, dict(reports))


def test_sampled_contexts_depend_on_neighbor_sets_not_insertion_order():
    ascending = insertion_ordered_instance(sorted)
    descending = insertion_ordered_instance(lambda ids: sorted(ids, reverse=True))
    assert ascending == descending
    assert list(ascending.reports[10].neighbors) != list(descending.reports[10].neighbors)
    space = DeviationSpace(v_max=2, others_budget=2)
    ic = check_ic(drm, [ascending], space)
    assert ic.violations
    assert check_ic(drm, [descending], space) == ic
    overcharging = mutants.overcharging_mechanism
    ir = check_ir(overcharging, [ascending], space)
    assert ir.violations
    assert check_ir(overcharging, [descending], space) == ir


# ---------------------------------------------------------------------------
# Read-set memo: the IR/IC sweep agrees with one mechanism call per case
# ---------------------------------------------------------------------------


def counted(mechanism):
    """``mechanism`` plus a counter of the calls made to it."""
    calls = Counter()

    def run(instance):
        calls["runs"] += 1
        return mechanism(instance)

    return run, calls


def sweep_signature(result):
    return (
        result.prop, result.scope, result.instances, result.cases,
        result.budget_exceeded,
        [(v.bidder, v.deviation, v.delta, v.context) for v in result.violations],
    )


@pytest.mark.parametrize("others_budget", [0, 2])
@pytest.mark.parametrize("name", sorted(MECHANISMS))
def test_memo_sweep_matches_one_call_per_case(name, others_budget):
    # The lab-ic family; imported here, since test_acceptance imports this module.
    from test_acceptance import _tiny_family

    def mechanism(instance):
        return MECHANISMS[name](instance, MechanismConfig())

    family = _tiny_family()
    space = DeviationSpace(v_max=3, others_budget=others_budget)
    for prop, check in (("IR", check_ir), ("IC", check_ic)):
        memoized, memo_calls = counted(mechanism)
        plain, plain_calls = counted(mechanism)
        result = check(memoized, family, space)
        reference = deviation_cases_without_memo(prop, plain, family, space)
        assert sweep_signature(result) == sweep_signature(reference), (name, prop)
        assert plain_calls["runs"] == reference.cases
        if prop == "IR":  # no two IR deviations share a neighbor subset
            assert memo_calls["runs"] == plain_calls["runs"]
        elif name == "drm":
            assert memo_calls["runs"] < plain_calls["runs"]


def paying_by(read):
    """Sells nothing and pays every bidder ``read(her reported table)``, so
    an outcome depends on the deviator's table only through ``read``."""

    def mechanism(instance):
        payment = {i: -read(rep.valuation.values) for i, rep in instance.reports.items()}
        return Outcome(dict.fromkeys(instance.reports, 0), payment)

    return mechanism


WHOLE_TABLE_READS = {
    "iteration": max,
    "slicing": lambda values: sum(values[1:]),
    "equality": lambda values: int(values == (0,) * len(values)),
    "hashing": lambda values: hash(values) % 5,
}


@pytest.mark.parametrize("read", WHOLE_TABLE_READS.values(), ids=WHOLE_TABLE_READS)
def test_memo_never_reuses_a_run_that_read_the_table_whole(read):
    memoized, memo_calls = counted(paying_by(read))
    plain, plain_calls = counted(paying_by(read))
    result = check_ic(memoized, TINY, SPACE)
    reference = deviation_cases_without_memo("IC", plain, TINY, SPACE)
    assert result.violations
    assert sweep_signature(result) == sweep_signature(reference)
    assert memo_calls == plain_calls and plain_calls["runs"] == result.cases


def read_every_empty_bundle(instance):
    for rep in instance.reports.values():
        rep.valuation.values[0]
    return idm_standalone(instance)


def sell_nothing(instance):
    zero = dict.fromkeys(instance.reports, 0)
    return Outcome(zero, dict(zero))


@pytest.mark.parametrize("other, message", [
    (read_every_empty_bundle, "one read bundle {1} next and the other bundle {}"),
    (sell_nothing, "one read nothing next and the other bundle {1}"),
], ids=["another-bundle", "no-read"])
def test_memo_rejects_a_mechanism_that_reads_otherwise_on_alternate_calls(other, message):
    # ``other`` runs on even calls and idm, which reads every table at the
    # grand bundle {1} first, on odd ones.
    calls = itertools.count()

    def alternating(instance):
        return (idm_standalone if next(calls) % 2 else other)(instance)

    with pytest.raises(AuctionError, match=re.escape(
        "mechanism is not deterministic: two runs for bidder 1 agreed on every "
        f"value read, then {message}"
    )):
        check_ic(alternating, TINY, SPACE)
