"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The assembled dealer mechanism is not incentive
compatible: a dealer can profit by forcing her own reserve branch (the
forced-resale gap, derived in the README and pinned in
tests/test_properties.py).  Criterion 4b therefore does not assert full
incentive compatibility.  It runs the unchanged IC checker and asserts what
the documents promise: every violation replays exactly, and every violation
is the forced-resale gap, read off the round traces of the truthful and the
deviated run.  The gap is reached by hiding all invitees and also by a pure
value misreport that steers bundle division to a resale bundle whose bar the
dealer's market cannot meet.  The lab family shows the value route only
under sampled misreports of the others; a three-bidder market in
tests/test_properties.py shows it with the others truthful.  A planted
leaky local mechanism shows that a violation of any other shape turns 4b
red.
"""

import random
import time

import pytest

from netauction.critical import all_critical_structures, check_outcome
from netauction.drm import (
    graph_exploration_cdp,
    greedy_bdp,
    idm_grand_bundle,
    run_with_config,
    run_with_config_detailed,
    unfloored_idm,
)
from netauction.framework import BundleTuple, dcaf_run_detailed
from netauction.generate import (
    FamilySpec,
    all_digraph_networks,
    all_undirected_networks,
    branch_market_fixture,
    embedded_branch_fixture,
    generate_instances,
    topology_family,
)
from netauction.idm import idm_run
from netauction.model import MechanismConfig
from netauction.properties import (
    DeviationSpace,
    check_bdp_locality,
    check_cdp_consistency,
    check_ic,
    check_ir,
    check_revenue_consistency,
    check_wbb,
    describe_violation,
    find_epi4nw_witness,
    replay_violation,
)

import mutants
from reference import critical_nodes_by_removal, line_market_fixture
from test_model import build_instance
from test_properties import locality_trap_instance


def _report(num, name, ok, started, limit, extra=""):
    elapsed = time.perf_counter() - started
    tail = f"; {extra}" if extra else ""
    print(
        f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} "
        f"in {elapsed:.1f}s (limit {limit}s){tail}"
    )
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"
    return ok


def drm(instance):
    return run_with_config(instance, MechanismConfig())


def drm_detailed(instance):
    return run_with_config_detailed(instance, MechanismConfig())


def idm_standalone(instance):
    return idm_grand_bundle(instance, MechanismConfig())


# ---------------------------------------------------------------------------
# 1. dominator path equals the removal oracle
# ---------------------------------------------------------------------------


def test_criterion_1_critical_node_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(500):
        n = rng.randint(1, 10)
        ids = list(range(1, n + 1))
        seller = {i for i in ids if rng.random() < 0.4} or {rng.choice(ids)}
        edges = {i: {j for j in ids if j != i and rng.random() < 0.25} for i in ids}
        inst = build_instance(1, seller, edges)
        nodes = all_critical_structures(inst).critical_nodes
        for i in nodes:
            if set(nodes[i]) != critical_nodes_by_removal(inst, i):
                mismatches += 1
    ok = mismatches == 0
    assert _report(1, "critical-node oracle", ok, started, 10,
                   "500 digraphs, every qualified node")


# ---------------------------------------------------------------------------
# 2. hand-derived market fixtures, exact integers
# ---------------------------------------------------------------------------


def test_criterion_2_idm_fixtures():
    started = time.perf_counter()
    result = idm_run(line_market_fixture(), 1)
    line_ok = (
        result.vstar == {1: 0, 2: 3, 3: 5}
        and result.allocation == {1: 1, 2: 0, 3: 0}
        and result.seller_revenue == 0
    )
    result = idm_run(branch_market_fixture(), 1)
    branch_ok = (
        [i for i, bundle in result.allocation.items() if bundle] == [2]
        and result.payment[2] == 6
        and result.payment[1] == -4
        and result.seller_revenue == 2
    )
    ok = line_ok and branch_ok
    assert _report(2, "idm fixtures", ok, started, 10)


# ---------------------------------------------------------------------------
# 3. single-item mechanism is deviation-proof at desk scale
# ---------------------------------------------------------------------------


def test_criterion_3_idm_ic_ir_exhaustive():
    started = time.perf_counter()
    family = topology_family(("line", "star", "branch"), 4, m=1, v_max=3)
    space = DeviationSpace(v_max=3, budget=1 << 20, others_budget=0)
    ir = check_ir(idm_standalone, family, space)
    ic = check_ic(idm_standalone, family, space)
    ok = ir.ok and ic.ok and ir.scope == "exhaustive" and ic.scope == "exhaustive"
    assert _report(
        3, "idm ic/ir exhaustive", ok, started, 300,
        f"{len(family)} markets, {ir.cases + ic.cases} runs",
    )


# ---------------------------------------------------------------------------
# 4. dealer mechanism at desk scale: rationality, compatibility, balance
# ---------------------------------------------------------------------------


def _tiny_family():
    family = topology_family(
        ("line", "star", "branch"), 5, m=1, v_max=3, profiles_per_shape=8, seed=41
    )
    family += topology_family(
        ("line", "branch"), 4, m=2, v_max=3, profiles_per_shape=5, seed=42
    )
    family += generate_instances(
        FamilySpec(n=5, m=2, v_max=3, graph_model="erdos-renyi", count=25, seed=43)
    )
    family += generate_instances(
        FamilySpec(n=5, m=2, v_max=3, count=25, seed=44)
    )
    family.append(branch_market_fixture())
    return family


def test_criterion_4a_drm_individual_rationality():
    started = time.perf_counter()
    result = check_ir(drm, _tiny_family(), DeviationSpace(v_max=3, others_budget=2))
    assert _report(
        4, "drm ir", result.ok, started, 900,
        f"{result.instances} instances, {result.cases} runs [{result.scope}]",
    )
    assert result.ok


def _dealer_branch(run, bidder):
    """(round index, resold flag) of the round where ``bidder`` is a
    candidate, or None when she never is one."""
    for state in run.rounds:
        if bidder in state.candidates:
            return state.index, state.resold[state.candidates.index(bidder)]
    return None


def _is_forced_resale_gap(run_detailed, violation):
    """The deviator is a candidate in the same round of the truthful and the
    deviated run; truthfully she resells her resale bundle, after deviating
    she takes her reserve branch."""
    bidder = violation.bidder
    truthful = _dealer_branch(run_detailed(violation.base_instance()), bidder)
    deviated = _dealer_branch(run_detailed(violation.deviated_instance()), bidder)
    return (
        truthful is not None
        and deviated is not None
        and truthful[0] == deviated[0]
        and truthful[1]
        and not deviated[1]
    )


def _leaky_detailed(instance):
    return dcaf_run_detailed(
        instance, graph_exploration_cdp, greedy_bdp, mutants.leaky_idm
    )


def _leaky(instance):
    return _leaky_detailed(instance).outcome


def test_criterion_4b_drm_incentive_compatibility():
    """drm is not incentive compatible (README, "Known finding"), so this
    asserts what the documents promise instead of ``result.ok``: every
    violation replays exactly and is the forced-resale gap.  On this family
    the gap has two routes: 3,735 violations hide all invitees, and 19 keep
    the true invitees and misreport values under a sampled misreport of the
    others.  The gap is not required to exist, so a mechanism that closes
    it still passes; a planted leaky local mechanism must be flagged."""
    started = time.perf_counter()
    result = check_ic(drm, _tiny_family(), DeviationSpace(v_max=3, others_budget=2))
    unreplayed = [v for v in result.violations if replay_violation(drm, v) != v.delta]
    outside_gap = [
        v for v in result.violations if not _is_forced_resale_gap(drm_detailed, v)
    ]
    planted = check_ic(_leaky, [embedded_branch_fixture()], DeviationSpace(v_max=3))
    planted_outside_gap = [
        v for v in planted.violations if not _is_forced_resale_gap(_leaky_detailed, v)
    ]
    ok = not unreplayed and not outside_gap and bool(planted_outside_gap)
    _report(
        4, "drm ic", ok, started, 900,
        f"{result.instances} instances, {result.cases} runs, "
        f"{len(result.violations)} violations [{result.scope}]",
    )
    assert not unreplayed, (
        f"{len(unreplayed)} of {len(result.violations)} incentive-compatibility "
        "violations do not replay to their stored gain; first: "
        f"{describe_violation(unreplayed[0])}, deviation {unreplayed[0].deviation}"
    )
    assert not outside_gap, (
        f"{len(outside_gap)} of {len(result.violations)} incentive-compatibility "
        "violations are not the forced-resale gap, in which a dealer who "
        "resells when truthful forces her own reserve branch in the same "
        "round, by hiding all invitees or by a value misreport that steers "
        "division to a resale bundle whose bar her market cannot meet; first: "
        f"{describe_violation(outside_gap[0])}, deviation {outside_gap[0].deviation}"
    )
    assert planted_outside_gap, (
        "the forced-resale-gap predicate passed every violation of the planted "
        "leaky local mechanism, so it cannot tell the gap from other gains"
    )


def test_criterion_4c_drm_weak_budget_balance():
    started = time.perf_counter()
    tiny = check_wbb(drm, _tiny_family())
    corpus = []
    for k, (n, m) in enumerate(((5, 2), (8, 3), (10, 4), (12, 4))):
        corpus += generate_instances(
            FamilySpec(n=n, m=m, v_max=7, count=250, seed=50 + k)
        )
    wide = check_wbb(drm, corpus)
    ok = tiny.ok and wide.ok and wide.instances == 1000
    assert _report(
        4, "drm wbb", ok, started, 900,
        f"{tiny.instances} tiny + {wide.instances} random instances",
    )


# ---------------------------------------------------------------------------
# 5. somebody wins nothing and still gets paid
# ---------------------------------------------------------------------------


def test_criterion_5_epi4nw_witness():
    started = time.perf_counter()
    family = generate_instances(FamilySpec(n=6, m=2, v_max=3, count=20, seed=61))
    family.append(embedded_branch_fixture())
    witness = find_epi4nw_witness(drm, family)
    ok = (
        witness is not None
        and witness.delta <= -1
    )
    extra = (
        f"bidder {witness.bidder} paid {-witness.delta} holding nothing"
        if witness
        else "no witness"
    )
    assert _report(5, "epi4nw witness", ok, started, 60, extra)


# ---------------------------------------------------------------------------
# 6. candidacy rules on exhaustively enumerated networks
# ---------------------------------------------------------------------------


def test_criterion_6_cdp_consistency_exhaustive():
    started = time.perf_counter()
    count = 0

    def networks():
        nonlocal count
        for n in range(1, 5):
            for net in all_digraph_networks(n):
                count += 1
                yield net
        for net in all_undirected_networks(5):
            count += 1
            yield net

    result = check_cdp_consistency(graph_exploration_cdp, networks())
    assert _report(
        6, "candidacy consistency", result.ok, started, 600,
        f"{count} networks, {result.cases} split evaluations",
    )
    assert result.ok


# ---------------------------------------------------------------------------
# 7. bundle-division locality and revenue consistency, with mutation kills
# ---------------------------------------------------------------------------


def test_criterion_7_locality_and_revenue_consistency():
    started = time.perf_counter()
    locality_family = (
        topology_family(("line", "star", "branch"), 4, m=1, v_max=3,
                        profiles_per_shape=6, seed=71)
        + generate_instances(
            FamilySpec(n=5, m=2, v_max=3, graph_model="erdos-renyi",
                       count=40, seed=72)
        )
        + [locality_trap_instance()]
    )
    locality = check_bdp_locality(greedy_bdp, locality_family)
    markets = topology_family(("line", "star", "branch"), 4, m=1, v_max=3)
    consistency = check_revenue_consistency(idm_run, markets)
    planted_locality = check_bdp_locality(
        mutants.degree_ordered_greedy_bdp, [locality_trap_instance()]
    )
    planted_rc = check_revenue_consistency(mutants.leaky_idm, [branch_market_fixture()])
    ok = (
        locality.ok
        and consistency.ok
        and consistency.scope == "exhaustive"
        and not planted_locality.ok
        and not planted_rc.ok
    )
    assert _report(
        7, "locality + revenue consistency", ok, started, 600,
        f"{locality.cases} division runs, {consistency.cases} market runs, "
        "both planted variants caught",
    )


# ---------------------------------------------------------------------------
# 8. conservation on a large seeded corpus
# ---------------------------------------------------------------------------


def test_criterion_8_conservation_invariants():
    started = time.perf_counter()
    failures = 0
    runs = 0
    models = ("random-tree-plus-edges", "erdos-renyi", "line", "star")
    for k, model in enumerate(models):
        for chunk in range(5):
            family = generate_instances(
                FamilySpec(
                    n=4 + 2 * chunk, m=min(4, 1 + chunk), v_max=6,
                    graph_model=model, count=500, seed=80 + 10 * k + chunk,
                )
            )
            for inst in family:
                run = dcaf_run_detailed(
                    inst, graph_exploration_cdp, greedy_bdp, unfloored_idm
                )
                runs += 1
                try:
                    check_outcome(inst, run.outcome)
                    assert all(state.intake >= 0 for state in run.rounds)
                    seen = set()
                    for state in run.rounds:
                        assert not (state.removed & seen)
                        seen |= state.removed
                except AssertionError:
                    failures += 1
    ok = failures == 0 and runs == 10_000
    assert _report(8, "conservation invariants", ok, started, 600, f"{runs} runs")


# ---------------------------------------------------------------------------
# 9. worked two-item narrative, the reproducible part
# ---------------------------------------------------------------------------


def test_criterion_9_figure_partial_narrative():
    started = time.perf_counter()
    a, b, ab = 1, 2, 3
    pr = {0: 0, a: 3, b: 7, ab: 11}.__getitem__
    rev = {0: 0, a: 3, b: 9, ab: 11}.__getitem__
    inst = build_instance(2, {1}, {1: set()})  # zero-valuation candidate
    tuples = greedy_bdp(inst, ab, (1,), pr, rev)
    ok = tuples == (BundleTuple(b, 0),)
    assert _report(
        9, "two-item narrative partial", ok, started, 10,
        "resale {b} at margin 2, reserve empty",
    )
