"""Critical diffusion nodes: dominator path against the removal oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netauction import critical
from netauction.critical import Unqualified, all_critical_structures, check_outcome
from netauction.drm import run_with_config_detailed
from netauction.generate import (
    FamilySpec,
    embedded_branch_fixture,
    generate_instances,
)
from netauction.model import (
    AuctionInstance,
    BidderReport,
    MechanismConfig,
    Outcome,
    restrict_instance,
)

from reference import closure_oracle, critical_nodes_by_removal, two_round_showcase
from test_model import build_instance


def line(n):
    return build_instance(
        1, {1} if n else set(), {i: ({i + 1} if i < n else set()) for i in range(1, n + 1)}
    )


def diamond():
    # two disjoint routes to c=3
    return build_instance(1, {1, 2}, {1: {3}, 2: {3}, 3: set()})


def branch():
    return build_instance(
        1, {1, 4}, {1: {2, 5}, 2: {3}, 3: set(), 4: set(), 5: set()}
    )


def random_instance(rng, n):
    ids = list(range(1, n + 1))
    seller = {i for i in ids if rng.random() < 0.4} or {rng.choice(ids)}
    edges = {
        i: {j for j in ids if j != i and rng.random() < 0.25} for i in ids
    }
    return build_instance(1, seller, edges)


def test_chain_nodes_are_all_critical():
    assert all_critical_structures(line(3)).critical_nodes[3] == (1, 2, 3)


def test_diamond_shares_only_the_target():
    assert all_critical_structures(diamond()).critical_nodes[3] == (3,)


def test_branch_fixture_nodes_and_children():
    structure = all_critical_structures(branch())
    assert structure.critical_nodes[3] == (1, 2, 3)
    assert structure.critical_children[1] == {1, 2, 3, 5}
    assert structure.critical_children[4] == {4}


def test_chain_children():
    structure = all_critical_structures(line(3))
    assert structure.critical_children[1] == {1, 2, 3}
    assert structure.critical_children[2] == {2, 3}


def test_unqualified_target_raises():
    inst = build_instance(1, {1}, {1: set(), 2: set()})
    structure = all_critical_structures(inst)
    assert 2 not in structure.critical_nodes
    assert 2 not in structure.critical_children
    with pytest.raises(Unqualified):
        critical_nodes_by_removal(inst, 2)


def test_batch_matches_single_queries_on_line():
    inst = line(3)
    structure = all_critical_structures(inst)
    assert structure.critical_nodes == {1: (1,), 2: (1, 2), 3: (1, 2, 3)}
    assert structure.critical_children[1] == {1, 2, 3}
    for i, seq in structure.critical_nodes.items():
        assert set(seq) == critical_nodes_by_removal(inst, i)


def test_batch_empty_when_nobody_qualifies():
    inst = build_instance(1, set(), {1: set()})
    structure = all_critical_structures(inst)
    assert structure.critical_nodes == {}
    assert structure.critical_children == {}


def sparse_instance(rng, n):
    # one seller invitee and about two invitations each: long, branching
    # chains whose dominator sets take several fixpoint passes to settle
    ids = list(range(1, n + 1))
    edges = {i: {j for j in ids if j != i and rng.random() < 2 / n} for i in ids}
    return build_instance(1, {rng.choice(ids)}, edges)


def test_oracle_equivalence_on_random_digraphs():
    rng = random.Random(42)
    corpus = [random_instance(rng, rng.randint(1, 10)) for _ in range(120)]
    corpus += [sparse_instance(rng, rng.randint(20, 40)) for _ in range(30)]
    for inst in corpus:
        nodes = all_critical_structures(inst).critical_nodes
        assert set(nodes) == closure_oracle(inst)
        for i in nodes:
            assert set(nodes[i]) == critical_nodes_by_removal(inst, i)


def test_sequence_order_matches_pairwise_membership():
    rng = random.Random(7)
    for _ in range(60):
        inst = random_instance(rng, rng.randint(2, 8))
        nodes = all_critical_structures(inst).critical_nodes
        for i in nodes:
            seq = nodes[i]
            assert seq[-1] == i
            for earlier_pos, earlier in enumerate(seq):
                for later in seq[earlier_pos + 1 :]:
                    assert earlier in critical_nodes_by_removal(inst, later)


def test_children_duality_and_nesting():
    rng = random.Random(11)
    for _ in range(60):
        inst = random_instance(rng, rng.randint(2, 8))
        structure = all_critical_structures(inst)
        reachable = structure.critical_nodes
        for i in reachable:
            for j in reachable:
                assert (j in structure.critical_children[i]) == (
                    i in structure.critical_nodes[j]
                )
        for i in reachable:
            seq = structure.critical_nodes[i]
            for pos in range(len(seq) - 1):
                earlier, later = seq[pos], seq[pos + 1]
                assert structure.critical_children[later] < structure.critical_children[
                    earlier
                ]


def test_restriction_idempotence():
    rng = random.Random(23)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(2, 8))
        structure = all_critical_structures(inst)
        for i in structure.critical_children:
            reach = structure.critical_children[i]
            sub = restrict_instance(inst, reach, {i})
            assert all_critical_structures(sub).critical_children[i] == reach


def assert_matches_oracle(inst, structure):
    reachable = closure_oracle(inst)
    assert set(structure.critical_nodes) == reachable
    assert set(structure.critical_children) == reachable
    oracle = {i: critical_nodes_by_removal(inst, i) for i in reachable}
    for i in reachable:
        assert set(structure.critical_nodes[i]) == oracle[i]
        assert structure.critical_children[i] == {j for j in reachable if i in oracle[j]}


def test_structure_depends_on_the_invitation_graph_alone():
    base = branch()
    structure = all_critical_structures(base)
    reordered = AuctionInstance(
        base.m, base.seller_neighbors, dict(reversed(base.reports.items()))
    )
    revalued = AuctionInstance(
        2,
        base.seller_neighbors,
        {
            b: BidderReport(b, (0, b, 1, b + 1), r.neighbors)
            for b, r in base.reports.items()
        },
        dict(base.reports),
    )
    reports = dict(base.reports)
    reports[3] = reports[3].with_neighbors({99})  # 99 has no report
    dangling = AuctionInstance(base.m, base.seller_neighbors | {98}, reports)
    for variant in (reordered, revalued, dangling):
        assert all_critical_structures(variant) == structure


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_raw_instances_qualify_by_the_structure(data):
    """The engine and ``check_outcome`` take unvalidated instances, whose
    seller invitations and neighbor sets may name ids that have no report:
    the structure's keys still match the oracle, and ``check_outcome`` still
    rejects paying a reporting bidder the seller cannot reach."""
    ids = st.integers(1, 8)
    reporting = data.draw(st.frozensets(ids, max_size=6))
    seller = data.draw(st.frozensets(ids, max_size=4))
    reports = {
        i: BidderReport(i, (0, 0), data.draw(st.frozensets(ids, max_size=4)))
        for i in sorted(reporting)
    }
    inst = AuctionInstance(1, seller, reports)
    qualified = closure_oracle(inst)
    assert set(all_critical_structures(inst).critical_nodes) == qualified
    check_outcome(inst, Outcome({}, dict.fromkeys(qualified, 1)))
    for bid in sorted(reporting - qualified):
        with pytest.raises(AssertionError, match=f"unqualified bidder {bid} was touched"):
            check_outcome(inst, Outcome({}, {bid: 1}))


def test_returned_mappings_are_read_only():
    structure = all_critical_structures(branch())
    with pytest.raises(TypeError):
        structure.critical_nodes[1] = ()
    with pytest.raises(TypeError):
        structure.critical_children[4] = frozenset()
    assert all_critical_structures(branch()).critical_nodes[3] == (1, 2, 3)


def test_memo_agrees_with_oracle_across_eviction():
    rng = random.Random(5)
    corpus, graphs = [], set()
    while len(corpus) < 80:
        inst = random_instance(rng, rng.randint(1, 7))
        graph = (inst.seller_neighbors, frozenset(
            (b, r.neighbors) for b, r in inst.reports.items()
        ))
        if graph not in graphs:
            graphs.add(graph)
            corpus.append(inst)
    critical._structure.cache_clear()
    for inst in corpus:
        assert_matches_oracle(inst, all_critical_structures(inst))
    middle = critical._structure.cache_info()
    # The second pass runs backwards: the most recent graphs are hits, the
    # earlier ones were evicted and are rebuilt.
    for inst in reversed(corpus):
        assert_matches_oracle(inst, all_critical_structures(inst))
    after = critical._structure.cache_info()
    assert middle.misses == len(corpus)
    assert after.hits > middle.hits
    assert after.misses > middle.misses


def test_dealer_market_structure_is_the_round_subtree():
    """Every dealer's local market has the round's dominator subtree below
    her as its critical structure, so a round's structure could serve it."""
    corpus = [two_round_showcase(), embedded_branch_fixture()]
    corpus += generate_instances(
        FamilySpec(n=10, m=2, v_max=6, graph_model="erdos-renyi", edge_p=0.25,
                   count=40, seed=9)
    )
    markets = deep_markets = later_rounds = 0
    for inst in corpus:
        for state in run_with_config_detailed(inst, MechanismConfig()).rounds:
            residual = state.residual
            round_structure = all_critical_structures(residual)
            later_rounds += state.index > 0
            for d in state.candidates:
                reach = round_structure.critical_children[d]
                locals_ = reach - {d}
                if not locals_:
                    continue
                markets += 1
                deep_markets += len(locals_) > 1
                market = restrict_instance(
                    residual, locals_, residual.reports[d].neighbors & reach
                )
                local = all_critical_structures(market)
                assert dict(local.critical_nodes) == {
                    j: seq[seq.index(d) + 1:]
                    for j, seq in round_structure.critical_nodes.items()
                    if j in locals_
                }
                assert dict(local.critical_children) == {
                    j: round_structure.critical_children[j] for j in locals_
                }
                assert_matches_oracle(market, local)
    # The corpus must reach later rounds and markets deeper than one bidder.
    assert markets >= 38
    assert deep_markets >= 19
    assert later_rounds >= 15
