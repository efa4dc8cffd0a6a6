"""Critical diffusion nodes: dominator path against the removal oracle."""

import random

import pytest

from netauction.critical import (
    Unqualified,
    all_critical_structures,
    critical_nodes_by_removal,
)
from netauction.model import qualified_set, restrict_instance

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


def test_oracle_equivalence_on_random_digraphs():
    rng = random.Random(42)
    for _ in range(120):
        inst = random_instance(rng, rng.randint(1, 10))
        nodes = all_critical_structures(inst).critical_nodes
        for i in qualified_set(inst):
            assert set(nodes[i]) == critical_nodes_by_removal(inst, i)


def test_sequence_order_matches_pairwise_membership():
    rng = random.Random(7)
    for _ in range(60):
        inst = random_instance(rng, rng.randint(2, 8))
        nodes = all_critical_structures(inst).critical_nodes
        for i in qualified_set(inst):
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
        reachable = qualified_set(inst)
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
        for i in qualified_set(inst):
            reach = structure.critical_children[i]
            sub = restrict_instance(inst, reach, {i})
            assert all_critical_structures(sub).critical_children[i] == reach
