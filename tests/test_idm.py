"""Single-item diffusion mechanism: fixtures, identities, sign structure,
and the reserve floor against its virtual-bidder reference."""

import itertools
import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from netauction.critical import all_critical_structures, check_outcome
from netauction.generate import (
    all_digraph_networks,
    branch_market_fixture,
    instance_from_parts,
    scalar_market,
)
from netauction.idm import idm_run
from netauction.model import AuctionInstance

from reference import line_market_fixture, virtual_bidder_idm
from test_critical import random_instance
from test_model import build_instance


def valued(instance, values):
    """The instance with one item, valued by each bidder at ``values[i]``
    (0 when unlisted)."""
    reports = {
        i: replace(rep, values=(0, values.get(i, 0)))
        for i, rep in instance.reports.items()
    }
    return AuctionInstance(1, instance.seller_neighbors, reports)


def holders(result):
    """The bidders a sale allocates anything to."""
    return [i for i, bundle in result.allocation.items() if bundle]


def test_line_fixture():
    result = idm_run(line_market_fixture(), 1)
    assert result.vstar == {1: 0, 2: 3, 3: 5}
    assert result.allocation == {1: 1, 2: 0, 3: 0}
    assert result.payment[1] == 0
    assert result.seller_revenue == 0


def test_branch_fixture():
    result = idm_run(branch_market_fixture(), 1)
    assert result.critical_sequence == (1, 2, 3)
    assert result.vstar == {1: 2, 2: 6, 3: 9}
    assert holders(result) == [2]
    assert result.payment[2] == 6
    assert result.payment[1] == -4
    assert result.payment[3] == 0
    assert result.seller_revenue == 2


def test_single_bidder_pays_nothing():
    result = idm_run(scalar_market("line", (7,)), 1)
    assert result.allocation == {1: 1}
    assert result.payment == {1: 0}


def test_empty_market_is_no_sale():
    inst = scalar_market("line", (3,))
    empty = AuctionInstance(1, frozenset(), dict(inst.reports))  # nobody invited
    result = idm_run(empty, 1)
    assert result.critical_sequence == ()
    assert result.allocation == {1: 0} and result.payment == {1: 0}


def test_revenue_identity_and_signs_on_random_markets():
    rng = random.Random(3)
    for _ in range(300):
        inst = random_instance(rng, rng.randint(1, 9))
        reachable = all_critical_structures(inst).critical_nodes
        if not reachable:
            continue
        market = valued(inst, {i: rng.randint(0, 6) for i in reachable})
        result = idm_run(market, 1)
        check_outcome(market, result)
        assert result.allocation.keys() == result.payment.keys() == market.reports.keys()
        if not result.critical_sequence:
            assert not holders(result) and result.seller_revenue == 0
            continue
        # only the winner holds the lot
        [winner] = holders(result)
        assert result.allocation[winner] == 1
        # revenue telescopes to the first v* on the winner's chain
        seq = result.critical_sequence
        win_pos = seq.index(winner)
        assert result.seller_revenue == result.vstar[seq[0]]
        assert result.seller_revenue >= 0
        for i in seq[:win_pos]:
            assert result.payment[i] <= 0
        assert result.payment[winner] >= 0
        # winner pays at most her bid (local individual rationality)
        assert result.payment[winner] <= market.reports[winner].values[1]
        # vstar never decreases along the sequence
        for a, b in zip(seq, seq[1:]):
            assert result.vstar[a] <= result.vstar[b]
        # nobody outside the winner's chain pays or receives
        for i in result.payment:
            if i not in seq[: win_pos + 1]:
                assert result.payment[i] == 0


# ---------------------------------------------------------------------------
# Reserve floor
# ---------------------------------------------------------------------------


def test_top_value_equal_to_the_reserve_still_sells():
    inst = line_market_fixture()  # values 3, 5, 10 down the chain
    result = idm_run(inst, 1, 10)
    assert result.allocation == {1: 0, 2: 0, 3: 1}
    assert result.vstar == {1: 10, 2: 10, 3: 10}
    assert result.payment == {1: 0, 2: 0, 3: 10}
    unsold = idm_run(inst, 1, 11)
    assert unsold.critical_sequence == ()
    assert unsold.allocation == unsold.payment == {1: 0, 2: 0, 3: 0}


def test_zero_reserve_is_plain_idm():
    rng = random.Random(4)
    for _ in range(200):
        inst = random_instance(rng, rng.randint(1, 8))
        market = valued(inst, {i: rng.randint(0, 6) for i in inst.reports})
        assert idm_run(market, 1, 0) == idm_run(market, 1)


def test_reserve_floor_matches_the_virtual_bidder_exhaustively():
    # Every digraph on 1-3 bidders with every seller set, every one-item
    # value profile in 0..2 and every reserve in 0..3: 55,896 markets.
    markets = floored = 0
    for n in range(1, 4):
        for seller, graph in all_digraph_networks(n):
            network = instance_from_parts(
                1, seller, graph, {i: (0, 0) for i in graph}
            )
            for values in itertools.product(range(3), repeat=n):
                market = valued(network, dict(zip(graph, values)))
                plain = idm_run(market, 1)
                for reserve in range(4):
                    result = idm_run(market, 1, reserve)
                    assert result == virtual_bidder_idm(market, 1, reserve)
                    markets += 1
                    floored += result != plain
    assert markets == 55_896
    assert floored > markets // 2  # the floor changes most of these outcomes


@st.composite
def floored_markets(draw):
    n = draw(st.integers(1, 8))
    ids = range(1, n + 1)
    seller = draw(st.frozensets(st.sampled_from(ids), min_size=1))
    edges = {i: draw(st.frozensets(st.sampled_from(ids))) - {i} for i in ids}
    values = {i: draw(st.integers(0, 9)) for i in ids}
    return valued(build_instance(1, seller, edges), values), draw(st.integers(0, 11))


@given(floored_markets())
@settings(max_examples=300, deadline=None)
def test_reserve_floor_matches_the_virtual_bidder_on_random_markets(case):
    market, reserve = case
    assert idm_run(market, 1, reserve) == virtual_bidder_idm(market, 1, reserve)
