"""Single-item diffusion mechanism: fixtures, identities, sign structure."""

import random

from netauction.critical import all_critical_structures
from netauction.generate import branch_market_fixture, scalar_market
from netauction.idm import idm_run

from reference import line_market_fixture
from test_critical import random_instance


def values_of(instance):
    qualified = all_critical_structures(instance).critical_nodes
    return {i: instance.reports[i].valuation.values[1] for i in qualified}


def test_line_fixture():
    inst = line_market_fixture()
    result = idm_run(inst, values_of(inst))
    assert result.vstar == {1: 0, 2: 3, 3: 5}
    assert result.winner == 1
    assert result.payments[1] == 0
    assert result.revenue == 0


def test_branch_fixture():
    inst = branch_market_fixture()
    result = idm_run(inst, values_of(inst))
    assert result.top_bidder == 3
    assert result.critical_sequence == (1, 2, 3)
    assert result.vstar == {1: 2, 2: 6, 3: 9}
    assert result.winner == 2
    assert result.payments[2] == 6
    assert result.payments[1] == -4
    assert result.payments[3] == 0
    assert result.revenue == 2


def test_single_bidder_pays_nothing():
    inst = scalar_market("line", (7,))
    result = idm_run(inst, values_of(inst))
    assert result.winner == 1
    assert result.payments[1] == 0
    assert result.revenue == 0


def test_empty_market_is_no_sale():
    from netauction.model import AuctionInstance

    inst = scalar_market("line", (3,))
    empty = AuctionInstance(1, frozenset(), dict(inst.reports))  # nobody invited
    result = idm_run(empty, {})
    assert result.winner is None and result.top_bidder is None
    assert all(p == 0 for p in result.payments.values())
    assert result.revenue == 0


def test_revenue_identity_and_signs_on_random_markets():
    rng = random.Random(3)
    for _ in range(300):
        inst = random_instance(rng, rng.randint(1, 9))
        reachable = all_critical_structures(inst).critical_nodes
        if not reachable:
            continue
        values = {i: rng.randint(0, 6) for i in reachable}
        result = idm_run(inst, values)
        assert result.revenue == sum(result.payments.values())
        if result.winner is None:
            continue
        # revenue telescopes to the first v* on the winner's chain
        seq = result.critical_sequence
        win_pos = seq.index(result.winner)
        assert result.revenue == result.vstar[seq[0]]
        assert result.revenue >= 0
        for i in seq[:win_pos]:
            assert result.payments[i] <= 0
        assert result.payments[result.winner] >= 0
        # winner pays at most her bid (local individual rationality)
        assert result.payments[result.winner] <= values[result.winner]
        # vstar never decreases along the sequence
        for a, b in zip(seq, seq[1:]):
            assert result.vstar[a] <= result.vstar[b]
        # nobody outside the winner's chain pays or receives
        for i in result.payments:
            if i not in seq[: win_pos + 1]:
                assert result.payments[i] == 0
