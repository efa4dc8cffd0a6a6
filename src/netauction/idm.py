"""Single-item diffusion mechanism with invitation rewards (IDM).

A lot is sold as one item: every qualified bidder bids her report's value for
it.  The lot goes to the first node on the top bidder's critical sequence
that can match the best offer outside the next node's reach, never less than
the reserve price; every node earlier on the winner's sequence is paid the
increase in outside competition she created by inviting, which can make her
payment negative (she receives money).
"""

from __future__ import annotations

from dataclasses import dataclass

from .critical import all_critical_structures
from .model import AuctionInstance, Bundle, Money, Outcome


@dataclass(frozen=True)
class IdmSale(Outcome):
    """One local sale: the winner holds the lot and every other bidder of
    the market holds nothing, and how IDM got there: the top bidder's
    critical sequence, which ends at her, and every sequence node's outside
    offer ``vstar`` (both empty when there is no sale)."""

    critical_sequence: tuple[int, ...]
    vstar: dict[int, Money]


def idm_run(
    local_instance: AuctionInstance, lot: Bundle, reserve: Money = 0
) -> IdmSale:
    """Sell ``lot`` on one market, no lower than ``reserve``.

    Every qualified bidder bids her report's value for ``lot``.  The outside
    offer ``v*`` of a node on the top bidder's critical sequence is the best
    bid among all qualified bidders outside that node's reach, and never
    less than ``reserve``.  A top bid below ``reserve`` means no sale; one
    equal to it still sells.  This is IDM with one more seller invitee
    bidding ``reserve``, who loses every tie and whose win is no sale; at
    ``reserve=0`` it is plain IDM.

    Ties for the top bidder break to the lowest id so runs are reproducible.
    An empty market is a no-sale result, not an error.
    """
    structure = all_critical_structures(local_instance)
    reports = local_instance.reports
    bid = {i: reports[i].values[lot] for i in structure.critical_nodes}
    allocation = dict.fromkeys(reports, 0)
    payment = dict.fromkeys(reports, 0)
    top = min(bid, key=lambda i: (-bid[i], i), default=None)
    if top is None or bid[top] < reserve:
        return IdmSale(allocation, payment, (), {})

    sequence = structure.critical_nodes[top]
    children = structure.critical_children

    vstar: dict[int, Money] = {}
    for i in sequence:
        outside = bid.keys() - children[i]
        vstar[i] = max([reserve, *[bid[j] for j in outside]])

    winner = top
    for pos, i in enumerate(sequence[:-1]):
        # i can match the best offer outside the next node's reach; her bid
        # never exceeds it, so equality is the matching test.
        if bid[i] == vstar[sequence[pos + 1]]:
            winner = i
            break

    # The winner's own critical sequence is the prefix of the top bidder's
    # sequence ending at her (dominator-tree ancestor chain).
    win_pos = sequence.index(winner)
    for pos in range(win_pos):
        i = sequence[pos]
        payment[i] = vstar[i] - vstar[sequence[pos + 1]]
    payment[winner] = vstar[winner]
    allocation[winner] = lot
    return IdmSale(allocation, payment, sequence, vstar)
