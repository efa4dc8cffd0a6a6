"""Single-item diffusion mechanism with invitation rewards (IDM).

The item goes to the first node on the top bidder's critical sequence that
can match the best offer outside the next node's reach, never less than the
reserve price; every node earlier on the winner's sequence is paid the
increase in outside competition she created by inviting, which can make her
payment negative (she receives money).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .critical import all_critical_structures
from .model import AuctionInstance, Money

@dataclass(frozen=True)
class SingleItemResult:
    """Outcome of one local single-item market, and how IDM got there: the
    top bidder's critical sequence, which ends at her, and every sequence
    node's outside offer ``vstar`` (both empty when there is no sale).  Only
    the revenue, the sum of the payments, is derived rather than stored.
    """

    winner: int | None
    payments: dict[int, Money]
    critical_sequence: tuple[int, ...]
    vstar: dict[int, Money]

    @property
    def revenue(self) -> Money:
        return sum(self.payments.values())


def idm_run(
    local_instance: AuctionInstance,
    item_value: Mapping[int, Money],
    reserve: Money = 0,
) -> SingleItemResult:
    """Run the mechanism on one market, selling no lower than ``reserve``.

    ``item_value`` maps every qualified bidder to her reported value for the
    (single, abstract) item.  The outside offer ``v*`` of a node on the top
    bidder's critical sequence is the best value among all qualified bidders
    outside that node's reach, and never less than ``reserve``.  A top value
    below ``reserve`` means no sale; one equal to it still sells.  This is
    IDM with one more seller invitee bidding ``reserve``, who loses every
    tie and whose win is no sale; at ``reserve=0`` it is plain IDM.

    Ties for the top bidder break to the lowest id so runs are reproducible.
    An empty market is a no-sale result, not an error.
    """
    structure = all_critical_structures(local_instance)
    qualified = structure.critical_nodes.keys()
    payments = dict.fromkeys(local_instance.reports, 0)
    for i in qualified:
        if i not in item_value:
            raise KeyError(f"no item value for qualified bidder {i}")
    top = min(qualified, key=lambda i: (-item_value[i], i), default=None)
    if top is None or item_value[top] < reserve:
        return SingleItemResult(None, payments, (), {})

    sequence = structure.critical_nodes[top]
    children = structure.critical_children

    vstar: dict[int, Money] = {}
    for i in sequence:
        outside = qualified - children[i]
        vstar[i] = max([reserve, *[item_value[j] for j in outside]])

    winner = top
    for pos, i in enumerate(sequence[:-1]):
        # i can match the best offer outside the next node's reach; her bid
        # never exceeds it, so equality is the matching test.
        if item_value[i] == vstar[sequence[pos + 1]]:
            winner = i
            break

    # The winner's own critical sequence is the prefix of the top bidder's
    # sequence ending at her (dominator-tree ancestor chain).
    win_pos = sequence.index(winner)
    for pos in range(win_pos):
        i = sequence[pos]
        payments[i] = vstar[i] - vstar[sequence[pos + 1]]
    payments[winner] = vstar[winner]
    return SingleItemResult(winner, payments, sequence, vstar)
