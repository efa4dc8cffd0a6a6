"""Critical diffusion structure of the invitation graph.

A bidder ``c`` is a critical diffusion node of bidder ``i`` when every
invitation chain from the seller to ``i`` passes through ``c`` (``i`` counts
as critical for itself).  These are exactly the dominators of ``i`` with the
seller as source, so every bidder's dominator set is computed here as an
iterative fixpoint.  The removal-reachability definition is the normative
semantics; the tests keep it as an independent oracle
(``critical_nodes_by_removal`` in ``tests/reference.py``).

Its walk from the seller is the package's only reachability walk: the
qualified bidders are the structure's keys, and :func:`check_outcome` reads
them there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .model import AuctionError, AuctionInstance, Outcome, full_bundle


class Unqualified(AuctionError):
    def __init__(self, bidder: int):
        super().__init__(f"bidder {bidder} is not reachable from the seller")


@dataclass(frozen=True)
class CriticalStructure:
    """Per-bidder critical sequences and critical children of every
    qualified bidder.

    ``critical_nodes[i]`` lists ``i``'s critical diffusion nodes so that each
    entry is critical for every later one, ending at ``i`` itself;
    ``critical_children[i]`` is every bidder ``i`` is critical for,
    ``i`` included (her dominator subtree).  The keys of either mapping are
    exactly the qualified bidders, in ascending order.  Both mappings are
    read-only: one structure is shared by every caller that asks about the
    same invitation graph.
    """

    critical_nodes: Mapping[int, tuple[int, ...]]
    critical_children: Mapping[int, frozenset[int]]


def all_critical_structures(instance: AuctionInstance) -> CriticalStructure:
    """Sequences and children for every qualified bidder in one pass.

    The structure depends on the invitation graph alone (the seller's
    invitations and every reported neighbor set), never on ``m``,
    valuations or ground truth.  The last 32 graphs' structures are
    memoized, so equal graphs share one read-only result.
    """
    return _structure(
        instance.seller_neighbors,
        frozenset((b, r.neighbors) for b, r in instance.reports.items()),
    )


def check_outcome(instance: AuctionInstance, outcome: Outcome) -> None:
    """Assert the outcome invariants: disjoint allocations inside the item
    universe, and unqualified bidders at empty allocation and zero payment.
    The seller's revenue is derived from the payments, so it needs no check."""
    union = 0
    unknown = ~full_bundle(instance.m)
    for bid, bundle in outcome.allocation.items():
        if bundle & union:
            raise AssertionError(f"bidder {bid} overlaps an earlier allocation")
        if bundle & unknown:
            raise AssertionError(f"bidder {bid} allocated unknown items")
        union |= bundle
    qualified = all_critical_structures(instance).critical_nodes
    for bid in instance.reports:
        if bid not in qualified:
            if outcome.allocation.get(bid, 0) != 0 or outcome.payment.get(bid, 0) != 0:
                raise AssertionError(f"unqualified bidder {bid} was touched")


# A deviation sweep cycles over at most 2**4 neighbor subsets at each of two
# call sites (round and local market), so 32 graphs keep nearly every repeat
# a hit; an unbounded memo grows with the corpus and with it peak memory.
@lru_cache(maxsize=32)
def _structure(
    seller_neighbors: frozenset[int], edges: frozenset[tuple[int, frozenset[int]]]
) -> CriticalStructure:
    neighbors = dict(edges)
    # Breadth-first from the seller's invitees: ``order`` lists exactly the
    # qualified bidders, ``preds`` each one's qualified inviters.
    order = [i for i in seller_neighbors if i in neighbors]
    invited_by_seller = len(order)
    preds: dict[int, list[int]] = {i: [] for i in order}
    for i in order:
        for j in neighbors[i]:
            if j in neighbors:
                if j not in preds:
                    preds[j] = []
                    order.append(j)
                preds[j].append(i)

    # dom(j) is j plus the dominators all of j's inviters share.  No bidder
    # stands between the seller and her invitees, so they keep {j}; an
    # inviter not yet visited counts as everyone.  Each pass can only shrink
    # a set, so the loop ends.
    dom = {i: frozenset((i,)) for i in order[:invited_by_seller]}
    changed = True
    while changed:
        changed = False
        for j in order[invited_by_seller:]:
            new = frozenset.intersection(
                *[dom[p] for p in preds[j] if p in dom]
            ) | {j}
            if dom.get(j) != new:
                dom[j] = new
                changed = True

    # A bidder's dominators form a chain, so their own dominator counts
    # order them from the seller's side down to the bidder.
    ranked = sorted(dom)
    children: dict[int, set[int]] = {i: set() for i in ranked}
    for i in ranked:
        for c in dom[i]:
            children[c].add(i)
    return CriticalStructure(
        MappingProxyType(
            {i: tuple(sorted(dom[i], key=lambda c: len(dom[c]))) for i in ranked}
        ),
        MappingProxyType({i: frozenset(s) for i, s in children.items()}),
    )

