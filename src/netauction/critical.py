"""Critical diffusion structure of the invitation graph.

A bidder ``c`` is a critical diffusion node of bidder ``i`` when every
invitation chain from the seller to ``i`` passes through ``c`` (``i`` counts
as critical for itself).  These are exactly the dominators of ``i`` with the
seller as source, so the production path computes a dominator tree; the
removal-reachability definition is kept as an independent oracle
(:func:`critical_nodes_by_removal`) and is the normative semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .model import AuctionError, AuctionInstance, qualified_set

_SOURCE = 0  # internal stand-in for the seller; bidder ids are >= 1


class Unqualified(AuctionError):
    def __init__(self, bidder: int):
        self.bidder = bidder
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


def _dominator_tree(
    seller_neighbors: frozenset[int], neighbors: Mapping[int, frozenset[int]]
) -> dict[int, int]:
    """Immediate dominators of every bidder reachable from the seller.

    ``neighbors`` maps each bidder to her invitees; ids without an entry are
    absent.  Iterative intersection scheme on a reverse postorder (Cooper/
    Harvey/Kennedy); quadratic worst case, which is fine at desk scale.
    """
    # Depth-first postorder from the source; it visits exactly the bidders
    # reachable from the seller, and ``succ`` doubles as the visited set.
    succ: dict[int, list[int]] = {
        _SOURCE: [i for i in seller_neighbors if i in neighbors]
    }
    order: list[int] = []
    stack: list[tuple[int, int]] = [(_SOURCE, 0)]
    while stack:
        node, idx = stack[-1]
        out = succ[node]
        if idx < len(out):
            stack[-1] = (node, idx + 1)
            child = out[idx]
            if child not in succ:
                succ[child] = [j for j in neighbors[child] if j in neighbors]
                stack.append((child, 0))
        else:
            order.append(node)
            stack.pop()
    order.reverse()  # reverse postorder, source first
    number = {node: k for k, node in enumerate(order)}

    preds: dict[int, list[int]] = {node: [] for node in order}
    for node in order:
        for child in succ[node]:
            preds[child].append(node)

    idom: dict[int, int] = {_SOURCE: _SOURCE}
    changed = True
    while changed:
        changed = False
        for node in order[1:]:
            candidates = [p for p in preds[node] if p in idom]
            new = candidates[0]
            for p in candidates[1:]:
                a, b = p, new
                while a != b:
                    while number[a] > number[b]:
                        a = idom[a]
                    while number[b] > number[a]:
                        b = idom[b]
                new = a
            if idom.get(node) != new:
                idom[node] = new
                changed = True
    del idom[_SOURCE]
    return idom


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


# A deviation sweep cycles over at most 2**4 neighbor subsets at each of two
# call sites (round and local market), so 32 graphs keep nearly every repeat
# a hit; an unbounded memo grows with the corpus and with it peak memory.
@lru_cache(maxsize=32)
def _structure(
    seller_neighbors: frozenset[int], edges: frozenset[tuple[int, frozenset[int]]]
) -> CriticalStructure:
    idom = _dominator_tree(seller_neighbors, dict(edges))
    sequences: dict[int, tuple[int, ...]] = {}
    children_sets: dict[int, set[int]] = {i: {i} for i in sorted(idom)}
    for i in children_sets:
        chain = [i]
        cur = i
        while idom[cur] != _SOURCE:
            cur = idom[cur]
            chain.append(cur)
            children_sets[cur].add(i)
        chain.reverse()
        sequences[i] = tuple(chain)
    return CriticalStructure(
        MappingProxyType(sequences),
        MappingProxyType({i: frozenset(s) for i, s in children_sets.items()}),
    )


def critical_nodes_by_removal(instance: AuctionInstance, i: int) -> frozenset[int]:
    """Oracle form: ``i`` plus every node whose removal cuts ``i`` off.

    Recomputes seller-reachability once per removed candidate; independent of
    the dominator path above by construction.
    """
    qualified = qualified_set(instance)
    if i not in qualified:
        raise Unqualified(i)
    out = {i}
    for c in qualified:
        if c == i:
            continue
        reached: set[int] = set()
        stack = [j for j in instance.seller_neighbors if j in instance.reports and j != c]
        reached.update(stack)
        while stack:
            cur = stack.pop()
            for nb in instance.reports[cur].neighbors:
                if nb != c and nb not in reached and nb in instance.reports:
                    reached.add(nb)
                    stack.append(nb)
        if i not in reached:
            out.add(c)
    return frozenset(out)
