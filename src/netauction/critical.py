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
    ``i`` included (her dominator subtree).
    """

    critical_nodes: dict[int, tuple[int, ...]]
    critical_children: dict[int, frozenset[int]]


def _dominator_tree(instance: AuctionInstance) -> dict[int, int]:
    """Immediate dominators for every qualified bidder, seller as source.

    Iterative intersection scheme on a reverse postorder (Cooper/Harvey/
    Kennedy); quadratic worst case, which is fine at desk scale.
    """
    qualified = qualified_set(instance)
    succ: dict[int, list[int]] = {_SOURCE: []}
    for i in instance.seller_neighbors:
        if i in qualified:
            succ[_SOURCE].append(i)
    for i in qualified:
        succ[i] = [j for j in instance.reports[i].neighbors if j in qualified]

    # Depth-first postorder from the source.
    order: list[int] = []
    seen = {_SOURCE}
    stack: list[tuple[int, int]] = [(_SOURCE, 0)]
    while stack:
        node, idx = stack[-1]
        if idx < len(succ[node]):
            stack[-1] = (node, idx + 1)
            child = succ[node][idx]
            if child not in seen:
                seen.add(child)
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
    """Sequences and children for every qualified bidder in one pass."""
    idom = _dominator_tree(instance)
    sequences: dict[int, tuple[int, ...]] = {}
    children_sets: dict[int, set[int]] = {i: {i} for i in idom}
    for i in idom:
        chain = [i]
        cur = i
        while idom[cur] != _SOURCE:
            cur = idom[cur]
            chain.append(cur)
            children_sets[cur].add(i)
        chain.reverse()
        sequences[i] = tuple(chain)
    return CriticalStructure(
        sequences, {i: frozenset(s) for i, s in children_sets.items()}
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
